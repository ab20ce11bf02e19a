//! # hp-perfbench — host-time benchmark of the HyperPlane simulator
//!
//! One process runs one named workload: an untimed warm-up round, timed
//! rounds with every observer off (each timing `Engine::try_new` and
//! `Engine::run` apart), then one traced round with every observer on and
//! a probe of each simulator layer's public API. The end-to-end metrics
//! are medians over the timed rounds; the per-layer metrics and the
//! count-times-probe ledger come from the traced round and the probes.
//! Every round is checked against a digest of its simulated outcome. See
//! `README.md` for the workloads, the metrics and how to compare runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
