//! # HyperPlane — a scalable low-latency notification accelerator for
//! software data planes
//!
//! A from-scratch Rust reproduction of *HyperPlane* (MICRO 2020): the
//! QWAIT programming model, the monitoring-set/ready-set hardware
//! microarchitecture, a discrete-event multicore simulator with a MESI
//! coherence model, the six evaluation workloads as real kernels, and a
//! harness that regenerates every figure of the paper's evaluation.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here.
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`device`] | `hp-core` | monitoring set, ready set/PPA, QWAIT, HW cost model |
//! | [`sdp`] | `hp-sdp` | spinning + HyperPlane data-plane engines, telemetry, power |
//! | [`mem`] | `hp-mem` | L1/LLC + directory-MESI coherence simulator |
//! | [`queues`] | `hp-queues` | simulated doorbells, queues and their address layout |
//! | [`traffic`] | `hp-traffic` | FB/PC/NC/SQ shapes, Poisson generation |
//! | [`workloads`] | `hp-workloads` | GRE, AES-CBC, steering, Reed–Solomon, RAID P+Q, dispatch |
//! | [`sim`] | `hp-sim` | event queue, cycle clock, histograms, RNG streams |
//!
//! ## Quickstart
//!
//! ```
//! use hyperplane::prelude::*;
//!
//! // Compare the two notification mechanisms on one configuration.
//! let mut cfg = ExperimentConfig::new(
//!     WorkloadKind::PacketEncap,
//!     TrafficShape::SingleQueue,
//!     256,
//! );
//! cfg.target_completions = 500; // keep the doctest quick
//!
//! let spinning = peak_throughput(&cfg);
//! let accel = peak_throughput(&cfg.clone().with_notifier(Notifier::hyperplane()));
//! assert!(accel.throughput_tps > spinning.throughput_tps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hp_core as device;
pub use hp_mem as mem;
pub use hp_queues as queues;
pub use hp_sdp as sdp;
pub use hp_sim as sim;
pub use hp_traffic as traffic;
pub use hp_workloads as workloads;

/// The most commonly used types and functions, in one import.
pub mod prelude {
    pub use hp_core::qwait::{HyperPlaneConfig, HyperPlaneDevice, RearmAction};
    pub use hp_core::ready_set::{PpaKind, ServicePolicy};
    pub use hp_mem::system::{MemSystem, MemSystemConfig};
    pub use hp_mem::types::{AccessKind, Addr, AddrRange, CoreId};
    pub use hp_queues::sim::{QueueId, QueueLayout};
    pub use hp_sdp::config::{ExperimentConfig, Load, Notifier};
    pub use hp_sdp::runner::{peak_throughput, run, run_at_load, run_zero_load};
    pub use hp_sdp::{ExperimentResult, PowerModel, SmtCoRunner};
    pub use hp_sim::time::{Clock, Cycles, SimTime};
    pub use hp_traffic::shape::TrafficShape;
    pub use hp_workloads::service::WorkloadKind;
}
