//! # hp-workloads — the six data-plane tasks as service-time rows
//!
//! The paper's evaluation (§V-A) runs six data-plane tasks as software on
//! the simulated cores. This simulator does not execute them: each task is
//! a [`WorkloadKind`] row of three paper-calibrated constants (DESIGN.md
//! §6) — a mean service time, a per-item buffer footprint in cache lines,
//! and a useful IPC for the telemetry model. [`ServiceModel`] draws
//! per-item service demands from the first.
//!
//! ```
//! use hp_workloads::service::WorkloadKind;
//!
//! // Erasure coding is the slowest task and moves a 4 KB block.
//! let ec = WorkloadKind::ErasureCoding;
//! assert_eq!(ec.mean_service_us(), 9.5);
//! assert_eq!(ec.buffer_lines(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;

pub use service::{ServiceModel, WorkloadKind};
