//! # hp-traffic — traffic shapes and load generation
//!
//! Models the emulated I/O sources of the paper's methodology: the four
//! traffic shapes from §II-C (FB, PC, NC, SQ), open-loop Poisson arrival
//! streams at a configurable offered load, and the scale-out queue
//! partitioner (with optional static imbalance for Fig. 10b).
//!
//! ```
//! use hp_traffic::shape::TrafficShape;
//!
//! // PC: 20% of queues hot, the rest at 5% probability.
//! let w = TrafficShape::ProportionallyConcentrated.weights(100);
//! assert_eq!(w.iter().filter(|&&x| x == 1.0).count(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod generator;
pub mod shape;

pub use generator::{partition_queues, Arrival};
pub use shape::TrafficShape;
