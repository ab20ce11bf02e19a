//! # hp-queues — simulated doorbells and I/O queues
//!
//! The queueing substrate of the HyperPlane simulator ([`sim`]): the
//! [`sim::QueueId`] and [`sim::WorkItem`] the engine's per-queue FIFOs
//! carry, and [`sim::QueueLayout`], which reserves the pinned doorbell
//! address range and lays out descriptor lines and buffer pools in the
//! simulated physical address space.
//!
//! ```
//! use hp_queues::sim::{QueueId, QueueLayout};
//!
//! let layout = QueueLayout::new(1000, 16, 4);
//! // The monitoring set will snoop exactly this range:
//! let range = layout.doorbell_range();
//! assert!(range.contains_line(layout.doorbell(QueueId(123)).line()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sim;

pub use sim::{QueueId, QueueLayout, WorkItem};
