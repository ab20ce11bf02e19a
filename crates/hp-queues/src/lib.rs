//! # hp-queues — doorbells, I/O queues, and lock-free rings
//!
//! The queueing substrate of the HyperPlane reproduction, covering both
//! sides of the model:
//!
//! * **Simulated** ([`sim`]): the [`sim::QueueId`] and [`sim::WorkItem`]
//!   the engine's per-queue FIFOs carry, and [`sim::QueueLayout`], which
//!   reserves the pinned doorbell address range and lays out descriptor
//!   lines and buffer pools in the simulated physical address space.
//! * **Real** ([`doorbell`], [`ring`]): a thread-safe semaphore-style
//!   [`doorbell::Doorbell`] and a Vyukov bounded MPMC [`ring::MpmcRing`] —
//!   the "lock-free task queues" the paper's SDP uses (§V-A), runnable in
//!   the examples and stress tests.
//!
//! ```
//! use hp_queues::sim::{QueueId, QueueLayout};
//!
//! let layout = QueueLayout::new(1000, 16, 4);
//! // The monitoring set will snoop exactly this range:
//! let range = layout.doorbell_range();
//! assert!(range.contains_line(layout.doorbell(QueueId(123)).line()));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod doorbell;
pub mod ring;
pub mod sim;

pub use doorbell::Doorbell;
pub use ring::MpmcRing;
pub use sim::{QueueId, QueueLayout, WorkItem};
