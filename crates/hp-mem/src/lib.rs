//! # hp-mem — multicore cache and coherence simulator
//!
//! The memory-system substrate of the HyperPlane reproduction: private
//! set-associative L1s, a shared inclusive LLC, and a directory-based MESI
//! protocol with visible **GetS/GetM** transactions.
//!
//! Two properties of this model carry the paper's phenomena:
//!
//! 1. **Doorbell misses.** A producer's doorbell store invalidates the
//!    polling core's cached copy, so spin-polling across many queues incurs
//!    cache-miss latency on exactly the lines that changed — the root cause
//!    of the queue-scalability collapse in Figs. 3 and 8.
//! 2. **GetM visibility.** Write-ownership transactions are surfaced in
//!    [`system::AccessResult::getm`]; HyperPlane's monitoring set consumes
//!    these to detect work arrival without polling. Silent E→M upgrades are
//!    modeled too, which is why the re-arm path must issue the
//!    [`system::MemSystem::probe_shared`] GetS probe, just as §III-B of the
//!    paper requires.
//!
//! ```
//! use hp_mem::system::{MemSystem, MemSystemConfig};
//! use hp_mem::types::{AccessKind, Addr, CoreId};
//!
//! let mut mem = MemSystem::new(MemSystemConfig::cmp(2));
//! // A producer (core 1) rings a doorbell the consumer (core 0) polls.
//! let doorbell = Addr(0x10_000);
//! mem.access(CoreId(0), doorbell, AccessKind::Load);
//! let ring = mem.access(CoreId(1), doorbell, AccessKind::Store);
//! assert!(ring.getm.is_some(), "the monitoring set would see this arrival");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod reference;
pub mod system;
pub mod types;

pub use system::{AccessResult, FastPathStats, LatencyModel, MemSystem, MemSystemConfig};
pub use types::{AccessKind, Addr, AddrRange, CoreId, HitLevel, LineAddr, LINE_BYTES};
