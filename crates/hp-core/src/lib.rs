//! # hp-core — the HyperPlane notification accelerator
//!
//! The paper's primary contribution: a hardware subsystem that watches
//! doorbell cache lines for work arrival and arbitrates which queue each
//! data-plane core serves next, behind the `QWAIT` programming model.
//!
//! * [`monitoring`] — the **monitoring set**: a Cuckoo-hashed (ZCache-like)
//!   associative memory mapping doorbell line tags to QIDs, snooping GetM
//!   coherence transactions (§IV-A).
//! * [`ready_set`] — the **ready set**: ready/mask bit vectors and a
//!   Programmable Priority Arbiter in both ripple and Brent–Kung
//!   parallel-prefix forms, with round-robin / weighted round-robin /
//!   strict priority policies (§IV-B).
//! * [`qwait`] — the **device facade** implementing Algorithm 1's
//!   primitives: `QWAIT`, `QWAIT-ADD/REMOVE`, `QWAIT-VERIFY`,
//!   `QWAIT-RECONSIDER`, `QWAIT-ENABLE/DISABLE`, with the paper's latency
//!   parameters (§IV-C).
//! * [`cost`] — the analytic area/power/timing model reproducing §IV-C's
//!   hardware-cost estimates.
//!
//! ```
//! use hp_core::qwait::{HyperPlaneConfig, HyperPlaneDevice};
//! use hp_mem::types::{Addr, AddrRange};
//! use hp_queues::sim::QueueId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let range = AddrRange::new(Addr(0x1000), Addr(0x2000));
//! let mut dev = HyperPlaneDevice::new(HyperPlaneConfig::table1(), range);
//! dev.qwait_add(QueueId(7), Addr(0x1000 + 7 * 64).line())?;
//! dev.snoop_getm(Addr(0x1000 + 7 * 64).line());
//! assert_eq!(dev.qwait_select(), Some(QueueId(7)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod monitoring;
pub mod qwait;
pub mod ready_set;

pub use qwait::{DeviceTiming, HyperPlaneConfig, HyperPlaneDevice, QwaitError, RearmAction};
pub use ready_set::{PpaKind, ServicePolicy};
