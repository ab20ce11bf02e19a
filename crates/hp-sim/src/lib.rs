//! # hp-sim — discrete-event simulation kernel
//!
//! The foundation of the HyperPlane reproduction: a small, deterministic
//! discrete-event simulation kernel measured in CPU cycles, plus the
//! statistics machinery every experiment shares.
//!
//! This crate substitutes for the role gem5 plays in the paper's
//! methodology (§V-A): it provides the *clock*, the *event queue*, and the
//! *telemetry*, while the memory-system and data-plane models live in
//! `hp-mem` and `hp-sdp` respectively.
//!
//! ## Modules
//!
//! * [`time`] — [`SimTime`]/[`Cycles`] newtypes and the [`time::Clock`]
//!   frequency converter.
//! * [`event`] — the deterministic [`EventQueue`] with FIFO tie-breaking
//!   and a bounded pop for stopping at a window boundary.
//! * [`stats`] — HDR-style [`Histogram`] (percentiles + CDF),
//!   and the [`stats::OnlineStats`] running mean.
//! * [`rng`] — [`rng::RngFactory`] seed-derived deterministic streams and
//!   the service-time [`rng::Distribution`] shapes.
//! * [`faults`] — the deterministic [`faults::FaultPlan`] /
//!   [`faults::FaultInjector`] fault-injection plane (dropped/delayed
//!   doorbells, evictions, spurious wake-ups, stragglers).
//! * [`chaos`] — time-structured fault campaigns on top of [`faults`]:
//!   correlated bursts, phase windows, doorbell-reallocation churn.
//! * [`audit`] — the zero-cost-when-disabled [`audit::Auditor`]
//!   notification-conservation observer (no lost wake-ups, no double
//!   service).
//! * [`attrib`] — the streaming [`attrib::Attributor`] latency-attribution
//!   engine: per-notification causal span chains decomposed into additive
//!   phase components, with tail-exemplar capture.
//! * [`trace`] — the zero-cost-when-disabled [`trace::Tracer`] ring
//!   buffer of typed lifecycle records, plus the Chrome
//!   `trace_event` exporter [`trace::chrome_trace`].
//! * [`profile`] — [`profile::KernelProfile`] per-event-type
//!   counts/cycles for the sim kernel itself.
//!
//! ## Example: an M/M/1 queue in a few lines
//!
//! ```
//! use hp_rand::rngs::SmallRng;
//! use hp_rand::SeedableRng;
//! use hp_sim::event::EventQueue;
//! use hp_sim::rng::{sample_exp, RngFactory};
//! use hp_sim::stats::Histogram;
//! use hp_sim::time::{Cycles, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let mut q = EventQueue::new();
//! let mut rng = SmallRng::seed_from_u64(RngFactory::new(1).stream_seed(0));
//! let (lambda, mu) = (1.0 / 100.0, 1.0 / 50.0); // per-cycle rates
//! let mut depth = 0u64;
//! let mut lat = Histogram::new();
//! let mut backlog: std::collections::VecDeque<SimTime> = Default::default();
//!
//! q.schedule_at(SimTime(0), Ev::Arrival);
//! while let Some((now, ev)) = q.pop() {
//!     if now > SimTime(5_000_000) { break; }
//!     match ev {
//!         Ev::Arrival => {
//!             backlog.push_back(now);
//!             depth += 1;
//!             if depth == 1 {
//!                 q.schedule_after(Cycles(sample_exp(&mut rng, 1.0 / mu) as u64), Ev::Departure);
//!             }
//!             q.schedule_after(Cycles(sample_exp(&mut rng, 1.0 / lambda) as u64), Ev::Arrival);
//!         }
//!         Ev::Departure => {
//!             let arrived = backlog.pop_front().unwrap();
//!             lat.record(now.since(arrived).count());
//!             depth -= 1;
//!             if depth > 0 {
//!                 q.schedule_after(Cycles(sample_exp(&mut rng, 1.0 / mu) as u64), Ev::Departure);
//!             }
//!         }
//!     }
//! }
//! // M/M/1 with rho = 0.5: mean sojourn = 1/(mu - lambda) = 100 cycles.
//! assert!((lat.mean() - 100.0).abs() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod audit;
pub mod chaos;
pub mod event;
pub mod faults;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use profile::KernelProfile;
pub use stats::Histogram;
pub use time::{Cycles, SimTime};
pub use trace::{SpanId, TraceKind, TraceRecord, Tracer};
