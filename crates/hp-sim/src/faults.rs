//! Deterministic, seedable fault injection for the simulation stack.
//!
//! A [`FaultPlan`] describes *what* can go wrong and how often; a
//! [`FaultInjector`] draws concrete fault decisions from its own dedicated
//! RNG stream so that enabling faults never perturbs the workload's
//! arrival or service draws — a faulty run and a fault-free run of the
//! same seed see byte-identical traffic. All decisions are pure functions
//! of `(plan, stream seed, call sequence)`, so a given configuration
//! replays bit-identically.
//!
//! The fault classes model the failure modes a notification accelerator
//! must tolerate (DESIGN.md §"Fault model & resilience"):
//!
//! * **Doorbell drop** — a GetM snoop is lost between the interconnect
//!   and the monitoring set; a QWAIT'd core misses its wake-up. This is
//!   the hazard the paper's `QWAIT-VERIFY` atomicity argument is about.
//! * **Doorbell delay** — the snoop is delivered late (buffered behind a
//!   directory-bank conflict), stretching notification latency.
//! * **Monitoring-set eviction** — a queue's entry is evicted (capacity
//!   conflict or firmware shootdown); its doorbell writes become
//!   invisible until the driver re-registers it.
//! * **Spurious wake-up** — the ready set is activated for a queue with
//!   no work (false sharing on the doorbell line); `QWAIT-VERIFY` must
//!   filter it.
//! * **Straggler** — a data-plane core stalls for a fixed number of
//!   cycles (SMI, frequency dip, noisy neighbor).
//! * **Queue-cap override** — shrink the per-queue backlog cap to force
//!   overflow; drops are accounted by the engine.
//!
//! Decisions are *key-addressed*, not stream-sequential: every draw is a
//! pure hash of `(stream seed, fault class, caller key)` — the caller
//! keys doorbell/eviction/spurious decisions by the work item's id,
//! straggler decisions by `(core, step counter)`, and churn picks by the
//! churn index. This makes each decision independent of how many *other*
//! decisions were drawn before it, which buys two guarantees at once:
//! switching one fault class on or off never shifts the draws of the
//! others, and a partitioned (parallel) engine that evaluates decisions
//! from different execution orders — or skips the decisions another
//! partition owns — still reproduces the serial engine's draws exactly.

use crate::rng::splitmix64;
use crate::time::Cycles;

/// What the injector decided to do with one doorbell notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorbellFate {
    /// Deliver the GetM snoop normally.
    Deliver,
    /// Lose the snoop entirely (missed wake-up until recovery).
    Drop,
    /// Deliver the snoop after this many cycles.
    Delay(Cycles),
}

/// Error from [`FaultPlan::validate`]: a probability field is outside
/// `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanError {
    /// The name of the offending [`FaultPlan`] field.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let FaultPlanError { field, value } = self;
        write!(
            f,
            "fault probability `{field}` must be in [0,1], got {value}"
        )
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative description of the faults to inject, with rates.
///
/// The default plan injects nothing. Plans are cheap to clone and compare;
/// write one as a struct-update literal, e.g.
/// `FaultPlan { doorbell_drop: 0.1, ..FaultPlan::none() }`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability a doorbell GetM snoop is dropped.
    pub doorbell_drop: f64,
    /// Probability a doorbell GetM snoop is delayed (evaluated only if
    /// the snoop was not dropped).
    pub doorbell_delay: f64,
    /// Delay applied to delayed snoops, cycles.
    pub delay_cycles: u64,
    /// Probability (per arrival) the arriving queue's monitoring-set
    /// entry is evicted just before the doorbell rings.
    pub eviction: f64,
    /// Probability (per arrival) a spurious ready-set activation is
    /// injected for a random queue of the arrival's group.
    pub spurious: f64,
    /// Probability (per core step) the core stalls as a straggler.
    pub straggler: f64,
    /// Straggler stall duration, cycles.
    pub stall_cycles: u64,
    /// If set, overrides (lowers) the per-queue backlog cap to force
    /// overflow drops.
    pub queue_cap: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            doorbell_drop: 0.0,
            doorbell_delay: 0.0,
            delay_cycles: 2_000,
            eviction: 0.0,
            spurious: 0.0,
            straggler: 0.0,
            stall_cycles: 50_000,
            queue_cap: None,
        }
    }
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.doorbell_drop > 0.0
            || self.doorbell_delay > 0.0
            || self.eviction > 0.0
            || self.spurious > 0.0
            || self.straggler > 0.0
            || self.queue_cap.is_some()
    }

    /// Checks that every probability is in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (field, value) in [
            ("doorbell_drop", self.doorbell_drop),
            ("doorbell_delay", self.doorbell_delay),
            ("eviction", self.eviction),
            ("spurious", self.spurious),
            ("straggler", self.straggler),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(FaultPlanError { field, value });
            }
        }
        Ok(())
    }

    /// This plan with every probability multiplied by `factor` and clamped
    /// to `[0, 1]`. Duration and cap knobs are unchanged — a chaos burst
    /// makes faults *more frequent*, not individually longer. The result
    /// of scaling a valid plan by a non-negative finite factor is always
    /// valid.
    pub fn scaled(&self, factor: f64) -> FaultPlan {
        let scale = |p: f64| (p * factor).clamp(0.0, 1.0);
        FaultPlan {
            doorbell_drop: scale(self.doorbell_drop),
            doorbell_delay: scale(self.doorbell_delay),
            eviction: scale(self.eviction),
            spurious: scale(self.spurious),
            straggler: scale(self.straggler),
            ..self.clone()
        }
    }
}

/// Counters of faults actually injected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Doorbell snoops dropped.
    pub doorbells_dropped: u64,
    /// Doorbell snoops delayed.
    pub doorbells_delayed: u64,
    /// Monitoring-set entries evicted.
    pub evictions: u64,
    /// Spurious ready-set activations injected.
    pub spurious_injected: u64,
    /// Straggler stalls injected.
    pub straggler_stalls: u64,
}

impl FaultCounters {
    /// Total faults of every class.
    pub fn total(&self) -> u64 {
        self.doorbells_dropped
            + self.doorbells_delayed
            + self.evictions
            + self.spurious_injected
            + self.straggler_stalls
    }
}

/// Decision classes, hashed into the draw so distinct classes keyed by
/// the same value (e.g. one item id) get independent decisions.
const CLASS_DROP: u64 = 1;
const CLASS_DELAY: u64 = 2;
const CLASS_EVICT: u64 = 3;
const CLASS_SPURIOUS: u64 = 4;
const CLASS_STRAGGLER: u64 = 5;
const CLASS_PICK: u64 = 6;

/// Draws concrete fault decisions per the plan — each a pure hash of
/// `(stream seed, fault class, caller key)` — and counts what it
/// injected.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Builds an injector for `plan` keyed by `stream_seed` (callers
    /// should derive the seed from the experiment's root seed via
    /// [`crate::rng::RngFactory::stream_seed`] so fault draws are
    /// independent of the workload streams).
    pub fn new(plan: FaultPlan, stream_seed: u64) -> Self {
        FaultInjector {
            plan,
            seed: stream_seed,
            counters: FaultCounters::default(),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Swaps the active plan without touching the seed or counters.
    ///
    /// This is how a chaos schedule (see [`crate::chaos`]) modulates fault
    /// intensity mid-run: every decision stays a pure function of
    /// `(stream seed, class, key)`, only the thresholds move — so a plan
    /// swap can never shift any other decision, enabled classes included.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// The raw draw: a well-mixed word for `(seed, class, key)`.
    #[inline]
    fn word(&self, class: u64, key: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(class ^ splitmix64(key)))
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    fn unit(&self, class: u64, key: u64) -> f64 {
        (self.word(class, key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial at probability `p` for `(class, key)`.
    #[inline]
    fn hit(&self, p: f64, class: u64, key: u64) -> bool {
        p > 0.0 && self.unit(class, key) < p
    }

    /// Decides the fate of the doorbell GetM notification for the work
    /// item `key`.
    pub fn doorbell_fate(&mut self, key: u64) -> DoorbellFate {
        if self.hit(self.plan.doorbell_drop, CLASS_DROP, key) {
            self.counters.doorbells_dropped += 1;
            return DoorbellFate::Drop;
        }
        if self.hit(self.plan.doorbell_delay, CLASS_DELAY, key) {
            self.counters.doorbells_delayed += 1;
            return DoorbellFate::Delay(Cycles(self.plan.delay_cycles));
        }
        DoorbellFate::Deliver
    }

    /// Whether to evict the monitoring entry of the queue receiving work
    /// item `key`. The caller reports whether an entry was actually
    /// present (so counters reflect real evictions, not no-ops) via
    /// [`Self::record_eviction`].
    pub fn evict_now(&mut self, key: u64) -> bool {
        self.hit(self.plan.eviction, CLASS_EVICT, key)
    }

    /// Records one realized monitoring-set eviction.
    pub fn record_eviction(&mut self) {
        self.counters.evictions += 1;
    }

    /// Whether to inject a spurious ready-set activation on the arrival
    /// of work item `key`.
    pub fn spurious_now(&mut self, key: u64) -> bool {
        if self.hit(self.plan.spurious, CLASS_SPURIOUS, key) {
            self.counters.spurious_injected += 1;
            return true;
        }
        false
    }

    /// Draws a straggler stall for one core step, if any. Callers key by
    /// the stepping core and its per-core step counter (e.g.
    /// `(core << 32) + step`) so each core's stall sequence is
    /// independent of every other core's schedule.
    pub fn straggler_stall(&mut self, key: u64) -> Option<Cycles> {
        if self.hit(self.plan.straggler, CLASS_STRAGGLER, key) {
            self.counters.straggler_stalls += 1;
            return Some(Cycles(self.plan.stall_cycles));
        }
        None
    }

    /// Uniform pick in `[0, n)` for `key` (used to choose the victim
    /// queue of a spurious activation, keyed by item id, and the churn
    /// target, keyed by churn index).
    pub fn pick(&mut self, key: u64, n: usize) -> usize {
        debug_assert!(n > 0);
        // Widening multiply maps the word onto [0, n) without modulo bias.
        ((self.word(CLASS_PICK, key) as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        plan.validate().unwrap();
        let mut inj = FaultInjector::new(plan, 42);
        for k in 0..100 {
            assert_eq!(inj.doorbell_fate(k), DoorbellFate::Deliver);
            assert!(!inj.evict_now(k));
            assert!(!inj.spurious_now(k));
            assert_eq!(inj.straggler_stall(k), None);
        }
        assert_eq!(inj.counters().total(), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan {
            doorbell_drop: 0.3,
            doorbell_delay: 0.2,
            spurious: 0.1,
            straggler: 0.05,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(plan.clone(), 7);
        let mut b = FaultInjector::new(plan, 7);
        for k in 0..1000 {
            assert_eq!(a.doorbell_fate(k), b.doorbell_fate(k));
            assert_eq!(a.spurious_now(k), b.spurious_now(k));
            assert_eq!(a.straggler_stall(k), b.straggler_stall(k));
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn rates_are_respected() {
        let plan = FaultPlan {
            doorbell_drop: 0.25,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 3);
        let n = 100_000;
        for k in 0..n {
            inj.doorbell_fate(k);
        }
        let frac = inj.counters().doorbells_dropped as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "drop fraction {frac}");
    }

    #[test]
    fn full_drop_drops_everything() {
        let plan = FaultPlan {
            doorbell_drop: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 1);
        for k in 0..100 {
            assert_eq!(inj.doorbell_fate(k), DoorbellFate::Drop);
        }
    }

    #[test]
    fn disabling_one_class_does_not_shift_another() {
        // Straggler draws must be identical whether or not doorbell
        // faults are configured: decisions are keyed, not sequential, so
        // enabling drops cannot shift the straggler sequence — even when
        // the drop rate is non-zero and fate calls are skipped entirely.
        let only = FaultPlan {
            straggler: 0.5,
            ..FaultPlan::none()
        };
        let with_drops = FaultPlan {
            straggler: 0.5,
            doorbell_drop: 0.7,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(only, 11);
        let mut b = FaultInjector::new(with_drops, 11);
        for k in 0..500 {
            // `a` interleaves fate calls; `b` never draws a fate at all.
            a.doorbell_fate(k);
            assert_eq!(a.straggler_stall(k), b.straggler_stall(k));
        }
    }

    #[test]
    fn scaled_clamps_and_preserves_durations() {
        let plan = FaultPlan {
            doorbell_drop: 0.4,
            eviction: 0.02,
            delay_cycles: 4000,
            queue_cap: Some(8),
            ..FaultPlan::none()
        };
        let hot = plan.scaled(3.0);
        assert_eq!(hot.doorbell_drop, 1.0);
        assert!((hot.eviction - 0.06).abs() < 1e-12);
        assert_eq!(hot.delay_cycles, 4000);
        assert_eq!(hot.queue_cap, Some(8));
        hot.validate().unwrap();
        let cold = plan.scaled(0.0);
        assert!(!FaultPlan {
            queue_cap: None,
            ..cold
        }
        .is_active());
    }

    #[test]
    fn set_plan_never_shifts_decisions() {
        // Two injectors on the same seed: one swaps plans mid-sequence
        // (including through a fully different plan and back), the other
        // never swaps. Decisions for the same key must agree whenever the
        // active plans agree.
        let plan = FaultPlan {
            doorbell_drop: 0.3,
            ..FaultPlan::none()
        };
        let storm = FaultPlan {
            doorbell_drop: 0.9,
            spurious: 0.5,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(plan.clone(), 9);
        let mut b = FaultInjector::new(plan.clone(), 9);
        for i in 0..400u64 {
            if i == 100 {
                a.set_plan(storm.clone());
            }
            if i == 200 {
                a.set_plan(plan.clone());
            }
            if !(100..200).contains(&i) {
                assert_eq!(a.doorbell_fate(i), b.doorbell_fate(i));
            }
        }
    }

    #[test]
    fn decisions_are_key_addressed_not_sequential() {
        // The same key yields the same decision no matter how many other
        // draws happened in between, and regardless of evaluation order —
        // the property the partitioned engine relies on.
        let plan = FaultPlan {
            doorbell_drop: 0.4,
            straggler: 0.2,
            spurious: 0.3,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(plan.clone(), 21);
        let mut b = FaultInjector::new(plan, 21);
        let forward: Vec<_> = (0..300).map(|k| a.doorbell_fate(k)).collect();
        let backward: Vec<_> = (0..300).rev().map(|k| b.doorbell_fate(k)).collect();
        for (k, fate) in forward.iter().enumerate() {
            assert_eq!(*fate, backward[299 - k]);
        }
        // Interleaving other classes changes nothing either.
        for k in 0..300 {
            b.straggler_stall(k);
            b.spurious_now(k);
        }
        for k in 0..300u64 {
            assert_eq!(b.doorbell_fate(k), forward[k as usize]);
        }
        // Picks are in range and deterministic per key.
        for k in 0..100 {
            let p = a.pick(k, 7);
            assert!(p < 7);
            assert_eq!(p, b.pick(k, 7));
        }
    }

    #[test]
    fn validate_rejects_nan() {
        let plan = FaultPlan {
            spurious: f64::NAN,
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
    }
}
