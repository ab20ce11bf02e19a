//! Chaos schedules: time-structured fault campaigns on top of
//! [`crate::faults`].
//!
//! The base fault plane flips an independent coin per event — useful for
//! steady-state rate sweeps, but real failure modes are *correlated*: a
//! directory bank conflict drops a burst of snoops, a firmware shootdown
//! evicts monitoring entries in a window, a driver reallocates doorbells
//! while traffic is in flight. A [`ChaosSchedule`] layers that time
//! structure over a base [`FaultPlan`] without touching the injector's
//! draw discipline:
//!
//! * **Bursts** ([`BurstSpec`]) — a periodic square wave. Inside each
//!   burst window the effective plan is the base plan with every
//!   probability scaled by `intensity` (clamped to 1); outside it is the
//!   base plan unchanged.
//! * **Phase windows** ([`PhaseWindow`]) — absolute-time campaign
//!   phases, each carrying its own complete [`FaultPlan`] that *replaces*
//!   the base plan while the window is open. Bursts still modulate on
//!   top, so "quiet phase + drop storm bursts" composes naturally.
//! * **Doorbell churn** ([`ChurnSpec`]) — a periodic Algorithm-1
//!   reallocation scenario: the engine tears a live queue's monitoring
//!   entry down and re-registers it at a spare doorbell line mid-traffic
//!   (the paper's Cuckoo-conflict path, exercised under load). The
//!   schedule only carries the cadence; the mechanics live in the engine.
//!
//! Determinism: a schedule is pure configuration. [`ChaosSchedule::
//! effective_plan`] is a pure function of `(schedule, base plan, now)`,
//! and the engine swaps plans only at [`ChaosSchedule::next_boundary`]
//! instants, so a chaos run replays bit-identically from its seed just
//! like every other run.

use crate::faults::{FaultPlan, FaultPlanError};

/// A periodic correlated-fault burst: for `len` cycles out of every
/// `period`, fault probabilities are multiplied by `intensity`.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSpec {
    /// Square-wave period, cycles. Must be non-zero.
    pub period: u64,
    /// Burst length at the start of each period, cycles. Must be non-zero
    /// and no longer than the period.
    pub len: u64,
    /// Probability multiplier inside the burst (clamped into `[0, 1]`
    /// after scaling). Must be finite and non-negative; values below 1
    /// model calm-between-storms schedules where the *base* plan is the
    /// storm.
    pub intensity: f64,
}

/// An absolute-time campaign phase: while `start <= now < end`, `plan`
/// replaces the experiment's base fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseWindow {
    /// Window start, cycles since run start (inclusive).
    pub start: u64,
    /// Window end, cycles since run start (exclusive). Must exceed
    /// `start`.
    pub end: u64,
    /// The complete plan in force inside the window.
    pub plan: FaultPlan,
}

/// Periodic doorbell-reallocation churn (Algorithm 1 under load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Cycles between reallocations. Must be non-zero.
    pub period: u64,
}

/// Error from [`ChaosSchedule::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// A burst spec has a zero period, a zero or over-long length, or a
    /// non-finite / negative intensity.
    BadBurst(String),
    /// A phase window is empty or inverted (`start >= end`).
    BadWindow {
        /// The window's start, cycles.
        start: u64,
        /// The window's end, cycles.
        end: u64,
    },
    /// Two phase windows overlap; which plan wins would be ambiguous.
    OverlappingWindows {
        /// Start of the second of the two clashing windows.
        start: u64,
    },
    /// A phase window carries an invalid fault plan.
    BadPhasePlan(FaultPlanError),
    /// A churn spec has a zero period.
    ZeroChurnPeriod,
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::BadBurst(why) => write!(f, "bad chaos burst: {why}"),
            ChaosError::BadWindow { start, end } => {
                write!(
                    f,
                    "chaos phase window [{start}, {end}) is empty or inverted"
                )
            }
            ChaosError::OverlappingWindows { start } => {
                write!(
                    f,
                    "chaos phase window starting at {start} overlaps its predecessor"
                )
            }
            ChaosError::BadPhasePlan(e) => write!(f, "chaos phase plan: {e}"),
            ChaosError::ZeroChurnPeriod => write!(f, "chaos churn period must be non-zero"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<FaultPlanError> for ChaosError {
    fn from(e: FaultPlanError) -> Self {
        ChaosError::BadPhasePlan(e)
    }
}

/// A time-structured fault campaign. The empty schedule is inert: the
/// effective plan is always the base plan and no churn fires.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosSchedule {
    /// Periodic correlated burst, if any.
    pub burst: Option<BurstSpec>,
    /// Campaign phases, in ascending non-overlapping `start` order.
    pub phases: Vec<PhaseWindow>,
    /// Doorbell-reallocation churn cadence, if any.
    pub churn: Option<ChurnSpec>,
}

impl ChaosSchedule {
    /// The inert schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a periodic burst (builder style).
    pub fn with_burst(mut self, period: u64, len: u64, intensity: f64) -> Self {
        self.burst = Some(BurstSpec {
            period,
            len,
            intensity,
        });
        self
    }

    /// Adds a campaign phase (builder style). Phases must be added in
    /// ascending order; `validate` enforces it.
    pub fn with_phase(mut self, start: u64, end: u64, plan: FaultPlan) -> Self {
        self.phases.push(PhaseWindow { start, end, plan });
        self
    }

    /// Adds doorbell-reallocation churn (builder style).
    pub fn with_churn(mut self, period: u64) -> Self {
        self.churn = Some(ChurnSpec { period });
        self
    }

    /// Whether the schedule does anything at all.
    pub fn is_active(&self) -> bool {
        self.burst.is_some() || !self.phases.is_empty() || self.churn.is_some()
    }

    /// Checks structural sanity: burst shape, window ordering and
    /// non-overlap, per-phase plan validity, churn period.
    ///
    /// # Errors
    ///
    /// The first [`ChaosError`] found.
    pub fn validate(&self) -> Result<(), ChaosError> {
        if let Some(b) = &self.burst {
            if b.period == 0 {
                return Err(ChaosError::BadBurst("period is zero".into()));
            }
            if b.len == 0 || b.len > b.period {
                return Err(ChaosError::BadBurst(format!(
                    "len {} not in [1, period {}]",
                    b.len, b.period
                )));
            }
            if !b.intensity.is_finite() || b.intensity < 0.0 {
                return Err(ChaosError::BadBurst(format!(
                    "intensity {} not finite and non-negative",
                    b.intensity
                )));
            }
        }
        let mut prev_end = 0u64;
        for (i, w) in self.phases.iter().enumerate() {
            if w.start >= w.end {
                return Err(ChaosError::BadWindow {
                    start: w.start,
                    end: w.end,
                });
            }
            if i > 0 && w.start < prev_end {
                return Err(ChaosError::OverlappingWindows { start: w.start });
            }
            prev_end = w.end;
            w.plan.validate()?;
        }
        if let Some(c) = &self.churn {
            if c.period == 0 {
                return Err(ChaosError::ZeroChurnPeriod);
            }
        }
        Ok(())
    }

    /// The plan in force at `now` (cycles since run start): phase
    /// override first, then burst scaling on top.
    pub fn effective_plan(&self, base: &FaultPlan, now: u64) -> FaultPlan {
        let phase = self
            .phases
            .iter()
            .find(|w| w.start <= now && now < w.end)
            .map(|w| &w.plan)
            .unwrap_or(base);
        match &self.burst {
            Some(b) if now % b.period < b.len => phase.scaled(b.intensity),
            _ => phase.clone(),
        }
    }

    /// The earliest instant strictly after `now` at which the effective
    /// plan can change (a burst edge or a phase boundary), or `None` if
    /// the plan is constant from `now` on. Churn is *not* a plan boundary
    /// — the engine schedules churn events on their own cadence.
    pub fn next_boundary(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now && next.is_none_or(|n| t < n) {
                next = Some(t);
            }
        };
        if let Some(b) = &self.burst {
            let phase_pos = now % b.period;
            let period_start = now - phase_pos;
            // The burst's falling edge this period, then the next rising
            // edge; `consider` keeps whichever is first and future.
            consider(period_start + b.len);
            consider(period_start + b.period);
        }
        for w in &self.phases {
            consider(w.start);
            consider(w.end);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultPlan {
        FaultPlan {
            doorbell_drop: 0.2,
            eviction: 0.01,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn inert_schedule_is_identity() {
        let s = ChaosSchedule::none();
        assert!(!s.is_active());
        s.validate().unwrap();
        let base = storm();
        for now in [0u64, 1, 1_000_000] {
            assert_eq!(s.effective_plan(&base, now), base);
            assert_eq!(s.next_boundary(now), None);
        }
    }

    #[test]
    fn burst_square_wave_scales_inside_only() {
        let s = ChaosSchedule::none().with_burst(1_000, 250, 4.0);
        s.validate().unwrap();
        let base = storm();
        // Inside the burst: drop 0.2 * 4 = 0.8.
        let hot = s.effective_plan(&base, 100);
        assert!((hot.doorbell_drop - 0.8).abs() < 1e-12);
        assert!((hot.eviction - 0.04).abs() < 1e-12);
        // Outside: untouched.
        assert_eq!(s.effective_plan(&base, 250), base);
        assert_eq!(s.effective_plan(&base, 999), base);
        // Second period repeats.
        assert!((s.effective_plan(&base, 1_001).doorbell_drop - 0.8).abs() < 1e-12);
        // Boundaries: falling edge at 250, rising edge at 1000.
        assert_eq!(s.next_boundary(0), Some(250));
        assert_eq!(s.next_boundary(250), Some(1_000));
        assert_eq!(s.next_boundary(1_000), Some(1_250));
    }

    #[test]
    fn scaling_clamps_to_one() {
        let s = ChaosSchedule::none().with_burst(100, 100, 100.0);
        let hot = s.effective_plan(&storm(), 0);
        assert_eq!(hot.doorbell_drop, 1.0);
        assert_eq!(hot.eviction, 1.0);
        hot.validate().unwrap();
    }

    #[test]
    fn phase_window_replaces_base_and_composes_with_burst() {
        let quiet = FaultPlan::none();
        let s = ChaosSchedule::none()
            .with_phase(1_000, 2_000, storm())
            .with_burst(500, 100, 2.0);
        s.validate().unwrap();
        // Before the phase: base (quiet) plan, burst-scaled — still inert.
        assert!(!s.effective_plan(&quiet, 50).is_active());
        // Inside the phase, outside a burst: the phase plan verbatim.
        assert_eq!(s.effective_plan(&quiet, 1_200), storm());
        // Inside phase *and* burst: phase plan scaled.
        let both = s.effective_plan(&quiet, 1_550);
        assert!((both.doorbell_drop - 0.4).abs() < 1e-12);
        // After the phase: back to base.
        assert!(!s.effective_plan(&quiet, 2_600).is_active());
        // Phase edges are boundaries.
        assert_eq!(s.next_boundary(999), Some(1_000));
        assert_eq!(s.next_boundary(1_999), Some(2_000));
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        assert!(matches!(
            ChaosSchedule::none().with_burst(0, 1, 1.0).validate(),
            Err(ChaosError::BadBurst(_))
        ));
        assert!(matches!(
            ChaosSchedule::none().with_burst(10, 11, 1.0).validate(),
            Err(ChaosError::BadBurst(_))
        ));
        assert!(matches!(
            ChaosSchedule::none().with_burst(10, 5, f64::NAN).validate(),
            Err(ChaosError::BadBurst(_))
        ));
        assert!(matches!(
            ChaosSchedule::none()
                .with_phase(100, 100, FaultPlan::none())
                .validate(),
            Err(ChaosError::BadWindow { .. })
        ));
        assert!(matches!(
            ChaosSchedule::none()
                .with_phase(0, 200, FaultPlan::none())
                .with_phase(100, 300, FaultPlan::none())
                .validate(),
            Err(ChaosError::OverlappingWindows { start: 100 })
        ));
        let bad_plan = FaultPlan {
            doorbell_drop: 1.5,
            ..FaultPlan::none()
        };
        assert!(matches!(
            ChaosSchedule::none().with_phase(0, 10, bad_plan).validate(),
            Err(ChaosError::BadPhasePlan(_))
        ));
        assert!(matches!(
            ChaosSchedule::none().with_churn(0).validate(),
            Err(ChaosError::ZeroChurnPeriod)
        ));
        ChaosSchedule::none().with_churn(50_000).validate().unwrap();
    }

    #[test]
    fn next_boundary_walks_every_plan_change() {
        // Walking boundary to boundary from 0 must visit each edge once;
        // between consecutive boundaries the effective plan is constant.
        let s = ChaosSchedule::none()
            .with_phase(2_000, 3_000, storm())
            .with_burst(1_000, 400, 3.0);
        let base = FaultPlan {
            spurious: 0.1,
            ..FaultPlan::none()
        };
        let mut edges = Vec::new();
        let mut now = 0u64;
        while let Some(b) = s.next_boundary(now) {
            if b > 5_000 {
                break;
            }
            // Constant in between (spot-check the midpoint).
            let mid = now + (b - now) / 2;
            assert_eq!(
                s.effective_plan(&base, now),
                s.effective_plan(&base, mid),
                "plan changed inside [{now}, {b})"
            );
            edges.push(b);
            now = b;
        }
        assert_eq!(
            edges,
            vec![400, 1_000, 1_400, 2_000, 2_400, 3_000, 3_400, 4_000, 4_400, 5_000]
        );
    }
}
