//! Per-core execution telemetry: instruction accounting (useful vs spin),
//! halt-state residency, and the SMT co-runner model.
//!
//! The IPC "measurement" here is an accounting model, not a pipeline
//! simulation (DESIGN.md §8): every engine action contributes a number of
//! retired instructions and the cycles they occupied, classified as
//! *useful* (transport processing, dequeue, QWAIT machinery) or *spin*
//! (fruitless polling). Fig. 11a's breakdown and Fig. 11b's co-runner
//! curves derive from these counters.

use hp_sim::time::SimTime;

/// Which C-state a halted core sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltState {
    /// Architectural halt, immediate wake (C0 idle).
    C0Halt,
    /// Power-optimized sleep with ~0.5 µs wake (C1).
    C1,
}

/// Per-core counters accumulated during a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreTelemetry {
    /// Instructions retired doing useful work.
    pub useful_instructions: u64,
    /// Instructions retired spinning over empty queues.
    pub spin_instructions: u64,
    /// Cycles spent active (executing either class).
    pub active_cycles: u64,
    /// Cycles halted in C0-idle.
    pub halt_c0_cycles: u64,
    /// Cycles halted in C1.
    pub halt_c1_cycles: u64,
    /// Work items completed by this core.
    pub completions: u64,
    /// Empty-queue polls performed (spinning) or empty QWAIT returns.
    pub empty_polls: u64,
    /// Spurious QWAIT wake-ups filtered by VERIFY.
    pub spurious: u64,
    /// Instructions retired by a background task between non-blocking
    /// QWAIT polls (only nonzero with `background_task`).
    pub background_instructions: u64,
    /// QWAIT timeout expiries on this core (resilience path; only
    /// nonzero with `qwait_timeout_cycles` configured).
    pub qwait_timeouts: u64,
    /// Timeout expiries that found real missed work and recovered it.
    pub recoveries: u64,
}

impl CoreTelemetry {
    /// Total cycles observed (active + halted).
    pub fn total_cycles(&self) -> u64 {
        self.active_cycles + self.halt_c0_cycles + self.halt_c1_cycles
    }

    /// Overall IPC across the observed window (halted cycles count as
    /// retiring nothing — that is the point of halting).
    pub fn ipc(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            (self.useful_instructions + self.spin_instructions) as f64 / t as f64
        }
    }

    /// IPC attributable to useful work only (Fig. 11a's lower band).
    pub fn useful_ipc(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            self.useful_instructions as f64 / t as f64
        }
    }

    /// IPC attributable to the background task (non-blocking QWAIT mode).
    pub fn background_ipc(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            self.background_instructions as f64 / t as f64
        }
    }

    /// IPC attributable to spinning (Fig. 11a's upper band).
    pub fn spin_ipc(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            self.spin_instructions as f64 / t as f64
        }
    }

    /// Fraction of time halted (any C-state).
    pub fn halt_fraction(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            (self.halt_c0_cycles + self.halt_c1_cycles) as f64 / t as f64
        }
    }

    /// Merges another core's counters (for aggregate reporting).
    pub fn merge(&mut self, other: &CoreTelemetry) {
        self.useful_instructions += other.useful_instructions;
        self.spin_instructions += other.spin_instructions;
        self.active_cycles += other.active_cycles;
        self.halt_c0_cycles += other.halt_c0_cycles;
        self.halt_c1_cycles += other.halt_c1_cycles;
        self.completions += other.completions;
        self.empty_polls += other.empty_polls;
        self.spurious += other.spurious;
        self.background_instructions += other.background_instructions;
        self.qwait_timeouts += other.qwait_timeouts;
        self.recoveries += other.recoveries;
    }
}

/// Tracks one core's halt episodes against simulated time.
#[derive(Debug, Clone, Copy, Default)]
pub struct HaltTracker {
    since: Option<(SimTime, HaltState)>,
}

impl HaltTracker {
    /// Creates a tracker with the core active.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the core halted at `now`.
    ///
    /// # Panics
    ///
    /// Panics if already halted (engine logic error).
    pub fn halt(&mut self, now: SimTime, state: HaltState) {
        assert!(self.since.is_none(), "core already halted");
        self.since = Some((now, state));
    }

    /// Marks the core resumed at `now`, crediting the episode to `t`.
    /// No-op if the core was not halted.
    pub fn resume(&mut self, now: SimTime, t: &mut CoreTelemetry) {
        if let Some((since, state)) = self.since.take() {
            let dur = now.saturating_since(since).count();
            match state {
                HaltState::C0Halt => t.halt_c0_cycles += dur,
                HaltState::C1 => t.halt_c1_cycles += dur,
            }
        }
    }

    /// When the current halt episode began, if halted. Used by the
    /// resilience path to measure missed-wakeup recovery latency.
    pub fn halted_since(&self) -> Option<SimTime> {
        self.since.map(|(t, _)| t)
    }
}

/// SMT co-runner model (Fig. 11b): a compute-bound matrix-multiply thread
/// sharing the core. Its achievable IPC shrinks with the share of issue
/// bandwidth the foreground data-plane thread consumes.
#[derive(Debug, Clone, Copy)]
pub struct SmtCoRunner {
    /// Co-runner IPC when it owns the core alone.
    pub alone_ipc: f64,
    /// Core issue width (instructions/cycle ceiling shared by both
    /// hyperthreads).
    pub issue_width: f64,
    /// Contention factor: how strongly foreground issue pressure displaces
    /// co-runner issue slots (1.0 = perfectly proportional).
    pub contention: f64,
}

impl Default for SmtCoRunner {
    fn default() -> Self {
        // An 8-wide OoO core (Table I); a cache-blocked matmul sustains
        // ~2.2 IPC alone.
        SmtCoRunner {
            alone_ipc: 2.2,
            issue_width: 8.0,
            contention: 2.4,
        }
    }
}

impl SmtCoRunner {
    /// Co-runner IPC given the foreground thread's telemetry.
    ///
    /// While the foreground is halted the co-runner runs alone; while it is
    /// active, the co-runner loses issue slots in proportion to foreground
    /// IPC (spinning at high IPC is the worst antagonist — the paper's
    /// observation).
    pub fn co_ipc(&self, fg: &CoreTelemetry) -> f64 {
        let total = fg.total_cycles();
        if total == 0 {
            return self.alone_ipc;
        }
        let halted = fg.halt_fraction();
        let active = 1.0 - halted;
        let fg_active_ipc = if fg.active_cycles == 0 {
            0.0
        } else {
            (fg.useful_instructions + fg.spin_instructions) as f64 / fg.active_cycles as f64
        };
        let crowd = (self.contention * fg_active_ipc / self.issue_width).min(0.95);
        halted * self.alone_ipc + active * self.alone_ipc * (1.0 - crowd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telem(useful: u64, spin: u64, active: u64, halt: u64) -> CoreTelemetry {
        CoreTelemetry {
            useful_instructions: useful,
            spin_instructions: spin,
            active_cycles: active,
            halt_c0_cycles: halt,
            ..Default::default()
        }
    }

    #[test]
    fn ipc_breakdown_sums() {
        let t = telem(500, 1500, 1000, 0);
        assert_eq!(t.ipc(), 2.0);
        assert_eq!(t.useful_ipc(), 0.5);
        assert_eq!(t.spin_ipc(), 1.5);
    }

    #[test]
    fn halting_lowers_overall_ipc() {
        let active = telem(1000, 0, 1000, 0);
        let halting = telem(1000, 0, 1000, 1000);
        assert_eq!(active.ipc(), 1.0);
        assert_eq!(halting.ipc(), 0.5);
        assert_eq!(halting.halt_fraction(), 0.5);
    }

    #[test]
    fn halt_tracker_accumulates_episodes() {
        let mut t = CoreTelemetry::default();
        let mut h = HaltTracker::new();
        h.halt(SimTime(100), HaltState::C0Halt);
        assert_eq!(h.halted_since(), Some(SimTime(100)));
        h.resume(SimTime(150), &mut t);
        h.halt(SimTime(200), HaltState::C1);
        h.resume(SimTime(300), &mut t);
        assert_eq!(t.halt_c0_cycles, 50);
        assert_eq!(t.halt_c1_cycles, 100);
        // Resume when active is a no-op.
        h.resume(SimTime(400), &mut t);
        assert_eq!(t.total_cycles(), 150);
    }

    #[test]
    #[should_panic(expected = "already halted")]
    fn double_halt_is_a_bug() {
        let mut h = HaltTracker::new();
        h.halt(SimTime(1), HaltState::C0Halt);
        h.halt(SimTime(2), HaltState::C0Halt);
    }

    #[test]
    fn spinning_antagonizes_corunner_more_than_work() {
        let smt = SmtCoRunner::default();
        // Full-tilt spinning: IPC 2.2 of spin.
        let spinning = telem(0, 2200, 1000, 0);
        // Real work at IPC 1.0.
        let working = telem(1000, 0, 1000, 0);
        // Halted data plane.
        let halted = telem(0, 0, 0, 1000);
        let co_spin = smt.co_ipc(&spinning);
        let co_work = smt.co_ipc(&working);
        let co_halt = smt.co_ipc(&halted);
        assert!(co_spin < co_work, "spin {co_spin} vs work {co_work}");
        assert!(co_work < co_halt, "work {co_work} vs halted {co_halt}");
        assert_eq!(co_halt, 2.2);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = telem(10, 20, 30, 40);
        a.merge(&telem(1, 2, 3, 4));
        assert_eq!(a.useful_instructions, 11);
        assert_eq!(a.spin_instructions, 22);
        assert_eq!(a.active_cycles, 33);
        assert_eq!(a.halt_c0_cycles, 44);
    }
}
