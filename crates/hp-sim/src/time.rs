//! Simulated time.
//!
//! The simulator measures time in **CPU cycles** of the modeled chip. Two
//! newtypes keep absolute instants and durations apart:
//!
//! * [`SimTime`] — an absolute instant (cycles since simulation start).
//! * [`Cycles`] — a duration.
//!
//! A [`Clock`] converts between wall-clock units (nanoseconds, microseconds)
//! and cycles for a given core frequency. The paper's Table I class machine
//! is modeled at 2.0 GHz, the [`Clock::default`].
//!
//! # Examples
//!
//! ```
//! use hp_sim::time::{Clock, Cycles, SimTime};
//!
//! let clock = Clock::default(); // 2.0 GHz
//! let one_us = clock.micros_to_cycles(1.0);
//! assert_eq!(one_us, Cycles(2_000));
//!
//! let t = SimTime::ZERO + one_us;
//! assert_eq!(clock.cycles_to_micros(t.since_start()), 1.0);
//! ```

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An absolute simulated instant, in cycles since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A duration, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Duration elapsed since the simulation origin.
    #[inline]
    pub fn since_start(self) -> Cycles {
        Cycles(self.0)
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Cycles {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        Cycles(self.0.saturating_sub(earlier.0))
    }

    /// Saturating difference, clamping at zero instead of panicking.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Cycles {
        Cycles(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Cycles {
    /// The zero-length duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Raw cycle count.
    #[inline]
    pub fn count(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of durations.
    #[inline]
    pub fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }

    /// Scale a duration by an integer factor.
    #[inline]
    pub fn scaled(self, factor: u64) -> Cycles {
        Cycles(self.0 * factor)
    }
}

impl Add<Cycles> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Cycles) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Cycles> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: SimTime) -> Cycles {
        self.since(rhs)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl core::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}cyc", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// Converts between wall-clock units and cycles at a fixed core frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    cycles_per_sec: f64,
}

impl Default for Clock {
    /// A 2.0 GHz clock, matching the modeled server-class core.
    fn default() -> Self {
        Clock::from_ghz(2.0)
    }
}

impl Clock {
    /// Creates a clock running at `ghz` gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    fn from_ghz(ghz: f64) -> Self {
        assert!(
            ghz.is_finite() && ghz > 0.0,
            "clock frequency must be positive, got {ghz}"
        );
        Clock {
            cycles_per_sec: ghz * 1e9,
        }
    }

    /// The clock frequency in GHz.
    pub fn ghz(&self) -> f64 {
        self.cycles_per_sec / 1e9
    }

    /// Converts microseconds to (rounded) cycles.
    pub fn micros_to_cycles(&self, us: f64) -> Cycles {
        Cycles((us * 1e-6 * self.cycles_per_sec).round() as u64)
    }

    /// Converts a duration to fractional microseconds.
    pub fn cycles_to_micros(&self, c: Cycles) -> f64 {
        c.0 as f64 / self.cycles_per_sec * 1e6
    }

    /// Converts a duration to fractional seconds.
    fn cycles_to_secs(&self, c: Cycles) -> f64 {
        c.0 as f64 / self.cycles_per_sec
    }

    /// Converts an event count over a duration into a rate in events/second.
    ///
    /// Returns 0.0 for a zero-length window.
    pub fn rate_per_sec(&self, events: u64, window: Cycles) -> f64 {
        if window.0 == 0 {
            0.0
        } else {
            events as f64 / self.cycles_to_secs(window)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime(100) + Cycles(50);
        assert_eq!(t, SimTime(150));
        assert_eq!(t - SimTime(100), Cycles(50));
        assert_eq!(t.since(SimTime(150)), Cycles::ZERO);
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(SimTime(5).saturating_since(SimTime(10)), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    #[cfg(debug_assertions)]
    fn since_panics_on_backwards_time() {
        let _ = SimTime(5).since(SimTime(10));
    }

    #[test]
    fn clock_default_is_2ghz() {
        let c = Clock::default();
        assert_eq!(c.ghz(), 2.0);
        assert_eq!(c.micros_to_cycles(1.0), Cycles(2000));
    }

    #[test]
    fn clock_rate_computation() {
        let c = Clock::default();
        // 2000 events in 1 ms of simulated time => 2M events/s.
        let window = c.micros_to_cycles(1000.0);
        assert_eq!(c.rate_per_sec(2000, window), 2_000_000.0);
        assert_eq!(c.rate_per_sec(10, Cycles::ZERO), 0.0);
    }

    #[test]
    fn clock_micros_roundtrip() {
        let c = Clock::from_ghz(3.0);
        let cyc = c.micros_to_cycles(7.5);
        assert!((c.cycles_to_micros(cyc) - 7.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn clock_rejects_zero_frequency() {
        let _ = Clock::from_ghz(0.0);
    }

    #[test]
    fn cycles_sum_and_scale() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
        assert_eq!(Cycles(6).scaled(3), Cycles(18));
        assert_eq!(Cycles(6).saturating_sub(Cycles(10)), Cycles::ZERO);
    }
}
