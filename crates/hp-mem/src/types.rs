//! Core identifier and address newtypes shared by the memory-system model.

use core::fmt;

/// Bytes per cache line throughout the model (Table I: 64 B lines).
pub const LINE_BYTES: u64 = 64;

/// A physical core in the modeled CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A byte address in the modeled physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A cache-line address (byte address divided by [`LINE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first byte address of this line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:0x{:x}", self.0)
    }
}

/// A contiguous, line-aligned address range (e.g. the reserved doorbell
/// region the monitoring set snoops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRange {
    /// First byte address (inclusive), line-aligned.
    pub start: Addr,
    /// One past the last byte address (exclusive), line-aligned.
    pub end: Addr,
}

impl AddrRange {
    /// Creates a range; both endpoints must be line-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not line-aligned or `start > end`.
    pub fn new(start: Addr, end: Addr) -> Self {
        assert!(
            start.0.is_multiple_of(LINE_BYTES),
            "range start {start} not line-aligned"
        );
        assert!(
            end.0.is_multiple_of(LINE_BYTES),
            "range end {end} not line-aligned"
        );
        assert!(start.0 <= end.0, "range start {start} past end {end}");
        AddrRange { start, end }
    }

    /// Whether `line` falls inside this range.
    #[inline]
    pub fn contains_line(&self, line: LineAddr) -> bool {
        let b = line.base().0;
        b >= self.start.0 && b < self.end.0
    }

    /// Number of cache lines covered.
    pub fn lines(&self) -> u64 {
        (self.end.0 - self.start.0) / LINE_BYTES
    }
}

/// Load or store, as seen by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read (GetS on miss).
    Load,
    /// A write (GetM unless already owned in M).
    Store,
}

/// Where an access was satisfied — drives both latency and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 hit.
    L1,
    /// Shared LLC hit.
    Llc,
    /// Transferred from another core's L1 (cache-to-cache).
    RemoteL1,
    /// Fetched from DRAM.
    Memory,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_mapping() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(LineAddr(2).base(), Addr(128));
    }

    #[test]
    fn range_contains() {
        let r = AddrRange::new(Addr(128), Addr(256));
        assert!(!r.contains_line(LineAddr(1)));
        assert!(r.contains_line(LineAddr(2)));
        assert!(r.contains_line(LineAddr(3)));
        assert!(!r.contains_line(LineAddr(4)));
        assert_eq!(r.lines(), 2);
    }

    #[test]
    #[should_panic(expected = "not line-aligned")]
    fn range_rejects_misaligned() {
        let _ = AddrRange::new(Addr(10), Addr(64));
    }
}
