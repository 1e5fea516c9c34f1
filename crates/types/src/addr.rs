//! Byte and cache-line addresses in the simulated physical address space.

use std::fmt;

/// log2 of the cache-line size (64 B lines, per Table 1).
pub const LINE_SIZE_BITS: u32 = 6;
/// Cache-line size in bytes (64 B, per Table 1).
pub const LINE_SIZE: u64 = 1 << LINE_SIZE_BITS;

/// A byte address in the simulated (non-volatile) physical address space.
///
/// # Example
///
/// ```
/// use pbm_types::{Addr, LINE_SIZE};
/// let a = Addr::new(130);
/// assert_eq!(a.line().base(), Addr::new(128));
/// assert_eq!(a.line_offset(), 2);
/// assert_eq!(a.offset(LINE_SIZE), Addr::new(130 + LINE_SIZE));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The cache line containing this byte.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SIZE_BITS)
    }

    /// Offset of this byte within its cache line (`0..LINE_SIZE`).
    pub const fn line_offset(self) -> u64 {
        self.0 & (LINE_SIZE - 1)
    }

    /// The address `bytes` past this one.
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line address (byte address divided by [`LINE_SIZE`]).
///
/// All coherence, epoch tagging and persistence in the simulator happen at
/// line granularity, mirroring the hardware.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line number (not a byte address).
    pub const fn new(line_number: u64) -> Self {
        LineAddr(line_number)
    }

    /// Returns the line number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The first byte address of this line.
    pub const fn base(self) -> Addr {
        Addr(self.0 << LINE_SIZE_BITS)
    }

    /// The line `n` lines past this one.
    pub const fn offset(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }

    /// Iterates over the `n` consecutive lines starting at `self`.
    pub fn span(self, n: u64) -> impl Iterator<Item = LineAddr> {
        (self.0..self.0 + n).map(LineAddr)
    }

    /// Number of lines needed to hold `bytes` bytes starting at a line
    /// boundary (i.e. `ceil(bytes / LINE_SIZE)`).
    pub const fn lines_for(bytes: u64) -> u64 {
        bytes.div_ceil(LINE_SIZE)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn line_of_byte() {
        assert_eq!(Addr::new(0).line(), LineAddr::new(0));
        assert_eq!(Addr::new(63).line(), LineAddr::new(0));
        assert_eq!(Addr::new(64).line(), LineAddr::new(1));
        assert_eq!(Addr::new(64).line_offset(), 0);
        assert_eq!(Addr::new(65).line_offset(), 1);
    }

    #[test]
    fn base_roundtrip() {
        let l = LineAddr::new(10);
        assert_eq!(l.base().line(), l);
        assert_eq!(l.base().as_u64(), 640);
    }

    #[test]
    fn span_is_contiguous() {
        let lines: Vec<_> = LineAddr::new(5).span(3).collect();
        assert_eq!(
            lines,
            vec![LineAddr::new(5), LineAddr::new(6), LineAddr::new(7)]
        );
    }

    #[test]
    fn lines_for_rounds_up() {
        assert_eq!(LineAddr::lines_for(0), 0);
        assert_eq!(LineAddr::lines_for(1), 1);
        assert_eq!(LineAddr::lines_for(64), 1);
        assert_eq!(LineAddr::lines_for(65), 2);
        assert_eq!(LineAddr::lines_for(512), 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(LineAddr::new(255).to_string(), "L0xff");
    }

    proptest! {
        #[test]
        fn prop_line_base_le_addr(raw in 0u64..u64::MAX / 2) {
            let a = Addr::new(raw);
            prop_assert!(a.line().base() <= a);
            prop_assert!(a.as_u64() - a.line().base().as_u64() < LINE_SIZE);
        }

        #[test]
        fn prop_line_offset_consistent(raw in 0u64..u64::MAX / 2) {
            let a = Addr::new(raw);
            prop_assert_eq!(
                a.line().base().as_u64() + a.line_offset(),
                a.as_u64()
            );
        }
    }
}
