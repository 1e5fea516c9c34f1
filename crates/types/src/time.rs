//! Simulation time, measured in core clock cycles.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (or a duration), in core clock cycles.
///
/// `Cycle` is a transparent `u64` newtype so arithmetic is explicit and
/// cycle counts can never be confused with other integer quantities such as
/// store counts or addresses.
///
/// # Example
///
/// ```
/// use pbm_types::Cycle;
/// let t = Cycle::ZERO + Cycle::new(30);
/// assert_eq!(t + Cycle::new(3), Cycle::new(33));
/// assert_eq!((t - Cycle::new(10)).as_u64(), 20);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero, the start of every simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count from a raw `u64`.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; clamps at [`Cycle::ZERO`].
    pub const fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: Cycle) -> Cycle {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self` (time cannot go negative).
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> u64 {
        c.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let t = Cycle::new(100) + Cycle::new(23);
        assert_eq!(t, Cycle::new(123));
        assert_eq!(t - Cycle::new(23), Cycle::new(100));
    }

    #[test]
    fn add_u64() {
        let mut t = Cycle::new(5);
        t += 7u64;
        assert_eq!(t + 3u64, Cycle::new(15));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cycle::new(3).saturating_sub(Cycle::new(10)), Cycle::ZERO);
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::new(7).max(Cycle::new(3)), Cycle::new(7));
        assert_eq!(Cycle::new(3).max(Cycle::new(7)), Cycle::new(7));
    }

    #[test]
    fn display_has_suffix() {
        assert_eq!(Cycle::new(42).to_string(), "42cy");
    }

    #[test]
    fn conversions() {
        let c: Cycle = 9u64.into();
        let raw: u64 = c.into();
        assert_eq!(raw, 9);
    }
}
