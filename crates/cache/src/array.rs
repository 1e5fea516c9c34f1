//! Set-associative cache array with epoch-aware victim selection.

use crate::index::EpochIndex;
use crate::line::{CacheLine, LineState};
use crate::set::CacheSet;
use pbm_nvram::LineValue;
use pbm_types::{EpochTag, LineAddr};

/// What [`CacheArray::victim_for`] decided about making room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimChoice {
    /// The line is already resident or the set has a free way.
    Room,
    /// Evict this line (clean, or dirty with no un-persisted epoch tag).
    /// The caller removes it and writes it back if dirty.
    Evict(CacheLine),
    /// Every candidate belongs to an un-persisted epoch; the best victim is
    /// this line of this epoch. The caller must flush epochs up to and
    /// including `tag` before retrying (LB's "natural replacement" online
    /// persist path).
    EpochBlocked {
        /// Epoch owning the best victim.
        tag: EpochTag,
        /// The victim line.
        line: LineAddr,
    },
}

/// A set-associative cache array with the §4.3 tag extensions.
///
/// Timing-free: controllers in `pbm-sim` decide *when* things happen; the
/// array answers *what* is resident, what to evict, and which lines belong
/// to which epoch (via an internal [`EpochIndex`] kept exactly in sync).
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: Vec<CacheSet>,
    assoc: usize,
    set_shift: u32,
    index: EpochIndex,
}

impl CacheArray {
    /// Creates an array with `sets` sets of `assoc` ways. `set_shift` is
    /// the number of low line-address bits consumed by bank interleaving
    /// before set selection (0 for an L1, log2(banks) for an LLC bank).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `assoc` is zero.
    pub fn new(sets: usize, assoc: usize, set_shift: u32) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(assoc > 0, "assoc must be nonzero");
        CacheArray {
            sets: vec![CacheSet::new(); sets],
            assoc,
            set_shift,
            index: EpochIndex::new(),
        }
    }

    /// The set index of a line.
    pub fn set_index(&self, line: LineAddr) -> usize {
        ((line.as_u64() >> self.set_shift) as usize) & (self.sets.len() - 1)
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// True if the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Looks up without updating recency.
    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        self.sets[self.set_index(line)].peek(line)
    }

    /// Looks up and promotes to MRU (a demand access).
    pub fn access(&mut self, line: LineAddr) -> Option<&CacheLine> {
        let set = self.set_index(line);
        self.sets[set].touch(line).map(|l| &*l)
    }

    /// Decides how to make room for `line`.
    ///
    /// Preference order (LRU within each class): free way / already
    /// resident, then clean lines (silent drop), then dirty lines with no
    /// epoch tag (plain writeback), then — only if every way is pinned by
    /// an un-persisted epoch — [`VictimChoice::EpochBlocked`] naming the
    /// LRU epoch-tagged victim.
    pub fn victim_for(&self, line: LineAddr) -> VictimChoice {
        let set = &self.sets[self.set_index(line)];
        if set.peek(line).is_some() || set.len() < self.assoc {
            return VictimChoice::Room;
        }
        let mut best_clean = None;
        let mut best_dirty = None;
        let mut best_tagged = None;
        for cand in set.iter_lru() {
            match (cand.state, cand.tag) {
                (LineState::Clean, _) => {
                    if best_clean.is_none() {
                        best_clean = Some(*cand);
                    }
                }
                (LineState::Dirty, None) => {
                    if best_dirty.is_none() {
                        best_dirty = Some(*cand);
                    }
                }
                (LineState::Dirty, Some(tag)) => {
                    if best_tagged.is_none() {
                        best_tagged = Some((tag, cand.addr));
                    }
                }
            }
        }
        if let Some(v) = best_clean {
            VictimChoice::Evict(v)
        } else if let Some(v) = best_dirty {
            VictimChoice::Evict(v)
        } else {
            let (tag, line) = best_tagged.expect("full set has a victim");
            VictimChoice::EpochBlocked { tag, line }
        }
    }

    /// Installs a line. The caller must have made room.
    ///
    /// # Panics
    ///
    /// Panics if the set is full or the line is already resident.
    pub fn install(&mut self, line: CacheLine) {
        let set = self.set_index(line.addr);
        assert!(
            self.sets[set].len() < self.assoc,
            "install into full set {set}"
        );
        if let Some(tag) = line.tag {
            self.index.add(tag, line.addr);
        }
        self.sets[set].insert_mru(line);
    }

    /// Removes a line (eviction or invalidating flush), returning it.
    pub fn remove(&mut self, line: LineAddr) -> Option<CacheLine> {
        let set = self.set_index(line);
        let removed = self.sets[set].remove(line)?;
        if let Some(tag) = removed.tag {
            self.index.remove(tag, line);
        }
        Some(removed)
    }

    /// Applies a store to a resident line: marks it dirty with `tag` and
    /// the new value, promotes it to MRU, and fixes the epoch index.
    /// Returns `false` if the line is not resident.
    pub fn write(&mut self, line: LineAddr, value: LineValue, tag: Option<EpochTag>) -> bool {
        let set = self.set_index(line);
        let Some(l) = self.sets[set].touch(line) else {
            return false;
        };
        let old_tag = l.tag;
        l.state = LineState::Dirty;
        l.value = value;
        l.tag = tag;
        if old_tag != tag {
            if let Some(old) = old_tag {
                self.index.remove(old, line);
            }
            if let Some(new) = tag {
                self.index.add(new, line);
            }
        }
        true
    }

    /// Marks a line written back: clean, tag dropped, data kept (`clwb`).
    /// Returns the value written back, or `None` if not resident or clean.
    pub fn mark_written_back(&mut self, line: LineAddr) -> Option<LineValue> {
        let set = self.set_index(line);
        let l = self.sets[set].peek_mut(line)?;
        if l.state != LineState::Dirty {
            return None;
        }
        let value = l.value;
        if let Some(tag) = l.tag {
            self.index.remove(tag, line);
        }
        l.mark_written_back();
        Some(value)
    }

    /// Appends the lines attributed to `tag` to `out`, in address order.
    /// Callers reuse one scratch buffer across enumerations.
    pub fn lines_of_epoch_into(&self, tag: EpochTag, out: &mut Vec<LineAddr>) {
        self.index.lines_into(tag, out);
    }

    /// Number of resident lines attributed to `tag`.
    pub fn epoch_len(&self, tag: EpochTag) -> usize {
        self.index.len(tag)
    }

    /// Total resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(CacheSet::len).sum()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{CoreId, EpochId};

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    /// 2 sets, 2 ways: lines 0,2,4.. map to set 0; 1,3,5.. to set 1.
    fn tiny() -> CacheArray {
        CacheArray::new(2, 2, 0)
    }

    fn lines(a: &CacheArray, t: EpochTag) -> Vec<LineAddr> {
        let mut out = Vec::new();
        a.lines_of_epoch_into(t, &mut out);
        out
    }

    #[test]
    fn set_mapping_with_shift() {
        let a = CacheArray::new(4, 1, 2);
        assert_eq!(a.set_index(LineAddr::new(0)), 0);
        assert_eq!(a.set_index(LineAddr::new(3)), 0, "bank bits ignored");
        assert_eq!(a.set_index(LineAddr::new(4)), 1);
    }

    #[test]
    fn fill_then_room_decision() {
        let mut a = tiny();
        assert_eq!(a.victim_for(LineAddr::new(0)), VictimChoice::Room);
        a.install(CacheLine::clean(LineAddr::new(0), 0));
        assert_eq!(
            a.victim_for(LineAddr::new(0)),
            VictimChoice::Room,
            "already resident"
        );
        a.install(CacheLine::clean(LineAddr::new(2), 0));
        // Set 0 now full; LRU is line 0.
        match a.victim_for(LineAddr::new(4)) {
            VictimChoice::Evict(v) => assert_eq!(v.addr, LineAddr::new(0)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn victim_prefers_clean_over_dirty() {
        let mut a = tiny();
        a.install(CacheLine::dirty(LineAddr::new(0), 1, None));
        a.install(CacheLine::clean(LineAddr::new(2), 2));
        // Clean line 2 is MRU but still preferred over dirty line 0.
        match a.victim_for(LineAddr::new(4)) {
            VictimChoice::Evict(v) => assert_eq!(v.addr, LineAddr::new(2)),
            other => panic!("expected clean eviction, got {other:?}"),
        }
    }

    #[test]
    fn victim_prefers_untagged_dirty_over_epoch_tagged() {
        let mut a = tiny();
        a.install(CacheLine::dirty(LineAddr::new(0), 1, Some(tag(0, 0))));
        a.install(CacheLine::dirty(LineAddr::new(2), 2, None));
        match a.victim_for(LineAddr::new(4)) {
            VictimChoice::Evict(v) => assert_eq!(v.addr, LineAddr::new(2)),
            other => panic!("expected untagged dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn all_tagged_set_blocks_on_lru_epoch() {
        let mut a = tiny();
        a.install(CacheLine::dirty(LineAddr::new(0), 1, Some(tag(0, 0))));
        a.install(CacheLine::dirty(LineAddr::new(2), 2, Some(tag(0, 1))));
        assert_eq!(
            a.victim_for(LineAddr::new(4)),
            VictimChoice::EpochBlocked {
                tag: tag(0, 0),
                line: LineAddr::new(0)
            },
            "LRU (line 0, epoch 0) is the blocking victim"
        );
    }

    #[test]
    fn write_retags_and_index_follows() {
        let mut a = tiny();
        a.install(CacheLine::clean(LineAddr::new(0), 0));
        assert!(a.write(LineAddr::new(0), 42, Some(tag(0, 3))));
        assert_eq!(lines(&a, tag(0, 3)), vec![LineAddr::new(0)]);
        // Re-write in a later epoch moves the index entry.
        assert!(a.write(LineAddr::new(0), 43, Some(tag(0, 4))));
        assert!(lines(&a, tag(0, 3)).is_empty());
        assert_eq!(lines(&a, tag(0, 4)), vec![LineAddr::new(0)]);
        assert!(!a.write(LineAddr::new(9), 1, None), "miss returns false");
    }

    #[test]
    fn writeback_clears_tag_and_keeps_data() {
        let mut a = tiny();
        a.install(CacheLine::dirty(LineAddr::new(0), 7, Some(tag(1, 1))));
        assert_eq!(a.mark_written_back(LineAddr::new(0)), Some(7));
        assert!(lines(&a, tag(1, 1)).is_empty());
        let l = a.peek(LineAddr::new(0)).unwrap();
        assert_eq!(l.state, LineState::Clean);
        assert_eq!(l.value, 7);
        assert_eq!(a.mark_written_back(LineAddr::new(0)), None, "already clean");
    }

    #[test]
    fn remove_updates_index() {
        let mut a = tiny();
        a.install(CacheLine::dirty(LineAddr::new(0), 7, Some(tag(1, 1))));
        let removed = a.remove(LineAddr::new(0)).unwrap();
        assert_eq!(removed.value, 7);
        assert!(lines(&a, tag(1, 1)).is_empty());
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "full set")]
    fn install_into_full_set_panics() {
        let mut a = tiny();
        a.install(CacheLine::clean(LineAddr::new(0), 0));
        a.install(CacheLine::clean(LineAddr::new(2), 0));
        a.install(CacheLine::clean(LineAddr::new(4), 0));
    }

    #[test]
    fn access_promotes_recency() {
        let mut a = tiny();
        a.install(CacheLine::clean(LineAddr::new(0), 0));
        a.install(CacheLine::clean(LineAddr::new(2), 0));
        assert!(a.access(LineAddr::new(0)).is_some());
        match a.victim_for(LineAddr::new(4)) {
            VictimChoice::Evict(v) => {
                assert_eq!(v.addr, LineAddr::new(2), "line 0 was re-touched")
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }
}
