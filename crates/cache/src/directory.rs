//! LLC-side coherence directory.
//!
//! The paper's system (Figure 2) is a directory-based inclusive-LLC
//! multicore; the epoch machinery needs coherence only to (a) route a
//! request to the L1 that owns a dirty copy and (b) know which core last
//! modified a line (the `CoreID` cache-tag extension). This directory
//! tracks a sharer bitmask and an optional exclusive owner per LLC-resident
//! line — the minimal state for those two jobs.

use pbm_types::{CoreId, FastMap, LineAddr, MAX_CORES};

// `SystemConfig::validate` caps the core count so every core has a bit.
const _: () = assert!(MAX_CORES <= u64::BITS as usize);

/// Directory state for one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Bitmask of cores that may hold a (shared, clean) copy.
    pub sharers: u64,
    /// Core holding the line exclusively (possibly dirty) in its L1.
    pub owner: Option<CoreId>,
}

impl DirEntry {
    /// True if no core holds the line.
    pub fn is_idle(&self) -> bool {
        self.sharers == 0 && self.owner.is_none()
    }

    /// Appends the cores in the sharer mask to `out`, in core order.
    pub fn sharers_into(&self, out: &mut Vec<CoreId>) {
        let mut mask = self.sharers;
        while mask != 0 {
            let i = mask.trailing_zeros();
            out.push(CoreId::new(i));
            mask &= mask - 1;
        }
    }
}

/// Per-bank coherence directory (inclusive with the bank's array: entries
/// exist only for lines the controller chooses to track).
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: FastMap<LineAddr, DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `line` (idle default if untracked).
    pub fn entry(&self, line: LineAddr) -> DirEntry {
        self.entries.get(&line).copied().unwrap_or_default()
    }

    /// Records that `core` obtained a shared copy.
    pub fn add_sharer(&mut self, line: LineAddr, core: CoreId) {
        let e = self.entries.entry(line).or_default();
        e.sharers |= 1 << core.index();
    }

    /// Records that `core` obtained the line exclusively (for a store):
    /// clears all sharers and sets the owner.
    pub fn set_owner(&mut self, line: LineAddr, core: CoreId) {
        let e = self.entries.entry(line).or_default();
        e.sharers = 1 << core.index();
        e.owner = Some(core);
    }

    /// The current exclusive owner, if any.
    pub fn owner(&self, line: LineAddr) -> Option<CoreId> {
        self.entries.get(&line).and_then(|e| e.owner)
    }

    /// Appends the sharers other than `requestor` that must be invalidated
    /// for an exclusive request to `out`, in core order.
    pub fn invalidation_targets_into(
        &self,
        line: LineAddr,
        requestor: CoreId,
        out: &mut Vec<CoreId>,
    ) {
        let mut entry = self.entry(line);
        entry.sharers &= !(1u64 << requestor.index());
        entry.sharers_into(out);
    }

    /// Downgrades the owner to a sharer (a remote read hit a dirty copy:
    /// the owner writes back and keeps a shared copy).
    pub fn downgrade_owner(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.get_mut(&line) {
            e.owner = None;
        }
    }

    /// Removes `core` from the line's sharers/owner (L1 eviction or
    /// invalidation).
    pub fn drop_core(&mut self, line: LineAddr, core: CoreId) {
        if let Some(e) = self.entries.get_mut(&line) {
            e.sharers &= !(1 << core.index());
            if e.owner == Some(core) {
                e.owner = None;
            }
            if e.is_idle() {
                self.entries.remove(&line);
            }
        }
    }

    /// Forgets the line entirely (LLC eviction; the controller must have
    /// recalled L1 copies first — asserted here).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a core still holds the line.
    pub fn forget(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.remove(&line) {
            debug_assert!(e.is_idle(), "forgetting {line} still held: {e:?}");
        }
    }

    /// Appends the cores holding any copy of `line` to `out` (for
    /// inclusive-LLC eviction recalls).
    pub fn holders_into(&self, line: LineAddr, out: &mut Vec<CoreId>) {
        let e = self.entry(line);
        let before = out.len();
        e.sharers_into(out);
        if let Some(o) = e.owner {
            if !out[before..].contains(&o) {
                out.push(o);
            }
        }
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no lines are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    /// Collects what an `_into` enumeration appends.
    fn list(fill: impl FnOnce(&mut Vec<CoreId>)) -> Vec<CoreId> {
        let mut out = Vec::new();
        fill(&mut out);
        out
    }

    #[test]
    fn sharers_accumulate() {
        let mut d = Directory::new();
        d.add_sharer(LineAddr::new(1), c(0));
        d.add_sharer(LineAddr::new(1), c(3));
        assert_eq!(
            list(|o| d.entry(LineAddr::new(1)).sharers_into(o)),
            vec![c(0), c(3)]
        );
        assert_eq!(d.owner(LineAddr::new(1)), None);
    }

    #[test]
    fn exclusive_clears_sharers() {
        let mut d = Directory::new();
        d.add_sharer(LineAddr::new(1), c(0));
        d.add_sharer(LineAddr::new(1), c(1));
        d.set_owner(LineAddr::new(1), c(2));
        assert_eq!(d.owner(LineAddr::new(1)), Some(c(2)));
        assert_eq!(
            list(|o| d.entry(LineAddr::new(1)).sharers_into(o)),
            vec![c(2)]
        );
    }

    #[test]
    fn invalidation_targets_exclude_requestor() {
        let mut d = Directory::new();
        d.add_sharer(LineAddr::new(1), c(0));
        d.add_sharer(LineAddr::new(1), c(1));
        d.add_sharer(LineAddr::new(1), c(2));
        assert_eq!(
            list(|o| d.invalidation_targets_into(LineAddr::new(1), c(1), o)),
            vec![c(0), c(2)]
        );
    }

    #[test]
    fn downgrade_keeps_sharer() {
        let mut d = Directory::new();
        d.set_owner(LineAddr::new(1), c(5));
        d.downgrade_owner(LineAddr::new(1));
        assert_eq!(d.owner(LineAddr::new(1)), None);
        assert_eq!(
            list(|o| d.entry(LineAddr::new(1)).sharers_into(o)),
            vec![c(5)]
        );
    }

    #[test]
    fn drop_core_cleans_up() {
        let mut d = Directory::new();
        d.set_owner(LineAddr::new(1), c(5));
        d.drop_core(LineAddr::new(1), c(5));
        assert!(d.is_empty());
    }

    #[test]
    fn holders_union_owner_and_sharers() {
        let mut d = Directory::new();
        d.add_sharer(LineAddr::new(1), c(0));
        // Manually craft owner not in sharers (post-downgrade edge).
        d.set_owner(LineAddr::new(1), c(2));
        d.add_sharer(LineAddr::new(1), c(0));
        let mut h = list(|o| d.holders_into(LineAddr::new(1), o));
        h.sort();
        assert_eq!(h, vec![c(0), c(2)]);
    }

    #[test]
    fn idle_entry_defaults() {
        let d = Directory::new();
        assert!(d.entry(LineAddr::new(9)).is_idle());
        assert_eq!(list(|o| d.holders_into(LineAddr::new(9), o)), vec![]);
        assert_eq!(d.len(), 0);
    }
}
