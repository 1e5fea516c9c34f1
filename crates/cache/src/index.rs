//! Exact per-epoch line index.

use pbm_types::{EpochTag, FastMap, LineAddr};

/// Tracks, per epoch, exactly which resident lines it dirtied.
///
/// The paper's flush engine keeps a per-epoch bitmap over cache sets
/// (1 bit per 64 sets, §4.3) and scans the marked sets when flushing. The
/// simulator uses this exact index for the actual line enumeration — same
/// answer as the hardware's scan, without the simulation cost of walking
/// sets. Each epoch's lines are one `Vec` kept in address order by binary
/// search, so flush order is deterministic.
#[derive(Debug, Clone, Default)]
pub struct EpochIndex {
    by_epoch: FastMap<EpochTag, Vec<LineAddr>>,
}

impl EpochIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `tag` dirtied `line`.
    pub fn add(&mut self, tag: EpochTag, line: LineAddr) {
        let lines = self.by_epoch.entry(tag).or_default();
        if let Err(i) = lines.binary_search(&line) {
            lines.insert(i, line);
        }
    }

    /// Removes `line` from `tag` (written back or retagged). No-op if
    /// absent.
    pub fn remove(&mut self, tag: EpochTag, line: LineAddr) {
        if let Some(lines) = self.by_epoch.get_mut(&tag) {
            if let Ok(i) = lines.binary_search(&line) {
                lines.remove(i);
                if lines.is_empty() {
                    self.by_epoch.remove(&tag);
                }
            }
        }
    }

    /// Appends the lines attributed to `tag` to `out`, in address order.
    /// Allocation-free when `out` has capacity — the flush hot path reuses
    /// one scratch buffer across epochs.
    pub fn lines_into(&self, tag: EpochTag, out: &mut Vec<LineAddr>) {
        if let Some(lines) = self.by_epoch.get(&tag) {
            out.extend_from_slice(lines);
        }
    }

    /// Number of lines attributed to `tag`.
    pub fn len(&self, tag: EpochTag) -> usize {
        self.by_epoch.get(&tag).map_or(0, Vec::len)
    }

    /// True if no line is attributed to `tag`.
    pub fn is_empty(&self, tag: EpochTag) -> bool {
        self.len(tag) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{CoreId, EpochId};

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    fn lines(ix: &EpochIndex, t: EpochTag) -> Vec<LineAddr> {
        let mut out = Vec::new();
        ix.lines_into(t, &mut out);
        out
    }

    #[test]
    fn add_remove_lines() {
        let mut ix = EpochIndex::new();
        ix.add(tag(0, 0), LineAddr::new(3));
        ix.add(tag(0, 0), LineAddr::new(1));
        ix.add(tag(0, 1), LineAddr::new(9));
        assert_eq!(
            lines(&ix, tag(0, 0)),
            vec![LineAddr::new(1), LineAddr::new(3)]
        );
        assert_eq!(ix.len(tag(0, 0)), 2);
        ix.remove(tag(0, 0), LineAddr::new(1));
        assert_eq!(lines(&ix, tag(0, 0)), vec![LineAddr::new(3)]);
        ix.remove(tag(0, 0), LineAddr::new(3));
        assert!(ix.is_empty(tag(0, 0)));
        assert_eq!(ix.len(tag(0, 1)), 1);
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut ix = EpochIndex::new();
        ix.add(tag(0, 0), LineAddr::new(5));
        ix.add(tag(0, 0), LineAddr::new(5));
        assert_eq!(ix.len(tag(0, 0)), 1);
    }

    #[test]
    fn lines_are_sorted_for_determinism() {
        let mut ix = EpochIndex::new();
        for n in [9u64, 2, 7, 1] {
            ix.add(tag(0, 0), LineAddr::new(n));
        }
        let lines = lines(&ix, tag(0, 0));
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }
}
