//! Durable-state snapshots and crash recovery.

use crate::device::LineValue;
use crate::log::UndoLog;
use pbm_types::{Cycle, LineAddr};
use std::collections::HashMap;

/// The durable contents of NVRAM at a crash point.
///
/// Produced by [`NvramDevice::snapshot_at`](crate::NvramDevice::snapshot_at)
/// (reconstruction from the write journal).
/// [`DurableSnapshot::recover_with`] applies the BSP undo log, yielding the
/// state a real recovery procedure would observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableSnapshot {
    lines: HashMap<LineAddr, LineValue>,
    at: Cycle,
}

impl DurableSnapshot {
    /// Wraps a durable line map taken at cycle `at`.
    pub fn new(lines: HashMap<LineAddr, LineValue>, at: Cycle) -> Self {
        DurableSnapshot { lines, at }
    }

    /// Durable value of `line`, or `None` if never persisted by the crash.
    pub fn line(&self, line: LineAddr) -> Option<LineValue> {
        self.lines.get(&line).copied()
    }

    /// Number of durable lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if nothing was durable.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Iterates over `(line, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, LineValue)> + '_ {
        self.lines.iter().map(|(l, v)| (*l, *v))
    }

    /// Applies crash recovery with the undo log: every durable-but-
    /// uncommitted record is undone in reverse append order, restoring each
    /// partially-persisted epoch's pre-image (§5.2.1).
    ///
    /// Returns the recovered state and the number of records undone.
    pub fn recover_with(mut self, log: &UndoLog) -> (DurableSnapshot, usize) {
        let mut undone = 0;
        // `pending_at` yields reverse append order, which is exactly undo
        // order: the oldest pre-image of a line is applied last.
        let pending: Vec<_> = log.pending_at(self.at).collect();
        for rec in pending {
            match rec.old {
                Some(v) => {
                    self.lines.insert(rec.line, v);
                }
                None => {
                    self.lines.remove(&rec.line);
                }
            }
            undone += 1;
        }
        (self, undone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{CoreId, EpochId, EpochTag};

    fn tag(core: u32, epoch: u64) -> EpochTag {
        EpochTag::new(CoreId::new(core), EpochId::new(epoch))
    }

    fn snap(pairs: &[(u64, u64)], at: u64) -> DurableSnapshot {
        DurableSnapshot::new(
            pairs
                .iter()
                .map(|&(l, v)| (LineAddr::new(l), v))
                .collect::<HashMap<_, _>>(),
            Cycle::new(at),
        )
    }

    #[test]
    fn accessors() {
        let s = snap(&[(1, 10), (2, 20)], 100);
        assert_eq!(s.line(LineAddr::new(1)), Some(10));
        assert_eq!(s.line(LineAddr::new(3)), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn recovery_restores_preimage_of_uncommitted_epoch() {
        // Epoch wrote line 1: 10 -> 11, and the new value leaked to NVRAM,
        // but the epoch never committed.
        let mut log = UndoLog::new();
        log.append(tag(0, 0), LineAddr::new(1), Some(10), Cycle::new(50));
        let s = snap(&[(1, 11)], 100);
        let (r, undone) = s.recover_with(&log);
        assert_eq!(undone, 1);
        assert_eq!(r.line(LineAddr::new(1)), Some(10));
    }

    #[test]
    fn recovery_removes_lines_that_never_existed() {
        let mut log = UndoLog::new();
        log.append(tag(0, 0), LineAddr::new(2), None, Cycle::new(10));
        let s = snap(&[(2, 99)], 100);
        let (r, _) = s.recover_with(&log);
        assert_eq!(r.line(LineAddr::new(2)), None);
    }

    #[test]
    fn committed_epochs_are_not_undone() {
        let mut log = UndoLog::new();
        log.append(tag(0, 0), LineAddr::new(1), Some(10), Cycle::new(50));
        log.commit_epoch(tag(0, 0), Cycle::new(80));
        let s = snap(&[(1, 11)], 100);
        let (r, undone) = s.recover_with(&log);
        assert_eq!(undone, 0);
        assert_eq!(r.line(LineAddr::new(1)), Some(11));
    }

    #[test]
    fn multiple_epochs_undo_in_reverse() {
        // Epoch 0 (committed): 1 -> A(=1). Epoch 1 (uncommitted): A -> B(=2).
        // Epoch 2 (uncommitted): B -> C(=3). Crash sees C; recovery must
        // land on A, not B.
        let mut log = UndoLog::new();
        log.append(tag(0, 0), LineAddr::new(1), None, Cycle::new(1));
        log.commit_epoch(tag(0, 0), Cycle::new(5));
        log.append(tag(0, 1), LineAddr::new(1), Some(1), Cycle::new(10));
        log.append(tag(0, 2), LineAddr::new(1), Some(2), Cycle::new(20));
        let s = snap(&[(1, 3)], 100);
        let (r, undone) = s.recover_with(&log);
        assert_eq!(undone, 2);
        assert_eq!(r.line(LineAddr::new(1)), Some(1));
    }

    #[test]
    fn records_durable_after_crash_are_ignored() {
        let mut log = UndoLog::new();
        log.append(tag(0, 1), LineAddr::new(1), Some(7), Cycle::new(500));
        let s = snap(&[(1, 8)], 100); // crash before the record was durable
        let (r, undone) = s.recover_with(&log);
        assert_eq!(undone, 0);
        assert_eq!(r.line(LineAddr::new(1)), Some(8));
    }
}
