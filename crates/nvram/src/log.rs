//! Hardware undo log for BSP bulk mode (§5.2.1).
//!
//! Before a cache line is modified for the first time in an epoch, its old
//! value is written to the log region in NVRAM (write-ahead). When an epoch
//! fully persists (`PersistCMP`), a commit marker for it becomes durable and
//! its records are dead. On a crash, every *durable but uncommitted* record
//! is applied in reverse to undo partially-persisted epochs.

use crate::device::LineValue;
use pbm_types::{Cycle, EpochTag, LineAddr};

/// One undo-log entry: the pre-image of a line modified by an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Epoch that modified the line.
    pub tag: EpochTag,
    /// The line modified.
    pub line: LineAddr,
    /// Durable value before the modification (`None` = line had never
    /// been persisted).
    pub old: Option<LineValue>,
    /// Cycle at which this record itself became durable in the log region.
    pub durable_at: Cycle,
    /// Cycle at which the epoch's commit marker became durable, if it did.
    pub committed_at: Option<Cycle>,
}

/// The undo-log region: an append-only journal of pre-images plus commit
/// markers.
///
/// The log is *modelled* logically here; the NVRAM write traffic it causes
/// is accounted by the simulator (each append and each commit marker is a
/// line write through a memory controller).
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    records: Vec<LogRecord>,
    appended: u64,
    committed_epochs: u64,
}

impl UndoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pre-image record that becomes durable at `durable_at`,
    /// returning the cycle at which it *actually* becomes durable.
    ///
    /// The log region is a sequential buffer: a record appended later can
    /// never become durable before an earlier one, even when the two lands
    /// on differently-loaded memory controllers. `append` therefore clamps
    /// `durable_at` to be monotone in append order. Without this, undo
    /// recovery is unsound: a record whose pre-image is another epoch's
    /// not-yet-durable value could become durable first, and rolling it
    /// back at a crash in that window would resurrect a value that was
    /// never in NVRAM.
    pub fn append(
        &mut self,
        tag: EpochTag,
        line: LineAddr,
        old: Option<LineValue>,
        durable_at: Cycle,
    ) -> Cycle {
        let durable_at = self
            .records
            .last()
            .map_or(durable_at, |r| durable_at.max(r.durable_at));
        self.appended += 1;
        self.records.push(LogRecord {
            tag,
            line,
            old,
            durable_at,
            committed_at: None,
        });
        durable_at
    }

    /// Marks every record of `tag` committed, with the commit marker
    /// durable at `at`. Idempotent per epoch.
    pub fn commit_epoch(&mut self, tag: EpochTag, at: Cycle) {
        let mut any = false;
        for r in self.records.iter_mut().filter(|r| r.tag == tag) {
            if r.committed_at.is_none() {
                r.committed_at = Some(at);
                any = true;
            }
        }
        if any {
            self.committed_epochs += 1;
        }
    }

    /// All records, in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Total records ever appended.
    pub fn append_count(&self) -> u64 {
        self.appended
    }

    /// Epochs for which a commit marker was written.
    pub fn committed_epoch_count(&self) -> u64 {
        self.committed_epochs
    }

    /// Records that, at a crash at cycle `at`, are durable but whose epoch
    /// commit marker is not — i.e. the records recovery must undo, in
    /// *reverse* append order.
    pub fn pending_at(&self, at: Cycle) -> impl Iterator<Item = &LogRecord> {
        self.records
            .iter()
            .rev()
            .filter(move |r| r.durable_at <= at && !matches!(r.committed_at, Some(c) if c <= at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{CoreId, EpochId};

    fn tag(core: u32, epoch: u64) -> EpochTag {
        EpochTag::new(CoreId::new(core), EpochId::new(epoch))
    }

    #[test]
    fn append_and_commit() {
        let mut log = UndoLog::new();
        log.append(tag(0, 0), LineAddr::new(1), Some(10), Cycle::new(5));
        log.append(tag(0, 0), LineAddr::new(2), None, Cycle::new(6));
        assert_eq!(log.append_count(), 2);
        assert_eq!(log.pending_at(Cycle::new(10)).count(), 2);
        log.commit_epoch(tag(0, 0), Cycle::new(20));
        assert_eq!(log.committed_epoch_count(), 1);
        assert_eq!(log.pending_at(Cycle::new(25)).count(), 0);
        // Before the commit marker was durable, records are still pending.
        assert_eq!(log.pending_at(Cycle::new(15)).count(), 2);
    }

    #[test]
    fn records_not_yet_durable_are_invisible() {
        let mut log = UndoLog::new();
        log.append(tag(1, 3), LineAddr::new(7), Some(1), Cycle::new(100));
        assert_eq!(log.pending_at(Cycle::new(99)).count(), 0);
        assert_eq!(log.pending_at(Cycle::new(100)).count(), 1);
    }

    #[test]
    fn pending_is_reverse_order() {
        let mut log = UndoLog::new();
        log.append(tag(0, 0), LineAddr::new(1), Some(1), Cycle::new(1));
        log.append(tag(0, 0), LineAddr::new(1), Some(2), Cycle::new(2));
        let pending: Vec<_> = log.pending_at(Cycle::new(5)).collect();
        assert_eq!(pending[0].old, Some(2));
        assert_eq!(pending[1].old, Some(1));
    }

    #[test]
    fn commit_is_idempotent() {
        let mut log = UndoLog::new();
        log.append(tag(0, 1), LineAddr::new(1), Some(1), Cycle::new(1));
        log.commit_epoch(tag(0, 1), Cycle::new(2));
        log.commit_epoch(tag(0, 1), Cycle::new(3));
        assert_eq!(log.committed_epoch_count(), 1);
        let r = log.records()[0];
        assert_eq!(r.committed_at, Some(Cycle::new(2)), "first commit wins");
    }
}
