//! Offline crash-consistency checking.
//!
//! The simulator records every committed store as a globally unique token
//! (see [`pbm_nvram::LineValue`]) together with the epoch that issued it.
//! Given the durable NVRAM state at an arbitrary crash cycle, this module
//! decides whether the persist barrier under test actually enforced its
//! persistency model:
//!
//! * **BEP** guarantees *ordering*: epochs become durable in happens-before
//!   order. Concretely, per core at most the newest epoch with durable
//!   effects may be partial, every older epoch must be complete; and for
//!   every recorded inter-thread dependence `S → D`, once `D` (or anything
//!   after it on its core) has durable effects, `S` must be complete.
//! * **BSP** (after undo-log recovery) additionally guarantees
//!   *atomicity*: every epoch is durable all-or-nothing.
//!
//! "Complete" accounts for write coalescing: an epoch's write to a line is
//! satisfied by the durable value being that write *or any later write* to
//! the same line — the intra-thread conflict rule (§3.2) guarantees the
//! older value was durably ordered first whenever that matters.

use crate::hb::HbGraph;
use pbm_nvram::{DurableSnapshot, LineValue};
use pbm_types::{CoreId, EpochId, EpochTag, LineAddr};
use std::collections::HashMap;
use std::fmt;

/// A detected violation of the persistency model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyViolation {
    /// A durable line holds a value no recorded store ever wrote.
    PhantomValue {
        /// The line.
        line: LineAddr,
        /// The unattributable durable token.
        token: LineValue,
    },
    /// An epoch that must be complete is missing one of its effects.
    IncompleteEpoch {
        /// The epoch that should be fully durable.
        epoch: EpochTag,
        /// A line it wrote whose durable value is older than its write.
        line: LineAddr,
        /// Why this epoch was required to be complete.
        because: CompletionReason,
    },
    /// BSP only: an epoch is durable in part (atomicity broken even after
    /// undo recovery).
    PartialEpoch {
        /// The partially-durable epoch.
        epoch: EpochTag,
        /// A line proving partiality.
        line: LineAddr,
    },
}

/// Why the checker demanded an epoch be complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionReason {
    /// A newer epoch of the same core has durable effects (program order).
    ProgramOrder {
        /// The newer epoch observed durable.
        newer: EpochId,
    },
    /// A dependent epoch on another core has durable effects.
    InterThread {
        /// The dependent epoch.
        dependent: EpochTag,
    },
}

impl fmt::Display for ConsistencyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyViolation::PhantomValue { line, token } => {
                write!(f, "durable line {line} holds unattributable token {token}")
            }
            ConsistencyViolation::IncompleteEpoch {
                epoch,
                line,
                because,
            } => write!(
                f,
                "epoch {epoch} incomplete at line {line} (required by {because:?})"
            ),
            ConsistencyViolation::PartialEpoch { epoch, line } => {
                write!(f, "epoch {epoch} partially durable (line {line})")
            }
        }
    }
}

impl std::error::Error for ConsistencyViolation {}

/// The write journal + dependence record against which snapshots are
/// checked.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyChecker {
    /// Per line: the committed write sequence, oldest first.
    writes: HashMap<LineAddr, Vec<(LineValue, EpochTag)>>,
    /// token -> (line, position in that line's sequence, epoch).
    by_token: HashMap<LineValue, (LineAddr, usize, EpochTag)>,
    /// Per epoch: the lines it wrote with the position of its *last* write
    /// to each.
    epoch_writes: HashMap<EpochTag, HashMap<LineAddr, usize>>,
    /// Recorded inter-thread dependences (source, dependent).
    dependences: Vec<(EpochTag, EpochTag)>,
}

impl ConsistencyChecker {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed store of unique `token` to `line` by `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `token` was already recorded — tokens must be globally
    /// unique for attribution to work.
    pub fn record_write(&mut self, line: LineAddr, token: LineValue, tag: EpochTag) {
        let seq = self.writes.entry(line).or_default();
        let pos = seq.len();
        seq.push((token, tag));
        let prev = self.by_token.insert(token, (line, pos, tag));
        assert!(prev.is_none(), "token {token} reused");
        self.epoch_writes.entry(tag).or_default().insert(line, pos);
    }

    /// Records an inter-thread dependence `source → dependent` (mirrors
    /// what IDT or an online flush enforced at runtime).
    pub fn record_dependence(&mut self, source: EpochTag, dependent: EpochTag) {
        self.dependences.push((source, dependent));
    }

    /// Records a pre-existing durable value (workload preload): it joins
    /// `line`'s write sequence at position 0 but belongs to no epoch, so it
    /// imposes no ordering obligations.
    ///
    /// # Panics
    ///
    /// Panics if the token was already recorded, or if `line` already has
    /// recorded writes (preloads must precede execution).
    pub fn record_initial(&mut self, line: LineAddr, token: LineValue) {
        const INITIAL: EpochTag = EpochTag::new(CoreId::new(u32::MAX), EpochId::new(u64::MAX));
        let seq = self.writes.entry(line).or_default();
        assert!(seq.is_empty(), "preload after writes to {line}");
        seq.push((token, INITIAL));
        let prev = self.by_token.insert(token, (line, 0, INITIAL));
        assert!(prev.is_none(), "token {token} reused");
        // Deliberately absent from epoch_writes: the initial image is not
        // an epoch and is never required to be "complete".
    }

    /// Builds the happens-before graph of recorded dependences (program
    /// order edges are implicit in per-core epoch ids).
    pub fn hb_graph(&self) -> HbGraph {
        let mut hb = HbGraph::new();
        for &(s, d) in &self.dependences {
            hb.add_dependence(s, d);
        }
        hb
    }

    /// Total distinct `(epoch, line)` pairs recorded — the exact number of
    /// line writes a coalescing epoch-flush protocol must issue to NVRAM.
    ///
    /// Proactive flushing changes *when* epochs flush, never *what*, so
    /// `SimStats::epoch_flush_writes` must equal this once every epoch has
    /// drained (the paper's §4 zero-extra-writes claim; asserted by
    /// `pbm-check`).
    pub fn epoch_line_write_count(&self) -> usize {
        self.epoch_writes.values().map(HashMap::len).sum()
    }

    /// True if `tag` has at least one durable effect in `snap`.
    pub fn epoch_effect_durable(&self, snap: &DurableSnapshot, tag: EpochTag) -> bool {
        let Some(lines) = self.epoch_writes.get(&tag) else {
            return false;
        };
        lines.keys().any(|line| {
            snap.line(*line)
                .and_then(|tok| self.by_token.get(&tok))
                .is_some_and(|(_, _, t)| *t == tag)
        })
    }

    /// Checks that every write of `tag` is covered in `snap`: each written
    /// line's durable value is `tag`'s write or a newer one. Returns the
    /// lowest uncovered line, so the report never depends on hash order.
    pub fn epoch_complete(&self, snap: &DurableSnapshot, tag: EpochTag) -> Result<(), LineAddr> {
        let Some(lines) = self.epoch_writes.get(&tag) else {
            return Ok(()); // wrote nothing: vacuously complete
        };
        let uncovered = |(&line, &pos): (&LineAddr, &usize)| {
            let durable_pos = snap
                .line(line)
                .and_then(|tok| self.by_token.get(&tok))
                .filter(|(l, _, _)| *l == line)
                .map(|(_, p, _)| *p);
            !matches!(durable_pos, Some(p) if p >= pos)
        };
        if !lines.iter().any(uncovered) {
            return Ok(());
        }
        // Error path only: scan every line for the lowest uncovered one.
        let lowest = lines
            .iter()
            .filter(|&l| uncovered(l))
            .map(|(l, _)| *l)
            .min();
        Err(lowest.expect("an uncovered line exists"))
    }

    /// Per-core frontier: the newest epoch of `core` with durable effects.
    fn durable_frontier(&self, snap: &DurableSnapshot, core: CoreId) -> Option<EpochId> {
        self.epoch_writes
            .keys()
            .filter(|t| t.core == core)
            .filter(|t| self.epoch_effect_durable(snap, **t))
            .map(|t| t.epoch)
            .max()
    }

    /// All cores that recorded writes.
    fn cores(&self) -> Vec<CoreId> {
        let mut cores: Vec<CoreId> = self.epoch_writes.keys().map(|t| t.core).collect();
        cores.sort();
        cores.dedup();
        cores
    }

    /// Checks for durable values no store ever wrote; reports the lowest
    /// such line.
    fn check_phantoms(&self, snap: &DurableSnapshot) -> Result<(), ConsistencyViolation> {
        let phantom = snap
            .iter()
            .filter(
                |(line, token)| !matches!(self.by_token.get(token), Some((l, _, _)) if l == line),
            )
            .min();
        match phantom {
            Some((line, token)) => Err(ConsistencyViolation::PhantomValue { line, token }),
            None => Ok(()),
        }
    }

    /// Checks the BEP ordering invariants against a crash snapshot.
    ///
    /// # Errors
    ///
    /// Returns the oldest incomplete epoch by `(core, epoch)` that BEP
    /// requires complete, with its lowest uncovered line (or the lowest
    /// phantom line), so one snapshot always yields one report.
    pub fn check_bep(&self, snap: &DurableSnapshot) -> Result<(), ConsistencyViolation> {
        self.check_phantoms(snap)?;
        // Every requirement is checked, and the oldest violating epoch
        // wins: hash order must not pick the report. For one epoch, the
        // first requirement found names the reason.
        let mut oldest: Option<(EpochTag, CompletionReason)> = None;
        let mut violated = |tag: EpochTag, because| {
            if oldest.is_none_or(|(t, _)| tag < t) {
                oldest = Some((tag, because));
            }
        };
        // Program order: everything strictly below the durable frontier of
        // each core must be complete.
        for core in self.cores() {
            let Some(frontier) = self.durable_frontier(snap, core) else {
                continue;
            };
            for tag in self.epoch_writes.keys().filter(|t| t.core == core) {
                if tag.epoch < frontier && self.epoch_complete(snap, *tag).is_err() {
                    violated(*tag, CompletionReason::ProgramOrder { newer: frontier });
                }
            }
        }
        // Inter-thread dependences: once the dependent (or anything after
        // it on its core) is durably visible, the source must be complete.
        for &(source, dependent) in &self.dependences {
            let dep_started = self
                .durable_frontier(snap, dependent.core)
                .is_some_and(|f| f >= dependent.epoch);
            if dep_started && self.epoch_complete(snap, source).is_err() {
                violated(source, CompletionReason::InterThread { dependent });
            }
        }
        match oldest {
            None => Ok(()),
            Some((epoch, because)) => Err(ConsistencyViolation::IncompleteEpoch {
                epoch,
                line: self
                    .epoch_complete(snap, epoch)
                    .expect_err("a violating epoch is incomplete"),
                because,
            }),
        }
    }

    /// Checks the BSP invariants (ordering + atomicity) against a
    /// *recovered* snapshot (after
    /// [`DurableSnapshot::recover_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`Self::check_bep`]'s violation, else the oldest partial
    /// epoch by `(core, epoch)` with its lowest uncovered line.
    pub fn check_bsp_recovered(&self, snap: &DurableSnapshot) -> Result<(), ConsistencyViolation> {
        self.check_bep(snap)?;
        // Atomicity: any epoch with a durable effect must be complete.
        let mut tags: Vec<&EpochTag> = self.epoch_writes.keys().collect();
        tags.sort();
        for tag in tags {
            if self.epoch_effect_durable(snap, *tag) {
                if let Err(line) = self.epoch_complete(snap, *tag) {
                    return Err(ConsistencyViolation::PartialEpoch { epoch: *tag, line });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    fn snap(pairs: &[(u64, u64)]) -> DurableSnapshot {
        DurableSnapshot::new(
            pairs
                .iter()
                .map(|&(l, v)| (LineAddr::new(l), v))
                .collect::<Map<_, _>>(),
            pbm_types::Cycle::new(1000),
        )
    }

    /// Epoch 0 writes lines 1,2; epoch 1 writes line 3.
    fn two_epoch_journal() -> ConsistencyChecker {
        let mut ck = ConsistencyChecker::new();
        ck.record_write(LineAddr::new(1), 101, tag(0, 0));
        ck.record_write(LineAddr::new(2), 102, tag(0, 0));
        ck.record_write(LineAddr::new(3), 103, tag(0, 1));
        ck
    }

    #[test]
    fn empty_snapshot_is_consistent() {
        let ck = two_epoch_journal();
        ck.check_bep(&snap(&[])).unwrap();
    }

    #[test]
    fn ordered_persist_is_consistent() {
        let ck = two_epoch_journal();
        // Epoch 0 fully durable, epoch 1 partially: fine for BEP.
        ck.check_bep(&snap(&[(1, 101), (2, 102)])).unwrap();
        ck.check_bep(&snap(&[(1, 101), (2, 102), (3, 103)]))
            .unwrap();
    }

    #[test]
    fn out_of_order_persist_is_flagged() {
        let ck = two_epoch_journal();
        // Epoch 1's line durable while epoch 0's line 2 is not.
        let err = ck.check_bep(&snap(&[(1, 101), (3, 103)])).unwrap_err();
        assert_eq!(
            err,
            ConsistencyViolation::IncompleteEpoch {
                epoch: tag(0, 0),
                line: LineAddr::new(2),
                because: CompletionReason::ProgramOrder {
                    newer: EpochId::new(1)
                },
            }
        );
    }

    #[test]
    fn partial_frontier_epoch_is_allowed_in_bep() {
        let ck = two_epoch_journal();
        // Only part of epoch 0 durable, nothing newer: legal.
        ck.check_bep(&snap(&[(1, 101)])).unwrap();
    }

    #[test]
    fn phantom_value_is_flagged() {
        let ck = two_epoch_journal();
        let err = ck.check_bep(&snap(&[(1, 999)])).unwrap_err();
        assert!(matches!(err, ConsistencyViolation::PhantomValue { .. }));
    }

    #[test]
    fn coalesced_overwrite_counts_as_coverage() {
        let mut ck = ConsistencyChecker::new();
        ck.record_write(LineAddr::new(1), 10, tag(0, 0));
        ck.record_write(LineAddr::new(1), 20, tag(0, 1)); // overwrites in a later epoch
        ck.record_write(LineAddr::new(2), 30, tag(0, 2));
        // Durable: line1 holds epoch 1's value, line2 holds epoch 2's.
        // Epoch 0's write to line1 is covered by the newer durable write.
        ck.check_bep(&snap(&[(1, 20), (2, 30)])).unwrap();
    }

    #[test]
    fn stale_value_under_newer_durable_epoch_is_flagged() {
        let mut ck = ConsistencyChecker::new();
        ck.record_write(LineAddr::new(1), 10, tag(0, 0));
        ck.record_write(LineAddr::new(1), 20, tag(0, 1));
        ck.record_write(LineAddr::new(2), 30, tag(0, 2));
        // Epoch 2 durable but line 1 still holds epoch *0*'s value: epoch 1
        // must have been complete (durable pos >= its write) — violation.
        let err = ck.check_bep(&snap(&[(1, 10), (2, 30)])).unwrap_err();
        assert!(matches!(
            err,
            ConsistencyViolation::IncompleteEpoch {
                epoch,
                ..
            } if epoch == tag(0, 1)
        ));
    }

    #[test]
    fn inter_thread_dependence_enforced() {
        let mut ck = ConsistencyChecker::new();
        ck.record_write(LineAddr::new(1), 10, tag(0, 0)); // source writes line 1
        ck.record_write(LineAddr::new(2), 20, tag(1, 0)); // dependent writes line 2
        ck.record_dependence(tag(0, 0), tag(1, 0));
        // Dependent durable, source not: violation.
        let err = ck.check_bep(&snap(&[(2, 20)])).unwrap_err();
        assert_eq!(
            err,
            ConsistencyViolation::IncompleteEpoch {
                epoch: tag(0, 0),
                line: LineAddr::new(1),
                because: CompletionReason::InterThread {
                    dependent: tag(1, 0)
                },
            }
        );
        // Source durable too: fine.
        ck.check_bep(&snap(&[(1, 10), (2, 20)])).unwrap();
        // Source durable alone: fine (dependence is one-directional).
        ck.check_bep(&snap(&[(1, 10)])).unwrap();
    }

    #[test]
    fn bsp_atomicity_flags_partial_epoch() {
        let ck = two_epoch_journal();
        // Epoch 0 half-durable: legal for BEP, illegal for recovered BSP.
        let s = snap(&[(1, 101)]);
        ck.check_bep(&s).unwrap();
        let err = ck.check_bsp_recovered(&s).unwrap_err();
        assert_eq!(
            err,
            ConsistencyViolation::PartialEpoch {
                epoch: tag(0, 0),
                line: LineAddr::new(2),
            }
        );
    }

    #[test]
    fn bsp_accepts_whole_epochs() {
        let ck = two_epoch_journal();
        ck.check_bsp_recovered(&snap(&[])).unwrap();
        ck.check_bsp_recovered(&snap(&[(1, 101), (2, 102)]))
            .unwrap();
        ck.check_bsp_recovered(&snap(&[(1, 101), (2, 102), (3, 103)]))
            .unwrap();
    }

    /// Core 0 runs six epochs over eight lines; at the crash E5 is durable
    /// while E1 (two lines), E2 and E3 are incomplete. Every rebuild hashes
    /// differently, yet the report is always the oldest epoch's lowest line.
    #[test]
    fn violation_report_is_independent_of_hash_order() {
        let line = |k: u64| LineAddr::new(0x1000 + 37 * k);
        let journal = || {
            let mut ck = ConsistencyChecker::new();
            let writes = [
                (0, 0, 100), // E0: L0, L1
                (1, 0, 101),
                (2, 1, 102), // E1: L2, L3, L4
                (3, 1, 103),
                (4, 1, 104),
                (5, 2, 105), // E2: L5
                (6, 3, 106), // E3: L6, L7
                (7, 3, 107),
                (3, 4, 108), // E4 overwrites L3
                (0, 5, 109), // E5 overwrites L0
            ];
            for (l, e, token) in writes {
                ck.record_write(line(l), token, tag(0, e));
            }
            ck
        };
        let durable = |pairs: &[(u64, u64)]| {
            DurableSnapshot::new(
                pairs
                    .iter()
                    .map(|&(l, v)| (line(l), v))
                    .collect::<Map<_, _>>(),
                pbm_types::Cycle::new(1000),
            )
        };
        // L0 holds E5's write, L1 E0's, L3 E4's, L6 E3's; L2, L4, L5 and
        // L7 were never persisted.
        let snapshot = durable(&[(0, 109), (1, 101), (3, 108), (6, 106)]);
        let expected = ConsistencyViolation::IncompleteEpoch {
            epoch: tag(0, 1),
            line: line(2),
            because: CompletionReason::ProgramOrder {
                newer: EpochId::new(5),
            },
        };
        for _ in 0..32 {
            let ck = journal();
            assert_eq!(ck.check_bep(&snapshot), Err(expected.clone()));
            assert_eq!(ck.epoch_complete(&snapshot, tag(0, 3)), Err(line(7)));
        }
        // Recovered BSP: E0 is whole and nothing newer is durable, so the
        // oldest partial epoch is E1 at its lowest missing line, L2.
        let partial = durable(&[(0, 100), (1, 101), (3, 103)]);
        for _ in 0..32 {
            assert_eq!(
                journal().check_bsp_recovered(&partial),
                Err(ConsistencyViolation::PartialEpoch {
                    epoch: tag(0, 1),
                    line: line(2),
                })
            );
        }
    }

    #[test]
    fn hb_graph_export() {
        let mut ck = ConsistencyChecker::new();
        ck.record_dependence(tag(0, 0), tag(1, 0));
        let hb = ck.hb_graph();
        assert_eq!(hb.edge_count(), 1);
        assert!(hb.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "token")]
    fn duplicate_token_panics() {
        let mut ck = ConsistencyChecker::new();
        ck.record_write(LineAddr::new(1), 1, tag(0, 0));
        ck.record_write(LineAddr::new(2), 1, tag(0, 0));
    }

    #[test]
    fn violation_display() {
        let v = ConsistencyViolation::PhantomValue {
            line: LineAddr::new(1),
            token: 9,
        };
        assert!(v.to_string().contains("unattributable"));
    }
}
