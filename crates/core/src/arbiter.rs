//! The per-core epoch arbiter (§4.1, §4.2).
//!
//! Sits in the L1 cache controller and orchestrates the multi-banked epoch
//! flush handshake of Figure 8: ① flush the epoch's L1 lines and broadcast
//! `FlushEpoch` to every LLC bank, ② banks flush their lines and collect
//! `PersistAck`s, ③ banks return `BankAck`, ④ the arbiter broadcasts
//! `PersistCMP`. Epochs of one core flush strictly in program order, one at
//! a time; the arbiter additionally holds an epoch's flush until every IDT
//! source epoch recorded for it has persisted (§4.2's dependence
//! registers). The `PersistCMP` broadcast releases those registers at
//! every other arbiter; the inform registers are only counted and freed
//! on persist.
//!
//! The arbiter is a pure state machine: it consumes events (`bank_ack`,
//! `dependence_satisfied`, flush requests) and emits [`ArbiterAction`]s.
//! [`Protocol`](crate::Protocol) drives one arbiter per core and makes
//! the cross-core decisions.

use crate::epoch::EpochLedger;
use crate::idt::{IdtOverflow, IdtRegisters};
use crate::tally::Tally;
use pbm_types::bug::{self, InjectedBug};
use pbm_types::{CoreId, EpochId, EpochPhase, EpochTag, SystemConfig};

/// What the timing layer must do on behalf of the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterAction {
    /// Begin the flush of this epoch: write back its L1 lines to the LLC
    /// banks and broadcast `FlushEpoch` (step ① of Figure 8).
    StartEpochFlush(EpochTag),
    /// All banks acked: broadcast `PersistCMP` (step ④) so banks may
    /// advance to the next epoch of this core, and every other arbiter
    /// releases the dependence registers naming this epoch.
    BroadcastPersistCmp(EpochTag),
    /// Bookkeeping signal: this epoch is now durable (stats, ledger hooks,
    /// unblocking of requests queued on the persist).
    EpochPersisted(EpochTag),
}

/// Where the arbiter's flush pipeline currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushPhase {
    /// No flush in progress.
    Idle,
    /// The frontier epoch wants to flush but waits on IDT source epochs.
    WaitingDeps(EpochId),
    /// `FlushEpoch` broadcast; counting `BankAck`s.
    AwaitingBankAcks(EpochId),
}

/// The per-core epoch arbiter: ledger + IDT registers + flush FSM.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EpochArbiter {
    core: CoreId,
    num_banks: usize,
    ledger: EpochLedger,
    idt: IdtRegisters,
    phase: FlushPhase,
    acks: usize,
    /// Highest epoch id requested to flush (conflicts, PF, back-pressure,
    /// drain). `None` = nothing requested.
    goal: Option<EpochId>,
    splits: Tally,
}

impl EpochArbiter {
    /// Creates the arbiter for `core` under `cfg`.
    pub fn new(core: CoreId, cfg: &SystemConfig) -> Self {
        EpochArbiter {
            core,
            num_banks: cfg.llc_banks,
            ledger: EpochLedger::new(core),
            idt: IdtRegisters::new(cfg.idt_pairs),
            phase: FlushPhase::Idle,
            acks: 0,
            goal: None,
            splits: Tally::default(),
        }
    }

    /// The core this arbiter serves.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Read-only view of the epoch ledger.
    pub fn ledger(&self) -> &EpochLedger {
        &self.ledger
    }

    /// Read-only view of the IDT registers.
    pub fn idt(&self) -> &IdtRegisters {
        &self.idt
    }

    /// Current flush phase.
    pub fn phase(&self) -> FlushPhase {
        self.phase
    }

    /// Retires a persist barrier: closes the ongoing epoch. Returns the
    /// closed epoch's id. The caller is responsible for back-pressure
    /// (checking [`EpochLedger::inflight`] first).
    pub fn barrier(&mut self) -> EpochId {
        self.ledger.close_current()
    }

    /// Splits the ongoing epoch for deadlock avoidance (§3.3): identical to
    /// a barrier, but counted separately. Returns the completed first half.
    pub fn split_current(&mut self) -> EpochId {
        self.splits.bump();
        self.ledger.close_current()
    }

    /// Number of deadlock-avoidance splits performed.
    pub fn split_count(&self) -> u64 {
        self.splits.get()
    }

    /// Requests that all epochs up to and including `epoch` be flushed.
    /// Idempotent; the goal only ratchets upward. Call
    /// [`Self::try_advance`] afterwards to collect actions.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is the ongoing epoch or later — only completed
    /// epochs can flush; conflicts with an ongoing epoch must first split
    /// or close it.
    pub fn request_flush_upto(&mut self, epoch: EpochId) {
        assert!(
            epoch < self.ledger.current(),
            "cannot flush ongoing epoch {epoch}"
        );
        self.goal = Some(match self.goal {
            Some(g) => g.max(epoch),
            None => epoch,
        });
    }

    /// Records an IDT dependence: local epoch `dependent` must wait for
    /// remote `source`.
    ///
    /// # Errors
    ///
    /// Propagates [`IdtOverflow`] (caller falls back to an online flush).
    ///
    /// # Panics
    ///
    /// Panics if `source` belongs to this core — intra-thread ordering is
    /// already enforced by in-order flushing.
    pub fn add_dependence(
        &mut self,
        dependent: EpochId,
        source: EpochTag,
    ) -> Result<(), IdtOverflow> {
        assert_ne!(source.core, self.core, "intra-core dependence is implicit");
        self.idt.add_dependence(dependent, source)
    }

    /// Records an inform-register entry: when local `source` persists,
    /// notify remote `dependent`.
    ///
    /// # Errors
    ///
    /// Propagates [`IdtOverflow`].
    pub fn add_inform(&mut self, source: EpochId, dependent: EpochTag) -> Result<(), IdtOverflow> {
        assert_ne!(dependent.core, self.core);
        self.idt.add_inform(source, dependent)
    }

    /// A remote source epoch persisted; releases matching dependence
    /// registers and resumes a stalled flush if possible.
    pub fn dependence_satisfied(&mut self, source: EpochTag) -> Vec<ArbiterAction> {
        self.release(source)
            .map(ArbiterAction::StartEpochFlush)
            .into_iter()
            .collect()
    }

    /// [`Self::dependence_satisfied`] without the allocation: the epoch
    /// whose flush starts, if any.
    pub(crate) fn release(&mut self, source: EpochTag) -> Option<EpochTag> {
        self.idt.satisfy(source);
        self.advance()
    }

    /// A bank acknowledged the current epoch flush (step ③).
    ///
    /// # Panics
    ///
    /// Panics if no flush is awaiting acks for `epoch` — a protocol bug.
    pub fn bank_ack(&mut self, epoch: EpochId) -> Vec<ArbiterAction> {
        let Some(tag) = self.ack(epoch) else {
            return Vec::new();
        };
        let mut actions = vec![
            ArbiterAction::BroadcastPersistCmp(tag),
            ArbiterAction::EpochPersisted(tag),
        ];
        actions.extend(self.advance().map(ArbiterAction::StartEpochFlush));
        actions
    }

    /// Counts one `BankAck`; on the last one the epoch persists (step ④)
    /// and its tag is returned. Does not start the next flush: call
    /// [`Self::advance`] for that.
    pub(crate) fn ack(&mut self, epoch: EpochId) -> Option<EpochTag> {
        let premature = bug::hit(InjectedBug::PrematureBankAck);
        if premature && self.phase != FlushPhase::AwaitingBankAcks(epoch) {
            // Stray late acks from a flush the bug already "completed".
            return None;
        }
        assert_eq!(
            self.phase,
            FlushPhase::AwaitingBankAcks(epoch),
            "unexpected BankAck for {epoch}"
        );
        self.acks += 1;
        let needed = if premature { 1 } else { self.num_banks };
        if self.acks < needed {
            return None;
        }
        self.ledger.mark_persisted(epoch);
        self.phase = FlushPhase::Idle;
        self.acks = 0;
        // The inform registers are freed; the PersistCMP broadcast is
        // what releases the dependents (it also covers inform overflow).
        self.idt.drain_inform(epoch);
        Some(EpochTag::new(self.core, epoch))
    }

    /// Attempts to start (or resume) flushing toward the goal. Returns the
    /// actions to execute; empty if nothing can proceed.
    pub fn try_advance(&mut self) -> Vec<ArbiterAction> {
        self.advance()
            .map(ArbiterAction::StartEpochFlush)
            .into_iter()
            .collect()
    }

    /// [`Self::try_advance`] without the allocation: the epoch whose flush
    /// starts, if any.
    pub(crate) fn advance(&mut self) -> Option<EpochTag> {
        if matches!(self.phase, FlushPhase::AwaitingBankAcks(_)) {
            return None;
        }
        let Some(goal) = self.goal else {
            self.phase = FlushPhase::Idle;
            return None;
        };
        let Some(next) = self.ledger.first_unpersisted() else {
            self.phase = FlushPhase::Idle;
            self.goal = None;
            return None;
        };
        if next > goal {
            // Everything requested has persisted.
            self.phase = FlushPhase::Idle;
            self.goal = None;
            return None;
        }
        match self.ledger.state(next) {
            EpochPhase::Ongoing => {
                // Goal points at (or beyond) the ongoing epoch; the caller
                // violated request_flush_upto's contract.
                unreachable!("flush goal {goal} reaches ongoing epoch {next}")
            }
            EpochPhase::Completed => {
                if !self.idt.is_clear(next) {
                    self.phase = FlushPhase::WaitingDeps(next);
                    return None;
                }
                self.ledger.begin_flush(next);
                self.phase = FlushPhase::AwaitingBankAcks(next);
                self.acks = 0;
                Some(EpochTag::new(self.core, next))
            }
            EpochPhase::Flushing | EpochPhase::Persisted => {
                unreachable!("frontier in impossible state")
            }
        }
    }

    /// True if `epoch` of this core has fully persisted.
    pub fn is_persisted(&self, epoch: EpochId) -> bool {
        self.ledger.is_persisted(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::small_test() // 4 banks
    }

    fn arbiter() -> EpochArbiter {
        EpochArbiter::new(CoreId::new(0), &cfg())
    }

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    #[test]
    fn idle_until_requested() {
        let mut a = arbiter();
        assert!(a.try_advance().is_empty());
        assert_eq!(a.phase(), FlushPhase::Idle);
    }

    #[test]
    fn full_flush_handshake() {
        let mut a = arbiter();
        let e0 = a.barrier();
        a.request_flush_upto(e0);
        let actions = a.try_advance();
        assert_eq!(actions, vec![ArbiterAction::StartEpochFlush(tag(0, 0))]);
        assert_eq!(a.phase(), FlushPhase::AwaitingBankAcks(e0));

        // 3 of 4 banks ack: nothing yet.
        for _ in 0..3 {
            assert!(a.bank_ack(e0).is_empty());
        }
        let done = a.bank_ack(e0);
        assert_eq!(
            done,
            vec![
                ArbiterAction::BroadcastPersistCmp(tag(0, 0)),
                ArbiterAction::EpochPersisted(tag(0, 0)),
            ]
        );
        assert!(a.is_persisted(e0));
        assert_eq!(a.phase(), FlushPhase::Idle);
    }

    #[test]
    fn sequential_epochs_chain_automatically() {
        let mut a = arbiter();
        let e0 = a.barrier();
        let e1 = a.barrier();
        a.request_flush_upto(e1);
        let first = a.try_advance();
        assert_eq!(first, vec![ArbiterAction::StartEpochFlush(tag(0, 0))]);
        for _ in 0..3 {
            a.bank_ack(e0);
        }
        let chained = a.bank_ack(e0);
        // Persist of e0 immediately starts the flush of e1.
        assert!(chained.contains(&ArbiterAction::StartEpochFlush(tag(0, 1))));
        assert_eq!(a.phase(), FlushPhase::AwaitingBankAcks(e1));
    }

    #[test]
    fn dependence_stalls_flush_until_satisfied() {
        let mut a = arbiter();
        let e0 = a.barrier();
        a.add_dependence(e0, tag(1, 3)).unwrap();
        a.request_flush_upto(e0);
        assert!(a.try_advance().is_empty());
        assert_eq!(a.phase(), FlushPhase::WaitingDeps(e0));
        // Remote epoch persists: flush resumes.
        let actions = a.dependence_satisfied(tag(1, 3));
        assert_eq!(actions, vec![ArbiterAction::StartEpochFlush(tag(0, 0))]);
    }

    #[test]
    fn unrelated_satisfaction_does_not_start_flush() {
        let mut a = arbiter();
        let e0 = a.barrier();
        a.add_dependence(e0, tag(1, 3)).unwrap();
        a.request_flush_upto(e0);
        a.try_advance();
        let actions = a.dependence_satisfied(tag(2, 9));
        assert!(actions.is_empty());
        assert_eq!(a.phase(), FlushPhase::WaitingDeps(e0));
    }

    #[test]
    fn inform_registers_notify_dependents_on_persist() {
        let mut a = arbiter();
        let e0 = a.barrier();
        a.add_inform(e0, tag(2, 5)).unwrap();
        assert_eq!(a.idt().recorded_count(), 1);
        a.request_flush_upto(e0);
        a.try_advance();
        for _ in 0..3 {
            a.bank_ack(e0);
        }
        // The dependent learns of the persist from the PersistCMP
        // broadcast, the same message every other arbiter sees...
        let done = a.bank_ack(e0);
        assert_eq!(
            done,
            vec![
                ArbiterAction::BroadcastPersistCmp(tag(0, 0)),
                ArbiterAction::EpochPersisted(tag(0, 0)),
            ]
        );
        // ...and the persist frees the epoch's inform registers.
        assert!(a.idt().clone().drain_inform(e0).is_empty());
    }

    #[test]
    fn goal_ratchets_upward() {
        let mut a = arbiter();
        let e0 = a.barrier();
        let e1 = a.barrier();
        a.request_flush_upto(e1);
        a.request_flush_upto(e0); // lower request must not shrink the goal
        a.try_advance();
        for _ in 0..4 {
            a.bank_ack(e0);
        }
        assert_eq!(a.phase(), FlushPhase::AwaitingBankAcks(e1));
    }

    #[test]
    fn inform_overflow_falls_back_to_broadcast_release() {
        // The source core's inform registers fill up, so one dependent
        // can never be notified point-to-point...
        let mut source = EpochArbiter::new(CoreId::new(1), &cfg()); // 4 pairs
        let e = source.barrier();
        for c in 2..6 {
            source.add_inform(e, tag(c, 0)).unwrap();
        }
        assert!(source.add_inform(e, tag(6, 0)).is_err());
        assert_eq!(source.idt().overflow_count(), 1);

        // ...but the dependent recorded the dependence on its own side,
        // and the PersistCmp *broadcast* (dependence_satisfied at every
        // arbiter) releases it without an inform entry.
        let mut dependent = EpochArbiter::new(CoreId::new(6), &cfg());
        let d0 = dependent.barrier();
        let src_tag = EpochTag::new(CoreId::new(1), e);
        dependent.add_dependence(d0, src_tag).unwrap();
        dependent.request_flush_upto(d0);
        assert!(
            dependent.try_advance().is_empty(),
            "flush stalls on the unsatisfied dependence"
        );
        let actions = dependent.dependence_satisfied(src_tag);
        assert_eq!(
            actions,
            vec![ArbiterAction::StartEpochFlush(tag(6, 0))],
            "broadcast release resumes the stalled flush"
        );
    }

    #[test]
    fn split_counts_separately() {
        let mut a = arbiter();
        let e = a.split_current();
        assert_eq!(e, EpochId::new(0));
        assert_eq!(a.split_count(), 1);
        assert_eq!(a.ledger().current(), EpochId::new(1));
    }

    #[test]
    #[should_panic(expected = "ongoing")]
    fn flushing_ongoing_epoch_panics() {
        let mut a = arbiter();
        let cur = a.ledger().current();
        a.request_flush_upto(cur);
    }

    #[test]
    #[should_panic(expected = "unexpected BankAck")]
    fn stray_bank_ack_panics() {
        let mut a = arbiter();
        let e0 = a.barrier();
        a.bank_ack(e0);
    }

    #[test]
    #[should_panic(expected = "intra-core")]
    fn intra_core_dependence_panics() {
        let mut a = arbiter();
        let e0 = a.barrier();
        let _ = a.add_dependence(e0, tag(0, 5));
    }

    #[test]
    fn overflow_surfaces_to_caller() {
        let mut a = arbiter();
        let e0 = a.barrier();
        for c in 1..=4 {
            a.add_dependence(e0, tag(c, 0)).unwrap();
        }
        assert!(a.add_dependence(e0, tag(5, 0)).is_err());
    }
}
