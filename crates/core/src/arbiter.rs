//! One core's epoch arbiter (§4.1, §4.2): the per-core record that
//! [`Protocol`](crate::Protocol) keeps for every core.

use crate::idt::IdtRegisters;
use crate::protocol::Step;
use crate::tally::Tally;
use pbm_types::bug::{self, InjectedBug};
use pbm_types::{EpochId, EpochTag, FlushReason, SystemConfig};
use std::collections::VecDeque;

/// One core's arbiter, the state the paper keeps in each L1 controller:
/// the epoch-id counter, the in-flight window, the `BankAck` count and
/// the IDT registers. It runs the multi-banked flush handshake of
/// Figure 8 — ① flush the epoch's L1 lines and broadcast `FlushEpoch`,
/// ② banks flush theirs, ③ each bank returns a `BankAck`, ④ `PersistCMP`
/// — for one epoch at a time, in program order, and holds an epoch's
/// flush until every IDT source recorded for it has persisted.
///
/// Every fact is stored once. Below `frontier` every epoch has persisted,
/// `current` is ongoing, the frontier is flushing while `acks` is set,
/// and every epoch in between is completed. The flush goal is the last
/// requested epoch, `frontier + reasons.len() − 1`, and the frontier
/// waits on its dependences exactly when it is requested, not flushing,
/// and its dependence registers are not clear.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Arbiter {
    /// The ongoing epoch (the epoch-id counter).
    current: EpochId,
    /// The oldest epoch that has not persisted.
    frontier: EpochId,
    /// `BankAck`s counted for the frontier's flush; `None` while the
    /// frontier is not flushing.
    acks: Option<usize>,
    /// Why each requested epoch is flushing: entry `k` is epoch
    /// `frontier + k`. Requests always cover a run from the frontier, so
    /// the ring is dense; it pops as the frontier persists.
    reasons: VecDeque<FlushReason>,
    /// The dependence and inform registers.
    pub(crate) idt: IdtRegisters,
    /// §3.3 splits performed.
    pub(crate) splits: Tally,
}

impl Arbiter {
    /// An idle arbiter with epoch 0 ongoing.
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        Arbiter {
            current: EpochId::FIRST,
            frontier: EpochId::FIRST,
            acks: None,
            reasons: VecDeque::with_capacity(cfg.inflight_epochs),
            idt: IdtRegisters::new(cfg.idt_pairs),
            splits: Tally::default(),
        }
    }

    /// The ongoing epoch.
    pub(crate) fn current(&self) -> EpochId {
        self.current
    }

    /// The oldest epoch that has not persisted.
    pub(crate) fn frontier(&self) -> EpochId {
        self.frontier
    }

    /// Closes the ongoing epoch and opens the next; returns the closed one.
    pub(crate) fn close(&mut self) -> EpochId {
        let closed = self.current;
        self.current = closed.next();
        closed
    }

    /// Unpersisted epochs, the ongoing one included: what the 3-bit epoch
    /// id must tell apart.
    pub(crate) fn inflight(&self) -> usize {
        (self.current.as_u64() - self.frontier.as_u64() + 1) as usize
    }

    /// Why the frontier epoch was requested.
    ///
    /// # Panics
    ///
    /// Panics if nothing is requested.
    pub(crate) fn frontier_reason(&self) -> FlushReason {
        self.reasons[0]
    }

    /// Requests the flush of every epoch up to `tag.epoch`, which has not
    /// persisted, attributing each newly requested epoch to `reason`.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is the ongoing epoch: only completed epochs can
    /// flush, so a dependence on an ongoing epoch must split it first.
    pub(crate) fn request(&mut self, tag: EpochTag, reason: FlushReason, out: &mut Vec<Step>) {
        assert!(
            tag.epoch < self.current,
            "cannot flush ongoing epoch {}",
            tag.epoch
        );
        for (k, e) in (self.frontier.as_u64()..=tag.epoch.as_u64()).enumerate() {
            match self.reasons.get_mut(k) {
                None => {
                    self.reasons.push_back(reason);
                    out.push(Step::Requested(
                        EpochTag::new(tag.core, EpochId::new(e)),
                        reason,
                    ));
                }
                // A conflict outranks any earlier attribution: if a
                // request had to wait for this epoch, its persist was
                // online no matter who started the flush (this is what
                // Figure 12 counts).
                Some(r) => {
                    if reason == FlushReason::Conflict {
                        *r = FlushReason::Conflict;
                    }
                }
            }
        }
    }

    /// The frontier, if its requested flush waits on IDT sources.
    pub(crate) fn waiting_on(&self) -> Option<EpochId> {
        let waiting =
            self.acks.is_none() && !self.reasons.is_empty() && !self.idt.is_clear(self.frontier);
        waiting.then_some(self.frontier)
    }

    /// Starts the frontier's flush if it is requested, no flush is under
    /// way and its dependences are clear; returns the epoch that starts.
    pub(crate) fn advance(&mut self) -> Option<EpochId> {
        if self.acks.is_some() || self.reasons.is_empty() || !self.idt.is_clear(self.frontier) {
            return None;
        }
        self.acks = Some(0);
        Some(self.frontier)
    }

    /// Counts one `BankAck` for `epoch` (step ③). On the last of `banks`
    /// the epoch persists: the frontier moves past it, its inform
    /// registers are freed (the `PersistCMP` broadcast is what releases
    /// the dependents, so inform overflow is harmless), and its flush
    /// reason is returned. Does not start the next flush.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is not flushing.
    pub(crate) fn ack(&mut self, epoch: EpochId, banks: usize) -> Option<FlushReason> {
        let premature = bug::hit(InjectedBug::PrematureBankAck);
        let Some(acks) = self.acks.filter(|_| self.frontier == epoch) else {
            // Only the injected bug sends these: the late acks of a flush
            // it already "completed".
            assert!(premature, "unexpected BankAck for {epoch}");
            return None;
        };
        let acks = acks + 1;
        let needed = if premature { 1 } else { banks };
        if acks < needed {
            self.acks = Some(acks);
            return None;
        }
        self.acks = None;
        self.frontier = epoch.next();
        self.idt.drain_inform(epoch);
        Some(
            self.reasons
                .pop_front()
                .expect("only requested epochs flush"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;
    use pbm_types::CoreId;

    const BANKS: usize = 4;

    fn arbiter() -> Arbiter {
        Arbiter::new(&SystemConfig::small_test()) // 4 IDT pairs
    }

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    /// Requests core 0's epochs up to `e` for `reason`.
    fn request(a: &mut Arbiter, e: u64, reason: FlushReason) {
        a.request(tag(0, e), reason, &mut Vec::new());
    }

    /// Delivers every bank's ack for `e`; returns the last one's result.
    fn ack_all(a: &mut Arbiter, e: EpochId) -> Option<FlushReason> {
        (0..BANKS).map(|_| a.ack(e, BANKS)).last().flatten()
    }

    #[test]
    fn idle_until_requested() {
        let mut a = arbiter();
        assert_eq!(
            (a.current, a.frontier, a.inflight()),
            (EpochId::FIRST, EpochId::FIRST, 1)
        );
        a.close();
        assert_eq!(a.advance(), None);
        assert_eq!(a.waiting_on(), None);
    }

    #[test]
    fn full_flush_handshake() {
        let mut a = arbiter();
        let e0 = a.close();
        let mut out = Vec::new();
        a.request(tag(0, 0), FlushReason::Drain, &mut out);
        assert_eq!(out, vec![Step::Requested(tag(0, 0), FlushReason::Drain)]);
        assert_eq!(a.advance(), Some(e0));
        assert_eq!(a.advance(), None, "one flush at a time");
        // 3 of 4 banks ack: nothing yet.
        for _ in 0..3 {
            assert_eq!(a.ack(e0, BANKS), None);
        }
        assert_eq!(a.ack(e0, BANKS), Some(FlushReason::Drain));
        assert_eq!(a.frontier, EpochId::new(1));
        assert_eq!(a.inflight(), 1);
        assert_eq!(a.advance(), None, "nothing else was requested");
    }

    #[test]
    fn sequential_epochs_chain_automatically() {
        let mut a = arbiter();
        let e0 = a.close();
        let e1 = a.close();
        request(&mut a, 1, FlushReason::Drain);
        assert_eq!(a.advance(), Some(e0));
        assert_eq!(ack_all(&mut a, e0), Some(FlushReason::Drain));
        // The persist of e0 lets e1 start.
        assert_eq!(a.advance(), Some(e1));
    }

    #[test]
    fn dependence_stalls_flush_until_satisfied() {
        let mut a = arbiter();
        let e0 = a.close();
        a.idt.add_dependence(e0, tag(1, 3)).unwrap();
        request(&mut a, 0, FlushReason::Conflict);
        assert_eq!(a.advance(), None);
        assert_eq!(a.waiting_on(), Some(e0));
        // The remote epoch persists: the flush resumes.
        a.idt.satisfy(tag(1, 3));
        assert_eq!(a.waiting_on(), None);
        assert_eq!(a.advance(), Some(e0));
    }

    #[test]
    fn unrelated_satisfaction_does_not_start_flush() {
        let mut a = arbiter();
        let e0 = a.close();
        a.idt.add_dependence(e0, tag(1, 3)).unwrap();
        request(&mut a, 0, FlushReason::Conflict);
        a.idt.satisfy(tag(2, 9));
        assert_eq!(a.advance(), None);
        assert_eq!(a.waiting_on(), Some(e0));
    }

    #[test]
    fn inform_registers_notify_dependents_on_persist() {
        let mut a = arbiter();
        let e0 = a.close();
        a.idt.add_inform(e0, tag(2, 5)).unwrap();
        assert_eq!(a.idt.recorded_count(), 1);
        request(&mut a, 0, FlushReason::Drain);
        a.advance();
        // The dependent learns of the persist from the PersistCMP
        // broadcast; the persist frees the epoch's inform registers.
        assert_eq!(ack_all(&mut a, e0), Some(FlushReason::Drain));
        assert!(a.idt.clone().drain_inform(e0).is_empty());
    }

    #[test]
    fn goal_ratchets_upward() {
        let mut a = arbiter();
        let e0 = a.close();
        let e1 = a.close();
        request(&mut a, 1, FlushReason::Drain);
        // A lower request must not shrink the goal, but a conflict
        // upgrades the attribution.
        request(&mut a, 0, FlushReason::Conflict);
        a.advance();
        assert_eq!(ack_all(&mut a, e0), Some(FlushReason::Conflict));
        assert_eq!(a.advance(), Some(e1));
        assert_eq!(ack_all(&mut a, e1), Some(FlushReason::Drain));
    }

    #[test]
    fn inform_overflow_falls_back_to_broadcast_release() {
        // The source core's inform registers fill up, so one dependent
        // can never be notified point-to-point...
        let mut source = arbiter();
        let e = source.close();
        for c in 2..6 {
            source.idt.add_inform(e, tag(c, 0)).unwrap();
        }
        assert!(source.idt.add_inform(e, tag(6, 0)).is_err());
        assert_eq!(source.idt.overflow_count(), 1);

        // ...but the dependent recorded the dependence on its own side,
        // and the PersistCMP broadcast releases it without an inform
        // entry.
        let mut dependent = arbiter();
        let d0 = dependent.close();
        let src = tag(1, e.as_u64());
        dependent.idt.add_dependence(d0, src).unwrap();
        dependent.request(tag(6, 0), FlushReason::Conflict, &mut Vec::new());
        assert_eq!(dependent.advance(), None, "stalls on the dependence");
        dependent.idt.satisfy(src);
        assert_eq!(dependent.advance(), Some(d0), "the broadcast resumes it");
    }

    #[test]
    fn split_counts_separately() {
        let mut cfg = SystemConfig::small_test();
        cfg.barrier = pbm_types::BarrierKind::LbIdt;
        let mut p = Protocol::new(&cfg);
        p.conflict(CoreId::new(1), tag(0, 0), &mut Vec::new());
        let mut stats = pbm_types::SimStats::default();
        p.add_counts(&mut stats);
        assert_eq!(stats.deadlock_splits, 1);
        assert_eq!(stats.epochs_created, 1, "the split closed epoch 0");
        assert_eq!(p.current_tag(CoreId::new(0)), tag(0, 1));
    }

    #[test]
    #[should_panic(expected = "ongoing")]
    fn flushing_ongoing_epoch_panics() {
        let mut a = arbiter();
        request(&mut a, 0, FlushReason::Drain);
    }

    #[test]
    #[should_panic(expected = "unexpected BankAck")]
    fn stray_bank_ack_panics() {
        let mut a = arbiter();
        let e0 = a.close();
        a.ack(e0, BANKS);
    }

    #[test]
    #[should_panic(expected = "intra-core")]
    fn intra_core_dependence_panics() {
        let mut p = Protocol::new(&SystemConfig::small_test());
        p.conflict(CoreId::new(0), tag(0, 0), &mut Vec::new());
    }

    #[test]
    fn overflow_surfaces_to_caller() {
        let mut a = arbiter();
        let e0 = a.close();
        for c in 1..=4 {
            a.idt.add_dependence(e0, tag(c, 0)).unwrap();
        }
        assert!(a.idt.add_dependence(e0, tag(5, 0)).is_err());
    }

    #[test]
    fn inflight_grows_until_persisted() {
        let mut a = arbiter();
        for _ in 0..7 {
            a.close();
        }
        assert_eq!(a.inflight(), 8);
        request(&mut a, 0, FlushReason::Drain);
        a.advance();
        ack_all(&mut a, EpochId::FIRST);
        assert_eq!(a.inflight(), 7);
    }
}
