//! Per-core epoch lifecycle tracking.

use pbm_types::{CoreId, EpochId, EpochPhase, EpochTag};

/// The per-core epoch ledger: tracks the ongoing epoch, the persisted
/// frontier, and whether the frontier is being flushed.
///
/// Mirrors the hardware's per-core epoch-ID counter plus the in-flight
/// epoch window: the 3-bit architectural epoch id supports
/// [`inflight`](Self::inflight) ≤ 8 distinguishable epochs; exceeding the
/// window must back-pressure the core (checked by the caller via
/// [`Self::inflight`]).
///
/// Epochs persist in order, one at a time, so every epoch's state follows
/// from three values: below the frontier is persisted, `current` is
/// ongoing, the frontier is flushing while `flushing` is set, and every
/// other epoch in between is completed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EpochLedger {
    core: CoreId,
    current: EpochId,
    /// Oldest epoch that is not yet persisted. Everything below is
    /// persisted.
    frontier: EpochId,
    /// The frontier epoch's flush is in progress.
    flushing: bool,
}

impl EpochLedger {
    /// Creates a ledger for `core`, with epoch 0 ongoing.
    pub fn new(core: CoreId) -> Self {
        EpochLedger {
            core,
            current: EpochId::FIRST,
            frontier: EpochId::FIRST,
            flushing: false,
        }
    }

    /// The core this ledger belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The ongoing epoch's id.
    pub fn current(&self) -> EpochId {
        self.current
    }

    /// The ongoing epoch's tag.
    pub fn current_tag(&self) -> EpochTag {
        EpochTag::new(self.core, self.current)
    }

    /// Oldest un-persisted epoch, or `None` if everything (except the
    /// ongoing epoch) has persisted and the ongoing epoch is the frontier.
    pub fn first_unpersisted(&self) -> Option<EpochId> {
        if self.frontier <= self.current {
            Some(self.frontier)
        } else {
            None
        }
    }

    /// State of an epoch (past epochs report `Persisted`, future ones
    /// panic — asking about an epoch that doesn't exist is a logic bug).
    ///
    /// # Panics
    ///
    /// Panics if `epoch > self.current()`.
    pub fn state(&self, epoch: EpochId) -> EpochPhase {
        assert!(epoch <= self.current, "epoch {epoch} not yet created");
        if epoch < self.frontier {
            EpochPhase::Persisted
        } else if epoch == self.current {
            EpochPhase::Ongoing
        } else if epoch == self.frontier && self.flushing {
            EpochPhase::Flushing
        } else {
            EpochPhase::Completed
        }
    }

    /// True if `epoch` has fully persisted.
    pub fn is_persisted(&self, epoch: EpochId) -> bool {
        epoch < self.frontier
    }

    /// Number of distinguishable in-flight epochs (un-persisted, including
    /// the ongoing one). Hardware bound: `SystemConfig::inflight_epochs`.
    pub fn inflight(&self) -> usize {
        (self.current.as_u64() - self.frontier.as_u64() + 1) as usize
    }

    /// Closes the ongoing epoch (persist-barrier retirement) and opens the
    /// next. Returns the id of the epoch just completed.
    pub fn close_current(&mut self) -> EpochId {
        let closed = self.current;
        self.current = closed.next();
        closed
    }

    /// Marks `epoch` as being flushed.
    ///
    /// # Panics
    ///
    /// Panics if the epoch is not the flush frontier or not `Completed` —
    /// the arbiter flushes strictly in order, one epoch at a time.
    pub fn begin_flush(&mut self, epoch: EpochId) {
        assert_eq!(
            Some(epoch),
            self.first_unpersisted(),
            "flush must start at the frontier"
        );
        assert_eq!(
            self.state(epoch),
            EpochPhase::Completed,
            "only completed epochs can flush"
        );
        self.flushing = true;
    }

    /// Marks `epoch` fully persisted and advances the frontier.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is not the frontier or was never `Flushing`.
    pub fn mark_persisted(&mut self, epoch: EpochId) {
        assert_eq!(Some(epoch), self.first_unpersisted());
        assert_eq!(self.state(epoch), EpochPhase::Flushing);
        self.flushing = false;
        self.frontier = epoch.next();
    }

    /// Epochs completed (closed) so far: every epoch below the ongoing
    /// one.
    pub fn completed_count(&self) -> u64 {
        self.current.as_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> EpochLedger {
        EpochLedger::new(CoreId::new(0))
    }

    #[test]
    fn initial_state() {
        let l = ledger();
        assert_eq!(l.current(), EpochId::FIRST);
        assert_eq!(l.state(EpochId::FIRST), EpochPhase::Ongoing);
        assert_eq!(l.inflight(), 1);
        assert_eq!(l.first_unpersisted(), Some(EpochId::FIRST));
        assert!(!l.is_persisted(EpochId::FIRST));
    }

    #[test]
    fn barrier_closes_and_opens() {
        let mut l = ledger();
        let closed = l.close_current();
        assert_eq!(closed, EpochId::new(0));
        assert_eq!(l.current(), EpochId::new(1));
        assert_eq!(l.state(EpochId::new(0)), EpochPhase::Completed);
        assert_eq!(l.state(EpochId::new(1)), EpochPhase::Ongoing);
        assert_eq!(l.inflight(), 2);
        assert_eq!(l.completed_count(), 1);
    }

    #[test]
    fn full_lifecycle() {
        let mut l = ledger();
        let e = l.close_current();
        l.begin_flush(e);
        assert_eq!(l.state(e), EpochPhase::Flushing);
        l.mark_persisted(e);
        assert_eq!(l.state(e), EpochPhase::Persisted);
        assert!(l.is_persisted(e));
        assert_eq!(l.inflight(), 1);
        assert_eq!(l.first_unpersisted(), Some(EpochId::new(1)));
    }

    #[test]
    fn inflight_grows_until_persisted() {
        let mut l = ledger();
        for _ in 0..7 {
            l.close_current();
        }
        assert_eq!(l.inflight(), 8);
        let e0 = EpochId::new(0);
        l.begin_flush(e0);
        l.mark_persisted(e0);
        assert_eq!(l.inflight(), 7);
    }

    #[test]
    fn unpersisted_completed_excludes_ongoing() {
        let mut l = ledger();
        l.close_current();
        l.close_current();
        assert_eq!(l.state(EpochId::new(0)), EpochPhase::Completed);
        assert_eq!(l.state(EpochId::new(1)), EpochPhase::Completed);
        assert_eq!(l.state(EpochId::new(2)), EpochPhase::Ongoing);
        assert_eq!(l.first_unpersisted(), Some(EpochId::new(0)));
    }

    #[test]
    #[should_panic(expected = "frontier")]
    fn out_of_order_flush_panics() {
        let mut l = ledger();
        l.close_current();
        l.close_current();
        l.begin_flush(EpochId::new(1)); // frontier is 0
    }

    #[test]
    #[should_panic(expected = "only completed")]
    fn flushing_ongoing_epoch_panics() {
        let mut l = ledger();
        l.begin_flush(EpochId::new(0)); // epoch 0 is still ongoing
    }

    #[test]
    #[should_panic(expected = "not yet created")]
    fn querying_future_epoch_panics() {
        let l = ledger();
        let _ = l.state(EpochId::new(5));
    }

    #[test]
    fn current_tag_carries_core() {
        let l = EpochLedger::new(CoreId::new(7));
        assert_eq!(
            l.current_tag(),
            EpochTag::new(CoreId::new(7), EpochId::new(0))
        );
    }
}
