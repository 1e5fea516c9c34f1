//! Epoch-deadlock avoidance (§3.3).
//!
//! A circular dependence between epochs can only arise when a request
//! creates an inter-thread dependence on an epoch that is still *ongoing*
//! (its closing barrier has not retired): a completed epoch has no pending
//! memory operations, so it can never acquire an inverse dependence. The
//! paper's rule is therefore: when a dependence lands on an ongoing source
//! epoch, split that epoch at the current point — the completed first half
//! becomes the dependence source, the remainder continues as a fresh epoch —
//! which conservatively removes any possibility of a cycle.

use pbm_types::EpochPhase;

/// What to do about a just-detected inter-thread dependence, given the
/// source epoch's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitDecision {
    /// The source epoch is completed: record the dependence as-is; no
    /// deadlock is possible.
    NoSplit,
    /// The source epoch is ongoing: split it first (the completed first
    /// half keeps the current id and becomes the dependence source), then
    /// record the dependence against that first half.
    SplitSource,
}

/// Applies the §3.3 rule: split exactly when the source epoch is ongoing.
///
/// # Panics
///
/// Panics if the source epoch already persisted or is mid-flush — a
/// persisted epoch's lines carry no tag, so no conflict can name it, and a
/// flushing epoch is by definition completed; either indicates a caller bug.
///
/// # Example
///
/// ```
/// use pbm_core::{split_decision, SplitDecision};
/// use pbm_types::EpochPhase;
/// assert_eq!(split_decision(EpochPhase::Ongoing), SplitDecision::SplitSource);
/// assert_eq!(split_decision(EpochPhase::Completed), SplitDecision::NoSplit);
/// ```
pub fn split_decision(source_state: EpochPhase) -> SplitDecision {
    match source_state {
        EpochPhase::Ongoing => SplitDecision::SplitSource,
        EpochPhase::Completed => SplitDecision::NoSplit,
        EpochPhase::Flushing => SplitDecision::NoSplit,
        EpochPhase::Persisted => {
            panic!("dependence on a persisted epoch: its lines cannot be tagged")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::HbGraph;
    use pbm_types::{CoreId, EpochId, EpochTag};

    #[test]
    fn ongoing_source_splits() {
        assert_eq!(
            split_decision(EpochPhase::Ongoing),
            SplitDecision::SplitSource
        );
    }

    #[test]
    fn completed_source_records_directly() {
        assert_eq!(
            split_decision(EpochPhase::Completed),
            SplitDecision::NoSplit
        );
        assert_eq!(split_decision(EpochPhase::Flushing), SplitDecision::NoSplit);
    }

    #[test]
    #[should_panic(expected = "persisted")]
    fn persisted_source_is_a_bug() {
        let _ = split_decision(EpochPhase::Persisted);
    }

    /// Drives the full §3.3 split sequence through the arbiter: a
    /// dependence landing on an *ongoing* epoch splits it, the completed
    /// first half becomes immediately flushable (it is the dependence
    /// source), the remainder continues as a fresh epoch, and the first
    /// half's persist broadcasts the `PersistCMP` that releases the
    /// dependent.
    #[test]
    fn split_path_through_the_arbiter() {
        use crate::arbiter::{ArbiterAction, EpochArbiter};
        use pbm_types::SystemConfig;

        let cfg = SystemConfig::small_test(); // 4 LLC banks
        let t0 = CoreId::new(0);
        let mut src = EpochArbiter::new(t0, &cfg);

        // A remote conflict names core 0's ongoing epoch: split first.
        assert_eq!(
            split_decision(EpochPhase::Ongoing),
            SplitDecision::SplitSource
        );
        let first_half = src.split_current();
        assert_eq!(src.split_count(), 1);
        assert!(
            src.ledger().current() > first_half,
            "the remainder continues as a fresh epoch"
        );

        // The dependence is recorded against the completed first half,
        // which is now a legal flush target (NoSplit on re-check).
        let dependent = EpochTag::new(CoreId::new(1), EpochId::new(0));
        src.add_inform(first_half, dependent).unwrap();
        assert_eq!(
            split_decision(src.ledger().state(first_half)),
            SplitDecision::NoSplit
        );
        src.request_flush_upto(first_half);
        let tag0 = EpochTag::new(t0, first_half);
        assert_eq!(
            src.try_advance(),
            vec![ArbiterAction::StartEpochFlush(tag0)]
        );

        // When the first half persists, the broadcast names it (the
        // dependent's release) and no register leaked onto the remainder
        // epoch.
        let mut last = Vec::new();
        for _ in 0..cfg.llc_banks {
            last = src.bank_ack(first_half);
        }
        assert!(last.contains(&ArbiterAction::BroadcastPersistCmp(tag0)));
        src.idt().assert_no_registers_above(first_half);
    }

    /// Reproduces Figure 5: two threads with a circular read pattern. With
    /// the split rule the dependence graph stays acyclic.
    #[test]
    fn figure5_cycle_is_broken_by_splitting() {
        let t0 = CoreId::new(0);
        let t1 = CoreId::new(1);
        let mut hb = HbGraph::new();

        // T1's Ld A hits T0's ongoing epoch Ei: §3.3 says split Ei into
        // Ei1 (completed, the source) and Ei2 (ongoing remainder).
        let ei1 = EpochTag::new(t0, EpochId::new(0));
        let ei2 = EpochTag::new(t0, EpochId::new(1));
        let ej = EpochTag::new(t1, EpochId::new(0));
        hb.add_program_order(ei1, ei2);
        hb.add_dependence(ei1, ej); // Ej depends on Ei1

        // T0's Ld X then hits T1's ongoing epoch Ej: the inverse
        // dependence now lands on T0's *remainder* epoch Ei2, not Ei1.
        hb.add_dependence(ej, ei2);

        assert!(hb.is_acyclic(), "splitting must break the Figure 5 cycle");

        // Without splitting, the same two dependences form a cycle.
        let mut naive = HbGraph::new();
        let ei = EpochTag::new(t0, EpochId::new(0));
        naive.add_dependence(ei, ej);
        naive.add_dependence(ej, ei);
        assert!(!naive.is_acyclic());
    }
}
