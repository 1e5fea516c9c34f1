//! One core's epoch lifecycle, ongoing → completed → flushing →
//! persisted, as the per-core record and [`Protocol`] carry it. The
//! record keeps no per-epoch state: an epoch's phase follows from the
//! ongoing epoch, the persisted frontier and whether the frontier is
//! flushing, so these tests check the phases through what the protocol
//! reports.

use crate::arbiter::Arbiter;
use crate::{Barrier, Protocol, Step};
use pbm_types::{BarrierKind, CoreId, EpochId, EpochTag, FlushReason, SystemConfig};

fn tag(c: u32, e: u64) -> EpochTag {
    EpochTag::new(CoreId::new(c), EpochId::new(e))
}

fn protocol(barrier: BarrierKind) -> Protocol {
    let mut cfg = SystemConfig::small_test(); // 4 cores, 4 banks
    cfg.barrier = barrier;
    Protocol::new(&cfg)
}

mod tests {
    use super::*;

    #[test]
    fn initial_state() {
        let p = protocol(BarrierKind::Lb);
        for c in 0..4 {
            let core = CoreId::new(c);
            // Epoch 0 is ongoing and is the frontier: nothing has
            // persisted, nothing is requested, nothing is waited on.
            assert_eq!(p.current_tag(core), tag(c, 0));
            assert!(!p.is_persisted(tag(c, 0)));
            assert_eq!(
                p.diagnostics(core),
                (EpochId::FIRST, EpochId::FIRST, &[][..])
            );
        }
        let mut stats = pbm_types::SimStats::default();
        p.add_counts(&mut stats);
        assert_eq!(stats.epochs_created, 0);
    }

    #[test]
    fn full_lifecycle() {
        // Under PF the barrier that completes an epoch also starts its
        // flush; the last BankAck persists it.
        let mut p = protocol(BarrierKind::LbPf);
        let c = CoreId::new(0);
        let mut out = Vec::new();
        assert_eq!(p.barrier(c, &mut out), Barrier::Closed(EpochId::FIRST));
        assert_eq!(
            out,
            vec![
                Step::Closed(tag(0, 0)),
                Step::Requested(tag(0, 0), FlushReason::Proactive),
                Step::Flush(tag(0, 0), FlushReason::Proactive),
            ]
        );
        assert_eq!(p.current_tag(c), tag(0, 1));
        out.clear();
        for _ in 0..3 {
            p.bank_ack(c, EpochId::FIRST, &mut out);
        }
        assert!(out.is_empty(), "still flushing after three of four acks");
        assert!(!p.is_persisted(tag(0, 0)));
        p.bank_ack(c, EpochId::FIRST, &mut out);
        assert_eq!(
            out,
            vec![
                Step::PersistCmp(tag(0, 0)),
                Step::Persisted(tag(0, 0), FlushReason::Proactive),
                Step::Wake(tag(0, 0)),
            ]
        );
        assert!(p.is_persisted(tag(0, 0)));
        assert!(!p.is_persisted(tag(0, 1)));
        assert_eq!(
            p.diagnostics(c),
            (EpochId::new(1), EpochId::new(1), &[][..])
        );
    }

    #[test]
    #[should_panic(expected = "cannot flush ongoing epoch E1")]
    fn flushing_ongoing_epoch_panics() {
        // The epoch a barrier opens is ongoing until the next barrier.
        let mut a = Arbiter::new(&SystemConfig::small_test());
        a.close();
        a.request(tag(0, 1), FlushReason::Drain, &mut Vec::new());
    }
}
