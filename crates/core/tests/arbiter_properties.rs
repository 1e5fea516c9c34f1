//! Property tests of the epoch arbiter FSM: under random interleavings of
//! barriers, flush requests, bank acks and dependence traffic, the
//! arbiter must preserve the protocol invariants (in-order persists,
//! one-flush-at-a-time, dependences respected, no lost epochs).

use pbm_core::{ArbiterAction, EpochArbiter, FlushPhase};
use pbm_types::{CoreId, EpochId, EpochTag, SystemConfig};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Cmd {
    Barrier,
    RequestFlushAll,
    DeliverBankAck,
    AddDependence(u32, u64),
    SatisfyDependence(u32, u64),
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        2 => Just(Cmd::Barrier),
        2 => Just(Cmd::RequestFlushAll),
        6 => Just(Cmd::DeliverBankAck),
        1 => (1u32..4, 0u64..4).prop_map(|(c, e)| Cmd::AddDependence(c, e)),
        3 => (1u32..4, 0u64..4).prop_map(|(c, e)| Cmd::SatisfyDependence(c, e)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbiter_protocol_invariants(cmds in proptest::collection::vec(cmd_strategy(), 1..120)) {
        let cfg = SystemConfig::small_test(); // 4 banks
        let banks = cfg.llc_banks;
        let mut arb = EpochArbiter::new(CoreId::new(0), &cfg);
        // Flushes currently awaiting acks: (epoch, acks_delivered).
        let mut inflight: Option<(EpochId, usize)> = None;
        let mut persisted_order: Vec<EpochId> = Vec::new();
        let mut outstanding_deps: HashSet<EpochTag> = HashSet::new();

        let handle = |actions: Vec<ArbiterAction>,
                          inflight: &mut Option<(EpochId, usize)>,
                          persisted_order: &mut Vec<EpochId>| {
            for a in actions {
                match a {
                    ArbiterAction::StartEpochFlush(t) => {
                        assert!(inflight.is_none(), "two concurrent flushes");
                        *inflight = Some((t.epoch, 0));
                    }
                    ArbiterAction::EpochPersisted(t) => {
                        persisted_order.push(t.epoch);
                    }
                    ArbiterAction::BroadcastPersistCmp(_) => {}
                }
            }
        };

        for cmd in cmds {
            match cmd {
                Cmd::Barrier => {
                    if arb.ledger().inflight() < cfg.inflight_epochs {
                        arb.barrier();
                    }
                }
                Cmd::RequestFlushAll => {
                    if let Some(last) = arb.ledger().current().prev() {
                        if Some(last) >= arb.ledger().first_unpersisted() {
                            arb.request_flush_upto(last);
                            let acts = arb.try_advance();
                            handle(acts, &mut inflight, &mut persisted_order);
                        }
                    }
                }
                Cmd::DeliverBankAck => {
                    if let Some((e, n)) = inflight {
                        let acts = arb.bank_ack(e);
                        if n + 1 == banks {
                            inflight = None;
                            // the last ack may chain into the next flush
                        } else {
                            inflight = Some((e, n + 1));
                        }
                        handle(acts, &mut inflight, &mut persisted_order);
                    }
                }
                Cmd::AddDependence(c, e) => {
                    let source = EpochTag::new(CoreId::new(c), EpochId::new(e));
                    // Only record against the current (ongoing) epoch, as
                    // the simulator does at conflict detection.
                    let dep = arb.ledger().current();
                    if arb.add_dependence(dep, source).is_ok() {
                        outstanding_deps.insert(source);
                    }
                }
                Cmd::SatisfyDependence(c, e) => {
                    let source = EpochTag::new(CoreId::new(c), EpochId::new(e));
                    outstanding_deps.remove(&source);
                    let acts = arb.dependence_satisfied(source);
                    handle(acts, &mut inflight, &mut persisted_order);
                }
            }

            // Invariant: persists are in strict program order, gapless.
            for (i, e) in persisted_order.iter().enumerate() {
                prop_assert_eq!(*e, EpochId::new(i as u64));
            }
            // Invariant: a flush in AwaitingBankAcks targets the frontier.
            if let FlushPhase::AwaitingBankAcks(e) = arb.phase() {
                prop_assert_eq!(Some(e), arb.ledger().first_unpersisted());
            }
            // Invariant: WaitingDeps only with unsatisfied sources.
            if let FlushPhase::WaitingDeps(e) = arb.phase() {
                prop_assert!(!arb.idt().is_clear(e));
            }
            // Invariant: the in-flight window is bounded.
            prop_assert!(arb.ledger().inflight() <= cfg.inflight_epochs);
        }

        // Drain: satisfy everything, request all, deliver all acks. The
        // arbiter must reach quiescence with every completed epoch durable.
        for s in outstanding_deps.drain() {
            let acts = arb.dependence_satisfied(s);
            handle(acts, &mut inflight, &mut persisted_order);
        }
        if let Some(last) = arb.ledger().current().prev() {
            if Some(last) >= arb.ledger().first_unpersisted() {
                arb.request_flush_upto(last);
                let acts = arb.try_advance();
                handle(acts, &mut inflight, &mut persisted_order);
            }
        }
        let mut guard = 0;
        while let Some((e, _)) = inflight {
            let acts = arb.bank_ack(e);
            if let Some((e2, n)) = inflight {
                inflight = if n + 1 == banks { None } else { Some((e2, n + 1)) };
            }
            handle(acts, &mut inflight, &mut persisted_order);
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not converge");
        }
        prop_assert_eq!(arb.phase(), FlushPhase::Idle);
        prop_assert_eq!(
            persisted_order.len() as u64,
            arb.ledger().completed_count(),
            "every completed epoch must persist after the drain"
        );
    }
}
