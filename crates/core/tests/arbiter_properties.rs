//! Property tests of the per-core epoch arbiters, driven through
//! [`Protocol`]: under random interleavings of barriers, blocked requests,
//! bank acks and inter-thread conflicts, every core's arbiter must keep
//! the protocol invariants (in-order persists, one flush at a time,
//! `PersistCMP` only after every bank acked, a bounded in-flight window,
//! dependences respected, no lost epochs).
//!
//! Conflicts only name *completed* source epochs, so no §3.3 split
//! happens here; `protocol_explore.rs` covers splits exhaustively.

use pbm_core::{Barrier, Protocol, Step};
use pbm_types::{BarrierKind, CoreId, EpochId, EpochTag, FlushReason, SystemConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Cmd {
    /// A persist barrier on a core.
    Barrier(u32),
    /// A core waits on its own last completed epoch.
    BlockOn(u32),
    /// Deliver one pending `BankAck` (the k-th flush in flight, mod their
    /// number).
    DeliverBankAck(usize),
    /// A core touches a line of another core's k-th completed,
    /// unpersisted epoch (mod their number).
    Conflict { requestor: u32, source: u32, k: u64 },
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        3 => (0u32..4).prop_map(Cmd::Barrier),
        1 => (0u32..4).prop_map(Cmd::BlockOn),
        6 => (0usize..4).prop_map(Cmd::DeliverBankAck),
        2 => (0u32..4, 1u32..4, 0u64..8).prop_map(|(requestor, d, k)| Cmd::Conflict {
            requestor,
            source: (requestor + d) % 4,
            k,
        }),
    ]
}

fn barrier_strategy() -> impl Strategy<Value = BarrierKind> {
    prop_oneof![
        Just(BarrierKind::Lb),
        Just(BarrierKind::LbIdt),
        Just(BarrierKind::LbPf),
        Just(BarrierKind::LbPp),
    ]
}

/// The environment around the protocol, and what it observed.
struct Model {
    protocol: Protocol,
    banks: usize,
    /// Flushes in flight: `BankAck`s delivered so far.
    flushing: BTreeMap<EpochTag, usize>,
    /// Epochs persisted so far, per core.
    persisted: Vec<u64>,
    /// The epoch each core waits on.
    parked: Vec<Option<EpochTag>>,
    /// Recorded IDT dependences `(source, dependent)`.
    deps: BTreeSet<(EpochTag, EpochTag)>,
}

impl Model {
    fn current(&self, c: u32) -> EpochId {
        self.protocol.current_tag(CoreId::new(c)).epoch
    }

    /// Checks and tracks the steps one protocol call emitted.
    fn observe(&mut self, steps: Vec<Step>) {
        for step in steps {
            match step {
                Step::Flush(tag, _) => {
                    let busy = self.flushing.keys().any(|t| t.core == tag.core);
                    prop_assert!(!busy, "two flushes in flight on {}", tag.core);
                    self.flushing.insert(tag, 0);
                }
                Step::PersistCmp(tag) => {
                    let acks = self.flushing.remove(&tag);
                    prop_assert_eq!(acks, Some(self.banks), "PersistCMP for {}", tag);
                }
                Step::Persisted(tag, _) => {
                    let next = &mut self.persisted[tag.core.index()];
                    prop_assert_eq!(tag.epoch.as_u64(), *next, "out-of-order persist");
                    *next += 1;
                    let early = self.deps.iter().find(|(s, d)| {
                        *d == tag && s.epoch.as_u64() >= self.persisted[s.core.index()]
                    });
                    prop_assert!(early.is_none(), "{} persisted before its source", tag);
                }
                Step::Wake(tag) => {
                    for p in &mut self.parked {
                        if *p == Some(tag) {
                            *p = None;
                        }
                    }
                }
                Step::IdtRecord(source, dependent) => {
                    self.deps.insert((source, dependent));
                }
                Step::Split(tag) => panic!("completed source {tag} split"),
                Step::Requested(..)
                | Step::Closed(_)
                | Step::Conflict(..)
                | Step::IdtOverflow(..) => {}
            }
        }
    }

    /// Parks core `c` on `tag` unless it already persisted.
    fn park(&mut self, c: u32, tag: EpochTag) {
        if !self.protocol.is_persisted(tag) {
            self.parked[c as usize] = Some(tag);
        }
    }

    /// Applies `cmd` if it is enabled; returns the steps it emitted.
    fn apply(&mut self, cmd: Cmd) -> Vec<Step> {
        let mut steps = Vec::new();
        match cmd {
            Cmd::Barrier(c) if self.parked[c as usize].is_none() => {
                if let Barrier::WindowFull(tag) = self.protocol.barrier(CoreId::new(c), &mut steps)
                {
                    self.park(c, tag);
                }
            }
            Cmd::BlockOn(c) if self.parked[c as usize].is_none() => {
                if let Some(last) = self.current(c).prev() {
                    let tag = EpochTag::new(CoreId::new(c), last);
                    if !self.protocol.is_persisted(tag) {
                        self.protocol
                            .block_on(tag, FlushReason::Eviction, &mut steps);
                        self.park(c, tag);
                    }
                }
            }
            Cmd::DeliverBankAck(k) if !self.flushing.is_empty() => {
                let k = k % self.flushing.len();
                let (&tag, acks) = self.flushing.iter_mut().nth(k).expect("in range");
                *acks += 1;
                self.protocol.bank_ack(tag.core, tag.epoch, &mut steps);
            }
            Cmd::Conflict {
                requestor,
                source,
                k,
            } if self.parked[requestor as usize].is_none() => {
                let first = self.persisted[source as usize];
                let completed = self.current(source).as_u64() - first;
                if completed > 0 {
                    let tag =
                        EpochTag::new(CoreId::new(source), EpochId::new(first + k % completed));
                    if !self
                        .protocol
                        .conflict(CoreId::new(requestor), tag, &mut steps)
                    {
                        self.park(requestor, tag);
                    }
                }
            }
            _ => {}
        }
        steps
    }

    /// The state invariants: no flush outlives its last ack, and every
    /// core stays within the epoch-id window.
    fn check_state(&self, window: usize) {
        for (tag, &acks) in &self.flushing {
            prop_assert!(
                acks < self.banks,
                "no PersistCMP for {} after every ack",
                tag
            );
        }
        for c in 0..self.persisted.len() as u32 {
            let inflight = self.current(c).as_u64() - self.persisted[c as usize] + 1;
            prop_assert!(
                inflight as usize <= window,
                "C{} holds {} epochs",
                c,
                inflight
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbiter_protocol_invariants(
        barrier in barrier_strategy(),
        cmds in proptest::collection::vec(cmd_strategy(), 1..120),
    ) {
        let mut cfg = SystemConfig::small_test(); // 4 cores, 4 banks, window 8, 4 IDT pairs
        cfg.barrier = barrier;
        let mut m = Model {
            protocol: Protocol::new(&cfg),
            banks: cfg.llc_banks,
            flushing: BTreeMap::new(),
            persisted: vec![0; cfg.cores],
            parked: vec![None; cfg.cores],
            deps: BTreeSet::new(),
        };
        for cmd in cmds {
            let steps = m.apply(cmd);
            m.observe(steps);
            m.check_state(cfg.inflight_epochs);
        }

        // Drain every core, then deliver every ack: the arbiters must reach
        // quiescence with every closed epoch durable.
        for c in 0..cfg.cores as u32 {
            let mut steps = Vec::new();
            m.protocol.drain(CoreId::new(c), false, &mut steps);
            m.observe(steps);
        }
        let mut guard = 0;
        while !m.flushing.is_empty() {
            let steps = m.apply(Cmd::DeliverBankAck(0));
            m.observe(steps);
            m.check_state(cfg.inflight_epochs);
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not converge");
        }
        for c in 0..cfg.cores as u32 {
            prop_assert_eq!(
                m.persisted[c as usize],
                m.current(c).as_u64(),
                "C{}: every closed epoch must persist after the drain",
                c
            );
        }
    }
}
