//! The cross-core flush protocol: every decision that involves more than
//! one core's arbiter (§3.3, §4.1, §4.2).
//!
//! [`Protocol`] owns one [`EpochArbiter`] per core plus the reason each
//! pending flush was requested. Its entry points are the events the
//! hardware reacts to — a barrier, an inter-thread conflict, a blocked
//! request, a `BankAck`, the final drain — and each one pushes the
//! resulting [`Step`]s into a caller-owned buffer, in the order the
//! hardware performs them. The timing layer (`pbm-sim`) executes the
//! steps; it makes no protocol decision of its own, so the simulator and
//! the exhaustive explorer in `tests/protocol_explore.rs` run the same
//! code.

use crate::arbiter::{EpochArbiter, FlushPhase};
use crate::deadlock::{split_decision, SplitDecision};
use crate::persistency::BarrierSemantics;
use pbm_types::bug::{self, InjectedBug};
use pbm_types::{CoreId, EpochId, EpochTag, FlushReason, SystemConfig};
use std::collections::VecDeque;

/// One unit of work the protocol hands to the timing layer, in the order
/// it must happen. Steps carry everything they need: the timing layer
/// never asks the protocol back while executing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// The first request to flush this epoch, and why (the causal anchor
    /// of its persist latency in traces).
    Requested(EpochTag, FlushReason),
    /// A persist barrier (or the final drain) closed this epoch and
    /// opened the next one on its core.
    Closed(EpochTag),
    /// §3.3: a dependence landed on this ongoing epoch, which was split;
    /// the tag now names the completed first half.
    Split(EpochTag),
    /// An inter-thread conflict `(source, dependent)`: the requestor's
    /// ongoing epoch touched a line of the source epoch.
    Conflict(EpochTag, EpochTag),
    /// IDT recorded the conflict's dependence `(source, dependent)`; the
    /// request proceeds.
    IdtRecord(EpochTag, EpochTag),
    /// The dependence registers were full for `(source, dependent)`: the
    /// request falls back to an online flush of the source.
    IdtOverflow(EpochTag, EpochTag),
    /// Steps ①–③ of Figure 8: flush the epoch's lines and collect one
    /// `BankAck` per LLC bank; the reason is the attribution so far.
    Flush(EpochTag, FlushReason),
    /// Step ④: every bank acked; broadcast `PersistCMP`.
    PersistCmp(EpochTag),
    /// The epoch is durable: clear its lines and account the persist to
    /// its final reason.
    Persisted(EpochTag, FlushReason),
    /// Wake every core parked on this epoch's persist.
    Wake(EpochTag),
}

/// What a persist barrier did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Barrier {
    /// The ongoing epoch closed; this is its id.
    Closed(EpochId),
    /// The 3-bit epoch-id window is full: the core must wait until this
    /// (frontier) epoch persists, whose flush has been requested.
    WindowFull(EpochTag),
}

/// The multi-core flush protocol: one [`EpochArbiter`] per core, the
/// pending flush reasons, and the decisions that span cores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Protocol {
    arbiters: Vec<EpochArbiter>,
    /// Per core, why each requested epoch is flushing: entry `k` is
    /// epoch `frontier + k`. Requests always cover a run from the
    /// frontier, so the ring is dense; it pops as the frontier persists.
    reasons: Vec<VecDeque<FlushReason>>,
    /// The barrier records IDT dependences instead of flushing online.
    idt: bool,
    /// Proactive flushing: completed epochs start persisting at once.
    pf: bool,
    /// A barrier waits for its epoch to persist (EP rule E2).
    barrier_stalls: bool,
    /// Distinguishable in-flight epochs per core (the 3-bit window).
    window: usize,
}

impl Protocol {
    /// The protocol for `cfg`: one idle arbiter per core, each with epoch
    /// 0 ongoing.
    pub fn new(cfg: &SystemConfig) -> Self {
        Protocol {
            arbiters: (0..cfg.cores)
                .map(|i| EpochArbiter::new(CoreId::new(i as u32), cfg))
                .collect(),
            reasons: (0..cfg.cores)
                .map(|_| VecDeque::with_capacity(cfg.inflight_epochs))
                .collect(),
            idt: cfg.barrier.has_idt(),
            pf: cfg.barrier.has_pf(),
            barrier_stalls: BarrierSemantics::for_model(cfg.persistency, cfg.bsp_epoch_size)
                .barrier_stalls(),
            window: cfg.inflight_epochs,
        }
    }

    /// Every core's arbiter, in core order.
    pub fn arbiters(&self) -> &[EpochArbiter] {
        &self.arbiters
    }

    /// True if `tag`'s epoch has fully persisted.
    pub fn is_persisted(&self, tag: EpochTag) -> bool {
        self.arbiters[tag.core.index()].is_persisted(tag.epoch)
    }

    /// The ongoing epoch of `core`.
    pub fn current_tag(&self, core: CoreId) -> EpochTag {
        self.arbiters[core.index()].ledger().current_tag()
    }

    /// A persist barrier retires on `core`. Applies back-pressure when the
    /// epoch-id window is full; otherwise closes the ongoing epoch and,
    /// under EP or PF, requests its flush.
    pub fn barrier(&mut self, core: CoreId, out: &mut Vec<Step>) -> Barrier {
        let ledger = self.arbiters[core.index()].ledger();
        if ledger.inflight() >= self.window {
            let frontier = ledger.first_unpersisted().expect("window full");
            let tag = EpochTag::new(core, frontier);
            self.request(tag, FlushReason::BackPressure, out);
            return Barrier::WindowFull(tag);
        }
        let closed = EpochTag::new(core, self.arbiters[core.index()].barrier());
        out.push(Step::Closed(closed));
        if self.barrier_stalls {
            self.request(closed, FlushReason::Barrier, out);
        } else if self.pf {
            self.request(closed, FlushReason::Proactive, out);
        }
        Barrier::Closed(closed.epoch)
    }

    /// An inter-thread conflict (§3.1): `requestor`'s ongoing epoch
    /// touched a line of `source`. Splits `source` if it is ongoing
    /// (§3.3), then records the dependence in the IDT registers when the
    /// barrier has them. Returns `true` if the request may proceed;
    /// `false` means `source`'s flush was requested and the requestor
    /// must wait for it.
    pub fn conflict(&mut self, requestor: CoreId, source: EpochTag, out: &mut Vec<Step>) -> bool {
        debug_assert_ne!(source.core, requestor);
        self.ensure_flushable(source, out);
        let dependent = self.current_tag(requestor);
        out.push(Step::Conflict(source, dependent));
        if self.idt {
            // Injected bug: pretend the dependence was recorded. The
            // IdtRecord step still journals the ground-truth requirement,
            // so the unenforced ordering shows up at some crash cycle.
            let dropped = bug::hit(InjectedBug::DropIdtEdge);
            if dropped
                || self.arbiters[requestor.index()]
                    .add_dependence(dependent.epoch, source)
                    .is_ok()
            {
                out.push(Step::IdtRecord(source, dependent));
                if !dropped {
                    // Inform-register side; its overflow is tolerable
                    // because the PersistCMP broadcast releases every
                    // dependent.
                    let _ = self.arbiters[source.core.index()].add_inform(source.epoch, dependent);
                }
                return true;
            }
            out.push(Step::IdtOverflow(source, dependent));
        }
        self.request(source, FlushReason::Conflict, out);
        false
    }

    /// A request must wait for `tag` to persist (an intra-thread conflict,
    /// or an eviction or writeback the epoch blocks): split `tag` if it is
    /// ongoing, then request its flush for `reason`.
    pub fn block_on(&mut self, tag: EpochTag, reason: FlushReason, out: &mut Vec<Step>) {
        self.ensure_flushable(tag, out);
        self.request(tag, reason, out);
    }

    /// One bank acknowledged `core`'s flush of `epoch` (step ③). On the
    /// last ack the epoch persists, and the steps come in this order:
    /// `PersistCMP` traffic, the persisted epoch's cleanup, every release
    /// the broadcast causes, the waiter wake-up, then this core's own next
    /// flush.
    pub fn bank_ack(&mut self, core: CoreId, epoch: EpochId, out: &mut Vec<Step>) {
        let i = core.index();
        if let Some(tag) = self.arbiters[i].ack(epoch) {
            // The arbiter moves on before the broadcast, so a release that
            // demands more of this core finds its next flush under way.
            let next = self.arbiters[i].advance();
            out.push(Step::PersistCmp(tag));
            let reason = self.reasons[i].pop_front().unwrap_or(FlushReason::Drain);
            out.push(Step::Persisted(tag, reason));
            // The PersistCMP broadcast: the one path that releases the
            // dependence registers naming this epoch, everywhere.
            for j in 0..self.arbiters.len() {
                if j != i {
                    let started = self.arbiters[j].release(tag);
                    self.start(started, out);
                    self.propagate(CoreId::new(j as u32), out);
                }
            }
            out.push(Step::Wake(tag));
            self.start(next, out);
        }
        // The next epoch of this core may have stalled on IDT sources;
        // make sure those sources are asked to flush.
        self.propagate(core, out);
    }

    /// The run is over on `core`: close its ongoing epoch if `close_current`
    /// (it dirtied lines), then request every completed epoch's flush.
    pub fn drain(&mut self, core: CoreId, close_current: bool, out: &mut Vec<Step>) {
        let i = core.index();
        if close_current {
            let closed = self.arbiters[i].barrier();
            out.push(Step::Closed(EpochTag::new(core, closed)));
        }
        if let Some(last) = self.arbiters[i].ledger().current().prev() {
            self.request(EpochTag::new(core, last), FlushReason::Drain, out);
        }
    }

    /// §3.3: if `tag` names an ongoing epoch, split it so the completed
    /// first half (which keeps the id) can flush. Under PF the first half
    /// starts persisting at once, like any completed epoch.
    fn ensure_flushable(&mut self, tag: EpochTag, out: &mut Vec<Step>) {
        if bug::hit(InjectedBug::SkipDeadlockSplit) {
            // Injected bug: leave the epoch unsplit. Flush requests then
            // name an ongoing epoch, which the arbiter rejects (panic), or
            // the run wedges; either way the harness flags it.
            return;
        }
        let arbiter = &mut self.arbiters[tag.core.index()];
        if split_decision(arbiter.ledger().state(tag.epoch)) == SplitDecision::SplitSource {
            arbiter.split_current();
            out.push(Step::Split(tag));
            if self.pf {
                self.request(tag, FlushReason::Proactive, out);
            }
        }
    }

    /// Requests that `tag.core` flush every epoch up to `tag.epoch`,
    /// attributing each newly requested epoch to `reason`, and drives its
    /// arbiter (and, transitively, every IDT source it waits on) as far as
    /// it can go.
    fn request(&mut self, tag: EpochTag, reason: FlushReason, out: &mut Vec<Step>) {
        let i = tag.core.index();
        let Some(frontier) = self.arbiters[i].ledger().first_unpersisted() else {
            return;
        };
        if tag.epoch < frontier {
            return; // already durable
        }
        for (k, e) in (frontier.as_u64()..=tag.epoch.as_u64()).enumerate() {
            match self.reasons[i].get_mut(k) {
                None => {
                    self.reasons[i].push_back(reason);
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
        self.arbiters[i].request_flush_upto(tag.epoch);
        let started = self.arbiters[i].advance();
        self.start(started, out);
        self.propagate(tag.core, out);
    }

    /// Pushes the flush of `started` (if any) with its reason as it
    /// stands now.
    fn start(&mut self, started: Option<EpochTag>, out: &mut Vec<Step>) {
        if let Some(tag) = started {
            let reason = self.reason(tag).unwrap_or(FlushReason::Drain);
            out.push(Step::Flush(tag, reason));
        }
    }

    /// Why `tag`'s epoch was requested, if it was.
    fn reason(&self, tag: EpochTag) -> Option<FlushReason> {
        let frontier = self.arbiters[tag.core.index()]
            .ledger()
            .first_unpersisted()?;
        let k = tag.epoch.as_u64().checked_sub(frontier.as_u64())?;
        self.reasons[tag.core.index()].get(k as usize).copied()
    }

    /// If `core`'s arbiter is stalled on IDT source epochs, demands that
    /// those sources flush too (transitively). Without this, a reactively
    /// flushed configuration (LB+IDT) could wait forever on a source
    /// nobody ever asked to flush.
    fn propagate(&mut self, core: CoreId, out: &mut Vec<Step>) {
        let i = core.index();
        let FlushPhase::WaitingDeps(e) = self.arbiters[i].phase() else {
            return;
        };
        let reason = self
            .reason(EpochTag::new(core, e))
            .unwrap_or(FlushReason::Conflict);
        // Indexed, not borrowed: the requests below re-enter `request`.
        // The source list cannot change meanwhile, since only a persist
        // (a `BankAck`) releases a register and only a conflict adds one.
        let mut k = 0;
        while let Some(&source) = self.arbiters[i].idt().sources_of(e).get(k) {
            self.request(source, reason, out);
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::BarrierKind;

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    fn protocol(barrier: BarrierKind) -> Protocol {
        let mut cfg = SystemConfig::small_test(); // 4 cores, 4 banks
        cfg.barrier = barrier;
        Protocol::new(&cfg)
    }

    fn ack_all(p: &mut Protocol, t: EpochTag, out: &mut Vec<Step>) {
        for _ in 0..4 {
            p.bank_ack(t.core, t.epoch, out);
        }
    }

    #[test]
    fn conflict_on_an_ongoing_epoch_splits_it_and_records_the_dependence() {
        let mut p = protocol(BarrierKind::LbIdt);
        let mut out = Vec::new();
        assert!(p.conflict(CoreId::new(1), tag(0, 0), &mut out));
        assert_eq!(
            out,
            vec![
                Step::Split(tag(0, 0)),
                Step::Conflict(tag(0, 0), tag(1, 0)),
                Step::IdtRecord(tag(0, 0), tag(1, 0)),
            ]
        );
        assert_eq!(p.current_tag(CoreId::new(0)), tag(0, 1));
    }

    #[test]
    fn lazy_barrier_without_idt_flushes_the_source_online() {
        let mut p = protocol(BarrierKind::Lb);
        let mut out = Vec::new();
        assert!(!p.conflict(CoreId::new(1), tag(0, 0), &mut out));
        assert_eq!(
            &out[2..],
            &[
                Step::Requested(tag(0, 0), FlushReason::Conflict),
                Step::Flush(tag(0, 0), FlushReason::Conflict),
            ]
        );
    }

    #[test]
    fn demand_follows_dependences_and_the_broadcast_releases_the_dependent() {
        let mut p = protocol(BarrierKind::LbIdt);
        let mut out = Vec::new();
        // Core 1's epoch 0 depends on core 0's (split) epoch 0.
        assert!(p.conflict(CoreId::new(1), tag(0, 0), &mut out));
        assert_eq!(
            p.barrier(CoreId::new(1), &mut out),
            Barrier::Closed(EpochId::new(0))
        );
        out.clear();
        // Draining core 1 demands its source first: only core 0 flushes.
        p.drain(CoreId::new(1), false, &mut out);
        let flushes: Vec<_> = out
            .iter()
            .filter_map(|s| match s {
                Step::Flush(tag, _) => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(flushes, vec![tag(0, 0)]);
        out.clear();
        // Core 0's persist broadcast releases core 1, whose flush starts
        // after the cleanup and before the wake-up.
        ack_all(&mut p, tag(0, 0), &mut out);
        assert_eq!(
            out,
            vec![
                Step::PersistCmp(tag(0, 0)),
                Step::Persisted(tag(0, 0), FlushReason::Drain),
                Step::Flush(tag(1, 0), FlushReason::Drain),
                Step::Wake(tag(0, 0)),
            ]
        );
    }

    #[test]
    fn full_window_back_pressures_the_barrier() {
        let mut cfg = SystemConfig::small_test();
        cfg.barrier = BarrierKind::Lb;
        cfg.inflight_epochs = 2;
        let mut p = Protocol::new(&cfg);
        let mut out = Vec::new();
        let c = CoreId::new(0);
        assert_eq!(p.barrier(c, &mut out), Barrier::Closed(EpochId::new(0)));
        assert_eq!(p.barrier(c, &mut out), Barrier::WindowFull(tag(0, 0)));
        assert!(out.contains(&Step::Flush(tag(0, 0), FlushReason::BackPressure)));
    }

    #[test]
    fn a_conflict_upgrades_an_earlier_attribution() {
        let mut p = protocol(BarrierKind::LbPf);
        let mut out = Vec::new();
        let c = CoreId::new(0);
        p.barrier(c, &mut out); // PF requests epoch 0 proactively
        p.block_on(tag(0, 0), FlushReason::Conflict, &mut out);
        out.clear();
        ack_all(&mut p, tag(0, 0), &mut out);
        assert!(out.contains(&Step::Persisted(tag(0, 0), FlushReason::Conflict)));
    }
}
