//! The cross-core flush protocol (§3.3, §4.1, §4.2).
//!
//! [`Protocol`] holds, per core, the arbiter record the paper puts in
//! each L1 controller (`arbiter.rs`: the epoch-id counter, the persisted
//! frontier, the `BankAck` count of the flush in progress, the requested
//! flushes with their reasons, and the IDT registers) and makes every
//! decision, including the ones that span cores. Its entry points are
//! the events the hardware reacts to — a barrier, an inter-thread
//! conflict, a blocked request, a `BankAck`, the final drain — and each
//! one pushes the resulting [`Step`]s into a caller-owned buffer, in the
//! order the hardware performs them. The timing layer (`pbm-sim`) executes the
//! steps; it makes no protocol decision of its own, so the simulator and
//! the exhaustive explorer in `tests/protocol_explore.rs` run the same
//! code.

use crate::arbiter::Arbiter;
use crate::persistency::BarrierSemantics;
use pbm_types::bug::{self, InjectedBug};
use pbm_types::{CoreId, EpochId, EpochTag, FlushReason, SimStats, SystemConfig};

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

/// The multi-core flush protocol: one arbiter per core and the decisions
/// that span cores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Protocol {
    cores: Vec<Arbiter>,
    /// `BankAck`s that complete a flush: one per LLC bank.
    banks: usize,
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
            cores: (0..cfg.cores).map(|_| Arbiter::new(cfg)).collect(),
            banks: cfg.llc_banks,
            idt: cfg.barrier.has_idt(),
            pf: cfg.barrier.has_pf(),
            barrier_stalls: BarrierSemantics::for_model(cfg.persistency, cfg.bsp_epoch_size)
                .barrier_stalls(),
            window: cfg.inflight_epochs,
        }
    }

    /// True if `tag`'s epoch has fully persisted.
    pub fn is_persisted(&self, tag: EpochTag) -> bool {
        tag.epoch < self.cores[tag.core.index()].frontier()
    }

    /// The ongoing epoch of `core`.
    pub fn current_tag(&self, core: CoreId) -> EpochTag {
        EpochTag::new(core, self.cores[core.index()].current())
    }

    /// For wedge diagnostics: `core`'s ongoing epoch, its oldest
    /// unpersisted epoch, and the IDT sources that epoch's requested flush
    /// waits on.
    pub fn diagnostics(&self, core: CoreId) -> (EpochId, EpochId, &[EpochTag]) {
        let arb = &self.cores[core.index()];
        let sources = arb.waiting_on().map_or(&[][..], |e| arb.idt.sources_of(e));
        (arb.current(), arb.frontier(), sources)
    }

    /// Adds every core's counts to `stats`: §3.3 splits, IDT dependences
    /// recorded and overflowed, and epochs created.
    pub fn add_counts(&self, stats: &mut SimStats) {
        for arb in &self.cores {
            stats.deadlock_splits += arb.splits.get();
            stats.idt_recorded += arb.idt.recorded_count();
            stats.idt_overflows += arb.idt.overflow_count();
            stats.epochs_created += arb.current().as_u64();
        }
    }

    /// A persist barrier retires on `core`. Applies back-pressure when the
    /// epoch-id window is full; otherwise closes the ongoing epoch and,
    /// under EP or PF, requests its flush.
    pub fn barrier(&mut self, core: CoreId, out: &mut Vec<Step>) -> Barrier {
        let arb = &mut self.cores[core.index()];
        if arb.inflight() >= self.window {
            let tag = EpochTag::new(core, arb.frontier());
            self.request(tag, FlushReason::BackPressure, out);
            return Barrier::WindowFull(tag);
        }
        let closed = EpochTag::new(core, arb.close());
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
    ///
    /// # Panics
    ///
    /// Panics if `source` is on `requestor` (in-order flushing already
    /// orders a core's own epochs) or has persisted.
    pub fn conflict(&mut self, requestor: CoreId, source: EpochTag, out: &mut Vec<Step>) -> bool {
        assert_ne!(source.core, requestor, "intra-core dependence is implicit");
        self.ensure_flushable(source, out);
        let dependent = self.current_tag(requestor);
        out.push(Step::Conflict(source, dependent));
        if self.idt {
            // Injected bug: pretend the dependence was recorded. The
            // IdtRecord step still journals the ground-truth requirement,
            // so the unenforced ordering shows up at some crash cycle.
            let dropped = bug::hit(InjectedBug::DropIdtEdge);
            if dropped
                || self.cores[requestor.index()]
                    .idt
                    .add_dependence(dependent.epoch, source)
                    .is_ok()
            {
                out.push(Step::IdtRecord(source, dependent));
                if !dropped {
                    // Inform-register side; its overflow is tolerable
                    // because the PersistCMP broadcast releases every
                    // dependent.
                    let _ = self.cores[source.core.index()]
                        .idt
                        .add_inform(source.epoch, dependent);
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
        if let Some(reason) = self.cores[i].ack(epoch, self.banks) {
            let tag = EpochTag::new(core, epoch);
            // The arbiter moves on before the broadcast, so a release that
            // demands more of this core finds its next flush under way.
            let next = self.cores[i].advance();
            out.push(Step::PersistCmp(tag));
            out.push(Step::Persisted(tag, reason));
            // The PersistCMP broadcast: the one path that releases the
            // dependence registers naming this epoch, everywhere.
            for j in (0..self.cores.len()).filter(|&j| j != i) {
                let other = CoreId::new(j as u32);
                self.cores[j].idt.satisfy(tag);
                let started = self.cores[j].advance();
                self.start(other, started, out);
                self.propagate(other, out);
            }
            out.push(Step::Wake(tag));
            self.start(core, next, out);
        }
        // The next epoch of this core may have stalled on IDT sources;
        // make sure those sources are asked to flush.
        self.propagate(core, out);
    }

    /// The run is over on `core`: close its ongoing epoch if `close_current`
    /// (it dirtied lines), then request every completed epoch's flush.
    pub fn drain(&mut self, core: CoreId, close_current: bool, out: &mut Vec<Step>) {
        let arb = &mut self.cores[core.index()];
        if close_current {
            out.push(Step::Closed(EpochTag::new(core, arb.close())));
        }
        if let Some(last) = arb.current().prev() {
            self.request(EpochTag::new(core, last), FlushReason::Drain, out);
        }
    }

    /// §3.3, epoch-deadlock avoidance. A circular dependence between
    /// epochs (Figure 5) can only arise when a dependence lands on an
    /// epoch that is still *ongoing* (its closing barrier has not
    /// retired): a completed epoch has no pending memory operations, so it
    /// can never acquire an inverse dependence. So when `tag` names the
    /// ongoing epoch, split it at the current point: the completed first
    /// half keeps the id and becomes the flushable source, and the
    /// remainder continues as a fresh epoch, which rules out any cycle.
    /// Under PF the first half starts persisting at once, like any
    /// completed epoch.
    ///
    /// # Panics
    ///
    /// Panics if `tag` has persisted: a persisted epoch's lines carry no
    /// tag, so no conflict can name it.
    fn ensure_flushable(&mut self, tag: EpochTag, out: &mut Vec<Step>) {
        if bug::hit(InjectedBug::SkipDeadlockSplit) {
            // Injected bug: leave the epoch unsplit. Flush requests then
            // name an ongoing epoch, which `request` rejects (panic), or
            // the run wedges; either way the harness flags it.
            return;
        }
        let arb = &mut self.cores[tag.core.index()];
        assert!(
            tag.epoch >= arb.frontier(),
            "dependence on persisted {tag}: its lines cannot be tagged"
        );
        if tag.epoch == arb.current() {
            arb.splits.bump();
            arb.close();
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
        let arb = &mut self.cores[tag.core.index()];
        if tag.epoch < arb.frontier() {
            return; // already durable
        }
        arb.request(tag, reason, out);
        let started = arb.advance();
        self.start(tag.core, started, out);
        self.propagate(tag.core, out);
    }

    /// Pushes the flush of `core`'s `started` epoch (if any) with its
    /// reason as it stands now.
    fn start(&mut self, core: CoreId, started: Option<EpochId>, out: &mut Vec<Step>) {
        if let Some(epoch) = started {
            let reason = self.cores[core.index()].frontier_reason();
            out.push(Step::Flush(EpochTag::new(core, epoch), reason));
        }
    }

    /// If `core`'s frontier is stalled on IDT source epochs, demands that
    /// those sources flush too (transitively). Without this, a reactively
    /// flushed configuration (LB+IDT) could wait forever on a source
    /// nobody ever asked to flush.
    fn propagate(&mut self, core: CoreId, out: &mut Vec<Step>) {
        let arb = &self.cores[core.index()];
        let Some(e) = arb.waiting_on() else {
            return;
        };
        let reason = arb.frontier_reason();
        // Indexed, not borrowed: the requests below re-enter `request`.
        // The source list cannot change meanwhile, since only a persist
        // (a `BankAck`) releases a register and only a conflict adds one.
        let mut k = 0;
        while let Some(&source) = self.cores[core.index()].idt.sources_of(e).get(k) {
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
        let mut stats = SimStats::default();
        p.add_counts(&mut stats);
        assert_eq!(stats.deadlock_splits, 1);
        assert_eq!(stats.idt_recorded, 2, "a dependence and an inform entry");
        assert_eq!(stats.epochs_created, 1);
    }

    #[test]
    fn a_lazy_barrier_only_closes_the_epoch() {
        let mut p = protocol(BarrierKind::Lb);
        let mut out = Vec::new();
        let c = CoreId::new(0);
        assert_eq!(p.current_tag(c), tag(0, 0));
        assert!(!p.is_persisted(tag(0, 0)));
        assert_eq!(p.barrier(c, &mut out), Barrier::Closed(EpochId::new(0)));
        assert_eq!(out, vec![Step::Closed(tag(0, 0))], "no flush requested");
        assert_eq!(p.current_tag(c), tag(0, 1));
        assert_eq!(
            p.diagnostics(c),
            (EpochId::new(1), EpochId::new(0), &[][..])
        );
    }

    #[test]
    fn a_persist_chains_into_the_next_requested_flush() {
        let mut p = protocol(BarrierKind::Lb);
        let mut out = Vec::new();
        let c = CoreId::new(0);
        p.barrier(c, &mut out);
        p.barrier(c, &mut out);
        out.clear();
        p.drain(c, false, &mut out);
        // A lower request does not shrink the goal.
        p.block_on(tag(0, 0), FlushReason::Eviction, &mut out);
        assert_eq!(
            out,
            vec![
                Step::Requested(tag(0, 0), FlushReason::Drain),
                Step::Requested(tag(0, 1), FlushReason::Drain),
                Step::Flush(tag(0, 0), FlushReason::Drain),
            ]
        );
        out.clear();
        for _ in 0..3 {
            p.bank_ack(c, EpochId::new(0), &mut out);
        }
        assert!(out.is_empty(), "three of four banks acked");
        p.bank_ack(c, EpochId::new(0), &mut out);
        assert_eq!(
            out,
            vec![
                Step::PersistCmp(tag(0, 0)),
                Step::Persisted(tag(0, 0), FlushReason::Drain),
                Step::Wake(tag(0, 0)),
                Step::Flush(tag(0, 1), FlushReason::Drain),
            ]
        );
        assert!(p.is_persisted(tag(0, 0)));
    }

    #[test]
    fn a_waiting_flush_reports_its_sources() {
        let mut p = protocol(BarrierKind::LbIdt);
        let mut out = Vec::new();
        let c1 = CoreId::new(1);
        p.barrier(CoreId::new(0), &mut out);
        assert!(p.conflict(c1, tag(0, 0), &mut out));
        p.barrier(c1, &mut out);
        p.block_on(tag(1, 0), FlushReason::Eviction, &mut out);
        assert_eq!(
            p.diagnostics(c1),
            (EpochId::new(1), EpochId::new(0), &[tag(0, 0)][..])
        );
    }

    #[test]
    #[should_panic(expected = "cannot be tagged")]
    fn a_dependence_on_a_persisted_epoch_panics() {
        let mut p = protocol(BarrierKind::Lb);
        let mut out = Vec::new();
        p.barrier(CoreId::new(0), &mut out);
        p.block_on(tag(0, 0), FlushReason::Eviction, &mut out);
        ack_all(&mut p, tag(0, 0), &mut out);
        p.conflict(CoreId::new(1), tag(0, 0), &mut out);
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
