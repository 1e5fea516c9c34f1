//! Epoch-flush orchestration: executing arbiter actions against the timing
//! model (the Figure 8 handshake), persist bookkeeping, and wakeups.

use crate::event::Event;
use crate::system::System;
use pbm_core::ArbiterAction;
use pbm_noc::MessageClass;
use pbm_types::{
    BankId, CoreId, EpochId, EpochTag, FlushMode, FlushReason, LineAddr, McId, NodeId,
};

impl System {
    pub(crate) fn node_core(core: CoreId) -> NodeId {
        NodeId::Core(core)
    }

    pub(crate) fn node_bank(bank: BankId) -> NodeId {
        NodeId::Bank(bank)
    }

    /// The memory controller owning `line`. Decorrelated from the bank
    /// interleaving (which consumes the low bits) so one bank's flush
    /// traffic spreads across controllers.
    pub(crate) fn mc_of(&self, line: LineAddr) -> McId {
        let shift = (self.cfg.llc_banks as u64).trailing_zeros();
        McId::new(((line.as_u64() >> shift) % self.cfg.mcs as u64) as u32)
    }

    /// Requests that `core` flush all epochs up to `upto` (inclusive),
    /// attributing not-yet-attributed epochs to `reason`, and drives the
    /// arbiter as far as it can go.
    pub(crate) fn request_flush(&mut self, core: CoreId, upto: EpochId, reason: FlushReason) {
        let i = core.index();
        let Some(frontier) = self.arbiters[i].ledger().first_unpersisted() else {
            return;
        };
        if upto < frontier {
            return; // already durable
        }
        for e in frontier.as_u64()..=upto.as_u64() {
            // A conflict outranks any earlier attribution: if a request had
            // to wait for this epoch, its persist was online no matter who
            // started the flush (this is what Figure 12 counts).
            let epoch = EpochId::new(e);
            if self.obs.is_enabled() && !self.flush_reasons[i].contains_key(&epoch) {
                // First request for this epoch: the causal anchor of its
                // end-to-end persist latency in exported traces.
                self.emit(pbm_types::TraceEventKind::FlushRequested {
                    tag: EpochTag::new(core, epoch),
                    reason,
                });
            }
            self.flush_reasons[i]
                .entry(epoch)
                .and_modify(|r| {
                    if reason == FlushReason::Conflict {
                        *r = FlushReason::Conflict;
                    }
                })
                .or_insert(reason);
        }
        self.arbiters[i].request_flush_upto(upto);
        let actions = self.arbiters[i].try_advance();
        self.apply_actions(core, actions);
        self.propagate_dependence_demand(core);
    }

    /// If `core`'s arbiter is stalled waiting on IDT source epochs, demand
    /// that those sources flush too (transitively). Without this, a
    /// reactively-flushed configuration (LB+IDT) could wait forever on a
    /// source nobody ever asked to flush.
    pub(crate) fn propagate_dependence_demand(&mut self, core: CoreId) {
        let i = core.index();
        let pbm_core::FlushPhase::WaitingDeps(e) = self.arbiters[i].phase() else {
            return;
        };
        // Pooled buffer: `request_flush` recurses back into this function,
        // so a single scratch vector would not survive the reentrancy.
        let mut sources = self.take_tag_buf();
        sources.extend_from_slice(self.arbiters[i].idt().sources_of(e));
        let reason = self.flush_reasons[i]
            .get(&e)
            .copied()
            .unwrap_or(FlushReason::Conflict);
        for &s in &sources {
            self.request_flush(s.core, s.epoch, reason);
        }
        self.put_tag_buf(sources);
    }

    /// Executes a batch of arbiter actions for `core`'s arbiter.
    pub(crate) fn apply_actions(&mut self, core: CoreId, actions: Vec<ArbiterAction>) {
        for action in actions {
            match action {
                ArbiterAction::StartEpochFlush(tag) => self.start_epoch_flush(tag),
                ArbiterAction::BroadcastPersistCmp(tag) => {
                    // Step 4 of the handshake: control broadcast to every
                    // bank (traffic only; bank state is implicit because the
                    // arbiter serializes this core's epoch flushes).
                    let now = self.now;
                    for b in 0..self.cfg.llc_banks {
                        self.send_msg(
                            Self::node_core(tag.core),
                            Self::node_bank(BankId::new(b as u32)),
                            MessageClass::Control,
                            now,
                        );
                    }
                }
                ArbiterAction::NotifyDependent { source, dependent } => {
                    let j = dependent.core.index();
                    let acts = self.arbiters[j].dependence_satisfied(source);
                    self.apply_actions(dependent.core, acts);
                    self.propagate_dependence_demand(dependent.core);
                }
                ArbiterAction::EpochPersisted(tag) => self.on_epoch_persisted(tag),
            }
        }
        let _ = core;
    }

    /// Step 1–3 of the Figure 8 handshake, computed as a timed cascade:
    /// L1 writebacks + `FlushEpoch` broadcast, per-bank `FlushLines` to the
    /// controllers with `PersistAck`s, and a scheduled `BankAck` per bank.
    fn start_epoch_flush(&mut self, tag: EpochTag) {
        let core = tag.core;
        let i = core.index();
        let t0 = self.now;
        let nbanks = self.cfg.llc_banks;
        self.flush_started.insert(tag, t0);
        if self.obs.is_enabled() {
            let reason = self.flush_reasons[i]
                .get(&tag.epoch)
                .copied()
                .unwrap_or(FlushReason::Drain);
            self.emit(pbm_types::TraceEventKind::FlushEpoch { tag, reason });
            self.emit(pbm_types::TraceEventKind::EpochPhase {
                tag,
                phase: pbm_types::EpochPhase::Flushing,
            });
        }

        // BSP: checkpoint the processor state alongside the epoch.
        let mut chk_done = t0;
        if self.sem.needs_checkpoint() {
            let lines = pbm_core::CheckpointModel::new(self.cfg.checkpoint_bytes).lines_per_epoch();
            for k in 0..lines {
                let mc = McId::new((k % self.cfg.mcs as u64) as u32);
                let t_mc = self.send_msg(
                    Self::node_core(core),
                    NodeId::Mc(mc),
                    MessageClass::Writeback,
                    t0,
                );
                let done = self.mcs[mc.index()].schedule_write(t_mc);
                self.stats.checkpoint_writes += 1;
                let t_ack = self.send_msg(
                    NodeId::Mc(mc),
                    Self::node_core(core),
                    MessageClass::Control,
                    done,
                );
                chk_done = chk_done.max(t_ack);
            }
        }

        // Gather the epoch's lines per bank: the L1-resident ones are
        // written back (value snapshot) and any resident LLC copy's value
        // is refreshed; the LLC-resident ones (evicted from L1 earlier)
        // join directly. Tags are NOT cleared here: a line stays
        // conflict-visible until the epoch has fully persisted — requests
        // that touch it meanwhile wait online (or record an IDT
        // dependence), exactly the window Figure 12 measures.
        //
        // All temporaries come from the per-system scratch so the flush
        // path does no steady-state allocation. `l1_lines` is in address
        // order (the epoch index is a sorted set), so a binary search
        // stands in for the old per-flush dedup hash set.
        let mut per_bank = std::mem::take(&mut self.scratch.per_bank);
        if per_bank.len() < nbanks {
            per_bank.resize_with(nbanks, Vec::new);
        }
        let mut arrivals = std::mem::take(&mut self.scratch.arrivals);
        arrivals.clear();
        arrivals.resize(nbanks, t0);
        let mut l1_lines = std::mem::take(&mut self.scratch.l1_lines);
        l1_lines.clear();
        self.l1s[i].array.lines_of_epoch_into(tag, &mut l1_lines);
        for &line in &l1_lines {
            let value = self.l1s[i]
                .array
                .peek(line)
                .expect("indexed line resident")
                .value;
            let b = self.bank_of(line);
            let t_arr = self.send_msg(
                Self::node_core(core),
                Self::node_bank(b),
                MessageClass::Writeback,
                t0,
            );
            arrivals[b.index()] = arrivals[b.index()].max(t_arr);
            // Refresh a resident LLC copy's value (tag preserved).
            if self.banks[b.index()].array.contains(line) {
                self.banks[b.index()].array.write(line, value, Some(tag));
            }
            per_bank[b.index()].push((line, value));
        }
        let mut bank_lines = std::mem::take(&mut self.scratch.lines);
        for (bi, bucket) in per_bank.iter_mut().enumerate().take(nbanks) {
            bank_lines.clear();
            self.banks[bi]
                .array
                .lines_of_epoch_into(tag, &mut bank_lines);
            for &line in &bank_lines {
                if l1_lines.binary_search(&line).is_ok() {
                    continue;
                }
                let value = self.banks[bi]
                    .array
                    .peek(line)
                    .expect("indexed line resident")
                    .value;
                bucket.push((line, value));
            }
        }
        bank_lines.clear();
        self.scratch.lines = bank_lines;
        l1_lines.clear();
        self.scratch.l1_lines = l1_lines;

        // Step 2–3 per bank. The service order across banks is
        // unspecified by the protocol (each bank handshakes with the MCs
        // independently), so the schedule perturbator may rotate it to
        // explore different MC-lane and NoC-link contention patterns.
        let log_ready = self.log_ready.remove(&tag).unwrap_or(t0);
        let rot = self.bank_rotation(nbanks);
        for k in 0..nbanks {
            let bi = (k + rot) % nbanks;
            let b = BankId::new(bi as u32);
            let t_fe = self.send_msg(
                Self::node_core(core),
                Self::node_bank(b),
                MessageClass::Control,
                t0,
            );
            let chk_gate = if bi == 0 { chk_done } else { t0 };
            let start = t_fe.max(arrivals[bi]).max(log_ready).max(chk_gate);
            if self.obs.is_enabled() {
                // Cascade-stamped (at `start`, ahead of the loop clock),
                // like `NocSend`: the analyzer pairs it with the matching
                // `BankAck` to decompose the bank's flush window.
                self.obs.record(pbm_types::TraceEvent::new(
                    start,
                    pbm_types::TraceEventKind::BankFlushStart {
                        tag,
                        bank: b,
                        cmd_at: t_fe,
                        wb_at: arrivals[bi],
                        log_at: log_ready,
                        chk_at: chk_gate,
                        lines: per_bank[bi].len() as u32,
                    },
                ));
            }
            let mut done = start;
            for &(line, value) in &per_bank[bi] {
                let mc = self.mc_of(line);
                let t_mc = self.send_msg(
                    Self::node_bank(b),
                    NodeId::Mc(mc),
                    MessageClass::Writeback,
                    start,
                );
                let (t_begin, t_w) = self.mcs[mc.index()].schedule_write_timed(t_mc);
                self.nvram.persist(line, value, t_w);
                self.stats.nvram_writes += 1;
                self.stats.epoch_flush_writes += 1;
                let t_ack = self.send_msg(
                    NodeId::Mc(mc),
                    Self::node_bank(b),
                    MessageClass::Control,
                    t_w,
                );
                if self.obs.is_enabled() {
                    self.obs.record(pbm_types::TraceEvent::new(
                        start,
                        pbm_types::TraceEventKind::PersistWrite {
                            tag,
                            bank: b,
                            mc,
                            mc_at: t_mc,
                            begin: t_begin,
                            durable: t_w,
                            ack_at: t_ack,
                        },
                    ));
                }
                done = done.max(t_ack);
            }
            let t_ba = self.send_msg(
                Self::node_bank(b),
                Self::node_core(core),
                MessageClass::Control,
                done,
            );
            self.queue
                .schedule(t_ba, Event::BankAck(core, tag.epoch, b));
        }
        for bucket in per_bank.iter_mut() {
            bucket.clear();
        }
        self.scratch.per_bank = per_bank;
        self.scratch.arrivals = arrivals;
    }

    /// Releases every line of a freshly-persisted epoch: tags drop, lines
    /// stay resident and clean (`clwb`) or are invalidated (`clflush`).
    fn clear_epoch_lines(&mut self, tag: EpochTag) {
        let invalidating = self.cfg.flush_mode == FlushMode::Invalidating;
        let i = tag.core.index();
        let mut lines = std::mem::take(&mut self.scratch.lines);
        lines.clear();
        self.l1s[i].array.lines_of_epoch_into(tag, &mut lines);
        for &line in &lines {
            if invalidating {
                self.l1s[i].array.remove(line);
                self.l1s[i].exclusive.remove(&line);
                let b = self.bank_of(line);
                self.banks[b.index()].dir.drop_core(line, tag.core);
            } else {
                self.l1s[i].array.mark_written_back(line);
            }
        }
        for bi in 0..self.banks.len() {
            let b = BankId::new(bi as u32);
            lines.clear();
            self.banks[bi].array.lines_of_epoch_into(tag, &mut lines);
            for &line in &lines {
                if invalidating {
                    self.evict_llc_line_holders(b, line);
                    self.banks[bi].array.remove(line);
                    self.banks[bi].dir.forget(line);
                } else {
                    self.banks[bi].array.mark_written_back(line);
                }
            }
        }
        lines.clear();
        self.scratch.lines = lines;
    }

    /// Invalidating-flush cleanup: recall every L1 copy of an LLC line
    /// about to be invalidated.
    fn evict_llc_line_holders(&mut self, bank: BankId, line: LineAddr) {
        let mut holders = self.take_core_buf();
        self.banks[bank.index()]
            .dir
            .holders_into(line, &mut holders);
        for &h in &holders {
            self.l1s[h.index()].array.remove(line);
            self.l1s[h.index()].exclusive.remove(&line);
            self.banks[bank.index()].dir.drop_core(line, h);
        }
        self.put_core_buf(holders);
    }

    /// An epoch became durable: clear its lines' tags (making them
    /// conflict-free and, under `clflush` mode, invalid), then stats,
    /// reason attribution, undo-log commit, dependent-arbiter notification
    /// (broadcast), and waiter wakeups.
    fn on_epoch_persisted(&mut self, tag: EpochTag) {
        let now = self.now;
        if self.obs.is_enabled() {
            self.emit(pbm_types::TraceEventKind::PersistCmp { tag });
            self.emit(pbm_types::TraceEventKind::EpochPhase {
                tag,
                phase: pbm_types::EpochPhase::Persisted,
            });
        }
        self.clear_epoch_lines(tag);
        self.stats.epochs_persisted += 1;
        if let Some(start) = self.flush_started.remove(&tag) {
            self.stats
                .epoch_flush_latency
                .record((now - start).as_u64());
        }
        match self.flush_reasons[tag.core.index()]
            .remove(&tag.epoch)
            .unwrap_or(FlushReason::Drain)
        {
            FlushReason::Conflict => self.stats.epochs_conflict_flushed += 1,
            FlushReason::Eviction => self.stats.epochs_eviction_flushed += 1,
            FlushReason::Proactive => self.stats.epochs_proactive_flushed += 1,
            FlushReason::BackPressure | FlushReason::Barrier | FlushReason::Drain => {}
        }
        // BSP: write the epoch's commit marker to the log region.
        if self.sem.needs_logging() && self.cfg.logging {
            let mc = McId::new((tag.epoch.as_u64() % self.cfg.mcs as u64) as u32);
            let t_mc = self.send_msg(
                Self::node_core(tag.core),
                NodeId::Mc(mc),
                MessageClass::Control,
                now,
            );
            let t_done = self.mcs[mc.index()].schedule_write(t_mc);
            self.stats.log_writes += 1;
            self.log.commit_epoch(tag, t_done);
        }
        // Release IDT dependence registers everywhere. The inform-register
        // NotifyDependent path delivers the same information; this broadcast
        // additionally covers register-overflow fallbacks.
        for j in 0..self.arbiters.len() {
            if j == tag.core.index() {
                continue;
            }
            let acts = self.arbiters[j].dependence_satisfied(tag);
            self.apply_actions(CoreId::new(j as u32), acts);
            self.propagate_dependence_demand(CoreId::new(j as u32));
        }
        // Wake every core parked on this epoch.
        if let Some(ws) = self.waiters.remove(&tag) {
            for c in ws {
                self.queue.schedule(now + 1, Event::Step(c));
            }
        }
    }
}
