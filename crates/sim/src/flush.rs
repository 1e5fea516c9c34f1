//! Epoch-flush timing: executing the protocol's steps against the timing
//! model (the Figure 8 handshake), persist bookkeeping, and wakeups.

use crate::event::Event;
use crate::system::System;
use pbm_core::{Protocol, Step};
use pbm_noc::MessageClass;
use pbm_types::{BankId, EpochTag, FlushMode, FlushReason, LineAddr, McId, NodeId, TraceEventKind};

impl System {
    /// The memory controller owning `line`. Decorrelated from the bank
    /// interleaving (which consumes the low bits) so one bank's flush
    /// traffic spreads across controllers.
    pub(crate) fn mc_of(&self, line: LineAddr) -> McId {
        McId::new(self.interleave.mc(line) as u32)
    }

    /// Runs one protocol entry point and executes the timing steps it
    /// pushes, in order. Steps never call back into the protocol, so one
    /// buffer serves every call.
    pub(crate) fn run_protocol<R>(
        &mut self,
        decide: impl FnOnce(&mut Protocol, &mut Vec<Step>) -> R,
    ) -> R {
        let mut steps = std::mem::take(&mut self.steps);
        let result = decide(&mut self.protocol, &mut steps);
        for &step in &steps {
            self.exec_step(step);
        }
        steps.clear();
        self.steps = steps;
        result
    }

    /// Executes one protocol step against the timing model.
    fn exec_step(&mut self, step: Step) {
        match step {
            Step::Requested(tag, reason) => {
                self.emit(TraceEventKind::FlushRequested { tag, reason });
            }
            Step::Split(tag) => {
                self.emit(TraceEventKind::DeadlockSplit {
                    core: tag.core,
                    epoch: tag.epoch,
                });
                self.epoch_cut(tag);
            }
            Step::Closed(tag) => self.epoch_cut(tag),
            Step::Conflict(source, dependent) => {
                self.emit(TraceEventKind::ConflictInter { source, dependent });
            }
            Step::IdtRecord(source, dependent) => {
                self.emit(TraceEventKind::IdtRecord { source, dependent });
                if let Some(ck) = self.checker.as_mut() {
                    ck.record_dependence(source, dependent);
                }
            }
            Step::IdtOverflow(source, dependent) => {
                self.emit(TraceEventKind::IdtOverflow { source, dependent });
            }
            Step::Flush(tag, reason) => self.start_epoch_flush(tag, reason),
            Step::PersistCmp(tag) => {
                // Step 4 of the handshake: control broadcast to every bank
                // (traffic only; bank state is implicit because the
                // arbiter serializes this core's epoch flushes).
                let now = self.now;
                for b in 0..self.cfg.llc_banks {
                    self.send_msg(
                        NodeId::Core(tag.core),
                        NodeId::Bank(BankId::new(b as u32)),
                        MessageClass::Control,
                        now,
                    );
                }
            }
            Step::Persisted(tag, reason) => self.on_epoch_persisted(tag, reason),
            Step::Wake(tag) => {
                for c in self.waiters.remove(&tag).unwrap_or_default() {
                    self.queue.schedule(self.now + 1, Event::Step(c));
                }
            }
        }
    }

    /// Step 1–3 of the Figure 8 handshake, computed as a timed cascade:
    /// L1 writebacks + `FlushEpoch` broadcast, per-bank `FlushLines` to the
    /// controllers with `PersistAck`s, and a scheduled `BankAck` per bank.
    fn start_epoch_flush(&mut self, tag: EpochTag, reason: FlushReason) {
        let core = tag.core;
        let i = core.index();
        let t0 = self.now;
        let nbanks = self.cfg.llc_banks;
        self.cores[i].flush_started = t0;
        if self.obs.is_enabled() {
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
                    NodeId::Core(core),
                    NodeId::Mc(mc),
                    MessageClass::Writeback,
                    t0,
                );
                let done = self.mcs[mc.index()].schedule_write(t_mc);
                self.stats.checkpoint_writes += 1;
                let t_ack = self.send_msg(
                    NodeId::Mc(mc),
                    NodeId::Core(core),
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
        self.l1s[i].lines_of_epoch_into(tag, &mut l1_lines);
        for &line in &l1_lines {
            let value = self.l1s[i].peek(line).expect("indexed line resident").value;
            let b = self.bank_of(line);
            let t_arr = self.send_msg(
                NodeId::Core(core),
                NodeId::Bank(b),
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
                NodeId::Core(core),
                NodeId::Bank(b),
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
                    NodeId::Bank(b),
                    NodeId::Mc(mc),
                    MessageClass::Writeback,
                    start,
                );
                let (t_begin, t_w) = self.mcs[mc.index()].schedule_write_timed(t_mc);
                self.nvram.persist(line, value, t_w);
                self.stats.nvram_writes += 1;
                self.stats.epoch_flush_writes += 1;
                let t_ack =
                    self.send_msg(NodeId::Mc(mc), NodeId::Bank(b), MessageClass::Control, t_w);
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
                NodeId::Bank(b),
                NodeId::Core(core),
                MessageClass::Control,
                done,
            );
            self.queue
                .schedule(t_ba, Event::BankAck(core, tag.epoch, b));
        }
        per_bank.iter_mut().for_each(Vec::clear);
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
        self.l1s[i].lines_of_epoch_into(tag, &mut lines);
        for &line in &lines {
            if invalidating {
                self.l1s[i].remove(line);
                let b = self.bank_of(line);
                self.banks[b.index()].dir.drop_core(line, tag.core);
            } else {
                self.l1s[i].mark_written_back(line);
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
            self.l1s[h.index()].remove(line);
            self.banks[bank.index()].dir.drop_core(line, h);
        }
        self.put_core_buf(holders);
    }

    /// An epoch became durable: clear its lines' tags (making them
    /// conflict-free and, under `clflush` mode, invalid), then stats,
    /// reason attribution and the undo-log commit.
    fn on_epoch_persisted(&mut self, tag: EpochTag, reason: FlushReason) {
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
        let start = self.cores[tag.core.index()].flush_started;
        self.stats
            .epoch_flush_latency
            .record((now - start).as_u64());
        match reason {
            FlushReason::Conflict => self.stats.epochs_conflict_flushed += 1,
            FlushReason::Eviction => self.stats.epochs_eviction_flushed += 1,
            FlushReason::Proactive => self.stats.epochs_proactive_flushed += 1,
            FlushReason::BackPressure | FlushReason::Barrier | FlushReason::Drain => {}
        }
        // BSP: write the epoch's commit marker to the log region.
        if self.sem.needs_logging() && self.cfg.logging {
            let mc = McId::new((tag.epoch.as_u64() % self.cfg.mcs as u64) as u32);
            let t_mc = self.send_msg(
                NodeId::Core(tag.core),
                NodeId::Mc(mc),
                MessageClass::Control,
                now,
            );
            let t_done = self.mcs[mc.index()].schedule_write(t_mc);
            self.stats.log_writes += 1;
            self.log.commit_epoch(tag, t_done);
        }
    }
}
