//! The demand memory path: L1 probe, directory/owner transfer, LLC fill,
//! conflict detection, and store commit — the code paths on which the
//! paper's conflicts (§3.1, §3.2) arise and are resolved.

use crate::system::System;
use pbm_cache::{CacheLine, VictimChoice};
use pbm_noc::MessageClass;
use pbm_nvram::LineValue;
use pbm_types::bug::{self, InjectedBug};
use pbm_types::{
    BankId, BarrierKind, CoreId, Cycle, EpochTag, FlushReason, LineAddr, NodeId, TraceEventKind,
};

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Completed; the core may proceed at `at`.
    Done {
        /// Completion time.
        at: Cycle,
    },
    /// The access hit an epoch conflict (or a blocked eviction); the core
    /// must wait until `tag` persists, then retry. The flush request has
    /// already been issued.
    Blocked {
        /// The epoch being waited on.
        tag: EpochTag,
    },
}

impl System {
    /// The epoch tag a store by `core` to `line` would carry, if any.
    fn current_tag_for(&self, core: CoreId, line: LineAddr) -> Option<EpochTag> {
        self.is_tagged_line(line)
            .then(|| self.protocol.current_tag(core))
    }

    /// Performs a demand access by `core` to `line`; `store` carries the
    /// value for stores, `None` for loads.
    pub(crate) fn do_access(&mut self, core: CoreId, line: LineAddr, store: Option<u32>) -> Access {
        let now = self.now;
        let i = core.index();
        let l1_lat = self.cfg.l1_latency;
        let is_store = store.is_some();

        // ---------------- L1 probe ----------------
        if let Some(l) = self.l1s[i].peek(line).copied() {
            if !is_store {
                self.l1s[i].access(line);
                self.stats.l1_hits += 1;
                return Access::Done { at: now + l1_lat };
            }
            let new_tag = self.current_tag_for(core, line);
            if let (Some(old), true) = (l.tag, l.tag != new_tag) {
                debug_assert_eq!(old.core, core, "L1 lines carry our own tags");
                if self.protocol.is_persisted(old) {
                    // Stale tag: the epoch persisted; clean bookkeeping.
                    self.l1s[i].mark_written_back(line);
                } else {
                    return self.intra_conflict(old);
                }
            }
            // Write permission is the directory's: this L1 may write the
            // line exactly when its bank records this core as the owner.
            if self.banks[self.bank_of(line).index()].dir.owner(line) == Some(core) {
                self.l1s[i].access(line);
                self.stats.l1_hits += 1;
                let value = store.expect("store path");
                return self.commit_store(core, line, value, l.tag, now + l1_lat);
            }
            // Shared copy: upgrade through the bank below.
        }
        self.stats.l1_misses += 1;

        // ---------------- request to the home bank ----------------
        let b = self.bank_of(line);
        let bi = b.index();
        let t_req = self.send_msg(
            NodeId::Core(core),
            NodeId::Bank(b),
            MessageClass::Control,
            now + l1_lat,
        );
        let mut t = t_req + self.cfg.llc_latency;

        // ---------------- owner transfer ----------------
        // Tags already resolved by IDT in this access (avoids re-detecting
        // the same conflict at the LLC after the owner's writeback).
        let mut resolved: Option<EpochTag> = None;
        if let Some(owner) = self.banks[bi].dir.owner(line) {
            if owner != core {
                let oi = owner.index();
                if let Some(ol) = self.l1s[oi].peek(line).copied() {
                    if ol.is_epoch_tagged() {
                        let src = ol.tag.expect("tagged");
                        if !self.inter_conflict(core, src) {
                            return Access::Blocked { tag: src };
                        }
                        resolved = Some(src);
                    }
                }
                // Re-read: conflict resolution may have flushed the line
                // (PF on a split epoch), cleaning or even clearing it.
                if let Some(ol) = self.l1s[oi].peek(line).copied() {
                    if ol.is_dirty() {
                        // Forward request to the owner; it writes back.
                        let t_fwd = self.send_msg(
                            NodeId::Bank(b),
                            NodeId::Core(owner),
                            MessageClass::Control,
                            t,
                        );
                        let t_data = self.send_msg(
                            NodeId::Core(owner),
                            NodeId::Bank(b),
                            MessageClass::Data,
                            t_fwd + self.cfg.l1_latency,
                        );
                        match self.llc_accept_writeback(b, line, ol.value, ol.tag) {
                            Ok(()) => {}
                            Err(blocker) => return self.blocked_on(blocker, FlushReason::Conflict),
                        }
                        // The owner keeps a clean shared copy on a remote
                        // load, or invalidates on a remote store.
                        self.l1s[oi].mark_written_back(line);
                        if is_store {
                            self.l1s[oi].remove(line);
                            self.banks[bi].dir.drop_core(line, owner);
                        } else {
                            self.banks[bi].dir.downgrade_owner(line);
                        }
                        t = t.max(t_data);
                    } else {
                        // Stale ownership (clean-exclusive): downgrade.
                        self.banks[bi].dir.downgrade_owner(line);
                    }
                } else {
                    // Owner silently dropped the (clean) line.
                    self.banks[bi].dir.drop_core(line, owner);
                }
            }
        }

        // ---------------- LLC lookup / fill ----------------
        let value: LineValue;
        if let Some(ll) = self.banks[bi].array.peek(line).copied() {
            // Tag conflicts against the LLC-resident copy (§4.3: LLC tags
            // carry CoreID + EpochID precisely for this check). A tag whose
            // epoch has already persisted is stale bookkeeping (its value
            // is durable); clean it instead of conflicting.
            if let Some(ltag) = ll.tag {
                if self.protocol.is_persisted(ltag) {
                    self.banks[bi].array.mark_written_back(line);
                } else if resolved == Some(ltag) {
                    // Already handled via the owner path in this access.
                } else if ltag.core == core {
                    let new_tag = self.current_tag_for(core, line);
                    if is_store && Some(ltag) != new_tag {
                        return self.intra_conflict(ltag);
                    }
                } else if !self.inter_conflict(core, ltag) {
                    return Access::Blocked { tag: ltag };
                }
            }
            self.stats.llc_hits += 1;
            self.banks[bi].array.access(line);
            value = self.banks[bi].array.peek(line).expect("resident").value;
        } else {
            // Miss: fetch from NVRAM and install.
            self.stats.llc_misses += 1;
            let mc = self.mc_of(line);
            let t_mc = self.send_msg(NodeId::Bank(b), NodeId::Mc(mc), MessageClass::Control, t);
            let t_rd = self.mcs[mc.index()].schedule_read(t_mc);
            self.stats.nvram_reads += 1;
            value = self.nvram.peek(line).unwrap_or(0);
            if let Err(blocker) = self.llc_make_room(b, line) {
                return self.blocked_on(blocker, FlushReason::Eviction);
            }
            self.banks[bi].array.install(CacheLine::clean(line, value));
            t = self.send_msg(NodeId::Mc(mc), NodeId::Bank(b), MessageClass::Data, t_rd);
        }

        // ---------------- coherence permissions ----------------
        if is_store {
            let mut targets = self.take_core_buf();
            self.banks[bi]
                .dir
                .invalidation_targets_into(line, core, &mut targets);
            let mut t_inv = t;
            for &c in &targets {
                let t_send =
                    self.send_msg(NodeId::Bank(b), NodeId::Core(c), MessageClass::Control, t);
                self.l1s[c.index()].remove(line);
                let t_ack = self.send_msg(
                    NodeId::Core(c),
                    NodeId::Bank(b),
                    MessageClass::Control,
                    t_send,
                );
                t_inv = t_inv.max(t_ack);
            }
            self.put_core_buf(targets);
            t = t_inv;
            self.banks[bi].dir.set_owner(line, core);
        } else {
            self.banks[bi].dir.add_sharer(line, core);
        }

        // ---------------- data response + L1 install ----------------
        let t_resp = self.send_msg(NodeId::Bank(b), NodeId::Core(core), MessageClass::Data, t);
        if !self.l1s[i].contains(line) {
            if let Err(blocker) = self.l1_make_room(core, line) {
                return self.blocked_on(blocker, FlushReason::Eviction);
            }
            self.l1s[i].install(CacheLine::clean(line, value));
        }
        let at = t_resp + self.cfg.l1_latency;
        if let Some(v) = store {
            let prev_tag = self.l1s[i].peek(line).expect("installed").tag;
            self.commit_store(core, line, v, prev_tag, at)
        } else {
            Access::Done { at }
        }
    }

    /// Applies a store to an L1-resident line with write permission: undo
    /// logging on first touch, token minting, epoch tagging, and (for the
    /// write-through baseline) the synchronous persist.
    fn commit_store(
        &mut self,
        core: CoreId,
        line: LineAddr,
        value: u32,
        prev_tag: Option<EpochTag>,
        at: Cycle,
    ) -> Access {
        let i = core.index();
        let tag = self.current_tag_for(core, line);
        let token = self.mint_token(value);

        // Hardware undo logging (§5.2.1): on the first modification of a
        // line in an epoch, its pre-image goes to the log region first.
        // The pre-image is the line's current value *in the cache* (the
        // paper: "which is either already in the cache or has been brought
        // into the cache on a cache miss") — NOT the currently-durable
        // value: an IDT-permitted store can run ahead of the source
        // epoch's persist, and the epoch ordering guarantees the cached
        // pre-image will be durable before this epoch's new value is.
        if let (Some(tag), true, false) = (
            tag.filter(|_| self.cfg.logging && self.sem.needs_logging()),
            prev_tag != tag,
            bug::hit(InjectedBug::SkipUndoLog),
        ) {
            // Token 0 marks a line that has never been written (the fill
            // value for absent NVRAM lines): its pre-image is "no value".
            let durable_old = self.l1s[i].peek(line).map(|l| l.value).filter(|v| *v != 0);
            let mc = self.mc_of(line);
            let t_mc = self.send_msg(
                NodeId::Core(core),
                NodeId::Mc(mc),
                MessageClass::Writeback,
                at,
            );
            let t_done = self.mcs[mc.index()].schedule_write(t_mc);
            self.stats.log_writes += 1;
            // `append` clamps durability to append order (the log region is
            // a sequential buffer); the epoch's flush must wait for the
            // clamped time, so write-ahead holds transitively across cores.
            let t_done = self.log.append(tag, line, durable_old, t_done);
            let entry = self.log_ready.entry(tag).or_insert(t_done);
            *entry = (*entry).max(t_done);
        }
        self.l1s[i].write(line, token, tag);
        if let (Some(ck), Some(tag)) = (self.checker.as_mut(), tag) {
            ck.record_write(line, token, tag);
        }
        if self.cfg.barrier == BarrierKind::WriteThrough {
            // Strict persistency: write through and wait for durability.
            let mc = self.mc_of(line);
            let t_mc = self.send_msg(NodeId::Core(core), NodeId::Mc(mc), MessageClass::Data, at);
            let t_w = self.mcs[mc.index()].schedule_write(t_mc);
            self.nvram.persist(line, token, t_w);
            self.stats.nvram_writes += 1;
            let t_ack = self.send_msg(
                NodeId::Mc(mc),
                NodeId::Core(core),
                MessageClass::Control,
                t_w,
            );
            return Access::Done { at: t_ack };
        }
        Access::Done { at }
    }

    /// Intra-thread conflict (§3.2): the line belongs to one of the
    /// core's own earlier, un-persisted epochs, so the request waits for
    /// that epoch's flush.
    fn intra_conflict(&mut self, tag: EpochTag) -> Access {
        self.stats.conflicts_intra += 1;
        self.emit(TraceEventKind::ConflictIntra {
            core: tag.core,
            epoch: tag.epoch,
        });
        self.blocked_on(tag, FlushReason::Conflict)
    }

    /// Inter-thread conflict (§3.1) against source epoch `src`: the
    /// protocol splits, records the IDT dependence, or demands an online
    /// flush. Returns `true` if the request may proceed.
    fn inter_conflict(&mut self, requestor: CoreId, src: EpochTag) -> bool {
        self.stats.conflicts_inter += 1;
        self.run_protocol(|p, out| p.conflict(requestor, src, out))
    }

    /// The request must wait for `tag` to persist: the protocol makes it
    /// flushable and requests its flush.
    fn blocked_on(&mut self, tag: EpochTag, reason: FlushReason) -> Access {
        self.run_protocol(|p, out| p.block_on(tag, reason, out));
        Access::Blocked { tag }
    }

    /// Accepts a writeback of (`line`, `value`, `tag`) into the bank.
    /// Fails with the resident blocking tag if the resident copy belongs to
    /// a different un-persisted epoch (its value would be lost).
    pub(crate) fn llc_accept_writeback(
        &mut self,
        bank: BankId,
        line: LineAddr,
        value: LineValue,
        tag: Option<EpochTag>,
    ) -> Result<(), EpochTag> {
        let bi = bank.index();
        if let Some(resident) = self.banks[bi].array.peek(line).copied() {
            if let Some(rtag) = resident.tag {
                if Some(rtag) != tag {
                    if self.protocol.is_persisted(rtag) {
                        self.banks[bi].array.mark_written_back(line);
                    } else {
                        return Err(rtag);
                    }
                }
            }
            self.banks[bi].array.write(line, value, tag);
            return Ok(());
        }
        self.llc_make_room(bank, line)?;
        self.banks[bi]
            .array
            .install(CacheLine::dirty(line, value, tag));
        Ok(())
    }

    /// Makes room in the bank for `line`, evicting (and if dirty, writing
    /// back to NVRAM) a victim. Fails with the epoch tag pinning the set if
    /// every victim belongs to an un-persisted epoch, or if a victim's L1
    /// copy does.
    fn llc_make_room(&mut self, bank: BankId, line: LineAddr) -> Result<(), EpochTag> {
        let bi = bank.index();
        loop {
            match self.banks[bi].array.victim_for(line) {
                VictimChoice::Room => return Ok(()),
                VictimChoice::EpochBlocked { tag, line: vline } => {
                    if self.protocol.is_persisted(tag) {
                        // Stale tag; clean and re-evaluate the set.
                        self.banks[bi].array.mark_written_back(vline);
                        continue;
                    }
                    return Err(tag);
                }
                VictimChoice::Evict(victim) => {
                    // Inclusive LLC: recall every L1 copy first.
                    let mut holders = self.take_core_buf();
                    self.banks[bi].dir.holders_into(victim.addr, &mut holders);
                    let mut merged = victim.value;
                    let mut dirty = victim.is_dirty();
                    let mut blocked = None;
                    for &h in &holders {
                        if let Some(hl) = self.l1s[h.index()].peek(victim.addr).copied() {
                            if hl.is_epoch_tagged() {
                                blocked = Some(hl.tag.expect("tagged"));
                                break;
                            }
                            if hl.is_dirty() {
                                merged = hl.value;
                                dirty = true;
                            }
                            self.l1s[h.index()].remove(victim.addr);
                        }
                        self.banks[bi].dir.drop_core(victim.addr, h);
                    }
                    self.put_core_buf(holders);
                    if let Some(tag) = blocked {
                        return Err(tag);
                    }
                    self.banks[bi].dir.forget(victim.addr);
                    self.banks[bi].array.remove(victim.addr);
                    if dirty {
                        // Plain (untagged) dirty data goes to memory
                        // asynchronously; nobody waits for it.
                        let now = self.now;
                        let mc = self.mc_of(victim.addr);
                        let t_mc = self.send_msg(
                            NodeId::Bank(bank),
                            NodeId::Mc(mc),
                            MessageClass::Writeback,
                            now,
                        );
                        let t_w = self.mcs[mc.index()].schedule_write(t_mc);
                        self.nvram.persist(victim.addr, merged, t_w);
                        self.stats.nvram_writes += 1;
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Makes room in `core`'s L1 for `line`. Dirty victims (tagged or not)
    /// write back to the LLC; fails if the LLC cannot accept the writeback
    /// without losing an un-persisted epoch's value.
    fn l1_make_room(&mut self, core: CoreId, line: LineAddr) -> Result<(), EpochTag> {
        let i = core.index();
        let (victim_addr, victim) = match self.l1s[i].victim_for(line) {
            VictimChoice::Room => return Ok(()),
            VictimChoice::Evict(v) => (v.addr, v),
            VictimChoice::EpochBlocked { line: vaddr, .. } => {
                // An epoch-tagged L1 victim is *evictable*: it writes back
                // to the LLC with its tag (the paper's natural-replacement
                // path); only LLC->NVRAM eviction is ordering-constrained.
                let v = *self.l1s[i].peek(vaddr).expect("victim resident");
                (vaddr, v)
            }
        };
        if victim.is_dirty() {
            let vb = self.bank_of(victim_addr);
            self.llc_accept_writeback(vb, victim_addr, victim.value, victim.tag)?;
            let now = self.now;
            self.send_msg(
                NodeId::Core(core),
                NodeId::Bank(vb),
                MessageClass::Writeback,
                now,
            );
        }
        self.l1s[i].remove(victim_addr);
        let vb = self.bank_of(victim_addr);
        self.banks[vb.index()].dir.drop_core(victim_addr, core);
        Ok(())
    }
}
