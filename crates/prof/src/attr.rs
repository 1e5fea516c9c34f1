//! Dependency-chain reconstruction and exact cycle attribution.

use pbm_types::{BankId, Cycle, EpochTag, FlushReason, TraceEvent, TraceEventKind};
use std::collections::BTreeMap;

/// One segment class of a barrier's critical path. Every cycle of a
/// barrier's end-to-end persist latency is attributed to exactly one
/// component; the order below is the causal order along the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Waiting for IDT source epochs (or an idle arbiter gap) before a
    /// flush could start — `wait` phase.
    DepWait,
    /// Queued behind the same core's earlier in-flight epoch flushes (the
    /// arbiter serializes one core's epochs) — `wait` phase.
    ArbQueue,
    /// FlushEpoch command delivery to the straggler bank — `gate` phase.
    FlushCmd,
    /// L1 writebacks of the epoch's lines still in flight to the
    /// straggler bank — `gate` phase.
    L1Writeback,
    /// Undo-log write-ahead not yet durable (BSP) — `gate` phase.
    UndoLog,
    /// Processor-state checkpoint not yet complete (BSP) — `gate` phase.
    Checkpoint,
    /// The critical line's writeback traversing the NoC to its memory
    /// controller — `persist` phase.
    NocToMc,
    /// The critical line queued in the controller behind buffered
    /// persists — `persist` phase.
    McQueue,
    /// The NVRAM device write itself — `persist` phase.
    NvramWrite,
    /// The PersistAck returning to the bank — `persist` phase.
    NocAck,
    /// The straggler bank's BankAck returning to the core — `complete`
    /// phase.
    BankAck,
    /// PersistCMP broadcast / arbiter retirement after the last BankAck —
    /// `complete` phase.
    Retire,
}

impl Component {
    /// Every component, in causal path order.
    pub const ALL: [Component; 12] = [
        Component::DepWait,
        Component::ArbQueue,
        Component::FlushCmd,
        Component::L1Writeback,
        Component::UndoLog,
        Component::Checkpoint,
        Component::NocToMc,
        Component::McQueue,
        Component::NvramWrite,
        Component::NocAck,
        Component::BankAck,
        Component::Retire,
    ];

    /// Stable snake_case name used in every export.
    pub const fn name(self) -> &'static str {
        match self {
            Component::DepWait => "dep_wait",
            Component::ArbQueue => "arb_queue",
            Component::FlushCmd => "flush_cmd",
            Component::L1Writeback => "l1_writeback",
            Component::UndoLog => "undo_log",
            Component::Checkpoint => "checkpoint",
            Component::NocToMc => "noc_to_mc",
            Component::McQueue => "mc_queue",
            Component::NvramWrite => "nvram_write",
            Component::NocAck => "noc_ack",
            Component::BankAck => "bank_ack",
            Component::Retire => "retire",
        }
    }

    /// The flame-stack phase frame grouping related components:
    /// `wait` → `gate` → `persist` → `complete`.
    pub const fn phase(self) -> &'static str {
        match self {
            Component::DepWait | Component::ArbQueue => "wait",
            Component::FlushCmd
            | Component::L1Writeback
            | Component::UndoLog
            | Component::Checkpoint => "gate",
            Component::NocToMc | Component::McQueue | Component::NvramWrite | Component::NocAck => {
                "persist"
            }
            Component::BankAck | Component::Retire => "complete",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cycles attributed per [`Component`]. The invariant [`analyze`]
/// maintains: a barrier's attribution totals exactly its end-to-end
/// latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    cycles: [u64; Component::ALL.len()],
}

impl Attribution {
    /// Cycles attributed to `c`.
    pub fn get(&self, c: Component) -> u64 {
        self.cycles[c.index()]
    }

    pub(crate) fn add(&mut self, c: Component, n: u64) {
        self.cycles[c.index()] += n;
    }

    /// Sum over all components.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// `(component, cycles)` pairs in causal path order (zeros included).
    pub fn iter(&self) -> impl Iterator<Item = (Component, u64)> + '_ {
        Component::ALL.into_iter().map(|c| (c, self.get(c)))
    }

    /// Adds another attribution into this one.
    pub fn merge(&mut self, other: &Attribution) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
    }

    /// The component holding the most cycles (ties resolved to the
    /// earliest along the path); `None` if everything is zero.
    pub fn dominant(&self) -> Option<(Component, u64)> {
        let (c, n) = Component::ALL
            .into_iter()
            .map(|c| (c, self.get(c)))
            .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c.index())))?;
        (n > 0).then_some((c, n))
    }
}

/// One barrier's (flushed epoch's) reconstructed critical path.
#[derive(Debug, Clone)]
pub struct BarrierProfile {
    /// The epoch.
    pub tag: EpochTag,
    /// Why it flushed (the reason on `FlushEpoch`, post conflict-upgrade).
    pub reason: FlushReason,
    /// The causal anchor: when the flush was first requested
    /// (`FlushRequested`; falls back to the flush start on old traces).
    pub requested: Cycle,
    /// When `FlushEpoch` was issued.
    pub flush_start: Cycle,
    /// When `PersistCMP` was broadcast.
    pub persisted: Cycle,
    /// The bank whose BankAck arrived last (the within-flush critical
    /// path runs through it); `None` if the trace carried no BankAcks.
    pub straggler_bank: Option<BankId>,
    /// Per-component attribution; totals exactly [`Self::latency`].
    pub attribution: Attribution,
    /// IDT source epochs recorded against this epoch — the witnesses
    /// behind its `dep_wait` cycles.
    pub dep_sources: Vec<EpochTag>,
}

impl BarrierProfile {
    /// End-to-end persist latency: request to PersistCMP.
    pub fn latency(&self) -> u64 {
        self.persisted.as_u64() - self.requested.as_u64()
    }
}

/// The profile of one trace: every completed barrier, attributed.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Completed barriers, sorted by `(core, epoch)`.
    pub barriers: Vec<BarrierProfile>,
    /// Sum of all barriers' attributions.
    pub totals: Attribution,
    /// Epochs that started flushing but never reached `PersistCMP`
    /// (truncated trace, e.g. a ring sink that dropped the tail).
    pub incomplete: u64,
    /// Deadlock-avoidance epoch splits observed (§3.3).
    pub deadlock_splits: u64,
    /// IDT dependences recorded instead of flushing online.
    pub idt_records: u64,
    /// IDT register overflows (fell back to online flushes).
    pub idt_overflows: u64,
}

impl Profile {
    /// Every barrier's end-to-end latency, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.barriers.iter().map(BarrierProfile::latency).collect();
        v.sort_unstable();
        v
    }

    /// The `top_k` slowest barriers, slowest first (ties broken by
    /// `(core, epoch)` ascending, so the selection is deterministic).
    pub fn slowest(&self, top_k: usize) -> Vec<&BarrierProfile> {
        let mut v: Vec<&BarrierProfile> = self.barriers.iter().collect();
        v.sort_by_key(|b| {
            (
                std::cmp::Reverse(b.latency()),
                b.tag.core.as_u32(),
                b.tag.epoch.as_u64(),
            )
        });
        v.truncate(top_k);
        v
    }
}

/// Raw milestones gathered for one epoch before attribution.
#[derive(Debug, Default)]
struct EpochRec {
    requested: Option<u64>,
    reason: Option<FlushReason>,
    flush_start: Option<u64>,
    persisted: Option<u64>,
    /// `(bank, ack arrival at core)`.
    bank_acks: Vec<(u32, u64)>,
    /// `(bank, start, cmd_at, wb_at, log_at, chk_at)`.
    bank_starts: Vec<(u32, u64, u64, u64, u64, u64)>,
    /// `(bank, mc_at, begin, durable, ack_at)`.
    writes: Vec<(u32, u64, u64, u64, u64)>,
    dep_sources: Vec<EpochTag>,
}

/// Reconstructs every completed barrier's critical path from a structured
/// event stream and attributes each of its latency cycles to one
/// [`Component`].
///
/// Tolerant of partial traces: epochs missing their `PersistCMP` are
/// counted in [`Profile::incomplete`], missing `FlushRequested` anchors
/// fall back to the flush start, and all segment boundaries are clamped
/// into the enclosing window — so the conservation invariant (attribution
/// total == end-to-end latency) holds for *any* input, well-formed or not.
pub fn analyze(events: &[TraceEvent]) -> Profile {
    let mut recs: BTreeMap<(u32, u64), EpochRec> = BTreeMap::new();
    let mut profile = Profile::default();
    let key = |tag: EpochTag| (tag.core.as_u32(), tag.epoch.as_u64());
    for ev in events {
        let cycle = ev.cycle.as_u64();
        match ev.kind {
            TraceEventKind::FlushRequested { tag, reason } => {
                let rec = recs.entry(key(tag)).or_default();
                rec.requested.get_or_insert(cycle);
                rec.reason.get_or_insert(reason);
            }
            TraceEventKind::FlushEpoch { tag, reason } => {
                let rec = recs.entry(key(tag)).or_default();
                rec.flush_start.get_or_insert(cycle);
                // FlushEpoch carries the final attribution (a conflict may
                // have upgraded the reason after the first request).
                rec.reason = Some(reason);
            }
            TraceEventKind::BankFlushStart {
                tag,
                bank,
                cmd_at,
                wb_at,
                log_at,
                chk_at,
                ..
            } => {
                recs.entry(key(tag)).or_default().bank_starts.push((
                    bank.as_u32(),
                    cycle,
                    cmd_at.as_u64(),
                    wb_at.as_u64(),
                    log_at.as_u64(),
                    chk_at.as_u64(),
                ));
            }
            TraceEventKind::PersistWrite {
                tag,
                bank,
                mc_at,
                begin,
                durable,
                ack_at,
                ..
            } => {
                recs.entry(key(tag)).or_default().writes.push((
                    bank.as_u32(),
                    mc_at.as_u64(),
                    begin.as_u64(),
                    durable.as_u64(),
                    ack_at.as_u64(),
                ));
            }
            TraceEventKind::BankAck { tag, bank } => {
                recs.entry(key(tag))
                    .or_default()
                    .bank_acks
                    .push((bank.as_u32(), cycle));
            }
            TraceEventKind::PersistCmp { tag } => {
                recs.entry(key(tag))
                    .or_default()
                    .persisted
                    .get_or_insert(cycle);
            }
            TraceEventKind::IdtRecord { source, dependent } => {
                recs.entry(key(dependent))
                    .or_default()
                    .dep_sources
                    .push(source);
                profile.idt_records += 1;
            }
            TraceEventKind::IdtOverflow { .. } => profile.idt_overflows += 1,
            TraceEventKind::DeadlockSplit { .. } => profile.deadlock_splits += 1,
            _ => {}
        }
    }

    // Attribute per core, walking epochs in order so each barrier can see
    // the flush windows of the same core's earlier epochs (the arbiter
    // serializes them: queueing behind those windows is `arb_queue`).
    let mut prior_core = u32::MAX;
    let mut prior: Vec<(u64, u64)> = Vec::new(); // (flush_start, persisted)
    for (&(core, epoch), rec) in &recs {
        if core != prior_core {
            prior_core = core;
            prior.clear();
        }
        let (Some(fs), Some(cmp)) = (rec.flush_start, rec.persisted) else {
            if rec.flush_start.is_some() || rec.requested.is_some() {
                profile.incomplete += 1;
            }
            continue;
        };
        let requested = rec.requested.unwrap_or(fs).min(fs);
        let mut attr = Attribution::default();

        // [requested, fs): dependence waits vs queueing behind the core's
        // earlier epochs. While an earlier epoch's flush is in flight we
        // are queued (arb_queue); gaps where nothing of ours is flushing
        // are dependence waits (IDT sources on other cores, or an earlier
        // epoch's own gates).
        let mut t = requested;
        for &(pfs, pcmp) in &prior {
            let (pfs, pcmp) = (pfs.min(fs), pcmp.min(fs));
            if pcmp <= t {
                continue;
            }
            if pfs > t {
                attr.add(Component::DepWait, pfs - t);
                t = pfs;
            }
            attr.add(Component::ArbQueue, pcmp - t);
            t = pcmp;
        }
        if fs > t {
            attr.add(Component::DepWait, fs - t);
        }

        // [fs, cmp): the straggler bank's window. Its BankAck is the one
        // PersistCMP waited for, so the critical path runs through it.
        let straggler = rec
            .bank_acks
            .iter()
            .copied()
            .max_by_key(|&(bank, at)| (at, std::cmp::Reverse(bank)));
        match straggler {
            None => {
                // No handshake detail in the trace — everything after the
                // flush started is retirement.
                attr.add(Component::Retire, cmp - fs);
            }
            Some((bank, ack)) => {
                let t_ba = ack.clamp(fs, cmp);
                let gate = rec.bank_starts.iter().find(|b| b.0 == bank);
                let start = gate.map_or(fs, |g| g.1).clamp(fs, t_ba);
                if start > fs {
                    // The whole gate delay is attributed to the latest of
                    // the four gate inputs (the one that actually held the
                    // bank); ties resolve to the earliest candidate.
                    let comp = gate.map_or(Component::FlushCmd, |&(_, _, cmd, wb, log, chk)| {
                        let gates = [
                            (Component::FlushCmd, cmd),
                            (Component::L1Writeback, wb),
                            (Component::UndoLog, log),
                            (Component::Checkpoint, chk),
                        ];
                        let peak = gates.iter().map(|&(_, v)| v).max().unwrap_or(0);
                        gates
                            .iter()
                            .find(|&&(_, v)| v == peak)
                            .map(|&(c, _)| c)
                            .unwrap_or(Component::FlushCmd)
                    });
                    attr.add(comp, start - fs);
                }
                // The bank's last PersistAck bounds its line phase; the
                // slowest line's milestones decompose it.
                let bank_writes: Vec<_> = rec.writes.iter().filter(|w| w.0 == bank).collect();
                let done = bank_writes
                    .iter()
                    .map(|w| w.4)
                    .max()
                    .map_or(start, |ack| ack.clamp(start, t_ba));
                if let Some(w) = bank_writes.iter().rev().max_by_key(|w| w.4) {
                    let (_, mc_at, begin, durable, _) = **w;
                    let a = mc_at.clamp(start, done);
                    let b = begin.clamp(a, done);
                    let c = durable.clamp(b, done);
                    attr.add(Component::NocToMc, a - start);
                    attr.add(Component::McQueue, b - a);
                    attr.add(Component::NvramWrite, c - b);
                    attr.add(Component::NocAck, done - c);
                }
                attr.add(Component::BankAck, t_ba - done);
                attr.add(Component::Retire, cmp - t_ba);
            }
        }

        debug_assert_eq!(attr.total(), cmp - requested, "conservation");
        let mut dep_sources = rec.dep_sources.clone();
        dep_sources.sort_by_key(|s| (s.core.as_u32(), s.epoch.as_u64()));
        dep_sources.dedup();
        profile.totals.merge(&attr);
        profile.barriers.push(BarrierProfile {
            tag: EpochTag::new(pbm_types::CoreId::new(core), pbm_types::EpochId::new(epoch)),
            reason: rec.reason.unwrap_or(FlushReason::Drain),
            requested: Cycle::new(requested),
            flush_start: Cycle::new(fs),
            persisted: Cycle::new(cmp),
            straggler_bank: straggler.map(|(b, _)| BankId::new(b)),
            attribution: attr,
            dep_sources,
        });
        prior.push((fs, cmp));
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_names_are_distinct() {
        let mut names: Vec<_> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Component::ALL.len());
    }

    #[test]
    fn every_component_has_a_phase() {
        for c in Component::ALL {
            assert!(matches!(
                c.phase(),
                "wait" | "gate" | "persist" | "complete"
            ));
        }
    }

    #[test]
    fn attribution_bookkeeping() {
        let mut a = Attribution::default();
        a.add(Component::DepWait, 5);
        a.add(Component::NvramWrite, 360);
        assert_eq!(a.total(), 365);
        assert_eq!(a.get(Component::NvramWrite), 360);
        assert_eq!(a.dominant(), Some((Component::NvramWrite, 360)));
        let mut b = Attribution::default();
        b.add(Component::NvramWrite, 40);
        a.merge(&b);
        assert_eq!(a.get(Component::NvramWrite), 400);
        assert_eq!(Attribution::default().dominant(), None);
    }

    #[test]
    fn dominant_tie_breaks_to_earliest_on_path() {
        let mut a = Attribution::default();
        a.add(Component::McQueue, 7);
        a.add(Component::NocToMc, 7);
        assert_eq!(a.dominant(), Some((Component::NocToMc, 7)));
    }

    #[test]
    fn empty_trace_profiles_to_nothing() {
        let p = analyze(&[]);
        assert!(p.barriers.is_empty());
        assert_eq!(p.totals.total(), 0);
        assert_eq!(p.incomplete, 0);
    }
}
