//! The simulated system: construction, the event loop, and core stepping.

use crate::event::{Event, EventQueue};
use crate::lock::Locks;
use crate::op::{Op, Program};
use pbm_cache::{CacheArray, CacheLine, VictimChoice};
use pbm_core::recovery::ConsistencyChecker;
use pbm_core::{Barrier, BarrierSemantics, Protocol, Step};
use pbm_noc::{Mesh, MessageClass};
use pbm_nvram::{DurableSnapshot, LineValue, McTiming, NvramDevice, UndoLog};
use pbm_obs::{Observer, Sampler};
use pbm_types::{
    Addr, BankId, BarrierKind, ConfigError, CoreId, Cycle, EpochId, EpochPhase, EpochTag, FastMap,
    LineAddr, MetricSample, NodeId, SimStats, StallKind, SystemConfig, TraceEvent, TraceEventKind,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Byte addresses at or above this boundary are *volatile*: never epoch
/// tagged, never logged, excluded from persistence checking. Workloads put
/// locks and scratch data here. Under BSP bulk mode (whole-execution
/// persistence) the boundary is ignored and everything is tagged.
pub const VOLATILE_BASE: u64 = 1 << 40;

#[derive(Debug, Default)]
pub(crate) struct CoreState {
    pub program: Program,
    pub pc: usize,
    /// Outstanding store completion times (write buffer occupancy).
    pub wb: BinaryHeap<Reverse<u64>>,
    /// Dynamic stores since the last (hardware) epoch cut.
    pub epoch_stores: u64,
    /// A hardware epoch cut is due before the next op executes.
    pub pending_auto_barrier: bool,
    /// A barrier already closed this epoch and is now waiting for it to
    /// persist (EP rule E2); retries must not close another epoch.
    pub barrier_wait: Option<EpochId>,
    pub finish: Option<Cycle>,
    /// Set while parked on an epoch persist: (since, kind).
    pub stalled: Option<(Cycle, StallKind)>,
    /// When this core's in-flight epoch flush started (for the latency
    /// histogram). The protocol runs at most one flush per core.
    pub flush_started: Cycle,
}

/// Reusable scratch buffers for the access/flush hot paths. Every buffer
/// is taken (`std::mem::take` or pool pop) for the duration of one
/// operation and returned cleared, so steady-state simulation does no
/// per-event allocation for these temporaries. A pool (rather than a
/// single buffer) backs the path that nests: eviction recalls inside
/// writebacks.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per-bank `(line, value)` gather lists for the epoch-flush cascade.
    pub per_bank: Vec<Vec<(LineAddr, pbm_nvram::LineValue)>>,
    /// Per-bank last-writeback-arrival times.
    pub arrivals: Vec<Cycle>,
    /// Epoch line enumeration (L1 side; stays sorted, doubles as the
    /// dedup set via binary search).
    pub l1_lines: Vec<LineAddr>,
    /// Epoch line enumeration (bank side / tag clearing).
    pub lines: Vec<LineAddr>,
    /// Pool of core-list buffers (directory holders, invalidation targets).
    pub core_bufs: Vec<Vec<CoreId>>,
}

/// Line interleaving: the low bits of a line address pick its LLC bank,
/// the bits above them its memory controller. `SystemConfig::validate`
/// makes both counts powers of two, so each pick is a shift and a mask.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interleave {
    pub bank_shift: u32,
    bank_mask: u64,
    mc_mask: u64,
}

impl Interleave {
    pub fn new(banks: usize, mcs: usize) -> Self {
        debug_assert!(banks.is_power_of_two() && mcs.is_power_of_two());
        Interleave {
            bank_shift: banks.trailing_zeros(),
            bank_mask: banks as u64 - 1,
            mc_mask: mcs as u64 - 1,
        }
    }

    /// `line % banks`.
    pub fn bank(self, line: LineAddr) -> u64 {
        line.as_u64() & self.bank_mask
    }

    /// `(line / banks) % mcs`.
    pub fn mc(self, line: LineAddr) -> u64 {
        (line.as_u64() >> self.bank_shift) & self.mc_mask
    }
}

#[derive(Debug)]
pub(crate) struct BankState {
    pub array: CacheArray,
    pub dir: pbm_cache::Directory,
}

/// The full simulated multicore (Figure 2) plus instrumentation.
///
/// Build one with [`System::new`], run it to completion with
/// [`System::run`], then inspect [`SimStats`] and (in checking mode) the
/// durable state at arbitrary crash points.
#[derive(Debug)]
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) sem: BarrierSemantics,
    pub(crate) mesh: Mesh,
    pub(crate) mcs: Vec<McTiming>,
    pub(crate) nvram: NvramDevice,
    pub(crate) log: UndoLog,
    pub(crate) cores: Vec<CoreState>,
    /// Each core's private L1. Which L1 may write a line is the
    /// directory's owner field, not L1 state.
    pub(crate) l1s: Vec<CacheArray>,
    pub(crate) banks: Vec<BankState>,
    /// Every core's epoch arbiter and the cross-core flush decisions.
    pub(crate) protocol: Protocol,
    /// The protocol's step buffer, reused by every call.
    pub(crate) steps: Vec<Step>,
    /// Architecturally-atomic spin locks and the cores spinning on them.
    pub(crate) locks: Locks,
    /// Cores parked until the given epoch persists, in tag order so
    /// wedge reports print the same text on every run.
    pub(crate) waiters: BTreeMap<EpochTag, Vec<CoreId>>,
    /// BSP: cycle by which an epoch's undo-log records are durable.
    pub(crate) log_ready: FastMap<EpochTag, Cycle>,
    pub(crate) queue: EventQueue,
    /// Events popped from the queue so far.
    pub(crate) events: u64,
    pub(crate) scratch: Scratch,
    /// Which bank and memory controller own each line.
    pub(crate) interleave: Interleave,
    pub(crate) now: Cycle,
    pub(crate) token_seq: u64,
    pub(crate) checker: Option<ConsistencyChecker>,
    pub(crate) stats: SimStats,
    /// Observability hook: cycle-stamped event tracing and periodic
    /// metric sampling. Disabled (zero-cost) by default.
    pub(crate) obs: Observer,
    /// Bank-rotation stream of the schedule perturbator (`None` = the
    /// exact, unperturbed schedule).
    pub(crate) perturb: Option<crate::perturb::PerturbRng>,
}

impl System {
    /// Builds a system running `programs[i]` on core `i`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent or
    /// there are more programs than cores (missing programs run empty).
    pub fn new(cfg: SystemConfig, mut programs: Vec<Program>) -> Result<Self, ConfigError> {
        let cfg = cfg.validate()?;
        if programs.len() > cfg.cores {
            return Err(ConfigError::ZeroCount {
                what: "cores (fewer cores than programs)",
            });
        }
        programs.resize_with(cfg.cores, Program::empty);
        let mesh = Mesh::new(&cfg);
        let mcs = (0..cfg.mcs)
            .map(|_| {
                McTiming::new(
                    cfg.mc_parallelism,
                    cfg.nvram_read_latency,
                    cfg.nvram_write_latency,
                )
            })
            .collect();
        let interleave = Interleave::new(cfg.llc_banks, cfg.mcs);
        let bank_shift = interleave.bank_shift;
        let l1s = (0..cfg.cores)
            .map(|_| CacheArray::new(cfg.l1_sets(), cfg.l1_assoc, 0))
            .collect();
        let banks = (0..cfg.llc_banks)
            .map(|_| BankState {
                array: CacheArray::new(cfg.llc_sets(), cfg.llc_assoc, bank_shift),
                dir: pbm_cache::Directory::new(),
            })
            .collect();
        let sem = BarrierSemantics::for_model(cfg.persistency, cfg.bsp_epoch_size);
        Ok(System {
            sem,
            mesh,
            mcs,
            nvram: NvramDevice::new(),
            log: UndoLog::new(),
            cores: programs
                .into_iter()
                .map(|program| CoreState {
                    program,
                    ..CoreState::default()
                })
                .collect(),
            l1s,
            banks,
            protocol: Protocol::new(&cfg),
            steps: Vec::new(),
            locks: Locks::new(cfg.cores),
            waiters: BTreeMap::new(),
            log_ready: FastMap::default(),
            queue: EventQueue::new(),
            events: 0,
            scratch: Scratch::default(),
            interleave,
            now: Cycle::ZERO,
            token_seq: 1,
            checker: None,
            stats: SimStats::new(),
            obs: Observer::disabled(),
            perturb: None,
            cfg,
        })
    }

    /// Enables crash-consistency instrumentation: the NVRAM journals every
    /// durable write and the [`ConsistencyChecker`] records every committed
    /// store and inter-thread dependence. Call before [`System::run`].
    pub fn enable_checking(&mut self) {
        self.nvram = NvramDevice::with_history();
        self.checker = Some(ConsistencyChecker::new());
    }

    /// Enables cycle-stamped event tracing into an in-memory buffer,
    /// preserving any sampler already attached. Retrieve the events after
    /// the run with [`System::take_trace_events`].
    pub fn enable_tracing(&mut self) {
        let old = std::mem::take(&mut self.obs);
        let mut obs = Observer::buffering();
        if let Some(s) = old.into_sampler() {
            obs = obs.with_sampler(s);
        }
        self.obs = obs;
    }

    /// Enables periodic metric sampling every `interval` cycles,
    /// preserving the current sink. Retrieve the rows after the run with
    /// [`System::take_metric_samples`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_metrics(&mut self, interval: Cycle) {
        let old = std::mem::take(&mut self.obs);
        self.obs = old.with_sampler(Sampler::every(interval));
    }

    /// Drains the trace events recorded so far (empty unless
    /// [`System::enable_tracing`] was called).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.obs.take_events()
    }

    /// Drains the metric samples collected so far (empty unless
    /// [`System::enable_metrics`] was called).
    pub fn take_metric_samples(&mut self) -> Vec<MetricSample> {
        self.obs.take_samples()
    }

    /// Records a trace event at the current cycle. The kinds are plain
    /// `Copy` structs, so constructing one unconditionally costs nothing
    /// observable; the observer's `enabled` flag gates the sink call.
    #[inline]
    pub(crate) fn emit(&mut self, kind: TraceEventKind) {
        if self.obs.is_enabled() {
            self.obs.record(TraceEvent::new(self.now, kind));
        }
    }

    /// Sends a message on the mesh, tracing the injection when enabled.
    /// All protocol traffic goes through here (never `self.mesh.send`
    /// directly) so the NoC track in exported traces is complete.
    #[inline]
    pub(crate) fn send_msg(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        at: Cycle,
    ) -> Cycle {
        let arrival = self.mesh.send(src, dst, class, at);
        if self.obs.is_enabled() {
            self.obs.record(TraceEvent::new(
                at,
                TraceEventKind::NocSend {
                    src,
                    dst,
                    class,
                    arrival,
                },
            ));
        }
        arrival
    }

    /// Takes a metric sample if the sampler is attached and due at the
    /// current cycle. Called whenever simulated time advances.
    #[inline]
    pub(crate) fn maybe_sample(&mut self) {
        if !self.obs.sample_due(self.now) {
            return;
        }
        let sample = MetricSample {
            cycle: self.now,
            mc_queue_depth: self.mcs.iter().map(|m| m.pending_writes(self.now)).sum(),
            nvram_writes: self.stats.nvram_writes
                + self.stats.log_writes
                + self.stats.checkpoint_writes,
            nvram_reads: self.stats.nvram_reads,
            noc_messages: self.mesh.message_count(),
            epochs_persisted: self.stats.epochs_persisted,
            stalled_cores: self.cores.iter().filter(|c| c.stalled.is_some()).count() as u32,
            online_stall_cycles: self.stats.online_persist_stall_cycles,
            barrier_stall_cycles: self.stats.barrier_stall_cycles,
        };
        self.obs.push_sample(sample);
    }

    /// A barrier, split or drain closed `closed`: emits the
    /// epoch-lifecycle pair (the closed epoch completes, the next one
    /// opens) and restarts the core's hardware epoch-cut count.
    pub(crate) fn epoch_cut(&mut self, closed: EpochTag) {
        if self.obs.is_enabled() {
            self.emit(TraceEventKind::EpochPhase {
                tag: closed,
                phase: EpochPhase::Completed,
            });
            self.emit(TraceEventKind::EpochPhase {
                tag: EpochTag::new(closed.core, closed.epoch.next()),
                phase: EpochPhase::Ongoing,
            });
        }
        self.cores[closed.core.index()].epoch_stores = 0;
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// True when the configuration buffers epochs (lazy barrier variants).
    pub(crate) fn epochs_enabled(&self) -> bool {
        self.cfg.barrier.is_buffered()
    }

    /// True if stores to `line` get an epoch tag under this configuration.
    pub(crate) fn is_tagged_line(&self, line: LineAddr) -> bool {
        self.epochs_enabled()
            && (self.sem.needs_logging() // BSP: whole-execution persistence
                || line.base().as_u64() < VOLATILE_BASE)
    }

    /// The LLC bank owning `line`.
    pub(crate) fn bank_of(&self, line: LineAddr) -> BankId {
        BankId::new(self.interleave.bank(line) as u32)
    }

    /// Mints a globally unique store token carrying `value` in its low
    /// 24 bits.
    pub(crate) fn mint_token(&mut self, value: u32) -> LineValue {
        let t = (self.token_seq << 24) | u64::from(value & 0x00FF_FFFF);
        self.token_seq += 1;
        t
    }

    /// Extracts the application value from a store token.
    pub fn token_value(token: LineValue) -> u32 {
        (token & 0x00FF_FFFF) as u32
    }

    /// Runs every core's program to completion (including the final epoch
    /// drain) and returns the aggregated statistics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation wedges: a core is parked on an epoch whose
    /// flush never completes (a protocol bug), or spins on a lock that is
    /// never released (a workload bug). The message lists every core's
    /// state and every held lock.
    pub fn run(&mut self) -> SimStats {
        if self.obs.is_enabled() && self.epochs_enabled() {
            // Open every core's first epoch on the trace timeline.
            for i in 0..self.cores.len() {
                let tag = self.protocol.current_tag(CoreId::new(i as u32));
                self.emit(TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Ongoing,
                });
            }
        }
        for i in 0..self.cores.len() {
            self.queue
                .schedule(Cycle::ZERO, Event::Step(CoreId::new(i as u32)));
        }
        self.drain_queue();
        let unfinished: Vec<usize> = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.finish.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(
            unfinished.is_empty(),
            "simulation wedged at {} with cores {unfinished:?} unfinished\n{}",
            self.now,
            self.debug_state()
        );
        self.drain_epochs();
        self.finalize_stats();
        self.stats.clone()
    }

    fn drain_queue(&mut self) {
        let first = self.events;
        let budget = self.event_budget();
        while let Some((t, key, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            if self.locks.any_spinning() {
                self.sample_skipped_retries(t);
            }
            self.now = t;
            self.mesh.advance_to(t);
            self.maybe_sample();
            self.events += 1;
            if self.events - first > budget {
                panic!(
                    "event budget exceeded at {} — livelock suspected\n{}",
                    self.now,
                    self.debug_state()
                );
            }
            let plain = self.queue.plain();
            self.locks.plain_pop(key);
            match ev {
                Event::Step(core) => self.step_core(core),
                Event::LockRetry => {
                    let core = self.locks.take_woken(t, key);
                    self.step_core(core);
                }
                Event::BankAck(core, epoch, bank) => {
                    self.emit(TraceEventKind::BankAck {
                        tag: EpochTag::new(core, epoch),
                        bank,
                    });
                    self.run_protocol(|p, out| p.bank_ack(core, epoch, out));
                }
            }
            if self.locks.any_spinning() && self.queue.plain() != plain {
                self.locks.log_pop(t, self.queue.plain());
            }
        }
    }

    /// Events popped from the event queue so far: one per core step, bank
    /// acknowledgement and lock retry that an unlock scheduled. A lock
    /// retry that loses while the lock stays held is not an event.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// A generous livelock watchdog: no healthy run needs more than this
    /// many events (ops x constant factor plus slack).
    fn event_budget(&self) -> u64 {
        let ops: u64 = self
            .cores
            .iter()
            .map(|c| c.program.len() as u64)
            .sum::<u64>()
            .max(1);
        ops * 2_000 + 10_000_000
    }

    /// One line per core, then one per held lock with its parked spinners,
    /// for wedge/livelock panics.
    fn debug_state(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, c) in self.cores.iter().enumerate() {
            let (current, frontier, deps) = self.protocol.diagnostics(CoreId::new(i as u32));
            let _ = writeln!(
                s,
                "C{i}: pc={}/{} stalled={:?} current={current} frontier={frontier} deps={deps:?}",
                c.pc,
                c.program.len(),
                c.stalled,
            );
        }
        let _ = writeln!(s, "waiters: {:?}", self.waiters.keys().collect::<Vec<_>>());
        s.push_str(&self.locks.describe());
        s
    }

    /// After all cores retire, flush every remaining epoch so the durable
    /// state is complete (counted under [`pbm_types::FlushReason::Drain`]).
    fn drain_epochs(&mut self) {
        if !self.epochs_enabled() {
            return;
        }
        for i in 0..self.cores.len() {
            let core = CoreId::new(i as u32);
            // Close the ongoing epoch if it dirtied anything.
            let tag = self.protocol.current_tag(core);
            let has_lines = self.l1s[i].epoch_len(tag) > 0
                || self.banks.iter().any(|b| b.array.epoch_len(tag) > 0);
            self.run_protocol(|p, out| p.drain(core, has_lines, out));
        }
        self.drain_queue();
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self
            .cores
            .iter()
            .filter_map(|c| c.finish)
            .map(Cycle::as_u64)
            .max()
            .unwrap_or(0);
        self.stats.noc_messages = self.mesh.message_count();
        self.stats.noc_flits = self.mesh.flit_count();
        self.protocol.add_counts(&mut self.stats);
    }

    /// Durable NVRAM state restricted to the persistent region, at `at`.
    /// Requires [`System::enable_checking`] before the run.
    pub fn persistent_snapshot_at(&self, at: Cycle) -> DurableSnapshot {
        let snap = self.nvram.snapshot_at(at);
        let lines: HashMap<LineAddr, LineValue> = snap
            .iter()
            .filter(|(l, _)| l.base().as_u64() < VOLATILE_BASE || self.sem.needs_logging())
            .collect();
        DurableSnapshot::new(lines, at)
    }

    /// Calls `check` on every distinct crash state of the last run, in
    /// ascending crash-cycle order, and returns how many crash points it
    /// checked. Stops at the first `Err` and returns it with its cycle.
    ///
    /// The state a crash leaves behind only changes when an NVRAM write
    /// completes, and, under BSP, when an undo-log record becomes durable
    /// or its epoch commits. The points are cycle 0, each of those
    /// instants, and the cycle before each (covering either snapshot
    /// inclusivity convention); a crash at any other cycle leaves the
    /// state of the greatest point before it. Under BSP `check` sees the
    /// state after undo-log recovery.
    ///
    /// # Panics
    ///
    /// Panics unless [`System::enable_checking`] was called before the run.
    pub fn crash_sweep<E>(
        &self,
        mut check: impl FnMut(Cycle, &DurableSnapshot) -> Result<(), E>,
    ) -> Result<usize, (Cycle, E)> {
        let bsp = self.sem.needs_logging();
        let mut points = vec![Cycle::ZERO];
        points.extend(self.persist_times());
        if bsp {
            for rec in self.log.records() {
                points.push(rec.durable_at);
                points.extend(rec.committed_at);
            }
        }
        for i in 0..points.len() {
            points.push(Cycle::new(points[i].as_u64().saturating_sub(1)));
        }
        points.sort_unstable();
        points.dedup();
        for &at in &points {
            let mut snap = self.persistent_snapshot_at(at);
            if bsp {
                snap = snap.recover_with(&self.log).0;
            }
            check(at, &snap).map_err(|e| (at, e))?;
        }
        Ok(points.len())
    }

    /// The distinct cycles at which an NVRAM write completed, sorted
    /// ascending. These cover NVRAM writes only: under BSP the undo log
    /// changes the recovered state at other instants too, and
    /// [`System::crash_sweep`] visits the exhaustive set.
    ///
    /// # Panics
    ///
    /// Panics unless [`System::enable_checking`] was called before the run.
    pub fn persist_times(&self) -> Vec<Cycle> {
        self.nvram.persist_times()
    }

    /// The consistency checker journal (populated when checking was
    /// enabled).
    pub fn checker(&self) -> Option<&ConsistencyChecker> {
        self.checker.as_ref()
    }

    /// NoC head-flit queueing per virtual network (congestion diagnostic).
    pub fn noc_wait_cycles(&self) -> [u64; 3] {
        self.mesh.wait_cycles()
    }

    /// The undo log (BSP bulk mode).
    pub fn undo_log(&self) -> &UndoLog {
        &self.log
    }

    /// Durable value of `line` right now (post-run inspection).
    pub fn durable_line(&self, line: LineAddr) -> Option<LineValue> {
        self.nvram.peek(line)
    }

    /// Initializes durable memory before the run: the line containing
    /// `addr` holds a token carrying `value`, durable at cycle 0, and a
    /// clean copy is installed in its LLC bank (warm start — the paper's
    /// workloads run to completion from a warmed cache, so cold compulsory
    /// misses should not dominate). Workloads use this to lay out
    /// pre-existing persistent data structures.
    pub fn preload(&mut self, addr: Addr, value: u32) {
        let line = addr.line();
        let token = self.mint_token(value);
        self.nvram.persist(line, token, Cycle::ZERO);
        let bank = self.bank_of(line);
        let bi = bank.index();
        // Room is guaranteed unless a workload preloads more than the LLC
        // holds; fall back to leaving the line in NVRAM only.
        if !self.banks[bi].array.contains(line)
            && matches!(self.banks[bi].array.victim_for(line), VictimChoice::Room)
        {
            self.banks[bi].array.install(CacheLine::clean(line, token));
        }
        if let Some(ck) = self.checker.as_mut() {
            ck.record_initial(line, token);
        }
    }

    // ------------------------------------------------------------------
    // Core stepping
    // ------------------------------------------------------------------

    fn step_core(&mut self, core: CoreId) {
        let i = core.index();
        if self.cores[i].finish.is_some() {
            return;
        }
        // Account a stall that just ended.
        if let Some((since, kind)) = self.cores[i].stalled.take() {
            let waited = self.now.saturating_sub(since).as_u64();
            match kind {
                StallKind::OnlinePersist => self.stats.online_persist_stall_cycles += waited,
                StallKind::Barrier => self.stats.barrier_stall_cycles += waited,
            }
            self.emit(TraceEventKind::StallEnd {
                core,
                kind,
                waited: Cycle::new(waited),
            });
        }
        // A hardware epoch cut is due before anything else.
        if self.cores[i].pending_auto_barrier {
            if let StepOutcome::Next(at) = self.exec_barrier(core) {
                self.cores[i].pending_auto_barrier = false;
                self.queue.schedule(at, Event::Step(core));
            }
            return;
        }
        let Some(&op) = self.cores[i].program.ops().get(self.cores[i].pc) else {
            self.cores[i].finish = Some(self.now);
            return;
        };
        match self.exec_op(core, op) {
            StepOutcome::Next(at) => {
                self.cores[i].pc += 1;
                self.queue.schedule(at, Event::Step(core));
            }
            StepOutcome::RetryAt(at) => {
                self.queue.schedule(at, Event::Step(core));
            }
            StepOutcome::Blocked => {
                // Parked; a persist wakeup or an unlock reschedules it.
            }
        }
    }

    fn exec_op(&mut self, core: CoreId, op: Op) -> StepOutcome {
        let now = self.now;
        match op {
            Op::Compute(cycles) => StepOutcome::Next(now + u64::from(cycles)),
            Op::TxEnd => {
                self.stats.transactions += 1;
                StepOutcome::Next(now + 1)
            }
            Op::Load(addr) => match self.do_access(core, addr.line(), None) {
                crate::access::Access::Done { at } => {
                    self.stats.loads += 1;
                    self.stats.load_cycles += (at - now).as_u64();
                    StepOutcome::Next(at)
                }
                crate::access::Access::Blocked { tag } => self.park_access(core, tag),
            },
            Op::Store(addr, value) => self.exec_store(core, addr, value),
            Op::Barrier => self.exec_barrier(core),
            Op::Lock(addr) => self.exec_lock(core, addr),
            Op::Unlock(addr) => self.exec_unlock(core, addr),
        }
    }

    fn exec_store(&mut self, core: CoreId, addr: Addr, value: u32) -> StepOutcome {
        let i = core.index();
        let now = self.now;
        // Write-buffer occupancy.
        let wb = &mut self.cores[i].wb;
        while wb.peek().is_some_and(|&Reverse(t)| t <= now.as_u64()) {
            wb.pop();
        }
        if wb.len() >= self.cfg.write_buffer {
            let Reverse(first_free) = *wb.peek().expect("buffer nonempty");
            return StepOutcome::RetryAt(Cycle::new(first_free));
        }
        match self.do_access(core, addr.line(), Some(value)) {
            crate::access::Access::Done { at } => {
                self.stats.stores += 1;
                if self.cfg.barrier == BarrierKind::WriteThrough {
                    // Strict persistency rule S2: the core may not proceed
                    // until this store is durable.
                    return StepOutcome::Next(at);
                }
                self.cores[i].wb.push(Reverse(at.as_u64()));
                self.cores[i].epoch_stores += 1;
                if let Some(cut) = self.sem.hardware_epoch_size() {
                    if self.cores[i].epoch_stores >= cut {
                        self.cores[i].pending_auto_barrier = true;
                    }
                }
                StepOutcome::Next(now + 1)
            }
            crate::access::Access::Blocked { tag } => self.park_access(core, tag),
        }
    }

    pub(crate) fn exec_barrier(&mut self, core: CoreId) -> StepOutcome {
        let i = core.index();
        if !self.epochs_enabled() {
            // NP / write-through: a barrier is a no-op (WT is already
            // strictly ordered).
            self.stats.barriers += 1;
            return StepOutcome::Next(self.now + 1);
        }
        // Resuming an EP-stalled barrier: the epoch was already closed.
        if let Some(e) = self.cores[i].barrier_wait {
            if self.protocol.is_persisted(EpochTag::new(core, e)) {
                self.cores[i].barrier_wait = None;
                return StepOutcome::Next(self.now + 1);
            }
            let tag = EpochTag::new(core, e);
            self.park(core, tag, StallKind::Barrier);
            return StepOutcome::Blocked;
        }
        let closed = match self.run_protocol(|p, out| p.barrier(core, out)) {
            Barrier::Closed(closed) => closed,
            Barrier::WindowFull(frontier) => {
                // 3-bit epoch-id window is full: wait for the frontier.
                self.park(core, frontier, StallKind::Barrier);
                return StepOutcome::Blocked;
            }
        };
        self.stats.barriers += 1;
        let tag = EpochTag::new(core, closed);
        if self.sem.barrier_stalls() && !self.protocol.is_persisted(tag) {
            // EP rule E2: the barrier itself waits for the epoch, whose
            // flush the protocol has requested.
            self.cores[i].barrier_wait = Some(closed);
            self.park(core, tag, StallKind::Barrier);
            return StepOutcome::Blocked;
        }
        StepOutcome::Next(self.now + 1)
    }

    /// Borrows a core-list scratch buffer from the pool (empty).
    pub(crate) fn take_core_buf(&mut self) -> Vec<CoreId> {
        self.scratch.core_bufs.pop().unwrap_or_default()
    }

    /// Returns a core-list scratch buffer to the pool.
    pub(crate) fn put_core_buf(&mut self, mut buf: Vec<CoreId>) {
        buf.clear();
        self.scratch.core_bufs.push(buf);
    }

    /// Parks `core` until `tag` persists (the flush request must already be
    /// in flight — the protocol call that reported the wait arranges that).
    pub(crate) fn park(&mut self, core: CoreId, tag: EpochTag, kind: StallKind) {
        debug_assert!(
            !self.protocol.is_persisted(tag),
            "parking on an already-persisted epoch"
        );
        self.stats.parks += 1;
        self.cores[core.index()].stalled = Some((self.now, kind));
        self.emit(TraceEventKind::StallBegin { core, kind, tag });
        self.waiters.entry(tag).or_default().push(core);
    }

    /// Parks `core` until the epoch a blocked access waits for persists.
    pub(crate) fn park_access(&mut self, core: CoreId, tag: EpochTag) -> StepOutcome {
        self.park(core, tag, StallKind::OnlinePersist);
        StepOutcome::Blocked
    }
}

/// Outcome of executing one op or a hardware epoch cut (a barrier never
/// retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    Next(Cycle),
    RetryAt(Cycle),
    Blocked,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_masks_equal_the_modulo_forms() {
        let counts = [1usize, 2, 4, 8, 16, 32, 64];
        let lines = (0..4096u64).chain((0..64).map(|i| u64::MAX >> i));
        for banks in counts {
            for mcs in counts {
                let il = Interleave::new(banks, mcs);
                for raw in lines.clone() {
                    let line = LineAddr::new(raw);
                    let (b, m) = (banks as u64, mcs as u64);
                    assert_eq!(il.bank(line), raw % b, "{banks} banks, line {raw}");
                    assert_eq!(il.mc(line), raw / b % m, "{banks}x{mcs}, line {raw}");
                }
            }
        }
    }

    #[test]
    fn wedge_reports_list_waiters_in_tag_order() {
        // A wedge's panic text lands in corpus artifacts, so it must not
        // depend on hash order: park in reverse tag order, print sorted.
        let mut sys = System::new(SystemConfig::small_test(), Vec::new()).expect("valid");
        let tags: Vec<EpochTag> = (0..4)
            .map(|c| EpochTag::new(CoreId::new(c), EpochId::new(0)))
            .collect();
        for (c, &tag) in tags.iter().rev().enumerate() {
            sys.park(CoreId::new(c as u32), tag, StallKind::Barrier);
        }
        let waiters = format!("\nwaiters: {tags:?}\n");
        assert!(
            sys.debug_state().contains(&waiters),
            "{}",
            sys.debug_state()
        );
    }
}
