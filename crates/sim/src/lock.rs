//! Spin locks: `Op::Lock`, `Op::Unlock`, and the cores spinning on them.
//!
//! A core that finds its lock held spins: it retries every `b` cycles
//! ([`backoff`]: `30 + 7c mod 50` for core `c`) and charges `b` to
//! `lock_wait_cycles` each time it loses. The event queue never sees the
//! retries that lose. The losing core parks on the lock line; the unlock
//! computes the spinner's first retry after it, schedules that one retry
//! where the spin loop would have put it in the event order, and charges
//! the skipped retries in bulk. A retry that loses again parks again.
//! Statistics, traces and metric samples equal those of a spin loop that
//! queued every retry.
//!
//! # Where a retry sorts
//!
//! The queue orders events by `(cycle, key)`, and a plain schedule gets
//! the odd key `2n + 1`, where `n` counts the plain schedules before it. A
//! spin loop schedules the retry at cycle `t` while it processes its
//! *parent*, the same core's retry at `t − b` (or the first attempt). So
//! the retry sorts after every event scheduled before that pop and before
//! every event scheduled after it: its key is `2R`, where `R` is the plain
//! schedule count when the parent popped.
//!
//! For a skipped retry, `R` comes from a log of the pops that scheduled
//! plain events. The log is kept only while cores spin and is trimmed to
//! the oldest spinner's last pop. `R` is the count after the last logged
//! pop that precedes the parent. If the parent's cycle had logged pops,
//! the parent's own key decides which ones precede it, and the walk goes
//! back one retry more. So it touches only retry cycles that had pops.
//!
//! Two retries with one cycle and one key sort as their parents popped.
//! With different backoffs, the parent of the retry with the longer
//! backoff popped at an earlier cycle, so that retry goes first. Cores `c`
//! and `c + 50` share a backoff. If their retries share cycles, they keep
//! one relative order for as long as both spin. That order is fixed when
//! the later spin starts, and [`Spin::rank`] records it.

use crate::access::Access;
use crate::event::Event;
use crate::system::{StepOutcome, System};
use pbm_types::{Addr, CoreId, Cycle, LineAddr};
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Cycles between a core's retries of a contended lock.
pub(crate) fn backoff(core: CoreId) -> u64 {
    30 + (u64::from(core.as_u32()) * 7) % 50
}

/// How retries of equal key sort: the longer backoff first, then the
/// lower rank.
type Tie = (Reverse<u64>, u64);

/// Where an event sorts within its cycle: its key, then its tie.
type Order = (u64, Tie);

/// The tie of a plain event, whose key no other event shares.
const PLAIN: Tie = (Reverse(0), 0);

/// A held lock and the spinners parked on it.
#[derive(Debug)]
pub(crate) struct LockLine {
    holder: CoreId,
    parked: Vec<CoreId>,
}

/// A core spinning on a held lock: its retries fall at `at + k * b`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spin {
    /// Cycle of the spin's last retry that popped (the first attempt, or a
    /// woken retry that lost).
    at: u64,
    /// The plain schedule count when that retry popped.
    plain: u64,
    /// Order among spinners of equal backoff whose retries share cycles.
    rank: u64,
    /// The retry an unlock scheduled is still queued.
    woken: bool,
}

/// A pop that scheduled plain events, logged while cores spin.
#[derive(Debug, Clone, Copy)]
struct LoggedPop {
    at: u64,
    order: Order,
    /// The plain schedule count after the pop.
    plain: u64,
}

/// Every lock, spinner and woken retry of a [`System`].
#[derive(Debug)]
pub(crate) struct Locks {
    /// Held locks, in line order.
    lines: BTreeMap<LineAddr, LockLine>,
    /// Per core: the spin in progress.
    spins: Vec<Option<Spin>>,
    /// Cores with a spin in progress.
    spinning: usize,
    /// Queued woken retries as `(cycle, key, core)`, in pop order.
    woken: Vec<(u64, u64, CoreId)>,
    /// Pops that scheduled plain events since the oldest spinner's last
    /// pop, in pop order.
    log: VecDeque<LoggedPop>,
    /// Log length at which the next trim looks for entries to drop.
    trim_at: usize,
    /// Where the event being processed sorts within its cycle.
    current: Order,
}

const TRIM_MIN: usize = 1024;

impl Locks {
    pub(crate) fn new(cores: usize) -> Self {
        Locks {
            lines: BTreeMap::new(),
            spins: vec![None; cores],
            spinning: 0,
            woken: Vec::new(),
            log: VecDeque::new(),
            trim_at: TRIM_MIN,
            current: (0, PLAIN),
        }
    }

    /// True while any core spins (the pop log is being kept).
    #[inline]
    pub(crate) fn any_spinning(&self) -> bool {
        self.spinning > 0
    }

    /// Records that the pop being processed at `at` scheduled plain events,
    /// bringing the count to `plain`.
    pub(crate) fn log_pop(&mut self, at: Cycle, plain: u64) {
        self.log.push_back(LoggedPop {
            at: at.as_u64(),
            order: self.current,
            plain,
        });
        if self.log.len() >= self.trim_at {
            let oldest = self.spins.iter().flatten().map(|s| s.at).min();
            let oldest = oldest.expect("the log is kept only while cores spin");
            while self.log.front().is_some_and(|p| p.at < oldest) {
                self.log.pop_front();
            }
            self.trim_at = TRIM_MIN.max(2 * self.log.len());
        }
    }

    /// The plain count after the last logged pop before cycle `at`, or,
    /// with `order`, before `(at, order)`; 0 if none.
    fn plain_before(&self, at: u64, order: Option<Order>) -> u64 {
        let i = match order {
            None => self.log.partition_point(|p| p.at < at),
            Some(o) => self.log.partition_point(|p| (p.at, p.order) < (at, o)),
        };
        if i == 0 {
            0
        } else {
            self.log[i - 1].plain
        }
    }

    /// True if a logged pop happened at cycle `at`.
    fn logged_at(&self, at: u64) -> bool {
        let i = self.log.partition_point(|p| p.at < at);
        self.log.get(i).is_some_and(|p| p.at == at)
    }

    /// How `core`'s retries sort against other retries of equal key.
    fn tie(&self, core: CoreId) -> Tie {
        let spin = self.spins[core.index()].expect("spinning core");
        (Reverse(backoff(core)), spin.rank)
    }

    /// The key of `core`'s retry at cycle `at`, a cycle after the spin's
    /// last pop on its backoff progression.
    fn retry_key(&self, core: CoreId, at: u64) -> u64 {
        let spin = self.spins[core.index()].expect("spinning core");
        let b = backoff(core);
        let tie = self.tie(core);
        let j = (at - spin.at) / b;
        debug_assert!(j >= 1 && spin.at + j * b == at, "not a retry cycle");
        // The retries before `at` whose cycles had logged pops need their
        // own keys; start from the last one before them whose count the
        // cycle alone decides.
        let mut i = j - 1;
        while i >= 1 && self.logged_at(spin.at + i * b) {
            i -= 1;
        }
        let mut plain = if i == 0 {
            spin.plain
        } else {
            spin.plain.max(self.plain_before(spin.at + i * b, None))
        };
        for m in i + 1..j {
            let order = (2 * plain, tie);
            plain = spin
                .plain
                .max(self.plain_before(spin.at + m * b, Some(order)));
        }
        2 * plain
    }

    /// The rank of a spin `core` starts at `at`, the current pop: after
    /// every same-backoff spinner whose retry at `at` already popped and
    /// before every other one. Ranks halve the gap they split, so a gap
    /// runs out only after 32 nested splits between the same two spins,
    /// which needs three cores of one backoff spinning together, i.e.
    /// more than 100 cores.
    fn new_rank(&self, core: CoreId, at: u64) -> u64 {
        const STEP: u64 = 1 << 32;
        let b = backoff(core);
        // `7c mod 50` repeats every 50 cores and nowhere else.
        let same_backoff = (core.index() % 50..self.spins.len()).step_by(50);
        let (mut before, mut after) = (None::<u64>, None::<u64>);
        for x in same_backoff.filter(|&x| x != core.index()) {
            let Some(s) = self.spins[x] else { continue };
            if s.at % b != at % b {
                continue; // their retries never share a cycle
            }
            let x = CoreId::new(x as u32);
            let popped = s.at == at || (self.retry_key(x, at), self.tie(x)) < self.current;
            if popped {
                before = Some(before.map_or(s.rank, |r| r.max(s.rank)));
            } else {
                after = Some(after.map_or(s.rank, |r| r.min(s.rank)));
            }
        }
        match (before, after) {
            (None, None) => 1 << 63,
            (Some(lo), None) => lo + STEP,
            (None, Some(hi)) => hi - STEP,
            (Some(lo), Some(hi)) => {
                assert!(hi - lo >= 2, "no rank left between {lo} and {hi}");
                lo + (hi - lo) / 2
            }
        }
    }

    /// The event being processed is a plain one with `key`.
    #[inline]
    pub(crate) fn plain_pop(&mut self, key: u64) {
        self.current = (key, PLAIN);
    }

    /// Takes the earliest woken retry, which pops at `at` with `key`.
    pub(crate) fn take_woken(&mut self, at: Cycle, key: u64) -> CoreId {
        let (w_at, w_key, core) = self.woken.remove(0);
        debug_assert_eq!((w_at, w_key), (at.as_u64(), key), "woken retry order");
        self.spins[core.index()]
            .as_mut()
            .expect("woken spinner")
            .woken = false;
        self.current = (key, self.tie(core));
        core
    }

    /// The earliest skipped retry at or after `from`, if any core is parked.
    fn next_skipped_retry(&self, from: u64) -> Option<u64> {
        (0..self.spins.len())
            .filter_map(|x| Some((x, self.spins[x]?)))
            .filter(|(_, s)| !s.woken)
            .map(|(x, s)| {
                let b = backoff(CoreId::new(x as u32));
                s.at + from.saturating_sub(s.at).div_ceil(b).max(1) * b
            })
            .min()
    }

    /// One line per held lock, in line order, for wedge diagnostics.
    pub(crate) fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (line, l) in &self.lines {
            let parked: Vec<String> = l.parked.iter().map(|c| format!("C{}", c.index())).collect();
            let _ = writeln!(
                s,
                "lock {line}: held by C{}, parked spinners [{}]",
                l.holder.index(),
                parked.join(", ")
            );
        }
        s
    }
}

impl System {
    pub(crate) fn exec_lock(&mut self, core: CoreId, addr: Addr) -> StepOutcome {
        let line = addr.line();
        let i = core.index();
        let now = self.now.as_u64();
        let locks = &mut self.locks;
        match locks.lines.get_mut(&line) {
            Some(l) if l.holder != core => {
                // Lost: charge this retry's backoff and park until the
                // unlock schedules the retry that can win.
                l.parked.push(core);
                self.stats.lock_wait_cycles += backoff(core);
                let rank = match locks.spins[i] {
                    Some(spin) => spin.rank,
                    None => {
                        locks.spinning += 1;
                        locks.new_rank(core, now)
                    }
                };
                locks.spins[i] = Some(Spin {
                    at: now,
                    plain: self.queue.plain(),
                    rank,
                    woken: false,
                });
                StepOutcome::Blocked
            }
            _ => {
                // Free, or already held by us (retry after a blocked fill).
                if locks.spins[i].take().is_some() {
                    locks.spinning -= 1;
                    if locks.spinning == 0 {
                        locks.log.clear();
                        locks.trim_at = TRIM_MIN;
                    }
                }
                locks.lines.entry(line).or_insert(LockLine {
                    holder: core,
                    parked: Vec::new(),
                });
                match self.do_access(core, line, Some(1)) {
                    Access::Done { at } => {
                        self.stats.stores += 1;
                        StepOutcome::Next(at)
                    }
                    Access::Blocked { tag } => self.park_access(core, tag),
                }
            }
        }
    }

    pub(crate) fn exec_unlock(&mut self, core: CoreId, addr: Addr) -> StepOutcome {
        let line = addr.line();
        let lock = self.locks.lines.remove(&line);
        debug_assert_eq!(
            lock.as_ref().map(|l| l.holder),
            Some(core),
            "unlock of a lock we don't hold"
        );
        for spinner in lock.map(|l| l.parked).unwrap_or_default() {
            self.wake_spinner(spinner);
        }
        match self.do_access(core, line, Some(0)) {
            Access::Done { .. } => {
                self.stats.stores += 1;
                StepOutcome::Next(self.now + 1)
            }
            Access::Blocked { tag } => self.park_access(core, tag),
        }
    }

    /// The lock `core` spins on was just released: schedule its first
    /// retry after this pop, charging the retries skipped before it.
    fn wake_spinner(&mut self, core: CoreId) {
        let locks = &mut self.locks;
        let spin = locks.spins[core.index()].expect("parked spinner");
        let b = backoff(core);
        let now = self.now.as_u64();
        let mut j = (now - spin.at).div_ceil(b).max(1);
        if spin.at + j * b == now && (locks.retry_key(core, now), locks.tie(core)) < locks.current {
            j += 1; // that retry popped before the unlock and lost
        }
        let at = spin.at + j * b;
        let key = locks.retry_key(core, at);
        self.stats.lock_wait_cycles += (j - 1) * b;
        locks.spins[core.index()].as_mut().expect("parked").woken = true;
        let order = |&(w_at, w_key, c): &(u64, u64, CoreId)| (w_at, w_key, locks.tie(c));
        let me = order(&(at, key, core));
        let pos = locks.woken.partition_point(|w| order(w) < me);
        locks.woken.insert(pos, (at, key, core));
        self.queue
            .schedule_keyed(Cycle::new(at), key, Event::LockRetry);
    }

    /// Takes any metric sample that falls due at a skipped retry before
    /// `next_pop`, as the spin loop would have popped one there.
    pub(crate) fn sample_skipped_retries(&mut self, next_pop: Cycle) {
        while let Some(due) = self.obs.next_sample_at().filter(|&due| due < next_pop) {
            match self.locks.next_skipped_retry(due.as_u64()) {
                Some(at) if at < next_pop.as_u64() => {
                    self.now = Cycle::new(at);
                    self.maybe_sample();
                }
                _ => break,
            }
        }
    }
}
