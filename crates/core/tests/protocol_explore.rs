//! Exhaustive small-scope check of the cross-core flush protocol.
//!
//! A breadth-first explorer over [`Protocol`] — the same code the
//! simulator runs — with 2 cores, 2 LLC banks, up to 3 completed epochs
//! per core, one IDT register pair per epoch (so overflow is reachable)
//! and a 2-epoch in-flight window (so back-pressure is reachable). From
//! every reachable state it tries each nondeterministic step:
//!
//! * a persist barrier on a core that is not parked;
//! * an inter-thread conflict c→c′ against any unpersisted epoch of c′;
//! * the delivery of any one pending `BankAck`;
//! * a drain request on a core.
//!
//! and checks, on the steps the protocol emits:
//!
//! * per-core in-order persist;
//! * `PersistCMP` only after `llc_banks` `BankAck`s;
//! * no epoch persists before a source it depends on;
//! * no deadlock: a state with a requested, unpersisted epoch has a
//!   pending `BankAck`, and a parked core waits on a requested epoch.
//!
//! A protocol panic counts as a violation too. Under `--features
//! bug-inject` the explorer must find `PrematureBankAck`,
//! `SkipDeadlockSplit` and `DropIdtEdge`, and prints each one's shortest
//! counterexample as a step list.

use pbm_core::{Barrier, Protocol, Step};
use pbm_types::{BarrierKind, CoreId, EpochId, EpochTag, SystemConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

const CORES: usize = 2;
const BANKS: usize = 2;
/// Epochs per core, the ongoing one included: a step that would open a
/// fourth is disabled.
const MAX_EPOCHS: u64 = 3;

/// The injected-bug switch is process-global: the clean and the buggy
/// explorations must not overlap.
static BUG_SWITCH: Mutex<()> = Mutex::new(());

/// One nondeterministic step of the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Action {
    Barrier(u32),
    Conflict { requestor: u32, source: EpochTag },
    BankAck(EpochTag),
    Drain(u32),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Barrier(c) => write!(f, "barrier on C{c}"),
            Action::Conflict { requestor, source } => {
                write!(f, "conflict: C{requestor} touches a line of {source}")
            }
            Action::BankAck(tag) => write!(f, "one BankAck for {tag}"),
            Action::Drain(c) => write!(f, "drain C{c}"),
        }
    }
}

/// The protocol plus the environment the explorer models around it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    protocol: Protocol,
    /// `BankAck`s in flight, per flushing epoch.
    pending: BTreeMap<EpochTag, usize>,
    /// The epoch each core is parked on.
    parked: [Option<EpochTag>; CORES],
    /// Journaled dependences `(source, dependent)` whose source has not
    /// persisted yet.
    deps: BTreeSet<(EpochTag, EpochTag)>,
    /// Requested, unpersisted epochs.
    requested: BTreeSet<EpochTag>,
    /// Epochs persisted so far, per core.
    persisted: [u64; CORES],
}

fn core(c: u32) -> CoreId {
    CoreId::new(c)
}

fn config(barrier: BarrierKind) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.cores = CORES;
    cfg.llc_banks = BANKS;
    cfg.idt_pairs = 1;
    cfg.inflight_epochs = 2;
    cfg.barrier = barrier;
    cfg
}

impl State {
    fn initial(barrier: BarrierKind) -> Self {
        State {
            protocol: Protocol::new(&config(barrier)),
            pending: BTreeMap::new(),
            parked: [None; CORES],
            deps: BTreeSet::new(),
            requested: BTreeSet::new(),
            persisted: [0; CORES],
        }
    }

    fn current(&self, c: u32) -> EpochId {
        self.protocol.current_tag(core(c)).epoch
    }

    /// Every step enabled in this state.
    fn actions(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for c in 0..CORES as u32 {
            let free = self.parked[c as usize].is_none();
            if free && self.current(c).as_u64() + 1 < MAX_EPOCHS {
                out.push(Action::Barrier(c));
            }
            out.push(Action::Drain(c));
            if !free {
                continue;
            }
            let dependent = self.protocol.current_tag(core(c));
            for d in (0..CORES as u32).filter(|&d| d != c) {
                let current = self.current(d).as_u64();
                for e in self.persisted[d as usize]..=current {
                    let source = EpochTag::new(core(d), EpochId::new(e));
                    // A conflict on the ongoing epoch splits it, opening
                    // another; one whose dependence is already journaled
                    // changes nothing but statistics.
                    let in_scope = e < current || current + 1 < MAX_EPOCHS;
                    let repeat = self.deps.contains(&(source, dependent));
                    if in_scope && !repeat {
                        out.push(Action::Conflict {
                            requestor: c,
                            source,
                        });
                    }
                }
            }
        }
        out.extend(self.pending.keys().map(|&t| Action::BankAck(t)));
        out
    }

    /// Applies `action`, checking every property on the way. Returns the
    /// epoch the acting core must now wait for, or the violation.
    fn apply(&mut self, action: Action, steps: &mut Vec<Step>) -> Result<Option<EpochTag>, String> {
        steps.clear();
        let protocol = &mut self.protocol;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| match action {
            Action::Barrier(c) => match protocol.barrier(core(c), steps) {
                Barrier::Closed(_) => None,
                Barrier::WindowFull(tag) => Some(tag),
            },
            Action::Conflict { requestor, source } => {
                (!protocol.conflict(core(requestor), source, steps)).then_some(source)
            }
            Action::BankAck(tag) => {
                protocol.bank_ack(tag.core, tag.epoch, steps);
                None
            }
            Action::Drain(c) => {
                protocol.drain(core(c), false, steps);
                None
            }
        }));
        let wait = outcome.map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("protocol panicked: {msg}")
        })?;
        if let Action::BankAck(tag) = action {
            let left = self.pending.get_mut(&tag).expect("enabled ack");
            *left -= 1;
            if *left == 0 {
                self.pending.remove(&tag);
            }
        }
        for &step in steps.iter() {
            self.observe(step)?;
        }
        if let (Some(tag), Action::Barrier(c) | Action::Conflict { requestor: c, .. }) =
            (wait, action)
        {
            if !self.protocol.is_persisted(tag) {
                self.parked[c as usize] = Some(tag);
            }
        }
        if !self.requested.is_empty() && self.pending.is_empty() {
            return Err(format!(
                "deadlock: {:?} requested, no BankAck pending",
                self.requested
            ));
        }
        for tag in self.parked.iter().flatten() {
            if !self.requested.contains(tag) {
                return Err(format!("deadlock: a core waits on {tag}, never requested"));
            }
        }
        Ok(wait)
    }

    /// Checks one emitted step against the properties and tracks it.
    fn observe(&mut self, step: Step) -> Result<(), String> {
        match step {
            Step::Requested(tag, _) => {
                self.requested.insert(tag);
            }
            Step::IdtRecord(source, dependent) => {
                self.deps.insert((source, dependent));
            }
            Step::Flush(tag, _) => {
                self.pending.insert(tag, BANKS);
            }
            Step::PersistCmp(tag) => {
                if let Some(left) = self.pending.get(&tag) {
                    let acks = BANKS - left;
                    return Err(format!(
                        "PersistCMP for {tag} after {acks} of {BANKS} BankAcks"
                    ));
                }
            }
            Step::Persisted(tag, _) => {
                let next = &mut self.persisted[tag.core.index()];
                if tag.epoch.as_u64() != *next {
                    return Err(format!("{tag} persisted out of order (expected E{next})"));
                }
                *next += 1;
                if let Some((source, _)) = self.deps.iter().find(|(_, d)| *d == tag) {
                    return Err(format!("{tag} persisted before its source {source}"));
                }
                self.deps.retain(|(s, _)| *s != tag);
                self.requested.remove(&tag);
            }
            Step::Wake(tag) => {
                for p in &mut self.parked {
                    if *p == Some(tag) {
                        *p = None;
                    }
                }
            }
            Step::Closed(_) | Step::Split(_) | Step::Conflict(..) | Step::IdtOverflow(..) => {}
        }
        Ok(())
    }
}

/// What one exploration found.
struct Report {
    states: usize,
    /// Every kind of step the protocol emitted somewhere, plus
    /// `window-full` if a barrier hit back-pressure.
    emitted: BTreeSet<&'static str>,
    /// The first violation, with the shortest step list reaching it.
    violation: Option<(String, Vec<Action>)>,
}

fn step_kind(step: &Step) -> &'static str {
    match step {
        Step::Requested(..) => "requested",
        Step::Closed(_) => "closed",
        Step::Split(_) => "split",
        Step::Conflict(..) => "conflict",
        Step::IdtRecord(..) => "idt-record",
        Step::IdtOverflow(..) => "idt-overflow",
        Step::Flush(..) => "flush",
        Step::PersistCmp(_) => "persist-cmp",
        Step::Persisted(..) => "persisted",
        Step::Wake(_) => "wake",
    }
}

/// Breadth-first search from the initial state; stops at the first
/// violation, whose path is then a shortest counterexample.
fn explore(barrier: BarrierKind) -> Report {
    let initial = State::initial(barrier);
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut parent: Vec<Option<(usize, Action)>> = vec![None];
    let mut states = vec![initial.clone()];
    index.insert(initial, 0);
    let mut queue = VecDeque::from([0]);
    let mut emitted = BTreeSet::new();
    let mut steps = Vec::new();
    let path_to = |parent: &[Option<(usize, Action)>], mut at: usize, last: Action| {
        let mut path = vec![last];
        while let Some((p, a)) = parent[at] {
            path.push(a);
            at = p;
        }
        path.reverse();
        path
    };
    while let Some(at) = queue.pop_front() {
        for action in states[at].actions() {
            let mut next = states[at].clone();
            let result = next.apply(action, &mut steps);
            emitted.extend(steps.iter().map(step_kind));
            if let (Ok(Some(_)), Action::Barrier(_)) = (&result, action) {
                emitted.insert("window-full");
            }
            if let Err(why) = result {
                return Report {
                    states: states.len(),
                    emitted,
                    violation: Some((why, path_to(&parent, at, action))),
                };
            }
            if !index.contains_key(&next) {
                index.insert(next.clone(), states.len());
                parent.push(Some((at, action)));
                queue.push_back(states.len());
                states.push(next);
            }
        }
    }
    Report {
        states: states.len(),
        emitted,
        violation: None,
    }
}

#[test]
fn every_lazy_barrier_is_clean_over_all_interleavings() {
    let _switch = BUG_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    for (barrier, paths) in [
        (BarrierKind::Lb, &["split", "window-full", "wake"][..]),
        (
            BarrierKind::LbIdt,
            &["split", "window-full", "idt-record", "idt-overflow"][..],
        ),
        (
            BarrierKind::LbPp,
            &["split", "window-full", "idt-record", "idt-overflow"][..],
        ),
    ] {
        let start = Instant::now();
        let report = explore(barrier);
        println!(
            "{barrier}: {} states explored in {:.2?}",
            report.states,
            start.elapsed()
        );
        if let Some((why, path)) = report.violation {
            let steps: Vec<String> = path.iter().map(Action::to_string).collect();
            panic!("{barrier}: {why}\n  after: {}", steps.join("; "));
        }
        for path in paths {
            assert!(
                report.emitted.contains(path),
                "{barrier}: the exploration never reached {path}"
            );
        }
    }
}

#[cfg(feature = "bug-inject")]
#[test]
fn every_protocol_bug_has_a_counterexample() {
    use pbm_types::bug::{self, InjectedBug};

    let _switch = BUG_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    for (bug, barrier) in [
        (InjectedBug::PrematureBankAck, BarrierKind::Lb),
        (InjectedBug::SkipDeadlockSplit, BarrierKind::Lb),
        (InjectedBug::DropIdtEdge, BarrierKind::LbIdt),
    ] {
        bug::set_active(Some(bug));
        let start = Instant::now();
        let report = explore(barrier);
        bug::set_active(None);
        let Some((why, path)) = report.violation else {
            panic!(
                "{bug} under {barrier}: not found in {} states",
                report.states
            );
        };
        println!(
            "{bug} under {barrier}: {why} ({} states, {:.2?})",
            report.states,
            start.elapsed()
        );
        for (k, action) in path.iter().enumerate() {
            println!("  {}. {action}", k + 1);
        }
    }
}
