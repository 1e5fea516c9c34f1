//! One fuzzing case: a (programs, barrier, persistency, schedule) tuple,
//! run to completion and checked at every crash cycle that matters.
//!
//! The crash sweep is exhaustive, not sampled: [`System::crash_sweep`]
//! visits every distinct durable (under BSP, recovered) state the run
//! could leave behind.

use pbm_sim::{Program, SchedulePerturbation, System};
use pbm_types::{BarrierKind, Cycle, PersistencyKind, SimStats, SystemConfig};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// A fully-specified, replayable fuzzing case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// One program per core (shorter vectors leave the remaining cores
    /// idle).
    pub programs: Vec<Program>,
    /// Barrier implementation under test.
    pub barrier: BarrierKind,
    /// Persistency model under test.
    pub persistency: PersistencyKind,
    /// Schedule-perturbation seed (`None` = the exact default schedule).
    pub perturb_seed: Option<u64>,
    /// Hardware epoch size for BSP bulk mode (ignored otherwise).
    pub bsp_epoch_size: u64,
    /// Program-generator seed, carried for provenance and replay labels.
    pub seed: u64,
}

impl CaseSpec {
    /// The simulated configuration this case runs under: the 4-core test
    /// system with the case's barrier/persistency axes applied.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.barrier = self.barrier;
        cfg.persistency = self.persistency;
        cfg.bsp_epoch_size = self.bsp_epoch_size;
        cfg
    }

    /// Total operation count across all cores (the shrinker's metric).
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Program::len).sum()
    }
}

/// Why a case failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The persistency model's guarantee was violated at a crash cycle.
    Violation {
        /// The crash cycle the violating snapshot was taken at.
        at: u64,
        /// The violation, rendered (`ConsistencyViolation`'s `Display`).
        message: String,
    },
    /// The recorded inter-thread dependence graph has a cycle.
    CyclicDependences,
    /// The simulation panicked (wedge, livelock watchdog, protocol
    /// assertion).
    Panic(String),
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Violation { at, message } => {
                write!(f, "violation at crash cycle {at}: {message}")
            }
            FailureKind::CyclicDependences => write!(f, "cyclic inter-thread dependences"),
            FailureKind::Panic(msg) => write!(f, "simulation panicked: {msg}"),
        }
    }
}

/// What a passing case yields (the campaign's differential stage compares
/// these across barrier kinds).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOk {
    /// The run's statistics.
    pub stats: SimStats,
    /// Number of crash cycles the sweep checked.
    pub crash_points: usize,
    /// Final drained persistent state as `line -> stored value` (token
    /// sequence numbers stripped, so the map is comparable across runs).
    pub final_values: BTreeMap<u64, u32>,
    /// Distinct `(epoch, line)` write pairs the checker journaled — the
    /// lower bound on flush writes the §4 zero-extra-writes argument is
    /// stated against.
    pub epoch_lines: u64,
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Suppresses the default panic message on this thread for the guard's
/// lifetime. Fuzzing deliberately provokes panics (that is how injected
/// protocol bugs surface), and a hook firing per case would swamp the
/// output of every worker.
fn quiet_panics() -> impl Drop {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            QUIET.with(|q| q.set(false));
        }
    }
    QUIET.with(|q| q.set(true));
    Guard
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Builds `spec`'s system with checking on, applies its perturbation and
/// runs it. A panic (wedge, livelock watchdog, protocol assertion, invalid
/// case) becomes [`FailureKind::Panic`] instead of unwinding further.
pub(crate) fn simulate(spec: &CaseSpec) -> Result<(System, SimStats), FailureKind> {
    let _quiet = quiet_panics();
    panic::catch_unwind(AssertUnwindSafe(|| {
        let mut sys = System::new(spec.config(), spec.programs.clone()).expect("valid config");
        sys.enable_checking();
        if let Some(seed) = spec.perturb_seed {
            sys.set_perturbation(&SchedulePerturbation::from_seed(seed));
        }
        let stats = sys.run();
        (sys, stats)
    }))
    .map_err(|payload| FailureKind::Panic(panic_message(payload)))
}

/// Runs one case end to end: simulate, then check the model's guarantee
/// at every distinct crash state ([`System::crash_sweep`]).
pub fn run_case(spec: &CaseSpec) -> Result<CaseOk, FailureKind> {
    let (sys, stats) = simulate(spec)?;
    let ck = sys.checker().expect("checking enabled");
    if !ck.hb_graph().is_acyclic() {
        return Err(FailureKind::CyclicDependences);
    }
    let bsp = spec.persistency == PersistencyKind::BufferedStrictBulk;
    let crash_points = sys
        .crash_sweep(|_, snap| {
            if bsp {
                ck.check_bsp_recovered(snap)
            } else {
                ck.check_bep(snap)
            }
        })
        .map_err(|(at, v)| FailureKind::Violation {
            at: at.as_u64(),
            message: v.to_string(),
        })?;
    let final_values = sys
        .persistent_snapshot_at(Cycle::new(u64::MAX))
        .iter()
        .map(|(line, token)| (line.as_u64(), System::token_value(token)))
        .collect();
    Ok(CaseOk {
        stats,
        crash_points,
        final_values,
        epoch_lines: ck.epoch_line_write_count() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_workloads::random::{random_programs, RandomProgramParams};

    fn spec(barrier: BarrierKind, persistency: PersistencyKind, seed: u64) -> CaseSpec {
        let params = RandomProgramParams::mixed(30, 8);
        CaseSpec {
            programs: random_programs(seed, 4, &params),
            barrier,
            persistency,
            perturb_seed: None,
            bsp_epoch_size: 7,
            seed,
        }
    }

    #[test]
    fn clean_design_passes_bep_and_bsp() {
        let ok = run_case(&spec(BarrierKind::LbPp, PersistencyKind::BufferedEpoch, 42))
            .expect("no violation");
        assert!(ok.crash_points > 2, "sweep found persist boundaries");
        assert!(!ok.final_values.is_empty(), "stores drained");
        let ok = run_case(&spec(
            BarrierKind::Lb,
            PersistencyKind::BufferedStrictBulk,
            43,
        ))
        .unwrap();
        assert!(ok.stats.log_writes > 0, "BSP logged");
    }

    #[test]
    fn perturbed_schedule_preserves_architectural_results() {
        let base = run_case(&spec(BarrierKind::LbPp, PersistencyKind::BufferedEpoch, 7)).unwrap();
        let mut jittered = spec(BarrierKind::LbPp, PersistencyKind::BufferedEpoch, 7);
        jittered.perturb_seed = Some(99);
        let perturbed = run_case(&jittered).expect("still consistent");
        assert_eq!(base.final_values, perturbed.final_values);
        assert_eq!(base.stats.stores, perturbed.stats.stores);
    }

    #[test]
    fn panics_are_reported_not_propagated() {
        // An unvalidatable config panic is simulated via a program that the
        // watchdog would reject is hard to build cheaply; instead check the
        // plumbing directly.
        let _quiet = quiet_panics();
        let caught = panic::catch_unwind(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(panic_message(caught), "boom 1");
    }
}
