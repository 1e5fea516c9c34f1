//! Crash-consistency integration tests: random multithreaded workloads,
//! every barrier variant, every crash state (`System::crash_sweep`) — the
//! persistency model's guarantees must hold at all of them.
//!
//! The random-program generator lives in `pbm_workloads::random` and is
//! shared with the `pbm-check` fuzzing harness, so any program shape that
//! exposes a bug here can be replayed there (and vice versa).

use pbm::prelude::*;
use pbm_workloads::random::{programs, random_programs, RandomProgramParams};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn small_cfg(barrier: BarrierKind, persistency: PersistencyKind) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.barrier = barrier;
    cfg.persistency = persistency;
    cfg
}

fn check_bep_programs(programs: Vec<Program>, barrier: BarrierKind, seed: u64) {
    let cfg = small_cfg(barrier, PersistencyKind::BufferedEpoch);
    let mut sys = System::new(cfg, programs).expect("valid config");
    sys.enable_checking();
    sys.run();
    let ck = sys.checker().expect("checking enabled");
    sys.crash_sweep(|_, snap| ck.check_bep(snap))
        .unwrap_or_else(|(at, v)| panic!("{barrier} seed={seed}: violation at {at}: {v}"));
    // The recorded dependence graph must be acyclic (deadlock freedom).
    assert!(ck.hb_graph().is_acyclic(), "{barrier}: cyclic dependences");
}

/// A snapshot's durable lines, comparable across crash cycles.
fn durable_lines(snap: &DurableSnapshot) -> BTreeMap<u64, u64> {
    snap.iter().map(|(line, v)| (line.as_u64(), v)).collect()
}

fn check_bep_everywhere(seed: u64, barrier: BarrierKind) {
    let cfg = small_cfg(barrier, PersistencyKind::BufferedEpoch);
    let params = RandomProgramParams::mixed(60, 16);
    check_bep_programs(random_programs(seed, cfg.cores, &params), barrier, seed);
}

#[test]
fn bep_invariants_hold_for_every_lazy_barrier() {
    for barrier in BarrierKind::LAZY_VARIANTS {
        for seed in [1u64, 2, 3] {
            check_bep_everywhere(seed, barrier);
        }
    }
}

#[test]
fn bsp_recovery_is_atomic_for_every_lazy_barrier() {
    for barrier in BarrierKind::LAZY_VARIANTS {
        for seed in [11u64, 12] {
            let mut cfg = small_cfg(barrier, PersistencyKind::BufferedStrictBulk);
            cfg.bsp_epoch_size = 7;
            let params = RandomProgramParams::mixed(50, 12);
            let programs = random_programs(seed, cfg.cores, &params);
            let mut sys = System::new(cfg, programs).expect("valid config");
            sys.enable_checking();
            sys.run();
            let ck = sys.checker().expect("checking enabled");
            sys.crash_sweep(|_, recovered| ck.check_bsp_recovered(recovered))
                .unwrap_or_else(|(at, v)| panic!("{barrier} seed={seed}: violation at {at}: {v}"));
        }
    }
}

#[test]
fn strict_write_through_persists_in_program_order() {
    let cfg = small_cfg(BarrierKind::WriteThrough, PersistencyKind::Strict);
    let mut b = ProgramBuilder::new();
    for i in 0..20u64 {
        b.store(Addr::new(i * 64), i as u32);
    }
    let mut sys = System::new(cfg, vec![b.build()]).expect("valid config");
    sys.enable_checking();
    sys.run();
    // At every crash point, the durable lines must be a prefix of program
    // order: if line k is durable, lines 0..k are durable.
    sys.crash_sweep(|_, snap| {
        let durable: Vec<bool> = (0..20u64)
            .map(|i| snap.line(LineAddr::new(i)).is_some())
            .collect();
        let first_gap = durable.iter().position(|d| !d).unwrap_or(20);
        if durable[first_gap..].iter().all(|d| !d) {
            Ok(())
        } else {
            Err(durable)
        }
    })
    .unwrap_or_else(|(at, durable)| {
        panic!("crash@{at}: durable set {durable:?} is not a program-order prefix")
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seeds, random crash points: LB++ never violates BEP.
    #[test]
    fn prop_lbpp_bep_consistency(
        case in programs(4, RandomProgramParams::mixed(60, 16))
    ) {
        let (seed, progs) = case;
        check_bep_programs(progs, BarrierKind::LbPp, seed);
    }

    /// The sweep is exhaustive: under BEP and BSP alike, a crash at any
    /// cycle leaves the durable (under BSP, recovered) state the sweep
    /// visited at the greatest point at or before that cycle. This is what
    /// lets every crash-consistency check skip sampled crash cycles.
    #[test]
    fn prop_crash_sweep_is_exhaustive(
        case in programs(4, RandomProgramParams::mixed(40, 8)),
        barrier in 0..BarrierKind::LAZY_VARIANTS.len(),
        bsp in any::<bool>(),
        crashes in proptest::collection::vec(any::<u64>(), 16..32),
    ) {
        let (seed, progs) = case;
        let barrier = BarrierKind::LAZY_VARIANTS[barrier];
        let persistency = if bsp {
            PersistencyKind::BufferedStrictBulk
        } else {
            PersistencyKind::BufferedEpoch
        };
        let mut cfg = small_cfg(barrier, persistency);
        cfg.bsp_epoch_size = 7;
        let mut sys = System::new(cfg, progs).expect("valid config");
        sys.enable_checking();
        sys.run();
        let mut visited = Vec::new();
        let points = sys
            .crash_sweep(|at, snap| {
                visited.push((at, durable_lines(snap)));
                Ok::<_, ()>(())
            })
            .unwrap();
        prop_assert_eq!(points, visited.len());
        // Crash anywhere from cycle 0 to just past the last point.
        let end = visited.last().expect("cycle 0 is a point").0.as_u64() + 2;
        for c in crashes {
            let at = Cycle::new(c % end);
            let (point, want) = &visited[visited.partition_point(|(p, _)| *p <= at) - 1];
            let mut snap = sys.persistent_snapshot_at(at);
            if bsp {
                snap = snap.recover_with(sys.undo_log()).0;
            }
            prop_assert_eq!(
                &durable_lines(&snap),
                want,
                "{} {:?} seed={}: crash at {} differs from sweep point {}",
                barrier,
                persistency,
                seed,
                at,
                point
            );
        }
    }

    /// Determinism: a workload produces identical statistics on every run.
    #[test]
    fn prop_runs_are_deterministic(seed in 0u64..50) {
        let mk = || {
            let cfg = small_cfg(BarrierKind::LbPp, PersistencyKind::BufferedEpoch);
            let params = RandomProgramParams::mixed(40, 8);
            let programs = random_programs(seed, cfg.cores, &params);
            let mut sys = System::new(cfg, programs).expect("valid config");
            sys.run()
        };
        prop_assert_eq!(mk(), mk());
    }
}
