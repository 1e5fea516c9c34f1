//! Behavioural tests of the full simulator: epoch lifecycle, conflicts,
//! barrier variants, durability, and determinism.

use pbm_sim::{Program, ProgramBuilder, System};
use pbm_types::{Addr, BarrierKind, Cycle, PersistencyKind, SystemConfig};

fn cfg(barrier: BarrierKind) -> SystemConfig {
    let mut c = SystemConfig::small_test();
    c.barrier = barrier;
    c.persistency = PersistencyKind::BufferedEpoch;
    c
}

/// A single-threaded program: two epochs of two stores each.
fn two_epochs() -> Program {
    let mut b = ProgramBuilder::new();
    b.store(Addr::new(0), 1)
        .store(Addr::new(64), 2)
        .barrier()
        .store(Addr::new(128), 3)
        .store(Addr::new(192), 4)
        .barrier();
    b.build()
}

#[test]
fn counts_ops() {
    let mut sys = System::new(cfg(BarrierKind::LbPp), vec![two_epochs()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.stores, 4);
    assert_eq!(stats.barriers, 2);
    assert_eq!(stats.loads, 0);
    assert!(stats.cycles > 0);
}

#[test]
fn epochs_persist_under_every_lazy_barrier() {
    for kind in BarrierKind::LAZY_VARIANTS {
        let mut sys = System::new(cfg(kind), vec![two_epochs()]).unwrap();
        let stats = sys.run();
        assert_eq!(stats.epochs_created, 2, "{kind}");
        assert_eq!(stats.epochs_persisted, 2, "{kind}");
        // All four lines must be durable after the run (drain included).
        for l in 0..4u64 {
            assert!(
                sys.durable_line(pbm_types::LineAddr::new(l)).is_some(),
                "{kind}: line {l} not durable"
            );
        }
    }
}

#[test]
fn np_persists_nothing_eagerly() {
    let mut sys = System::new(cfg(BarrierKind::NoPersistency), vec![two_epochs()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.epochs_persisted, 0);
    assert_eq!(stats.barriers, 2, "barriers retire as no-ops");
    // Small working set: nothing evicted, nothing written to NVRAM.
    assert_eq!(stats.nvram_writes, 0);
}

#[test]
fn write_through_persists_every_store() {
    let mut c = cfg(BarrierKind::WriteThrough);
    c.persistency = PersistencyKind::Strict;
    let mut sys = System::new(c, vec![two_epochs()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.nvram_writes, 4);
    for l in 0..4u64 {
        assert!(sys.durable_line(pbm_types::LineAddr::new(l)).is_some());
    }
}

#[test]
fn write_through_is_much_slower_than_np() {
    let prog = {
        let mut b = ProgramBuilder::new();
        for i in 0..64u64 {
            b.store(Addr::new(i * 64), i as u32);
        }
        b.build()
    };
    let mut np = System::new(cfg(BarrierKind::NoPersistency), vec![prog.clone()]).unwrap();
    let mut c = cfg(BarrierKind::WriteThrough);
    c.persistency = PersistencyKind::Strict;
    let mut wt = System::new(c, vec![prog]).unwrap();
    let t_np = np.run().cycles;
    let t_wt = wt.run().cycles;
    assert!(
        t_wt > 4 * t_np,
        "write-through ({t_wt}) should be far slower than NP ({t_np})"
    );
}

#[test]
fn intra_thread_conflict_detected_and_resolved() {
    // Write line 0 in epoch 0, then again in epoch 1 -> intra conflict
    // under LB (epoch 0 not yet persisted when the second store issues).
    let mut b = ProgramBuilder::new();
    b.store(Addr::new(0), 1).barrier().store(Addr::new(0), 2);
    let mut sys = System::new(cfg(BarrierKind::Lb), vec![b.build()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.conflicts_intra, 1);
    assert!(stats.online_persist_stall_cycles > 0);
    assert_eq!(stats.epochs_conflict_flushed, 1);
    // Final value durable.
    let tok = sys.durable_line(pbm_types::LineAddr::new(0)).unwrap();
    assert_eq!(System::token_value(tok), 2);
}

#[test]
fn proactive_flush_avoids_the_intra_conflict() {
    // Same program, but with compute between the epochs so PF has time to
    // finish persisting epoch 0 before the second store.
    let mut b = ProgramBuilder::new();
    b.store(Addr::new(0), 1)
        .barrier()
        .compute(20_000)
        .store(Addr::new(0), 2);
    let prog = b.build();

    let mut lb = System::new(cfg(BarrierKind::Lb), vec![prog.clone()]).unwrap();
    let lb_stats = lb.run();
    assert_eq!(
        lb_stats.conflicts_intra, 1,
        "LB flushes only on the conflict"
    );

    let mut pf = System::new(cfg(BarrierKind::LbPf), vec![prog]).unwrap();
    let pf_stats = pf.run();
    assert_eq!(pf_stats.conflicts_intra, 0, "PF persisted epoch 0 already");
    // Epoch 0 flushed proactively; the trailing (never-closed) epoch is
    // flushed by the end-of-run drain.
    assert_eq!(pf_stats.epochs_proactive_flushed, 1);
    assert_eq!(pf_stats.epochs_persisted, 2);
}

#[test]
fn inter_thread_conflict_load() {
    // Core 0 writes line 0 and closes the epoch; core 1 reads line 0 much
    // later (after compute delay) -> inter-thread conflict under LB.
    let mut p0 = ProgramBuilder::new();
    p0.store(Addr::new(0), 7).barrier().compute(200_000);
    let mut p1 = ProgramBuilder::new();
    p1.compute(50_000).load(Addr::new(0));
    let mut sys = System::new(cfg(BarrierKind::Lb), vec![p0.build(), p1.build()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.conflicts_inter, 1);
    assert_eq!(stats.idt_recorded, 0, "LB has no IDT registers");
}

#[test]
fn idt_records_instead_of_flushing() {
    let mut p0 = ProgramBuilder::new();
    p0.store(Addr::new(0), 7).barrier().compute(200_000);
    let mut p1 = ProgramBuilder::new();
    p1.compute(50_000)
        .load(Addr::new(0))
        .store(Addr::new(64), 1);
    let mut sys = System::new(cfg(BarrierKind::LbIdt), vec![p0.build(), p1.build()]).unwrap();
    sys.enable_checking();
    let stats = sys.run();
    assert_eq!(stats.conflicts_inter, 1, "one conflict, counted once");
    assert!(stats.idt_recorded >= 1, "dependence recorded in registers");
    // The recorded dependence reaches the checker's happens-before graph.
    let hb = sys.checker().unwrap().hb_graph();
    assert_eq!(hb.edge_count(), 1);
    assert!(hb.is_acyclic());
}

#[test]
fn dependence_on_ongoing_epoch_splits_it() {
    // Core 0 writes line 0 and keeps its epoch ongoing (no barrier).
    // Core 1 reads line 0 -> source epoch is ongoing -> split (§3.3).
    let mut p0 = ProgramBuilder::new();
    p0.store(Addr::new(0), 7).compute(300_000);
    let mut p1 = ProgramBuilder::new();
    p1.compute(50_000).load(Addr::new(0));
    let mut sys = System::new(cfg(BarrierKind::LbPp), vec![p0.build(), p1.build()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.conflicts_inter, 1);
    assert_eq!(stats.deadlock_splits, 1);
}

#[test]
fn backpressure_limits_inflight_epochs() {
    // More barriers than the 8-epoch window without any flush demand: the
    // 9th epoch must wait for the frontier to persist.
    let mut b = ProgramBuilder::new();
    for i in 0..12u64 {
        b.store(Addr::new(i * 64), i as u32).barrier();
    }
    let mut sys = System::new(cfg(BarrierKind::Lb), vec![b.build()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.epochs_created, 12);
    assert_eq!(stats.epochs_persisted, 12);
    assert!(
        stats.barrier_stall_cycles > 0,
        "window back-pressure must stall at least one barrier"
    );
}

#[test]
fn epoch_persistency_stalls_at_barriers() {
    let mut c = cfg(BarrierKind::LbPp);
    c.persistency = PersistencyKind::Epoch;
    let mut sys = System::new(c, vec![two_epochs()]).unwrap();
    let stats = sys.run();
    assert!(stats.barrier_stall_cycles > 0, "EP rule E2 stalls the core");
    // And the barriers make everything durable before the program ends.
    assert_eq!(stats.epochs_persisted, 2);
}

#[test]
fn bep_barrier_does_not_stall_without_pressure() {
    let mut sys = System::new(cfg(BarrierKind::LbPp), vec![two_epochs()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.barrier_stall_cycles, 0, "BEP barriers are buffered");
}

#[test]
fn bsp_hardware_cuts_epochs() {
    let mut c = cfg(BarrierKind::LbPp);
    c.persistency = PersistencyKind::BufferedStrictBulk;
    c.bsp_epoch_size = 4;
    let mut b = ProgramBuilder::new();
    for i in 0..16u64 {
        b.store(Addr::new(i * 64), i as u32);
    }
    let mut sys = System::new(c, vec![b.build()]).unwrap();
    let stats = sys.run();
    // 16 stores / 4 per epoch = 4 hardware barriers.
    assert_eq!(stats.barriers, 4);
    assert!(stats.log_writes > 0, "undo logging active");
    assert!(stats.checkpoint_writes > 0, "checkpointing active");
}

#[test]
fn bsp_nolog_skips_log_traffic() {
    let mut c = cfg(BarrierKind::LbPp);
    c.persistency = PersistencyKind::BufferedStrictBulk;
    c.bsp_epoch_size = 4;
    c.logging = false;
    let mut b = ProgramBuilder::new();
    for i in 0..16u64 {
        b.store(Addr::new(i * 64), i as u32);
    }
    let mut sys = System::new(c, vec![b.build()]).unwrap();
    let stats = sys.run();
    assert_eq!(stats.log_writes, 0);
    assert!(stats.checkpoint_writes > 0, "checkpointing is independent");
}

#[test]
fn locks_provide_mutual_exclusion_and_cost() {
    use pbm_sim::VOLATILE_BASE;
    let lock = Addr::new(VOLATILE_BASE);
    let mk = |val: u32| {
        let mut b = ProgramBuilder::new();
        for _ in 0..10 {
            b.lock(lock)
                .store(Addr::new(0), val)
                .unlock(lock)
                .compute(100);
        }
        b.build()
    };
    let mut sys = System::new(cfg(BarrierKind::LbPp), vec![mk(1), mk(2)]).unwrap();
    let stats = sys.run();
    // 2 cores x 10 critical sections x (lock store + data store + unlock).
    assert_eq!(stats.stores, 60);
    assert!(stats.cycles > 0);
}

#[test]
fn deterministic_across_runs() {
    let progs = || vec![two_epochs(), two_epochs()];
    let mut a = System::new(cfg(BarrierKind::LbPp), progs()).unwrap();
    let mut b = System::new(cfg(BarrierKind::LbPp), progs()).unwrap();
    let sa = a.run();
    let sb = b.run();
    assert_eq!(sa, sb, "identical inputs must give identical statistics");
}

#[test]
fn crash_snapshots_respect_epoch_order() {
    // Under LB++ with checking on, the BEP invariant must hold at *every*
    // crash cycle.
    let mut p0 = ProgramBuilder::new();
    for i in 0..6u64 {
        p0.store(Addr::new(i * 64), i as u32)
            .store(Addr::new((i + 8) * 64), i as u32)
            .barrier();
    }
    let mut p1 = ProgramBuilder::new();
    for i in 16..20u64 {
        p1.store(Addr::new(i * 64), i as u32).barrier();
        p1.load(Addr::new(0)); // pulls in cross-thread dependences
    }
    let mut sys = System::new(cfg(BarrierKind::LbPp), vec![p0.build(), p1.build()]).unwrap();
    sys.enable_checking();
    sys.run();
    let ck = sys.checker().unwrap();
    sys.crash_sweep(|_, snap| ck.check_bep(snap))
        .unwrap_or_else(|(at, v)| panic!("violation at {at}: {v}"));
}

#[test]
fn bsp_crash_recovery_is_atomic() {
    let mut c = cfg(BarrierKind::LbPp);
    c.persistency = PersistencyKind::BufferedStrictBulk;
    c.bsp_epoch_size = 3;
    let mut b = ProgramBuilder::new();
    for i in 0..12u64 {
        b.store(Addr::new(i * 64), i as u32);
    }
    let mut sys = System::new(c, vec![b.build()]).unwrap();
    sys.enable_checking();
    sys.run();
    let ck = sys.checker().unwrap();
    sys.crash_sweep(|_, recovered| ck.check_bsp_recovered(recovered))
        .unwrap_or_else(|(at, v)| panic!("violation at {at}: {v}"));
}

#[test]
fn invalidating_flush_is_slower() {
    // Repeated reuse of flushed lines: clflush-style flushes evict them, so
    // the re-accesses (loads, which block the core) go back to NVRAM.
    let prog = {
        let mut b = ProgramBuilder::new();
        for round in 0..8 {
            for i in 0..8u64 {
                b.store(Addr::new(i * 64), round as u32);
            }
            b.barrier();
            b.compute(20_000); // let PF finish
            for i in 0..8u64 {
                b.load(Addr::new(i * 64));
            }
        }
        b.build()
    };
    let mut fast_cfg = cfg(BarrierKind::LbPp);
    fast_cfg.flush_mode = pbm_types::FlushMode::NonInvalidating;
    let mut slow_cfg = cfg(BarrierKind::LbPp);
    slow_cfg.flush_mode = pbm_types::FlushMode::Invalidating;
    let t_fast = System::new(fast_cfg, vec![prog.clone()])
        .unwrap()
        .run()
        .cycles;
    let t_slow = System::new(slow_cfg, vec![prog]).unwrap().run().cycles;
    assert!(
        t_slow > t_fast,
        "clflush-style ({t_slow}) must be slower than clwb-style ({t_fast})"
    );
}

#[test]
fn preloaded_state_is_readable_and_checkable() {
    let mut sys = System::new(cfg(BarrierKind::LbPp), vec![Program::empty()]).unwrap();
    sys.enable_checking();
    sys.preload(Addr::new(0), 42);
    let stats = sys.run();
    assert_eq!(stats.stores, 0);
    let tok = sys.durable_line(pbm_types::LineAddr::new(0)).unwrap();
    assert_eq!(System::token_value(tok), 42);
    // Preloaded lines must not be phantom values.
    let snap = sys.persistent_snapshot_at(Cycle::new(1_000_000));
    sys.checker().unwrap().check_bep(&snap).unwrap();
}
