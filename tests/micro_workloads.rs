//! Workload-level integration tests: every micro-benchmark and application
//! proxy runs to completion under every barrier with sane statistics, and
//! the Figure 10 queue-recovery invariant holds end to end.

use pbm::prelude::*;
use pbm::workloads::apps::{self, AppParams};
use pbm::workloads::micro::{self, MicroParams};

fn cfg4(barrier: BarrierKind, persistency: PersistencyKind) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.barrier = barrier;
    cfg.persistency = persistency;
    cfg
}

#[test]
fn every_micro_under_every_barrier() {
    let mut params = MicroParams::tiny();
    params.threads = 4;
    for wl in micro::all(&params) {
        for barrier in BarrierKind::LAZY_VARIANTS {
            let mut sys = System::new(
                cfg4(barrier, PersistencyKind::BufferedEpoch),
                wl.programs.clone(),
            )
            .expect("valid");
            wl.apply_preloads(&mut sys);
            let stats = sys.run();
            assert_eq!(
                stats.transactions,
                (params.threads * params.ops_per_thread) as u64,
                "{} under {barrier}",
                wl.name
            );
            assert_eq!(
                stats.epochs_created, stats.epochs_persisted,
                "{} under {barrier}: every closed epoch must persist",
                wl.name
            );
        }
    }
}

#[test]
fn every_app_proxy_under_bsp() {
    let mut params = AppParams::tiny();
    params.threads = 4;
    params.ops_per_thread = 200;
    for wl in apps::all(&params) {
        let mut cfg = cfg4(BarrierKind::LbPp, PersistencyKind::BufferedStrictBulk);
        cfg.bsp_epoch_size = 50;
        let mut sys = System::new(cfg, wl.programs.clone()).expect("valid");
        let stats = sys.run();
        assert!(stats.stores > 0, "{}", wl.name);
        assert!(stats.barriers > 0, "{}: hardware must cut epochs", wl.name);
        assert!(stats.log_writes > 0, "{}: undo logging active", wl.name);
        assert!(
            stats.checkpoint_writes >= stats.barriers * 8,
            "{}: 512 B checkpoint = 8 lines per epoch",
            wl.name
        );
    }
}

/// The Figure 10 recovery property, end to end: at every crash state
/// (`System::crash_sweep`), every queue entry below the durable head
/// pointer is fully durable.
#[test]
fn queue_insert_recovery_invariant() {
    const ENTRY: u64 = 512;
    let slots = 16u64;
    let head_ptr = Addr::new(slots * ENTRY);
    let slot = |i: u64| Addr::new((i % slots) * ENTRY);

    let mut b = ProgramBuilder::new();
    for i in 0..6u64 {
        b.store_span(slot(i), ENTRY, (100 + i) as u32);
        b.barrier();
        b.store(head_ptr, (i + 1) as u32);
        b.barrier();
    }
    let mut cfg = cfg4(BarrierKind::LbPp, PersistencyKind::BufferedEpoch);
    cfg.cores = 1;
    cfg.llc_banks = 4;
    cfg.mcs = 2;
    let mut sys = System::new(cfg, vec![b.build()]).expect("valid");
    sys.enable_checking();
    sys.preload(head_ptr, 0);
    sys.run();

    let mut last_head = 0;
    sys.crash_sweep(|_, snap| {
        let head = snap
            .line(head_ptr.line())
            .map(|tok| u64::from(System::token_value(tok)))
            .unwrap_or(0);
        for i in 0..head {
            for l in 0..(ENTRY / 64) {
                let value = snap.line(slot(i).offset(l * 64).line());
                if value.map(System::token_value) != Some(100 + i as u32) {
                    return Err(format!("head={head} but entry {i} line {l} is {value:?}"));
                }
            }
        }
        last_head = head;
        Ok(())
    })
    .unwrap_or_else(|(at, e)| panic!("crash@{at}: {e}"));
    assert_eq!(last_head, 6, "the sweep ends at the fully inserted queue");
}

/// Micro-benchmark runs stay BEP-consistent under the *unoptimized* barrier
/// too — correctness is barrier-independent; only performance differs.
#[test]
fn lb_is_correct_just_slower() {
    let params = MicroParams::tiny();
    let wl = micro::sps(&params);
    let mut sys = System::new(
        cfg4(BarrierKind::Lb, PersistencyKind::BufferedEpoch),
        wl.programs.clone(),
    )
    .expect("valid");
    sys.enable_checking();
    wl.apply_preloads(&mut sys);
    sys.run();
    let ck = sys.checker().expect("checking");
    sys.crash_sweep(|_, snap| ck.check_bep(snap))
        .unwrap_or_else(|(at, v)| panic!("violation at {at}: {v}"));
}

#[test]
fn app_profiles_differ_in_traffic() {
    let mut params = AppParams::tiny();
    params.threads = 2;
    params.ops_per_thread = 2000;
    let run = |name: &str| {
        let wl = apps::build(apps::profile(name).expect("known"), &params);
        let mut sys = System::new(
            cfg4(BarrierKind::NoPersistency, PersistencyKind::BufferedEpoch),
            wl.programs.clone(),
        )
        .expect("valid");
        sys.run()
    };
    let ssca2 = run("ssca2");
    let freqmine = run("freqmine");
    assert!(
        ssca2.stores > 2 * freqmine.stores,
        "ssca2 must be far more write-intensive ({} vs {})",
        ssca2.stores,
        freqmine.stores
    );
}
