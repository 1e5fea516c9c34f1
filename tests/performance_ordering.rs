//! Cross-configuration performance-ordering tests: the qualitative
//! relationships the paper's evaluation rests on must hold in the model.

use pbm::prelude::*;
use pbm::workloads::micro::{self, MicroParams};

fn micro_cfg(barrier: BarrierKind) -> SystemConfig {
    let mut cfg = SystemConfig::micro48();
    cfg.cores = 8;
    cfg.llc_banks = 8; // one bank tile per core
    cfg.mesh_rows = 2;
    cfg.barrier = barrier;
    cfg.persistency = PersistencyKind::BufferedEpoch;
    cfg.mcs = 4;
    cfg.validate().expect("valid")
}

fn micro_params() -> MicroParams {
    let mut p = MicroParams::paper();
    p.threads = 8;
    p.ops_per_thread = 24;
    p
}

fn run_micro(name: &str, barrier: BarrierKind) -> SimStats {
    let params = micro_params();
    let wl = micro::all(&params)
        .into_iter()
        .find(|w| w.name == name)
        .expect("known workload");
    let mut sys = System::new(micro_cfg(barrier), wl.programs.clone()).expect("valid");
    wl.apply_preloads(&mut sys);
    sys.run()
}

#[test]
fn lbpp_beats_lb_on_conflict_heavy_queue() {
    let lb = run_micro("queue", BarrierKind::Lb);
    let lbpp = run_micro("queue", BarrierKind::LbPp);
    assert!(
        lbpp.cycles < lb.cycles,
        "LB++ ({}) must beat LB ({}) on the queue micro-benchmark",
        lbpp.cycles,
        lb.cycles
    );
    // And it does so by reducing online persists, not by doing less work.
    assert_eq!(lbpp.transactions, lb.transactions);
    assert!(lbpp.online_persist_stall_cycles < lb.online_persist_stall_cycles);
}

#[test]
fn pf_reduces_conflict_flushes() {
    let lb = run_micro("hash", BarrierKind::Lb);
    let pf = run_micro("hash", BarrierKind::LbPf);
    assert!(
        pf.conflicting_epoch_pct() < lb.conflicting_epoch_pct(),
        "PF must reduce the conflicting-epoch share ({} vs {})",
        pf.conflicting_epoch_pct(),
        lb.conflicting_epoch_pct()
    );
    assert!(pf.epochs_proactive_flushed > 0);
    assert_eq!(
        lb.epochs_proactive_flushed, 0,
        "LB never flushes proactively"
    );
}

#[test]
fn ep_is_slower_than_bep() {
    let params = micro_params();
    let wl = micro::queue(&params);
    let mut bep_cfg = micro_cfg(BarrierKind::LbPp);
    bep_cfg.persistency = PersistencyKind::BufferedEpoch;
    let mut ep_cfg = micro_cfg(BarrierKind::LbPp);
    ep_cfg.persistency = PersistencyKind::Epoch;
    let mut bep = System::new(bep_cfg, wl.programs.clone()).expect("valid");
    wl.apply_preloads(&mut bep);
    let mut ep = System::new(ep_cfg, wl.programs.clone()).expect("valid");
    wl.apply_preloads(&mut ep);
    let bep_stats = bep.run();
    let ep_stats = ep.run();
    assert!(
        ep_stats.cycles > bep_stats.cycles,
        "EP barriers stall (rule E2); BEP must be faster ({} vs {})",
        ep_stats.cycles,
        bep_stats.cycles
    );
}

#[test]
fn write_through_is_the_worst_case() {
    use pbm::workloads::apps::{self, AppParams};
    let mut params = AppParams::tiny();
    params.threads = 4;
    params.ops_per_thread = 400;
    let wl = apps::build(apps::profile("ssca2").expect("known"), &params);

    let mut np_cfg = SystemConfig::small_test();
    np_cfg.barrier = BarrierKind::NoPersistency;
    let mut np = System::new(np_cfg, wl.programs.clone()).expect("valid");
    let np_stats = np.run();

    let mut wt_cfg = SystemConfig::small_test();
    wt_cfg.barrier = BarrierKind::WriteThrough;
    wt_cfg.persistency = PersistencyKind::Strict;
    let mut wt = System::new(wt_cfg, wl.programs.clone()).expect("valid");
    let wt_stats = wt.run();

    let slowdown = wt_stats.cycles as f64 / np_stats.cycles as f64;
    assert!(
        slowdown > 3.0,
        "write-through strict persistency should be several times slower, got {slowdown:.2}x"
    );
}

#[test]
fn clwb_beats_clflush() {
    let params = micro_params();
    let wl = micro::hash(&params);
    let run = |mode: FlushMode| {
        let mut cfg = micro_cfg(BarrierKind::LbPp);
        cfg.flush_mode = mode;
        let mut sys = System::new(cfg, wl.programs.clone()).expect("valid");
        wl.apply_preloads(&mut sys);
        sys.run()
    };
    let clwb = run(FlushMode::NonInvalidating);
    let clflush = run(FlushMode::Invalidating);
    assert!(
        clflush.cycles > clwb.cycles,
        "invalidating flushes evict the working set: {} vs {}",
        clflush.cycles,
        clwb.cycles
    );
    assert!(
        clflush.nvram_reads > clwb.nvram_reads,
        "evicted lines must be re-fetched from NVRAM"
    );
}

#[test]
fn bigger_bsp_epochs_coalesce_more() {
    use pbm::workloads::apps::{self, AppParams};
    let mut params = AppParams::tiny();
    params.threads = 4;
    params.ops_per_thread = 3000;
    let wl = apps::build(apps::profile("radix").expect("known"), &params);
    let run = |size: u64| {
        let mut cfg = SystemConfig::small_test();
        cfg.barrier = BarrierKind::Lb;
        cfg.persistency = PersistencyKind::BufferedStrictBulk;
        cfg.bsp_epoch_size = size;
        let mut sys = System::new(cfg, wl.programs.clone()).expect("valid");
        sys.run()
    };
    let small = run(100);
    let big = run(2000);
    assert!(
        big.nvram_writes < small.nvram_writes,
        "larger epochs coalesce repeated stores: {} vs {} line writes",
        big.nvram_writes,
        small.nvram_writes
    );
    assert!(big.barriers < small.barriers);
}
