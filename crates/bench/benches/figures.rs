//! Criterion benches: small-scale versions of the paper's experiments,
//! one group per figure, so `cargo bench` exercises every code path the
//! experiments use (full-scale numbers come from `exp <experiment>`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbm_bench::run_one;
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::apps::{self, AppParams};
use pbm_workloads::micro::{self, MicroParams};

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::micro48();
    cfg.cores = 8;
    cfg.llc_banks = 8;
    cfg.mesh_rows = 2;
    cfg
}

fn bench_fig11(c: &mut Criterion) {
    let mut params = MicroParams::paper();
    params.threads = 8;
    params.ops_per_thread = 8;
    let mut group = c.benchmark_group("fig11_bep_micro");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for wl in micro::all(&params) {
        for kind in [BarrierKind::Lb, BarrierKind::LbPp] {
            let mut cfg = small_cfg();
            cfg.persistency = PersistencyKind::BufferedEpoch;
            cfg.barrier = kind;
            group.bench_with_input(
                BenchmarkId::new(wl.name, kind),
                &(cfg, wl.clone()),
                |b, (cfg, wl)| b.iter(|| run_one(cfg.clone(), wl)),
            );
        }
    }
    group.finish();
}

fn bench_fig14(c: &mut Criterion) {
    let mut params = AppParams::paper();
    params.threads = 8;
    params.ops_per_thread = 150;
    let mut group = c.benchmark_group("fig14_bsp_apps");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for name in ["intruder", "ssca2"] {
        let wl = apps::build(apps::profile(name).unwrap(), &params);
        for kind in [BarrierKind::Lb, BarrierKind::LbPp] {
            let mut cfg = small_cfg();
            cfg.persistency = PersistencyKind::BufferedStrictBulk;
            cfg.bsp_epoch_size = 1000;
            cfg.barrier = kind;
            group.bench_with_input(
                BenchmarkId::new(name, kind),
                &(cfg, wl.clone()),
                |b, (cfg, wl)| b.iter(|| run_one(cfg.clone(), wl)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig11, bench_fig14);
criterion_main!(benches);
