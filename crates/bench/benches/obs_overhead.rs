//! Overhead of the observability layer on `run_cell`.
//!
//! The contract is that a disabled observer is free: every
//! instrumentation point is one predictable branch, so `disabled` must
//! track the pre-instrumentation baseline within noise (<2%). The
//! `sampled` row shows the metrics sampler's cost, and `prof-out` what
//! that flag costs end to end (trace capture, attribution, and the cell's
//! flame graph and report written to a temporary directory); they are
//! allowed to be slower.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbm_bench::{run_cell, ObsOptions};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::micro::{self, MicroParams};

fn bench_obs_overhead(c: &mut Criterion) {
    let mut params = MicroParams::paper();
    params.threads = 8;
    params.ops_per_thread = 64;
    let wl = micro::all(&params).remove(0);
    let mut cfg = SystemConfig::micro48();
    cfg.cores = 8;
    cfg.llc_banks = 8;
    cfg.mesh_rows = 2;
    cfg.persistency = PersistencyKind::BufferedEpoch;
    cfg.barrier = BarrierKind::LbPp;
    let job = (cfg.barrier.to_string(), wl.name.to_string(), cfg, wl);

    let dir = std::env::temp_dir().join(format!("pbm-obs-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let profiled = ObsOptions {
        prof_out: Some(dir.clone()),
        ..ObsOptions::default()
    };

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, obs, sample) in [
        ("disabled", ObsOptions::default(), false),
        ("sampled", ObsOptions::default(), true),
        ("prof-out", profiled, false),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &job, |b, job| {
            b.iter(|| run_cell(job.clone(), &obs, sample))
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
