//! Determinism of the parallel runner: the worker count must be invisible
//! in the results — identical stats grids and byte-identical per-cell
//! trace artifacts at `--jobs=1` and `--jobs=8`.

use pbm_bench::{Job, ObsOptions, Runner};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::micro::{self, MicroParams};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn grid() -> Vec<Job> {
    let mut params = MicroParams::paper();
    params.threads = 4;
    params.ops_per_thread = 8;
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedEpoch;
    base.cores = 4;
    base.llc_banks = 4;
    base.mesh_rows = 2;
    let mut cells = Vec::new();
    for wl in [micro::queue(&params), micro::hash(&params)] {
        for kind in [BarrierKind::Lb, BarrierKind::LbPp] {
            let mut cfg = base.clone();
            cfg.barrier = kind;
            cells.push((kind.to_string(), wl.name.to_string(), cfg, wl.clone()));
        }
    }
    cells
}

#[test]
fn worker_count_does_not_change_the_result_grid() {
    let seq = Runner::new("det", 1, ObsOptions::default()).run(grid());
    let par = Runner::new("det", 8, ObsOptions::default()).run(grid());
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!((&a.config, &a.workload), (&b.config, &b.workload));
        assert_eq!(a.stats, b.stats, "{}-{} diverged", a.config, a.workload);
    }
}

/// Every file the runner wrote under `dir`, keyed by file name.
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("artifact dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf8 name");
        out.insert(name, fs::read(entry.path()).expect("artifact"));
    }
    out
}

fn obs_into(dir: &Path) -> ObsOptions {
    fs::create_dir_all(dir).expect("temp dir");
    ObsOptions {
        trace_out: Some(dir.join("trace.json")),
        metrics_csv: Some(dir.join("metrics.csv")),
        metrics_interval: 1000,
        prof_out: None,
    }
}

#[test]
fn worker_count_does_not_change_the_trace_bytes() {
    let root = std::env::temp_dir().join(format!("pbm-runner-det-{}", std::process::id()));
    let dirs = [root.join("jobs1"), root.join("jobs8")];
    let seq = Runner::new("det", 1, obs_into(&dirs[0])).run(grid());
    let par = Runner::new("det", 8, obs_into(&dirs[1])).run(grid());
    assert_eq!(seq.len(), par.len());

    let a = artifact_bytes(&dirs[0]);
    let b = artifact_bytes(&dirs[1]);
    // One trace and one CSV per cell, same names from both runs.
    assert_eq!(a.len(), 2 * seq.len());
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "artifact routing diverged"
    );
    for (name, bytes) in &a {
        assert_eq!(bytes, &b[name], "{name} diverged between jobs=1 and jobs=8");
    }
    let _ = fs::remove_dir_all(&root);
}
