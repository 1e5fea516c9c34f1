//! Every experiment's quick-scale output, byte for byte: each renders at
//! `--quick --jobs=1` into a string and must equal
//! `tests/golden/<name>-quick.txt`. `profile_bsp`'s per-cell host
//! wall-clock (`wall=…`) is the one nondeterministic field; it is masked
//! as `wall=_` on both sides. The fig11 and fig14 grids' persist-latency
//! attribution (`BENCH_prof.json`) is pinned the same way, against
//! `results/baselines/`.

use pbm_bench::experiments::{self, EXPERIMENTS};
use pbm_obs::json::{self, JsonValue};

fn mask_wall(text: &str) -> String {
    let words = text.split(' ');
    let masked = words.map(|w| if w.starts_with("wall=") { "wall=_" } else { w });
    masked.collect::<Vec<_>>().join(" ")
}

#[test]
fn every_experiment_matches_its_quick_golden() {
    for exp in &EXPERIMENTS {
        let args = [exp.name, "--quick", "--jobs=1", "--no-runner-json"].map(String::from);
        let (exp, opts) = experiments::parse(&args).expect("valid command line");
        let mut out = Vec::new();
        exp.run(&opts, &mut out).expect("render into memory");
        let got = String::from_utf8(out).expect("utf-8 table");
        let path = format!(
            "{}/tests/golden/{}-quick.txt",
            env!("CARGO_MANIFEST_DIR"),
            exp.name
        );
        let want = std::fs::read_to_string(&path).expect("golden file");
        assert_eq!(
            mask_wall(&got),
            mask_wall(&want),
            "{} drifted from {path}",
            exp.name
        );
    }
}

/// `exp <grid> --quick --prof-out=DIR` writes `DIR/BENCH_prof.json` equal,
/// byte for byte, to `results/baselines/<baseline>`: the simulated
/// persist-latency attribution of every cell of the grid is pinned. To
/// refresh a baseline after a deliberate model change, run
/// `exp <grid> --quick --prof-out=D` and copy `D/BENCH_prof.json` there.
fn assert_bench_prof_matches(grid: &str, baseline: &str) {
    let dir = std::env::temp_dir().join(format!("pbm-golden-prof-{grid}-{}", std::process::id()));
    let args = [
        grid.to_string(),
        "--quick".into(),
        "--jobs=2".into(),
        "--no-runner-json".into(),
        format!("--prof-out={}", dir.display()),
    ];
    let (exp, opts) = experiments::parse(&args).expect("valid command line");
    exp.run(&opts, &mut std::io::sink()).expect("render");
    let got = std::fs::read_to_string(dir.join("BENCH_prof.json")).expect("BENCH_prof.json");
    let path = format!(
        "{}/../../results/baselines/{baseline}",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).expect("baseline");
    let _ = std::fs::remove_dir_all(&dir);
    if got == want {
        return;
    }
    let cells = |text: &str| {
        let doc = json::parse(text).expect("valid JSON");
        doc.get("cells")
            .and_then(JsonValue::as_array)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let (got_cells, want_cells) = (cells(&got), cells(&want));
    let differs = got_cells.iter().zip(&want_cells).find(|(g, w)| g != w);
    match differs {
        Some((cell, _)) => {
            let label = |k| cell.get(k).and_then(JsonValue::as_str).unwrap_or("?");
            panic!(
                "BENCH_prof.json drifted from {path}: first differing cell is ({}, {})",
                label("config"),
                label("workload")
            );
        }
        None => panic!(
            "BENCH_prof.json drifted from {path}: {} cells against {} (or the header differs)",
            got_cells.len(),
            want_cells.len()
        ),
    }
}

/// The fig11 (BEP) grid against `results/baselines/BENCH_prof.json`.
#[test]
fn bench_prof_matches_the_committed_baseline() {
    assert_bench_prof_matches("fig11", "BENCH_prof.json");
}

/// The fig14 (BSP) grid against `results/baselines/BENCH_prof_fig14.json`:
/// pins the undo-log, epoch-index and flush-cascade path of bulk mode.
#[test]
fn bench_prof_fig14_matches_the_committed_baseline() {
    assert_bench_prof_matches("fig14", "BENCH_prof_fig14.json");
}
