//! CI perf-regression gate: diffs freshly produced `BENCH_prof.json` /
//! `BENCH_runner.json` against the committed baselines.
//!
//! Policy (see `pbm_prof::regress`): simulated-cycle metrics are
//! deterministic, so any divergence beyond `--tol-cycles-pct` (default
//! **0**) hard-fails — in either direction, golden-file style; wall-clock
//! is machine-dependent, so `BENCH_runner.json` drift only warns.
//!
//! Run: `cargo run -p pbm-bench --release --bin regress
//! [--baselines=DIR] [--current=DIR] [--tol-cycles-pct=N]
//! [--tol-wall-pct=N] [--json=PATH]`
//!
//! Exit status: 0 clean (warnings allowed), 1 regression, 2 usage/IO
//! error (including a missing `BENCH_prof.json` on either side — seed
//! baselines by copying a fresh run into `results/baselines/`).

use pbm_bench::cli::{self, die, CliError, Flags};
use pbm_obs::json::{self, JsonValue};
use pbm_prof::regress::{compare_prof, compare_runner, render_table, verdict_json, Comparison};
use std::path::{Path, PathBuf};

struct Options {
    baselines: PathBuf,
    current: PathBuf,
    tol_cycles_pct: u64,
    tol_wall_pct: u64,
    json: Option<PathBuf>,
}

const FLAGS: &[&str] = &[
    "--baselines=",
    "--current=",
    "--tol-cycles-pct=",
    "--tol-wall-pct=",
    "--json=",
];

fn options(args: &[String]) -> Result<Options, CliError> {
    let f = Flags::parse("regress", FLAGS, args)?;
    Ok(Options {
        baselines: f
            .path("--baselines=")?
            .unwrap_or_else(|| PathBuf::from("results/baselines")),
        current: f.path("--current=")?.unwrap_or_else(|| PathBuf::from(".")),
        tol_cycles_pct: f.parsed("--tol-cycles-pct=", "a percentage")?.unwrap_or(0),
        tol_wall_pct: f.parsed("--tol-wall-pct=", "a percentage")?.unwrap_or(50),
        json: f.path("--json=")?,
    })
}

fn load(path: &Path) -> Option<JsonValue> {
    let text = std::fs::read_to_string(path).ok()?;
    match json::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => die(&format!("{} is not valid JSON: {e}", path.display())),
    }
}

fn main() {
    let opts = cli::or_exit(options(&cli::args()));
    let mut comparisons: Vec<Comparison> = Vec::new();

    // BENCH_prof.json is the gate's core document: both sides must exist.
    let prof_base = opts.baselines.join("BENCH_prof.json");
    let prof_cur = opts.current.join("BENCH_prof.json");
    match (load(&prof_base), load(&prof_cur)) {
        (Some(base), Some(cur)) => comparisons.push(compare_prof(&base, &cur, opts.tol_cycles_pct)),
        (None, _) => die(&format!(
            "no baseline {} — run `prof` and commit its BENCH_prof.json there",
            prof_base.display()
        )),
        (_, None) => die(&format!(
            "no current {} — run the `prof` binary first",
            prof_cur.display()
        )),
    }

    // BENCH_runner.json is advisory; compare when both sides exist.
    let runner_base = opts.baselines.join("BENCH_runner.json");
    let runner_cur = opts.current.join("BENCH_runner.json");
    match (load(&runner_base), load(&runner_cur)) {
        (Some(base), Some(cur)) => comparisons.push(compare_runner(&base, &cur, opts.tol_wall_pct)),
        (None, _) => eprintln!(
            "# regress: no {} baseline, skipping wall-clock check",
            runner_base.display()
        ),
        (_, None) => eprintln!(
            "# regress: no current {}, skipping wall-clock check",
            runner_cur.display()
        ),
    }

    print!("{}", render_table(&comparisons));
    if let Some(path) = &opts.json {
        let mut text = verdict_json(&comparisons).to_json();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
    }
    if comparisons.iter().any(|c| !c.pass()) {
        std::process::exit(1);
    }
}
