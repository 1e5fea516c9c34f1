//! Causal critical-path profiler over the fig11 grid: runs every
//! micro-benchmark under every lazy barrier variant with tracing enabled,
//! attributes each barrier's persist latency with `pbm-prof`, and writes
//!
//! * `BENCH_prof.json` — the `pbm-bench-prof/v1` summary the `regress`
//!   gate diffs against `results/baselines/` (byte-identical at any
//!   `--jobs=N`);
//! * per-cell `flame-<cell>.folded` + `report-<cell>.json` under
//!   `--out-dir=` (folded stacks render with `inferno-flamegraph` or
//!   `flamegraph.pl`).
//!
//! Run: `cargo run -p pbm-bench --release --bin prof [--quick] [--jobs=N]
//! [--bench-json=PATH] [--out-dir=DIR] [--top=K]`

use pbm_bench::cli::{self, die, CliError, Flags};
use pbm_bench::profiling::{bench_prof_doc, cell_slug, fig11_base, fig11_jobs, profile_cells};
use pbm_bench::{default_jobs, system_header};
use pbm_prof::{flame, report};
use std::path::PathBuf;

struct Options {
    quick: bool,
    jobs: usize,
    bench_json: PathBuf,
    out_dir: Option<PathBuf>,
    top: usize,
}

const FLAGS: &[&str] = &[
    "--quick",
    "--jobs=",
    "--bench-json=",
    "--out-dir=",
    "--top=",
];

fn options(args: &[String]) -> Result<Options, CliError> {
    let f = Flags::parse("prof", FLAGS, args)?;
    Ok(Options {
        quick: f.switch("--quick"),
        jobs: f
            .positive("--jobs=", "worker count")?
            .unwrap_or_else(default_jobs),
        bench_json: f
            .path("--bench-json=")?
            .unwrap_or_else(|| PathBuf::from("BENCH_prof.json")),
        out_dir: f.path("--out-dir=")?,
        top: f.parsed("--top=", "a count")?.unwrap_or(5),
    })
}

fn write(path: &PathBuf, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
}

fn main() {
    let opts = cli::or_exit(options(&cli::args()));
    let quick = opts.quick;
    println!("{}", system_header(&fig11_base(quick)));
    let profiles = profile_cells(opts.jobs, fig11_jobs(quick));

    println!("\n== persist-latency attribution (fig11 grid) ==");
    println!(
        "{:<8}{:<10}{:>9}{:>10}{:>10}{:>10}  dominant",
        "config", "workload", "barriers", "mean", "p50", "p99"
    );
    for (config, workload, profile) in &profiles {
        let lat = profile.sorted_latencies();
        let count = lat.len() as u64;
        let mean = lat.iter().sum::<u64>().checked_div(count).unwrap_or(0);
        let dominant = profile.totals.dominant().map_or("-".to_string(), |(c, n)| {
            let total = profile.totals.total().max(1);
            format!("{c} ({}%)", n * 100 / total)
        });
        println!(
            "{:<8}{:<10}{:>9}{:>10}{:>10}{:>10}  {dominant}",
            config,
            workload,
            count,
            mean,
            report::percentile(&lat, 50),
            report::percentile(&lat, 99),
        );
    }

    if let Some(dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
        for (config, workload, profile) in &profiles {
            let slug = cell_slug(config, workload);
            write(
                &dir.join(format!("flame-{slug}.folded")),
                &flame::profile_stacks(&format!("{config};{workload}"), profile),
            );
            let mut text = report::report_json(profile, opts.top).to_json();
            text.push('\n');
            write(&dir.join(format!("report-{slug}.json")), &text);
        }
        eprintln!(
            "# prof: {} flame graphs + reports -> {}",
            profiles.len(),
            dir.display()
        );
    }

    let mut text = bench_prof_doc(&profiles, quick).to_json();
    text.push('\n');
    write(&opts.bench_json, &text);
    eprintln!(
        "# prof: {} cells -> {}",
        profiles.len(),
        opts.bench_json.display()
    );
}
