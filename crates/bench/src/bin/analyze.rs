//! `analyze` — the static persist-order linter over the built-in
//! workloads.
//!
//! Lints every micro-benchmark under BEP rules and every application proxy
//! under BSP rules (plus the Figure-10 commit protocol), printing the
//! ranked human report per workload and exiting nonzero if any
//! unsuppressed error remains — the CI gate.
//!
//! ```text
//! analyze [--workloads=name,...] [--suppress=SPEC]... [--json[=PATH]]
//!         [--micro-threads=N] [--micro-ops=N] [--app-ops=N]
//! ```
//!
//! `--suppress` takes the `kind=…,core=…,op=…,line=…` syntax of
//! `pbm_analyze::Suppression` and may be repeated; suppressed findings are
//! still printed, marked, and excluded from the gate. `--json` emits one
//! `pbm-analyze-report/v1` document per workload (to stdout, or to
//! `PATH/<workload>.json`).

use pbm_analyze::{analyze, AnalyzeConfig, Suppression};
use pbm_bench::cli::{self, die, CliError, Flags};
use pbm_workloads::apps::{self, AppParams};
use pbm_workloads::commit;
use pbm_workloads::micro::{self, MicroParams};
use pbm_workloads::Workload;
use std::path::PathBuf;

struct Args {
    workloads: Option<Vec<String>>,
    suppressions: Vec<Suppression>,
    json: Option<Option<PathBuf>>,
    micro_threads: usize,
    micro_ops: usize,
    app_ops: usize,
}

const FLAGS: &[&str] = &[
    "--workloads=",
    "--suppress=",
    "--json",
    "--json=",
    "--micro-threads=",
    "--micro-ops=",
    "--app-ops=",
];

fn parse_args(args: &[String]) -> Result<Args, CliError> {
    let f = Flags::parse("analyze", FLAGS, args)?;
    let json = match f.path("--json=")? {
        Some(dir) => Some(Some(dir)),
        None => f.switch("--json").then_some(None),
    };
    Ok(Args {
        workloads: f
            .value("--workloads=")
            .map(|v| v.split(',').map(str::to_string).collect()),
        suppressions: f
            .values("--suppress=")
            .map(|spec| Suppression::parse(spec).map_err(CliError))
            .collect::<Result<_, _>>()?,
        json,
        micro_threads: f.parsed("--micro-threads=", "a thread count")?.unwrap_or(4),
        micro_ops: f.parsed("--micro-ops=", "an op count")?.unwrap_or(16),
        app_ops: f.parsed("--app-ops=", "an op count")?.unwrap_or(600),
    })
}

fn main() {
    let args = cli::or_exit(parse_args(&cli::args()));
    // (workload, the lint configuration it targets).
    let micro_params = MicroParams {
        threads: args.micro_threads,
        ops_per_thread: args.micro_ops,
        ..MicroParams::tiny()
    };
    let app_params = AppParams {
        threads: args.micro_threads,
        ops_per_thread: args.app_ops,
        ..AppParams::tiny()
    };
    let mut targets: Vec<(Workload, AnalyzeConfig)> = Vec::new();
    for wl in micro::all(&micro_params) {
        targets.push((wl, AnalyzeConfig::bep()));
    }
    for wl in apps::all(&app_params) {
        targets.push((wl, AnalyzeConfig::bsp(7)));
    }
    targets.push((commit::publisher_consumer(4, false), AnalyzeConfig::bep()));
    if let Some(names) = &args.workloads {
        targets.retain(|(wl, _)| names.iter().any(|n| n == wl.name));
        if targets.is_empty() {
            die(&format!("no workload matches {names:?}"));
        }
    }
    let mut errors = 0usize;
    for (wl, mut cfg) in targets {
        cfg.suppressions = args.suppressions.clone();
        let report = analyze(&wl.programs, &cfg);
        print!("{}", report.render_human(wl.name));
        match &args.json {
            None => {}
            Some(None) => println!("{}", report.to_json_value(wl.name).to_json()),
            Some(Some(dir)) => {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    die(&format!("cannot create {}: {e}", dir.display()));
                }
                let path = dir.join(format!("{}.json", wl.name));
                let mut text = report.to_json_value(wl.name).to_json();
                text.push('\n');
                cli::write_or_die(&path, text);
            }
        }
        errors += report.error_count();
    }
    if errors > 0 {
        eprintln!("error: {errors} unsuppressed error(s) across the lint targets");
        std::process::exit(1);
    }
    println!("# analyze: clean");
}
