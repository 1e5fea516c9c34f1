//! `check` — the crash-consistency fuzzing campaign driver.
//!
//! Default mode fuzzes (program, schedule-seed, barrier, persistency)
//! tuples through `pbm_check::run_campaign` under a wall-clock budget and
//! exits nonzero if the real design ever fails; any failing tuple is
//! shrunk and written to the corpus directory as a replayable artifact.
//!
//! ```text
//! check [--budget=60s] [--jobs=2] [--seed=1] [--max-cases=N] [--ops=40]
//!       [--corpus-dir=tests/corpus] [--bugs=all|name,...] [--write-corpus]
//! ```
//!
//! `--bugs` (requires building with `--features bug-inject`) instead hunts
//! the deliberately broken protocol variants and exits nonzero unless
//! every one is detected — the harness's own end-to-end test. With
//! `--write-corpus` each shrunk reproducer is (re)written into the corpus
//! directory, which is how `tests/corpus/*.json` are minted.

use pbm_bench::cli::{self, die, CliError, Flags};
use pbm_bench::default_jobs;
use pbm_check::shrink::{shrink, DEFAULT_MAX_RUNS};
use pbm_check::{encode_case, run_campaign, CampaignConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn parse_budget(text: &str) -> Option<Duration> {
    if let Some(m) = text.strip_suffix('m') {
        return m.parse::<u64>().ok().map(|v| Duration::from_secs(v * 60));
    }
    let secs = text.strip_suffix('s').unwrap_or(text);
    secs.parse::<u64>().ok().map(Duration::from_secs)
}

#[derive(Debug)]
struct Args {
    campaign: CampaignConfig,
    corpus_dir: PathBuf,
    bugs: Option<String>,
    // Read by the injected-bug hunt only.
    #[cfg_attr(not(feature = "bug-inject"), allow(dead_code))]
    write_corpus: bool,
}

const FLAGS: &[&str] = &[
    "--budget=",
    "--jobs=",
    "--seed=",
    "--max-cases=",
    "--ops=",
    "--corpus-dir=",
    "--bugs=",
    "--write-corpus",
];

fn parse_args(args: &[String]) -> Result<Args, CliError> {
    let f = Flags::parse("check", FLAGS, args)?;
    let defaults = CampaignConfig::default();
    let budget = match f.value("--budget=") {
        None => defaults.budget,
        Some(v) => parse_budget(v).filter(|d| !d.is_zero()).ok_or_else(|| {
            CliError(format!(
                "--budget takes a positive number of seconds or minutes (60s, 2m), got {v:?}"
            ))
        })?,
    };
    Ok(Args {
        campaign: CampaignConfig {
            jobs: f
                .positive("--jobs=", "worker count")?
                .unwrap_or_else(default_jobs),
            budget,
            seed: f.parsed("--seed=", "a seed")?.unwrap_or(defaults.seed),
            max_cases: f.positive("--max-cases=", "case count")?,
            ops_per_core: f
                .positive("--ops=", "op count")?
                .unwrap_or(defaults.ops_per_core),
            ..defaults
        },
        corpus_dir: f
            .path("--corpus-dir=")?
            .unwrap_or_else(|| PathBuf::from("tests/corpus")),
        bugs: f.value("--bugs=").map(String::from),
        write_corpus: f.switch("--write-corpus"),
    })
}

fn write_artifact(dir: &Path, name: &str, text: &str) -> PathBuf {
    if let Err(e) = std::fs::create_dir_all(dir) {
        die(&format!("cannot create {}: {e}", dir.display()));
    }
    let path = dir.join(format!("{name}.json"));
    cli::write_or_die(&path, text);
    path
}

fn slug(label: &str) -> String {
    label
        .to_ascii_lowercase()
        .replace(|c: char| !c.is_ascii_alphanumeric(), "p")
}

fn main() {
    let args = cli::or_exit(parse_args(&cli::args()));
    if let Some(spec) = &args.bugs {
        run_bugs(&args, spec);
        return;
    }
    let t0 = Instant::now();
    let report = run_campaign(&args.campaign);
    println!(
        "# check: {} cases, {} crash points, {} differential pairs in {:.1}s ({} jobs)",
        report.cases,
        report.crash_points,
        report.differential_pairs,
        t0.elapsed().as_secs_f64(),
        args.campaign.jobs,
    );
    for msg in &report.differential_failures {
        println!("DIFFERENTIAL FAILURE: {msg}");
    }
    for failing in &report.failures {
        println!(
            "FAILURE: seed {} {} {}: {}",
            failing.spec.seed, failing.spec.barrier, failing.spec.persistency, failing.failure
        );
        let (small, small_failure) = shrink(&failing.spec, DEFAULT_MAX_RUNS);
        let name = format!(
            "fail-{}-{}-{}",
            small.seed,
            slug(&small.barrier.to_string()),
            slug(&small.persistency.to_string())
        );
        let text = encode_case(&small, None, Some(&small_failure));
        let path = write_artifact(&args.corpus_dir, &name, &text);
        println!(
            "  shrunk to {} ops -> {} ({small_failure})",
            small.total_ops(),
            path.display()
        );
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
    println!("# check: clean");
}

#[cfg(feature = "bug-inject")]
fn run_bugs(args: &Args, spec: &str) {
    use pbm_check::campaign::bugs::run_bug_campaign;
    use pbm_types::bug::InjectedBug;

    let bugs: Vec<InjectedBug> = if spec == "all" {
        InjectedBug::ALL.to_vec()
    } else {
        spec.split(',')
            .map(|name| {
                InjectedBug::from_name(name)
                    .unwrap_or_else(|| die(&format!("unknown bug {name:?}")))
            })
            .collect()
    };
    let mut missed = Vec::new();
    for bug in bugs {
        let outcome = run_bug_campaign(bug, args.campaign.seed.wrapping_add(9_000), 20);
        match &outcome.shrunk {
            Some((small, failure)) => {
                println!(
                    "# bug {bug}: detected (case {} of {}), shrunk to {} ops: {failure}",
                    outcome.cases_tried,
                    20,
                    small.total_ops()
                );
                if args.write_corpus {
                    let text = encode_case(small, Some(bug.name()), Some(failure));
                    let path =
                        write_artifact(&args.corpus_dir, &format!("bug-{}", bug.name()), &text);
                    println!("  -> {}", path.display());
                }
            }
            None => {
                println!("# bug {bug}: NOT DETECTED in {} cases", outcome.cases_tried);
                missed.push(bug);
            }
        }
    }
    if !missed.is_empty() {
        eprintln!(
            "error: {} injected bug(s) went undetected: {missed:?}",
            missed.len()
        );
        std::process::exit(1);
    }
    println!("# check: all injected bugs detected");
}

#[cfg(not(feature = "bug-inject"))]
fn run_bugs(_args: &Args, _spec: &str) {
    die("--bugs requires building with --features bug-inject");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_campaigns() {
        for arg in [
            "--ops=0",
            "--max-cases=0",
            "--budget=0",
            "--budget=0m",
            "--budget=1h",
        ] {
            let msg = parse_args(&[arg.to_string()]).expect_err(arg).0;
            let flag = arg.split('=').next().expect("flag");
            assert!(
                msg.starts_with(&format!("{flag} takes a positive")),
                "{msg}"
            );
        }
        let ok = parse_args(&["--budget=2m".into()]).expect("valid");
        assert_eq!(ok.campaign.budget, Duration::from_secs(120));
    }
}
