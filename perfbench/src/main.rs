//! pbm's benchmark: the Fig. 11 and Fig. 14 grids, a crash sweep and the
//! trace pipeline, driven through the crates' public calls from one
//! thread, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bep-micro --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and prints the per-layer metrics. The last
//! line of standard output is one JSON object. A run writes only under
//! `perfbench/out/`. `--write-refs` records the reference fingerprints of
//! `--seed` instead of measuring. See README.md beside this file.

mod fingerprint;
mod json;
mod metrics;
mod span;
mod workloads;

use fingerprint::Refs;
use json::Json;
use metrics::{Pass, END_TO_END, PER_LAYER};
use span::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{ItemOut, Kind, DEFAULT_SEED, HELD_OUT_SEED};

/// Set-up is repeated at least this often, then until a second has
/// passed (at most [`MAX_SETUP_REPS`] times); `setup_s` is the median.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 2000;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_refs: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace, mut write_refs) =
            (None, None, None, false, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--write-refs" {
                write_refs = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        Ok(Args {
            kind: kind
                .ok_or_else(|| format!("--workload is required: one of {}", names.join(", ")))?,
            seed: seed.unwrap_or(DEFAULT_SEED),
            seconds: seconds.unwrap_or(10.0),
            trace,
            write_refs,
        })
    }
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn refs_path(kind: Kind) -> PathBuf {
    bench_dir()
        .join("refs")
        .join(format!("{}.txt", kind.name()))
}

fn embedded_refs(kind: Kind) -> &'static str {
    match kind {
        Kind::BepMicro => include_str!("../refs/bep-micro.txt"),
        Kind::BspApps => include_str!("../refs/bsp-apps.txt"),
        Kind::CrashSweep => include_str!("../refs/crash-sweep.txt"),
        Kind::TracePipeline => include_str!("../refs/trace-pipeline.txt"),
    }
}

/// Checks each item against the reference fingerprints of the seed, or,
/// for a seed without references, against the run's first pass.
struct Verifier {
    refs: Refs,
    seed: u64,
    first_pass: BTreeMap<String, u64>,
}

impl Verifier {
    fn check(&mut self, item: &mut ItemOut) {
        if item.failure.is_some() {
            return;
        }
        let want = if self.refs.has_seed(self.seed) {
            match self.refs.get(self.seed, &item.label) {
                Some(fp) => fp,
                None => {
                    item.failure = Some("no reference fingerprint".to_string());
                    return;
                }
            }
        } else {
            *self
                .first_pass
                .entry(item.label.clone())
                .or_insert(item.fingerprint)
        };
        if item.fingerprint != want {
            item.failure = Some(format!(
                "fingerprint {:016x} differs from the expected {want:016x}",
                item.fingerprint
            ));
        }
    }
}

fn run_pass(kind: Kind, seed: u64, tracer: &mut Tracer, verifier: &mut Verifier) -> Pass {
    let root = tracer.next_index();
    let mark = tracer.begin("bench.pass");
    let (inputs, _) = tracer.span("workloads.gen", || workloads::generate(kind, seed));
    let replay = tracer.is_enabled();
    let mut items: Vec<ItemOut> = (0..inputs.len())
        .map(|i| workloads::run_item(kind, &inputs, i, tracer, replay))
        .collect();
    let wall_s = tracer.end(mark);
    for item in &mut items {
        verifier.check(item);
        if let Some(failure) = &item.failure {
            eprintln!("FAILED {} {}: {failure}", kind.name(), item.label);
        }
    }
    Pass {
        items,
        wall_s,
        root,
    }
}

fn setup_samples(kind: Kind, seed: u64) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SETUP_REPS
        || (started.elapsed() < SETUP_BUDGET && samples.len() < MAX_SETUP_REPS)
    {
        let t = Instant::now();
        let inputs = workloads::generate(kind, seed);
        workloads::build_all(&inputs);
        samples.push(t.elapsed().as_secs_f64());
        drop(inputs);
    }
    samples
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `program args` to completion and returns its trimmed stdout.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(args: &Args) -> Json {
    let root = bench_dir().join("..");
    let root_str = root.to_string_lossy().to_string();
    let (revision, dirty) = if root.join(".git").exists() {
        let rev = command_output("git", &["-C", &root_str, "rev-parse", "HEAD"]);
        let status = command_output("git", &["-C", &root_str, "status", "--porcelain"]);
        (rev, status.map(|s| !s.is_empty()))
    } else {
        (None, None)
    };
    let unknown = || "unknown".to_string();
    Json::obj([
        ("git_revision", Json::str(revision.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Json::str("unknown"), Json::Bool)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "host",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/hostname")
                    .map(|h| h.trim().to_string())
                    .unwrap_or_else(|_| unknown()),
            ),
        ),
        (
            "rustc",
            Json::str(command_output("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "args",
            Json::Arr(std::env::args().skip(1).map(Json::str).collect()),
        ),
        ("workload", Json::str(args.kind.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ])
}

/// `{name: {value, unit}}`; `detailed` adds each metric's direction and
/// what it should move.
fn metric_json(
    defs: &[metrics::MetricDef],
    values: &BTreeMap<&'static str, f64>,
    detailed: bool,
) -> Json {
    Json::obj(defs.iter().map(|d| {
        let mut fields = vec![
            (
                "value",
                Json::Num(values.get(d.name).copied().unwrap_or(0.0)),
            ),
            ("unit", Json::str(d.unit)),
        ];
        if detailed {
            fields.push(("better", Json::str(d.better.name())));
            fields.push(("moves", Json::str(d.moves)));
        }
        (d.name, Json::obj(fields))
    }))
}

fn write_refs(args: &Args) -> Result<(), String> {
    // The file on disk, not the embedded copy: references recorded earlier
    // in this build must be kept.
    let mut refs = Refs::parse(&std::fs::read_to_string(refs_path(args.kind)).unwrap_or_default())?;
    let mut verifier = Verifier {
        refs: Refs::default(),
        seed: args.seed,
        first_pass: BTreeMap::new(),
    };
    let pass = run_pass(args.kind, args.seed, &mut Tracer::new(false), &mut verifier);
    if pass.items.iter().any(|i| i.failure.is_some()) {
        return Err("refusing to record references from a failing pass".to_string());
    }
    let entries: Vec<(String, u64)> = pass
        .items
        .iter()
        .map(|i| (i.label.clone(), i.fingerprint))
        .collect();
    refs.set_seed(args.seed, &entries);
    let header = format!(
        "# Reference output fingerprints of the {} workload: <seed> <item> <fingerprint>.\n\
         # Regenerate with --write-refs only for a change that is meant to alter simulated results.\n",
        args.kind.name()
    );
    std::fs::write(refs_path(args.kind), refs.render(&header)).map_err(|e| e.to_string())?;
    println!(
        "recorded {} fingerprints for seed {}",
        entries.len(),
        args.seed
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_refs {
        return match write_refs(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let refs = match Refs::parse(embedded_refs(args.kind)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut verifier = Verifier {
        refs,
        seed: args.seed,
        first_pass: BTreeMap::new(),
    };
    let kind = args.kind;

    let setup = setup_samples(kind, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(args.trace);
    let (mut untraced_passes, mut traced_passes) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let round = Instant::now();
        untraced_passes.push(run_pass(kind, args.seed, &mut plain, &mut verifier));
        if args.trace {
            traced_passes.push(run_pass(kind, args.seed, &mut traced, &mut verifier));
        }
        // Closed loop over whole passes: start another only if it fits.
        if started.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let all_items = untraced_passes
        .iter()
        .chain(&traced_passes)
        .flat_map(|p| &p.items);
    let attempted = all_items.clone().count() as u64;
    let failures: Vec<Json> = all_items
        .filter_map(|i| Some(Json::str(format!("{}: {}", i.label, i.failure.as_ref()?))))
        .collect();

    let e2e = metrics::end_to_end(&untraced_passes, &setup, peak_rss_mib());
    let untraced_wall =
        metrics::median(&untraced_passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let layers = metrics::median_of(
        &traced_passes
            .iter()
            .map(|p| metrics::per_layer(kind, p, &traced, untraced_wall))
            .collect::<Vec<_>>(),
    );
    let (defs, values) = if args.trace {
        (PER_LAYER, &layers)
    } else {
        (END_TO_END, &e2e)
    };
    for d in defs {
        println!(
            "{:<34} {:>16.6} {}",
            d.name,
            values.get(d.name).copied().unwrap_or(0.0),
            d.unit
        );
    }

    let out_dir = bench_dir().join("out");
    let suffix = if args.trace { "-traced" } else { "" };
    let mut detail = vec![
        ("schema", Json::str("pbm-perfbench/v1")),
        ("provenance", provenance(&args)),
        (
            "reference_seeds",
            Json::Arr(vec![Json::Int(DEFAULT_SEED), Json::Int(HELD_OUT_SEED)]),
        ),
        ("attempted", Json::Int(attempted)),
        ("failures", Json::Arr(failures.clone())),
        (
            "setup_samples_s",
            Json::Arr(setup.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "untraced_pass_wall_s",
            Json::Arr(
                untraced_passes
                    .iter()
                    .map(|p| Json::Num(p.wall_s))
                    .collect(),
            ),
        ),
        (
            "traced_pass_wall_s",
            Json::Arr(traced_passes.iter().map(|p| Json::Num(p.wall_s)).collect()),
        ),
        ("end_to_end", metric_json(END_TO_END, &e2e, true)),
        (
            "items",
            Json::Arr(
                untraced_passes[0]
                    .items
                    .iter()
                    .map(|i| {
                        Json::obj([
                            ("label", Json::str(&i.label)),
                            ("fingerprint", Json::str(format!("{:016x}", i.fingerprint))),
                            ("ops", Json::Int(i.ops)),
                            ("work", Json::Int(i.work)),
                            ("call_ms", Json::Num(i.total_s * 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if args.trace {
        detail.push(("per_layer", metric_json(PER_LAYER, &layers, true)));
        // The full split of the traced pass: self seconds of every span name.
        let split = metrics::median_of(
            &traced_passes
                .iter()
                .map(|p| traced.self_seconds_under(p.root))
                .collect::<Vec<_>>(),
        );
        detail.push((
            "layer_self_s",
            Json::obj(
                split
                    .into_iter()
                    .map(|(name, secs)| (name, Json::Num(secs))),
            ),
        ));
    }
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("{}{suffix}.json", kind.name())),
            Json::obj(detail).render() + "\n",
        )?;
        if args.trace {
            std::fs::write(
                out_dir.join(format!("{}-spans.json", kind.name())),
                traced.chrome_json(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "error: cannot write results under {}: {e}",
            out_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let failed = failures.len() as u64;
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metric_json(defs, values, false)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, run_item};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = Args::parse(&argv(
            "--workload crash-sweep --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::CrashSweep, 7, 3.0, true)
        );
        for bad in [
            "--workload nope",
            "--workload bep-micro --trace 2",
            "--workload bep-micro --seconds 0",
            "--workload bep-micro --bogus 1",
            "--seed 1",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_has_references_for_both_seeds() {
        for kind in Kind::ALL {
            let refs = Refs::parse(embedded_refs(kind)).unwrap();
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(
                    refs.has_seed(seed),
                    "{} has no references for seed {seed}",
                    kind.name()
                );
            }
        }
    }

    /// One real cell checked against its reference, then against a
    /// tampered copy of the reference table.
    #[test]
    fn tampered_fingerprint_counts_as_a_failure() {
        let kind = Kind::TracePipeline;
        let inputs = generate(kind, DEFAULT_SEED);
        let item = run_item(kind, &inputs, 0, &mut Tracer::new(false), false);
        let refs = Refs::parse(embedded_refs(kind)).unwrap();
        let want = refs
            .get(DEFAULT_SEED, &item.label)
            .expect("reference for the cell");

        let mut honest = Verifier {
            refs: refs.clone(),
            seed: DEFAULT_SEED,
            first_pass: BTreeMap::new(),
        };
        let mut checked = item.clone();
        honest.check(&mut checked);
        assert_eq!(checked.failure, None, "cell matches its reference");

        let mut tampered = refs;
        tampered.set_seed(DEFAULT_SEED, &[(item.label.clone(), want ^ 1)]);
        let mut verifier = Verifier {
            refs: tampered,
            seed: DEFAULT_SEED,
            first_pass: BTreeMap::new(),
        };
        let mut checked = item;
        verifier.check(&mut checked);
        assert!(
            checked.failure.is_some(),
            "a tampered reference must fail the cell"
        );
    }

    #[test]
    fn unreferenced_seeds_check_passes_against_the_first() {
        let mut verifier = Verifier {
            refs: Refs::default(),
            seed: 5,
            first_pass: BTreeMap::new(),
        };
        let mut a = ItemOut {
            label: "x".to_string(),
            fingerprint: 1,
            ..ItemOut::default()
        };
        verifier.check(&mut a);
        assert!(a.failure.is_none());
        let mut b = ItemOut {
            fingerprint: 2,
            ..a
        };
        verifier.check(&mut b);
        assert!(
            b.failure.is_some(),
            "a pass that differs from the first fails"
        );
    }
}
