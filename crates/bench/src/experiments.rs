//! The experiment table behind the `exp` binary.
//!
//! Every §7 figure and ablation, and the `profile_bsp` stall profile, is
//! one [`Experiment`]: a base system, its workloads, an axis of labelled
//! configuration changes, and how to render the results.
//! [`Experiment::run`] crosses workloads and axis into a workload-major
//! grid (every rung for the first workload, then the next), runs it on a
//! [`Runner`], and renders the results, in grid order, into a writer.
//! Under `--prof-out=DIR` it then writes `DIR/BENCH_prof.json` and appends
//! the persist-latency attribution table (see [`crate::profiling`]).
//!
//! `--quick` shrinks every experiment the same way: an 8-core, 8-bank
//! platform on a 2-row mesh, 8 worker threads, and the entry's own
//! smaller op count.

use crate::cli::{write_or_die, CliError, Flags};
use crate::obs::ObsOptions;
use crate::profiling::{self, fig11_base, fig11_params};
use crate::runner::{default_jobs, DEFAULT_RUNNER_JSON};
use crate::{amean, gmean, system_header, Job, RunResult, Runner};
use pbm_obs::json::JsonValue::{self, Num, Str};
use pbm_types::SystemConfig;
use pbm_types::{BarrierKind, FlushMode, Histogram, PersistencyKind, SimStats};
use pbm_workloads::apps::{self, AppParams, AppProfile};
use pbm_workloads::micro::{self, MicroParams};
use pbm_workloads::Workload;
use std::io::{self, Write};
use std::path::PathBuf;

/// Cores, LLC banks and worker threads at quick scale.
pub(crate) const QUICK_CORES: usize = 8;

/// The one quick-scale shrink of a platform: a system of more than
/// [`QUICK_CORES`] cores becomes 8 cores and 8 LLC banks on a 2-row mesh.
/// A system already that small (`ablation_banks` fixes its own 8-core
/// platform) is left alone.
pub(crate) fn quick_system(cfg: &mut SystemConfig) {
    if cfg.cores > QUICK_CORES {
        cfg.cores = QUICK_CORES;
        cfg.llc_banks = QUICK_CORES;
        cfg.mesh_rows = 2;
    }
}

/// The flags every experiment takes.
const RUN_FLAGS: [&str; 8] = [
    "--quick",
    "--jobs=",
    "--trace-out=",
    "--metrics-csv=",
    "--metrics-interval=",
    "--prof-out=",
    "--runner-json=",
    "--no-runner-json",
];

/// How to run an experiment: the parsed `exp` flags.
#[derive(Debug)]
pub struct Options {
    /// `--quick`: the shared quick scale.
    pub(crate) quick: bool,
    /// `--jobs=N`: worker threads.
    jobs: usize,
    /// Per-cell trace, metrics and profile artifacts.
    obs: ObsOptions,
    /// Where to record the wall-clock (`None` under `--no-runner-json`).
    runner_json: Option<PathBuf>,
    /// `profile_bsp --app=`: the application proxy (default `ssca2`).
    app: &'static AppProfile,
    /// `profile_bsp --ops=`: operations per thread.
    ops: Option<usize>,
    /// `profile_bsp --json=`: where to write the `pbm-profile-bsp/v1`
    /// document.
    json: Option<PathBuf>,
}

impl Default for Options {
    /// Full scale, every host core, no artifacts and no wall-clock record.
    fn default() -> Self {
        Options {
            quick: false,
            jobs: default_jobs(),
            obs: ObsOptions::default(),
            runner_json: None,
            app: apps::profile("ssca2").expect("ssca2 is a built-in proxy"),
            ops: None,
            json: None,
        }
    }
}

impl Options {
    fn from_flags(f: &Flags) -> Result<Self, CliError> {
        let runner_json = match (f.switch("--no-runner-json"), f.path("--runner-json=")?) {
            (true, Some(_)) => {
                let msg = "--runner-json= and --no-runner-json contradict each other";
                return Err(CliError(msg.into()));
            }
            (true, None) => None,
            (false, path) => Some(path.unwrap_or_else(|| DEFAULT_RUNNER_JSON.into())),
        };
        let mut opts = Options {
            quick: f.switch("--quick"),
            jobs: f
                .positive("--jobs=", "worker count")?
                .unwrap_or_else(default_jobs),
            obs: ObsOptions::from_flags(f)?,
            runner_json,
            ops: f.positive("--ops=", "op count")?,
            json: f.path("--json=")?,
            ..Options::default()
        };
        if let Some(name) = f.value("--app=") {
            opts.app = apps::profile(name).ok_or_else(|| {
                let known: Vec<&str> = apps::PROFILES.iter().map(|p| p.name).collect();
                CliError(format!(
                    "--app takes one of {}, got {name:?}",
                    known.join(" ")
                ))
            })?;
        }
        Ok(opts)
    }
}

/// Parses `exp <experiment> [flags]`.
pub fn parse(args: &[String]) -> Result<(&'static Experiment, Options), CliError> {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let names = names.join(" ");
    let Some((name, flags)) = args.split_first() else {
        return Err(CliError(format!(
            "usage: exp <experiment> [flags]; experiments: {names}"
        )));
    };
    let exp = find(name).ok_or_else(|| {
        CliError(format!(
            "unknown experiment {name:?} (experiments: {names})"
        ))
    })?;
    let takes: Vec<&str> = RUN_FLAGS.iter().chain(exp.flags).copied().collect();
    let flags = Flags::parse(exp.name, &takes, flags)?;
    Ok((exp, Options::from_flags(&flags)?))
}

/// The table entry named `name`.
pub(crate) fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// One rung of an axis: its label and its change to the base system.
type Rung = (String, Box<dyn Fn(&mut SystemConfig)>);

fn rung(label: impl Into<String>, change: impl Fn(&mut SystemConfig) + 'static) -> Rung {
    (label.into(), Box::new(change))
}

/// One experiment: a grid of workloads x configurations and how to
/// render its results.
#[derive(Debug)]
pub struct Experiment {
    /// The name `exp` knows it by, and its `BENCH_runner.json` record's.
    pub name: &'static str,
    /// Flags it takes beyond [`RUN_FLAGS`].
    flags: &'static [&'static str],
    /// The full-scale platform; `--quick` shrinks it with [`quick_system`].
    base: fn() -> SystemConfig,
    /// The workloads, at the scale the options ask for.
    workloads: fn(&Options) -> Vec<Workload>,
    /// The configuration axis.
    axis: fn() -> Vec<Rung>,
    /// How the results are rendered.
    reduce: Reduce,
}

/// How an experiment renders its results.
#[derive(Debug)]
enum Reduce {
    /// A fixed-width table, one row per workload.
    Table(Table),
    /// `profile_bsp`'s per-configuration stall profile (the cells run with
    /// the metrics sampler attached, at `--metrics-interval`).
    Profile,
}

/// A summary row's values, from the table's columns.
type Summary = fn(&[Vec<f64>]) -> Vec<f64>;

/// A table with one row per workload, right-aligned to 10 chars.
#[derive(Debug)]
struct Table {
    title: &'static str,
    headers: &'static [&'static str],
    /// One workload's row, from its cells (one per rung).
    row: fn(&[RunResult]) -> Vec<f64>,
    /// A summary row: its label and its values.
    summary: Option<(&'static str, Summary)>,
    /// Follow with each cell's epoch flush-latency distribution.
    flush_latency: bool,
    /// The paper's numbers, for comparison.
    paper: &'static str,
}

impl Experiment {
    /// The platform at full or quick scale.
    fn base(&self, quick: bool) -> SystemConfig {
        let mut base = (self.base)();
        if quick {
            quick_system(&mut base);
        }
        base
    }

    /// Every workload under every rung of the axis, workload-major.
    pub fn grid(&self, opts: &Options) -> Vec<Job> {
        let base = self.base(opts.quick);
        let axis = (self.axis)();
        let mut jobs = Vec::new();
        for wl in (self.workloads)(opts) {
            for (label, change) in &axis {
                let mut cfg = base.clone();
                change(&mut cfg);
                jobs.push((label.clone(), wl.name.to_string(), cfg, wl.clone()));
            }
        }
        jobs
    }

    /// Runs the grid and writes the system header and the rendered
    /// results to `out`, then, under `--prof-out`, the attribution table;
    /// records the wall-clock if `opts` asks for it.
    pub fn run(&self, opts: &Options, out: &mut dyn Write) -> io::Result<()> {
        let base = self.base(opts.quick);
        writeln!(out, "{}", system_header(&base))?;
        let mut runner = Runner::new(self.name, opts.jobs, opts.obs.clone())
            .recording(opts.runner_json.clone(), opts.quick);
        if matches!(self.reduce, Reduce::Profile) {
            runner = runner.sampled();
        }
        let results = runner.run(self.grid(opts));
        match &self.reduce {
            Reduce::Table(table) => table.render(&results, (self.axis)().len(), out)?,
            Reduce::Profile => profile(opts, &base, &results, out)?,
        }
        if let Some(dir) = &opts.obs.prof_out {
            profiling::write_profiles(dir, self.name, &results, opts.quick, out)?;
        }
        runner.finish();
        Ok(())
    }
}

impl Table {
    fn render(&self, results: &[RunResult], rungs: usize, out: &mut dyn Write) -> io::Result<()> {
        let mut rows: Vec<(&str, Vec<f64>)> = results
            .chunks(rungs)
            .map(|cells| (cells[0].workload.as_str(), (self.row)(cells)))
            .collect();
        if let Some((label, summary)) = self.summary {
            let columns = (0..rows[0].1.len())
                .map(|k| rows.iter().map(|(_, values)| values[k]).collect())
                .collect::<Vec<_>>();
            rows.push((label, summary(&columns)));
        }
        writeln!(out, "\n== {} ==", self.title)?;
        write!(out, "{:<12}", self.headers[0])?;
        for h in &self.headers[1..] {
            write!(out, "{h:>10}")?;
        }
        writeln!(out)?;
        for (name, values) in rows {
            write!(out, "{name:<12}")?;
            for v in values {
                write!(out, "{v:>10.3}")?;
            }
            writeln!(out)?;
        }
        if self.flush_latency {
            write_flush_latency(out, results)?;
        }
        writeln!(out, "\n{}", self.paper)
    }
}

/// The epoch flush-latency distribution (count, mean, p50/p95/p99 tail)
/// of each cell that persisted at least one epoch.
fn write_flush_latency(out: &mut dyn Write, results: &[RunResult]) -> io::Result<()> {
    let flushed: Vec<&RunResult> = results
        .iter()
        .filter(|r| r.stats.epoch_flush_latency.count() > 0)
        .collect();
    if flushed.is_empty() {
        return Ok(());
    }
    writeln!(out, "\n== epoch flush latency (cycles) ==")?;
    for r in flushed {
        let latency = &r.stats.epoch_flush_latency;
        writeln!(out, "{:<12}{:<12}{latency}", r.config, r.workload)?;
    }
    Ok(())
}

/// `metric` of every cell, relative to the cell at `base`.
fn over(cells: &[RunResult], base: usize, metric: fn(&SimStats) -> f64) -> Vec<f64> {
    let norm = metric(&cells[base].stats);
    cells.iter().map(|r| metric(&r.stats) / norm).collect()
}

fn cycles(stats: &SimStats) -> f64 {
    stats.cycles as f64
}

fn gmeans(columns: &[Vec<f64>]) -> Vec<f64> {
    columns.iter().map(|c| gmean(c)).collect()
}

/// One rung of the BSP barrier ladder: barrier, epoch size in dynamic
/// stores, undo logging. `fig13`, `fig14` and `profile_bsp` take their
/// rungs from this one ladder, each under its own labels.
type BspRung = (BarrierKind, u64, bool);
const NP: BspRung = (BarrierKind::NoPersistency, 10_000, true);
const LB300: BspRung = (BarrierKind::Lb, 300, true);
const LB1K: BspRung = (BarrierKind::Lb, 1000, true);
const LB10K: BspRung = (BarrierKind::Lb, 10_000, true);
const IDT10K: BspRung = (BarrierKind::LbIdt, 10_000, true);
const LBPP10K: BspRung = (BarrierKind::LbPp, 10_000, true);
const NOLOG10K: BspRung = (BarrierKind::LbPp, 10_000, false);

fn bsp_axis(rungs: &[(&str, BspRung)]) -> Vec<Rung> {
    let set = |(barrier, epoch_size, logging): BspRung| {
        move |c: &mut SystemConfig| {
            c.barrier = barrier;
            c.bsp_epoch_size = epoch_size;
            c.logging = logging;
        }
    };
    rungs
        .iter()
        .map(|&(label, r)| rung(label, set(r)))
        .collect()
}

fn lazy_variants() -> Vec<Rung> {
    let kinds = BarrierKind::LAZY_VARIANTS;
    kinds
        .map(|k| rung(k.to_string(), move |c| c.barrier = k))
        .into()
}

fn bep_base() -> SystemConfig {
    fig11_base(false)
}

fn bsp_base() -> SystemConfig {
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedStrictBulk;
    base
}

/// The application proxies at `ops` operations per thread, on
/// [`QUICK_CORES`] threads at quick scale.
fn app_params(quick: bool, ops: usize) -> AppParams {
    let threads = if quick {
        QUICK_CORES
    } else {
        AppParams::paper().threads
    };
    AppParams {
        threads,
        ops_per_thread: ops,
        ..AppParams::paper()
    }
}

fn micros(o: &Options) -> Vec<Workload> {
    micro::all(&fig11_params(o.quick))
}

fn bsp_apps(o: &Options) -> Vec<Workload> {
    let ops = if o.quick {
        800
    } else {
        AppParams::paper().ops_per_thread
    };
    apps::all(&app_params(o.quick, ops))
}

/// `profile_bsp`'s operations per thread: `--ops=`, else 800 at quick
/// scale and 40 000 at full.
fn profile_ops(o: &Options) -> usize {
    o.ops.unwrap_or(if o.quick { 800 } else { 40_000 })
}

/// Every experiment `exp` runs.
pub static EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "fig11",
        flags: &[],
        base: bep_base,
        workloads: micros,
        axis: lazy_variants,
        reduce: Reduce::Table(Table {
            title: "Figure 11: normalized transaction throughput (BEP micro-benchmarks)",
            headers: &["workload", "LB", "LB+IDT", "LB+PF", "LB++"],
            row: |cells| over(cells, 0, SimStats::throughput),
            summary: Some(("gmean", gmeans)),
            flush_latency: true,
            paper: "paper gmean: LB 1.00, LB+IDT 1.03, LB+PF 1.17, LB++ 1.22",
        }),
    },
    Experiment {
        name: "fig12",
        flags: &[],
        base: bep_base,
        workloads: micros,
        axis: lazy_variants,
        reduce: Reduce::Table(Table {
            title: "Figure 12: % conflicting epochs (BEP micro-benchmarks)",
            headers: &["workload", "LB", "LB+IDT", "LB+PF", "LB++"],
            row: |cells| {
                cells
                    .iter()
                    .map(|c| c.stats.conflicting_epoch_pct())
                    .collect()
            },
            summary: Some(("amean", |columns| {
                columns.iter().map(|c| amean(c)).collect()
            })),
            flush_latency: false,
            paper: "paper amean: LB 90, LB+IDT 90, LB+PF 77, LB++ 75",
        }),
    },
    Experiment {
        name: "fig13",
        flags: &[],
        base: bsp_base,
        workloads: bsp_apps,
        axis: || {
            bsp_axis(&[
                ("NP", NP),
                ("LB300", LB300),
                ("LB1000", LB1K),
                ("LB10000", LB10K),
            ])
        },
        reduce: Reduce::Table(Table {
            title: "Figure 13: execution time normalized to NP (BSP epoch-size sweep)",
            headers: &["workload", "LB300", "LB1K", "LB10K"],
            row: |cells| over(cells, 0, cycles)[1..].to_vec(),
            summary: Some(("gmean", gmeans)),
            flush_latency: true,
            paper: "paper gmean: LB300 1.9, LB1K 1.5, LB10K ~1.45",
        }),
    },
    Experiment {
        name: "fig14",
        flags: &[],
        base: bsp_base,
        workloads: bsp_apps,
        axis: || {
            bsp_axis(&[
                ("NP", NP),
                ("LB", LB10K),
                ("LB+IDT", IDT10K),
                ("LB++", LBPP10K),
                ("LB++NOLOG", NOLOG10K),
            ])
        },
        reduce: Reduce::Table(Table {
            title: "Figure 14: execution time normalized to NP (BSP, epoch = 10K stores)",
            headers: &["workload", "LB", "LB+IDT", "LB++", "LB++NOLOG"],
            row: |cells| over(cells, 0, cycles)[1..].to_vec(),
            summary: Some(("gmean", gmeans)),
            flush_latency: true,
            paper: "paper gmean: LB 1.5, LB+IDT 1.35, LB++ 1.3, LB++NOLOG 1.16",
        }),
    },
    // A1 (§7 text): invalidating vs non-invalidating epoch flushes.
    Experiment {
        name: "ablation_flush",
        flags: &[],
        base: bep_base,
        workloads: micros,
        axis: || {
            vec![
                rung("clwb", |c| c.flush_mode = FlushMode::NonInvalidating),
                rung("clflush", |c| c.flush_mode = FlushMode::Invalidating),
            ]
        },
        reduce: Reduce::Table(Table {
            title: "Ablation A1: clwb vs clflush flush mode (LB++, BEP micros)",
            headers: &["workload", "clwb", "clflush", "speedup"],
            row: |cells| {
                let (clwb, clflush) = (cells[0].stats.throughput(), cells[1].stats.throughput());
                vec![clwb, clflush, clwb / clflush]
            },
            summary: Some(("gmean", |columns| {
                vec![f64::NAN, f64::NAN, gmean(&columns[2])]
            })),
            flush_latency: false,
            paper: "paper: non-invalidating flush ~30% faster (speedup ~1.3)",
        }),
    },
    // A2 (§7.2 text): naive write-through strict persistency vs NP. The
    // apps run at 2000 ops per thread: write-through runs ~8x longer.
    Experiment {
        name: "ablation_writethrough",
        flags: &[],
        base: SystemConfig::micro48,
        workloads: |o| apps::all(&app_params(o.quick, if o.quick { 400 } else { 2000 })),
        axis: || {
            let set = |barrier, persistency| {
                move |c: &mut SystemConfig| {
                    c.barrier = barrier;
                    c.persistency = persistency;
                }
            };
            vec![
                rung(
                    "NP",
                    set(BarrierKind::NoPersistency, PersistencyKind::BufferedEpoch),
                ),
                rung(
                    "WT",
                    set(BarrierKind::WriteThrough, PersistencyKind::Strict),
                ),
            ]
        },
        reduce: Reduce::Table(Table {
            title: "Ablation A2: naive write-through strict persistency vs NP",
            headers: &["workload", "slowdown"],
            row: |cells| over(cells, 0, cycles)[1..].to_vec(),
            summary: Some(("gmean", gmeans)),
            flush_latency: false,
            paper: "paper: write-through is ~8x slower than NP",
        }),
    },
    // A3: IDT register pairs per epoch (§4.3 provisions 4), on the BSP
    // apps where inter-thread dependences dominate.
    Experiment {
        name: "ablation_idt_pairs",
        flags: &[],
        base: || SystemConfig {
            barrier: BarrierKind::LbPp,
            bsp_epoch_size: 1000,
            ..bsp_base()
        },
        workloads: |o| {
            let params = app_params(o.quick, if o.quick { 800 } else { 4000 });
            let build = |name| apps::build(apps::profile(name).expect("built-in"), &params);
            ["intruder", "ssca2", "vacation"].map(build).into()
        },
        axis: || {
            [1, 2, 4, 8]
                .map(|p| rung(format!("{p} pairs"), move |c| c.idt_pairs = p))
                .into()
        },
        reduce: Reduce::Table(Table {
            title: "Ablation A3: IDT register pairs per epoch (time vs 8 pairs | overflow %)",
            headers: &[
                "workload", "t@1", "t@2", "t@4", "t@8", "ovf%@1", "ovf%@2", "ovf%@4", "ovf%@8",
            ],
            row: |cells| {
                let mut values = over(cells, cells.len() - 1, cycles);
                values.extend(cells.iter().map(|c| {
                    let total = (c.stats.idt_recorded + c.stats.idt_overflows).max(1);
                    100.0 * c.stats.idt_overflows as f64 / total as f64
                }));
                values
            },
            summary: None,
            flush_latency: false,
            paper: "paper: 4 pairs per epoch (64 B per L1) suffice",
        }),
    },
    // A4: the in-flight epoch window (the 3-bit epoch id), under LB where
    // nothing flushes proactively; normalized to the paper's window of 8.
    Experiment {
        name: "ablation_inflight",
        flags: &[],
        base: || SystemConfig {
            barrier: BarrierKind::Lb,
            ..bep_base()
        },
        workloads: micros,
        axis: || {
            let window = |w| rung(format!("{w} epochs"), move |c| c.inflight_epochs = w);
            [2, 4, 8, 16].map(window).into()
        },
        reduce: Reduce::Table(Table {
            title: "Ablation A4: in-flight epoch window (throughput vs window = 8)",
            headers: &["workload", "w=2", "w=4", "w=8", "w=16"],
            row: |cells| over(cells, 2, SimStats::throughput),
            summary: Some(("gmean", gmeans)),
            flush_latency: false,
            paper: "paper: 8 in-flight epochs (3-bit epoch id in cache tags)",
        }),
    },
    // A5: the banked flush's arbiter cost: the same 8 MiB of LLC split
    // over 1 / 4 / 8 / 32 banks, on a fixed 8-core platform.
    Experiment {
        name: "ablation_banks",
        flags: &[],
        base: || SystemConfig {
            cores: QUICK_CORES,
            mesh_rows: 2,
            ..bep_base()
        },
        workloads: |o| {
            let params = MicroParams {
                threads: QUICK_CORES,
                ..fig11_params(o.quick)
            };
            vec![micro::queue(&params), micro::hash(&params)]
        },
        axis: || {
            let banked = |banks: usize| {
                rung(format!("{banks} banks"), move |c| {
                    c.llc_banks = banks;
                    c.llc_bank_size = 8 * 1024 * 1024 / banks as u64;
                    c.mesh_rows = if banks >= 8 { 2 } else { 1 };
                })
            };
            [1, 4, 8, 32].map(banked).into()
        },
        reduce: Reduce::Table(Table {
            title: "Ablation A5: LLC banking (throughput vs monolithic | NoC msgs per epoch)",
            headers: &[
                "workload", "t@1", "t@4", "t@8", "t@32", "msg@1", "msg@4", "msg@8", "msg@32",
            ],
            row: |cells| {
                let mut values = over(cells, 0, SimStats::throughput);
                let per_epoch = |c: &RunResult| {
                    c.stats.noc_messages as f64 / c.stats.epochs_persisted.max(1) as f64
                };
                values.extend(cells.iter().map(per_epoch));
                values
            },
            summary: None,
            flush_latency: false,
            paper: "paper: arbiter keeps the banked flush at O(n) messages per epoch",
        }),
    },
    // One application across the whole BSP ladder: stall attribution,
    // flush-latency tail and headline counters per configuration.
    Experiment {
        name: "profile_bsp",
        flags: &["--app=", "--ops=", "--json="],
        base: bsp_base,
        workloads: |o| vec![apps::build(o.app, &app_params(o.quick, profile_ops(o)))],
        axis: || {
            bsp_axis(&[
                ("NP", NP),
                ("LB300", LB300),
                ("LB1K", LB1K),
                ("LB10K", LB10K),
                ("IDT10K", IDT10K),
                ("LB++10K", LBPP10K),
                ("NOLOG", NOLOG10K),
            ])
        },
        reduce: Reduce::Profile,
    },
];

/// `profile_bsp`: per configuration, cycles, the stall attribution
/// (compute vs online-persist vs barrier shares of core cycles), the
/// flush-latency tail, and a detail line of counters plus the sampled
/// saturation peaks; with `--json=`, also the `pbm-profile-bsp/v1`
/// document.
fn profile(
    opts: &Options,
    base: &SystemConfig,
    results: &[RunResult],
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(
        out,
        "{:<10}{:>12}{:>8}{:>10}{:>10}{:>10}{:>9}{:>9}{:>9}",
        "config", "cycles", "norm", "epochs", "cfl%", "splits", "comp%", "onl%", "bar%"
    )?;
    let np_cycles = results[0].stats.cycles as f64;
    for cell in results {
        let s = &cell.stats;
        let core_cycles = (s.cycles * base.cores as u64).max(1) as f64;
        let onl = s.online_persist_stall_cycles as f64 / core_cycles * 100.0;
        let bar = s.barrier_stall_cycles as f64 / core_cycles * 100.0;
        writeln!(
            out,
            "{:<10}{:>12}{:>8.2}{:>10}{:>10.1}{:>10}{:>9.1}{:>9.1}{:>9.1}",
            cell.config,
            s.cycles,
            s.cycles as f64 / np_cycles,
            s.epochs_created,
            s.conflicting_epoch_pct(),
            s.deadlock_splits,
            100.0 - onl - bar,
            onl,
            bar,
        )?;
        if s.epoch_flush_latency.count() > 0 {
            writeln!(out, "           flush latency: {}", s.epoch_flush_latency)?;
        }
        let peak_mcq = cell.samples.iter().map(|m| m.mc_queue_depth).max();
        let peak_stalled = cell.samples.iter().map(|m| m.stalled_cores).max();
        writeln!(
            out,
            "           detail: wall={:?} I={} X={} ovf={} log={} chk={} evf={} parks={} \
             peak_mcq={} peak_stalled={}",
            cell.wall,
            s.conflicts_intra,
            s.conflicts_inter,
            s.idt_overflows,
            s.log_writes,
            s.checkpoint_writes,
            s.epochs_eviction_flushed,
            s.parks,
            peak_mcq.unwrap_or(0),
            peak_stalled.unwrap_or(0),
        )?;
    }
    if let Some(path) = &opts.json {
        let mut text = profile_json(opts, base, results).to_json();
        text.push('\n');
        write_or_die(path, text);
        eprintln!(
            "# profile_bsp: {} configs -> {}",
            results.len(),
            path.display()
        );
    }
    Ok(())
}

fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `pbm-profile-bsp/v1`: one ladder run as integer-only JSON. Stall
/// attribution is in raw core-cycles (consumers derive percentages) and
/// the flush-latency percentiles are bucket lower bounds, so the document
/// is byte-deterministic.
fn profile_json(opts: &Options, base: &SystemConfig, results: &[RunResult]) -> JsonValue {
    let config = |cell: &RunResult| {
        let s = &cell.stats;
        let core_cycles = s.cycles * base.cores as u64;
        let stalled = s.online_persist_stall_cycles + s.barrier_stall_cycles;
        let stalls = object([
            ("core_cycles", Num(core_cycles)),
            ("online_persist", Num(s.online_persist_stall_cycles)),
            ("barrier", Num(s.barrier_stall_cycles)),
            ("compute", Num(core_cycles.saturating_sub(stalled))),
        ]);
        object([
            ("config", Str(cell.config.clone())),
            ("cycles", Num(s.cycles)),
            ("epochs_created", Num(s.epochs_created)),
            ("deadlock_splits", Num(s.deadlock_splits)),
            ("stall_attribution", stalls),
            ("flush_latency", histogram_json(&s.epoch_flush_latency)),
        ])
    };
    object([
        ("schema", Str("pbm-profile-bsp/v1".into())),
        ("app", Str(opts.app.name.into())),
        ("ops_per_thread", Num(profile_ops(opts) as u64)),
        (
            "configs",
            JsonValue::Array(results.iter().map(config).collect()),
        ),
    ])
}

/// Nonzero power-of-two buckets plus the nearest-rank tail percentiles.
fn histogram_json(h: &Histogram) -> JsonValue {
    let bucket = |(lower, upper, count)| {
        object([
            ("lower", Num(lower)),
            ("upper", Num(upper)),
            ("count", Num(count)),
        ])
    };
    object([
        ("count", Num(h.count())),
        ("sum", Num(h.sum())),
        ("max", Num(h.max())),
        ("p50", Num(h.percentile(50.0))),
        ("p90", Num(h.percentile(90.0))),
        ("p99", Num(h.percentile(99.0))),
        ("p99_9", Num(h.percentile(99.9))),
        (
            "buckets",
            JsonValue::Array(h.nonzero_buckets().into_iter().map(bucket).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(list: &[&str]) -> Result<(&'static Experiment, Options), CliError> {
        parse(&list.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn error(list: &[&str]) -> String {
        parsed(list).expect_err("should be rejected").0
    }

    #[test]
    fn reads_every_flag_once() {
        let (exp, opts) = parsed(&[
            "fig13",
            "--quick",
            "--jobs=2",
            "--jobs=3",
            "--no-runner-json",
        ])
        .expect("valid");
        assert_eq!((exp.name, opts.quick, opts.jobs), ("fig13", true, 3));
        assert_eq!(opts.runner_json, None);
        let (_, opts) = parsed(&["fig13"]).expect("valid");
        assert_eq!(opts.runner_json, Some(PathBuf::from(DEFAULT_RUNNER_JSON)));
        let (_, opts) = parsed(&["profile_bsp", "--app=intruder", "--ops=100"]).expect("valid");
        assert_eq!((opts.app.name, profile_ops(&opts)), ("intruder", 100));
        let (_, opts) = parsed(&["profile_bsp", "--quick"]).expect("valid");
        assert_eq!((opts.app.name, profile_ops(&opts)), ("ssca2", 800));
    }

    #[test]
    fn rejects_bad_command_lines() {
        let takes = "(it takes --quick --jobs=";
        assert!(error(&["fig11", "--bogus"]).starts_with("fig11 does not take \"--bogus\""));
        assert!(error(&["fig11", "--quik"]).starts_with("fig11 does not take \"--quik\""));
        assert!(error(&["fig11", "--app=x"]).contains(takes));
        assert!(error(&["fig11", "stray"]).contains(takes));
        assert_eq!(
            error(&["fig11", "--jobs"]),
            "--jobs needs a value (--jobs=…)"
        );
        assert_eq!(error(&["fig11", "--quick=yes"]), "--quick takes no value");
        assert_eq!(
            error(&["fig11", "--jobs=0"]),
            "--jobs takes a positive worker count, got \"0\""
        );
        assert!(error(&["fig11", "--jobs=many"]).starts_with("--jobs takes a positive"));
        assert_eq!(
            error(&["fig11", "--trace-out="]),
            "--trace-out requires a path"
        );
        assert!(error(&["fig11", "--runner-json=r", "--no-runner-json"]).contains("contradict"));
        assert!(error(&["profile_bsp", "--app=nosuch"]).starts_with("--app takes one of"));
        assert!(error(&["nosuch"]).starts_with("unknown experiment \"nosuch\""));
        assert!(error(&[]).starts_with("usage: exp <experiment>"));
    }
}
