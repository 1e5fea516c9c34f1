//! The four workloads: how each generates its inputs from the seed, and
//! how one item of it (a grid cell or a crash case) is driven through the
//! crates' public calls, with a span around each call.

use crate::fingerprint::Fnv;
use crate::span::Tracer;
use pbm_bench::profiling::{fig11_base, fig11_params};
use pbm_check::{run_case, CaseOk, CaseSpec, FailureKind};
use pbm_sim::{SchedulePerturbation, System};
use pbm_types::{BarrierKind, Cycle, PersistencyKind, SimStats, SystemConfig};
use pbm_workloads::apps::{self, AppParams};
use pbm_workloads::micro;
use pbm_workloads::random::{random_programs, RandomProgramParams};
use pbm_workloads::Workload;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

/// Crash-sweep shape: the specs of `check --ops=160 --max-cases=120`.
pub const CRASH_CASES: usize = 120;
const CRASH_OPS_PER_CORE: usize = 160;
const CRASH_SHARED_LINES: u64 = 16;
const CRASH_CORES: usize = 4;
/// The persistency models a `check` campaign sweeps, in its order.
const CRASH_MODELS: [PersistencyKind; 3] = [
    PersistencyKind::BufferedEpoch,
    PersistencyKind::Epoch,
    PersistencyKind::BufferedStrictBulk,
];

/// Seed 1 reproduces the repository's own figures and `check --seed=1`.
pub const DEFAULT_SEED: u64 = 1;
/// The second seed with reference fingerprints, kept for rechecking
/// claims on inputs not used while writing them.
pub const HELD_OUT_SEED: u64 = 1009;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BepMicro,
    BspApps,
    CrashSweep,
    TracePipeline,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::BepMicro,
        Kind::BspApps,
        Kind::CrashSweep,
        Kind::TracePipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BepMicro => "bep-micro",
            Kind::BspApps => "bsp-apps",
            Kind::CrashSweep => "crash-sweep",
            Kind::TracePipeline => "trace-pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A generator seed for benchmark seed `seed`: the repository default at
/// [`DEFAULT_SEED`], well-separated SplitMix64 streams otherwise.
fn derived_seed(default: u64, seed: u64) -> u64 {
    default.wrapping_add(
        seed.wrapping_sub(DEFAULT_SEED)
            .wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// First random-program seed of benchmark seed `seed`: seed `s` runs the
/// case seeds `1 + 120(s-1) ..`, i.e. `check --seed=<that>`.
fn first_case_seed(seed: u64) -> u64 {
    1u64.wrapping_add(
        seed.wrapping_sub(DEFAULT_SEED)
            .wrapping_mul(CRASH_CASES as u64),
    )
}

/// One grid cell: a configuration applied to one generated workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub config: String,
    pub cfg: SystemConfig,
    pub workload: usize,
}

/// One pass's generated inputs.
#[derive(Debug)]
pub enum Inputs {
    Grid {
        workloads: Vec<Workload>,
        cells: Vec<Cell>,
    },
    Cases(Vec<CaseSpec>),
}

impl Inputs {
    pub fn len(&self) -> usize {
        match self {
            Inputs::Grid { cells, .. } => cells.len(),
            Inputs::Cases(specs) => specs.len(),
        }
    }
}

fn fig14_configs() -> Vec<(String, SystemConfig)> {
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedStrictBulk;
    base.bsp_epoch_size = 10_000;
    let mut out = Vec::new();
    for (label, barrier, logging) in [
        ("NP", BarrierKind::NoPersistency, true),
        ("LB", BarrierKind::Lb, true),
        ("LB+IDT", BarrierKind::LbIdt, true),
        ("LB++", BarrierKind::LbPp, true),
        ("LB++NOLOG", BarrierKind::LbPp, false),
    ] {
        let mut cfg = base.clone();
        cfg.barrier = barrier;
        cfg.logging = logging;
        out.push((label.to_string(), cfg));
    }
    out
}

fn lazy_configs(base: &SystemConfig, kinds: &[BarrierKind]) -> Vec<(String, SystemConfig)> {
    kinds
        .iter()
        .map(|&kind| {
            let mut cfg = base.clone();
            cfg.barrier = kind;
            (kind.to_string(), cfg)
        })
        .collect()
}

fn grid(workloads: Vec<Workload>, configs: &[(String, SystemConfig)]) -> Inputs {
    let cells = (0..workloads.len())
        .flat_map(|workload| {
            configs.iter().map(move |(config, cfg)| Cell {
                config: config.clone(),
                cfg: cfg.clone(),
                workload,
            })
        })
        .collect();
    Inputs::Grid { workloads, cells }
}

/// Generates the inputs of `kind` for benchmark seed `seed`.
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::BepMicro | Kind::TracePipeline => {
            let mut params = fig11_params(false);
            params.seed = derived_seed(params.seed, seed);
            let base = fig11_base(false);
            if kind == Kind::BepMicro {
                grid(
                    micro::all(&params),
                    &lazy_configs(&base, &BarrierKind::LAZY_VARIANTS),
                )
            } else {
                let workloads = vec![micro::hash(&params), micro::queue(&params)];
                grid(
                    workloads,
                    &lazy_configs(&base, &[BarrierKind::Lb, BarrierKind::LbPp]),
                )
            }
        }
        Kind::BspApps => {
            let mut params = AppParams::paper();
            params.seed = derived_seed(params.seed, seed);
            grid(apps::all(&params), &fig14_configs())
        }
        Kind::CrashSweep => {
            let params = RandomProgramParams::mixed(CRASH_OPS_PER_CORE, CRASH_SHARED_LINES);
            let mut case_seed = first_case_seed(seed);
            let mut specs = Vec::with_capacity(CRASH_CASES);
            'batches: loop {
                for barrier in BarrierKind::LAZY_VARIANTS {
                    for persistency in CRASH_MODELS {
                        if specs.len() == CRASH_CASES {
                            break 'batches;
                        }
                        specs.push(CaseSpec {
                            programs: random_programs(case_seed, CRASH_CORES, &params),
                            barrier,
                            persistency,
                            perturb_seed: perturb_for(case_seed),
                            bsp_epoch_size: 7,
                            seed: case_seed,
                        });
                        case_seed = case_seed.wrapping_add(1);
                    }
                }
            }
            Inputs::Cases(specs)
        }
    }
}

/// The campaign's perturbation rule: every third case seed keeps the
/// exact default schedule.
fn perturb_for(seed: u64) -> Option<u64> {
    if seed.is_multiple_of(3) {
        None
    } else {
        Some(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Builds (and drops) the simulated system of every item: the set-up
/// work a pass does besides generating inputs.
pub fn build_all(inputs: &Inputs) {
    match inputs {
        Inputs::Grid { workloads, cells } => {
            for cell in cells {
                std::hint::black_box(build_cell(cell, &workloads[cell.workload], false));
            }
        }
        Inputs::Cases(specs) => {
            for spec in specs {
                std::hint::black_box(build_case(spec));
            }
        }
    }
}

fn build_cell(cell: &Cell, wl: &Workload, tracing: bool) -> System {
    let mut sys = System::new(cell.cfg.clone(), wl.programs.clone()).expect("valid config");
    wl.apply_preloads(&mut sys);
    if tracing {
        sys.enable_tracing();
    }
    sys
}

fn build_case(spec: &CaseSpec) -> System {
    let mut sys = System::new(spec.config(), spec.programs.clone()).expect("valid config");
    sys.enable_checking();
    if let Some(seed) = spec.perturb_seed {
        sys.set_perturbation(&SchedulePerturbation::from_seed(seed));
    }
    sys
}

/// What one item produced, and the host time of its parts.
#[derive(Debug, Clone, Default)]
pub struct ItemOut {
    pub label: String,
    /// Configuration label (`LB++`, `NP`, ...).
    pub config: String,
    pub fingerprint: u64,
    pub failure: Option<String>,
    pub stats: SimStats,
    /// Simulated loads + stores + barriers.
    pub ops: u64,
    /// Units of the workload's `items_per_s`: simulated ops, crash points
    /// or exported trace events.
    pub work: u64,
    /// Whole call, in seconds.
    pub total_s: f64,
    /// The part `sim_ops_per_s` counts.
    pub sim_s: f64,
    /// The part `items_per_s` counts.
    pub work_s: f64,
    /// `System::run` alone.
    pub run_s: f64,
    pub crash_points: u64,
    /// Crash points whose snapshot differs from the previous point's.
    pub novel_points: u64,
    /// Crash points recovered with the undo log (BSP cases).
    pub recovered_points: u64,
    pub events: u64,
    pub export_bytes: u64,
    pub barriers: u64,
    pub noc_wait_cycles: u64,
}

fn ops_of(stats: &SimStats) -> u64 {
    stats.loads + stats.stores + stats.barriers
}

/// Runs item `index` of `inputs`. With `replay`, a crash case is driven
/// step by step through the public calls `run_case` makes, so each gets a
/// span; otherwise `run_case` itself is called. Panics are caught and
/// reported as the item's failure.
pub fn run_item(
    kind: Kind,
    inputs: &Inputs,
    index: usize,
    tracer: &mut Tracer,
    replay: bool,
) -> ItemOut {
    let mark = tracer.begin("bench.item");
    let (label, config) = match inputs {
        Inputs::Grid { workloads, cells } => {
            let cell = &cells[index];
            (
                format!("{}/{}", workloads[cell.workload].name, cell.config),
                cell.config.clone(),
            )
        }
        Inputs::Cases(specs) => {
            let spec = &specs[index];
            let config = spec.barrier.to_string();
            (
                format!("case{index:03}/{config}/{}", spec.persistency),
                config,
            )
        }
    };
    let ran = panic::catch_unwind(AssertUnwindSafe(|| match inputs {
        Inputs::Grid { workloads, cells } => {
            let cell = &cells[index];
            grid_cell(
                cell,
                &workloads[cell.workload],
                kind == Kind::TracePipeline,
                tracer,
            )
        }
        Inputs::Cases(specs) if replay => crash_case_replayed(&specs[index], tracer),
        Inputs::Cases(specs) => crash_case(&specs[index], tracer),
    }));
    let mut out = ran.unwrap_or_else(|payload| ItemOut {
        failure: Some(format!("panicked: {}", panic_message(&payload))),
        ..ItemOut::default()
    });
    out.total_s = tracer.end(mark);
    if kind == Kind::CrashSweep {
        out.sim_s = out.total_s;
        out.work_s = out.total_s;
    }
    out.label = label;
    out.config = config;
    out
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn grid_cell(cell: &Cell, wl: &Workload, pipeline: bool, tracer: &mut Tracer) -> ItemOut {
    let (mut sys, _) = tracer.span("sim.build", || build_cell(cell, wl, pipeline));
    let (stats, run_s) = tracer.span("sim.run", || sys.run());
    let mut out = ItemOut {
        ops: ops_of(&stats),
        run_s,
        sim_s: run_s,
        noc_wait_cycles: sys.noc_wait_cycles().iter().sum(),
        ..ItemOut::default()
    };
    let mut fp = Fnv::default();
    if pipeline {
        let (events, take_s) = tracer.span("sim.take", || sys.take_trace_events());
        let (profile, analyze_s) = tracer.span("prof.analyze", || pbm_prof::analyze(&events));
        let (json, export_s) = tracer.span("obs.export", || {
            pbm_obs::chrome::export_chrome_trace(&events, &[])
        });
        out.sim_s += take_s + analyze_s;
        out.work_s = export_s;
        out.events = events.len() as u64;
        out.work = out.events;
        out.export_bytes = json.len() as u64;
        out.barriers = profile.barriers.len() as u64;
        let mark = tracer.begin("bench.verify");
        let report = pbm_prof::report::report_json(&profile, 8).to_json();
        fp.u64(out.events)
            .bytes(report.as_bytes())
            .bytes(json.as_bytes());
        if profile.incomplete != 0 {
            out.failure = Some(format!(
                "{} epochs never persisted in the trace",
                profile.incomplete
            ));
        }
        tracer.end(mark);
    } else {
        out.work = out.ops;
        out.work_s = run_s;
    }
    let (fingerprint, _) = tracer.span("bench.verify", || fp.stats(&stats).finish());
    out.fingerprint = fingerprint;
    out.stats = stats;
    out
}

/// Fingerprint of a crash case's result: verdict, crash points, final
/// durable values and statistics.
pub fn case_fingerprint(result: &Result<CaseOk, FailureKind>) -> u64 {
    let mut fp = Fnv::default();
    match result {
        Ok(ok) => {
            fp.u64(0).u64(ok.crash_points as u64).u64(ok.epoch_lines);
            fp.u64(ok.final_values.len() as u64);
            for (&line, &value) in &ok.final_values {
                fp.u64(line).u64(u64::from(value));
            }
            fp.stats(&ok.stats);
        }
        Err(FailureKind::Violation { at, message }) => {
            fp.u64(1).u64(*at).bytes(message.as_bytes());
        }
        Err(FailureKind::CyclicDependences) => {
            fp.u64(2);
        }
        Err(FailureKind::Panic(message)) => {
            fp.u64(3).bytes(message.as_bytes());
        }
    }
    fp.finish()
}

fn case_out(
    result: Result<CaseOk, FailureKind>,
    novel_points: u64,
    noc_wait_cycles: u64,
) -> ItemOut {
    let fingerprint = case_fingerprint(&result);
    match result {
        Ok(ok) => ItemOut {
            fingerprint,
            ops: ops_of(&ok.stats),
            crash_points: ok.crash_points as u64,
            work: ok.crash_points as u64,
            novel_points,
            noc_wait_cycles,
            stats: ok.stats,
            ..ItemOut::default()
        },
        Err(failure) => ItemOut {
            fingerprint,
            failure: Some(failure.to_string()),
            ..ItemOut::default()
        },
    }
}

fn crash_case(spec: &CaseSpec, tracer: &mut Tracer) -> ItemOut {
    let (result, _) = tracer.span("check.run_case", || run_case(spec));
    case_out(result, 0, 0)
}

/// Order-independent digest of a durable snapshot's contents.
fn snapshot_digest(snap: &pbm_nvram::DurableSnapshot) -> u64 {
    snap.iter().fold(snap.len() as u64, |acc, (line, value)| {
        let mut z = line.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value;
        z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc.wrapping_add(z ^ (z >> 29))
    })
}

/// `run_case`'s steps, each through the same public call and in a span:
/// build, run, dependence-graph check, crash points, then snapshot,
/// recovery and check at every point.
fn crash_case_replayed(spec: &CaseSpec, tracer: &mut Tracer) -> ItemOut {
    let (mut sys, _) = tracer.span("sim.build", || build_case(spec));
    let (stats, run_s) = tracer.span("sim.run", || sys.run());
    let noc_wait: u64 = sys.noc_wait_cycles().iter().sum();
    let bsp = spec.persistency == PersistencyKind::BufferedStrictBulk;
    let ck = sys.checker().expect("checking enabled");
    let (acyclic, _) = tracer.span("core.hb", || ck.hb_graph().is_acyclic());
    if !acyclic {
        return case_out(Err(FailureKind::CyclicDependences), 0, noc_wait);
    }
    let (points, _) = tracer.span("nvram.points", || {
        let mut points: Vec<Cycle> = vec![Cycle::ZERO];
        points.extend(sys.persist_times());
        if bsp {
            for rec in sys.undo_log().records() {
                points.push(rec.durable_at);
                points.extend(rec.committed_at);
            }
        }
        for i in 0..points.len() {
            points.push(Cycle::new(points[i].as_u64().saturating_sub(1)));
        }
        points.sort_unstable();
        points.dedup();
        points
    });
    let mut novel = 0;
    let mut previous = None;
    for &at in &points {
        let (snap, _) = tracer.span("nvram.snapshot", || sys.persistent_snapshot_at(at));
        let (digest, _) = tracer.span("bench.verify", || snapshot_digest(&snap));
        novel += u64::from(previous != Some(digest));
        previous = Some(digest);
        let checked = if bsp {
            let ((recovered, _), _) =
                tracer.span("nvram.recover", || snap.recover_with(sys.undo_log()));
            tracer
                .span("core.check", || ck.check_bsp_recovered(&recovered))
                .0
        } else {
            tracer.span("core.check", || ck.check_bep(&snap)).0
        };
        if let Err(v) = checked {
            let failure = FailureKind::Violation {
                at: at.as_u64(),
                message: v.to_string(),
            };
            return case_out(Err(failure), novel, noc_wait);
        }
    }
    let (final_values, _) = tracer.span("nvram.snapshot", || {
        sys.persistent_snapshot_at(Cycle::new(u64::MAX))
            .iter()
            .map(|(line, token)| (line.as_u64(), System::token_value(token)))
            .collect::<BTreeMap<_, _>>()
    });
    let ok = CaseOk {
        stats,
        crash_points: points.len(),
        final_values,
        epoch_lines: ck.epoch_line_write_count() as u64,
    };
    let mut out = case_out(Ok(ok), novel, noc_wait);
    out.run_s = run_s;
    if bsp {
        out.recovered_points = out.crash_points;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_specs() -> Vec<CaseSpec> {
        let params = RandomProgramParams::mixed(30, 8);
        let mut specs = Vec::new();
        for (i, barrier) in BarrierKind::LAZY_VARIANTS.into_iter().enumerate() {
            for (j, persistency) in CRASH_MODELS.into_iter().enumerate() {
                let seed = 40 + (3 * i + j) as u64;
                specs.push(CaseSpec {
                    programs: random_programs(seed, CRASH_CORES, &params),
                    barrier,
                    persistency,
                    perturb_seed: perturb_for(seed),
                    bsp_epoch_size: 7,
                    seed,
                });
            }
        }
        specs
    }

    #[test]
    fn replay_agrees_with_run_case() {
        let specs = small_specs();
        let inputs = Inputs::Cases(specs.clone());
        let mut tracer = Tracer::new(true);
        for (i, spec) in specs.iter().enumerate() {
            let want = run_case(spec);
            let got = run_item(Kind::CrashSweep, &inputs, i, &mut tracer, true);
            assert_eq!(got.fingerprint, case_fingerprint(&want), "{}", got.label);
            let ok = want.expect("clean design passes");
            assert_eq!(got.crash_points, ok.crash_points as u64);
            assert_eq!(got.stats, ok.stats);
            assert!(got.failure.is_none());
            assert!(got.novel_points >= 1 && got.novel_points <= got.crash_points);
        }
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        for layer in [
            "bench.verify",
            "sim.build",
            "sim.run",
            "core.hb",
            "nvram.points",
            "nvram.snapshot",
            "nvram.recover",
            "core.check",
        ] {
            assert!(names.contains(&layer), "no {layer} span");
        }
    }

    #[test]
    fn default_seed_reproduces_the_check_campaign() {
        let Inputs::Cases(specs) = generate(Kind::CrashSweep, DEFAULT_SEED) else {
            panic!("crash-sweep generates cases");
        };
        assert_eq!(specs.len(), CRASH_CASES);
        assert_eq!(specs[0].seed, 1);
        assert_eq!(specs[0].barrier, BarrierKind::Lb);
        assert_eq!(specs[2].persistency, PersistencyKind::BufferedStrictBulk);
        assert_eq!(
            specs[2].perturb_seed, None,
            "seed 3 keeps the default schedule"
        );
        assert_eq!(specs[119].seed, 120);
        let Inputs::Cases(next) = generate(Kind::CrashSweep, 2) else {
            unreachable!()
        };
        assert_eq!(
            next[0].seed, 121,
            "seeds take disjoint blocks of case seeds"
        );
    }

    #[test]
    fn grids_have_the_figure_shapes() {
        assert_eq!(generate(Kind::BepMicro, DEFAULT_SEED).len(), 5 * 4);
        assert_eq!(generate(Kind::TracePipeline, DEFAULT_SEED).len(), 2 * 2);
        let mut params = fig11_params(false);
        assert_eq!(derived_seed(params.seed, DEFAULT_SEED), params.seed);
        params.seed = derived_seed(params.seed, 2);
        assert_ne!(params.seed, fig11_params(false).seed);
    }
}
