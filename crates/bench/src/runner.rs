//! Parallel experiment runner: executes independent (workload, barrier,
//! config) grid cells on a scoped worker pool.
//!
//! Every experiment builds its cell grid, hands it to a [`Runner`], and
//! renders from the returned results — which always come back in grid
//! order, regardless of worker count, so the tables are byte-identical at
//! any `--jobs=N`. Flags every experiment takes:
//!
//! * `--jobs=N` — worker threads (default: available parallelism).
//! * `--trace-out=` / `--metrics-csv=` / `--metrics-interval=` — per-cell
//!   observability artifacts (see [`crate::obs::ObsOptions`]); each cell's
//!   outputs go to a distinct `-<config>-<workload>`-suffixed path so
//!   concurrent cells never interleave into one file.
//! * `--runner-json=<path>` / `--no-runner-json` — where (whether) to
//!   record wall-clock in `BENCH_runner.json` (see [`Runner::finish`]).

use crate::obs::{self, ObsOptions};
use crate::{run_one, Job, RunResult};
use pbm_obs::json::{self, JsonValue};
use pbm_types::Cycle;
use std::cell::Cell;
use std::path::PathBuf;
use std::thread;
use std::time::Instant;

/// Default destination of the wall-clock record, relative to the CWD.
pub const DEFAULT_RUNNER_JSON: &str = "BENCH_runner.json";

/// Schema tag stamped into `BENCH_runner.json`.
pub const RUNNER_JSON_SCHEMA: &str = "pbm-bench-runner/v1";

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(4, usize::from)
}

/// A worker pool that runs experiment cells in parallel and records the
/// binary's wall-clock.
///
/// Results are collected in deterministic grid order (input order), so
/// callers can keep indexing result chunks exactly as with a sequential
/// loop. When observability flags are active, every cell gets its own
/// artifact set at a label-suffixed path.
#[derive(Debug)]
pub struct Runner {
    binary: String,
    jobs: usize,
    obs: ObsOptions,
    report: Option<PathBuf>,
    quick: bool,
    started: Instant,
    cells: Cell<usize>,
}

impl Runner {
    /// A runner with explicit worker count and observability options and
    /// no wall-clock record (library/test use).
    pub fn new(binary: &str, jobs: usize, obs: ObsOptions) -> Self {
        assert!(jobs > 0, "need at least one worker");
        Runner {
            binary: binary.to_string(),
            jobs,
            obs,
            report: None,
            quick: false,
            started: Instant::now(),
            cells: Cell::new(0),
        }
    }

    /// Records the wall-clock in `report` (if any) on [`Runner::finish`],
    /// as a run at quick scale if `quick`.
    pub fn recording(mut self, report: Option<PathBuf>, quick: bool) -> Self {
        self.report = report;
        self.quick = quick;
        self
    }

    /// Runs the cell grid on the worker pool; results in grid order.
    pub fn run(&self, cells: Vec<Job>) -> Vec<RunResult> {
        self.run_cells(cells, None)
    }

    /// Like [`Runner::run`], but with the metrics sampler attached at
    /// `interval`, so each result carries its sampled time series (used by
    /// `exp profile_bsp` for saturation sketches).
    pub fn run_sampled(&self, cells: Vec<Job>, interval: Cycle) -> Vec<RunResult> {
        self.run_cells(cells, Some(interval))
    }

    fn run_cells(&self, cells: Vec<Job>, sample: Option<Cycle>) -> Vec<RunResult> {
        self.cells.set(self.cells.get() + cells.len());
        let obs = &self.obs;
        pbm_check::parallel_map(self.jobs, cells, |(config, workload, cfg, wl)| {
            let t0 = Instant::now();
            let (stats, samples) = match sample {
                Some(interval) => {
                    let (stats, _, samples) =
                        obs::run_one_instrumented(cfg.clone(), &wl, false, Some(interval));
                    (stats, samples)
                }
                None => (run_one(cfg.clone(), &wl), Vec::new()),
            };
            if obs.is_active() {
                let cell_obs = obs.for_label(&format!("{config}-{workload}"));
                obs::capture_artifacts(&cell_obs, cfg, &wl, &format!("{workload}/{config}"));
            }
            RunResult {
                workload,
                config,
                stats,
                samples,
                wall: t0.elapsed(),
            }
        })
    }

    /// Records the run's total wall-clock in `BENCH_runner.json`, under the
    /// name the runner was built with (`"binary"`: the experiment's name)
    /// and the quick flag [`Runner::recording`] was given (merging with — and replacing — any previous entry for the same
    /// `(binary, jobs, quick)` identity) and notes it on stderr. No-op
    /// under `--no-runner-json` or when the runner was built without a
    /// report path.
    ///
    /// The file is a deterministic JSON document:
    ///
    /// ```json
    /// {"schema": "pbm-bench-runner/v1",
    ///  "runs": [{"binary": "fig11", "jobs": 8, "cells": 20,
    ///            "quick": true, "wall_ms": 1234}]}
    /// ```
    pub fn finish(&self) {
        let Some(path) = &self.report else {
            return;
        };
        let wall_ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let entry = JsonValue::Object(vec![
            ("binary".into(), JsonValue::Str(self.binary.clone())),
            ("jobs".into(), JsonValue::Num(self.jobs as u64)),
            ("cells".into(), JsonValue::Num(self.cells.get() as u64)),
            ("quick".into(), JsonValue::Bool(self.quick)),
            ("wall_ms".into(), JsonValue::Num(wall_ms)),
        ]);
        let runs: Vec<JsonValue> = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|doc| {
                doc.get("runs")
                    .and_then(|r| r.as_array().map(<[_]>::to_vec))
            })
            .unwrap_or_default();
        let runs = merge_run_entry(runs, entry);
        let doc = JsonValue::Object(vec![
            ("schema".into(), JsonValue::Str(RUNNER_JSON_SCHEMA.into())),
            ("runs".into(), JsonValue::Array(runs)),
        ]);
        let mut text = doc.to_json();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            crate::cli::die(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!(
            "# runner: {} cells in {wall_ms} ms with {} jobs -> {}",
            self.cells.get(),
            self.jobs,
            path.display()
        );
    }
}

/// Merges a fresh run entry into the `runs` array, replacing only a
/// previous entry with the same `(binary, jobs, quick)` identity. A quick
/// CI smoke run and a full-scale run of the same binary therefore coexist
/// instead of clobbering each other's wall-clock record.
fn merge_run_entry(mut runs: Vec<JsonValue>, entry: JsonValue) -> Vec<JsonValue> {
    let key = |r: &JsonValue| {
        (
            r.get("binary")
                .and_then(JsonValue::as_str)
                .map(String::from),
            r.get("jobs").and_then(JsonValue::as_u64),
            r.get("quick").cloned(),
        )
    };
    let entry_key = key(&entry);
    runs.retain(|r| key(r) != entry_key);
    runs.push(entry);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_sim::ProgramBuilder;
    use pbm_types::{Addr, SystemConfig};
    use pbm_workloads::Workload;

    fn tiny_grid(n: usize) -> Vec<Job> {
        let mut cfg = SystemConfig::small_test();
        cfg.cores = 1;
        let mut b = ProgramBuilder::new();
        b.store(Addr::new(0), 1).barrier();
        let wl = Workload {
            name: "t",
            programs: vec![b.build()],
            preloads: vec![],
        };
        (0..n)
            .map(|i| (format!("c{i}"), "t".to_string(), cfg.clone(), wl.clone()))
            .collect()
    }

    #[test]
    fn results_come_back_in_grid_order() {
        let runner = Runner::new("test", 3, ObsOptions::default());
        let results = runner.run(tiny_grid(7));
        assert_eq!(results.len(), 7);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.config, format!("c{i}"));
            assert_eq!(r.stats.stores, 1);
            assert!(r.samples.is_empty());
        }
    }

    #[test]
    fn sampled_runs_carry_the_series() {
        let runner = Runner::new("test", 2, ObsOptions::default());
        let results = runner.run_sampled(tiny_grid(2), Cycle::new(10));
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(!r.samples.is_empty(), "sampler attached");
        }
    }

    fn run_entry(binary: &str, jobs: u64, quick: bool, wall_ms: u64) -> JsonValue {
        JsonValue::Object(vec![
            ("binary".into(), JsonValue::Str(binary.into())),
            ("jobs".into(), JsonValue::Num(jobs)),
            ("cells".into(), JsonValue::Num(20)),
            ("quick".into(), JsonValue::Bool(quick)),
            ("wall_ms".into(), JsonValue::Num(wall_ms)),
        ])
    }

    #[test]
    fn merge_replaces_only_matching_identity() {
        let runs = vec![
            run_entry("fig11", 2, true, 100),
            run_entry("fig11", 2, false, 90_000),
            run_entry("fig11", 8, true, 40),
            run_entry("prof", 2, true, 200),
        ];
        let merged = merge_run_entry(runs, run_entry("fig11", 2, true, 150));
        assert_eq!(
            merged.len(),
            4,
            "only the same (binary, jobs, quick) entry is replaced"
        );
        let wall = |b: &str, j: u64, q: bool| {
            merged
                .iter()
                .find(|r| {
                    r.get("binary").and_then(JsonValue::as_str) == Some(b)
                        && r.get("jobs").and_then(JsonValue::as_u64) == Some(j)
                        && r.get("quick") == Some(&JsonValue::Bool(q))
                })
                .and_then(|r| r.get("wall_ms").and_then(JsonValue::as_u64))
        };
        assert_eq!(wall("fig11", 2, true), Some(150), "replaced");
        assert_eq!(
            wall("fig11", 2, false),
            Some(90_000),
            "full-scale run survives"
        );
        assert_eq!(wall("fig11", 8, true), Some(40), "other job count survives");
        assert_eq!(wall("prof", 2, true), Some(200), "other binary survives");
        assert_eq!(
            merged
                .last()
                .unwrap()
                .get("wall_ms")
                .and_then(JsonValue::as_u64),
            Some(150),
            "fresh entry appends at the end"
        );
    }

    #[test]
    fn worker_counts_agree_on_stats() {
        let one = Runner::new("test", 1, ObsOptions::default()).run(tiny_grid(5));
        let many = Runner::new("test", 8, ObsOptions::default()).run(tiny_grid(5));
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.stats, b.stats);
        }
    }
}
