//! The causal-profiling pipeline behind the `prof` binary: the shared
//! fig11 grid, traced per-cell runs, and the `BENCH_prof.json` document.
//!
//! Lives in the library (rather than the binary) so the grid is shared
//! with `exp fig11` — the profiler attributes exactly the cells the figure
//! measures — and so the `--jobs` determinism of the whole pipeline is
//! testable in-process. `quick` is an explicit parameter everywhere (not
//! re-read from the environment) for the same reason.

use crate::experiments::{self, quick_system, Options, QUICK_CORES};
use crate::obs::run_one_instrumented;
use crate::Job;
use pbm_obs::json::JsonValue;
use pbm_prof::{report, Profile};
use pbm_types::{PersistencyKind, SystemConfig};
use pbm_workloads::micro::MicroParams;

/// The fig11 system base: micro48 under BEP, shrunk in quick mode.
pub fn fig11_base(quick: bool) -> SystemConfig {
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedEpoch;
    if quick {
        quick_system(&mut base);
    }
    base
}

/// The fig11 micro-benchmark parameters, shrunk in quick mode.
pub fn fig11_params(quick: bool) -> MicroParams {
    let mut params = MicroParams::paper();
    if quick {
        params.threads = QUICK_CORES;
        params.ops_per_thread = 16;
    }
    params
}

/// The fig11 cell grid — every micro-benchmark under every lazy barrier
/// variant, in figure order (workload-major,
/// [`pbm_types::BarrierKind::LAZY_VARIANTS`] within each workload).
pub fn fig11_jobs(quick: bool) -> Vec<Job> {
    let fig11 = experiments::find("fig11").expect("fig11 is in the table");
    let mut opts = Options::default();
    opts.quick = quick;
    fig11.grid(&opts)
}

/// One profiled grid cell: `(config label, workload label, profile)`.
pub type ProfiledCell = (String, String, Profile);

/// Runs every cell with tracing enabled and analyzes its event stream on
/// the worker, returning profiles in grid order. The raw events are
/// dropped worker-side (a traced paper-scale cell is millions of events;
/// the profile is a few hundred barriers), keeping peak memory bounded by
/// one trace per worker.
///
/// Deterministic across `jobs`: results come back in input order and each
/// cell's analysis depends only on that cell's (deterministic) trace.
pub fn profile_cells(jobs: usize, cells: Vec<Job>) -> Vec<ProfiledCell> {
    pbm_check::parallel_map(jobs, cells, |(config, workload, cfg, wl)| {
        let (_, events, _) = run_one_instrumented(cfg, &wl, true, None);
        (config, workload, pbm_prof::analyze(&events))
    })
}

/// Builds the `pbm-bench-prof/v1` document from profiled cells (grid
/// order preserved).
pub fn bench_prof_doc(profiles: &[ProfiledCell], quick: bool) -> JsonValue {
    report::bench_doc(
        profiles
            .iter()
            .map(|(config, workload, profile)| report::cell_json(config, workload, profile))
            .collect(),
        quick,
    )
}

/// Filesystem slug of a cell label pair (`LB++`, `queue` → `lb___queue`),
/// by the same convention as [`crate::ObsOptions::for_label`].
pub fn cell_slug(config: &str, workload: &str) -> String {
    crate::obs::slug(&format!("{config}_{workload}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::BarrierKind;

    #[test]
    fn grid_matches_fig11_shape() {
        let jobs = fig11_jobs(true);
        assert_eq!(jobs.len(), 5 * BarrierKind::LAZY_VARIANTS.len());
        // Workload-major, variants in order within each workload.
        for chunk in jobs.chunks(BarrierKind::LAZY_VARIANTS.len()) {
            for (job, kind) in chunk.iter().zip(BarrierKind::LAZY_VARIANTS) {
                assert_eq!(job.0, kind.to_string());
                assert_eq!(job.3.name, chunk[0].3.name);
            }
        }
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(cell_slug("LB++", "queue"), "lb___queue");
        assert_eq!(cell_slug("LB+IDT", "sps"), "lb_idt_sps");
    }
}
