//! Causal profiling behind `exp <experiment> --prof-out=DIR`: each traced
//! cell's persist latency is attributed with `pbm-prof` on its worker, and
//! the grid's `BENCH_prof.json` and attribution table are written once the
//! grid is done.
//!
//! Per cell, `DIR` gets `flame-<slug>.folded` (folded stacks; render with
//! `inferno-flamegraph` or `flamegraph.pl`) and `report-<slug>.json`
//! (`pbm-prof-report/v1`, with the [`TOP_BARRIERS`] slowest barriers);
//! per grid, `DIR/BENCH_prof.json` (`pbm-bench-prof/v1`, in grid order, so
//! byte-identical at any `--jobs=N`).
//!
//! The fig11 system and micro parameters also live here, so the figure and
//! the benchmark that measures it share one definition.

use crate::cli::write_or_die;
use crate::experiments::{quick_system, QUICK_CORES};
use crate::obs::slug;
use crate::RunResult;
use pbm_obs::json::JsonValue;
use pbm_prof::{flame, report};
use pbm_types::{PersistencyKind, SystemConfig, TraceEvent};
use pbm_workloads::micro::MicroParams;
use std::io::{self, Write};
use std::path::Path;

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

/// How many of the slowest barriers each cell's report details.
pub const TOP_BARRIERS: usize = 5;

/// One profiled cell, summarized: its `BENCH_prof.json` entry and its row
/// of the attribution table.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// The `pbm-bench-prof/v1` cell object.
    pub summary: JsonValue,
    /// The cell's attribution-table row.
    pub row: String,
}

/// Attributes one traced cell's persist latency and writes its flame graph
/// and report into `dir`.
pub(crate) fn profile_cell(
    dir: &Path,
    config: &str,
    workload: &str,
    events: &[TraceEvent],
) -> CellProfile {
    let profile = pbm_prof::analyze(events);
    let slug = slug(&format!("{config}-{workload}"));
    let stacks = flame::profile_stacks(&format!("{config};{workload}"), &profile);
    write_or_die(&dir.join(format!("flame-{slug}.folded")), stacks);
    let mut text = report::report_json(&profile, TOP_BARRIERS).to_json();
    text.push('\n');
    write_or_die(&dir.join(format!("report-{slug}.json")), text);

    let lat = profile.sorted_latencies();
    let count = lat.len() as u64;
    let mean = lat.iter().sum::<u64>().checked_div(count).unwrap_or(0);
    let dominant = profile.totals.dominant().map_or("-".to_string(), |(c, n)| {
        let total = profile.totals.total().max(1);
        format!("{c} ({}%)", n * 100 / total)
    });
    let row = format!(
        "{config:<12}{workload:<12}{count:>9}{mean:>10}{:>10}{:>10}  {dominant}",
        report::percentile(&lat, 50),
        report::percentile(&lat, 99),
    );
    CellProfile {
        summary: report::cell_json(config, workload, &profile),
        row,
    }
}

/// Writes the grid's `dir/BENCH_prof.json` and appends the attribution
/// table of `experiment` to `out`.
pub(crate) fn write_profiles(
    dir: &Path,
    experiment: &str,
    results: &[RunResult],
    quick: bool,
    out: &mut dyn Write,
) -> io::Result<()> {
    let cells: Vec<&CellProfile> = results.iter().filter_map(|r| r.prof.as_ref()).collect();
    let summaries = cells.iter().map(|c| c.summary.clone()).collect();
    let mut text = report::bench_doc(summaries, quick).to_json();
    text.push('\n');
    let path = dir.join("BENCH_prof.json");
    write_or_die(&path, text);
    eprintln!("# prof: {} cells -> {}", cells.len(), path.display());

    writeln!(out, "\n== persist-latency attribution ({experiment}) ==")?;
    writeln!(
        out,
        "{:<12}{:<12}{:>9}{:>10}{:>10}{:>10}  dominant",
        "config", "workload", "barriers", "mean", "p50", "p99"
    )?;
    for cell in cells {
        writeln!(out, "{}", cell.row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, Options};
    use pbm_types::BarrierKind;

    #[test]
    fn grid_matches_fig11_shape() {
        let mut opts = Options::default();
        opts.quick = true;
        let jobs = experiments::find("fig11").expect("fig11").grid(&opts);
        assert_eq!(jobs.len(), 5 * BarrierKind::LAZY_VARIANTS.len());
        // Workload-major, variants in order within each workload, on the
        // shared fig11 base.
        for chunk in jobs.chunks(BarrierKind::LAZY_VARIANTS.len()) {
            for (job, kind) in chunk.iter().zip(BarrierKind::LAZY_VARIANTS) {
                assert_eq!(job.0, kind.to_string());
                assert_eq!(job.2.cores, fig11_base(true).cores);
                assert_eq!(job.3.name, chunk[0].3.name);
            }
        }
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        let dir = std::env::temp_dir().join(format!("pbm-prof-slug-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let cell = profile_cell(&dir, "LB++", "queue", &[]);
        assert!(dir.join("flame-lb___queue.folded").exists());
        assert!(dir.join("report-lb___queue.json").exists());
        assert!(cell.row.starts_with("LB++        queue       "));
        assert_eq!(slug("LB+IDT-sps"), "lb_idt_sps");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
