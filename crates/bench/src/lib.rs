//! Experiment harness: runs (configuration x workload) grids and renders
//! the rows/series of the paper's tables and figures.
//!
//! Every figure and ablation is one entry of the [`experiments`] table,
//! run by the `exp` binary (`exp fig11 --quick`); see EXPERIMENTS.md at
//! the repository root for the paper-vs-measured record they produce.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod obs;
pub mod profiling;
pub mod runner;

pub use obs::{capture_artifacts, run_one_instrumented, ObsOptions};
pub use runner::{default_jobs, Runner};

use pbm_sim::System;
use pbm_types::{MetricSample, SimStats, SystemConfig};
use pbm_workloads::Workload;
use std::time::Duration;

/// One completed run of the matrix.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Configuration label (barrier kind, epoch size, ...).
    pub config: String,
    /// The run's statistics.
    pub stats: SimStats,
    /// Sampled metrics series ([`Runner::run_sampled`] only; empty
    /// otherwise).
    pub samples: Vec<MetricSample>,
    /// Wall-clock of this cell's simulation on its worker thread.
    pub wall: Duration,
}

/// Runs one workload under one configuration.
///
/// # Panics
///
/// Panics if the configuration is invalid or the simulation wedges (both
/// indicate bugs, not workload conditions).
pub fn run_one(cfg: SystemConfig, wl: &Workload) -> SimStats {
    let mut sys = System::new(cfg, wl.programs.clone()).expect("valid config");
    wl.apply_preloads(&mut sys);
    sys.run()
}

/// One grid cell: `(config label, workload label, config, workload)`.
pub type Job = (String, String, SystemConfig, Workload);

/// Geometric mean (the paper's summary statistic for throughput and
/// execution-time ratios).
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of nothing");
    let log_sum: f64 = xs
        .iter()
        .map(|x| {
            assert!(*x > 0.0, "gmean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean (used for Figure 12's conflict percentages).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn amean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "amean of nothing");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The Table 1 header line (system parameters), so every experiment's
/// output records the platform it ran on.
pub fn system_header(cfg: &SystemConfig) -> String {
    format!(
        "# system: {} cores, {}KiB L1 x{}-way, {}x{}MiB LLC x{}-way, {} MCs, \
         NVRAM w/r {}/{} cycles, mesh {}x{}, barrier {}, model {}",
        cfg.cores,
        cfg.l1_size / 1024,
        cfg.l1_assoc,
        cfg.llc_banks,
        cfg.llc_bank_size / (1024 * 1024),
        cfg.llc_assoc,
        cfg.mcs,
        cfg.nvram_write_latency,
        cfg.nvram_read_latency,
        cfg.mesh_rows,
        cfg.mesh_cols(),
        cfg.barrier,
        cfg.persistency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_constants() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn amean_basic() {
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[0.0]);
    }
}
