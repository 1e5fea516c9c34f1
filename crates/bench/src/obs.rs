//! Observability plumbing for the experiments: the `--trace-out=` /
//! `--metrics-csv=` options, instrumented runs, and artifact export.

use crate::cli::{die, CliError, Flags};
use pbm_obs::{chrome, metrics_csv};
use pbm_sim::System;
use pbm_types::{Cycle, MetricSample, SimStats, SystemConfig, TraceEvent};
use pbm_workloads::Workload;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// Default sampling cadence when `--metrics-csv` is given without
/// `--metrics-interval` (cycles).
pub const DEFAULT_METRICS_INTERVAL: u64 = 5_000;

/// Observability knobs shared by every experiment.
///
/// * `--trace-out=<path>` — write a Chrome trace-event JSON (open in
///   Perfetto / `chrome://tracing`) for one representative cell.
/// * `--metrics-csv=<path>` — write the periodic metrics time-series.
/// * `--metrics-interval=<cycles>` — sampling cadence (default
///   [`DEFAULT_METRICS_INTERVAL`]).
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Destination for the Chrome trace-event JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Destination for the metrics CSV, if requested.
    pub metrics_csv: Option<PathBuf>,
    /// Sampling cadence in cycles (used only when `metrics_csv` is set).
    pub metrics_interval: u64,
}

impl Default for ObsOptions {
    /// No artifacts, sampling at [`DEFAULT_METRICS_INTERVAL`].
    fn default() -> Self {
        ObsOptions {
            trace_out: None,
            metrics_csv: None,
            metrics_interval: DEFAULT_METRICS_INTERVAL,
        }
    }
}

impl ObsOptions {
    /// Reads the observability flags.
    pub fn from_flags(flags: &Flags) -> Result<Self, CliError> {
        Ok(ObsOptions {
            trace_out: flags.path("--trace-out=")?,
            metrics_csv: flags.path("--metrics-csv=")?,
            metrics_interval: flags
                .positive("--metrics-interval=", "cycle count")?
                .unwrap_or(DEFAULT_METRICS_INTERVAL),
        })
    }

    /// True if any artifact was requested.
    pub fn is_active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_csv.is_some()
    }

    /// A copy whose output paths carry `-<label>` before the extension, so
    /// multi-config binaries can emit one artifact set per configuration.
    pub fn for_label(&self, label: &str) -> Self {
        let slug = slug(label);
        ObsOptions {
            trace_out: self.trace_out.as_deref().map(|p| suffixed(p, &slug)),
            metrics_csv: self.metrics_csv.as_deref().map(|p| suffixed(p, &slug)),
            metrics_interval: self.metrics_interval,
        }
    }
}

/// Filesystem slug of a label: lowercase alphanumerics, everything else
/// `_`.
pub(crate) fn slug(label: &str) -> String {
    let safe = |c: char| {
        if c.is_ascii_alphanumeric() {
            c.to_ascii_lowercase()
        } else {
            '_'
        }
    };
    label.chars().map(safe).collect()
}

fn suffixed(path: &Path, slug: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
    path.with_file_name(format!("{stem}-{slug}.{ext}"))
}

/// Runs one workload with the requested instrumentation attached,
/// returning the statistics plus everything the observer collected.
pub fn run_one_instrumented(
    cfg: SystemConfig,
    wl: &Workload,
    tracing: bool,
    metrics_interval: Option<Cycle>,
) -> (SimStats, Vec<TraceEvent>, Vec<MetricSample>) {
    let mut sys = System::new(cfg, wl.programs.clone()).expect("valid config");
    wl.apply_preloads(&mut sys);
    if tracing {
        sys.enable_tracing();
    }
    if let Some(interval) = metrics_interval {
        sys.enable_metrics(interval);
    }
    let stats = sys.run();
    let events = sys.take_trace_events();
    let samples = sys.take_metric_samples();
    (stats, events, samples)
}

/// Runs `(cfg, wl)` once with the instrumentation `opts` request and
/// writes the artifacts. No-op (and no extra run) when `opts` is inactive.
/// Exits the process with a diagnostic if an artifact cannot be written.
pub fn capture_artifacts(opts: &ObsOptions, cfg: SystemConfig, wl: &Workload, label: &str) {
    if !opts.is_active() {
        return;
    }
    let interval = opts
        .metrics_csv
        .as_ref()
        .map(|_| Cycle::new(opts.metrics_interval));
    let (_, events, samples) = run_one_instrumented(cfg, wl, opts.trace_out.is_some(), interval);
    if let Some(path) = &opts.trace_out {
        let written = File::create(path)
            .and_then(|file| chrome::write_chrome_trace(BufWriter::new(file), &events, &samples));
        if let Err(e) = written {
            die(&format!("cannot write trace JSON {}: {e}", path.display()));
        }
        eprintln!(
            "# trace: {} events for {label} -> {}",
            events.len(),
            path.display()
        );
    }
    if let Some(path) = &opts.metrics_csv {
        if let Err(e) = std::fs::write(path, metrics_csv(&samples)) {
            die(&format!("cannot write metrics CSV {}: {e}", path.display()));
        }
        eprintln!(
            "# metrics: {} samples for {label} -> {}",
            samples.len(),
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_suffixing() {
        let opts = ObsOptions {
            trace_out: Some(PathBuf::from("/tmp/trace.json")),
            metrics_csv: Some(PathBuf::from("/tmp/metrics.csv")),
            metrics_interval: 100,
        };
        let per = opts.for_label("LB++10K");
        assert_eq!(
            per.trace_out.unwrap(),
            PathBuf::from("/tmp/trace-lb__10k.json")
        );
        assert_eq!(
            per.metrics_csv.unwrap(),
            PathBuf::from("/tmp/metrics-lb__10k.csv")
        );
    }

    #[test]
    fn inactive_by_default() {
        assert!(!ObsOptions::default().is_active());
    }
}
