//! Observability plumbing for the experiments: the `--trace-out=` /
//! `--metrics-csv=` / `--prof-out=` options and per-cell artifact export.

use crate::cli::{die, CliError, Flags};
use pbm_obs::{chrome, metrics_csv};
use pbm_types::{MetricSample, TraceEvent};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Default sampling cadence when `--metrics-csv` is given without
/// `--metrics-interval` (cycles).
pub const DEFAULT_METRICS_INTERVAL: u64 = 5_000;

/// Observability knobs shared by every experiment.
///
/// * `--trace-out=<path>` — write each cell's Chrome trace-event JSON
///   (open in Perfetto / `chrome://tracing`).
/// * `--metrics-csv=<path>` — write each cell's periodic metrics
///   time-series.
/// * `--metrics-interval=<cycles>` — sampling cadence (default
///   [`DEFAULT_METRICS_INTERVAL`]).
/// * `--prof-out=<dir>` — attribute each cell's persist latency with
///   `pbm-prof`: a flame graph and a report per cell, and the grid's
///   `BENCH_prof.json` (see [`crate::profiling`]).
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Destination for the Chrome trace-event JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Destination for the metrics CSV, if requested.
    pub metrics_csv: Option<PathBuf>,
    /// Sampling cadence in cycles (used only when the sampler is on).
    pub metrics_interval: u64,
    /// Directory for the persist-latency profiles, if requested.
    pub prof_out: Option<PathBuf>,
}

impl Default for ObsOptions {
    /// No artifacts, sampling at [`DEFAULT_METRICS_INTERVAL`].
    fn default() -> Self {
        ObsOptions {
            trace_out: None,
            metrics_csv: None,
            metrics_interval: DEFAULT_METRICS_INTERVAL,
            prof_out: None,
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
            prof_out: flags.path("--prof-out=")?,
        })
    }

    /// True if cells must be traced: for a trace or for a profile.
    pub fn traces(&self) -> bool {
        self.trace_out.is_some() || self.prof_out.is_some()
    }

    /// A copy whose trace and CSV paths carry `-<label>` before the
    /// extension, so every grid cell gets its own artifact set.
    pub fn for_label(&self, label: &str) -> Self {
        let slug = slug(label);
        ObsOptions {
            trace_out: self.trace_out.as_deref().map(|p| suffixed(p, &slug)),
            metrics_csv: self.metrics_csv.as_deref().map(|p| suffixed(p, &slug)),
            ..self.clone()
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

/// Writes one traced or sampled cell's Chrome trace and metrics CSV, each
/// where its flag asks (suffixed with the cell's label). Exits the process
/// with a diagnostic if an artifact cannot be written.
pub(crate) fn write_artifacts(
    opts: &ObsOptions,
    config: &str,
    workload: &str,
    events: &[TraceEvent],
    samples: &[MetricSample],
) {
    let cell = opts.for_label(&format!("{config}-{workload}"));
    let label = format!("{workload}/{config}");
    if let Some(path) = &cell.trace_out {
        let written =
            File::create(path).and_then(|file| chrome::write_chrome_trace(file, events, samples));
        if let Err(e) = written {
            die(&format!("cannot write trace JSON {}: {e}", path.display()));
        }
        eprintln!(
            "# trace: {} events for {label} -> {}",
            events.len(),
            path.display()
        );
    }
    if let Some(path) = &cell.metrics_csv {
        if let Err(e) = std::fs::write(path, metrics_csv(samples)) {
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
            prof_out: None,
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
        let opts = ObsOptions::default();
        assert!(!opts.traces());
        assert!(opts.metrics_csv.is_none());
    }
}
