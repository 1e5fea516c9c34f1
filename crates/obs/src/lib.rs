//! Observability for the persist-barrier simulator.
//!
//! This crate turns the simulator's internal milestones — epoch lifecycle
//! transitions, the four-step flush handshake, IDT activity, stalls, NoC
//! traffic — into durable artifacts:
//!
//! * a **cycle-stamped structured event trace** ([`TraceEvent`] stream),
//!   exportable as Chrome trace-event JSON loadable in Perfetto
//!   ([`chrome::export_chrome_trace`]);
//! * a **periodic time-series** of [`MetricSample`] rows, exportable as
//!   CSV ([`metrics_csv`]).
//!
//! The simulator talks to this crate through [`Observer`], which holds a
//! boxed [`TraceSink`]. The default sink is [`NullSink`] and the observer
//! keeps an `enabled` fast-path flag, so an un-instrumented run pays one
//! predictable branch per instrumentation point and never constructs an
//! event (verified by the `obs_overhead` Criterion bench in `pbm-bench`).
//!
//! Everything here is deterministic: traces carry simulated cycles, never
//! wall-clock time, so two runs of the same seed produce byte-identical
//! exports.

#![warn(missing_docs, missing_debug_implementations)]

pub mod chrome;
pub mod json;
mod sampler;
mod sink;

pub use sampler::Sampler;
pub use sink::{NullSink, RingSink, TraceBuffer, TraceSink};

use pbm_types::{Cycle, MetricSample, TraceEvent};

/// The simulator's handle to the observability layer.
///
/// Construct with [`Observer::disabled`] (the default for ordinary runs)
/// or [`Observer::buffering`] to capture events in memory; attach a
/// [`Sampler`] with [`Observer::with_sampler`].
#[derive(Debug)]
pub struct Observer {
    enabled: bool,
    sink: Box<dyn TraceSink>,
    sampler: Option<Sampler>,
}

impl Observer {
    /// An observer that drops everything (the zero-cost default).
    pub fn disabled() -> Self {
        Observer {
            enabled: false,
            sink: Box::new(NullSink),
            sampler: None,
        }
    }

    /// An observer that records every event into an in-memory buffer,
    /// retrievable with [`Observer::take_events`].
    pub fn buffering() -> Self {
        Observer {
            enabled: true,
            sink: Box::new(TraceBuffer::new()),
            sampler: None,
        }
    }

    /// An observer that retains only the most recent `capacity` events in
    /// a bounded ring ([`RingSink`]): constant memory for arbitrarily long
    /// runs, at the cost of losing the oldest events (the sink's drop
    /// counter records how many).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> Self {
        Observer::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// An observer feeding a custom sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Observer {
            enabled: sink.is_enabled(),
            sink,
            sampler: None,
        }
    }

    /// Attaches a periodic metrics sampler.
    pub fn with_sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Consumes the observer, returning its sampler (so a caller swapping
    /// sinks can carry the sampler — and any collected rows — across).
    pub fn into_sampler(self) -> Option<Sampler> {
        self.sampler
    }

    /// True if events will be recorded.
    ///
    /// Call sites should guard event *construction* behind this flag so a
    /// disabled observer never allocates or formats:
    ///
    /// ```
    /// # use pbm_obs::Observer;
    /// # use pbm_types::{Cycle, CoreId, EpochId, TraceEvent, TraceEventKind};
    /// # let mut obs = Observer::disabled();
    /// # let now = Cycle::ZERO;
    /// if obs.is_enabled() {
    ///     obs.record(TraceEvent::new(
    ///         now,
    ///         TraceEventKind::DeadlockSplit { core: CoreId::new(0), epoch: EpochId::FIRST },
    ///     ));
    /// }
    /// ```
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// True if a sampler is attached and due at or before `now`.
    #[inline(always)]
    pub fn sample_due(&self, now: Cycle) -> bool {
        match &self.sampler {
            Some(s) => s.due(now),
            None => false,
        }
    }

    /// Records one event. Cheap no-op when disabled, but prefer guarding
    /// with [`Observer::is_enabled`] to skip event construction entirely.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            self.sink.record(event);
        }
    }

    /// Appends a metric sample row and advances the sampler deadline.
    /// Call only when [`Observer::sample_due`] returned true.
    pub fn push_sample(&mut self, sample: MetricSample) {
        if let Some(s) = &mut self.sampler {
            s.push(sample);
        }
    }

    /// Drains buffered events (empty unless built with
    /// [`Observer::buffering`] or a draining custom sink).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.sink.drain()
    }

    /// Drains collected metric samples.
    pub fn take_samples(&mut self) -> Vec<MetricSample> {
        match &mut self.sampler {
            Some(s) => s.take(),
            None => Vec::new(),
        }
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::disabled()
    }
}

/// Renders metric samples as a CSV document (header + one row per sample,
/// `\n` line endings, no trailing blank line variability — deterministic
/// for identical inputs).
pub fn metrics_csv(samples: &[MetricSample]) -> String {
    let mut out = String::with_capacity(64 * (samples.len() + 1));
    out.push_str(MetricSample::CSV_HEADER);
    out.push('\n');
    for s in samples {
        out.push_str(&s.csv_row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{CoreId, EpochId, EpochTag, TraceEventKind};

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::new(
            Cycle::new(cycle),
            TraceEventKind::PersistCmp {
                tag: EpochTag::new(CoreId::new(1), EpochId::new(2)),
            },
        )
    }

    #[test]
    fn disabled_observer_drops_everything() {
        let mut obs = Observer::disabled();
        assert!(!obs.is_enabled());
        obs.record(ev(5));
        assert!(obs.take_events().is_empty());
        assert!(!obs.sample_due(Cycle::new(1_000_000)));
        assert!(obs.take_samples().is_empty());
    }

    #[test]
    fn buffering_observer_keeps_order() {
        let mut obs = Observer::buffering();
        assert!(obs.is_enabled());
        obs.record(ev(1));
        obs.record(ev(2));
        let events = obs.take_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].cycle < events[1].cycle);
        assert!(obs.take_events().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn sampler_cadence() {
        let mut obs = Observer::buffering().with_sampler(Sampler::every(Cycle::new(100)));
        assert!(!obs.sample_due(Cycle::new(50)));
        assert!(obs.sample_due(Cycle::new(100)));
        obs.push_sample(MetricSample {
            cycle: Cycle::new(100),
            ..MetricSample::default()
        });
        assert!(!obs.sample_due(Cycle::new(150)));
        assert!(obs.sample_due(Cycle::new(230)));
        obs.push_sample(MetricSample {
            cycle: Cycle::new(230),
            ..MetricSample::default()
        });
        let rows = obs.take_samples();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].cycle.as_u64(), 230);
    }

    #[test]
    fn csv_shape() {
        let rows = vec![
            MetricSample {
                cycle: Cycle::new(100),
                nvram_writes: 7,
                ..MetricSample::default()
            },
            MetricSample {
                cycle: Cycle::new(200),
                nvram_writes: 19,
                ..MetricSample::default()
            },
        ];
        let csv = metrics_csv(&rows);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], MetricSample::CSV_HEADER);
        assert!(lines[1].starts_with("100,"));
        assert!(lines[2].starts_with("200,"));
    }
}
