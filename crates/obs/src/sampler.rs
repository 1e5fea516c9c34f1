//! Periodic time-series sampling.

use pbm_types::{Cycle, MetricSample};

/// Collects [`MetricSample`] rows on a fixed cycle cadence.
///
/// The simulator polls [`Sampler::due`] as simulated time advances and,
/// when due, builds a sample from its own state and pushes it. The next
/// deadline then snaps to the following multiple of the interval, so
/// sample timestamps depend only on simulated time — never on host timing
/// — keeping the CSV deterministic.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: u64,
    next_at: u64,
    samples: Vec<MetricSample>,
}

impl Sampler {
    /// A sampler firing every `interval` cycles (first at `interval`).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn every(interval: Cycle) -> Self {
        let interval = interval.as_u64();
        assert!(interval > 0, "sampler interval must be positive");
        Sampler {
            interval,
            next_at: interval,
            samples: Vec::new(),
        }
    }

    /// True if a sample should be taken at simulated time `now`.
    #[inline(always)]
    pub fn due(&self, now: Cycle) -> bool {
        now.as_u64() >= self.next_at
    }

    /// The cycle the next sample falls due at.
    pub fn next_at(&self) -> Cycle {
        Cycle::new(self.next_at)
    }

    /// Stores `sample` and advances the deadline past `sample.cycle`.
    pub fn push(&mut self, sample: MetricSample) {
        let now = sample.cycle.as_u64();
        self.samples.push(sample);
        // Snap to the next interval boundary strictly after `now`; skipped
        // boundaries (when the event loop jumped time) collapse into one.
        self.next_at = (now / self.interval + 1) * self.interval;
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Removes and returns the collected samples in time order.
    pub fn take(&mut self) -> Vec<MetricSample> {
        std::mem::take(&mut self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cycle: u64) -> MetricSample {
        MetricSample {
            cycle: Cycle::new(cycle),
            ..MetricSample::default()
        }
    }

    #[test]
    fn fires_on_boundaries() {
        let mut s = Sampler::every(Cycle::new(10));
        assert!(!s.due(Cycle::new(9)));
        assert!(s.due(Cycle::new(10)));
        s.push(at(10));
        assert!(!s.due(Cycle::new(19)));
        assert!(s.due(Cycle::new(20)));
    }

    #[test]
    fn time_jumps_collapse_missed_boundaries() {
        let mut s = Sampler::every(Cycle::new(10));
        assert!(s.due(Cycle::new(55)));
        s.push(at(55));
        assert!(!s.due(Cycle::new(59)));
        assert!(s.due(Cycle::new(60)), "next boundary after 55 is 60");
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = Sampler::every(Cycle::ZERO);
    }

    #[test]
    fn take_empties() {
        let mut s = Sampler::every(Cycle::new(5));
        s.push(at(5));
        s.push(at(10));
        assert_eq!(s.take().len(), 2);
        assert!(s.is_empty());
    }
}
