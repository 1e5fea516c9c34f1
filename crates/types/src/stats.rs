//! Simulation statistics: counters and histograms.

use std::fmt;

/// A fixed-bucket power-of-two histogram for latency-like quantities.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 also counts 0.
///
/// # Example
///
/// ```
/// use pbm_types::Histogram;
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(1000);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.max(), 1000);
/// assert!(h.mean() > 500.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0–100), estimated from the bucket structure.
    ///
    /// Returns the upper bound of the smallest bucket whose cumulative
    /// count reaches `p` percent of samples, clamped to the largest sample
    /// actually observed. Returns 0 for an empty histogram.
    ///
    /// # Example
    ///
    /// ```
    /// use pbm_types::Histogram;
    /// let mut h = Histogram::new();
    /// for _ in 0..99 { h.record(10); }
    /// h.record(1000);
    /// assert_eq!(h.percentile(50.0), 15); // bucket [8, 16)
    /// assert_eq!(h.percentile(100.0), 1000);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The occupied power-of-two buckets as `(lower, upper, count)`
    /// triples, in ascending order. Bucket `[2^i, 2^(i+1))` is reported
    /// with `lower = 2^i` (0 for bucket 0, which also counts zero samples)
    /// and `upper = 2^(i+1) - 1`; empty buckets are skipped, so JSON
    /// exports stay compact.
    ///
    /// # Example
    ///
    /// ```
    /// use pbm_types::Histogram;
    /// let mut h = Histogram::new();
    /// h.record(3);
    /// h.record(3);
    /// h.record(40);
    /// assert_eq!(h.nonzero_buckets(), vec![(2, 3, 2), (32, 63, 1)]);
    /// ```
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lower = if i == 0 { 0 } else { 1u64 << i };
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                (lower, upper, n)
            })
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Histogram {
    /// One-line summary with percentiles; the alternate flag (`{:#}`)
    /// appends a bar chart of the occupied power-of-two buckets.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p95={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max
        )?;
        if !f.alternate() || self.count == 0 {
            return Ok(());
        }
        const BAR_WIDTH: u64 = 40;
        let lo = self.buckets.iter().position(|&n| n > 0).unwrap_or(0);
        let hi = self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        let peak = *self.buckets.iter().max().unwrap_or(&1);
        for (i, &n) in self.buckets.iter().enumerate().take(hi + 1).skip(lo) {
            let bar = (n * BAR_WIDTH).div_ceil(peak.max(1)) as usize;
            let lower = if i == 0 { 0 } else { 1u64 << i };
            writeln!(f)?;
            write!(f, "  {:>12} |{:<40}| {}", lower, "#".repeat(bar), n)?;
        }
        Ok(())
    }
}

/// Aggregated counters from one simulation run.
///
/// Every counter is cumulative over the whole run; per-core statistics are
/// summed by the simulator before being reported. The field groups mirror
/// the quantities the paper reports: execution time, epoch/conflict
/// accounting (Figure 12), persist traffic, and stall attribution.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimStats {
    /// Total execution time in cycles (max over cores).
    pub cycles: u64,
    /// Committed load operations.
    pub loads: u64,
    /// Committed store operations.
    pub stores: u64,
    /// Persist barriers executed (programmer- or hardware-inserted).
    pub barriers: u64,
    /// Completed application-level transactions (micro-benchmarks only).
    pub transactions: u64,

    /// L1 hits (loads + stores).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses (serviced by NVRAM).
    pub llc_misses: u64,

    /// Cache-line reads from NVRAM.
    pub nvram_reads: u64,
    /// Cache-line writes (persists) to NVRAM, excluding log/checkpoint.
    pub nvram_writes: u64,
    /// The subset of [`SimStats::nvram_writes`] performed by epoch flushes
    /// (the Figure 8 handshake), excluding evictions and write-through
    /// persists. Equals the number of distinct dirty lines per flushed
    /// epoch, which is why proactive flushing (§4) cannot change it — the
    /// differential checker in `pbm-check` asserts exactly that.
    pub epoch_flush_writes: u64,
    /// Undo-log line writes to NVRAM (BSP).
    pub log_writes: u64,
    /// Processor-state checkpoint line writes to NVRAM (BSP).
    pub checkpoint_writes: u64,

    /// Epochs closed (persist barrier retired or hardware cut).
    pub epochs_created: u64,
    /// Epochs fully persisted.
    pub epochs_persisted: u64,
    /// Epochs whose flush was triggered by a conflict (online persist).
    pub epochs_conflict_flushed: u64,
    /// Epochs flushed proactively on completion (PF, offline persist).
    pub epochs_proactive_flushed: u64,
    /// Epochs flushed because a dirty line had to be evicted.
    pub epochs_eviction_flushed: u64,

    /// Intra-thread epoch conflicts detected (§3.2).
    pub conflicts_intra: u64,
    /// Inter-thread epoch conflicts detected (§3.1).
    pub conflicts_inter: u64,
    /// Inter-thread dependences recorded in IDT registers instead of
    /// flushing online.
    pub idt_recorded: u64,
    /// Inter-thread conflicts that fell back to an online flush because all
    /// IDT register pairs were in use.
    pub idt_overflows: u64,
    /// Epoch splits performed by the deadlock-avoidance mechanism (§3.3).
    pub deadlock_splits: u64,

    /// Cycles cores spent stalled waiting for online epoch persists.
    pub online_persist_stall_cycles: u64,
    /// Cycles cores spent blocked on demand loads.
    pub load_cycles: u64,
    /// Number of times a core parked waiting for an epoch persist.
    pub parks: u64,
    /// Cycles cores spent spinning on contended locks: each retry that
    /// finds the lock held charges the core's backoff (`30 + 7c mod 50`
    /// cycles for core `c`), including retries the simulator skips while
    /// the core is parked on the lock.
    pub lock_wait_cycles: u64,
    /// Cycles cores spent stalled at persist barriers (EP rule E2, or BEP
    /// in-flight-epoch back-pressure).
    pub barrier_stall_cycles: u64,
    /// Messages injected into the on-chip network.
    pub noc_messages: u64,
    /// Flits injected into the on-chip network.
    pub noc_flits: u64,

    /// Distribution of epoch flush latencies (cycles from flush start to
    /// PersistCMP).
    pub epoch_flush_latency: Histogram,
}

impl SimStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of epochs whose flush was conflict-triggered, in percent —
    /// the quantity plotted in Figure 12. Returns 0.0 if no epoch ever
    /// flushed.
    pub fn conflicting_epoch_pct(&self) -> f64 {
        let flushed = self.epochs_persisted;
        if flushed == 0 {
            0.0
        } else {
            100.0 * self.epochs_conflict_flushed as f64 / flushed as f64
        }
    }

    /// Transactions per million cycles (micro-benchmark throughput metric).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.transactions as f64 * 1.0e6 / self.cycles as f64
        }
    }

    /// Merges per-core statistics into an aggregate: counters add, `cycles`
    /// takes the max (wall-clock is the slowest core).
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.loads += other.loads;
        self.stores += other.stores;
        self.barriers += other.barriers;
        self.transactions += other.transactions;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.llc_hits += other.llc_hits;
        self.llc_misses += other.llc_misses;
        self.nvram_reads += other.nvram_reads;
        self.nvram_writes += other.nvram_writes;
        self.epoch_flush_writes += other.epoch_flush_writes;
        self.log_writes += other.log_writes;
        self.checkpoint_writes += other.checkpoint_writes;
        self.epochs_created += other.epochs_created;
        self.epochs_persisted += other.epochs_persisted;
        self.epochs_conflict_flushed += other.epochs_conflict_flushed;
        self.epochs_proactive_flushed += other.epochs_proactive_flushed;
        self.epochs_eviction_flushed += other.epochs_eviction_flushed;
        self.conflicts_intra += other.conflicts_intra;
        self.conflicts_inter += other.conflicts_inter;
        self.idt_recorded += other.idt_recorded;
        self.idt_overflows += other.idt_overflows;
        self.deadlock_splits += other.deadlock_splits;
        self.online_persist_stall_cycles += other.online_persist_stall_cycles;
        self.load_cycles += other.load_cycles;
        self.parks += other.parks;
        self.lock_wait_cycles += other.lock_wait_cycles;
        self.barrier_stall_cycles += other.barrier_stall_cycles;
        self.noc_messages += other.noc_messages;
        self.noc_flits += other.noc_flits;
        self.epoch_flush_latency.merge(&other.epoch_flush_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    fn percentiles_follow_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        for _ in 0..90 {
            h.record(100); // bucket [64, 128)
        }
        for _ in 0..10 {
            h.record(5000); // bucket [4096, 8192)
        }
        assert_eq!(h.percentile(50.0), 127);
        assert_eq!(h.percentile(90.0), 127);
        assert_eq!(h.percentile(95.0), 5000); // clamped to observed max
        assert_eq!(h.percentile(99.0), 5000);
        assert_eq!(h.percentile(0.0), 127); // smallest non-empty bucket
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let mut h = Histogram::new();
        h.record(42);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 42);
        }
    }

    #[test]
    fn display_has_percentiles_and_alternate_bars() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(300);
        let plain = format!("{h}");
        assert!(plain.contains("p50="));
        assert!(!plain.contains('#'));
        let bars = format!("{h:#}");
        assert!(bars.contains('#'));
        assert!(bars.lines().count() > 1);
    }

    #[test]
    fn conflicting_epoch_pct() {
        let mut s = SimStats::new();
        assert_eq!(s.conflicting_epoch_pct(), 0.0);
        s.epochs_persisted = 10;
        s.epochs_conflict_flushed = 9;
        assert!((s.conflicting_epoch_pct() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn throughput() {
        let mut s = SimStats::new();
        assert_eq!(s.throughput(), 0.0);
        s.transactions = 100;
        s.cycles = 1_000_000;
        assert!((s.throughput() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_takes_max_cycles_and_adds_counters() {
        let mut a = SimStats {
            cycles: 10,
            loads: 1,
            ..SimStats::new()
        };
        let b = SimStats {
            cycles: 20,
            loads: 2,
            conflicts_inter: 3,
            ..SimStats::new()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.loads, 3);
        assert_eq!(a.conflicts_inter, 3);
    }
}
