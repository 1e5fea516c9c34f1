//! Memory-controller timing and address interleaving.

use pbm_types::{Cycle, LineAddr, McId};

/// Maps a line to the memory controller that owns it.
///
/// Lines are interleaved across controllers at line granularity, the usual
/// choice for bandwidth balance with multiple on-chip controllers.
///
/// # Panics
///
/// Panics if `mcs` is zero.
pub fn mc_for_line(line: LineAddr, mcs: usize) -> McId {
    assert!(mcs > 0, "mcs must be nonzero");
    McId::new((line.as_u64() % mcs as u64) as u32)
}

/// Timing model of one memory controller: `parallelism` independent device
/// banks, each serving one access at a time, with **read priority**.
///
/// An access issued at `now` starts on the earliest-free bank (but not
/// before `now`) and completes after the device latency. Reads and writes
/// are scheduled on separate lanes: demand reads never queue behind
/// buffered persist writes. This models the read-priority / write-buffering
/// scheduling that persistent-memory controllers use (cf. FIRM, NVM-Duet —
/// both cited by the paper as complementary), without which offline epoch
/// flushes would put their full write latency back onto the demand path.
///
/// The write lane still serializes once saturated — a burst of epoch
/// flush-line writes backs up exactly as the paper's conflict analysis
/// expects.
#[derive(Debug, Clone)]
pub struct McTiming {
    banks: Vec<Cycle>,
    read_banks: Vec<Cycle>,
    read_latency: u64,
    write_latency: u64,
    /// Maximum extra per-access service delay (0 = exact model).
    jitter_max: u64,
    /// SplitMix64 state for the jitter stream.
    jitter_state: u64,
}

impl McTiming {
    /// Creates a controller with `parallelism` banks and the given
    /// device latencies in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn new(parallelism: usize, read_latency: u64, write_latency: u64) -> Self {
        assert!(parallelism > 0, "parallelism must be nonzero");
        McTiming {
            banks: vec![Cycle::ZERO; parallelism],
            read_banks: vec![Cycle::ZERO; parallelism],
            read_latency,
            write_latency,
            jitter_max: 0,
            jitter_state: 0,
        }
    }

    /// Enables seeded service-time jitter: every access takes up to `max`
    /// extra cycles, drawn from a deterministic SplitMix64 stream.
    ///
    /// Variable device service time is protocol-legal (real PCM/ReRAM
    /// latencies vary per access); the schedule perturbator in `pbm-check`
    /// uses this to reorder persist completions. With `max == 0` (the
    /// default) the controller is cycle-exact.
    pub fn set_jitter(&mut self, max: u64, seed: u64) {
        self.jitter_max = max;
        self.jitter_state = seed;
    }

    fn jitter(&mut self) -> u64 {
        if self.jitter_max == 0 {
            return 0;
        }
        // SplitMix64 (Steele et al.): full-period, two multiplies.
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % (self.jitter_max + 1)
    }

    /// Schedules a line read issued at `now`; returns its completion time.
    /// Reads have priority: they never wait behind buffered writes.
    pub fn schedule_read(&mut self, now: Cycle) -> Cycle {
        let latency = self.read_latency + self.jitter();
        Self::schedule_on(&mut self.read_banks, now, latency)
    }

    /// Schedules a line write (persist) issued at `now`; returns the time
    /// at which the write is durable (when the PersistAck is generated).
    pub fn schedule_write(&mut self, now: Cycle) -> Cycle {
        self.schedule_write_timed(now).1
    }

    /// Like [`McTiming::schedule_write`], but also returns the cycle at
    /// which the device write *started* (when the access left the
    /// controller's write queue): `(start, durable)`. The difference
    /// `start - now` is queueing delay behind buffered persists;
    /// `durable - start` is device service time. Profilers use the split
    /// to attribute persist latency to MC contention vs NVRAM write cost.
    pub fn schedule_write_timed(&mut self, now: Cycle) -> (Cycle, Cycle) {
        let latency = self.write_latency + self.jitter();
        Self::schedule_on_timed(&mut self.banks, now, latency)
    }

    /// Write lanes still busy at `now` — the instantaneous depth of the
    /// buffered-persist queue (each busy lane holds exactly one in-flight
    /// write; queued writes behind it have not been scheduled yet, so this
    /// is a lower bound that tracks saturation faithfully).
    pub fn pending_writes(&self, now: Cycle) -> u64 {
        self.banks.iter().filter(|t| **t > now).count() as u64
    }

    fn schedule_on(lanes: &mut [Cycle], now: Cycle, latency: u64) -> Cycle {
        Self::schedule_on_timed(lanes, now, latency).1
    }

    fn schedule_on_timed(lanes: &mut [Cycle], now: Cycle, latency: u64) -> (Cycle, Cycle) {
        // Earliest-free bank; ties broken by index for determinism.
        let bank = lanes
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .map(|(i, _)| i)
            .expect("at least one bank");
        let start = lanes[bank].max(now);
        let done = start + Cycle::new(latency);
        lanes[bank] = done;
        (start, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_covers_all_mcs() {
        let mut seen = [false; 4];
        for l in 0..16 {
            seen[mc_for_line(LineAddr::new(l), 4).index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn adjacent_lines_hit_different_mcs() {
        assert_ne!(
            mc_for_line(LineAddr::new(0), 4),
            mc_for_line(LineAddr::new(1), 4)
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_mcs_panics() {
        let _ = mc_for_line(LineAddr::new(0), 0);
    }

    #[test]
    fn unloaded_access_pays_device_latency() {
        let mut mc = McTiming::new(2, 240, 360);
        assert_eq!(mc.schedule_read(Cycle::new(100)), Cycle::new(340));
        assert_eq!(mc.schedule_write(Cycle::new(100)), Cycle::new(460));
    }

    #[test]
    fn saturated_banks_serialize() {
        let mut mc = McTiming::new(2, 240, 360);
        let a = mc.schedule_write(Cycle::ZERO);
        let b = mc.schedule_write(Cycle::ZERO);
        let c = mc.schedule_write(Cycle::ZERO);
        assert_eq!(a, Cycle::new(360));
        assert_eq!(b, Cycle::new(360), "second bank absorbs second write");
        assert_eq!(c, Cycle::new(720), "third write queues behind a bank");
    }

    #[test]
    fn reads_bypass_buffered_writes() {
        // Saturate the write lane, then issue a read: it must complete at
        // device read latency, not behind the write queue.
        let mut mc = McTiming::new(1, 240, 360);
        for _ in 0..10 {
            mc.schedule_write(Cycle::ZERO);
        }
        assert_eq!(mc.schedule_read(Cycle::ZERO), Cycle::new(240));
    }

    #[test]
    fn pending_writes_tracks_busy_lanes() {
        let mut mc = McTiming::new(2, 240, 360);
        assert_eq!(mc.pending_writes(Cycle::ZERO), 0);
        mc.schedule_write(Cycle::ZERO); // lane 0 busy until 360
        mc.schedule_write(Cycle::ZERO); // lane 1 busy until 360
        assert_eq!(mc.pending_writes(Cycle::new(100)), 2);
        assert_eq!(mc.pending_writes(Cycle::new(360)), 0, "retired at 360");
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let run = |seed: u64| {
            let mut mc = McTiming::new(2, 240, 360);
            mc.set_jitter(24, seed);
            (0..8)
                .map(|i| mc.schedule_write(Cycle::new(i * 10_000)))
                .collect::<Vec<_>>()
        };
        let a = run(3);
        assert_eq!(a, run(3), "same seed, same service times");
        assert_ne!(a, run(4), "different seed perturbs the schedule");
        for (i, t) in a.iter().enumerate() {
            let base = i as u64 * 10_000 + 360;
            assert!(
                t.as_u64() >= base && t.as_u64() <= base + 24,
                "write {i} done at {t}, outside [{base}, {base}+24]"
            );
        }
    }

    #[test]
    fn timed_write_splits_queue_wait_from_service() {
        let mut mc = McTiming::new(1, 240, 360);
        let (s0, d0) = mc.schedule_write_timed(Cycle::new(100));
        assert_eq!((s0, d0), (Cycle::new(100), Cycle::new(460)), "no queue");
        let (s1, d1) = mc.schedule_write_timed(Cycle::new(110));
        assert_eq!(s1, Cycle::new(460), "queued behind the first write");
        assert_eq!(d1, Cycle::new(820));
        assert_eq!(mc.schedule_write(Cycle::new(0)), Cycle::new(1180));
    }

    #[test]
    fn idle_banks_do_not_backdate() {
        let mut mc = McTiming::new(1, 10, 10);
        mc.schedule_read(Cycle::ZERO); // busy until 10
        let late = mc.schedule_read(Cycle::new(100));
        assert_eq!(late, Cycle::new(110), "starts at issue time, not at 10");
    }
}
