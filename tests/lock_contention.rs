//! Contended spin locks, pinned: the full [`SimStats`] of a grid of
//! lock-heavy runs (4 to 64 cores, 1 to 4 lock lines, LB and LB++, two
//! seeds) and the metric time series of two contended runs must equal
//! `tests/golden/lock_contention.txt` byte for byte.
//!
//! A contended `Op::Lock` retries every `30 + 7c mod 50` cycles, so the
//! order in which retries and other events meet at one cycle decides who
//! wins a lock. At 51 cores and up, two cores share a backoff and their
//! retries can collide at the same cycle; the 51- and 64-core rows cover
//! that (64 is the most the directory's sharer mask holds). On a mismatch the test writes the rendered text next to the
//! build's temporary files and names the path; after a deliberate model
//! change, copy it over the golden file.

use pbm::prelude::*;

const GOLDEN: &str = include_str!("golden/lock_contention.txt");

/// Deterministic stream for the generated programs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

fn config(cores: usize, barrier: BarrierKind) -> SystemConfig {
    let mut cfg = SystemConfig::micro48();
    cfg.cores = cores;
    cfg.barrier = barrier;
    cfg.persistency = PersistencyKind::BufferedEpoch;
    cfg.validate().expect("valid config")
}

/// Every core runs `sections` critical sections, each on one of `lines`
/// lock lines: a few persistent stores into a small shared region (so
/// epochs conflict across cores), a barrier, then the unlock and some
/// think time.
fn programs(cores: usize, lines: u64, sections: usize, seed: u64) -> Vec<Program> {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cores as u64);
    (0..cores)
        .map(|c| {
            let mut b = ProgramBuilder::new();
            for s in 0..sections {
                let lock = Addr::new(VOLATILE_BASE + rng.next(lines) * 64);
                b.compute(rng.next(40) as u32).lock(lock);
                for _ in 0..1 + rng.next(3) {
                    b.store(Addr::new(rng.next(96) * 64), (c * 1000 + s) as u32);
                }
                b.barrier()
                    .compute(5 + rng.next(30) as u32)
                    .unlock(lock)
                    .tx_end();
            }
            b.build()
        })
        .collect()
}

fn system(cores: usize, lines: u64, barrier: BarrierKind, seed: u64) -> System {
    System::new(config(cores, barrier), programs(cores, lines, 6, seed)).expect("valid system")
}

fn render() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for cores in [4, 8, 32, 51, 64] {
        for lines in 1..=4 {
            for barrier in [BarrierKind::Lb, BarrierKind::LbPp] {
                for seed in [1, 2] {
                    let stats = system(cores, lines, barrier, seed).run();
                    writeln!(
                        out,
                        "cores={cores} lines={lines} barrier={barrier:?} seed={seed}: {stats:?}"
                    )
                    .unwrap();
                }
            }
        }
    }
    for cores in [32, 64] {
        let mut sys = system(cores, 1, BarrierKind::Lb, 1);
        sys.enable_metrics(Cycle::new(500));
        sys.run();
        writeln!(out, "metrics cores={cores} lines=1 barrier=Lb seed=1").unwrap();
        writeln!(out, "{}", pbm::types::MetricSample::CSV_HEADER).unwrap();
        for row in sys.take_metric_samples() {
            writeln!(out, "{}", row.csv_row()).unwrap();
        }
    }
    out
}

#[test]
fn contended_lock_runs_match_the_golden_file() {
    let got = render();
    if got != GOLDEN {
        let path = std::env::temp_dir().join("lock_contention.txt");
        std::fs::write(&path, &got).expect("write the rendered text");
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map_or(0, |i| i + 1);
        panic!(
            "lock contention drifted from tests/golden/lock_contention.txt \
             (first differing line {first}); rendered text written to {}",
            path.display()
        );
    }
}

#[test]
fn the_grid_is_contended() {
    // The golden file only pins spinning if cores actually spin.
    let stats = system(32, 1, BarrierKind::Lb, 1).run();
    assert!(stats.lock_wait_cycles > 10 * stats.cycles);
}
