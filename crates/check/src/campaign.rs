//! Fuzzing campaigns: matrices of randomized cases under a wall-clock
//! budget, plus the differential cross-barrier checks.

use crate::case::{run_case, CaseOk, CaseSpec, FailureKind};
use crate::pool::parallel_map;
use pbm_types::{BarrierKind, PersistencyKind};
use pbm_workloads::random::{random_programs, RandomProgramParams};
use std::time::{Duration, Instant};

/// The persistency models a campaign sweeps (with every lazy barrier).
pub const MODELS: [PersistencyKind; 3] = [
    PersistencyKind::BufferedEpoch,
    PersistencyKind::Epoch,
    PersistencyKind::BufferedStrictBulk,
];

/// Campaign shape and budget.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base seed; every case derives a fresh program seed from it.
    pub seed: u64,
    /// Worker threads for the case pool.
    pub jobs: usize,
    /// Wall-clock budget; the campaign stops starting new batches once
    /// exceeded (at least one batch always runs).
    pub budget: Duration,
    /// Hard cap on fuzz cases (`None` = budget-bound only).
    pub max_cases: Option<usize>,
    /// Operations per core per random program.
    pub ops_per_core: usize,
    /// Cores per case.
    pub cores: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            jobs: 2,
            budget: Duration::from_secs(10),
            max_cases: None,
            ops_per_core: 40,
            cores: 4,
        }
    }
}

/// A case that failed, with its reproducing spec.
#[derive(Debug, Clone)]
pub struct FailingCase {
    /// The failing tuple.
    pub spec: CaseSpec,
    /// What went wrong.
    pub failure: FailureKind,
}

/// What a campaign did and found.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Fuzz cases executed.
    pub cases: usize,
    /// Crash cycles checked across all passing cases.
    pub crash_points: u64,
    /// Cases that failed (empty on a healthy design).
    pub failures: Vec<FailingCase>,
    /// Differential comparisons performed.
    pub differential_pairs: usize,
    /// Differential mismatches, rendered (empty on a healthy design).
    pub differential_failures: Vec<String>,
}

impl CampaignReport {
    /// True when nothing failed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.differential_failures.is_empty()
    }
}

/// Derives a schedule-perturbation seed from a case seed; every third case
/// keeps the exact default schedule.
fn perturb_for(seed: u64) -> Option<u64> {
    if seed.is_multiple_of(3) {
        None
    } else {
        Some(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Runs the fuzz matrix — every lazy barrier × [`MODELS`] with fresh
/// random programs and perturbed schedules — until the budget or case cap
/// is reached, then the differential stage. Results accumulate into the
/// returned report.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let started = Instant::now();
    let mut report = CampaignReport::default();
    let mut next_seed = cfg.seed;
    loop {
        let mut specs = Vec::new();
        for barrier in BarrierKind::LAZY_VARIANTS {
            for model in MODELS {
                let seed = next_seed;
                next_seed += 1;
                let params = RandomProgramParams::mixed(cfg.ops_per_core, 16);
                specs.push(CaseSpec {
                    programs: random_programs(seed, cfg.cores, &params),
                    barrier,
                    persistency: model,
                    perturb_seed: perturb_for(seed),
                    bsp_epoch_size: 7,
                    seed,
                });
            }
        }
        if let Some(max) = cfg.max_cases {
            specs.truncate(max.saturating_sub(report.cases));
        }
        for (spec, result) in parallel_map(cfg.jobs, specs, |spec| {
            let result = run_case(&spec);
            (spec, result)
        }) {
            report.cases += 1;
            match result {
                Ok(ok) => report.crash_points += ok.crash_points as u64,
                Err(failure) => report.failures.push(FailingCase { spec, failure }),
            }
        }
        let capped = cfg.max_cases.is_some_and(|max| report.cases >= max);
        if capped || started.elapsed() >= cfg.budget {
            break;
        }
    }
    differential_round(cfg, &mut report);
    report
}

/// The cross-barrier differential stage.
///
/// Uses disjoint-store programs (per-core private write sets), whose final
/// drained NVRAM state is schedule-independent, and asserts:
///
/// 1. every lazy barrier kind drains to the *same* final persistent
///    values for the same program;
/// 2. the paper's §4 claim that proactive flushing adds **zero extra
///    NVRAM writes**: `LB` vs `LB+PF` and `LB+IDT` vs `LB++` perform the
///    same number of epoch-flush writes (compared when neither run split
///    epochs for deadlock avoidance or evicted dirty lines early, which
///    legitimately repartition the write stream).
pub fn differential_round(cfg: &CampaignConfig, report: &mut CampaignReport) {
    for round in 0..2u64 {
        let seed = cfg.seed.wrapping_add(round);
        let params = RandomProgramParams::disjoint(cfg.ops_per_core, cfg.cores);
        let programs = random_programs(seed, cfg.cores, &params);
        let specs: Vec<CaseSpec> = BarrierKind::LAZY_VARIANTS
            .iter()
            .map(|&barrier| CaseSpec {
                programs: programs.clone(),
                barrier,
                persistency: PersistencyKind::BufferedEpoch,
                perturb_seed: None,
                bsp_epoch_size: 7,
                seed,
            })
            .collect();
        let results = parallel_map(cfg.jobs, specs, |spec| {
            let result = run_case(&spec);
            (spec.barrier, result)
        });
        let mut oks: Vec<(BarrierKind, CaseOk)> = Vec::new();
        for (barrier, result) in results {
            match result {
                Ok(ok) => oks.push((barrier, ok)),
                Err(failure) => report.differential_failures.push(format!(
                    "seed {seed}: {barrier} failed during differential run: {failure}"
                )),
            }
        }
        // (1) identical final drained state across kinds.
        if let Some((base_kind, base)) = oks.first() {
            for (kind, ok) in &oks[1..] {
                report.differential_pairs += 1;
                if ok.final_values != base.final_values {
                    report.differential_failures.push(format!(
                        "seed {seed}: final NVRAM state differs between {base_kind} \
                         ({} lines) and {kind} ({} lines)",
                        base.final_values.len(),
                        ok.final_values.len()
                    ));
                }
            }
        }
        // (2) PF adds zero extra NVRAM writes.
        for (without_pf, with_pf) in [
            (BarrierKind::Lb, BarrierKind::LbPf),
            (BarrierKind::LbIdt, BarrierKind::LbPp),
        ] {
            let find = |k| oks.iter().find(|(b, _)| *b == k).map(|(_, ok)| ok);
            let (Some(a), Some(b)) = (find(without_pf), find(with_pf)) else {
                continue;
            };
            // Splits repartition epochs and early dirty evictions move
            // writes out of the flush handshake; both are legitimate, so
            // only the clean common case is comparable exactly.
            let comparable = |ok: &CaseOk| {
                ok.stats.deadlock_splits == 0
                    && ok.stats.nvram_writes == ok.stats.epoch_flush_writes
            };
            if comparable(a) && comparable(b) {
                report.differential_pairs += 1;
                if a.stats.epoch_flush_writes != b.stats.epoch_flush_writes {
                    report.differential_failures.push(format!(
                        "seed {seed}: {with_pf} performed {} epoch-flush writes where \
                         {without_pf} performed {} — proactive flushing added NVRAM writes",
                        b.stats.epoch_flush_writes, a.stats.epoch_flush_writes
                    ));
                }
            }
        }
    }
}

/// Campaigns against deliberately broken protocol variants.
#[cfg(feature = "bug-inject")]
pub mod bugs {
    use super::*;
    use crate::case::simulate;
    use crate::shrink::{shrink, DEFAULT_MAX_RUNS};
    use pbm_sim::System;
    use pbm_types::bug::{self, InjectedBug};
    use pbm_types::LineAddr;
    use pbm_workloads::commit;

    /// What hunting one injected bug produced.
    #[derive(Debug, Clone)]
    pub struct BugOutcome {
        /// The bug hunted.
        pub bug: InjectedBug,
        /// Cases run before (and including) the first detection.
        pub cases_tried: usize,
        /// The shrunk reproducing case and its failure, if detected.
        pub shrunk: Option<(CaseSpec, FailureKind)>,
    }

    impl BugOutcome {
        /// True if the harness caught the bug.
        pub fn detected(&self) -> bool {
            self.shrunk.is_some()
        }
    }

    /// The case shape that exposes `bug` fastest. Deadlock-split skipping
    /// is steered to plain `LB` where it panics promptly ("cannot flush
    /// ongoing epoch"); under IDT kinds it wedges instead and burns the
    /// whole event budget per case.
    fn spec_for(bug: InjectedBug, seed: u64) -> CaseSpec {
        let (barrier, persistency, params, bsp_epoch_size) = match bug {
            InjectedBug::DropIdtEdge => (
                BarrierKind::LbPp,
                PersistencyKind::BufferedEpoch,
                RandomProgramParams::mixed(40, 6),
                7,
            ),
            InjectedBug::PrematureBankAck => (
                BarrierKind::Lb,
                PersistencyKind::BufferedEpoch,
                RandomProgramParams::mixed(40, 8),
                7,
            ),
            InjectedBug::SkipDeadlockSplit => (
                BarrierKind::Lb,
                PersistencyKind::BufferedEpoch,
                RandomProgramParams::mixed(40, 4),
                7,
            ),
            InjectedBug::SkipUndoLog => (
                BarrierKind::LbPp,
                PersistencyKind::BufferedStrictBulk,
                RandomProgramParams::mixed(40, 8),
                5,
            ),
            // Workload-level bug: the case is the commit protocol itself,
            // not a random program — see `commit_spec`.
            InjectedBug::DroppedBarrier => unreachable!("handled by run_commit_case"),
        };
        CaseSpec {
            programs: random_programs(seed, 4, &params),
            barrier,
            persistency,
            perturb_seed: None,
            bsp_epoch_size,
            seed,
        }
    }

    /// The Figure-10 commit-protocol case. The data barrier is present
    /// exactly when the `dropped-barrier` bug is *inactive*, so the same
    /// builder produces the healthy protocol and the broken one.
    fn commit_spec(txs: u64, perturb_seed: Option<u64>, seed: u64) -> CaseSpec {
        let drop = bug::is_active(InjectedBug::DroppedBarrier);
        CaseSpec {
            programs: commit::publisher_consumer(txs, drop).programs,
            barrier: BarrierKind::LbPp,
            persistency: PersistencyKind::BufferedEpoch,
            perturb_seed,
            bsp_epoch_size: 7,
            seed,
        }
    }

    /// Runs a commit-protocol case and checks every crash state
    /// ([`System::crash_sweep`]) for the *application* invariant: if the
    /// commit flag is durable at [`commit::flag_value`]`(t)` then every
    /// data line is durable at [`commit::data_value`]`(t)` or newer. A
    /// panicking run is reported as [`FailureKind::Panic`], as in
    /// `run_case`.
    ///
    /// The hardware stays BEP-consistent whether or not the programmer's
    /// data barrier is present — `run_case` cannot see this bug — so the
    /// campaign checks the protocol's own crash invariant instead.
    pub fn run_commit_case(spec: &CaseSpec) -> Result<(), FailureKind> {
        let (sys, _) = simulate(spec)?;
        sys.crash_sweep(|_, snap| {
            let value = |line| {
                snap.line(LineAddr::new(line))
                    .map_or(0, System::token_value)
            };
            let flag = value(commit::FLAG_LINE);
            if flag == 0 {
                return Ok(());
            }
            let tx = u64::from(flag) - 1; // flag_value(tx) = 1 + tx
            let want = commit::data_value(tx);
            for i in 0..commit::DATA_LINES {
                let line = commit::DATA_BASE_LINE + i;
                let got = value(line);
                if got < want {
                    return Err(format!(
                        "commit flag durable for tx {tx} but data line {line} \
                         holds {got} < {want}: published data is not durable"
                    ));
                }
            }
            Ok(())
        })
        .map_err(|(at, message)| FailureKind::Violation {
            at: at.as_u64(),
            message,
        })?;
        Ok(())
    }

    /// Hunts the `dropped-barrier` bug: sweep schedule perturbations of
    /// the broken commit protocol until [`run_commit_case`] observes a
    /// flag-before-data durable state, then "shrink" to the one-transaction
    /// protocol if that still reproduces (ddmin does not apply — the case
    /// is a fixed protocol, and `run_case` passes on it by design).
    fn run_dropped_barrier_campaign(outcome: &mut BugOutcome, seed: u64, max_cases: usize) {
        for attempt in 0..max_cases as u64 {
            outcome.cases_tried += 1;
            let perturb = if attempt == 0 {
                None
            } else {
                Some(
                    seed.wrapping_add(attempt)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            };
            let spec = commit_spec(2, perturb, seed.wrapping_add(attempt));
            let Err(failure) = run_commit_case(&spec) else {
                continue;
            };
            let small = commit_spec(1, perturb, spec.seed);
            outcome.shrunk = Some(match run_commit_case(&small) {
                Err(f) => (small, f),
                Ok(()) => (spec, failure),
            });
            break;
        }
    }

    /// Activates `bug`, fuzzes until it is detected (or `max_cases` give
    /// up), shrinks the first failing case, and deactivates the bug.
    ///
    /// The bug switch is process-global, so campaigns against different
    /// bugs must run sequentially; cases *within* one campaign share the
    /// same active bug and could parallelize, but detection is usually
    /// immediate so they run inline.
    pub fn run_bug_campaign(bug: InjectedBug, seed: u64, max_cases: usize) -> BugOutcome {
        bug::set_active(Some(bug));
        let mut outcome = BugOutcome {
            bug,
            cases_tried: 0,
            shrunk: None,
        };
        if bug == InjectedBug::DroppedBarrier {
            run_dropped_barrier_campaign(&mut outcome, seed, max_cases);
        } else {
            for attempt in 0..max_cases as u64 {
                outcome.cases_tried += 1;
                let spec = spec_for(bug, seed.wrapping_add(attempt));
                if run_case(&spec).is_err() {
                    outcome.shrunk = Some(shrink(&spec, DEFAULT_MAX_RUNS));
                    break;
                }
            }
        }
        bug::set_active(None);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_covers_the_matrix() {
        let cfg = CampaignConfig {
            seed: 500,
            jobs: 2,
            budget: Duration::from_millis(0),
            max_cases: Some(12),
            ops_per_core: 25,
            cores: 4,
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.cases, 12, "one full matrix batch");
        assert!(
            report.is_clean(),
            "failures: {:?} / {:?}",
            report.failures,
            report.differential_failures
        );
        assert!(report.crash_points > 24, "sweeps were exhaustive");
        assert!(report.differential_pairs >= 6, "differential stage ran");
    }
}
