//! Persistent data-structure micro-benchmarks (Table 2 of the paper).
//!
//! Each generator *executes* its data structure's operations against a
//! simulated persistent heap — maintaining a host-side mirror of the
//! structure — and emits the memory operations a real implementation would
//! issue: loads to traverse, 512-byte entry writes, pointer/header updates,
//! spin locks for mutual exclusion, and persist barriers placed as in
//! Figure 10 (data first, barrier, then the commit pointer, barrier).
//!
//! All randomness comes from a seeded [`rand::rngs::StdRng`], so workloads
//! are reproducible byte-for-byte.

mod hash;
mod queue;
mod rbtree;
mod sdg;
mod sps;

pub use hash::hash;
pub use queue::queue;
pub use rbtree::rbtree;
pub use sdg::sdg;
pub use sps::sps;

use crate::Workload;

/// Parameters shared by every micro-benchmark.
#[derive(Debug, Clone)]
pub struct MicroParams {
    /// Worker threads (one per core).
    pub threads: usize,
    /// Data-structure operations (transactions) per thread.
    pub ops_per_thread: usize,
    /// Entry payload size in bytes (the paper uses 512).
    pub entry_bytes: u64,
    /// Structure capacity (buckets / slots / vertices), pre-populated to
    /// roughly half.
    pub capacity: usize,
    /// Local compute cycles between transactions (think time).
    pub think_cycles: u32,
    /// Compute cycles inside each critical section (the transaction's own
    /// logic: key hashing, comparisons, bookkeeping).
    pub work_cycles: u32,
    /// Probability that a thread's operation targets its own partition of
    /// the structure (hash buckets / sps entries / sdg vertices are
    /// statically sliced per thread). High values reproduce the paper's
    /// intra-thread-conflict dominance: each thread mostly re-touches data
    /// it wrote in its own recent epochs.
    pub partition_locality: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MicroParams {
    /// The paper-scale configuration: 32 threads, 512-byte entries, a
    /// structure small enough to be reused heavily (the paper's ~90%
    /// conflicting epochs under LB), and enough per-transaction
    /// application work that the flush pipeline is not the bottleneck.
    pub fn paper() -> Self {
        MicroParams {
            threads: 32,
            ops_per_thread: 64,
            entry_bytes: 512,
            capacity: 384,
            think_cycles: 6000,
            work_cycles: 1200,
            partition_locality: 0.90,
            seed: 0x5eed_0001,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        MicroParams {
            threads: 2,
            ops_per_thread: 8,
            entry_bytes: 512,
            capacity: 64,
            think_cycles: 50,
            work_cycles: 20,
            partition_locality: 0.75,
            seed: 0x5eed_0002,
        }
    }
}

/// All five micro-benchmarks under the same parameters, in the paper's
/// plotting order.
pub fn all(params: &MicroParams) -> Vec<Workload> {
    vec![
        hash(params),
        queue(params),
        rbtree(params),
        sdg(params),
        sps(params),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_sim::System;
    use pbm_types::{BarrierKind, SystemConfig};

    fn run_checked(wl: &Workload) -> pbm_types::SimStats {
        let mut cfg = SystemConfig::small_test();
        cfg.cores = 2;
        cfg.llc_banks = 2;
        cfg.mcs = 2;
        cfg.barrier = BarrierKind::LbPp;
        let mut sys = System::new(cfg, wl.programs.clone()).expect("valid");
        sys.enable_checking();
        wl.apply_preloads(&mut sys);
        let stats = sys.run();
        // Every micro-benchmark run must be BEP-consistent at every crash
        // state.
        let ck = sys.checker().expect("checking enabled");
        sys.crash_sweep(|_, snap| ck.check_bep(snap))
            .unwrap_or_else(|(at, v)| panic!("{}: violation at {at}: {v}", wl.name));
        stats
    }

    #[test]
    fn all_micros_run_and_are_consistent() {
        let params = MicroParams::tiny();
        for wl in all(&params) {
            let stats = run_checked(&wl);
            assert_eq!(
                stats.transactions,
                (params.threads * params.ops_per_thread) as u64,
                "{}",
                wl.name
            );
            assert!(stats.barriers > 0, "{}", wl.name);
            assert!(stats.stores > 0, "{}", wl.name);
        }
    }

    #[test]
    fn names_match_table2() {
        let names: Vec<_> = all(&MicroParams::tiny())
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names, vec!["hash", "queue", "rbtree", "sdg", "sps"]);
    }

    #[test]
    fn generators_are_deterministic() {
        let params = MicroParams::tiny();
        let a = queue(&params);
        let b = queue(&params);
        assert_eq!(a.total_ops(), b.total_ops());
        for (pa, pb) in a.programs.iter().zip(&b.programs) {
            assert_eq!(pa.ops(), pb.ops());
        }
    }
}
