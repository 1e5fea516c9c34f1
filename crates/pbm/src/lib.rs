//! `pbm` — *Efficient Persist Barriers for Multicores* (Joshi, Nagarajan,
//! Cintra, Viglas; MICRO-48, 2015), reproduced as a Rust library.
//!
//! Emerging non-volatile memories make persistence as fast as memory — if
//! the memory system can be told in what order dirty cache lines must
//! reach NVRAM. The paper's answer is **LB++**, an efficient *persist
//! barrier* that keeps those orderings out of the critical path using two
//! optimizations over the state-of-the-art lazy barrier (LB):
//! inter-thread dependence tracking (IDT) and proactive flushing (PF),
//! plus epoch-deadlock avoidance and a multi-banked LLC flush protocol.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | ids, addresses, `SystemConfig` (Table 1), statistics |
//! | [`noc`] | 2D-mesh on-chip network model |
//! | [`nvram`] | NVRAM device, memory controllers, undo log, snapshots |
//! | [`cache`] | epoch-tagged cache arrays, victim policy, directory |
//! | [`core`] | the paper's contribution: arbiter, cross-core flush protocol, IDT, PF, deadlock avoidance, recovery checking |
//! | [`sim`] | the deterministic multicore timing simulator |
//! | [`workloads`] | Table 2 micro-benchmarks + nine BSP application proxies |
//! | [`analyze`] | static persist-order analyzer: epoch partitioning, happens-before linting |
//! | [`prof`] | offline causal critical-path profiler, flame-graph export |
//!
//! # Quickstart
//!
//! ```
//! use pbm::prelude::*;
//!
//! // A 4-core system running the LB++ barrier under buffered epoch
//! // persistency (the paper's headline configuration).
//! let mut cfg = SystemConfig::small_test();
//! cfg.barrier = BarrierKind::LbPp;
//!
//! // One thread inserts into a persistent queue: data epoch, barrier,
//! // pointer epoch, barrier (Figure 10).
//! let mut b = ProgramBuilder::new();
//! b.store_span(Addr::new(0), 512, 7).barrier()
//!     .store(Addr::new(4096), 1).barrier();
//!
//! let mut sys = System::new(cfg, vec![b.build()])?;
//! let stats = sys.run();
//! assert_eq!(stats.epochs_persisted, 2);
//! # Ok::<(), pbm::types::ConfigError>(())
//! ```

#![warn(missing_docs)]

pub use pbm_analyze as analyze;
pub use pbm_cache as cache;
pub use pbm_core as core;
pub use pbm_noc as noc;
pub use pbm_nvram as nvram;
pub use pbm_obs as obs;
pub use pbm_prof as prof;
pub use pbm_sim as sim;
pub use pbm_types as types;
pub use pbm_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use pbm_core::{BarrierSemantics, Protocol};
    pub use pbm_nvram::DurableSnapshot;
    pub use pbm_sim::{Op, Program, ProgramBuilder, System, VOLATILE_BASE};
    pub use pbm_types::{
        Addr, BarrierKind, ConfigError, CoreId, Cycle, EpochId, EpochTag, FlushMode, LineAddr,
        PersistencyKind, SimStats, SystemConfig,
    };
    pub use pbm_workloads::{apps, micro, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let cfg = SystemConfig::small_test();
        assert_eq!(cfg.cores, 4);
        let _ = BarrierKind::LbPp;
    }
}
