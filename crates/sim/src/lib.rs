//! Deterministic discrete-event multicore simulator for the `pbm`
//! persist-barrier study.
//!
//! Wires the substrates together into the system of Figure 2 — cores with
//! private L1s, a multi-banked shared LLC, corner memory controllers over
//! NVRAM, all on a 2D mesh — and executes per-core [`Program`]s under a
//! configurable persist barrier ([`pbm_types::BarrierKind`]) and persistency
//! model ([`pbm_types::PersistencyKind`]).
//!
//! The simulator is *transaction-timed*: each memory operation's latency is
//! computed by walking the real protocol path (L1 → mesh → LLC bank →
//! directory / owner transfer → memory controller) against stateful
//! contention models (mesh link occupancy, MC device banks), while the
//! epoch machinery — conflicts, IDT, proactive flushing, the multi-banked
//! flush handshake — runs the pure logic from `pbm-core` and schedules its
//! asynchronous completions (BankAcks, persists, wakeups) on a discrete
//! event queue. Identical inputs produce identical cycle counts.
//!
//! # Example
//!
//! ```
//! use pbm_sim::{ProgramBuilder, System};
//! use pbm_types::{Addr, SystemConfig};
//!
//! let mut cfg = SystemConfig::small_test();
//! cfg.cores = 1;
//! cfg.llc_banks = 4;
//! let mut prog = ProgramBuilder::new();
//! prog.store(Addr::new(0), 1).barrier().store(Addr::new(64), 2).barrier();
//! let mut sys = System::new(cfg, vec![prog.build()]).expect("valid config");
//! let stats = sys.run();
//! assert_eq!(stats.stores, 2);
//! assert_eq!(stats.barriers, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod event;
mod flush;
mod lock;
mod op;
mod perturb;
mod system;

pub use event::{Event, EventQueue, HeapEventQueue};
pub use op::{Op, Program, ProgramBuilder};
pub use perturb::SchedulePerturbation;
pub use system::{System, VOLATILE_BASE};
