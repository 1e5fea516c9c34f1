//! The paper's contribution: efficient persist barriers (LB++) as pure,
//! timing-free architectural logic.
//!
//! This crate implements every mechanism §3–§5 of *Efficient Persist
//! Barriers for Multicores* (MICRO-48, 2015) describes, decoupled from the
//! cycle-level timing model in `pbm-sim` so each piece is independently
//! unit- and property-testable:
//!
//! * [`EpochLedger`] — the per-core epoch lifecycle
//!   (ongoing → completed → flushing → persisted) behind the 3-bit epoch-id
//!   back-pressure window;
//! * [`EpochArbiter`] — the per-core arbiter of §4.1/§4.2 that orchestrates
//!   the multi-banked epoch flush handshake (FlushEpoch → BankAck →
//!   PersistCMP) and enforces IDT dependences offline;
//! * [`Protocol`] — every core's arbiter plus the cross-core decisions:
//!   flush requests and their reasons, transitive IDT demand, the §3.3
//!   split, IDT record with overflow fallback, PF, back-pressure and the
//!   persist release. It emits timing [`Step`]s for `pbm-sim` to execute;
//! * [`IdtRegisters`] — the bounded dependence/inform register file of
//!   §3.1/§4.3, with overflow fallback;
//! * [`split_decision`] — the deadlock-avoidance rule of §3.3 (split the
//!   source epoch when a dependence lands on an *ongoing* epoch);
//! * [`HbGraph`] — the epoch happens-before order (program order ∪
//!   inter-thread dependences) used both by the deadlock checker and the
//!   crash-consistency checker;
//! * [`recovery`] — the offline crash-consistency checker: epoch
//!   prefix-closure for BEP and post-undo atomicity for BSP;
//! * [`BarrierSemantics`] — what a persist barrier means under each
//!   persistency model (SP/EP/BEP/BSP-bulk), including BSP's hardware
//!   epoch cutting and checkpoint cost.
//!
//! # Example
//!
//! ```
//! use pbm_core::{Barrier, Protocol, Step};
//! use pbm_types::{BarrierKind, CoreId, SystemConfig};
//!
//! let mut cfg = SystemConfig::small_test();
//! cfg.barrier = BarrierKind::LbPp; // IDT + proactive flushing
//! let mut protocol = Protocol::new(&cfg);
//! let mut steps = Vec::new();
//! let Barrier::Closed(e0) = protocol.barrier(CoreId::new(0), &mut steps) else {
//!     unreachable!("the window is empty")
//! };
//! // PF starts persisting the closed epoch at once.
//! assert!(steps.iter().any(|s| matches!(s, Step::Flush(tag, _) if tag.epoch == e0)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arbiter;
mod checkpoint;
mod deadlock;
mod epoch;
mod hb;
mod idt;
mod persistency;
mod protocol;
pub mod recovery;
mod tally;

pub use arbiter::{ArbiterAction, EpochArbiter, FlushPhase};
pub use checkpoint::CheckpointModel;
pub use deadlock::{split_decision, SplitDecision};
pub use epoch::EpochLedger;
pub use hb::HbGraph;
pub use idt::{IdtOverflow, IdtRegisters};
pub use persistency::BarrierSemantics;
pub use protocol::{Barrier, Protocol, Step};
