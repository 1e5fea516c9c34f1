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
//! use pbm_core::{EpochArbiter, ArbiterAction};
//! use pbm_types::{CoreId, EpochId, SystemConfig};
//!
//! let cfg = SystemConfig::small_test();
//! let mut arb = EpochArbiter::new(CoreId::new(0), &cfg);
//! let e0 = arb.barrier();              // close epoch 0
//! arb.request_flush_upto(e0);
//! let actions = arb.try_advance();
//! assert!(matches!(actions[0], ArbiterAction::StartEpochFlush(t) if t.epoch == e0));
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

pub use arbiter::{ArbiterAction, EpochArbiter, FlushPhase};
pub use checkpoint::CheckpointModel;
pub use deadlock::{split_decision, SplitDecision};
pub use epoch::EpochLedger;
pub use hb::HbGraph;
pub use idt::{IdtOverflow, IdtRegisters};
pub use persistency::BarrierSemantics;
pub use protocol::FlushMessage;
