//! Causal critical-path profiler for persist-barrier traces.
//!
//! pbm-obs records *what happened*; this crate answers *why a persist
//! barrier took N cycles*. [`analyze`] consumes a structured event stream
//! and reconstructs, per flushed epoch, the dependency chain the paper's
//! Figure 8 handshake implies —
//!
//! ```text
//! FlushRequested ─▶ (IDT dependence waits, queueing behind the core's
//!                    earlier epochs) ─▶ FlushEpoch ─▶ per-bank gates
//! (command delivery | L1 writebacks | undo log | checkpoint) ─▶ line
//! writes (NoC ▶ MC queue ▶ NVRAM cell write ▶ PersistAck) ─▶ BankAck ─▶
//! PersistCMP
//! ```
//!
//! — walks the *straggler* path through it (the slowest bank, and that
//! bank's slowest line), and attributes **every cycle of end-to-end
//! persist latency to exactly one [`Component`]**. The attribution is
//! conservative by construction: for each barrier the per-component
//! cycles sum to `PersistCMP − FlushRequested` exactly, which is what
//! lets per-component totals be compared across barrier designs (LB vs
//! LB++) without double counting.
//!
//! Exports:
//!
//! * [`flame::folded_stacks`] — inferno-compatible folded-stack text
//!   (`phase;component cycles` lines) for flame graphs;
//! * [`report::report_json`] — the `pbm-prof-report/v1` document: totals,
//!   latency distribution, and the top-K slowest barriers with their
//!   critical-path witnesses;
//! * [`report::cell_json`] / [`report::bench_doc`] — the `pbm-bench-prof/v1`
//!   summary (`BENCH_prof.json`) that `exp <experiment> --prof-out=DIR`
//!   writes, one entry per grid cell, integer-only and byte-deterministic.
//!
//! Everything is deterministic: all arithmetic is integral, all iteration
//! orders are sorted, and no wall-clock value is ever consulted.

#![warn(missing_docs, missing_debug_implementations)]

mod attr;
pub mod flame;
pub mod report;

pub use attr::{analyze, Attribution, BarrierProfile, Component, Profile};
