//! Crash-consistency fuzzing and model checking for the `pbm` simulator.
//!
//! The persistency models make point-in-time guarantees ("at *every* crash
//! cycle the durable state is BEP-consistent"), which unit tests can only
//! sample. This crate attacks them systematically:
//!
//! * [`case`] — runs one (programs, barrier, persistency, schedule) tuple
//!   and checks the model in every distinct crash state that
//!   `pbm_sim::System::crash_sweep` visits (NVRAM persist timestamps;
//!   undo-log durability and commit timestamps under BSP). The sweep is
//!   exhaustive, not sampled.
//! * [`campaign`] — fuzzes the full matrix of lazy barriers × persistency
//!   models with random programs and seed-perturbed schedules (NoC hop
//!   jitter, memory-controller service jitter, LLC bank service rotation —
//!   all protocol-legal, see `pbm_sim::SchedulePerturbation`) under a
//!   wall-clock budget, then cross-checks barrier kinds differentially:
//!   identical final drained NVRAM state, and the paper's §4 claim that
//!   proactive flushing adds zero extra NVRAM writes.
//! * [`shrink`](mod@shrink) — minimizes a failing case to a smallest
//!   reproducing program set (the vendored `proptest` has no shrinking).
//! * [`artifact`] — serializes shrunk cases as replayable JSON into
//!   `tests/corpus/`, which the `corpus` integration test replays in CI.
//! * [`pool`] — the scoped worker pool shared with `pbm-bench`.
//!
//! With the `bug-inject` feature, `campaign::bugs` hunts the deliberately
//! broken protocol variants of `pbm_types::bug` — dropping an IDT edge,
//! acknowledging an epoch flush after a single bank, skipping the §3.3
//! deadlock split, skipping BSP undo logging — and must catch all of them;
//! that closes the loop on whether the harness can detect real ordering
//! bugs at all.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod campaign;
pub mod case;
pub mod pool;
pub mod shrink;

pub use artifact::{decode_case, encode_case, CaseArtifact};
pub use campaign::{run_campaign, CampaignConfig, CampaignReport, FailingCase};
pub use case::{run_case, CaseOk, CaseSpec, FailureKind};
pub use pool::parallel_map;
pub use shrink::shrink;
