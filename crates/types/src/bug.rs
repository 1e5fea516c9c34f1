//! Deliberately injected protocol bugs.
//!
//! The crash-consistency harness in `pbm-check` validates that it has
//! teeth by switching on one of these known-broken variants and asserting
//! that the fuzzer flags it. Every hook asks [`hit`], which is constant
//! `false` without the `bug-inject` feature. Each bug disables exactly one of the
//! correctness mechanisms the paper's design relies on; the hardware
//! checker machinery keeps recording ground truth, so the resulting
//! ordering/atomicity violations are observable at some crash cycle.
//!
//! The active bug is process-global (an atomic), mirroring how a real
//! hardware bug is a property of the whole chip, not of one run. Campaigns
//! that exercise different bugs must therefore run sequentially; cases
//! *under the same bug* may still run in parallel.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// One deliberately broken protocol variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectedBug {
    /// An inter-thread conflict is resolved by *pretending* to record the
    /// IDT dependence: the requestor proceeds but the source arbiter never
    /// learns it must persist first (§3.1 edge dropped).
    DropIdtEdge,
    /// The epoch arbiter treats the *first* `BankAck` as flush completion
    /// (step ③ of Figure 8 short-circuited), so a core's epoch E+1 starts
    /// flushing while E's remaining banks are still writing.
    PrematureBankAck,
    /// The §3.3 deadlock-avoidance split is skipped: dependences and
    /// forced evictions land on *ongoing* epochs.
    SkipDeadlockSplit,
    /// BSP undo logging is silently dropped: no pre-image is written before
    /// a line's first modification in an epoch, so recovery cannot undo a
    /// partially-persisted epoch (§5.2.1 broken).
    SkipUndoLog,
    /// The *workload-level* bug: the programmer's data persist barrier is
    /// dropped from the Figure-10 commit protocol, so the commit flag
    /// shares an epoch with the data it publishes. The hardware is
    /// blameless and stays BEP-consistent — the crash invariant broken is
    /// the application's (flag durable ⇒ data durable). Hooked in
    /// `pbm_workloads::commit` via the bug campaign rather than in the
    /// protocol model.
    DroppedBarrier,
}

impl InjectedBug {
    /// Every injected bug, in a stable order.
    pub const ALL: [InjectedBug; 5] = [
        InjectedBug::DropIdtEdge,
        InjectedBug::PrematureBankAck,
        InjectedBug::SkipDeadlockSplit,
        InjectedBug::SkipUndoLog,
        InjectedBug::DroppedBarrier,
    ];

    /// Stable CLI / artifact name of the bug.
    pub const fn name(self) -> &'static str {
        match self {
            InjectedBug::DropIdtEdge => "drop-idt-edge",
            InjectedBug::PrematureBankAck => "premature-bank-ack",
            InjectedBug::SkipDeadlockSplit => "skip-deadlock-split",
            InjectedBug::SkipUndoLog => "skip-undo-log",
            InjectedBug::DroppedBarrier => "dropped-barrier",
        }
    }

    /// Parses a [`Self::name`] string.
    pub fn from_name(name: &str) -> Option<InjectedBug> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }

    fn code(self) -> u8 {
        match self {
            InjectedBug::DropIdtEdge => 1,
            InjectedBug::PrematureBankAck => 2,
            InjectedBug::SkipDeadlockSplit => 3,
            InjectedBug::SkipUndoLog => 4,
            InjectedBug::DroppedBarrier => 5,
        }
    }

    fn from_code(code: u8) -> Option<InjectedBug> {
        Self::ALL.into_iter().find(|b| b.code() == code)
    }
}

impl fmt::Display for InjectedBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide active bug (0 = none).
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Activates `bug` (or deactivates all with `None`) process-wide.
pub fn set_active(bug: Option<InjectedBug>) {
    ACTIVE.store(bug.map_or(0, InjectedBug::code), Ordering::SeqCst);
}

/// The currently active bug, if any.
pub fn active() -> Option<InjectedBug> {
    InjectedBug::from_code(ACTIVE.load(Ordering::Relaxed))
}

/// The one injected-bug hook: true if `bug` is the active one and the
/// `bug-inject` feature is on. Without the feature it is constant `false`,
/// so the default build compiles every hook away.
#[inline]
pub fn hit(bug: InjectedBug) -> bool {
    cfg!(feature = "bug-inject") && is_active(bug)
}

/// True if `bug` is the active one.
pub fn is_active(bug: InjectedBug) -> bool {
    active() == Some(bug)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single test: the active-bug switch is process-global, so separate
    // #[test] functions would race under the parallel test runner.
    #[test]
    fn names_roundtrip_and_switch_works() {
        for b in InjectedBug::ALL {
            assert_eq!(InjectedBug::from_name(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(InjectedBug::from_name("no-such-bug"), None);
        assert_eq!(active(), None);
        set_active(Some(InjectedBug::DropIdtEdge));
        assert!(is_active(InjectedBug::DropIdtEdge));
        assert!(!is_active(InjectedBug::SkipUndoLog));
        set_active(None);
        assert_eq!(active(), None);
    }
}
