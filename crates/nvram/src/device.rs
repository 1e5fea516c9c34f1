//! The NVRAM device: durable line store with optional write history.

use crate::crash::DurableSnapshot;
use pbm_types::{Cycle, FastMap, LineAddr};
use std::collections::HashMap;

/// The modelled contents of one 64-byte line: an opaque token.
///
/// Workloads store meaningful tokens (sequence numbers, pointers) so that
/// recovery checks can reason about application state; the memory system
/// treats tokens as opaque.
pub type LineValue = u64;

/// Byte-addressable non-volatile memory at line granularity.
///
/// `persist` applies a durable write at a given cycle; `peek` returns the
/// current durable value. When constructed [`NvramDevice::with_history`],
/// every write is also journalled so [`NvramDevice::snapshot_at`] can
/// reconstruct the durable state at any past cycle — the primitive on which
/// all crash-consistency checking in this repository is built.
#[derive(Debug, Clone, Default)]
pub struct NvramDevice {
    lines: FastMap<LineAddr, LineValue>,
    history: Option<Vec<(Cycle, LineAddr, LineValue)>>,
}

impl NvramDevice {
    /// Creates a device that keeps no write history (fast; for benches).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a device that journals every write so durable state at any
    /// cycle can be reconstructed (for crash-consistency tests).
    pub fn with_history() -> Self {
        NvramDevice {
            history: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Durably writes `value` to `line`, effective at cycle `at`.
    ///
    /// The caller (memory-controller timing model) is responsible for `at`
    /// being the *completion* time of the NVRAM write; the device itself is
    /// timing-free.
    pub fn persist(&mut self, line: LineAddr, value: LineValue, at: Cycle) {
        self.lines.insert(line, value);
        if let Some(h) = &mut self.history {
            h.push((at, line, value));
        }
    }

    /// Reads the durable value of `line`, or `None` if never persisted.
    pub fn peek(&self, line: LineAddr) -> Option<LineValue> {
        self.lines.get(&line).copied()
    }

    /// Reconstructs the durable state as of cycle `at` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the device was not created [`Self::with_history`] — asking
    /// for a historical snapshot without a journal is a test-harness bug.
    pub fn snapshot_at(&self, at: Cycle) -> DurableSnapshot {
        let history = self
            .history
            .as_ref()
            .expect("snapshot_at requires NvramDevice::with_history");
        let mut lines = HashMap::new();
        for &(t, line, value) in history.iter().filter(|(t, _, _)| *t <= at) {
            let _ = t;
            lines.insert(line, value);
        }
        DurableSnapshot::new(lines, at)
    }

    /// The distinct cycles at which at least one durable write completed,
    /// sorted ascending.
    ///
    /// The durable line contents only change at these instants. Under BSP
    /// the state after undo-log recovery also changes when a log record
    /// becomes durable or its epoch commits, so an exhaustive crash sweep
    /// (`pbm_sim::System::crash_sweep`) adds those instants.
    ///
    /// # Panics
    ///
    /// Panics if the device was not created [`Self::with_history`].
    pub fn persist_times(&self) -> Vec<Cycle> {
        let history = self
            .history
            .as_ref()
            .expect("persist_times requires NvramDevice::with_history");
        let mut times: Vec<Cycle> = history.iter().map(|&(t, _, _)| t).collect();
        times.sort_unstable();
        times.dedup();
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_persist() {
        let mut nv = NvramDevice::new();
        assert_eq!(nv.peek(LineAddr::new(5)), None);
        nv.persist(LineAddr::new(5), 42, Cycle::new(10));
        assert_eq!(nv.peek(LineAddr::new(5)), Some(42));
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut nv = NvramDevice::new();
        nv.persist(LineAddr::new(1), 1, Cycle::new(1));
        nv.persist(LineAddr::new(1), 2, Cycle::new(2));
        assert_eq!(nv.peek(LineAddr::new(1)), Some(2));
    }

    #[test]
    fn snapshot_reconstructs_past() {
        let mut nv = NvramDevice::with_history();
        nv.persist(LineAddr::new(1), 10, Cycle::new(100));
        nv.persist(LineAddr::new(2), 20, Cycle::new(200));
        nv.persist(LineAddr::new(1), 11, Cycle::new(300));
        let s = nv.snapshot_at(Cycle::new(250));
        assert_eq!(s.line(LineAddr::new(1)), Some(10));
        assert_eq!(s.line(LineAddr::new(2)), Some(20));
        let s0 = nv.snapshot_at(Cycle::new(50));
        assert_eq!(s0.line(LineAddr::new(1)), None);
        let s_end = nv.snapshot_at(Cycle::new(300));
        assert_eq!(s_end.line(LineAddr::new(1)), Some(11));
    }

    #[test]
    fn persist_times_are_sorted_and_deduped() {
        let mut nv = NvramDevice::with_history();
        nv.persist(LineAddr::new(1), 10, Cycle::new(300));
        nv.persist(LineAddr::new(2), 20, Cycle::new(100));
        nv.persist(LineAddr::new(3), 30, Cycle::new(300));
        assert_eq!(nv.persist_times(), vec![Cycle::new(100), Cycle::new(300)]);
    }

    #[test]
    #[should_panic(expected = "with_history")]
    fn snapshot_without_history_panics() {
        let nv = NvramDevice::new();
        let _ = nv.snapshot_at(Cycle::new(1));
    }
}
