//! Observability vocabulary: structured trace events and metric samples.
//!
//! These types describe *what happened* inside a simulation at a given
//! cycle. They live in `pbm-types` so that every layer (core, sim, noc,
//! nvram) can emit them without depending on the `pbm-obs` crate, which
//! owns collection, sampling and export.

use crate::ids::{BankId, CoreId, EpochId, EpochTag, McId, NodeId};
use crate::message::MessageClass;
use crate::time::Cycle;
use std::fmt;

/// Why an epoch flush was requested — the attribution behind Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlushReason {
    /// An intra- or inter-thread epoch conflict demanded the flush
    /// (an *online* persist).
    Conflict,
    /// A cache eviction needed a tagged victim persisted first.
    Eviction,
    /// Proactive flushing on epoch completion (PF, offline).
    Proactive,
    /// The in-flight epoch window (3-bit epoch id) filled up.
    BackPressure,
    /// An EP-model barrier stalled for the epoch (rule E2).
    Barrier,
    /// End-of-run drain.
    Drain,
}

impl FlushReason {
    /// Stable lower-case name used in exported traces.
    pub const fn name(self) -> &'static str {
        match self {
            FlushReason::Conflict => "conflict",
            FlushReason::Eviction => "eviction",
            FlushReason::Proactive => "proactive",
            FlushReason::BackPressure => "backpressure",
            FlushReason::Barrier => "barrier",
            FlushReason::Drain => "drain",
        }
    }
}

impl fmt::Display for FlushReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a core is stalled (for cycle attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallKind {
    /// Waiting for an epoch to persist online (conflict or eviction).
    OnlinePersist,
    /// Stalled at a persist barrier (EP rule E2, or BEP in-flight-epoch
    /// back-pressure).
    Barrier,
}

impl StallKind {
    /// Stable lower-case name used in exported traces.
    pub const fn name(self) -> &'static str {
        match self {
            StallKind::OnlinePersist => "online_persist",
            StallKind::Barrier => "barrier",
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Lifecycle phase of one epoch (§3), tracked by `pbm-core`'s epoch
/// ledger and arbiter and reported in [`TraceEventKind::EpochPhase`].
///
/// Epochs advance strictly `Ongoing → Completed → Flushing → Persisted`;
/// persistence is in-order per core (rule E1 of epoch persistency), so the
/// ledger can represent all persisted epochs by a single frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EpochPhase {
    /// The epoch is still accepting stores (its closing barrier has not
    /// retired).
    Ongoing,
    /// Closed by a persist barrier; values are final but not yet durable.
    Completed,
    /// The arbiter is flushing it (FlushEpoch sent, BankAcks pending).
    Flushing,
    /// Fully durable (PersistCMP broadcast).
    Persisted,
}

/// One cycle-stamped observation from the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle at which the event happened.
    pub cycle: Cycle,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Creates an event.
    pub const fn new(cycle: Cycle, kind: TraceEventKind) -> Self {
        TraceEvent { cycle, kind }
    }
}

/// The payload of a [`TraceEvent`] — one per instrumentation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An epoch moved to a new lifecycle phase.
    EpochPhase {
        /// The epoch.
        tag: EpochTag,
        /// The phase entered.
        phase: EpochPhase,
    },
    /// A flush was requested for an epoch that had no prior request — the
    /// causal anchor of its end-to-end persist latency. The gap to the
    /// `FlushEpoch` event is the arbiter's dependence-wait plus queueing
    /// behind the core's earlier in-flight epochs.
    FlushRequested {
        /// The epoch whose flush was requested.
        tag: EpochTag,
        /// Why the flush was requested (first attribution; a later
        /// conflict may still upgrade the reason seen at `FlushEpoch`).
        reason: FlushReason,
    },
    /// The arbiter issued FlushEpoch to the LLC banks (handshake step 1).
    FlushEpoch {
        /// The epoch being flushed.
        tag: EpochTag,
        /// Why the flush was requested.
        reason: FlushReason,
    },
    /// One bank's flush pipeline became unblocked for an epoch (handshake
    /// step 2 issue point). The event is stamped with the issue cycle —
    /// the maximum of the four gate times it also carries, which let an
    /// offline analyzer attribute the gate delay to the component that
    /// held it (command delivery, L1 writebacks, undo-log write-ahead,
    /// checkpoint completion).
    BankFlushStart {
        /// The epoch being flushed.
        tag: EpochTag,
        /// The bank.
        bank: BankId,
        /// When the FlushEpoch control message reached this bank.
        cmd_at: Cycle,
        /// When the last L1 writeback destined for this bank arrived.
        wb_at: Cycle,
        /// When the epoch's undo-log records were durable (BSP; flush
        /// start otherwise).
        log_at: Cycle,
        /// When the processor-state checkpoint completed (BSP, bank 0
        /// only; flush start otherwise).
        chk_at: Cycle,
        /// Number of lines this bank persists for the epoch.
        lines: u32,
    },
    /// One line write of an epoch flush traversed bank → MC → NVRAM →
    /// PersistAck (handshake step 2). Stamped with the bank's issue cycle;
    /// the four milestones it carries decompose the write's round trip.
    PersistWrite {
        /// The epoch being flushed.
        tag: EpochTag,
        /// The issuing bank.
        bank: BankId,
        /// The memory controller that served the write.
        mc: McId,
        /// When the writeback reached the controller.
        mc_at: Cycle,
        /// When the controller started the device write (queue exit).
        begin: Cycle,
        /// When the line was durable (PersistAck generated).
        durable: Cycle,
        /// When the PersistAck reached the bank.
        ack_at: Cycle,
    },
    /// A bank finished persisting its lines for an epoch (handshake step 3).
    BankAck {
        /// The epoch.
        tag: EpochTag,
        /// The acknowledging bank.
        bank: BankId,
    },
    /// The arbiter broadcast PersistCMP for an epoch (handshake step 4).
    PersistCmp {
        /// The epoch that is now durable.
        tag: EpochTag,
    },
    /// An inter-thread dependence was recorded in an IDT register pair
    /// instead of flushing online.
    IdtRecord {
        /// Epoch that must persist first.
        source: EpochTag,
        /// Epoch that depends on it.
        dependent: EpochTag,
    },
    /// All IDT register pairs were busy; the conflict fell back to an
    /// online flush.
    IdtOverflow {
        /// Epoch that must persist first.
        source: EpochTag,
        /// Epoch that depends on it.
        dependent: EpochTag,
    },
    /// The deadlock-avoidance mechanism split an epoch (§3.3).
    DeadlockSplit {
        /// Core whose current epoch was cut.
        core: CoreId,
        /// The epoch that was closed by the split.
        epoch: EpochId,
    },
    /// An intra-thread epoch conflict was detected (§3.2).
    ConflictIntra {
        /// Core that touched its own unpersisted earlier epoch's line.
        core: CoreId,
        /// The earlier epoch that must now flush.
        epoch: EpochId,
    },
    /// An inter-thread epoch conflict was detected (§3.1).
    ConflictInter {
        /// Epoch owning the conflicting line.
        source: EpochTag,
        /// Epoch of the accessing core.
        dependent: EpochTag,
    },
    /// A core stalled.
    StallBegin {
        /// The stalled core.
        core: CoreId,
        /// Why it stalled.
        kind: StallKind,
        /// The epoch it is waiting on.
        tag: EpochTag,
    },
    /// A previously stalled core resumed.
    StallEnd {
        /// The core that resumed.
        core: CoreId,
        /// Why it had stalled.
        kind: StallKind,
        /// Cycles spent stalled.
        waited: Cycle,
    },
    /// A message was injected into the on-chip network.
    NocSend {
        /// Injecting node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Virtual-network class.
        class: MessageClass,
        /// Cycle at which the message will be delivered.
        arrival: Cycle,
    },
}

/// One row of the periodic time-series sample (exported as metrics CSV).
///
/// Counter fields are *cumulative* at the sample instant, so consumers can
/// difference adjacent rows for rates (e.g. NVRAM write bandwidth); gauge
/// fields (`mc_queue_depth`, `stalled_cores`) are instantaneous.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MetricSample {
    /// Sample instant.
    pub cycle: Cycle,
    /// Writes queued across all memory controllers and not yet retired
    /// (instantaneous).
    pub mc_queue_depth: u64,
    /// Cumulative line writes to NVRAM (data + log + checkpoint).
    pub nvram_writes: u64,
    /// Cumulative line reads from NVRAM.
    pub nvram_reads: u64,
    /// Cumulative messages injected into the NoC.
    pub noc_messages: u64,
    /// Cumulative epochs fully persisted.
    pub epochs_persisted: u64,
    /// Cores currently parked on a stall (instantaneous).
    pub stalled_cores: u32,
    /// Cumulative cycles stalled on online persists (all cores).
    pub online_stall_cycles: u64,
    /// Cumulative cycles stalled at barriers (all cores).
    pub barrier_stall_cycles: u64,
}

impl MetricSample {
    /// The CSV header matching [`MetricSample::csv_row`].
    pub const CSV_HEADER: &'static str = "cycle,mc_queue_depth,nvram_writes,nvram_reads,\
noc_messages,epochs_persisted,stalled_cores,online_stall_cycles,barrier_stall_cycles";

    /// Renders the sample as one CSV row (no trailing newline).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}",
            self.cycle.as_u64(),
            self.mc_queue_depth,
            self.nvram_writes,
            self.nvram_reads,
            self.noc_messages,
            self.epochs_persisted,
            self.stalled_cores,
            self.online_stall_cycles,
            self.barrier_stall_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_sample_csv_matches_header() {
        let s = MetricSample {
            cycle: Cycle::new(100),
            mc_queue_depth: 3,
            ..MetricSample::default()
        };
        let header_cols = MetricSample::CSV_HEADER.split(',').count();
        let row = s.csv_row();
        assert_eq!(row.split(',').count(), header_cols);
        assert!(row.starts_with("100,3,"));
    }
}
