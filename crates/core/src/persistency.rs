//! What a persist barrier means under each persistency model (§2.1, §5).

use pbm_types::PersistencyKind;

/// Decodes a [`PersistencyKind`] into the behaviours the core model and the
/// memory system need to apply (§2.1's rules S1/S2/E1/E2 and §5.2's bulk
/// mode).
///
/// # Example
///
/// ```
/// use pbm_core::BarrierSemantics;
/// use pbm_types::PersistencyKind;
///
/// let bep = BarrierSemantics::for_model(PersistencyKind::BufferedEpoch, 0);
/// assert!(!bep.barrier_stalls());          // buffered: barriers don't wait
/// let bsp = BarrierSemantics::for_model(PersistencyKind::BufferedStrictBulk, 10_000);
/// assert_eq!(bsp.hardware_epoch_size(), Some(10_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierSemantics {
    kind: PersistencyKind,
    bsp_epoch_size: u64,
}

impl BarrierSemantics {
    /// Builds the semantics for a model. `bsp_epoch_size` is only
    /// meaningful for [`PersistencyKind::BufferedStrictBulk`].
    pub fn for_model(kind: PersistencyKind, bsp_epoch_size: u64) -> Self {
        BarrierSemantics {
            kind,
            bsp_epoch_size,
        }
    }

    /// The model.
    pub fn kind(&self) -> PersistencyKind {
        self.kind
    }

    /// True if a persist barrier stalls the core until the previous epoch
    /// has fully persisted (rule E2 of EP; rule S2 of SP degenerates to
    /// per-store stalls handled by the write-through path).
    pub fn barrier_stalls(&self) -> bool {
        matches!(self.kind, PersistencyKind::Strict | PersistencyKind::Epoch)
    }

    /// `Some(n)` if hardware cuts an epoch every `n` dynamic stores
    /// (BSP bulk mode, §5.2); `None` for programmer-inserted barriers.
    pub fn hardware_epoch_size(&self) -> Option<u64> {
        match self.kind {
            PersistencyKind::BufferedStrictBulk => Some(self.bsp_epoch_size),
            _ => None,
        }
    }

    /// True if epoch atomicity requires undo logging (BSP: a crash may
    /// leave an epoch partially persisted; BEP exposes epoch granularity
    /// to the programmer instead).
    pub fn needs_logging(&self) -> bool {
        self.kind == PersistencyKind::BufferedStrictBulk
    }

    /// True if processor state must be checkpointed at epoch boundaries
    /// (BSP restarts from the last durable epoch, §5.2).
    pub fn needs_checkpoint(&self) -> bool {
        self.kind == PersistencyKind::BufferedStrictBulk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_stalls_everything() {
        let s = BarrierSemantics::for_model(PersistencyKind::Strict, 0);
        assert!(s.barrier_stalls());
        assert_eq!(s.hardware_epoch_size(), None);
        assert!(!s.needs_logging());
    }

    #[test]
    fn epoch_persistency_stalls_barriers_only() {
        let s = BarrierSemantics::for_model(PersistencyKind::Epoch, 0);
        assert!(s.barrier_stalls());
        assert!(!s.needs_logging());
    }

    #[test]
    fn buffered_epoch_never_stalls() {
        let s = BarrierSemantics::for_model(PersistencyKind::BufferedEpoch, 0);
        assert!(!s.barrier_stalls());
        assert!(!s.needs_logging());
        assert!(!s.needs_checkpoint());
    }

    #[test]
    fn bsp_bulk_cuts_and_logs() {
        let s = BarrierSemantics::for_model(PersistencyKind::BufferedStrictBulk, 300);
        assert!(!s.barrier_stalls());
        assert_eq!(s.hardware_epoch_size(), Some(300));
        assert!(s.needs_logging());
        assert!(s.needs_checkpoint());
        assert_eq!(s.kind(), PersistencyKind::BufferedStrictBulk);
    }
}
