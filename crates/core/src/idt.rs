//! Inter-thread Dependence Tracking register file (§3.1, §4.3).
//!
//! Each in-flight epoch owns a bounded number of *dependence* registers
//! (source epochs that must persist first) and *inform* registers
//! (dependent epochs on other cores to notify once this epoch persists).
//! The paper provisions 4 pairs per epoch (64 bytes per L1). When a
//! register file is full the hardware cannot record the dependence and
//! falls back to LB behaviour — an online flush — which the caller learns
//! via [`IdtOverflow`].

use crate::tally::Tally;
use pbm_types::{EpochId, EpochTag};
use std::collections::BTreeMap;

/// The dependence could not be recorded: all register pairs for the epoch
/// are in use. The caller must fall back to an online flush of the source
/// epoch (LB behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdtOverflow {
    /// The epoch whose register file is full.
    pub epoch: EpochId,
}

impl std::fmt::Display for IdtOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "idt registers full for epoch {}", self.epoch)
    }
}

impl std::error::Error for IdtOverflow {}

/// One core's IDT register file: per local epoch, up to `pairs` dependence
/// entries and up to `pairs` inform entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IdtRegisters {
    pairs: usize,
    /// dependence[e] = source epochs (other cores) that must persist before
    /// local epoch `e` may flush.
    dependence: BTreeMap<EpochId, Vec<EpochTag>>,
    /// inform[e] = dependent epochs (other cores) to notify when local
    /// epoch `e` persists.
    inform: BTreeMap<EpochId, Vec<EpochTag>>,
    recorded: Tally,
    overflows: Tally,
}

impl IdtRegisters {
    /// Creates a register file with `pairs` dependence and inform entries
    /// per epoch (the paper uses 4).
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is zero.
    pub fn new(pairs: usize) -> Self {
        assert!(pairs > 0, "pairs must be nonzero");
        IdtRegisters {
            pairs,
            dependence: BTreeMap::new(),
            inform: BTreeMap::new(),
            recorded: Tally::default(),
            overflows: Tally::default(),
        }
    }

    /// Records that local epoch `dependent` must wait for `source`
    /// (an epoch on another core).
    ///
    /// # Errors
    ///
    /// Returns [`IdtOverflow`] if the epoch's dependence registers are full;
    /// the dependence is *not* recorded.
    pub fn add_dependence(
        &mut self,
        dependent: EpochId,
        source: EpochTag,
    ) -> Result<(), IdtOverflow> {
        let regs = self.dependence.entry(dependent).or_default();
        if regs.contains(&source) {
            return Ok(()); // already tracked; hardware would match and drop
        }
        if regs.len() >= self.pairs {
            self.overflows.bump();
            return Err(IdtOverflow { epoch: dependent });
        }
        regs.push(source);
        self.recorded.bump();
        Ok(())
    }

    /// Records that remote epoch `dependent` must be informed when local
    /// epoch `source` persists.
    ///
    /// # Errors
    ///
    /// Returns [`IdtOverflow`] if the epoch's inform registers are full.
    pub fn add_inform(&mut self, source: EpochId, dependent: EpochTag) -> Result<(), IdtOverflow> {
        let regs = self.inform.entry(source).or_default();
        if regs.contains(&dependent) {
            return Ok(());
        }
        if regs.len() >= self.pairs {
            self.overflows.bump();
            return Err(IdtOverflow { epoch: source });
        }
        regs.push(dependent);
        self.recorded.bump();
        Ok(())
    }

    /// Unsatisfied source epochs local epoch `e` still waits on.
    pub fn sources_of(&self, e: EpochId) -> &[EpochTag] {
        self.dependence.get(&e).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if local epoch `e` has no unsatisfied dependences.
    pub fn is_clear(&self, e: EpochId) -> bool {
        self.sources_of(e).is_empty()
    }

    /// A remote source epoch persisted: drop it from every dependence
    /// register. Returns how many registers were released.
    pub fn satisfy(&mut self, source: EpochTag) -> usize {
        let mut released = 0;
        self.dependence.retain(|_, regs| {
            let before = regs.len();
            regs.retain(|s| *s != source);
            released += before - regs.len();
            !regs.is_empty()
        });
        released
    }

    /// Local epoch `e` persisted: drain and return the dependents to
    /// notify, releasing its inform registers.
    pub fn drain_inform(&mut self, e: EpochId) -> Vec<EpochTag> {
        self.inform.remove(&e).unwrap_or_default()
    }

    /// When an ongoing epoch is split (§3.3), its recorded registers stay
    /// with the completed first half (`from`); nothing moves. However any
    /// *future* conflicts belong to the new id. This helper exists so the
    /// arbiter can assert the invariant.
    pub fn assert_no_registers_above(&self, e: EpochId) {
        debug_assert!(
            self.dependence.keys().all(|k| *k <= e) && self.inform.keys().all(|k| *k <= e),
            "registers recorded for epochs beyond {e}"
        );
    }

    /// Dependences successfully recorded (both kinds).
    pub fn recorded_count(&self) -> u64 {
        self.recorded.get()
    }

    /// Overflow events (fallbacks to online flush).
    pub fn overflow_count(&self) -> u64 {
        self.overflows.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::CoreId;

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    #[test]
    fn record_and_satisfy() {
        let mut idt = IdtRegisters::new(4);
        idt.add_dependence(EpochId::new(1), tag(2, 5)).unwrap();
        idt.add_dependence(EpochId::new(1), tag(3, 0)).unwrap();
        assert_eq!(idt.sources_of(EpochId::new(1)).len(), 2);
        assert!(!idt.is_clear(EpochId::new(1)));
        assert_eq!(idt.satisfy(tag(2, 5)), 1);
        assert_eq!(idt.sources_of(EpochId::new(1)), &[tag(3, 0)]);
        assert_eq!(idt.satisfy(tag(3, 0)), 1);
        assert!(idt.is_clear(EpochId::new(1)));
        assert_eq!(idt.recorded_count(), 2);
    }

    #[test]
    fn duplicate_dependence_is_free() {
        let mut idt = IdtRegisters::new(1);
        idt.add_dependence(EpochId::new(0), tag(1, 1)).unwrap();
        idt.add_dependence(EpochId::new(0), tag(1, 1)).unwrap();
        assert_eq!(idt.sources_of(EpochId::new(0)).len(), 1);
        assert_eq!(idt.overflow_count(), 0);
    }

    #[test]
    fn overflow_after_pairs_exhausted() {
        let mut idt = IdtRegisters::new(2);
        idt.add_dependence(EpochId::new(0), tag(1, 0)).unwrap();
        idt.add_dependence(EpochId::new(0), tag(2, 0)).unwrap();
        let err = idt.add_dependence(EpochId::new(0), tag(3, 0)).unwrap_err();
        assert_eq!(err.epoch, EpochId::new(0));
        assert_eq!(idt.overflow_count(), 1);
        // Other epochs are unaffected.
        idt.add_dependence(EpochId::new(1), tag(3, 0)).unwrap();
    }

    #[test]
    fn inform_drain() {
        let mut idt = IdtRegisters::new(4);
        idt.add_inform(EpochId::new(2), tag(1, 7)).unwrap();
        idt.add_inform(EpochId::new(2), tag(3, 1)).unwrap();
        let notify = idt.drain_inform(EpochId::new(2));
        assert_eq!(notify, vec![tag(1, 7), tag(3, 1)]);
        assert!(idt.drain_inform(EpochId::new(2)).is_empty());
    }

    #[test]
    fn inform_overflow() {
        let mut idt = IdtRegisters::new(1);
        idt.add_inform(EpochId::new(0), tag(1, 0)).unwrap();
        assert!(idt.add_inform(EpochId::new(0), tag(2, 0)).is_err());
    }

    #[test]
    fn inform_overflow_counts_and_drain_frees_registers() {
        let mut idt = IdtRegisters::new(1);
        idt.add_inform(EpochId::new(0), tag(1, 0)).unwrap();
        // A duplicate matches in hardware: free, not an overflow.
        idt.add_inform(EpochId::new(0), tag(1, 0)).unwrap();
        assert_eq!(idt.recorded_count(), 1);
        assert_eq!(idt.overflow_count(), 0);
        // A distinct dependent overflows and is counted.
        let err = idt.add_inform(EpochId::new(0), tag(2, 0)).unwrap_err();
        assert_eq!(err.epoch, EpochId::new(0));
        assert_eq!(idt.overflow_count(), 1);
        // Other epochs have independent inform registers.
        idt.add_inform(EpochId::new(1), tag(2, 0)).unwrap();
        // Draining on persist frees the registers for reuse.
        assert_eq!(idt.drain_inform(EpochId::new(0)), vec![tag(1, 0)]);
        idt.add_inform(EpochId::new(0), tag(3, 0)).unwrap();
        assert_eq!(idt.overflow_count(), 1, "freed registers do not overflow");
    }

    #[test]
    fn satisfy_releases_across_epochs() {
        let mut idt = IdtRegisters::new(4);
        idt.add_dependence(EpochId::new(0), tag(9, 9)).unwrap();
        idt.add_dependence(EpochId::new(1), tag(9, 9)).unwrap();
        assert_eq!(idt.satisfy(tag(9, 9)), 2);
        assert!(idt.is_clear(EpochId::new(0)));
        assert!(idt.is_clear(EpochId::new(1)));
    }

    #[test]
    fn overflow_error_displays() {
        let e = IdtOverflow {
            epoch: EpochId::new(3),
        };
        assert_eq!(e.to_string(), "idt registers full for epoch E3");
    }
}
