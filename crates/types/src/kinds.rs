//! Experiment axes: barrier implementations, persistency models, flush modes.

use std::fmt;

/// Which persist-barrier implementation the memory system uses.
///
/// These are the configurations compared throughout the paper's evaluation
/// (§7): the lazy barrier of Condit et al. (`Lb`), the two optimizations
/// applied individually (`LbIdt`, `LbPf`), and their combination `LbPp`
/// (written "LB++" in the paper). `NoPersistency` and `WriteThrough` are the
/// lower/upper baselines used in §7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierKind {
    /// No persistency enforcement at all ("NP"): plain write-back caches
    /// over NVRAM. The baseline every BSP result is normalized to.
    NoPersistency,
    /// Naive strict persistency: every store writes through to NVRAM and
    /// the next store waits for the persist ack (§7.2 reports ~8x over NP).
    WriteThrough,
    /// The state-of-the-art lazy barrier of Condit et al. (BPFS): buffered
    /// epochs, flushes triggered reactively by conflicts and evictions.
    Lb,
    /// `Lb` plus Inter-thread Dependence Tracking (§3.1).
    LbIdt,
    /// `Lb` plus Proactive Flushing (§3.2).
    LbPf,
    /// The paper's contribution, LB++ = LB + IDT + PF.
    LbPp,
}

impl BarrierKind {
    /// True if inter-thread conflicts are resolved by recording a dependence
    /// (IDT) instead of an online flush.
    pub const fn has_idt(self) -> bool {
        matches!(self, BarrierKind::LbIdt | BarrierKind::LbPp)
    }

    /// True if completed epochs are flushed proactively (PF).
    pub const fn has_pf(self) -> bool {
        matches!(self, BarrierKind::LbPf | BarrierKind::LbPp)
    }

    /// True if the configuration buffers epochs at all (i.e. is a lazy
    /// barrier variant rather than a baseline).
    pub const fn is_buffered(self) -> bool {
        matches!(
            self,
            BarrierKind::Lb | BarrierKind::LbIdt | BarrierKind::LbPf | BarrierKind::LbPp
        )
    }

    /// All lazy-barrier variants, in the order the paper's figures plot them.
    pub const LAZY_VARIANTS: [BarrierKind; 4] = [
        BarrierKind::Lb,
        BarrierKind::LbIdt,
        BarrierKind::LbPf,
        BarrierKind::LbPp,
    ];
}

impl fmt::Display for BarrierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BarrierKind::NoPersistency => "NP",
            BarrierKind::WriteThrough => "WT",
            BarrierKind::Lb => "LB",
            BarrierKind::LbIdt => "LB+IDT",
            BarrierKind::LbPf => "LB+PF",
            BarrierKind::LbPp => "LB++",
        };
        f.write_str(s)
    }
}

/// Which persistency model the system enforces (Pelley et al., ISCA'14,
/// as refined in §2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistencyKind {
    /// Strict persistency: every store persists before the next becomes
    /// visible. Modeled for the Figure 1(a) timeline and the write-through
    /// baseline.
    Strict,
    /// Epoch persistency: program continues within an epoch but a persist
    /// barrier stalls until the previous epoch has fully persisted (rule E2).
    Epoch,
    /// Buffered epoch persistency: barriers never stall (except for
    /// back-pressure); the memory system persists epochs in order offline.
    /// Programmer-inserted barriers (§5.1).
    BufferedEpoch,
    /// Buffered strict persistency in bulk mode: hardware cuts epochs every
    /// `epoch_size` dynamic stores and uses undo logging + register
    /// checkpoints for atomicity (§5.2).
    BufferedStrictBulk,
}

impl fmt::Display for PersistencyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PersistencyKind::Strict => "SP",
            PersistencyKind::Epoch => "EP",
            PersistencyKind::BufferedEpoch => "BEP",
            PersistencyKind::BufferedStrictBulk => "BSP-bulk",
        };
        f.write_str(s)
    }
}

/// Whether a cache-line flush invalidates the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushMode {
    /// `clflush`-style: the line is written back *and invalidated*. Later
    /// accesses re-fetch from NVRAM, disrupting locality.
    Invalidating,
    /// `clwb`-style: the line is written back and stays valid (clean).
    /// The paper uses this mode everywhere after finding it ~30% faster.
    NonInvalidating,
}

impl FlushMode {
    /// True for the `clflush`-style mode.
    pub const fn invalidates(self) -> bool {
        matches!(self, FlushMode::Invalidating)
    }
}

impl fmt::Display for FlushMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlushMode::Invalidating => "clflush",
            FlushMode::NonInvalidating => "clwb",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idt_pf_composition() {
        assert!(!BarrierKind::Lb.has_idt());
        assert!(!BarrierKind::Lb.has_pf());
        assert!(BarrierKind::LbIdt.has_idt());
        assert!(!BarrierKind::LbIdt.has_pf());
        assert!(!BarrierKind::LbPf.has_idt());
        assert!(BarrierKind::LbPf.has_pf());
        assert!(BarrierKind::LbPp.has_idt());
        assert!(BarrierKind::LbPp.has_pf());
    }

    #[test]
    fn buffered_classification() {
        assert!(!BarrierKind::NoPersistency.is_buffered());
        assert!(!BarrierKind::WriteThrough.is_buffered());
        for k in BarrierKind::LAZY_VARIANTS {
            assert!(k.is_buffered());
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(BarrierKind::LbPp.to_string(), "LB++");
        assert_eq!(BarrierKind::LbIdt.to_string(), "LB+IDT");
        assert_eq!(PersistencyKind::BufferedEpoch.to_string(), "BEP");
        assert_eq!(FlushMode::NonInvalidating.to_string(), "clwb");
    }

    #[test]
    fn flush_mode_invalidates() {
        assert!(FlushMode::Invalidating.invalidates());
        assert!(!FlushMode::NonInvalidating.invalidates());
    }
}
