//! Processor-state checkpointing for BSP bulk mode (§5.2, §6).
//!
//! At every hardware epoch boundary the processor state — general-purpose,
//! special, privilege and non-AVX floating-point registers — is saved to
//! persistent memory alongside the epoch's data, so execution can restart
//! from the last durable epoch after a crash (in the spirit of WSP).
//! This module models the *cost*: how many NVRAM line writes each
//! checkpoint adds to an epoch flush.

use pbm_types::LineAddr;

/// Cost model of one per-epoch processor-state checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointModel {
    bytes: u64,
}

impl CheckpointModel {
    /// A checkpoint of `bytes` of architectural state (the paper's register
    /// inventory comes to ~512 B per core; `SystemConfig::checkpoint_bytes`).
    pub fn new(bytes: u64) -> Self {
        CheckpointModel { bytes }
    }

    /// Bytes captured per checkpoint.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// NVRAM line writes added to every epoch flush.
    pub fn lines_per_epoch(&self) -> u64 {
        LineAddr::lines_for(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_checkpoint_is_eight_lines() {
        let m = CheckpointModel::new(512);
        assert_eq!(m.lines_per_epoch(), 8);
        assert_eq!(m.bytes(), 512);
    }

    #[test]
    fn ragged_sizes_round_up() {
        assert_eq!(CheckpointModel::new(1).lines_per_epoch(), 1);
        assert_eq!(CheckpointModel::new(65).lines_per_epoch(), 2);
        assert_eq!(CheckpointModel::new(0).lines_per_epoch(), 0);
    }
}
