//! System configuration (Table 1 of the paper).

use crate::error::ConfigError;
use crate::kinds::{BarrierKind, FlushMode, PersistencyKind};

/// Most cores a [`SystemConfig`] may have: the LLC directory keeps each
/// line's sharers as one bit per core in a `u64`.
pub const MAX_CORES: usize = 64;

/// Full configuration of the simulated multicore, mirroring Table 1 of the
/// paper plus the persistency-machinery knobs from §4.3 and §5.2.
///
/// Start from [`SystemConfig::micro48`] (the paper's exact setup) or
/// [`SystemConfig::small_test`], assign the fields to vary, and check the
/// result with [`SystemConfig::validate`]. The fields are public, so a
/// config is only known to be consistent once it has been validated;
/// `pbm_sim::System::new` validates every config it is given.
///
/// # Example
///
/// ```
/// use pbm_types::{BarrierKind, SystemConfig};
///
/// let mut cfg = SystemConfig::micro48();
/// cfg.cores = 8;
/// cfg.llc_banks = 8; // one bank tile per core
/// cfg.barrier = BarrierKind::LbPp;
/// let cfg = cfg.validate()?;
/// assert_eq!(cfg.mesh_cols(), 2); // 8 tiles over 4 rows
/// # Ok::<(), pbm_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (1 thread per core). Paper: 32.
    pub cores: usize,
    /// Store (write) buffer entries per core. Paper: 32.
    pub write_buffer: usize,
    /// L1 data cache size in bytes. Paper: 32 KiB.
    pub l1_size: u64,
    /// L1 associativity. Paper: 4.
    pub l1_assoc: usize,
    /// L1 hit latency in cycles. Paper: 3.
    pub l1_latency: u64,
    /// Number of LLC banks (tiles). Paper: 32 (one per core).
    pub llc_banks: usize,
    /// Per-bank LLC size in bytes. Paper: 1 MiB.
    pub llc_bank_size: u64,
    /// LLC associativity. Paper: 16.
    pub llc_assoc: usize,
    /// LLC access latency in cycles. Paper: 30.
    pub llc_latency: u64,
    /// Number of memory controllers. Paper: 4, at the mesh corners.
    pub mcs: usize,
    /// NVRAM write (persist) latency in cycles. Paper: 360.
    pub nvram_write_latency: u64,
    /// NVRAM read latency in cycles. Paper: 240.
    pub nvram_read_latency: u64,
    /// Concurrent in-flight NVRAM accesses per memory controller (device
    /// banking). Not in Table 1; chosen so 4 MCs provide adequate bandwidth
    /// for 32 cores, as the paper states.
    pub mc_parallelism: usize,
    /// Mesh rows. Paper: 4 (so 32 tiles form a 4x8 mesh).
    pub mesh_rows: usize,
    /// Flit size in bytes. Paper: 16.
    pub flit_bytes: u64,
    /// Per-hop router+link traversal latency in cycles.
    pub hop_latency: u64,
    /// Maximum in-flight (un-persisted) epochs per core. Paper: 8
    /// (3-bit EpochID).
    pub inflight_epochs: usize,
    /// IDT dependence/inform register pairs per in-flight epoch. Paper: 4.
    pub idt_pairs: usize,
    /// Persist-barrier implementation under test.
    pub barrier: BarrierKind,
    /// Persistency model being enforced.
    pub persistency: PersistencyKind,
    /// Whether epoch flushes invalidate lines (`clflush`) or not (`clwb`).
    pub flush_mode: FlushMode,
    /// BSP bulk mode: hardware cuts an epoch every this many dynamic stores.
    /// Paper sweeps 300 / 1000 / 10000 (Figure 13).
    pub bsp_epoch_size: u64,
    /// BSP bulk mode: undo logging enabled (disabled for LB++NOLOG).
    pub logging: bool,
    /// BSP bulk mode: bytes of processor state checkpointed per epoch
    /// (general-purpose + special + privilege + non-AVX FP registers, §6).
    pub checkpoint_bytes: u64,
}

impl SystemConfig {
    /// The paper's evaluation platform (Table 1): 32 OoO cores, 32 KiB 4-way
    /// L1s, 32 x 1 MiB 16-way LLC banks, 4 memory controllers, 4-row mesh,
    /// 360/240-cycle NVRAM write/read.
    ///
    /// Defaults to the LB++ barrier enforcing BEP with non-invalidating
    /// flushes; override via the fields.
    pub fn micro48() -> Self {
        SystemConfig {
            cores: 32,
            write_buffer: 32,
            l1_size: 32 * 1024,
            l1_assoc: 4,
            l1_latency: 3,
            llc_banks: 32,
            llc_bank_size: 1024 * 1024,
            llc_assoc: 16,
            llc_latency: 30,
            mcs: 4,
            nvram_write_latency: 360,
            nvram_read_latency: 240,
            mc_parallelism: 16,
            mesh_rows: 4,
            flit_bytes: 16,
            hop_latency: 3,
            inflight_epochs: 8,
            idt_pairs: 4,
            barrier: BarrierKind::LbPp,
            persistency: PersistencyKind::BufferedEpoch,
            flush_mode: FlushMode::NonInvalidating,
            bsp_epoch_size: 10_000,
            logging: true,
            checkpoint_bytes: 512,
        }
    }

    /// A small, fast configuration for unit and property tests: 4 cores,
    /// 4 banks, tiny caches (so conflicts and evictions actually happen),
    /// otherwise the paper's latencies.
    pub fn small_test() -> Self {
        let mut cfg = Self::micro48();
        cfg.cores = 4;
        cfg.llc_banks = 4;
        cfg.mesh_rows = 2;
        cfg.mcs = 2;
        cfg.l1_size = 4 * 1024;
        cfg.llc_bank_size = 32 * 1024;
        cfg
    }

    /// Number of cache sets in each L1.
    pub fn l1_sets(&self) -> usize {
        (self.l1_size / (crate::LINE_SIZE * self.l1_assoc as u64)) as usize
    }

    /// Number of cache sets in each LLC bank.
    pub fn llc_sets(&self) -> usize {
        (self.llc_bank_size / (crate::LINE_SIZE * self.llc_assoc as u64)) as usize
    }

    /// Mesh columns, derived from tile count and row count.
    pub fn mesh_cols(&self) -> usize {
        self.cores.max(self.llc_banks).div_ceil(self.mesh_rows)
    }

    /// Validates the configuration, returning it unchanged if consistent.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending parameter if any count
    /// is zero, a power-of-two requirement is violated, or the cache/mesh
    /// geometry is inconsistent.
    pub fn validate(self) -> Result<Self, ConfigError> {
        fn nonzero(v: u64, what: &'static str) -> Result<(), ConfigError> {
            if v == 0 {
                Err(ConfigError::ZeroCount { what })
            } else {
                Ok(())
            }
        }
        nonzero(self.cores as u64, "cores")?;
        nonzero(self.llc_banks as u64, "llc banks")?;
        nonzero(self.mcs as u64, "memory controllers")?;
        nonzero(self.mesh_rows as u64, "mesh rows")?;
        nonzero(self.l1_assoc as u64, "l1 associativity")?;
        nonzero(self.llc_assoc as u64, "llc associativity")?;
        nonzero(self.inflight_epochs as u64, "in-flight epochs")?;
        nonzero(self.write_buffer as u64, "write buffer")?;
        nonzero(self.bsp_epoch_size, "bsp epoch size")?;
        nonzero(self.mc_parallelism as u64, "mc parallelism")?;
        nonzero(self.flit_bytes, "flit bytes")?;
        if self.cores > MAX_CORES {
            return Err(ConfigError::TooManyCores { cores: self.cores });
        }

        if !(self.llc_banks as u64).is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "llc banks",
                value: self.llc_banks as u64,
            });
        }
        if !(self.mcs as u64).is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "memory controllers",
                value: self.mcs as u64,
            });
        }
        for (what, size, assoc) in [
            ("l1", self.l1_size, self.l1_assoc as u64),
            ("llc bank", self.llc_bank_size, self.llc_assoc as u64),
        ] {
            let way_bytes = crate::LINE_SIZE * assoc;
            if size % way_bytes != 0 || size / way_bytes == 0 {
                return Err(ConfigError::CacheGeometry {
                    what,
                    detail: format!("{size} B does not split into {assoc} ways of 64 B lines"),
                });
            }
            let sets = size / way_bytes;
            if !sets.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    what: "cache set count",
                    value: sets,
                });
            }
        }
        let slots = self.mesh_rows * self.mesh_cols();
        let tiles = self.cores.max(self.llc_banks);
        if slots < tiles {
            return Err(ConfigError::MeshTooSmall {
                nodes: tiles,
                slots,
            });
        }
        Ok(self)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::micro48()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro48_matches_table1() {
        let c = SystemConfig::micro48().validate().expect("valid preset");
        assert_eq!(c.cores, 32);
        assert_eq!(c.write_buffer, 32);
        assert_eq!(c.l1_size, 32 * 1024);
        assert_eq!(c.l1_assoc, 4);
        assert_eq!(c.l1_latency, 3);
        assert_eq!(c.llc_bank_size, 1024 * 1024);
        assert_eq!(c.llc_assoc, 16);
        assert_eq!(c.llc_latency, 30);
        assert_eq!(c.mcs, 4);
        assert_eq!(c.nvram_write_latency, 360);
        assert_eq!(c.nvram_read_latency, 240);
        assert_eq!(c.mesh_rows, 4);
        assert_eq!(c.flit_bytes, 16);
        assert_eq!(c.inflight_epochs, 8);
        assert_eq!(c.idt_pairs, 4);
    }

    #[test]
    fn derived_geometry() {
        let c = SystemConfig::micro48();
        assert_eq!(c.l1_sets(), 128); // 32 KiB / (64 B * 4 ways)
        assert_eq!(c.llc_sets(), 1024); // 1 MiB / (64 B * 16 ways)
        assert_eq!(c.mesh_cols(), 8); // 32 tiles over 4 rows
    }

    #[test]
    fn small_test_is_valid() {
        SystemConfig::small_test().validate().expect("valid");
    }

    #[test]
    fn rejects_zero_cores() {
        let mut c = SystemConfig::micro48();
        c.cores = 0;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::ZeroCount { what: "cores" }
        );
    }

    #[test]
    fn rejects_more_cores_than_the_sharer_mask_holds() {
        let mut c = SystemConfig::micro48();
        c.cores = MAX_CORES;
        assert!(c.clone().validate().is_ok());
        c.cores = MAX_CORES + 1;
        let e = c.validate().unwrap_err();
        assert_eq!(e, ConfigError::TooManyCores { cores: 65 });
        assert!(e.to_string().contains("at most 64"), "{e}");
    }

    #[test]
    fn rejects_non_pow2_banks() {
        let mut c = SystemConfig::micro48();
        c.llc_banks = 3;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::NotPowerOfTwo {
                what: "llc banks",
                ..
            }
        ));
    }

    #[test]
    fn rejects_bad_cache_geometry() {
        let mut c = SystemConfig::micro48();
        c.l1_size = 1000; // not divisible into 4 ways of 64 B
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::CacheGeometry { what: "l1", .. }
        ));
    }

    #[test]
    fn rejects_tiny_mesh() {
        let mut c = SystemConfig::micro48();
        c.mesh_rows = 1;
        // 1 row x mesh_cols(=32) still fits; shrink further via cols by
        // forcing more tiles than slots.
        c.llc_banks = 64;
        c.mesh_rows = 4; // 4x16 = 64 slots, still fits
        assert!(c.clone().validate().is_ok());
        c.llc_banks = 128; // 4x32 = 128 slots, fits exactly
        assert!(c.validate().is_ok());
    }
}
