//! Address-space layout helpers: bump allocation over the persistent and
//! volatile regions.

use pbm_sim::VOLATILE_BASE;
use pbm_types::{Addr, LINE_SIZE};

/// Which region an allocation lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapRegion {
    /// NVRAM-persistent data (epoch-tagged under lazy barriers).
    Persistent,
    /// Volatile data (locks, scratch) — addresses above
    /// [`VOLATILE_BASE`], never tagged or logged.
    Volatile,
}

/// A line-aligned bump allocator over the simulated address space.
///
/// Deterministic and collision-free: every workload builds its layout
/// through one of these, so two generators never alias unless they share
/// the allocator.
#[derive(Debug, Clone)]
pub struct PersistentHeap {
    persistent_next: u64,
    volatile_next: u64,
}

impl PersistentHeap {
    /// A fresh heap starting at address 0 (persistent) and
    /// [`VOLATILE_BASE`] (volatile).
    pub fn new() -> Self {
        PersistentHeap {
            persistent_next: 0,
            volatile_next: VOLATILE_BASE,
        }
    }

    /// Allocates `bytes` (rounded up to whole 64-byte lines) in `region`,
    /// returning the line-aligned base address.
    pub fn alloc(&mut self, region: HeapRegion, bytes: u64) -> Addr {
        let lines = pbm_types::LineAddr::lines_for(bytes.max(1));
        let size = lines * LINE_SIZE;
        match region {
            HeapRegion::Persistent => {
                let base = self.persistent_next;
                self.persistent_next += size;
                assert!(
                    self.persistent_next <= VOLATILE_BASE,
                    "persistent heap overflow"
                );
                Addr::new(base)
            }
            HeapRegion::Volatile => {
                let base = self.volatile_next;
                self.volatile_next += size;
                Addr::new(base)
            }
        }
    }

    /// Allocates an array of `count` objects of `bytes` each, returning the
    /// base; element `i` starts at `base + i * stride` where
    /// `stride = ceil(bytes / 64) * 64`.
    pub fn alloc_array(&mut self, region: HeapRegion, bytes: u64, count: u64) -> (Addr, u64) {
        let stride = pbm_types::LineAddr::lines_for(bytes.max(1)) * LINE_SIZE;
        let base = self.alloc(region, stride * count);
        (base, stride)
    }
}

impl Default for PersistentHeap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_aligned_bump() {
        let mut h = PersistentHeap::new();
        let a = h.alloc(HeapRegion::Persistent, 1);
        let b = h.alloc(HeapRegion::Persistent, 65);
        let c = h.alloc(HeapRegion::Persistent, 512);
        assert_eq!(a, Addr::new(0));
        assert_eq!(b, Addr::new(64));
        assert_eq!(c, Addr::new(64 + 128));
        let d = h.alloc(HeapRegion::Persistent, 64);
        assert_eq!(d, Addr::new(64 + 128 + 512));
    }

    #[test]
    fn volatile_region_is_separate() {
        let mut h = PersistentHeap::new();
        let v = h.alloc(HeapRegion::Volatile, 8);
        assert!(v.as_u64() >= VOLATILE_BASE);
        let p = h.alloc(HeapRegion::Persistent, 8);
        assert!(p.as_u64() < VOLATILE_BASE);
    }

    #[test]
    fn array_stride() {
        let mut h = PersistentHeap::new();
        let (base, stride) = h.alloc_array(HeapRegion::Persistent, 512, 10);
        assert_eq!(stride, 512);
        assert_eq!(base, Addr::new(0));
        let next = h.alloc(HeapRegion::Persistent, 64);
        assert_eq!(next, Addr::new(5120));
    }
}
