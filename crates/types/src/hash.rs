//! A small, deterministic hasher for the simulator's per-line and
//! per-epoch maps.
//!
//! The keys of those maps are already well spread integers (line numbers,
//! `(core, epoch)` tags), so a keyed, DoS-resistant hash such as SipHash
//! buys nothing and costs most of a lookup. [`FastHasher`] is the
//! multiply-rotate word hash of Firefox and rustc ("Fx"): unseeded, so the
//! same key hashes the same way in every process.
//!
//! Iteration order of a [`FastMap`] follows the hash, not insertion or key
//! order. Use it only for maps that are never iterated into an output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the Fx hash (the one rustc uses on 64-bit hosts).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style multiply-rotate hasher. Deterministic: no per-process seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    /// The multiply leaves the low bits of the product depending only on
    /// the low bits of the key, and one LLC bank's lines all share their
    /// low bits; the rotate moves the well-mixed high bits down to where
    /// the table takes its bucket index.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreId, EpochId, EpochTag, LineAddr};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    #[test]
    fn output_is_pinned() {
        // A change here changes no simulator output (no FastMap is ever
        // iterated), but it must be deliberate: the hash is unseeded and
        // identical in every process.
        assert_eq!(hash_of(&LineAddr::new(0x1234)), 0xd15e_a281_114b_d8e7);
        let tag = EpochTag::new(CoreId::new(3), EpochId::new(7));
        assert_eq!(hash_of(&tag), 0xdc4f_4437_b641_81d4);
        assert_eq!(hash_of(&LineAddr::new(0x1234)), hash_of(&0x1234u64));
    }

    #[test]
    fn one_banks_lines_spread_over_buckets() {
        // Lines of one of 32 banks share their low 5 bits; their hashes
        // must not.
        let low: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|i| hash_of(&LineAddr::new(i * 32 + 5)) & 0x1f)
            .collect();
        assert!(low.len() > 16, "{} distinct low-bit patterns", low.len());
    }

    #[test]
    fn fast_map_behaves_as_a_map() {
        let mut m: FastMap<LineAddr, u32> = FastMap::default();
        m.insert(LineAddr::new(1), 10);
        m.insert(LineAddr::new(1), 11);
        m.insert(LineAddr::new(2), 20);
        assert_eq!(m.get(&LineAddr::new(1)), Some(&11));
        assert_eq!(m.remove(&LineAddr::new(2)), Some(20));
        assert_eq!(m.len(), 1);
    }
}
