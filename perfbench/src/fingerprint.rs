//! Stable output fingerprints and the reference table they are checked
//! against.
//!
//! The hash is implemented here rather than taken from std, whose
//! `DefaultHasher` may change between toolchains: a reference fingerprint
//! must mean the same thing on every compiler that builds the benchmark.

use pbm_types::SimStats;
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words (bytes are packed little-endian, eight at a
/// time, so hashing a large trace export stays cheap).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn u64(&mut self, word: u64) -> &mut Self {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
        self
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.u64(u64::from_le_bytes(tail))
    }

    /// Every counter and the flush-latency histogram of one run, in a
    /// fixed order.
    pub fn stats(&mut self, s: &SimStats) -> &mut Self {
        for word in [
            s.cycles,
            s.loads,
            s.stores,
            s.barriers,
            s.transactions,
            s.l1_hits,
            s.l1_misses,
            s.llc_hits,
            s.llc_misses,
            s.nvram_reads,
            s.nvram_writes,
            s.epoch_flush_writes,
            s.log_writes,
            s.checkpoint_writes,
            s.epochs_created,
            s.epochs_persisted,
            s.epochs_conflict_flushed,
            s.epochs_proactive_flushed,
            s.epochs_eviction_flushed,
            s.conflicts_intra,
            s.conflicts_inter,
            s.idt_recorded,
            s.idt_overflows,
            s.deadlock_splits,
            s.online_persist_stall_cycles,
            s.load_cycles,
            s.parks,
            s.lock_wait_cycles,
            s.barrier_stall_cycles,
            s.noc_messages,
            s.noc_flits,
        ] {
            self.u64(word);
        }
        let h = &s.epoch_flush_latency;
        self.u64(h.count()).u64(h.sum()).u64(h.max());
        for (lower, _, n) in h.nonzero_buckets() {
            self.u64(lower).u64(n);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Reference fingerprints: `(seed, item label) -> fingerprint`.
#[derive(Debug, Default, Clone)]
pub struct Refs(BTreeMap<(u64, String), u64>);

impl Refs {
    /// Parses `<seed> <label> <16 hex digits>` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Refs, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let mut parts = line.split_whitespace();
            let (Some(seed), Some(label), Some(fp), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(bad());
            };
            let seed = seed.parse().map_err(|_| bad())?;
            let fp = u64::from_str_radix(fp, 16).map_err(|_| bad())?;
            map.insert((seed, label.to_string()), fp);
        }
        Ok(Refs(map))
    }

    pub fn has_seed(&self, seed: u64) -> bool {
        self.0.keys().any(|(s, _)| *s == seed)
    }

    pub fn get(&self, seed: u64, label: &str) -> Option<u64> {
        self.0.get(&(seed, label.to_string())).copied()
    }

    /// Replaces every entry of `seed` with `entries`.
    pub fn set_seed(&mut self, seed: u64, entries: &[(String, u64)]) {
        self.0.retain(|(s, _), _| *s != seed);
        for (label, fp) in entries {
            self.0.insert((seed, label.clone()), *fp);
        }
    }

    pub fn render(&self, header: &str) -> String {
        let mut out = String::from(header);
        for ((seed, label), fp) in &self.0 {
            out.push_str(&format!("{seed} {label} {fp:016x}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_pinned() {
        // The value must never change: reference files depend on it.
        let mut h = Fnv::default();
        h.bytes(b"pbm").u64(7);
        assert_eq!(h.finish(), 0xf892_694d_c62c_94b3, "{:016x}", h.finish());
    }

    #[test]
    fn stats_hash_sees_every_counter() {
        let base = Fnv::default().stats(&SimStats::new()).finish();
        let mut s = SimStats::new();
        s.noc_flits = 1;
        assert_ne!(Fnv::default().stats(&s).finish(), base);
        let mut s = SimStats::new();
        s.epoch_flush_latency.record(100);
        assert_ne!(Fnv::default().stats(&s).finish(), base);
    }

    #[test]
    fn refs_round_trip() {
        let mut refs = Refs::default();
        refs.set_seed(1, &[("hash/LB".to_string(), 0xabc)]);
        let text = refs.render("# header\n");
        let back = Refs::parse(&text).unwrap();
        assert_eq!(back.get(1, "hash/LB"), Some(0xabc));
        assert!(back.has_seed(1) && !back.has_seed(2));
        assert!(Refs::parse("1 only-two").is_err());
    }
}
