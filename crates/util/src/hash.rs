//! Fx-style 64-bit hashing.
//!
//! A fast, non-cryptographic hash used for hash partitioning (primary keys →
//! partitions), bloom filters, and dictionary lookups. The algorithm is the
//! well-known `FxHasher` multiply-rotate scheme (as used inside rustc),
//! reimplemented here so the workspace stays within its dependency budget.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; not HashDoS-resistant, which is fine for all
/// internal uses (keys are not attacker-controlled in the simulator).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            #[expect(clippy::expect_used, reason = "`chunks_exact(8)` yields 8-byte chunks")]
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "a" and "a\0" differ.
            tail[7] = rem.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // A final avalanche so low bits are usable for partitioning.
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 33;
        h
    }
}

/// `BuildHasher` for `HashMap`/`HashSet` with [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// Drop-in fast `HashMap`.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// Drop-in fast `HashSet`.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash an arbitrary byte slice.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Hash a u64 key (e.g. a primary key) — used for hash partitioning.
#[inline]
pub fn hash_u64(v: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(v);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_bytes(b"hello"), hash_bytes(b"hello"));
        assert_eq!(hash_u64(42), hash_u64(42));
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"b"));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"a\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_u64(1), hash_u64(2));
    }

    #[test]
    fn partition_spread_is_reasonable() {
        // 10k sequential keys over 8 partitions: each bucket within 3x of fair.
        let parts = 8u64;
        let mut counts = [0usize; 8];
        for k in 0..10_000u64 {
            counts[(hash_u64(k) % parts) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 400 && c < 3750, "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        assert_eq!(m["x"], 1);
        assert_eq!(m["y"], 2);
    }
}
