//! Bloom filters on component keys.
//!
//! AsterixDB attaches bloom filters to on-disk components so point lookups
//! skip components that cannot contain a key — the mechanism that keeps
//! upsert-time existence checks affordable (paper §3.2.2, [28, 29]).

use tc_util::hash::hash_bytes;

/// A classic k-hash bloom filter using double hashing.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

impl BloomFilter {
    /// Build for an expected number of keys at a bits-per-key budget
    /// (10 bits/key ≈ 1% false positives with 7 hashes).
    pub fn with_capacity(expected_keys: usize, bits_per_key: usize) -> Self {
        let num_bits = (expected_keys.max(1) * bits_per_key).max(64) as u64;
        let words = num_bits.div_ceil(64) as usize;
        let num_hashes = ((bits_per_key as f64) * 0.69).round().clamp(1.0, 30.0) as u32;
        BloomFilter { bits: vec![0u64; words], num_bits: words as u64 * 64, num_hashes }
    }

    #[inline]
    fn probes(&self, key: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let h = hash_bytes(key);
        let h1 = h;
        let h2 = h.rotate_left(32) | 1; // odd ⇒ full cycle
        (0..self.num_hashes as u64)
            .map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits)
    }

    pub fn insert(&mut self, key: &[u8]) {
        let probes: Vec<u64> = self.probes(key).collect();
        for bit in probes {
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// May return false positives, never false negatives.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.probes(key).all(|bit| self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Size of the filter's bit array in bytes (persisted with the
    /// component).
    pub fn byte_len(&self) -> usize {
        self.bits.len() * 8
    }

    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.byte_len());
        out.extend_from_slice(&self.num_hashes.to_le_bytes());
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    pub fn deserialize(buf: &[u8]) -> Option<Self> {
        if buf.len() < 8 {
            return None;
        }
        let num_hashes = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        let words = u32::from_le_bytes(buf[4..8].try_into().ok()?) as usize;
        let body = buf.get(8..8 + words * 8)?;
        let bits: Vec<u64> = body
            .chunks_exact(8)
            .map(|c| c.try_into().ok().map(u64::from_le_bytes))
            .collect::<Option<_>>()?;
        Some(BloomFilter { num_bits: words as u64 * 64, bits, num_hashes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 10);
        for i in 0..1000u64 {
            f.insert(&i.to_be_bytes());
        }
        for i in 0..1000u64 {
            assert!(f.contains(&i.to_be_bytes()), "false negative for {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::with_capacity(10_000, 10);
        for i in 0..10_000u64 {
            f.insert(&i.to_be_bytes());
        }
        let fp = (10_000..110_000u64).filter(|i| f.contains(&i.to_be_bytes())).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing_much() {
        let f = BloomFilter::with_capacity(100, 10);
        let hits = (0..1000u64).filter(|i| f.contains(&i.to_be_bytes())).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn serialize_roundtrip() {
        let mut f = BloomFilter::with_capacity(500, 10);
        for i in 0..500u64 {
            f.insert(&i.to_be_bytes());
        }
        let bytes = f.serialize();
        let g = BloomFilter::deserialize(&bytes).unwrap();
        for i in 0..500u64 {
            assert!(g.contains(&i.to_be_bytes()));
        }
        assert!(BloomFilter::deserialize(&bytes[..4]).is_none());
    }
}
