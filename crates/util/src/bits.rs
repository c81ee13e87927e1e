//! Bit-granular writer and reader.
//!
//! The vector-based record format stores variable-length-value lengths and
//! field-name lengths/IDs using the *minimum* number of bits per entry
//! (paper §3.3.1: "Lengths for variable-length values and field names are
//! stored using the minimum amount of bytes" — bits, per the worked example).
//! Entries are written LSB-first into a byte stream.

/// Writes fixed-width bit fields into a growable byte buffer, LSB-first.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the final byte of `buf` (0 ⇒ byte-aligned).
    bit_pos: u8,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `buf`, starting at a byte boundary after its
    /// current contents; [`into_bytes`](Self::into_bytes) hands it back. A
    /// record assembler packs a section straight into the record this way.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        BitWriter { buf, bit_pos: 0 }
    }

    /// Append the low `width` bits of `v`. `width` must be 1..=64. Fills the
    /// partial last byte, then appends the rest as whole bytes.
    #[inline]
    pub fn write(&mut self, v: u64, width: u8) {
        debug_assert!((1..=64).contains(&width));
        debug_assert!(width == 64 || v < (1u64 << width));
        let mut v = if width == 64 { v } else { v & ((1u64 << width) - 1) };
        let mut width = width;
        if self.bit_pos != 0 {
            let free = 8 - self.bit_pos;
            if let Some(last) = self.buf.last_mut() {
                *last |= (v << self.bit_pos) as u8;
            }
            if width < free {
                self.bit_pos += width;
                return;
            }
            v >>= free;
            width -= free;
        }
        // Byte-aligned: the bits above `width` are zero, so whole bytes do.
        self.buf.extend_from_slice(&v.to_le_bytes()[..(width as usize).div_ceil(8)]);
        self.bit_pos = width % 8;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Finish and return the (byte-padded) buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Byte length the current contents occupy.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }
}

/// Reads fixed-width bit fields from a byte slice, LSB-first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, bit_pos: 0 }
    }

    /// Read `width` bits (1..=64). Returns `None` on exhaustion. Loads the
    /// eight bytes from the field's first as one little-endian word (plus a
    /// ninth byte when a 57+-bit field straddles it) — or, in a buffer's
    /// last seven bytes, just the bytes the field spans — then shifts and
    /// masks.
    #[inline(always)]
    pub fn read(&mut self, width: u8) -> Option<u64> {
        debug_assert!((1..=64).contains(&width));
        let end = self.bit_pos + width as usize;
        if end > self.buf.len() * 8 {
            return None;
        }
        let first = self.bit_pos / 8;
        let shift = (self.bit_pos % 8) as u32;
        let v = match self.buf.get(first..first + 8) {
            Some(eight) => {
                #[expect(clippy::expect_used, reason = "`get(first..first + 8)` is 8 bytes")]
                let v = u64::from_le_bytes(eight.try_into().expect("8 bytes")) >> shift;
                if shift + width as u32 > 64 {
                    // `end` is in bounds, so the field's ninth byte exists.
                    v | (self.buf[first + 8] as u64) << (64 - shift)
                } else {
                    v
                }
            }
            // Fewer than eight bytes left, so the field spans at most seven.
            None => {
                let spanned = &self.buf[first..end.div_ceil(8)];
                let word =
                    spanned.iter().enumerate().fold(0u64, |w, (i, &b)| w | (b as u64) << (8 * i));
                word >> shift
            }
        };
        self.bit_pos = end;
        Some(if width == 64 { v } else { v & ((1u64 << width) - 1) })
    }

    /// Bits not yet consumed.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.bit_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let entries: &[(u64, u8)] =
            &[(1, 1), (0, 1), (5, 3), (1023, 10), (0, 64), (u64::MAX, 64), (0x5a5a, 16), (7, 3)];
        for &(v, width) in entries {
            w.write(v, width);
        }
        let total_bits: usize = entries.iter().map(|&(_, w)| w as usize).sum();
        assert_eq!(w.bit_len(), total_bits);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, width) in entries {
            assert_eq!(r.read(width), Some(v), "width {width}");
        }
    }

    #[test]
    fn reader_rejects_overrun() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b101));
        // The padding bits are readable (they're zero), but reading past the
        // final byte fails.
        assert_eq!(r.read(5), Some(0));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn three_bit_fieldname_ids_match_paper_example() {
        // Paper §3.3.2: four field-name entries at 3 bits each fit in 2 bytes.
        let mut w = BitWriter::new();
        for id in [0b100u64, 0b001, 0b010, 0b011] {
            w.write(id, 3);
        }
        assert_eq!(w.byte_len(), 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b100));
        assert_eq!(r.read(3), Some(0b001));
        assert_eq!(r.read(3), Some(0b010));
        assert_eq!(r.read(3), Some(0b011));
    }

    #[test]
    fn byte_aligned_values() {
        let mut w = BitWriter::new();
        w.write(0xab, 8);
        w.write(0xcdef, 16);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0xab, 0xef, 0xcd]);
    }

    /// The packing rule spelled out one bit at a time: entry after entry,
    /// each LSB-first, bit `i` of the stream in bit `i % 8` of byte `i / 8`.
    fn pack_bit_by_bit(prefix: &[u8], entries: &[(u64, u8)]) -> Vec<u8> {
        let bits: Vec<bool> =
            entries.iter().flat_map(|&(v, w)| (0..w).map(move |i| (v >> i) & 1 == 1)).collect();
        let mut out = prefix.to_vec();
        out.resize(prefix.len() + bits.len().div_ceil(8), 0);
        for (i, _) in bits.iter().enumerate().filter(|(_, set)| **set) {
            out[prefix.len() + i / 8] |= 1 << (i % 8);
        }
        out
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whole-byte writes and word reads agree with the bit-by-bit rule
        /// for every width 1–64, after any prefix, and the reader stops at
        /// the last byte.
        #[test]
        fn writer_and_reader_match_a_bit_by_bit_reference(
            raw in proptest::collection::vec((any::<u64>(), 1u8..=64, 0u8..4), 0..40),
            prefix in proptest::collection::vec(any::<u8>(), 0..3),
        ) {
            // Mostly full-width values, some small ones (the common case of
            // a short length in a wide entry).
            let entries: Vec<(u64, u8)> = raw
                .iter()
                .map(|&(v, w, small)| {
                    let v = if small == 0 { v & 0xff } else { v };
                    (if w == 64 { v } else { v & ((1u64 << w) - 1) }, w)
                })
                .collect();
            let mut w = BitWriter::appending_to(prefix.clone());
            for &(v, width) in &entries {
                w.write(v, width);
            }
            let total: usize = entries.iter().map(|&(_, w)| w as usize).sum();
            prop_assert_eq!(w.bit_len(), prefix.len() * 8 + total);
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &pack_bit_by_bit(&prefix, &entries));

            let mut r = BitReader::new(&bytes[prefix.len()..]);
            for &(v, width) in &entries {
                prop_assert_eq!(r.read(width), Some(v));
            }
            let rest = r.remaining_bits();
            prop_assert!(rest < 8);
            prop_assert_eq!(r.read(rest as u8 + 1), None);
        }
    }
}
