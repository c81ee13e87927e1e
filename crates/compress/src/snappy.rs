//! From-scratch implementation of the Snappy block format.
//!
//! Format: a varint preamble carrying the uncompressed length, followed by a
//! sequence of elements. Each element starts with a tag byte whose low two
//! bits select the type:
//!
//! * `00` — literal. Length−1 in the upper six bits if < 60; tag values
//!   60–63 mean the length−1 follows in 1–4 little-endian bytes.
//! * `01` — copy, 1-byte offset. Length = 4 + bits 2–4 (4..=11); offset =
//!   bits 5–7 shifted left 8, OR the next byte (< 2048).
//! * `10` — copy, 2-byte little-endian offset. Length = 1 + bits 2–7.
//! * `11` — copy, 4-byte little-endian offset. Length = 1 + bits 2–7.
//!
//! The compressor is a greedy matcher with a 16 Ki-entry hash table over
//! 4-byte windows, restarted every 64 KiB block. Its parse is fixed: every
//! position is hashed in order until a 4-byte match, the match is extended
//! as far as it goes, and every other position inside it is seeded into the
//! table. The loops are built for speed around that parse: the table holds
//! `u16` positions (32 KiB, allocated once per call), one 8-byte load feeds
//! five consecutive probes, matches extend 8 bytes per step (XOR, then
//! trailing zeros), and the output is reserved at its worst case once.
//! The compressed bytes are identical to the straightforward
//! one-byte-at-a-time loop's; a test oracle and a golden digest pin that, so
//! stored page images (and every size metric derived from them) never drift.
//!
//! The decompressor takes the uncompressed length from its caller and
//! refuses a preamble that declares anything else before it allocates, so
//! untrusted bytes cannot demand an arbitrary allocation. It writes into one
//! buffer of exactly that length: short literals and copies move as
//! fixed-size words where the buffer has room past them, everything else as
//! slices, and overlapping (run-length) copies repeat their pattern.

use tc_util::varint;

/// Errors from [`decompress`] and [`decompressed_len`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnappyError {
    /// Preamble missing or malformed, or declaring more bytes than the
    /// stream's body could produce.
    BadPreamble,
    /// The preamble declares a length other than the caller expects.
    UnexpectedLength { declared: u64, expected: usize },
    /// An element ran past the end of the input.
    Truncated,
    /// A copy referenced data before the start of the output.
    BadCopyOffset,
    /// The elements did not produce exactly the declared length: `actual`
    /// counts the bytes produced when decoding stopped (an element that would
    /// overrun the declared length stops it).
    LengthMismatch { expected: usize, actual: usize },
}

impl std::fmt::Display for SnappyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnappyError::BadPreamble => write!(f, "bad snappy preamble"),
            SnappyError::UnexpectedLength { declared, expected } => {
                write!(f, "preamble declares {declared} bytes, expected {expected}")
            }
            SnappyError::Truncated => write!(f, "truncated snappy input"),
            SnappyError::BadCopyOffset => write!(f, "copy offset before start of output"),
            SnappyError::LengthMismatch { expected, actual } => {
                write!(f, "declared {expected} bytes, produced {actual}")
            }
        }
    }
}

impl std::error::Error for SnappyError {}

const BLOCK_SIZE: usize = 64 * 1024;
const HASH_BITS: u32 = 14;
const HASH_TABLE_SIZE: usize = 1 << HASH_BITS;
const MIN_MATCH: usize = 4;

/// Hash table of candidate positions + 1 (0 = empty), indexed by [`hash`].
type Table = [u16; HASH_TABLE_SIZE];

/// Upper bound on the length of `compress` output for `n` input bytes.
pub const fn max_compressed_len(n: usize) -> usize {
    32 + n + n / 6
}

#[inline]
fn hash(window: u32) -> usize {
    (window.wrapping_mul(0x1e35_a7bd) >> (32 - HASH_BITS)) as usize
}

#[inline]
#[expect(clippy::expect_used, reason = "a 4-byte range converts to [u8; 4]")]
fn load32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
#[expect(clippy::expect_used, reason = "an 8-byte range converts to [u8; 8]")]
fn load64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Compress `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(input, &mut out);
    out
}

/// Append the compressed form of `input` to `out`. Reserves
/// [`max_compressed_len`] up front, so a caller that sized `out` for that
/// plus a footer of its own never sees it regrow.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(max_compressed_len(input.len()));
    varint::write_u64(out, input.len() as u64);
    // A 64 KiB block's last hashed position is 65 531, so position + 1
    // fits a `u16`.
    let mut table = [0u16; HASH_TABLE_SIZE];
    for (i, block) in input.chunks(BLOCK_SIZE).enumerate() {
        if i > 0 {
            table.fill(0);
        }
        compress_block(block, &mut table, out);
    }
}

fn compress_block(block: &[u8], table: &mut Table, out: &mut Vec<u8>) {
    if block.len() < MIN_MATCH + 4 {
        emit_literal(block, out);
        return;
    }
    // The last position whose 4-byte window fits in the block.
    let limit = block.len() - MIN_MATCH;
    let mut literal_start = 0usize;
    let mut next = 0usize;
    while let Some((cand, pos)) = find_match(block, table, next) {
        let len = MIN_MATCH + match_len(block, cand + MIN_MATCH, pos + MIN_MATCH);
        emit_literal(&block[literal_start..pos], out);
        emit_copy(pos - cand, len, out);
        // Seed the table through the matched region (sparsely: every other
        // byte keeps compression close to reference quality at half the
        // table-update cost).
        let end = (pos + len).min(limit + 1);
        for p in (pos + 1..end).step_by(2) {
            table[hash(load32(block, p))] = (p + 1) as u16;
        }
        next = pos + len;
        literal_start = next;
    }
    emit_literal(&block[literal_start..], out);
}

/// Hash positions `pos, pos + 1, …` in order, recording each in the table,
/// until one's candidate holds the same 4 bytes; returns
/// `(candidate, position)`, or `None` once no 4-byte window is left. While
/// 8 bytes remain, one load feeds five consecutive probes.
#[inline]
fn find_match(block: &[u8], table: &mut Table, mut pos: usize) -> Option<(usize, usize)> {
    while pos + 8 <= block.len() {
        let bytes = load64(block, pos);
        for i in 0..5 {
            let window = (bytes >> (8 * i)) as u32;
            if let Some(cand) = probe(block, table, window, pos + i) {
                return Some((cand, pos + i));
            }
        }
        pos += 5;
    }
    while pos + MIN_MATCH <= block.len() {
        if let Some(cand) = probe(block, table, load32(block, pos), pos) {
            return Some((cand, pos));
        }
        pos += 1;
    }
    None
}

/// Record `pos` under `window`'s hash; returns the previous entry if its
/// 4 bytes equal `window`.
#[inline(always)]
fn probe(block: &[u8], table: &mut Table, window: u32, pos: usize) -> Option<usize> {
    let slot = &mut table[hash(window)];
    let cand = *slot as usize;
    *slot = (pos + 1) as u16;
    (cand > 0 && load32(block, cand - 1) == window).then(|| cand - 1)
}

/// Number of bytes at which `block[a..]` and `block[b..]` agree, for `a < b`
/// and counting no further than the end of the block.
#[inline]
fn match_len(block: &[u8], mut a: usize, mut b: usize) -> usize {
    let start = b;
    while b + 8 <= block.len() {
        let diff = load64(block, a) ^ load64(block, b);
        if diff != 0 {
            return b - start + (diff.trailing_zeros() / 8) as usize;
        }
        a += 8;
        b += 8;
    }
    while b < block.len() && block[a] == block[b] {
        a += 1;
        b += 1;
    }
    b - start
}

fn emit_literal(lit: &[u8], out: &mut Vec<u8>) {
    if lit.is_empty() {
        return;
    }
    let n = lit.len() - 1;
    if n < 60 {
        out.push((n as u8) << 2);
    } else if n < 0x100 {
        out.push(60 << 2);
        out.push(n as u8);
    } else if n < 0x1_0000 {
        out.push(61 << 2);
        out.extend_from_slice(&(n as u16).to_le_bytes());
    } else if n < 0x100_0000 {
        out.push(62 << 2);
        out.extend_from_slice(&(n as u32).to_le_bytes()[..3]);
    } else {
        out.push(63 << 2);
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }
    out.extend_from_slice(lit);
}

/// Emit a copy of `len` bytes from `offset` back, splitting lengths the way
/// the format requires (copies of 1..=64 per element).
fn emit_copy(offset: usize, mut len: usize, out: &mut Vec<u8>) {
    debug_assert!(offset > 0);
    // Long matches: emit 64-byte chunks with 2-byte offsets.
    while len >= 68 {
        emit_copy_upto64(offset, 64, out);
        len -= 64;
    }
    if len > 64 {
        // Leave at least 4 so the final copy is a valid length.
        emit_copy_upto64(offset, len - 60, out);
        len = 60;
    }
    emit_copy_upto64(offset, len, out);
}

fn emit_copy_upto64(offset: usize, len: usize, out: &mut Vec<u8>) {
    debug_assert!((1..=64).contains(&len));
    if (4..=11).contains(&len) && offset < 2048 {
        out.push(0b01 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
        out.push(offset as u8);
    } else if offset < 0x1_0000 {
        out.push(0b10 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    } else {
        out.push(0b11 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&(offset as u32).to_le_bytes());
    }
}

/// The uncompressed length `input`'s preamble declares, for callers with no
/// length of their own to expect. A declaration the body could not produce
/// (no element yields more than 64 bytes per 3 input bytes) is refused as
/// [`SnappyError::BadPreamble`], so the result is safe to allocate.
pub fn decompressed_len(input: &[u8]) -> Result<usize, SnappyError> {
    let (declared, used) = varint::read_u64(input).ok_or(SnappyError::BadPreamble)?;
    let body = (input.len() - used) as u64;
    if declared > body.div_ceil(3).saturating_mul(64) {
        return Err(SnappyError::BadPreamble);
    }
    Ok(declared as usize)
}

/// Decompress a buffer produced by [`compress`] (or any conforming encoder)
/// whose uncompressed length the caller knows to be `expected_len`. A
/// preamble declaring any other length is refused before anything is
/// allocated.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, SnappyError> {
    let (declared, mut pos) = varint::read_u64(input).ok_or(SnappyError::BadPreamble)?;
    if declared != expected_len as u64 {
        return Err(SnappyError::UnexpectedLength { declared, expected: expected_len });
    }
    let mut out = vec![0u8; expected_len];
    let mut op = 0usize;
    let overrun = |op: usize, len: usize| SnappyError::LengthMismatch {
        expected: expected_len,
        actual: op.saturating_add(len),
    };
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        let (offset, len) = match tag & 0b11 {
            0b00 => {
                let mut len = (tag >> 2) as usize + 1;
                if len > 60 {
                    let extra = len - 60; // 1..=4 bytes of length
                    let bytes = input.get(pos..pos + extra).ok_or(SnappyError::Truncated)?;
                    len = bytes.iter().rev().fold(0usize, |n, &b| (n << 8) | b as usize) + 1;
                    pos += extra;
                }
                if len > input.len() - pos {
                    return Err(SnappyError::Truncated);
                }
                if len > expected_len - op {
                    return Err(overrun(op, len));
                }
                if len <= 16 && input.len() - pos >= 16 && expected_len - op >= 16 {
                    // Short literal: one fixed-size move. The bytes past
                    // `len` are rewritten by the elements that follow.
                    out[op..op + 16].copy_from_slice(&input[pos..pos + 16]);
                } else {
                    out[op..op + len].copy_from_slice(&input[pos..pos + len]);
                }
                pos += len;
                op += len;
                continue;
            }
            0b01 => {
                let lo = *input.get(pos).ok_or(SnappyError::Truncated)? as usize;
                pos += 1;
                (((tag >> 5) as usize) << 8 | lo, 4 + ((tag >> 2) & 0x7) as usize)
            }
            #[expect(clippy::expect_used, reason = "`get(pos..pos + 2)` returned 2 bytes")]
            0b10 => {
                let bytes = input.get(pos..pos + 2).ok_or(SnappyError::Truncated)?;
                pos += 2;
                (u16::from_le_bytes(bytes.try_into().expect("2")) as usize, 1 + (tag >> 2) as usize)
            }
            #[expect(clippy::expect_used, reason = "`get(pos..pos + 4)` returned 4 bytes")]
            _ => {
                let bytes = input.get(pos..pos + 4).ok_or(SnappyError::Truncated)?;
                pos += 4;
                (u32::from_le_bytes(bytes.try_into().expect("4")) as usize, 1 + (tag >> 2) as usize)
            }
        };
        if offset == 0 || offset > op {
            return Err(SnappyError::BadCopyOffset);
        }
        if len > expected_len - op {
            return Err(overrun(op, len));
        }
        copy_back(&mut out, op, offset, len);
        op += len;
    }
    if op != expected_len {
        return Err(SnappyError::LengthMismatch { expected: expected_len, actual: op });
    }
    Ok(out)
}

/// Write `len` bytes at `op` copied from `offset` back (`0 < offset <= op`,
/// `op + len <= out.len()`). An overlapping copy (offset < len) repeats the
/// `offset`-byte pattern, RLE-style.
///
/// With 8 bytes of slack past the copy it moves whole 8-byte words: copies
/// from at least 8 back move word by word, and closer ones write the
/// pattern's first 8 bytes at steps of the largest multiple of the period
/// that fits a word. The bytes a last word writes past `len` are rewritten
/// by the elements that follow. Without the slack, each chunk copies
/// everything written so far from the pattern's start, so chunk sizes
/// double.
#[inline]
fn copy_back(out: &mut [u8], op: usize, offset: usize, len: usize) {
    let src = op - offset;
    if out.len() - op >= len + 8 {
        let (step, word) = if offset >= 8 {
            (8, None)
        } else {
            let mut pattern = [0u8; 8];
            for (i, b) in pattern.iter_mut().enumerate() {
                *b = out[src + i % offset];
            }
            (8 / offset * offset, Some(pattern))
        };
        let mut done = 0;
        while done < len {
            #[expect(clippy::expect_used, reason = "an 8-byte range converts to [u8; 8]")]
            let bytes =
                word.unwrap_or_else(|| out[src + done..src + done + 8].try_into().expect("8"));
            out[op + done..op + done + 8].copy_from_slice(&bytes);
            done += step;
        }
        return;
    }
    let mut done = 0;
    let mut chunk = offset;
    while done < len {
        let n = chunk.min(len - done);
        out.copy_within(src..src + n, op + done);
        done += n;
        chunk *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
        c
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abcd");
        roundtrip(b"abcdefg");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"the quick brown fox. ".repeat(500);
        let c = roundtrip(&data);
        assert!(
            c.len() < data.len() / 5,
            "expected >5x on repetitive data: {} -> {}",
            data.len(),
            c.len()
        );
    }

    #[test]
    fn run_length_overlapping_copy() {
        let data = vec![b'x'; 100_000];
        let c = roundtrip(&data);
        // Copies cap at 64 bytes (3-byte elements), so the format's floor on
        // pure RLE data is ~21x — same as the reference implementation.
        assert!(c.len() < data.len() / 20, "RLE-style data should collapse: {}", c.len());
    }

    #[test]
    fn incompressible_data_survives() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..100_000).map(|_| rng.gen()).collect();
        let c = roundtrip(&data);
        // Pure noise: at worst small expansion from literal headers.
        assert!(c.len() < data.len() + data.len() / 100 + 32);
    }

    #[test]
    fn json_like_payload() {
        let record = br#"{"id": 123456, "name": "user_name_here", "active": true, "score": 99.5}"#;
        let data: Vec<u8> = (0..2000).flat_map(|_| record.iter().copied()).collect();
        let c = roundtrip(&data);
        assert!(c.len() < data.len() / 4, "json should compress 4x+: {}", c.len());
    }

    #[test]
    fn multi_block_input() {
        // Cross the 64 KiB block boundary with mixed content.
        let mut data = Vec::new();
        for i in 0..30_000u32 {
            data.extend_from_slice(&i.to_le_bytes());
            if i % 3 == 0 {
                data.extend_from_slice(b"padding-padding");
            }
        }
        roundtrip(&data);
    }

    #[test]
    fn literal_length_boundaries() {
        // Exercise the 60/61/62 literal length encodings.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for len in [59usize, 60, 61, 255, 256, 257, 65_535, 65_536, 70_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert_eq!(decompress(&[], 0), Err(SnappyError::BadPreamble));
        // Declared length 100 but no body.
        assert_eq!(
            decompress(&[100], 100),
            Err(SnappyError::LengthMismatch { expected: 100, actual: 0 })
        );
        // Copy with offset 0 (before any output).
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        buf.push(0b01); // copy len=4 offset follows
        buf.push(0);
        assert_eq!(decompress(&buf, 4), Err(SnappyError::BadCopyOffset));
        // Truncated literal.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 10);
        buf.push(9 << 2); // literal of 10 bytes
        buf.extend_from_slice(b"only5");
        assert_eq!(decompress(&buf, 10), Err(SnappyError::Truncated));
        // A literal longer than the declared length stops at that element.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 3);
        buf.push(4 << 2);
        buf.extend_from_slice(b"12345");
        assert_eq!(
            decompress(&buf, 3),
            Err(SnappyError::LengthMismatch { expected: 3, actual: 5 })
        );
    }

    #[test]
    fn length_mismatch_detected() {
        let data = b"hello world hello world";
        let mut c = compress(data);
        // Corrupt the preamble to claim a different length.
        c[0] = c[0].wrapping_add(1);
        assert_eq!(
            decompress(&c, data.len()),
            Err(SnappyError::UnexpectedLength { declared: 24, expected: 23 })
        );
    }

    /// A 6-byte stream claiming 2⁴⁰ bytes is refused before any allocation
    /// sized by the claim, both against an expected length and on its own.
    #[test]
    fn lying_preamble_is_refused_before_allocating() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1 << 40);
        assert_eq!(buf.len(), 6);
        assert_eq!(
            decompress(&buf, 32 * 1024),
            Err(SnappyError::UnexpectedLength { declared: 1 << 40, expected: 32 * 1024 })
        );
        assert_eq!(decompressed_len(&buf), Err(SnappyError::BadPreamble));
        // An honest preamble passes, and the tightest body bound still holds:
        // three bytes of copy-2 element produce at most 64 bytes.
        let data = vec![7u8; 100_000];
        assert_eq!(decompressed_len(&compress(&data)), Ok(data.len()));
    }

    #[test]
    fn handcrafted_stream_with_all_copy_kinds() {
        // literal "abcdefgh", copy1(off=8,len=8), literal "Z",
        // copy2(off=17,len=17)
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 8 + 8 + 1 + 17);
        buf.push(7 << 2);
        buf.extend_from_slice(b"abcdefgh");
        buf.push(0b01 | ((8 - 4) << 2));
        buf.push(8);
        buf.push(0);
        buf.push(b'Z');
        buf.push(0b10 | ((17 - 1) << 2));
        buf.extend_from_slice(&17u16.to_le_bytes());
        let d = decompress(&buf, 34).unwrap();
        assert_eq!(&d, b"abcdefghabcdefghZabcdefghabcdefghZ");
    }

    /// A 32 KiB row-block page: seeded records of mixed text and numbers,
    /// zero-padded after the last record that fits `fill` bytes.
    fn padded_page(rng: &mut rand::rngs::StdRng, fill: usize) -> Vec<u8> {
        let mut page = Vec::with_capacity(32 * 1024);
        while page.len() < fill {
            let id: u32 = rng.gen_range(0..100_000);
            let temp: f64 = rng.gen_range(-40.0..60.0);
            let record = format!(r#"{{"id":{id},"sensor":"s-{}","temp":{temp:.2}}}"#, id % 97);
            page.extend_from_slice(record.as_bytes());
            page.extend_from_slice(&id.to_le_bytes());
        }
        page.truncate(fill);
        page.resize(32 * 1024, 0);
        page
    }

    /// The oracle's input families: tiny, random, low-alphabet, repeated
    /// substrings, long runs, padded pages, and inputs across 64 KiB blocks.
    fn oracle_inputs(seed: u64) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut inputs: Vec<Vec<u8>> = (0..=8).map(|n| (0..n as u8).collect()).collect();
        inputs.extend((0..=8).map(|n| vec![b'a'; n]));
        for _ in 0..6 {
            let len = rng.gen_range(0..5000);
            inputs.push((0..len).map(|_| rng.gen()).collect());
            let alphabet = rng.gen_range(1..5u8);
            inputs.push((0..len).map(|_| b'a' + rng.gen_range(0..alphabet)).collect());
            let word: Vec<u8> = (0..rng.gen_range(1..40)).map(|_| rng.gen()).collect();
            let mut repeated = Vec::new();
            while repeated.len() < len {
                repeated.extend_from_slice(&word[..rng.gen_range(1..=word.len())]);
                repeated.push(rng.gen());
            }
            inputs.push(repeated);
            let mut runs = Vec::new();
            while runs.len() < len {
                runs.extend(std::iter::repeat_n(rng.gen::<u8>(), rng.gen_range(1..300)));
            }
            inputs.push(runs);
            let fill = rng.gen_range(0..=32 * 1024);
            inputs.push(padded_page(&mut rng, fill));
        }
        for len in [65_535usize, 65_536, 65_537, 65_536 + 7, 131_072 + 3, 200 * 1024] {
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                let page = padded_page(&mut rng, 20_000);
                data.extend_from_slice(&page[..page.len().min(len - data.len())]);
                let noise = rng.gen_range(0..3000usize).min(len - data.len());
                data.extend((0..noise).map(|_| rng.gen::<u8>()));
            }
            inputs.push(data);
        }
        inputs
    }

    #[test]
    fn encoder_and_decoder_match_reference() {
        for seed in 0..4 {
            for data in oracle_inputs(seed) {
                let fast = compress(&data);
                let slow = reference::compress(&data);
                assert_eq!(fast, slow, "seed {seed}: encoders disagree on {} bytes", data.len());
                assert!(fast.len() <= max_compressed_len(data.len()));
                assert_eq!(decompress(&fast, data.len()), reference::decompress(&slow));
                assert_eq!(decompress(&fast, data.len()).unwrap(), data);
            }
        }
    }

    /// Overlapping copies with offsets 1–8, from every copy element kind, in
    /// streams the encoder itself would not emit. A 1-byte trailing literal
    /// leaves the copy no slack to write whole words past its end; a 16-byte
    /// one does.
    #[test]
    fn overlapping_copies_match_reference() {
        for (offset, tail) in (1..=8usize).flat_map(|o| [(o, 1usize), (o, 16)]) {
            for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 31, 33, 63, 64] {
                let total = offset + len + tail;
                let mut buf = Vec::new();
                varint::write_u64(&mut buf, total as u64);
                buf.push(((offset - 1) as u8) << 2);
                buf.extend((0..offset as u8).map(|i| b'A' + i));
                if (4..=11).contains(&len) {
                    buf.push(0b01 | (((len - 4) as u8) << 2));
                    buf.push(offset as u8);
                } else if len % 2 == 0 {
                    buf.push(0b10 | (((len - 1) as u8) << 2));
                    buf.extend_from_slice(&(offset as u16).to_le_bytes());
                } else {
                    buf.push(0b11 | (((len - 1) as u8) << 2));
                    buf.extend_from_slice(&(offset as u32).to_le_bytes());
                }
                buf.push(((tail - 1) as u8) << 2);
                buf.extend(std::iter::repeat_n(b'z', tail));
                let fast = decompress(&buf, total);
                let at = format!("offset {offset}, len {len}, tail {tail}");
                assert_eq!(fast, reference::decompress(&buf), "{at}");
                let out = fast.unwrap();
                let pattern = (0..offset + len).map(|i| b'A' + (i % offset) as u8);
                assert!(out[..offset + len].iter().copied().eq(pattern), "{at}");
            }
        }
    }

    /// CRC-32 of the compressed images of a fixed, seeded page set: catches
    /// any drift in the compressed bytes even without the reference encoder.
    #[test]
    fn golden_digest() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let mut state = !0;
        for i in 0..24 {
            let page = padded_page(&mut rng, 1365 * i);
            state = tc_util::crc::update(state, &compress(&page));
        }
        assert_eq!(state ^ !0, 806_036_156);
    }

    /// Truncated, bit-flipped and random streams decode to exactly the
    /// expected length or a typed error, never a panic. `TC_FAULT_SEED`
    /// reseeds the corruption so CI can loop it.
    #[test]
    fn decoder_never_panics() {
        let seed =
            std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0DEC);
        eprintln!("decoder_never_panics: TC_FAULT_SEED={seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let check = |stream: &[u8], expected: usize| {
            if let Ok(out) = decompress(stream, expected) {
                assert_eq!(out.len(), expected);
            }
            if let Ok(n) = decompressed_len(stream) {
                if let Ok(out) = decompress(stream, n) {
                    assert_eq!(out.len(), n);
                }
            }
        };
        for data in oracle_inputs(seed) {
            let c = compress(&data);
            for cut in [0, 1, c.len() / 2, c.len().saturating_sub(1)] {
                check(&c[..cut.min(c.len())], data.len());
            }
            for _ in 0..16 {
                let mut flipped = c.clone();
                let bit = rng.gen_range(0..flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(&flipped, data.len());
            }
            let noise: Vec<u8> = (0..rng.gen_range(0..200)).map(|_| rng.gen()).collect();
            check(&noise, data.len());
            check(&noise, rng.gen_range(0..4096));
        }
    }
}

/// The one-byte-at-a-time codec the fast loops replaced, kept verbatim as
/// the oracle: the encoder must produce exactly its bytes, and the decoder
/// its output on every valid stream.
#[cfg(test)]
mod reference {
    use super::SnappyError;
    use tc_util::varint;

    const BLOCK_SIZE: usize = 64 * 1024;
    const HASH_BITS: u32 = 14;
    const HASH_TABLE_SIZE: usize = 1 << HASH_BITS;
    const MIN_MATCH: usize = 4;

    #[inline]
    fn hash4(bytes: &[u8]) -> usize {
        let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        (v.wrapping_mul(0x1e35_a7bd) >> (32 - HASH_BITS)) as usize
    }

    /// Compress `input` into a fresh buffer.
    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 32);
        varint::write_u64(&mut out, input.len() as u64);
        for block_start in (0..input.len()).step_by(BLOCK_SIZE) {
            let block = &input[block_start..(block_start + BLOCK_SIZE).min(input.len())];
            compress_block(block, &mut out);
        }
        out
    }

    fn compress_block(block: &[u8], out: &mut Vec<u8>) {
        if block.len() < MIN_MATCH + 4 {
            emit_literal(block, out);
            return;
        }
        let mut table = [0u32; HASH_TABLE_SIZE];
        // `table` entries are candidate positions + 1 (0 = empty).
        let mut pos = 0usize;
        let mut literal_start = 0usize;
        // Leave room so the 4-byte hash reads never run off the end.
        let limit = block.len() - MIN_MATCH;
        while pos <= limit {
            let h = hash4(&block[pos..]);
            let candidate = table[h] as usize;
            table[h] = (pos + 1) as u32;
            if candidate > 0
                && block[candidate - 1..candidate - 1 + MIN_MATCH] == block[pos..pos + MIN_MATCH]
            {
                let cand = candidate - 1;
                // Extend the match forward.
                let mut len = MIN_MATCH;
                while pos + len < block.len() && block[cand + len] == block[pos + len] {
                    len += 1;
                }
                if literal_start < pos {
                    emit_literal(&block[literal_start..pos], out);
                }
                emit_copy(pos - cand, len, out);
                // Seed the table through the matched region (sparsely: every
                // other byte keeps compression close to reference quality at
                // half the table-update cost).
                let end = (pos + len).min(limit + 1);
                let mut p = pos + 1;
                while p < end {
                    table[hash4(&block[p..])] = (p + 1) as u32;
                    p += 2;
                }
                pos += len;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        if literal_start < block.len() {
            emit_literal(&block[literal_start..], out);
        }
    }

    fn emit_literal(lit: &[u8], out: &mut Vec<u8>) {
        if lit.is_empty() {
            return;
        }
        let n = lit.len() - 1;
        if n < 60 {
            out.push((n as u8) << 2);
        } else if n < 0x100 {
            out.push(60 << 2);
            out.push(n as u8);
        } else if n < 0x1_0000 {
            out.push(61 << 2);
            out.extend_from_slice(&(n as u16).to_le_bytes());
        } else if n < 0x100_0000 {
            out.push(62 << 2);
            out.extend_from_slice(&(n as u32).to_le_bytes()[..3]);
        } else {
            out.push(63 << 2);
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
        out.extend_from_slice(lit);
    }

    /// Emit a copy of `len` bytes from `offset` back, splitting lengths the way
    /// the format requires (copies of 1..=64 per element).
    fn emit_copy(offset: usize, mut len: usize, out: &mut Vec<u8>) {
        debug_assert!(offset > 0);
        // Long matches: emit 64-byte chunks with 2-byte offsets.
        while len >= 68 {
            emit_copy_upto64(offset, 64, out);
            len -= 64;
        }
        if len > 64 {
            // Leave at least 4 so the final copy is a valid length.
            emit_copy_upto64(offset, len - 60, out);
            len = 60;
        }
        emit_copy_upto64(offset, len, out);
    }

    fn emit_copy_upto64(offset: usize, len: usize, out: &mut Vec<u8>) {
        debug_assert!((1..=64).contains(&len));
        if (4..=11).contains(&len) && offset < 2048 {
            out.push(0b01 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
            out.push(offset as u8);
        } else if offset < 0x1_0000 {
            out.push(0b10 | (((len - 1) as u8) << 2));
            out.extend_from_slice(&(offset as u16).to_le_bytes());
        } else {
            out.push(0b11 | (((len - 1) as u8) << 2));
            out.extend_from_slice(&(offset as u32).to_le_bytes());
        }
    }

    /// Decompress a buffer produced by [`compress`] (or any conforming encoder).
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, SnappyError> {
        let (expected, mut pos) = varint::read_u64(input).ok_or(SnappyError::BadPreamble)?;
        let expected = expected as usize;
        let mut out = Vec::with_capacity(expected);
        while pos < input.len() {
            let tag = input[pos];
            pos += 1;
            match tag & 0b11 {
                0b00 => {
                    let code = (tag >> 2) as usize;
                    let len = if code < 60 {
                        code + 1
                    } else {
                        let extra = code - 59; // 1..=4 bytes of length
                        let bytes = input.get(pos..pos + extra).ok_or(SnappyError::Truncated)?;
                        let mut n = 0usize;
                        for (i, &b) in bytes.iter().enumerate() {
                            n |= (b as usize) << (8 * i);
                        }
                        pos += extra;
                        n + 1
                    };
                    let lit = input.get(pos..pos + len).ok_or(SnappyError::Truncated)?;
                    out.extend_from_slice(lit);
                    pos += len;
                }
                0b01 => {
                    let len = 4 + ((tag >> 2) & 0x7) as usize;
                    let hi = ((tag >> 5) as usize) << 8;
                    let lo = *input.get(pos).ok_or(SnappyError::Truncated)? as usize;
                    pos += 1;
                    copy_back(&mut out, hi | lo, len)?;
                }
                0b10 => {
                    let len = 1 + (tag >> 2) as usize;
                    let bytes = input.get(pos..pos + 2).ok_or(SnappyError::Truncated)?;
                    let offset = u16::from_le_bytes(bytes.try_into().expect("2")) as usize;
                    pos += 2;
                    copy_back(&mut out, offset, len)?;
                }
                _ => {
                    let len = 1 + (tag >> 2) as usize;
                    let bytes = input.get(pos..pos + 4).ok_or(SnappyError::Truncated)?;
                    let offset = u32::from_le_bytes(bytes.try_into().expect("4")) as usize;
                    pos += 4;
                    copy_back(&mut out, offset, len)?;
                }
            }
        }
        if out.len() != expected {
            return Err(SnappyError::LengthMismatch { expected, actual: out.len() });
        }
        Ok(out)
    }

    /// Append `len` bytes starting `offset` back from the end of `out`.
    /// Overlapping copies (offset < len) repeat the tail, RLE-style.
    fn copy_back(out: &mut Vec<u8>, offset: usize, len: usize) -> Result<(), SnappyError> {
        if offset == 0 || offset > out.len() {
            return Err(SnappyError::BadCopyOffset);
        }
        let start = out.len() - offset;
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
        Ok(())
    }
}
