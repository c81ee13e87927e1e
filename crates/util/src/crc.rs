//! CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) checksums.
//!
//! This is the integrity primitive behind every durable byte in the engine:
//! WAL records, component data pages, and component tail pages all carry a
//! CRC-32C footer that is recomputed and verified on read, so a
//! flipped bit on the simulated device is *detected* (and surfaced as a
//! typed `StorageError::Corruption`) instead of being decoded into garbage
//! rows.
//!
//! Checksums sit on the hot path of every flush, merge, WAL append, and
//! page fault-in, so throughput is what lets the engine afford them
//! always-on (the ingest bench gates the zero-fault overhead at 5%): on
//! x86-64 the SSE 4.2 `crc32` instruction folds 8 bytes per step at
//! multiple GB/s; elsewhere a slicing-by-8 table kernel still runs around
//! 1 GB/s. Castagnoli rather than the zip/IEEE polynomial precisely so the
//! hardware instruction computes the same function as the tables.

const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k]` advances a byte through `k` additional zero bytes, letting
/// the software kernel fold 8 input bytes per step.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Apply a 32×32 GF(2) operator matrix (stored as columns) to a state vector.
#[cfg(target_arch = "x86_64")]
const fn gf2_times(m: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= m[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Matrix square: `out = m·m` (operator composed with itself).
#[cfg(target_arch = "x86_64")]
const fn gf2_square(m: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        out[i] = gf2_times(m, m[i]);
        i += 1;
    }
    out
}

/// Operator that advances a raw CRC state through `2^log2_bytes` zero bytes,
/// converted to four byte-indexed tables (`T[k][b]` = operator applied to
/// `b << 8k`). Used to combine independently computed stream CRCs in the
/// interleaved hardware kernel.
#[cfg(target_arch = "x86_64")]
const fn zero_shift_tables(log2_bytes: u32) -> [[u32; 256]; 4] {
    // Operator for one zero *bit* of the reflected CRC: s' = (s >> 1),
    // xor POLY if the dropped bit was set.
    let mut op = [0u32; 32];
    op[0] = POLY;
    let mut i = 1;
    while i < 32 {
        op[i] = 1u32 << (i - 1);
        i += 1;
    }
    // Square 3 times for one zero byte, then `log2_bytes` more times for
    // the power-of-two byte count.
    let mut s = 0;
    while s < 3 + log2_bytes {
        op = gf2_square(&op);
        s += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            tables[k][b] = gf2_times(&op, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Stream-block sizes for the 3-way interleaved hardware kernel. Powers of
/// two so the zero-shift operators come from repeated squaring alone.
#[cfg(target_arch = "x86_64")]
const LONG: usize = 8192;
#[cfg(target_arch = "x86_64")]
const SHORT: usize = 256;
#[cfg(target_arch = "x86_64")]
static LONG_SHIFT: [[u32; 256]; 4] = zero_shift_tables(13);
#[cfg(target_arch = "x86_64")]
static SHORT_SHIFT: [[u32; 256]; 4] = zero_shift_tables(8);

/// Advance a raw CRC state through LONG or SHORT zero bytes.
#[cfg(target_arch = "x86_64")]
#[inline]
fn shift(tables: &[[u32; 256]; 4], s: u32) -> u32 {
    tables[0][(s & 0xff) as usize]
        ^ tables[1][((s >> 8) & 0xff) as usize]
        ^ tables[2][((s >> 16) & 0xff) as usize]
        ^ tables[3][(s >> 24) as usize]
}

/// CRC-32C of `bytes` (init `!0`, final xor `!0`, reflected).
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    update(!0u32, bytes) ^ !0u32
}

/// Feed more bytes into a running (pre-finalization) CRC state. Start from
/// `!0` and xor with `!0` when done; [`crc32`] does both for one-shot use.
#[inline]
pub fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { update_hw(state, bytes) };
        }
    }
    update_sw(state, bytes)
}

/// Hardware kernel: the SSE 4.2 `crc32` instruction implements exactly the
/// reflected CRC-32C state update, 8 bytes per step. A single stream is
/// latency-bound (the instruction has ~3-cycle latency at 1/cycle
/// throughput), so large buffers are split into three independent streams
/// whose chains interleave in the pipeline, then recombined with the
/// zero-shift operators above — roughly 3× the single-stream rate on pages.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    #[inline]
    fn word(block: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(block[i..i + 8].try_into().expect("8-byte word"))
    }

    let mut rest = bytes;
    let mut s = u64::from(state);
    for (block, tables) in [(LONG, &LONG_SHIFT), (SHORT, &SHORT_SHIFT)] {
        while rest.len() >= 3 * block {
            let (a, r) = rest.split_at(block);
            let (b, r) = r.split_at(block);
            let (c, r) = r.split_at(block);
            let (mut s1, mut s2) = (0u64, 0u64);
            let mut i = 0;
            while i < block {
                s = _mm_crc32_u64(s, word(a, i));
                s1 = _mm_crc32_u64(s1, word(b, i));
                s2 = _mm_crc32_u64(s2, word(c, i));
                i += 8;
            }
            s = u64::from(shift(tables, s as u32)) ^ s1;
            s = u64::from(shift(tables, s as u32)) ^ s2;
            rest = r;
        }
    }
    let mut chunks = rest.chunks_exact(8);
    for c in chunks.by_ref() {
        s = _mm_crc32_u64(s, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut state = s as u32;
    for &b in chunks.remainder() {
        state = _mm_crc32_u8(state, b);
    }
    state
}

/// Portable kernel: slicing-by-8, folding two 32-bit words per step.
fn update_sw(mut state: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = state ^ u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(c[4..8].try_into().expect("4 bytes"));
        state = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xff) as usize];
    }
    state
}

/// Append `crc32(bytes)` to `out` as 4 little-endian bytes.
#[inline]
pub fn append_crc32(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&crc32(bytes).to_le_bytes());
}

/// Split `buf` into `(body, stored_crc)` where the last 4 bytes are a
/// little-endian CRC-32 footer. Returns `None` if `buf` is shorter than the
/// footer itself.
#[inline]
pub fn split_crc32(buf: &[u8]) -> Option<(&[u8], u32)> {
    if buf.len() < 4 {
        return None;
    }
    let (body, tail) = buf.split_at(buf.len() - 4);
    Some((body, u32::from_le_bytes(tail.try_into().ok()?)))
}

/// Verify a buffer laid out as `body || crc32(body) LE`. Returns the body on
/// success, `None` on length or checksum mismatch.
#[inline]
pub fn verify_crc32(buf: &[u8]) -> Option<&[u8]> {
    let (body, stored) = split_crc32(buf)?;
    if crc32(body) == stored {
        Some(body)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32C (Castagnoli).
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xC1D0_4330);
    }

    #[test]
    fn kernels_agree_at_every_length_and_alignment() {
        // Lengths straddle every kernel regime: the serial tail, the 3-way
        // SHORT loop (>= 768), the 3-way LONG loop (>= 24576), and the
        // boundaries where a combine step kicks in or falls away.
        let data: Vec<u8> =
            (0..40_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [
            0usize, 1, 3, 7, 8, 9, 15, 16, 63, 64, 65, 511, 767, 768, 769, 1021, 24_575, 24_576,
            24_577, 32_768, 32_772, 40_000,
        ] {
            let sw = update_sw(!0u32, &data[..len]) ^ !0u32;
            assert_eq!(crc32(&data[..len]), sw, "len={len}");
        }
        // Incremental resumption across a 3-way block boundary.
        let mid = update(!0u32, &data[..10_000]);
        assert_eq!(update(mid, &data[10_000..]) ^ !0u32, crc32(&data));
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let state = update(!0u32, &data[..split]);
            let state = update(state, &data[split..]);
            assert_eq!(state ^ !0u32, crc32(data), "split={split}");
        }
    }

    #[test]
    fn footer_roundtrip_and_detection() {
        let mut buf = b"payload bytes".to_vec();
        let body_len = buf.len();
        let body = buf.clone();
        append_crc32(&mut buf, &body);
        assert_eq!(buf.len(), body_len + 4);
        assert_eq!(verify_crc32(&buf), Some(&b"payload bytes"[..]));

        // Any single flipped bit — in the body or the footer — is caught.
        for bit in 0..buf.len() * 8 {
            let mut corrupt = buf.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(verify_crc32(&corrupt), None, "bit={bit}");
        }
        assert_eq!(verify_crc32(b"abc"), None, "shorter than the footer");
    }
}
