//! Utility kit shared by every crate in the workspace.
//!
//! Nothing here is specific to the tuple-compaction framework; these are the
//! low-level building blocks every storage engine needs:
//!
//! * [`varint`] — LEB128 unsigned varints and zigzag-coded signed varints,
//!   used by the wire-format comparators and component metadata.
//! * [`bits`] — bit-granular writer/reader used by the vector-based record
//!   format's bit-packed length and field-name-ID vectors.
//! * [`hash`] — an Fx-style 64-bit hasher (fast, non-cryptographic) used for
//!   hash partitioning and bloom filters.
//! * [`sync`] — rank-ordered lock wrappers and the one declared lock order
//!   ([`sync::ranks`]), asserted at runtime in debug builds.
//! * [`crc`] — CRC-32 checksums backing the end-to-end integrity footers on
//!   WAL records and component pages.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod bits;
pub mod crc;
pub mod hash;
pub mod sync;
pub mod varint;

/// Number of bits required to represent `v` (at least 1, so that zero-valued
/// entries still occupy a slot in bit-packed vectors).
#[inline]
pub fn bit_width(v: u64) -> u8 {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros()) as u8
    }
}

/// Number of whole bytes needed to hold `bits` bits.
#[inline]
pub fn bytes_for_bits(bits: usize) -> usize {
    bits.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_width_basics() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(3), 2);
        assert_eq!(bit_width(4), 3);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u64::MAX), 64);
    }

    #[test]
    fn bytes_for_bits_rounds_up() {
        assert_eq!(bytes_for_bits(0), 0);
        assert_eq!(bytes_for_bits(1), 1);
        assert_eq!(bytes_for_bits(8), 1);
        assert_eq!(bytes_for_bits(9), 2);
        assert_eq!(bytes_for_bits(20), 3);
    }
}
