//! The 25-byte record header (paper Fig 12).
//!
//! ```text
//! bytes 0..4   record length (u32)
//! bytes 4..8   number of type tags (u32)
//! byte  8      two packed 4-bit length bit-widths:
//!              low nibble  = variable-length-value lengths
//!              high nibble = field-name lengths / IDs
//!              (nibble 0 is an escape meaning 32 bits)
//! bytes 9..25  four u32 section offsets:
//!              [0] varlen lengths  [1] varlen values
//!              [2] fieldname lengths/IDs  [3] fieldname values
//!              (offset [3] == 0 ⇔ record is compacted — §3.3.2)
//! ```
//!
//! The tag stream starts right after the header; fixed-length values start
//! at `25 + tag_count` (each tag is one byte), so neither needs an offset.

use tc_adm::AdmError;
use tc_util::bit_width;

use crate::reader::le;

/// Size of the serialized header.
pub const HEADER_LEN: usize = 25;

/// Parsed header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub record_len: u32,
    pub tag_count: u32,
    /// Bit width of each variable-length-value length entry.
    pub varlen_bits: u8,
    /// Bit width of each field-name length/ID entry (includes the
    /// declared-field flag bit).
    pub fieldname_bits: u8,
    /// Section offsets, absolute from the start of the record.
    pub varlen_lengths_off: u32,
    pub varlen_values_off: u32,
    pub fieldname_lengths_off: u32,
    /// Zero when the record is compacted (names stripped to IDs).
    pub fieldname_values_off: u32,
}

/// Pack a width into its nibble (0 escapes to 32).
fn nibble_of(width: u8) -> u8 {
    match width {
        1..=15 => width,
        _ => 0,
    }
}

fn width_of(nibble: u8) -> u8 {
    if nibble == 0 {
        32
    } else {
        nibble
    }
}

/// Entry width for a bit-packed section whose largest entry is `max_value`,
/// counting the declared-flag bit when `flagged` (field-name entries carry
/// it on top of their payload). A width the nibble cannot say escapes to 32,
/// flag bit included, so a flagged entry has 31 payload bits — enough for
/// any name a `u32`-length record holds and any dictionary id.
pub(crate) fn entry_bits(max_value: u64, flagged: bool) -> u8 {
    let w = bit_width(max_value) + flagged as u8;
    if w > 15 {
        debug_assert!(w <= 32, "entry of {w} bits");
        32
    } else {
        w
    }
}

impl Header {
    /// Where the tag stream starts.
    pub fn tags_off(&self) -> usize {
        HEADER_LEN
    }

    /// Where fixed-length values start.
    pub fn fixed_off(&self) -> usize {
        HEADER_LEN + self.tag_count as usize
    }

    /// Is this record compacted (field names stripped into the schema)?
    pub fn is_compacted(&self) -> bool {
        self.fieldname_values_off == 0
    }

    /// End of the field-name lengths/IDs section.
    pub fn fieldname_lengths_end(&self) -> usize {
        if self.is_compacted() {
            self.record_len as usize
        } else {
            self.fieldname_values_off as usize
        }
    }

    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.record_len.to_le_bytes());
        out.extend_from_slice(&self.tag_count.to_le_bytes());
        out.push(nibble_of(self.varlen_bits) | (nibble_of(self.fieldname_bits) << 4));
        for off in [
            self.varlen_lengths_off,
            self.varlen_values_off,
            self.fieldname_lengths_off,
            self.fieldname_values_off,
        ] {
            out.extend_from_slice(&off.to_le_bytes());
        }
    }

    pub fn read(buf: &[u8]) -> Result<Header, AdmError> {
        if buf.len() < HEADER_LEN {
            return Err(AdmError::corrupt("record shorter than header"));
        }
        let u32_at = |i: usize| le::<4>(&buf[i..]).map(u32::from_le_bytes);
        let h = Header {
            record_len: u32_at(0)?,
            tag_count: u32_at(4)?,
            varlen_bits: width_of(buf[8] & 0x0f),
            fieldname_bits: width_of(buf[8] >> 4),
            varlen_lengths_off: u32_at(9)?,
            varlen_values_off: u32_at(13)?,
            fieldname_lengths_off: u32_at(17)?,
            fieldname_values_off: u32_at(21)?,
        };
        if (h.record_len as usize) > buf.len() {
            return Err(AdmError::corrupt(format!(
                "record length {} exceeds buffer {}",
                h.record_len,
                buf.len()
            )));
        }
        // Sections lie in order: a reader slices between consecutive offsets.
        let bounds = [
            h.fixed_off(),
            h.varlen_lengths_off as usize,
            h.varlen_values_off as usize,
            h.fieldname_lengths_off as usize,
            h.fieldname_lengths_end(),
            h.record_len as usize,
        ];
        if bounds.windows(2).any(|w| w[0] > w[1]) {
            return Err(AdmError::corrupt("section offsets out of order or beyond record end"));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Header {
        Header {
            record_len: 73,
            tag_count: 9,
            varlen_bits: 3,
            fieldname_bits: 5,
            varlen_lengths_off: 50,
            varlen_values_off: 51,
            fieldname_lengths_off: 54,
            fieldname_values_off: 57,
        }
    }

    #[test]
    fn header_is_25_bytes_and_roundtrips() {
        let h = sample();
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        buf.resize(73, 0);
        assert_eq!(Header::read(&buf).unwrap(), h);
    }

    #[test]
    fn paper_fig13_geometry() {
        // Fig 13: 73-byte record, 9 tags, widths 3 and 5, offsets 50/51/54/57.
        let h = sample();
        assert_eq!(h.tags_off(), 25);
        assert_eq!(h.fixed_off(), 34); // 25 + 9 tags
        assert!(!h.is_compacted());
    }

    #[test]
    fn compaction_flag_via_fourth_offset() {
        let mut h = sample();
        h.fieldname_values_off = 0;
        assert!(h.is_compacted());
        assert_eq!(h.fieldname_lengths_end(), 73);
    }

    #[test]
    fn wide_widths_escape_to_32() {
        let mut h = sample();
        h.varlen_bits = 20; // can't fit a nibble → stored as escape
        let mut buf = Vec::new();
        h.write(&mut buf);
        buf.resize(73, 0);
        let back = Header::read(&buf).unwrap();
        assert_eq!(back.varlen_bits, 32);
        assert_eq!(back.fieldname_bits, 5);
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(Header::read(&[0u8; 10]).is_err());
        let h = sample();
        let mut buf = Vec::new();
        h.write(&mut buf);
        // record_len says 73 but buffer is only 25.
        assert!(Header::read(&buf).is_err());
        // Offset beyond record end.
        let mut h2 = sample();
        h2.varlen_values_off = 1000;
        let mut buf2 = Vec::new();
        h2.write(&mut buf2);
        buf2.resize(73, 0);
        assert!(Header::read(&buf2).is_err());
    }
}
