//! Zone maps: a per-unit summary of a few columns, so a filtered scan can
//! leave a unit unread when its summary proves it holds no answer.
//!
//! A *unit* is what a component scan reads at once: a row block, or a row
//! group of a columnar body. The engine stays payload-blind. A row block's
//! zone comes from a [`ZoneExtractor`] the component's hook opens for the
//! build ([`crate::ComponentHook::zone_extractor`]), which sees every record
//! payload the builder packs. A row group's zone comes from the columnar
//! chunk ([`crate::ColumnarChunk::group_zone`]). Either way the engine only
//! stores zones, writes them into the component tail, and hands them to a
//! caller's [`ZoneFilter`]; what the values mean is the caller's business.
//!
//! Which units a scan may skip is decided over the whole snapshot, oldest
//! component first (see [`crate::iter::MergedScan`]): a unit is skipped iff
//! its zone fails the filter *and* its key interval meets no unit of an older
//! component that is read. A newer version that fails the filter must still
//! mask an older one that passes, and anti-matter must still delete.

use tc_util::varint;

/// A numeric bound, in the payload format's number order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    Int(i64),
    Double(f64),
}

/// What one unit holds at one zone column. Null and missing values are left
/// out: they satisfy no comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnZone {
    /// The producer could not summarize the column: anything may be there.
    Unknown,
    Known {
        /// Smallest and largest numeric value present, if any.
        range: Option<(Num, Num)>,
        /// The other type classes present, one bit per class code the
        /// producer and the filter agree on (numerics are the range).
        ranks: u32,
    },
}

/// A zone column: the field names that lead from the record root to the
/// values it summarizes.
pub type ZoneColumn = Vec<String>;

/// One unit's zone: one entry per zone column of its component.
pub type Zone = Box<[ColumnZone]>;

/// A scan's test of one unit: given the unit's zone columns and its zone,
/// `false` proves the unit holds no record the scan keeps.
pub type ZoneFilter<'a> = &'a dyn Fn(&[ZoneColumn], &[ColumnZone]) -> bool;

/// Builds the zones of one row-layout component, one block at a time.
pub trait ZoneExtractor: Send {
    /// The zone columns, in the order every zone lists them.
    fn columns(&self) -> &[ZoneColumn];

    /// Fold one record payload, as the component stores it, into the zone
    /// of the block under construction. A payload the extractor cannot read
    /// makes that zone [`ColumnZone::Unknown`], never an error.
    fn observe(&mut self, payload: &[u8]);

    /// The zone of the records observed since the last call; the next block
    /// starts empty.
    fn take(&mut self) -> Zone;
}

/// Append a zone's bytes to a component tail.
pub(crate) fn write_zone(out: &mut Vec<u8>, zone: &[ColumnZone]) {
    for col in zone {
        match col {
            ColumnZone::Unknown => out.push(0),
            ColumnZone::Known { range, ranks } => {
                out.push(1 + range.is_some() as u8);
                varint::write_u64(out, *ranks as u64);
                for n in range.iter().flat_map(|(lo, hi)| [lo, hi]) {
                    match n {
                        Num::Int(v) => {
                            out.push(0);
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                        Num::Double(v) => {
                            out.push(1);
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
        }
    }
}
