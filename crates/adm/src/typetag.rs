//! Byte-coded type tags.
//!
//! One tag byte identifies every value in both physical formats, in the
//! schema structure, and on the wire between query operators. AsterixDB
//! defines 27 value types (paper §3.2.1); we implement the 20 exercised by
//! the paper's datasets and queries and keep numeric headroom for the rest,
//! so union nodes size their child tables the same way.

use crate::error::AdmError;

/// Type tags for ADM values plus the two control tags used only inside the
/// vector-based format's tag stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TypeTag {
    // ---- scalars ----
    Missing = 0,
    Null = 1,
    Boolean = 2,
    Int8 = 3,
    Int16 = 4,
    Int32 = 5,
    Int64 = 6,
    Float = 7,
    Double = 8,
    String = 9,
    Binary = 10,
    Date = 11,
    Time = 12,
    DateTime = 13,
    Duration = 14,
    Uuid = 15,
    Point = 16,
    Line = 17,
    Rectangle = 18,
    Circle = 19,
    // ---- nested ----
    Object = 20,
    Array = 21,
    Multiset = 22,
    // ---- control (vector-based format tag stream only) ----
    /// Ends the current nesting level and returns to the parent.
    ///
    /// The paper re-uses the *parent's* type tag as this control (§3.3.1,
    /// Appendix B), which a decoder cannot distinguish from opening a new
    /// child container of that type; we use a dedicated code with the same
    /// 1-byte cost.
    CloseNested = 30,
    /// End of values — terminates the tag stream.
    Eov = 31,
}

/// Total number of distinct *value* types the system reserves room for.
/// AsterixDB has 27 (paper §3.2.1); union nodes allocate child slots by tag.
pub const NUM_VALUE_TYPES: usize = 27;

impl TypeTag {
    /// All value tags (no control tags), in code order.
    pub const VALUE_TAGS: [TypeTag; 23] = [
        TypeTag::Missing,
        TypeTag::Null,
        TypeTag::Boolean,
        TypeTag::Int8,
        TypeTag::Int16,
        TypeTag::Int32,
        TypeTag::Int64,
        TypeTag::Float,
        TypeTag::Double,
        TypeTag::String,
        TypeTag::Binary,
        TypeTag::Date,
        TypeTag::Time,
        TypeTag::DateTime,
        TypeTag::Duration,
        TypeTag::Uuid,
        TypeTag::Point,
        TypeTag::Line,
        TypeTag::Rectangle,
        TypeTag::Circle,
        TypeTag::Object,
        TypeTag::Array,
        TypeTag::Multiset,
    ];

    /// Decode a tag byte.
    pub fn from_u8(b: u8) -> Result<TypeTag, AdmError> {
        TypeTag::from_byte(b).ok_or_else(|| AdmError::corrupt(format!("unknown type tag byte {b}")))
    }

    /// The tag a byte codes, if any (`const`: readers build tables from it).
    pub const fn from_byte(b: u8) -> Option<TypeTag> {
        use TypeTag::*;
        Some(match b {
            0 => Missing,
            1 => Null,
            2 => Boolean,
            3 => Int8,
            4 => Int16,
            5 => Int32,
            6 => Int64,
            7 => Float,
            8 => Double,
            9 => String,
            10 => Binary,
            11 => Date,
            12 => Time,
            13 => DateTime,
            14 => Duration,
            15 => Uuid,
            16 => Point,
            17 => Line,
            18 => Rectangle,
            19 => Circle,
            20 => Object,
            21 => Array,
            22 => Multiset,
            30 => CloseNested,
            31 => Eov,
            _ => return None,
        })
    }

    /// Is this a container (object/array/multiset)?
    #[inline]
    pub const fn is_nested(self) -> bool {
        matches!(self, TypeTag::Object | TypeTag::Array | TypeTag::Multiset)
    }

    /// Is this an array or multiset?
    #[inline]
    pub fn is_collection(self) -> bool {
        matches!(self, TypeTag::Array | TypeTag::Multiset)
    }

    /// Is this a scalar value tag (neither nested nor control)?
    #[inline]
    pub fn is_scalar(self) -> bool {
        (self as u8) <= TypeTag::Circle as u8
    }

    /// Is this one of the control tags used only in the vector format?
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(self, TypeTag::CloseNested | TypeTag::Eov)
    }

    /// For fixed-length scalars, the number of payload bytes; `None` for
    /// variable-length (string/binary), nested, and control tags.
    /// Null and missing carry zero payload bytes.
    pub const fn fixed_len(self) -> Option<usize> {
        use TypeTag::*;
        Some(match self {
            Missing | Null => 0,
            Boolean | Int8 => 1,
            Int16 => 2,
            Int32 | Float | Date | Time => 4,
            Int64 | Double | DateTime | Duration => 8,
            Uuid | Point => 16,
            Line | Rectangle => 32,
            Circle => 24,
            String | Binary | Object | Array | Multiset | CloseNested | Eov => return None,
        })
    }

    /// Is this a variable-length scalar?
    #[inline]
    pub fn is_variable_scalar(self) -> bool {
        matches!(self, TypeTag::String | TypeTag::Binary)
    }

    /// Is this a numeric type (for cross-type comparison/promotion)?
    #[inline]
    pub fn is_numeric(self) -> bool {
        use TypeTag::*;
        matches!(self, Int8 | Int16 | Int32 | Int64 | Float | Double)
    }

    /// Human-readable name, matching ADM syntax where one exists.
    pub fn name(self) -> &'static str {
        use TypeTag::*;
        match self {
            Missing => "missing",
            Null => "null",
            Boolean => "boolean",
            Int8 => "tinyint",
            Int16 => "smallint",
            Int32 => "int",
            Int64 => "bigint",
            Float => "float",
            Double => "double",
            String => "string",
            Binary => "binary",
            Date => "date",
            Time => "time",
            DateTime => "datetime",
            Duration => "duration",
            Uuid => "uuid",
            Point => "point",
            Line => "line",
            Rectangle => "rectangle",
            Circle => "circle",
            Object => "object",
            Array => "array",
            Multiset => "multiset",
            CloseNested => "<close>",
            Eov => "<eov>",
        }
    }
}

impl std::fmt::Display for TypeTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_bytes_roundtrip() {
        for tag in TypeTag::VALUE_TAGS {
            assert_eq!(TypeTag::from_u8(tag as u8).unwrap(), tag);
        }
        assert_eq!(TypeTag::from_u8(30).unwrap(), TypeTag::CloseNested);
        assert_eq!(TypeTag::from_u8(31).unwrap(), TypeTag::Eov);
        assert!(TypeTag::from_u8(99).is_err());
        assert!(TypeTag::from_u8(23).is_err());
    }

    #[test]
    fn classification() {
        assert!(TypeTag::Object.is_nested());
        assert!(!TypeTag::Object.is_scalar());
        assert!(TypeTag::Array.is_collection());
        assert!(!TypeTag::Object.is_collection());
        assert!(TypeTag::String.is_variable_scalar());
        assert!(TypeTag::Int64.is_scalar());
        assert!(TypeTag::Eov.is_control());
        assert!(!TypeTag::Int64.is_control());
        assert!(TypeTag::Double.is_numeric());
        assert!(!TypeTag::String.is_numeric());
    }

    #[test]
    fn fixed_lengths_match_payloads() {
        assert_eq!(TypeTag::Boolean.fixed_len(), Some(1));
        assert_eq!(TypeTag::Int32.fixed_len(), Some(4));
        assert_eq!(TypeTag::Int64.fixed_len(), Some(8));
        assert_eq!(TypeTag::Double.fixed_len(), Some(8));
        assert_eq!(TypeTag::Point.fixed_len(), Some(16));
        assert_eq!(TypeTag::Null.fixed_len(), Some(0));
        assert_eq!(TypeTag::String.fixed_len(), None);
        assert_eq!(TypeTag::Object.fixed_len(), None);
    }
}
