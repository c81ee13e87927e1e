//! Field-name dictionary (paper Fig 10c).
//!
//! Children of different object nodes can share a field name (`name` appears
//! both at the record root and inside `dependents` items in the paper's
//! running example); the dictionary stores each distinct name once and the
//! schema tree's object edges carry `FieldNameID`s.

use tc_util::hash::FxHashMap;
use tc_util::varint;

/// Index into the dictionary. The compacted record format bit-packs these
/// (3 bits sufficed for the paper's Fig 14 example).
pub type FieldNameId = u32;

/// String ↔ id bijection, insertion-ordered so ids are stable.
#[derive(Debug, Default, Clone)]
pub struct FieldNameDictionary {
    names: Vec<String>,
    index: FxHashMap<String, FieldNameId>,
}

impl FieldNameDictionary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a name, returning its (possibly new) id.
    pub fn get_or_insert(&mut self, name: &str) -> FieldNameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as FieldNameId;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up an existing name.
    pub fn find(&self, name: &str) -> Option<FieldNameId> {
        self.index.get(name).copied()
    }

    /// Resolve an id back to its name.
    pub fn name(&self, id: FieldNameId) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Does `other` give every id of this dictionary the name it has here?
    /// Ids are never reassigned, so an older state of one growing dictionary
    /// is a prefix of every later one — and a record compacted against it
    /// reads the same under them.
    pub fn is_prefix_of(&self, other: &FieldNameDictionary) -> bool {
        other.names.starts_with(&self.names)
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Bits needed to represent any current id (≥1).
    pub fn id_bits(&self) -> u8 {
        tc_util::bit_width(self.names.len().saturating_sub(1) as u64)
    }

    pub fn serialize(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.names.len() as u64);
        for name in &self.names {
            varint::write_u64(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
    }

    pub fn deserialize(buf: &[u8]) -> Option<(Self, usize)> {
        let (count, mut pos) = varint::read_u64(buf)?;
        let mut dict = FieldNameDictionary::new();
        for _ in 0..count {
            let (len, n) = varint::read_u64(&buf[pos..])?;
            pos += n;
            let bytes = buf.get(pos..pos + len as usize)?;
            let name = std::str::from_utf8(bytes).ok()?;
            dict.get_or_insert(name);
            pos += len as usize;
        }
        Some((dict, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut d = FieldNameDictionary::new();
        let a = d.get_or_insert("name");
        let b = d.get_or_insert("dependents");
        let a2 = d.get_or_insert("name");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.name(a), Some("name"));
        assert_eq!(d.find("dependents"), Some(b));
        assert_eq!(d.find("nope"), None);
    }

    #[test]
    fn an_older_state_is_a_prefix_of_a_later_one() {
        let mut d = FieldNameDictionary::new();
        d.get_or_insert("name");
        let older = d.clone();
        d.get_or_insert("age");
        assert!(older.is_prefix_of(&d) && d.is_prefix_of(&d));
        assert!(!d.is_prefix_of(&older), "the later one knows an id the older lacks");
        let mut other = FieldNameDictionary::new();
        other.get_or_insert("age");
        assert!(!older.is_prefix_of(&other), "same size, id 0 names another field");
        assert!(FieldNameDictionary::new().is_prefix_of(&other));
    }

    #[test]
    fn id_bits_grows_with_size() {
        let mut d = FieldNameDictionary::new();
        assert_eq!(d.id_bits(), 1);
        d.get_or_insert("a");
        assert_eq!(d.id_bits(), 1); // max id 0
        d.get_or_insert("b");
        assert_eq!(d.id_bits(), 1); // max id 1
        d.get_or_insert("c");
        assert_eq!(d.id_bits(), 2); // max id 2
        for i in 0..10 {
            d.get_or_insert(&format!("f{i}"));
        }
        assert_eq!(d.id_bits(), 4); // max id 12
    }

    #[test]
    fn serialize_roundtrip() {
        let mut d = FieldNameDictionary::new();
        for n in ["name", "dependents", "age", "employment_date", "héllo"] {
            d.get_or_insert(n);
        }
        let mut buf = Vec::new();
        d.serialize(&mut buf);
        let (back, consumed) = FieldNameDictionary::deserialize(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(back.len(), d.len());
        for n in ["name", "dependents", "age", "employment_date", "héllo"] {
            assert_eq!(back.find(n), d.find(n));
        }
    }

    #[test]
    fn deserialize_rejects_truncation() {
        let mut d = FieldNameDictionary::new();
        d.get_or_insert("field");
        let mut buf = Vec::new();
        d.serialize(&mut buf);
        assert!(FieldNameDictionary::deserialize(&buf[..buf.len() - 1]).is_none());
    }
}
