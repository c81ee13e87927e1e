//! Look-Aside Files (LAFs).
//!
//! Page-level compression produces pages of arbitrary size, but the storage
//! engine's layout is fixed-size pages (paper §2.4). The LAF stores one
//! 12-byte `(offset: u64, length: u32)` entry per data page; to read page
//! *i* the engine first consults entry *i*, then reads `length` bytes at
//! `offset` from the data file (Fig 6). A 128 KB LAF page holds 10,922
//! entries, so LAFs stay small and cacheable.
//!
//! The table lives in memory with its store; only its page count is
//! accounted on disk ([`Laf::page_count`]).

/// One LAF entry: where a compressed page lives and how long it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LafEntry {
    pub offset: u64,
    pub length: u32,
}

/// Size of one entry on disk, matching the paper's implementation.
pub const LAF_ENTRY_BYTES: usize = 12;

/// The in-memory LAF for one data file.
#[derive(Debug, Default)]
pub struct Laf {
    entries: Vec<LafEntry>,
}

impl Laf {
    pub fn new() -> Self {
        Laf::default()
    }

    pub fn push(&mut self, entry: LafEntry) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    pub fn get(&self, page: usize) -> Option<LafEntry> {
        self.entries.get(page).copied()
    }

    /// Number of LAF *pages* of `page_size` needed to hold the entries —
    /// this is the on-disk footprint the storage accounting includes.
    pub fn page_count(&self, page_size: usize) -> usize {
        let per_page = page_size / LAF_ENTRY_BYTES;
        self.entries.len().div_ceil(per_page.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_entry_density() {
        // "a 128KB LAF page can store up to 10,922 entries" (§2.4).
        assert_eq!(128 * 1024 / LAF_ENTRY_BYTES, 10_922);
    }

    #[test]
    fn page_count_rounds_up() {
        let mut laf = Laf::new();
        let page_size = 120; // 10 entries per page
        for i in 0..25 {
            laf.push(LafEntry { offset: i as u64 * 100, length: 100 });
        }
        assert_eq!(laf.page_count(page_size), 3);
        assert_eq!(laf.page_count(12 * 25), 1, "25 entries fill one page exactly");
    }

    #[test]
    fn lookup_out_of_range() {
        let mut laf = Laf::new();
        assert_eq!(laf.get(0), None);
        let entry = LafEntry { offset: 512, length: 100 };
        assert_eq!(laf.push(entry), 0);
        assert_eq!((laf.get(0), laf.get(1)), (Some(entry), None));
    }
}
