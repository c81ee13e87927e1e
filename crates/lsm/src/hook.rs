//! Flush/merge hooks — the extension point the tuple compactor plugs into.
//!
//! The paper frames the compactor as "piggybacking" on LSM lifecycle events
//! (§1, §5): flushes transform records and produce a metadata blob (the
//! inferred schema); merges pick a metadata blob from their inputs (the most
//! recent one — §3.1). The LSM engine itself stays format-agnostic.

use tc_storage::StorageError;

use crate::zone::ZoneExtractor;

/// Observer/transformer of component lifecycle events. One hook instance is
/// shared by all operations of one LSM tree (one dataset partition).
pub trait ComponentHook: Send + Sync {
    /// Called when a flush attempt starts, before any entry is processed.
    /// A stateful hook (the tuple compactor mutates its in-memory schema
    /// while processing records) snapshots the state it may need to restore
    /// if the flush fails on a storage fault or a record it refuses.
    fn begin_flush(&self) {}

    /// Called when a flush attempt fails after `begin_flush`. The hook must
    /// restore the state snapshotted there, so a retried flush re-processes
    /// the same frozen entries against the same starting schema instead of
    /// double-evolving it.
    fn abort_flush(&self) {}

    /// Transform a record payload as it is flushed from the in-memory
    /// component to disk, appending the result to `out`. The tuple
    /// compactor infers schema and compacts here; the default is identity.
    ///
    /// `out` is one buffer for the whole flush: append to it, never read or
    /// rewrite what earlier records put there. A record the hook cannot
    /// transform (a malformed frozen payload) is an `Err`, not a panic: the
    /// flush then aborts through [`abort_flush`](Self::abort_flush), counts
    /// a maintenance error and keeps the frozen memtable readable, exactly
    /// as on a storage fault.
    fn on_flush_record(&self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), StorageError> {
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Process an anti-matter entry's attachment (the anti-schema) during
    /// flush. The attachment is discarded afterwards — anti-matter reaches
    /// disk as a bare key (§3.2.2). An attachment the hook cannot read is
    /// an `Err` that fails the flush exactly as in
    /// [`on_flush_record`](Self::on_flush_record).
    fn on_flush_antimatter(&self, _attachment: Option<&[u8]>) -> Result<(), StorageError> {
        Ok(())
    }

    /// Called once per flush after all entries are processed and before the
    /// new component's first page is written (a columnar component takes its
    /// column set from it); the returned blob is persisted in the component's
    /// metadata page (the schema snapshot, §3.1).
    fn flush_metadata(&self) -> Option<Vec<u8>> {
        None
    }

    /// Choose the metadata blob for a merged component. `inputs` are the
    /// merged components' blobs ordered oldest → newest. The paper's rule:
    /// keep the newest (it is a superset of the rest), with no access to the
    /// in-memory schema so merges and flushes never synchronize.
    fn merge_metadata(&self, inputs: &[Option<&[u8]>]) -> Option<Vec<u8>> {
        inputs.iter().rev().find_map(|m| m.map(<[u8]>::to_vec))
    }

    /// Open the zone extractor of one row-layout component build — flush,
    /// merge or bulk load — whose metadata blob is `metadata`, the way a
    /// columnar codec opens its writer. It sees every record payload the
    /// builder packs. `None` (the default): the component's blocks carry no
    /// zones, and no scan skips them.
    fn zone_extractor(&self, _metadata: Option<&[u8]>) -> Option<Box<dyn ZoneExtractor>> {
        None
    }
}

/// The no-op hook used by open/closed (non-inferred) datasets.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl ComponentHook for NoopHook {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_hook_is_identity() {
        let h = NoopHook;
        let mut out = b"x".to_vec();
        h.on_flush_record(b"abc", &mut out).unwrap();
        assert_eq!(out, b"xabc");
        assert_eq!(h.flush_metadata(), None);
    }

    #[test]
    fn merge_metadata_picks_newest_present() {
        let h = NoopHook;
        let a = b"old".to_vec();
        let b = b"new".to_vec();
        assert_eq!(h.merge_metadata(&[Some(&a), Some(&b)]), Some(b"new".to_vec()));
        assert_eq!(h.merge_metadata(&[Some(&a), None]), Some(b"old".to_vec()));
        assert_eq!(h.merge_metadata(&[None, None]), None);
    }
}
