//! Flush hooks — the extension point the tuple compactor plugs into.
//!
//! The paper frames the compactor as "piggybacking" on LSM lifecycle events
//! (§1, §5): a flush transforms records and produces a metadata blob (the
//! inferred schema), which the component's metadata page persists (§3.1).
//! Each flush or bulk-load attempt runs one [`FlushPass`]: the hook opens it
//! over a private copy of whatever state it evolves, the tree runs every
//! entry through it and takes the component's blob from it, and commits it
//! in the same `state` write section that installs the component. A failed
//! or panicking attempt drops the pass, so nothing it did is ever visible. A
//! merge keeps its newest input's blob — the tree's own rule — and never
//! consults the hook's state, so flushes and merges never synchronize. The
//! LSM engine itself stays format-agnostic.

use tc_storage::StorageError;

use crate::zone::ZoneExtractor;

/// Source of the flush passes and zone extractors of one LSM tree (one
/// dataset partition); one hook instance serves all of the tree's builds.
pub trait ComponentHook: Send + Sync {
    /// Open the pass of one flush or bulk-load attempt. The default is the
    /// identity pass: records reach disk as they are, with no metadata blob.
    fn begin_flush(&self) -> Box<dyn FlushPass + '_> {
        Box::new(NoopHook)
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

/// One flush or bulk-load attempt's view of the hook's state. The tree feeds
/// it the displaced anti-schemas, then every entry in key order, then takes
/// [`metadata`](Self::metadata) once, before the component's first page is
/// written (a columnar component takes its column set from it). Only
/// [`commit`](Self::commit) makes the pass's edits visible, and the tree
/// calls it only in the write section that installs the component.
pub trait FlushPass {
    /// Transform a record payload as it is flushed from the in-memory
    /// component to disk, appending the result to `out`. The tuple
    /// compactor infers schema and compacts here; the default is identity.
    ///
    /// `out` is one buffer for the whole flush: append to it, never read or
    /// rewrite what earlier records put there. A record the pass cannot
    /// transform (a malformed frozen payload) is an `Err`, not a panic: the
    /// attempt then drops the pass, counts a maintenance error and keeps the
    /// frozen memtable readable, exactly as on a storage fault.
    fn on_record(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), StorageError> {
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Process an anti-matter entry's attachment (the anti-schema). The
    /// tuple compactor attaches the retired version's payload as a lookup
    /// returned it: transformed by an earlier flush's `on_record` if it was
    /// on disk, as written if it was in memory. The attachment is
    /// discarded afterwards — anti-matter reaches disk as a
    /// bare key (§3.2.2). An attachment the pass cannot read is an `Err`
    /// that fails the attempt exactly as in [`on_record`](Self::on_record).
    fn on_antimatter(&mut self, _attachment: Option<&[u8]>) -> Result<(), StorageError> {
        Ok(())
    }

    /// The new component's metadata blob (the schema snapshot, §3.1),
    /// taken once after the last entry. A pass prepares here whatever its
    /// commit needs, so the commit is only a swap.
    fn metadata(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Publish the pass's edits. Runs under the tree's `state` write lock,
    /// so it must not block.
    fn commit(self: Box<Self>) {}
}

/// The no-op hook used by open/closed (non-inferred) datasets; it is also
/// the identity pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl ComponentHook for NoopHook {}

impl FlushPass for NoopHook {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::encode_u64_key;
    use crate::{LsmOptions, LsmTree, MergePolicy};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tc_storage::device::{Device, DeviceProfile};
    use tc_storage::BufferCache;

    #[test]
    fn noop_hook_is_identity() {
        let mut pass = NoopHook.begin_flush();
        let mut out = b"x".to_vec();
        pass.on_record(b"abc", &mut out).unwrap();
        assert_eq!(out, b"xabc");
        assert_eq!(pass.metadata(), None);
    }

    /// Hands each flush pass the next scripted blob and counts the passes
    /// it opened.
    struct Scripted(Vec<Option<&'static str>>, AtomicUsize);
    impl ComponentHook for Scripted {
        fn begin_flush(&self) -> Box<dyn FlushPass + '_> {
            let flush = self.1.fetch_add(1, Ordering::Relaxed);
            Box::new(Blob(self.0[flush].map(|b| b.as_bytes().to_vec())))
        }
    }
    struct Blob(Option<Vec<u8>>);
    impl FlushPass for Blob {
        fn metadata(&mut self) -> Option<Vec<u8>> {
            self.0.clone()
        }
    }

    /// A merge keeps its newest input's blob, skipping inputs without one,
    /// and has none only if no input has one. It opens no pass, so the
    /// hook's state plays no part in it (§3.1).
    #[test]
    fn merge_metadata_picks_newest_present() {
        let merged = |blobs: Vec<Option<&'static str>>| {
            let flushes = blobs.len();
            let hook = Arc::new(Scripted(blobs, AtomicUsize::new(0)));
            let t = LsmTree::new(
                Arc::new(Device::new(DeviceProfile::RAM)),
                Arc::new(BufferCache::new(64)),
                Arc::clone(&hook) as Arc<dyn ComponentHook>,
                LsmOptions { merge_policy: MergePolicy::NoMerge, ..Default::default() },
            );
            for i in 0..flushes as u64 {
                t.insert(encode_u64_key(i), b"v".to_vec()).unwrap();
                t.flush().unwrap();
            }
            t.force_full_merge().unwrap();
            assert_eq!(hook.1.load(Ordering::Relaxed), flushes, "a merge opens no pass");
            let components = t.components();
            assert_eq!(components.len(), 1);
            components[0].metadata().map(<[u8]>::to_vec)
        };
        assert_eq!(merged(vec![Some("old"), Some("new")]), Some(b"new".to_vec()));
        assert_eq!(merged(vec![Some("old"), None]), Some(b"old".to_vec()));
        assert_eq!(merged(vec![None, None]), None);
    }
}
