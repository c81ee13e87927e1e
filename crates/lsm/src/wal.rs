//! Write-ahead log (paper §2.2).
//!
//! AsterixDB uses no-steal/no-force buffer management with WAL: every
//! insert/delete is logged before entering the in-memory component, and the
//! log for a component can be truncated once that component is VALID on
//! disk. Recovery replays the log to rebuild the lost in-memory component
//! (§3.1.2). Anti-matter log records carry their hook attachment — the
//! retired version's bytes as the lookup returned them, compacted if they
//! came from a component — so a replayed flush can still process
//! anti-schemas. A compacted attachment's name ids stay readable after a
//! crash: recovery reloads the newest component's schema, whose dictionary
//! holds every id an older component used.
//!
//! The log is segmented to support *background* flushes: when the in-memory
//! component is frozen for flushing, the active segment is rotated into the
//! frozen segment (a rename — no data is rewritten), and new writes land in
//! a fresh active segment. When the flush installs its VALID component, only
//! the frozen segment is discarded; operations logged while the flush was
//! running stay covered. A crash between rotation and install leaves both
//! segments, and replay walks frozen-then-active, restoring exactly the
//! un-flushed suffix.
//!
//! Every record is framed as `varint(body_len) | crc32(body) | body`, so
//! replay detects not only length-torn tails but *corrupt-in-the-middle*
//! records: the first record whose checksum fails truncates the replay
//! there (everything after it is unordered garbage by definition — the log
//! is sequential).

use std::sync::Arc;

use tc_storage::device::Device;
use tc_storage::error::StorageError;
use tc_storage::file::FileStore;
use tc_util::crc;
use tc_util::sync::{ranks, OrderedMutex};
use tc_util::varint;

use crate::entry::Key;
use crate::memtable::MemEntry;

/// Log record kinds.
const OP_INSERT: u8 = 0;
const OP_ANTIMATTER: u8 = 1;
const OP_ANTIMATTER_WITH_ATTACHMENT: u8 = 2;
/// An atomic upsert: anti-matter (with optional attachment) *and* the new
/// record in one log record, so a crash can never replay the delete half
/// without the insert half — that would lose the durably-acked old version.
const OP_REPLACE: u8 = 3;
const OP_REPLACE_WITH_ATTACHMENT: u8 = 4;

/// Bytes of the per-record CRC-32 field between the length prefix and body.
const REC_CRC_BYTES: usize = 4;

/// A two-segment append-only log of memtable operations.
#[derive(Debug)]
pub struct Wal {
    /// Records covering the active in-memory component.
    active: FileStore,
    /// Records covering the frozen component currently being flushed
    /// (empty whenever no flush is in flight). Held in memory directly:
    /// rotation models a file rename, so it charges no device IO.
    frozen: OrderedMutex<Vec<u8>>,
}

impl Wal {
    pub fn new(device: Arc<Device>) -> Self {
        Wal {
            active: FileStore::new(device),
            frozen: OrderedMutex::new(ranks::WAL_FROZEN, Vec::new()),
        }
    }

    /// Append one operation. In a no-force design this is the only write
    /// that must reach the log device before the operation commits — so if
    /// it fails, the operation is NOT acknowledged and the caller must not
    /// apply it to the memtable.
    pub fn log(&self, key: &[u8], entry: &MemEntry) -> Result<(), StorageError> {
        let mut rec = Vec::with_capacity(key.len() + 16);
        match entry {
            MemEntry::Record(payload) => {
                rec.push(OP_INSERT);
                varint::write_u64(&mut rec, key.len() as u64);
                rec.extend_from_slice(key);
                varint::write_u64(&mut rec, payload.len() as u64);
                rec.extend_from_slice(payload);
            }
            MemEntry::AntiMatter(None) => {
                rec.push(OP_ANTIMATTER);
                varint::write_u64(&mut rec, key.len() as u64);
                rec.extend_from_slice(key);
            }
            MemEntry::AntiMatter(Some(att)) => {
                rec.push(OP_ANTIMATTER_WITH_ATTACHMENT);
                varint::write_u64(&mut rec, key.len() as u64);
                rec.extend_from_slice(key);
                varint::write_u64(&mut rec, att.len() as u64);
                rec.extend_from_slice(att);
            }
        }
        // Frame with a length prefix (torn tails) and a CRC-32 of the body
        // (corrupt-in-the-middle records).
        self.append_framed(&rec)
    }

    /// Append an atomic replace: the new record plus (optionally) the
    /// displaced version's anti-schema attachment in ONE framed record.
    /// Replay expands it back into the anti-matter/insert pair, so a crash
    /// observes both halves or neither — never the delete alone.
    pub fn log_replace(
        &self,
        key: &[u8],
        payload: &[u8],
        attachment: Option<&[u8]>,
    ) -> Result<(), StorageError> {
        let mut rec =
            Vec::with_capacity(key.len() + payload.len() + attachment.map_or(0, <[u8]>::len) + 24);
        rec.push(if attachment.is_some() { OP_REPLACE_WITH_ATTACHMENT } else { OP_REPLACE });
        varint::write_u64(&mut rec, key.len() as u64);
        rec.extend_from_slice(key);
        varint::write_u64(&mut rec, payload.len() as u64);
        rec.extend_from_slice(payload);
        if let Some(att) = attachment {
            varint::write_u64(&mut rec, att.len() as u64);
            rec.extend_from_slice(att);
        }
        self.append_framed(&rec)
    }

    /// Frame a record body with a length prefix (torn tails) and a CRC-32
    /// (corrupt-in-the-middle records), then append it.
    fn append_framed(&self, rec: &[u8]) -> Result<(), StorageError> {
        let mut framed = Vec::with_capacity(rec.len() + 5 + REC_CRC_BYTES);
        varint::write_u64(&mut framed, rec.len() as u64);
        framed.extend_from_slice(&crc::crc32(rec).to_le_bytes());
        framed.extend_from_slice(rec);
        self.active.append(&framed).map(|_| ())
    }

    /// Rotate the active segment into the frozen segment — called under the
    /// tree's state write lock when the in-memory component is frozen for a
    /// flush, so the active segment always covers exactly the active
    /// memtable. Appends to (rather than replaces) the frozen segment:
    /// after a recovery both segments may hold records, and order must be
    /// preserved (frozen is always older than active). On failure nothing
    /// moved: both segments are exactly as before.
    pub fn rotate(&self) -> Result<(), StorageError> {
        let mut frozen = self.frozen.lock();
        if frozen.is_empty() {
            // Common case: a pure buffer handoff, O(1) — rotation runs
            // inside the tree's freeze critical section and must not stall
            // writers/readers on a copy.
            *frozen = self.active.take_all()?;
        } else {
            // Post-recovery case only (both segments held records and no
            // flush has completed since): append to preserve order.
            let bytes = self.active.take_all()?;
            frozen.extend_from_slice(&bytes);
        }
        Ok(())
    }

    /// Drop the frozen segment after its component became VALID on disk
    /// (§2.2: a flushed component's log records are no longer needed).
    pub fn discard_frozen(&self) {
        self.frozen.lock().clear();
    }

    /// Truncate *both* segments. Test/maintenance helper only — a
    /// production flush must use [`Wal::discard_frozen`] instead, because
    /// resetting the active segment too would strip coverage from writes
    /// that raced the flush.
    pub fn reset(&self) {
        self.frozen.lock().clear();
        self.active.truncate(0);
    }

    pub fn byte_len(&self) -> u64 {
        self.frozen.lock().len() as u64 + self.active.len()
    }

    /// Replay all intact records, frozen segment first (it is strictly
    /// older). A torn tail (truncated frame) or a record whose CRC-32 fails
    /// truncates the replay at that record — the log is sequential, so
    /// nothing after the first damage can be trusted. Checksum failures are
    /// counted on the device.
    pub fn replay(&self) -> Result<Vec<(Key, MemEntry)>, StorageError> {
        let mut buf = self.frozen.lock().clone();
        let active_len = self.active.len() as usize;
        if active_len > 0 {
            buf.extend_from_slice(&self.active.read(0, active_len)?);
        }
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            let Some((frame_len, n)) = varint::read_u64(&buf[pos..]) else {
                break;
            };
            let crc_start = pos + n;
            let Some(body_start) = crc_start.checked_add(REC_CRC_BYTES) else {
                break;
            };
            let Some(body_end) = body_start.checked_add(frame_len as usize) else {
                break;
            };
            if body_end > buf.len() {
                break; // torn tail
            }
            #[expect(clippy::expect_used, reason = "the CRC range is REC_CRC_BYTES = 4 bytes")]
            let stored =
                u32::from_le_bytes(buf[crc_start..body_start].try_into().expect("4 bytes"));
            let body = &buf[body_start..body_end];
            if crc::crc32(body) != stored {
                // Corrupt in the middle: detected, counted, replay stops.
                self.active.device().note_checksum_failure();
                break;
            }
            if parse_record(body, &mut out) {
                // parsed (possibly into several memtable operations)
            } else {
                // CRC passed but the body doesn't decode: a writer-side bug,
                // still surfaced as truncation rather than garbage.
                self.active.device().note_checksum_failure();
                break;
            }
            pos = body_end;
        }
        Ok(out)
    }

    /// Corrupt the tail of the active segment (test helper for torn-write
    /// simulation).
    pub fn tear_tail(&self, bytes: u64) {
        let len = self.active.len();
        self.active.truncate(len.saturating_sub(bytes));
    }
}

/// Decode one log-record body into memtable operations, appending them to
/// `out`. Returns false if the body doesn't decode (replay truncates
/// there). Replace records expand to their anti-matter/insert pair — both
/// operations come from one durable record, so replay can never observe
/// the pair half-applied.
fn parse_record(body: &[u8], out: &mut Vec<(Key, MemEntry)>) -> bool {
    fn inner(body: &[u8], out: &mut Vec<(Key, MemEntry)>) -> Option<()> {
        let op = *body.first()?;
        let mut pos = 1usize;
        let (klen, n) = varint::read_u64(&body[pos..])?;
        pos += n;
        let key = body.get(pos..pos + klen as usize)?.to_vec();
        pos += klen as usize;
        match op {
            OP_INSERT => {
                let (plen, n) = varint::read_u64(&body[pos..])?;
                pos += n;
                let payload = body.get(pos..pos + plen as usize)?.to_vec();
                out.push((key, MemEntry::Record(payload)));
            }
            OP_ANTIMATTER => out.push((key, MemEntry::AntiMatter(None))),
            OP_ANTIMATTER_WITH_ATTACHMENT => {
                let (alen, n) = varint::read_u64(&body[pos..])?;
                pos += n;
                let att = body.get(pos..pos + alen as usize)?.to_vec();
                out.push((key, MemEntry::AntiMatter(Some(att))));
            }
            OP_REPLACE | OP_REPLACE_WITH_ATTACHMENT => {
                let (plen, n) = varint::read_u64(&body[pos..])?;
                pos += n;
                let payload = body.get(pos..pos + plen as usize)?.to_vec();
                pos += plen as usize;
                let att = if op == OP_REPLACE_WITH_ATTACHMENT {
                    let (alen, n) = varint::read_u64(&body[pos..])?;
                    pos += n;
                    Some(body.get(pos..pos + alen as usize)?.to_vec())
                } else {
                    None
                };
                out.push((key.clone(), MemEntry::AntiMatter(att)));
                out.push((key, MemEntry::Record(payload)));
            }
            _ => return None,
        }
        Some(())
    }
    let before = out.len();
    if inner(body, out).is_none() {
        out.truncate(before);
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_storage::device::DeviceProfile;
    use tc_storage::error::IoOp;
    use tc_storage::fault::{FaultKind, FaultPlan};

    fn wal() -> Wal {
        Wal::new(Arc::new(Device::new(DeviceProfile::RAM)))
    }

    #[test]
    fn replace_records_replay_as_atomic_pairs() {
        let w = wal();
        w.log(b"k1", &MemEntry::Record(b"old".to_vec())).unwrap();
        w.log_replace(b"k1", b"new", Some(b"anti")).unwrap();
        w.log_replace(b"k2", b"fresh", None).unwrap();
        let ops = w.replay().unwrap();
        assert_eq!(
            ops,
            vec![
                (b"k1".to_vec(), MemEntry::Record(b"old".to_vec())),
                (b"k1".to_vec(), MemEntry::AntiMatter(Some(b"anti".to_vec()))),
                (b"k1".to_vec(), MemEntry::Record(b"new".to_vec())),
                (b"k2".to_vec(), MemEntry::AntiMatter(None)),
                (b"k2".to_vec(), MemEntry::Record(b"fresh".to_vec())),
            ]
        );
    }

    #[test]
    fn torn_replace_record_is_all_or_nothing() {
        // Tearing the replace append must not leave a replayable delete
        // half: the CRC fails over the partial frame and replay stops
        // before it.
        let w = wal();
        w.log(b"k1", &MemEntry::Record(b"old".to_vec())).unwrap();
        w.active.device().set_fault_plan(FaultPlan::new(9).tear_nth_write(1));
        assert!(w.log_replace(b"k1", b"new", Some(b"anti")).is_err());
        w.active.device().clear_fault_plan();
        let ops = w.replay().unwrap();
        assert_eq!(ops, vec![(b"k1".to_vec(), MemEntry::Record(b"old".to_vec()))]);
    }

    #[test]
    fn replay_returns_operations_in_order() {
        let w = wal();
        w.log(b"k1", &MemEntry::Record(b"v1".to_vec())).unwrap();
        w.log(b"k2", &MemEntry::AntiMatter(None)).unwrap();
        w.log(b"k3", &MemEntry::AntiMatter(Some(b"anti-schema".to_vec()))).unwrap();
        let ops = w.replay().unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0], (b"k1".to_vec(), MemEntry::Record(b"v1".to_vec())));
        assert_eq!(ops[1], (b"k2".to_vec(), MemEntry::AntiMatter(None)));
        assert_eq!(ops[2], (b"k3".to_vec(), MemEntry::AntiMatter(Some(b"anti-schema".to_vec()))));
    }

    #[test]
    fn reset_clears_log() {
        let w = wal();
        w.log(b"k", &MemEntry::Record(vec![1, 2, 3])).unwrap();
        assert!(w.byte_len() > 0);
        w.reset();
        assert_eq!(w.byte_len(), 0);
        assert!(w.replay().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_drops_only_last_record() {
        let w = wal();
        w.log(b"k1", &MemEntry::Record(b"v1".to_vec())).unwrap();
        w.log(b"k2", &MemEntry::Record(b"v2-longer-payload".to_vec())).unwrap();
        w.tear_tail(5);
        let ops = w.replay().unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, b"k1".to_vec());
    }

    #[test]
    fn corrupt_middle_record_truncates_replay_there() {
        // A bit flip in the SECOND record must drop records 2 and 3 (the
        // log is sequential — nothing after the damage can be trusted) while
        // record 1 survives. Pre-CRC framing would have decoded garbage or
        // resynced incorrectly.
        let d = Arc::new(Device::new(DeviceProfile::RAM));
        let w = Wal::new(Arc::clone(&d));
        w.log(b"k1", &MemEntry::Record(b"v1".to_vec())).unwrap();
        d.set_fault_plan(FaultPlan::new(13).flip_bit_in_nth_write(1));
        w.log(b"k2", &MemEntry::Record(b"v2".to_vec())).unwrap();
        d.clear_fault_plan();
        w.log(b"k3", &MemEntry::Record(b"v3".to_vec())).unwrap();
        let ops = w.replay().unwrap();
        assert_eq!(ops.len(), 1, "replay truncates at the first invalid record");
        assert_eq!(ops[0].0, b"k1".to_vec());
        assert!(d.checksum_failures() >= 1, "damage was detected, not skipped");
    }

    #[test]
    fn failed_append_logs_nothing() {
        let d = Arc::new(Device::new(DeviceProfile::RAM));
        let w = Wal::new(Arc::clone(&d));
        d.set_fault_plan(FaultPlan::new(3).fail_nth(IoOp::Write, 1, FaultKind::Transient));
        assert!(w.log(b"k1", &MemEntry::Record(b"v1".to_vec())).is_err());
        // Retry after the transient fault: the log stays well-formed.
        w.log(b"k1", &MemEntry::Record(b"v1".to_vec())).unwrap();
        d.clear_fault_plan();
        let ops = w.replay().unwrap();
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn empty_wal_replays_nothing() {
        assert!(wal().replay().unwrap().is_empty());
    }

    #[test]
    fn rotation_splits_coverage_between_segments() {
        let w = wal();
        w.log(b"old", &MemEntry::Record(b"a".to_vec())).unwrap();
        w.rotate().unwrap(); // freeze for flush
        w.log(b"new", &MemEntry::Record(b"b".to_vec())).unwrap();
        // Crash before install: both segments replay, old first.
        let ops = w.replay().unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].0, b"old".to_vec());
        assert_eq!(ops[1].0, b"new".to_vec());
        // Install completes: only the frozen segment is discarded.
        w.discard_frozen();
        let ops = w.replay().unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, b"new".to_vec());
    }

    #[test]
    fn rotation_onto_nonempty_frozen_preserves_order() {
        // After recovery both segments hold records; the next rotation must
        // append the (newer) active records after the existing frozen ones.
        let w = wal();
        w.log(b"k1", &MemEntry::Record(b"a".to_vec())).unwrap();
        w.rotate().unwrap();
        w.log(b"k2", &MemEntry::Record(b"b".to_vec())).unwrap();
        w.rotate().unwrap(); // frozen now holds k1 then k2
        let ops = w.replay().unwrap();
        assert_eq!(
            ops.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![b"k1".to_vec(), b"k2".to_vec()]
        );
    }

    #[test]
    fn failed_rotation_leaves_both_segments_intact() {
        let d = Arc::new(Device::new(DeviceProfile::RAM));
        let w = Wal::new(Arc::clone(&d));
        w.log(b"k1", &MemEntry::Record(b"a".to_vec())).unwrap();
        d.set_fault_plan(FaultPlan::new(4).fail_nth(IoOp::Rotate, 1, FaultKind::Transient));
        assert!(w.rotate().is_err());
        d.clear_fault_plan();
        // Nothing moved: the active segment still covers the record, and a
        // retried rotation works.
        assert_eq!(w.replay().unwrap().len(), 1);
        w.rotate().unwrap();
        assert_eq!(w.replay().unwrap().len(), 1);
    }

    #[test]
    fn tear_tail_affects_active_segment_only() {
        let w = wal();
        w.log(b"flushed", &MemEntry::Record(b"x".to_vec())).unwrap();
        w.rotate().unwrap();
        w.log(b"torn", &MemEntry::Record(b"y-longer-payload".to_vec())).unwrap();
        w.tear_tail(4);
        let ops = w.replay().unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, b"flushed".to_vec());
    }
}
