//! One ingest pass: a fresh cluster, the untimed preload, then the timed
//! stream — `tc_adm::parse(line)` plus the `Cluster` write call per op, each
//! timed on its own — ending when `flush_all()` returns.

use std::time::Instant;

use tc_cluster::Cluster;

use crate::trace::{spanned, SpanId, Tracer, NO_PARENT};
use crate::workload::{Inputs, OpKind, Spec, WriteOp};

/// Counters that depend on the inputs alone: with one thread and synchronous
/// maintenance they must repeat bit for bit from pass to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    pub flushes: u64,
    pub merges: u64,
    pub bytes_flushed: u64,
    pub bytes_merged: u64,
    pub dev_write_bytes: u64,
    pub dev_write_ops: u64,
    pub disk_bytes: u64,
    pub components: u64,
}

/// What one pass measured. The cluster is handed back for the reads; the
/// harness drops it (sets `None`) once a later pass supersedes it.
pub struct Pass {
    pub cluster: Option<Cluster>,
    /// Wall time of the timed stream plus simulated device time
    /// (`FeedReport::total()` convention).
    pub seconds: f64,
    pub wall_seconds: f64,
    /// Per-op latency in stream order.
    pub latencies_ns: Vec<u64>,
    /// `Dataset::writer_stall_nanos` accrued by the timed stream.
    pub maint_busy_ns: u64,
    pub exact: Exact,
    /// Writes that erred or disagreed with the oracle.
    pub failed: u64,
    /// Traced passes only: latency of the writes during which `flushes`
    /// (and not `merges`) advanced, and of those during which `merges` did.
    pub flush_ops_ns: Vec<u64>,
    pub merge_ops_ns: Vec<u64>,
}

fn span_name(kind: OpKind) -> (&'static str, &'static str) {
    match kind {
        OpKind::Insert => ("write.insert", "cluster.insert"),
        OpKind::Upsert => ("write.upsert", "cluster.upsert"),
        OpKind::Delete => ("write.delete", "cluster.delete"),
    }
}

/// Parse the line and make the write call; `false` when the write failed.
/// When tracing, the two calls get a child span each under `parent`, and the
/// id of the write call's span comes back.
fn apply(
    cluster: &Cluster,
    op: &WriteOp,
    mut tracer: Option<&mut Tracer>,
    parent: SpanId,
) -> (bool, Option<SpanId>) {
    let call_name = span_name(op.kind).1;
    if op.kind == OpKind::Delete {
        let (deleted, span) = spanned(tracer, call_name, parent, || cluster.delete(op.pk));
        return (matches!(deleted, Ok(true)), span);
    }
    let (value, _) =
        spanned(tracer.as_deref_mut(), "adm.parse", parent, || tc_adm::parse(&op.text));
    let Ok(value) = value else { return (false, None) };
    let (written, span) = spanned(tracer, call_name, parent, || match op.kind {
        OpKind::Insert => cluster.insert(&value),
        _ => cluster.upsert(&value),
    });
    (written.is_ok(), span)
}

/// Run one pass. With a tracer, every call into the library gets a span
/// under one `pass.ingest` root, and a write during which `flushes` advanced
/// gets a `lsm.maintenance` child as long as the stall counter moved.
pub fn run_pass(spec: &Spec, inputs: &Inputs, mut tracer: Option<&mut Tracer>) -> Pass {
    let cluster = spec.new_cluster();
    let mut failed = 0u64;
    for line in &inputs.preload {
        if tc_adm::parse(line).and_then(|v| cluster.insert(&v)).is_err() {
            failed += 1;
        }
    }

    let ds = cluster.partition(0);
    let device = &cluster.nodes()[0].devices[0];
    let before = ds.lsm_stats();
    let (dev_bytes0, dev_ops0) = (device.bytes_written(), device.write_ops());
    let stall0 = ds.writer_stall_nanos();
    let io0 = cluster.io_snapshots();
    let mut latencies_ns = Vec::with_capacity(inputs.ops.len());
    let (mut flush_ops_ns, mut merge_ops_ns) = (Vec::new(), Vec::new());
    let (mut seen_flushes, mut seen_merges, mut seen_stall) =
        (before.flushes, before.merges, stall0);

    let root = tracer.as_deref_mut().map(|t| {
        t.next_pass();
        t.begin("pass.ingest", NO_PARENT)
    });
    let started = Instant::now();
    for op in &inputs.ops {
        let op_started = Instant::now();
        let op_span = tracer.as_deref_mut().map(|t| t.begin(span_name(op.kind).0, root.unwrap()));
        let (ok, call_span) =
            apply(&cluster, op, tracer.as_deref_mut(), op_span.unwrap_or(NO_PARENT));
        let nanos = op_started.elapsed().as_nanos() as u64;
        if let (Some(t), Some(op_span)) = (tracer.as_deref_mut(), op_span) {
            t.end(op_span);
            let now = ds.lsm_stats();
            if now.flushes != seen_flushes || now.merges != seen_merges {
                let stall = ds.writer_stall_nanos();
                if let Some(call) = call_span {
                    t.child_of_length("lsm.maintenance", call, stall - seen_stall);
                }
                if now.merges != seen_merges {
                    merge_ops_ns.push(nanos);
                } else {
                    flush_ops_ns.push(nanos);
                }
                (seen_flushes, seen_merges, seen_stall) = (now.flushes, now.merges, stall);
            }
        }
        if !ok {
            failed += 1;
        }
        latencies_ns.push(nanos);
    }
    if spec.final_flush {
        let parent = root.unwrap_or(NO_PARENT);
        let (flushed, _) =
            spanned(tracer.as_deref_mut(), "cluster.flush_all", parent, || cluster.flush_all());
        if flushed.is_err() {
            failed += 1;
        }
    }
    let wall = started.elapsed();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.end(root);
    }
    let io = cluster.max_io_time_since(&io0);

    let after = ds.lsm_stats();
    let exact = Exact {
        flushes: after.flushes - before.flushes,
        merges: after.merges - before.merges,
        bytes_flushed: after.bytes_flushed - before.bytes_flushed,
        bytes_merged: after.bytes_merged - before.bytes_merged,
        dev_write_bytes: device.bytes_written() - dev_bytes0,
        dev_write_ops: device.write_ops() - dev_ops0,
        disk_bytes: cluster.total_disk_bytes(),
        components: ds.primary().components().len() as u64,
    };
    let maint_busy_ns = ds.writer_stall_nanos() - stall0;
    Pass {
        seconds: (wall + io).as_secs_f64(),
        wall_seconds: wall.as_secs_f64(),
        latencies_ns,
        maint_busy_ns,
        exact,
        failed,
        flush_ops_ns,
        merge_ops_ns,
        cluster: Some(cluster),
    }
}
