//! The metric lists. `BENCHMARK.json` repeats them for the driver; the smoke
//! test holds the two in step.

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer (one crate), from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ingest_krec_s", "krec/s", "higher", 0.25),
    e2e("write_p50_us", "us", "lower", 0.25),
    e2e("write_p999_ms", "ms", "lower", 0.25),
    e2e("write_amp", "ratio", "lower", 0.05),
    e2e("storage_ratio", "ratio", "lower", 0.05),
    e2e("q_count_ms", "ms", "lower", 0.25),
    e2e("q_agg_ms", "ms", "lower", 0.25),
    e2e("q_filter_ms", "ms", "lower", 0.25),
    e2e("q_full_ms", "ms", "lower", 0.25),
    e2e("get_p50_us", "us", "lower", 0.25),
    e2e("rss_peak_mb", "MB", "lower", 0.10),
];

pub const PER_LAYER: [PerLayer; 56] = [
    // harness
    layer("bench.gen_s", "s", "lower"),
    layer("bench.calib_ms", "ms", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.span_coverage_pct", "%", "higher"),
    // tc_adm
    layer("adm.parse_ns_per_rec", "ns", "lower"),
    // tc_vector
    layer("vector.encode_ns_per_rec", "ns", "lower"),
    layer("vector.compact_ns_per_rec", "ns", "lower"),
    layer("vector.decode_ns_per_rec", "ns", "lower"),
    layer("vector.path_eval_ns_per_rec", "ns", "lower"),
    layer("vector.bytes_per_rec", "B", "lower"),
    // tc_schema
    layer("schema.nodes", "count", "lower"),
    layer("schema.serialized_bytes", "B", "lower"),
    layer("schema.remove_ns_per_rec", "ns", "lower"),
    // tc_lsm
    layer("lsm.flushes", "count", "lower"),
    layer("lsm.merges", "count", "lower"),
    layer("lsm.bytes_flushed_mb", "MB", "lower"),
    layer("lsm.bytes_merged_mb", "MB", "lower"),
    layer("lsm.maint_busy_s", "s", "lower"),
    layer("lsm.flush_ms_p50", "ms", "lower"),
    layer("lsm.merge_ms_p50", "ms", "lower"),
    layer("lsm.foreground_us_per_rec", "us", "lower"),
    layer("lsm.wal_append_ns_per_rec", "ns", "lower"),
    layer("lsm.memtable_put_ns_per_rec", "ns", "lower"),
    layer("lsm.components_at_read", "count", "lower"),
    layer("lsm.scan_ns_per_entry", "ns", "lower"),
    layer("lsm.full_merge_s", "s", "lower"),
    // tc_storage
    layer("storage.dev_write_mb", "MB", "lower"),
    layer("storage.dev_write_ops", "count", "lower"),
    layer("storage.read_mb_q_count", "MB", "lower"),
    layer("storage.read_mb_q_agg", "MB", "lower"),
    layer("storage.read_mb_q_filter", "MB", "lower"),
    layer("storage.read_mb_q_full", "MB", "lower"),
    layer("storage.cache_hit_rate_get", "ratio", "higher"),
    layer("storage.page_write_ns", "ns", "lower"),
    layer("storage.page_read_ns", "ns", "lower"),
    // tc_util
    layer("util.crc_ns_per_page", "ns", "lower"),
    // tc_compress
    layer("compress.compress_mb_s", "MB/s", "higher"),
    layer("compress.decompress_mb_s", "MB/s", "higher"),
    layer("compress.ratio", "ratio", "higher"),
    // tc_columnar
    layer("columnar.shred_ns_per_rec", "ns", "lower"),
    layer("columnar.reconstruct_ns_per_row", "ns", "lower"),
    layer("columnar.pages_written", "count", "lower"),
    layer("columnar.pages_skipped", "count", "higher"),
    layer("columnar.columns_faulted", "count", "lower"),
    layer("columnar.typed_filter_rows", "count", "higher"),
    // tuple_compactor
    layer("core.insert_us_p50", "us", "lower"),
    layer("core.upsert_us_p50", "us", "lower"),
    layer("core.delete_us_p50", "us", "lower"),
    layer("core.materialize_ns_per_rec", "ns", "lower"),
    // tc_query
    layer("query.rows_scanned_q_filter", "count", "lower"),
    layer("query.rows_output_q_filter", "count", "lower"),
    layer("query.ns_per_row_q_count", "ns", "lower"),
    layer("query.ns_per_row_q_agg", "ns", "lower"),
    layer("query.ns_per_row_q_filter", "ns", "lower"),
    layer("query.ns_per_row_q_full", "ns", "lower"),
    layer("query.warm_ms_q_agg", "ms", "lower"),
];

/// Unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}
