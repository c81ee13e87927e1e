//! The per-layer replay of a traced run: the first records of the workload
//! (and pages built from them) pushed through each crate's public functions,
//! five times each, medians reported. Every layer is replayed on every
//! workload, so a number exists where the workload's own configuration never
//! calls the layer (Snappy on `twitter_feed`, the shredder on vector
//! workloads): there it predicts what switching the layer on would cost.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tc_adm::Value;
use tc_cluster::Cluster;
use tc_columnar::AmaxCodec;
use tc_compress::CompressionScheme;
use tc_datagen::updates::Updater;
use tc_lsm::columnar::ColumnarCodec;
use tc_lsm::entry::{encode_i64_key, EntryKind, Key};
use tc_lsm::memtable::{MemEntry, Memtable};
use tc_lsm::wal::Wal;
use tc_schema::Schema;
use tc_storage::device::{Device, DeviceProfile};
use tc_storage::page_store::PageStore;
use tc_storage::BufferCache;
use tc_vector::BatchPathEvaluator;
use tuple_compactor::RecordDecoder;

use crate::reads::queries;
use crate::stats::{median, median_u64};
use crate::workload::{Inputs, OpKind, Spec};

/// Records replayed through each layer.
pub const REPLAY_RECORDS: usize = 2_000;
const REPS: usize = 5;

/// Median over `REPS` runs of `body`, in nanoseconds per `units`.
fn ns_per(units: usize, mut body: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            body();
            started.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

fn nvme() -> Arc<Device> {
    Arc::new(Device::new(DeviceProfile::NVME_SSD))
}

/// Pack payloads into page images the way a component builder fills pages.
fn page_images(payloads: &[Vec<u8>], page_size: usize) -> Vec<Vec<u8>> {
    let mut pages = Vec::new();
    let mut page: Vec<u8> = Vec::with_capacity(page_size);
    for p in payloads {
        let mut rest = &p[..];
        while !rest.is_empty() {
            let take = rest.len().min(page_size - page.len());
            page.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if page.len() == page_size {
                pages.push(std::mem::replace(&mut page, Vec::with_capacity(page_size)));
            }
        }
    }
    if !page.is_empty() {
        page.resize(page_size, 0);
        pages.push(page);
    }
    pages
}

/// Write then read every page through a `PageStore`; ns per page for each.
fn page_io(pages: &[Vec<u8>], scheme: CompressionScheme, integrity: bool) -> (f64, f64) {
    let page_size = pages[0].len();
    let mut stores = Vec::new();
    let write = ns_per(pages.len(), || {
        let store = PageStore::new(nvme(), page_size, scheme).with_integrity(integrity);
        let ids: Vec<_> = pages.iter().map(|p| store.write_page(p).expect("page write")).collect();
        stores.push((store, ids));
    });
    let (store, ids) = stores.pop().expect("at least one rep");
    let read = ns_per(pages.len(), || {
        for id in &ids {
            black_box(store.read_page(*id).expect("page read"));
        }
    });
    (write, read)
}

/// Replay the layers; returns `(metric name, value)` pairs.
pub fn replay(spec: &Spec, inputs: &Inputs, cluster: &Cluster) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let config = spec.dataset_config();
    let datatype = config.datatype.clone();
    let texts: Vec<&str> = inputs
        .preload
        .iter()
        .map(String::as_str)
        .chain(inputs.ops.iter().filter(|o| o.kind == OpKind::Insert).map(|o| o.text.as_str()))
        .take(REPLAY_RECORDS)
        .collect();
    let n = texts.len();

    // tc_adm
    out.push((
        "adm.parse_ns_per_rec",
        ns_per(n, || {
            for t in &texts {
                black_box(tc_adm::parse(t).expect("own JSON parses"));
            }
        }),
    ));
    let values: Vec<Value> = texts.iter().map(|t| tc_adm::parse(t).expect("parses")).collect();
    let mut keyed: Vec<(Key, &Value)> = values
        .iter()
        .map(|v| (encode_i64_key(v.get_field("id").and_then(Value::as_i64).expect("pk")), v))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));

    // tc_vector
    out.push((
        "vector.encode_ns_per_rec",
        ns_per(n, || {
            for (_, v) in &keyed {
                black_box(tc_vector::encode(v, Some(&datatype)));
            }
        }),
    ));
    let raw: Vec<Vec<u8>> =
        keyed.iter().map(|(_, v)| tc_vector::encode(v, Some(&datatype))).collect();
    let mut schema = Schema::new();
    let mut compacted: Vec<Vec<u8>> = Vec::new();
    out.push((
        "vector.compact_ns_per_rec",
        ns_per(n, || {
            schema = Schema::new();
            compacted = raw
                .iter()
                .map(|r| tc_vector::infer_and_compact(r, &mut schema).expect("compacts"))
                .collect();
        }),
    ));
    let dict = Arc::new(schema.dict().clone());
    out.push((
        "vector.decode_ns_per_rec",
        ns_per(n, || {
            for c in &compacted {
                black_box(tc_vector::decode(c, Some(&datatype), Some(&dict)).expect("decodes"));
            }
        }),
    ));
    let agg_paths = queries(spec.data, inputs)[1].scan.paths.clone();
    out.push((
        "vector.path_eval_ns_per_rec",
        ns_per(n, || {
            let mut eval = BatchPathEvaluator::new(&agg_paths);
            let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(n); agg_paths.len()];
            for c in &compacted {
                eval.eval_into(c, Some(&datatype), Some(&dict), &mut columns).expect("evaluates");
            }
            black_box(columns);
        }),
    ));
    let compacted_bytes: usize = compacted.iter().map(Vec::len).sum();
    out.push(("vector.bytes_per_rec", compacted_bytes as f64 / n.max(1) as f64));

    // tc_schema: the dataset's own schema, and the anti-schema walk.
    let live_schema = cluster.partition(0).schema_snapshot().unwrap_or_default();
    out.push(("schema.nodes", live_schema.num_live_nodes() as f64));
    out.push(("schema.serialized_bytes", live_schema.serialize().len() as f64));
    out.push((
        "schema.remove_ns_per_rec",
        ns_per(n, || {
            let mut s = schema.clone();
            for (_, v) in &keyed {
                if let Value::Object(fields) = v {
                    s.remove_record(fields, &|name| name == "id");
                }
            }
            black_box(s);
        }),
    ));

    // tc_lsm: WAL append and memtable put in isolation.
    let entries: Vec<MemEntry> = raw.iter().map(|r| MemEntry::Record(r.clone())).collect();
    out.push((
        "lsm.wal_append_ns_per_rec",
        ns_per(n, || {
            let wal = Wal::new(nvme());
            for ((key, _), entry) in keyed.iter().zip(&entries) {
                wal.log(key, entry).expect("wal append");
            }
            black_box(wal.byte_len());
        }),
    ));
    let mut put_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let batch: Vec<(Key, MemEntry)> =
                keyed.iter().map(|(k, _)| k.clone()).zip(entries.iter().cloned()).collect();
            let mut memtable = Memtable::new();
            let started = Instant::now();
            for (k, e) in batch {
                memtable.put(k, e);
            }
            let nanos = started.elapsed().as_nanos() as f64;
            black_box(memtable.bytes());
            nanos / n.max(1) as f64
        })
        .collect();
    out.push(("lsm.memtable_put_ns_per_rec", median(&mut put_samples)));
    let mut scanned = 0usize;
    let scan_ns = ns_per(1, || {
        let (_decoder, mut scan) = cluster.partition(0).snapshot_scan();
        scanned = 0;
        while let Some(item) = scan.next() {
            black_box(&item);
            scanned += 1;
        }
    });
    out.push(("lsm.scan_ns_per_entry", scan_ns / scanned.max(1) as f64));

    // tc_storage, tc_util, tc_compress: the workload's own page images.
    let pages = page_images(&compacted, config.page_size);
    let (write_on, read_on) = page_io(&pages, spec.compression, true);
    let (write_off, read_off) = page_io(&pages, spec.compression, false);
    out.push(("storage.page_write_ns", write_on));
    out.push(("storage.page_read_ns", read_on));
    out.push(("util.crc_ns_per_page", (write_on + read_on) - (write_off + read_off)));
    let page_bytes = (pages.len() * config.page_size) as f64;
    let snappy = CompressionScheme::Snappy;
    let squeezed: Vec<Vec<u8>> = pages.iter().map(|p| snappy.compress(p)).collect();
    let squeezed_bytes: usize = squeezed.iter().map(Vec::len).sum();
    let compress_ns = ns_per(1, || {
        for p in &pages {
            black_box(snappy.compress(p));
        }
    });
    let decompress_ns = ns_per(1, || {
        for s in &squeezed {
            black_box(snappy.decompress(s).expect("decompresses"));
        }
    });
    // bytes per ns × 1e3 = MB/s.
    out.push(("compress.compress_mb_s", page_bytes / compress_ns * 1e3));
    out.push(("compress.decompress_mb_s", page_bytes / decompress_ns * 1e3));
    out.push(("compress.ratio", page_bytes / squeezed_bytes.max(1) as f64));

    // tc_columnar: shred one batch into column pages, then reconstruct it.
    let rows: Vec<(Key, EntryKind, Vec<u8>)> = keyed
        .iter()
        .zip(&compacted)
        .map(|((k, _), c)| (k.clone(), EntryKind::Record, c.clone()))
        .collect();
    let schema_blob = schema.serialize();
    let codec = AmaxCodec::new(datatype.clone());
    let mut built = None;
    out.push((
        "columnar.shred_ns_per_rec",
        ns_per(n, || {
            let store = PageStore::new(nvme(), config.page_size, CompressionScheme::None);
            let chunk = codec.build_chunk(&store, &rows, Some(&schema_blob)).expect("shreds");
            built = Some((store, chunk));
        }),
    ));
    let (store, chunk) = built.expect("at least one rep");
    let cache = BufferCache::with_budget(256 << 20, config.page_size);
    let read_groups = || {
        for g in 0..chunk.num_groups() {
            black_box(chunk.read_group_rows(&store, &cache, g).expect("reconstructs"));
        }
    };
    read_groups(); // fault the pages in: the metric is the pivot, not the IO
    out.push(("columnar.reconstruct_ns_per_row", ns_per(n, read_groups)));

    // tuple_compactor: materialisation, and each write type on a scratch
    // partition of the workload's own configuration.
    let decoder = RecordDecoder::new(spec.format, datatype.clone(), Some(Arc::clone(&dict)));
    out.push((
        "core.materialize_ns_per_rec",
        ns_per(n, || {
            for c in &compacted {
                black_box(decoder.materialize(c).expect("materialises"));
            }
        }),
    ));
    let scratch = spec.new_cluster();
    let timed = |call: &mut dyn FnMut()| {
        let started = Instant::now();
        call();
        started.elapsed().as_nanos() as u64
    };
    let inserts: Vec<u64> =
        values.iter().map(|v| timed(&mut || scratch.insert(v).expect("insert"))).collect();
    // An amax upsert or delete reconstructs a row group (~50 ms): sample
    // for a second, nine writes at least, a quarter of the records at most.
    let phase_over = |started: Instant, done: usize| {
        done >= n.div_ceil(4) || (done >= 9 && started.elapsed().as_secs_f64() > 1.0)
    };
    let mut updater = Updater::new(n as u64);
    let mut upserts = Vec::new();
    let started = Instant::now();
    while !phase_over(started, upserts.len()) {
        let slot = updater.pick_key(n as i64) as usize;
        let (mutated, _) = updater.mutate(&values[slot], "id");
        upserts.push(timed(&mut || scratch.upsert(&mutated).expect("upsert")));
    }
    // Distinct keys, so every delete finds a live record.
    let mut deletes = Vec::new();
    let started = Instant::now();
    for (_, v) in keyed.iter().step_by(4) {
        if phase_over(started, deletes.len()) {
            break;
        }
        let pk = v.get_field("id").and_then(Value::as_i64).expect("pk");
        deletes.push(timed(&mut || {
            scratch.delete(pk).expect("delete");
        }));
    }
    out.push(("core.insert_us_p50", median_u64(&inserts) / 1e3));
    out.push(("core.upsert_us_p50", median_u64(&upserts) / 1e3));
    out.push(("core.delete_us_p50", median_u64(&deletes) / 1e3));
    out
}
