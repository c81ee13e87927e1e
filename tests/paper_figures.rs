//! The paper's count-shaped figures (§4 of the extended version) as
//! deterministic tests.
//!
//! Every assertion is on bytes or rows, never on a time, so each holds or
//! fails the same way on every run of a given seed. Each setup feeds seed-1
//! records into a cluster of two partitions per node (16 KiB pages, 1 MiB
//! memtables, `Prefix{32 MiB, 5}` merges, the zero-latency RAM device),
//! flushes, and merges every partition down to one component. At these
//! scales every Fig 16 dataset flushes at least four times.
//!
//! The timing-shaped figures (17–20, 22, 23, 26) have no test here: a time
//! is not a count.

use asterix_tc::prelude::*;
use tc_adm::datatype::FieldDef;
use tc_datagen::{sensors::SensorsGen, twitter::TwitterGen, wos::WosGen, Generator};

const TWITTER: usize = 2_000;
const WOS: usize = 2_000;
const SENSORS: usize = 1_000;

/// The three formats every figure compares, in the order the paper draws
/// them.
const FORMATS: [StorageFormat; 3] =
    [StorageFormat::Open, StorageFormat::Closed, StorageFormat::Inferred];

fn create(
    name: &str,
    format: StorageFormat,
    compression: CompressionScheme,
    nodes: usize,
    closed: ObjectType,
    secondary: Option<&str>,
) -> Cluster {
    let mut cfg = DatasetConfig::new(name, "id")
        .with_format(format)
        .with_compression(compression)
        .with_page_size(16 * 1024)
        .with_memtable_budget(1024 * 1024)
        .with_merge_policy(MergePolicy::Prefix {
            max_mergeable_size: 32 * 1024 * 1024,
            max_tolerable_components: 5,
        })
        .with_primary_key_index(false);
    if let Some(field) = secondary {
        cfg = cfg.with_secondary_index(field);
    }
    if format == StorageFormat::Closed {
        cfg = cfg.with_datatype(closed);
    }
    let cluster = ClusterConfig {
        nodes,
        partitions_per_node: 2,
        device: DeviceProfile::RAM,
        cache_budget_per_node: 32 * 1024 * 1024,
    };
    Cluster::create_dataset(cluster, cfg)
}

/// Feed `records`, flush, and merge every partition to one component.
fn load(cluster: &Cluster, records: Vec<Value>) {
    cluster.feed(records, FeedMode::Insert).unwrap();
    cluster.flush_all().unwrap();
    cluster.merge_all().unwrap();
}

/// A fresh cluster holding the first `n` records of `gen`, fully merged.
fn ingest<G: Generator>(
    mut gen: G,
    n: usize,
    format: StorageFormat,
    compression: CompressionScheme,
    nodes: usize,
    closed: ObjectType,
) -> Cluster {
    let cluster = create(gen.name(), format, compression, nodes, closed, None);
    load(&cluster, (0..n).map(|_| gen.next_record()).collect());
    cluster
}

/// Fig 16's on-disk bytes for one dataset, `[open, closed, inferred]` per
/// compression, plus Fig 21's SL-VB (uncompressed) when asked for.
struct Storage {
    plain: [u64; 3],
    snappy: [u64; 3],
    slvb: Option<u64>,
}

fn storage<G: Generator>(
    make_gen: impl Fn() -> G,
    n: usize,
    closed: fn() -> ObjectType,
    with_slvb: bool,
) -> Storage {
    let bytes = |format, compression| {
        let cluster = ingest(make_gen(), n, format, compression, 1, closed());
        let flushes: u64 = cluster.lsm_stats().iter().map(|s| s.flushes).sum();
        assert!(flushes >= 4, "{format:?}/{compression:?}: {flushes} flushes, want at least 4");
        cluster.total_disk_bytes()
    };
    Storage {
        plain: FORMATS.map(|f| bytes(f, CompressionScheme::None)),
        snappy: FORMATS.map(|f| bytes(f, CompressionScheme::Snappy)),
        slvb: with_slvb.then(|| bytes(StorageFormat::VectorUncompacted, CompressionScheme::None)),
    }
}

/// Fig 16's shape: inferred < closed < open with and without compression,
/// Snappy shrinks every format, open/inferred (uncompressed) is at least
/// `min_ratio`, and the Snappy bytes are exactly `snappy`.
fn assert_fig16(dataset: &str, s: &Storage, min_ratio: f64, snappy: [u64; 3]) {
    for (scheme, [open, closed, inferred]) in [("uncompressed", s.plain), ("snappy", s.snappy)] {
        assert!(
            inferred < closed && closed < open,
            "{dataset} {scheme}: want inferred {inferred} < closed {closed} < open {open}"
        );
    }
    for (i, format) in FORMATS.iter().enumerate() {
        assert!(
            s.snappy[i] < s.plain[i],
            "{dataset} {format:?}: Snappy {} not below uncompressed {}",
            s.snappy[i],
            s.plain[i]
        );
    }
    let ratio = s.plain[0] as f64 / s.plain[2] as f64;
    assert!(ratio >= min_ratio, "{dataset}: open/inferred {ratio:.2}, want at least {min_ratio}");
    assert_eq!(s.snappy, snappy, "{dataset}: Snappy bytes, open/closed/inferred");
}

/// Fig 21's shape on every dataset: the vector format alone (SL-VB) saves
/// over open, and compaction saves more; returns the SL-VB bytes.
fn assert_fig21(dataset: &str, s: &Storage) -> u64 {
    let ([open, _, inferred], slvb) = (s.plain, s.slvb.unwrap());
    assert!(
        open > slvb && slvb > inferred,
        "{dataset}: want open {open} > SL-VB {slvb} > inferred {inferred}"
    );
    slvb
}

#[test]
fn fig16_fig21_twitter_storage() {
    let s = storage(|| TwitterGen::new(1), TWITTER, twitter_closed_type, true);
    assert_fig16("Twitter", &s, 2.3, [2_342_401, 1_379_297, 937_632]);
    // Fig 21a: about half the saving is the vector format's encoding, the
    // rest is compaction; SL-VB lands between open and closed.
    let slvb = assert_fig21("Twitter", &s);
    assert!(slvb > s.plain[1], "Twitter: want SL-VB {slvb} > closed {}", s.plain[1]);
}

#[test]
fn fig16_wos_storage() {
    let s = storage(|| WosGen::new(1), WOS, wos_closed_type, false);
    assert_fig16("WoS", &s, 1.9, [3_793_898, 3_436_493, 1_782_590]);
}

#[test]
fn fig16_fig21_sensors_storage() {
    let s = storage(|| SensorsGen::new(1), SENSORS, sensors_closed_type, true);
    assert_fig16("Sensors", &s, 3.1, [2_708_919, 2_361_309, 1_799_368]);
    // Fig 21b: on regular data SL-VB already beats closed, which pays an
    // offset per nested reading (§4.4.4).
    let slvb = assert_fig21("Sensors", &s);
    assert!(slvb < s.plain[1], "Sensors: want SL-VB {slvb} < closed {}", s.plain[1]);
}

/// Fig 24: range probes through a secondary index on `timestamp_ms`, at the
/// paper's six selectivities. Every format answers with exactly the records
/// in range, so the index path's row count grows with selectivity alone.
#[test]
fn fig24_secondary_index_row_counts() {
    let mut gen = TwitterGen::new(1);
    let records: Vec<Value> = (0..4_000).map(|_| gen.next_record()).collect();
    let ts = |r: &Value| r.get_field("timestamp_ms").unwrap().as_i64().unwrap();
    let (ts_min, ts_max) = (ts(&records[0]), ts(&records[records.len() - 1]));
    let span = (ts_max - ts_min) as f64;
    let ranges: Vec<(i64, i64)> = [0.00001, 0.0001, 0.001, 0.01, 0.10, 0.50]
        .iter()
        .map(|sel| (ts_min, ts_min + (span * sel).max(1.0) as i64))
        .collect();
    let expected: Vec<usize> = ranges
        .iter()
        .map(|&(lo, hi)| records.iter().filter(|r| (lo..=hi).contains(&ts(r))).count())
        .collect();
    assert_eq!(expected, [1, 2, 6, 38, 404, 1_956], "generated records per range");
    assert!(expected.is_sorted(), "wider ranges hold no fewer records");

    for format in FORMATS {
        let cluster = create(
            "tweets",
            format,
            CompressionScheme::None,
            1,
            twitter_closed_type(),
            Some("timestamp_ms"),
        );
        load(&cluster, records.clone());
        let counts: Vec<usize> = ranges
            .iter()
            .map(|&(lo, hi)| {
                cluster.partitions().iter().map(|p| p.secondary_range(lo, hi).unwrap().len()).sum()
            })
            .collect();
        assert_eq!(counts, expected, "{format:?}: index-path rows per selectivity");
    }
}

/// Fig 25: scale-out with Snappy. Data grows with the node count, so the
/// bytes each node stores stay flat, and inferred is the smallest format at
/// every size.
#[test]
fn fig25_scaleout_bytes_per_node() {
    const PER_NODE: usize = 600;
    let per_node = |format, nodes| {
        let cluster = ingest(
            TwitterGen::new(1),
            PER_NODE * nodes,
            format,
            CompressionScheme::Snappy,
            nodes,
            twitter_closed_type(),
        );
        cluster.total_disk_bytes() as f64 / nodes as f64
    };
    let sizes: Vec<[f64; 3]> = [1, 2, 4].iter().map(|&n| FORMATS.map(|f| per_node(f, n))).collect();
    for (nodes, [open, closed, inferred]) in [1, 2, 4].iter().zip(&sizes) {
        assert!(
            inferred < closed && closed < open,
            "{nodes} nodes: want inferred {inferred} < closed {closed} < open {open} bytes per node"
        );
    }
    for (i, format) in FORMATS.iter().enumerate() {
        let base = sizes[0][i];
        for (nodes, size) in [2, 4].iter().zip(&sizes[1..]) {
            let drift = (size[i] - base).abs() / base;
            assert!(
                drift <= 0.05,
                "{format:?}: {nodes} nodes store {} bytes per node, {:.1} % off 1 node's {base}",
                size[i],
                drift * 100.0
            );
        }
    }
}

// ---------------------------------------------------------------------
// Closed-type declarations (the paper's "closed" configuration pre-declares
// all fields; for WoS, only the homogeneous ones — §4.1)
// ---------------------------------------------------------------------

fn f(name: &str, kind: TypeKind) -> FieldDef {
    FieldDef { name: name.into(), kind, optional: false }
}

fn opt(name: &str, kind: TypeKind) -> FieldDef {
    FieldDef { name: name.into(), kind, optional: true }
}

fn s(tag: TypeTag) -> TypeKind {
    TypeKind::Scalar(tag)
}

fn arr(item: TypeKind) -> TypeKind {
    TypeKind::Array(Box::new(item))
}

fn obj(fields: Vec<FieldDef>) -> TypeKind {
    TypeKind::Object(ObjectType::closed(fields))
}

/// The fully declared tweet type. `retweeted_status` embeds one more level
/// (tweets nest one level in the generator).
pub fn twitter_closed_type() -> ObjectType {
    fn user_type() -> TypeKind {
        obj(vec![
            f("id", s(TypeTag::Int64)),
            f("id_str", s(TypeTag::String)),
            f("name", s(TypeTag::String)),
            f("screen_name", s(TypeTag::String)),
            f("followers_count", s(TypeTag::Int64)),
            f("friends_count", s(TypeTag::Int64)),
            f("listed_count", s(TypeTag::Int64)),
            f("favourites_count", s(TypeTag::Int64)),
            f("statuses_count", s(TypeTag::Int64)),
            f("created_at", s(TypeTag::String)),
            f("verified", s(TypeTag::Boolean)),
            f("geo_enabled", s(TypeTag::Boolean)),
            f("lang", s(TypeTag::String)),
            f("contributors_enabled", s(TypeTag::Boolean)),
            f("is_translator", s(TypeTag::Boolean)),
            f("profile_background_color", s(TypeTag::String)),
            f("profile_image_url", s(TypeTag::String)),
            f("profile_link_color", s(TypeTag::String)),
            f("profile_text_color", s(TypeTag::String)),
            f("profile_sidebar_fill_color", s(TypeTag::String)),
            f("profile_sidebar_border_color", s(TypeTag::String)),
            f("profile_background_tile", s(TypeTag::Boolean)),
            f("profile_use_background_image", s(TypeTag::Boolean)),
            f("default_profile", s(TypeTag::Boolean)),
            f("default_profile_image", s(TypeTag::Boolean)),
            f("protected", s(TypeTag::Boolean)),
            f("translator_type", s(TypeTag::String)),
            opt("notifications", TypeKind::Any),
            opt("follow_request_sent", TypeKind::Any),
            opt("following", TypeKind::Any),
            opt("utc_offset", s(TypeTag::Int64)),
            opt("time_zone", s(TypeTag::String)),
            opt("location", s(TypeTag::String)),
            opt("description", s(TypeTag::String)),
            opt("url", s(TypeTag::String)),
        ])
    }
    fn entities_type() -> TypeKind {
        obj(vec![
            f(
                "hashtags",
                arr(obj(vec![f("text", s(TypeTag::String)), f("indices", arr(s(TypeTag::Int64)))])),
            ),
            f(
                "urls",
                arr(obj(vec![
                    f("url", s(TypeTag::String)),
                    f("expanded_url", s(TypeTag::String)),
                    f("display_url", s(TypeTag::String)),
                    f("indices", arr(s(TypeTag::Int64))),
                ])),
            ),
            f(
                "user_mentions",
                arr(obj(vec![
                    f("screen_name", s(TypeTag::String)),
                    f("name", s(TypeTag::String)),
                    f("id", s(TypeTag::Int64)),
                    f("indices", arr(s(TypeTag::Int64))),
                ])),
            ),
            f("symbols", arr(s(TypeTag::String))),
        ])
    }
    fn place_type() -> TypeKind {
        obj(vec![
            f("id", s(TypeTag::String)),
            f("place_type", s(TypeTag::String)),
            f("name", s(TypeTag::String)),
            f("full_name", s(TypeTag::String)),
            f("country_code", s(TypeTag::String)),
            f("country", s(TypeTag::String)),
            f(
                "bounding_box",
                obj(vec![
                    f("type", s(TypeTag::String)),
                    f("coordinates", arr(arr(arr(s(TypeTag::Double))))),
                ]),
            ),
        ])
    }
    fn tweet_fields(with_retweet: bool) -> Vec<FieldDef> {
        let mut fields = vec![
            f("id", s(TypeTag::Int64)),
            f("id_str", s(TypeTag::String)),
            f("text", s(TypeTag::String)),
            f("timestamp_ms", s(TypeTag::Int64)),
            f("created_at", s(TypeTag::String)),
            f("lang", s(TypeTag::String)),
            f("source", s(TypeTag::String)),
            f("truncated", s(TypeTag::Boolean)),
            f("favorite_count", s(TypeTag::Int64)),
            f("retweet_count", s(TypeTag::Int64)),
            f("quote_count", s(TypeTag::Int64)),
            f("reply_count", s(TypeTag::Int64)),
            f("favorited", s(TypeTag::Boolean)),
            f("retweeted", s(TypeTag::Boolean)),
            f("is_quote_status", s(TypeTag::Boolean)),
            f("filter_level", s(TypeTag::String)),
            opt("geo", TypeKind::Any),
            opt("contributors", TypeKind::Any),
            f("user", user_type()),
            f("entities", entities_type()),
            opt("in_reply_to_status_id", s(TypeTag::Int64)),
            opt("in_reply_to_user_id", s(TypeTag::Int64)),
            opt("in_reply_to_screen_name", s(TypeTag::String)),
            opt("place", place_type()),
            opt(
                "coordinates",
                obj(vec![f("type", s(TypeTag::String)), f("coordinates", arr(s(TypeTag::Double)))]),
            ),
            opt("possibly_sensitive", s(TypeTag::Boolean)),
        ];
        if with_retweet {
            fields.push(opt(
                "retweeted_status",
                TypeKind::Object(ObjectType::closed(tweet_fields(false))),
            ));
        }
        fields
    }
    ObjectType::closed(tweet_fields(true))
}

/// The fully declared sensors type (perfectly regular data).
pub fn sensors_closed_type() -> ObjectType {
    ObjectType::closed(vec![
        f("id", s(TypeTag::Int64)),
        f("sensor_id", s(TypeTag::Int64)),
        f("report_time", s(TypeTag::Int64)),
        f(
            "status",
            obj(vec![
                f("battery_level", s(TypeTag::Double)),
                f("signal_strength", s(TypeTag::Double)),
                f("uptime_hours", s(TypeTag::Double)),
                f("error_count", s(TypeTag::Int64)),
            ]),
        ),
        f(
            "calibration",
            obj(vec![
                f("offset", s(TypeTag::Double)),
                f("gain", s(TypeTag::Double)),
                f("reference_temp", s(TypeTag::Double)),
                f("last_calibrated", s(TypeTag::Int64)),
                f("humidity_coeff", s(TypeTag::Double)),
            ]),
        ),
        f(
            "readings",
            arr(obj(vec![f("temp", s(TypeTag::Double)), f("timestamp", s(TypeTag::Int64))])),
        ),
    ])
}

/// WoS "closed" type: the paper could pre-declare only fields with
/// homogeneous types (§4.1; AsterixDB has no declared unions). The
/// union-typed converter artifacts (`names.name`, `addresses.address_name`,
/// `languages.language`, abstract `p`) stay undeclared: the objects holding
/// them are *open*, so those subtrees remain self-describing while
/// everything homogeneous is declared.
pub fn wos_closed_type() -> ObjectType {
    fn open_obj(fields: Vec<FieldDef>) -> TypeKind {
        TypeKind::Object(ObjectType::open(fields))
    }
    let pub_info = obj(vec![
        f("pubyear", s(TypeTag::Int64)),
        f("pubtype", s(TypeTag::String)),
        f("vol", s(TypeTag::Int64)),
        f("issue", s(TypeTag::Int64)),
        f("page", obj(vec![f("begin", s(TypeTag::Int64)), f("count", s(TypeTag::Int64))])),
    ]);
    let titles = obj(vec![f(
        "title",
        arr(obj(vec![f("type", s(TypeTag::String)), f("content", s(TypeTag::String))])),
    )]);
    // `names.name` is union-typed → only `count` declared, object open.
    let names = open_obj(vec![f("count", s(TypeTag::Int64))]);
    let summary = obj(vec![f("pub_info", pub_info), f("titles", titles), f("names", names)]);
    let category_info = obj(vec![
        f("headings", obj(vec![f("heading", s(TypeTag::String))])),
        f(
            "subjects",
            obj(vec![
                f("count", s(TypeTag::Int64)),
                f(
                    "subject",
                    arr(obj(vec![
                        f("ascatype", s(TypeTag::String)),
                        f("code", s(TypeTag::String)),
                        f("value", s(TypeTag::String)),
                    ])),
                ),
            ]),
        ),
    ]);
    // `addresses.address_name` and `languages.language` are union-typed;
    // `abstracts…p` likewise; `fund_ack` is optional — the containing
    // object stays open with only the homogeneous members declared.
    let fullrecord = open_obj(vec![f("category_info", category_info)]);
    let static_data = obj(vec![f("summary", summary), f("fullrecord_metadata", fullrecord)]);
    let dynamic_data = obj(vec![f(
        "citation_related",
        obj(vec![f(
            "tc_list",
            obj(vec![f(
                "silo_tc",
                obj(vec![f("coll_id", s(TypeTag::String)), f("local_count", s(TypeTag::Int64))]),
            )]),
        )]),
    )]);
    ObjectType::closed(vec![
        f("id", s(TypeTag::Int64)),
        f("UID", s(TypeTag::String)),
        f("static_data", static_data),
        f("dynamic_data", dynamic_data),
    ])
}
