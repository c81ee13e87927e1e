//! Table 2: writing tweets in Avro / Thrift BP / Thrift CP / ProtoBuf /
//! Vector-based — encoded size and construction time.
//!
//! Shape to reproduce: sizes are mostly comparable (CP smallest); Thrift is
//! fastest to construct, the vector-based format second, Avro ~2x and
//! ProtoBuf ~3x the vector-based construction time. The vector-based format
//! is the only one that needs no schema.
//!
//! Construction time is the median of a few timed passes over the batch.

use std::time::{Duration, Instant};

use tc_adm::Value;
use tc_bench::support::{banner, fmt_dur, header, row, scale};
use tc_datagen::{twitter::TwitterGen, Generator};
use tc_formats::{avro, protobuf, thrift};

const REPS: usize = 5;

/// One format: its name and an encoder returning the encoded byte count.
type Encoder = (&'static str, fn(&Value) -> usize);

const ENCODERS: [Encoder; 5] = [
    ("Avro", |r| avro::encode_record(r).expect("avro").len()),
    ("Thrift (BP)", |r| thrift::encode_binary_record(r).expect("bp").len()),
    ("Thrift (CP)", |r| thrift::encode_compact_record(r).expect("cp").len()),
    ("ProtoBuf", |r| protobuf::encode_record(r).expect("pb").len()),
    ("Vector-based", |r| tc_vector::encode(r, None).len()),
];

/// Median wall time of `REPS` passes encoding every record.
fn construction_time(records: &[Value], encode: fn(&Value) -> usize) -> Duration {
    let mut times: Vec<Duration> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(records.iter().map(encode).sum::<usize>());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[REPS / 2]
}

fn main() {
    let mut gen = TwitterGen::new(1);
    let records: Vec<Value> = (0..500 * scale()).map(|_| gen.next_record()).collect();
    let raw: usize = records.iter().map(|r| tc_adm::to_string(r).len()).sum();
    banner(
        "Table 2",
        &format!("encoding {} tweets ({raw} raw text bytes)", records.len()),
        "sizes comparable (CP smallest); Thrift fastest, vector-based second, \
         Avro ~2x and ProtoBuf ~3x the vector-based time",
    );
    header("format", &["bytes", "vs raw", "construction"]);
    for (name, encode) in ENCODERS {
        let bytes: usize = records.iter().map(encode).sum();
        row(
            name,
            &[
                bytes.to_string(),
                format!("{:.1}%", bytes as f64 / raw as f64 * 100.0),
                fmt_dur(construction_time(&records, encode)),
            ],
        );
    }
    println!(
        "\npaper Table 2 (52MB of tweets): Avro 27.5 / BP 34.3 / CP 25.9 / PB 27.2 / VB 29.5 MB"
    );
}
