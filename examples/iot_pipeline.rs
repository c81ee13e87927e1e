//! IoT pipeline: numeric sensor telemetry, secondary indexes, and why
//! semantic compaction beats syntactic compression on this shape of data.
//!
//! Sensor reports are numbers wrapped in repetitive structure — the regime
//! where the paper's Fig 16c shows the tuple compactor at its best (4.3×
//! over schema-less storage before any compression).
//!
//! Run with: `cargo run --release --example iot_pipeline`

use std::sync::Arc;

use asterix_tc::prelude::*;
use tc_datagen::{sensors::SensorsGen, Generator};
use tc_query::agg::Agg;
use tc_query::paper_queries as q;
use tc_query::{AccessStrategy, CmpOp, Expr, Op, ScanSpec};

fn main() -> Result<(), AdmError> {
    let n = 2000;

    // One partition with a secondary index on report_time.
    let build = |format: StorageFormat, compression: CompressionScheme| {
        let config = DatasetConfig::new("Sensors", "id")
            .with_format(format)
            .with_compression(compression)
            .with_secondary_index("report_time");
        let device = Arc::new(Device::new(DeviceProfile::NVME_SSD));
        let cache = Arc::new(BufferCache::new(8192));
        let ds = Dataset::new(config, device, cache);
        let mut gen = SensorsGen::new(7);
        let mut writer = ds.writer();
        for _ in 0..n {
            writer.insert(&gen.next_record()).expect("insert");
        }
        drop(writer);
        ds.flush().unwrap();
        ds.force_full_merge().unwrap();
        ds
    };

    println!("ingesting {n} sensor reports (118 readings each)…\n");
    println!("{:<28} {:>14}", "configuration", "on-disk bytes");
    let mut inferred_plain = None;
    for (format, compression, label) in [
        (StorageFormat::Open, CompressionScheme::None, "schema-less"),
        (StorageFormat::Open, CompressionScheme::Snappy, "schema-less + snappy"),
        (StorageFormat::Inferred, CompressionScheme::None, "compacted"),
        (StorageFormat::Inferred, CompressionScheme::Snappy, "compacted + snappy"),
    ] {
        let ds = build(format, compression);
        println!("{label:<28} {:>14}", ds.disk_bytes());
        if format == StorageFormat::Inferred && compression == CompressionScheme::None {
            inferred_plain = Some(ds);
        }
    }

    let ds = inferred_plain.expect("built above");

    // Secondary-index window query: one hour of reports.
    let start = 1_556_496_000_000i64;
    let hour = ds.secondary_range(start, start + 3_600_000)?;
    println!("\nreports in the first hour: {}", hour.len());

    // The same hour as a filtered scan: every row block carries a zone map
    // (min/max of `sensor_id` and `report_time`), so the scan reads only
    // the blocks that may hold the window.
    let in_hour = Expr::and(
        Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(start)),
        Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(start + 3_600_000)),
    );
    let count = Query {
        scan: ScanSpec {
            paths: vec![tc_adm::path::parse_path("report_time")],
            filter: Some(in_hour),
            late_paths: vec![],
            access: AccessStrategy::Consolidated,
        },
        ops: vec![Op::GroupBy { keys: vec![], aggs: vec![Agg::count_star()] }],
    };
    let res = tc_query::exec::execute(&[&ds], &count, &ExecOptions::default())?;
    let counted = res.rows[0][0].as_i64().unwrap_or(-1);
    let units: usize = ds.primary().components().iter().map(|c| c.num_units()).sum();
    println!(
        "the same hour as a filtered scan: {counted} reports, {} of {units} row blocks skipped",
        res.stats.units_skipped
    );
    if counted != hour.len() as i64 || res.stats.units_skipped == 0 {
        eprintln!("zone maps: the scan must count the index's reports and skip a block");
        std::process::exit(1);
    }

    // The paper's Q3: top sensors by average reading, via the partitioned
    // query engine.
    let res = tc_query::exec::execute(
        &[&ds],
        &q::sensors_q3(QueryOptions::default()),
        &ExecOptions::default(),
    )?;
    println!("top sensors by average temperature:");
    for row in res.rows.iter().take(5) {
        println!("  sensor {:>4}: {:.2}°", row[0].as_i64().unwrap(), row[1].as_f64().unwrap());
    }
    Ok(())
}
