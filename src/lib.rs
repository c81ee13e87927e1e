//! # asterix-tc — an LSM-based tuple compaction framework
//!
//! A from-scratch Rust reproduction of *"An LSM-based Tuple Compaction
//! Framework for Apache AsterixDB"* (PVLDB 13(9), 2020): schema inference
//! and record compaction piggybacked on LSM flush operations, so a
//! schema-less document store gets closed-schema storage economy without
//! giving up schema flexibility.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use asterix_tc::prelude::*;
//!
//! // A dataset declaring only its key — `{"tuple-compactor-enabled": true}`.
//! let config = DatasetConfig::new("Employee", "id")
//!     .with_format(StorageFormat::Inferred);
//! let device = Arc::new(Device::new(DeviceProfile::NVME_SSD));
//! let cache = Arc::new(BufferCache::new(1024));
//! let employees = Dataset::new(config, device, cache);
//!
//! // Writes go through the partition's exclusive WriterToken.
//! let mut writer = employees.writer();
//! writer.insert(&parse(r#"{"id": 0, "name": "Kim", "age": 26}"#)?)?;
//! writer.insert(&parse(r#"{"id": 1, "name": "John", "age": 22}"#)?)?;
//! drop(writer);
//! employees.flush(); // the tuple compactor infers + compacts here
//!
//! let schema = employees.schema_snapshot().unwrap();
//! assert!(schema.lookup_field(schema.root(), "name").is_some());
//! assert_eq!(employees.get(0)?.unwrap().get_field("name").unwrap().as_str(),
//!            Some("Kim"));
//! # Ok::<(), asterix_tc::prelude::AdmError>(())
//! ```
//!
//! ## Crate map
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`adm`] | value model, text syntax, declared types, baseline ADM format |
//! | [`schema`] | the counted schema tree + dictionary (§3.2) |
//! | [`vector`] | the vector-based record format (§3.3) |
//! | [`lsm`] | LSM engine: flush/merge lifecycle, WAL, recovery, indexes |
//! | [`core`] | the tuple compactor + `Dataset` API (§3.1) |
//! | [`query`] | expressions, plans, partitioned execution (§3.4) |
//! | [`cluster`] | node/partition topology, feeds, scale-out |
//! | [`datagen`] | Twitter / WoS / Sensors workload generators |
//! | [`storage`] | pages, buffer cache, LAF compression, simulated devices |
//! | [`compress`] | the Snappy block codec |

pub use tc_adm as adm;
pub use tc_cluster as cluster;
pub use tc_columnar as columnar;
pub use tc_compress as compress;
pub use tc_datagen as datagen;
pub use tc_lsm as lsm;
pub use tc_query as query;
pub use tc_schema as schema;
pub use tc_storage as storage;
pub use tc_util as util;
pub use tc_vector as vector;
pub use tuple_compactor as core;

/// Everything a typical user needs.
pub mod prelude {
    pub use tc_adm::{parse, to_string, AdmError, ObjectType, TypeKind, TypeTag, Value};
    pub use tc_cluster::{Cluster, ClusterConfig, FeedMode};
    pub use tc_compress::CompressionScheme;
    pub use tc_lsm::{CompactionDecision, LsmStats, MergePolicy};
    pub use tc_query::exec::{execute, Engine, ExecOptions};
    pub use tc_query::plan::{Query, QueryOptions};
    pub use tc_storage::device::{Device, DeviceProfile};
    pub use tc_storage::BufferCache;
    pub use tuple_compactor::{Dataset, DatasetConfig, StorageFormat, TupleCompactor, WriterToken};
}
