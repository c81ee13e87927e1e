//! Dataset configuration.

use tc_adm::datatype::{FieldDef, ObjectType};
use tc_adm::{TypeKind, TypeTag};
use tc_compress::CompressionScheme;
use tc_lsm::MergePolicy;

/// The storage formats the paper's evaluation compares (§4, "Schema
/// Configuration").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFormat {
    /// ADM physical format, only the primary key declared. Records are
    /// self-describing — "similar to what schema-less NoSQL systems like
    /// MongoDB and Couchbase do for storage".
    Open,
    /// ADM physical format with all fields pre-declared in the catalog.
    Closed,
    /// Vector-based format with the tuple compactor enabled
    /// (`{"tuple-compactor-enabled": true}`, Fig 8).
    Inferred,
    /// Vector-based format *without* inference/compaction — the schema-less
    /// vector-based ("SL-VB") ablation of Fig 21.
    VectorUncompacted,
    /// AMAX-style columnar layout (the successor paper's format): records
    /// ingest as vector records and the tuple compactor infers their schema
    /// exactly as for `Inferred`, but flush and merge shred them into typed
    /// column pages (`tc_columnar`). Scans fault in only the columns they
    /// touch and skip row groups via per-column min/max stats.
    Columnar,
}

impl StorageFormat {
    pub fn name(&self) -> &'static str {
        match self {
            StorageFormat::Open => "open",
            StorageFormat::Closed => "closed",
            StorageFormat::Inferred => "inferred",
            StorageFormat::VectorUncompacted => "sl-vb",
            StorageFormat::Columnar => "amax",
        }
    }

    /// Does the tuple compactor run for this format? Schema inference
    /// drives both compacted vector records (`Inferred`) and the columnar
    /// shredder (`Columnar`).
    pub fn is_inferred(&self) -> bool {
        matches!(self, StorageFormat::Inferred | StorageFormat::Columnar)
    }
}

/// Everything needed to create a dataset on a partition.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    pub name: String,
    /// Root field holding the primary key; must be integer-valued.
    pub primary_key: String,
    /// The declared type. For `Open`/`Inferred` this usually declares only
    /// the primary key; for `Closed` it declares everything.
    pub datatype: ObjectType,
    pub format: StorageFormat,
    pub compression: CompressionScheme,
    pub page_size: usize,
    pub memtable_budget: usize,
    pub merge_policy: MergePolicy,
    pub wal_enabled: bool,
    /// Maintain a keys-only primary-key index (upsert fast path, §3.2.2).
    pub primary_key_index: bool,
    /// Maintain a secondary index on this i64-valued root field (Fig 24's
    /// timestamp index).
    pub secondary_index_on: Option<String>,
    /// Bloom filter budget for point lookups.
    pub bloom_bits_per_key: usize,
    /// Run flushes and the merge policy on a background maintenance worker
    /// instead of inline on the writing thread. Writers then never stall on
    /// flush/merge work; readers keep full access throughout (the paper's
    /// "free" piggybacked compaction actually leaves the write path).
    pub background_maintenance: bool,
    /// Verify per-page checksums on every component read (and stamp them on
    /// every write). On by default; disable only to measure the checksum
    /// overhead itself (perfbench reports its cost as
    /// `util.crc_ns_per_page`).
    pub integrity: bool,
}

impl DatasetConfig {
    /// A config with the paper's defaults, declaring only the primary key
    /// (the open/inferred "CREATE TYPE ... AS OPEN { id: int }" shape,
    /// Fig 8).
    pub fn new(name: impl Into<String>, primary_key: impl Into<String>) -> Self {
        let primary_key = primary_key.into();
        let datatype = ObjectType::open(vec![FieldDef {
            name: primary_key.clone(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }]);
        DatasetConfig {
            name: name.into(),
            primary_key,
            datatype,
            format: StorageFormat::Inferred,
            compression: CompressionScheme::None,
            page_size: 32 * 1024,
            memtable_budget: 4 * 1024 * 1024,
            merge_policy: MergePolicy::Prefix {
                max_mergeable_size: 64 * 1024 * 1024,
                max_tolerable_components: 5,
            },
            wal_enabled: true,
            primary_key_index: false,
            secondary_index_on: None,
            bloom_bits_per_key: 10,
            background_maintenance: false,
            integrity: true,
        }
    }

    pub fn with_format(mut self, format: StorageFormat) -> Self {
        self.format = format;
        self
    }

    pub fn with_compression(mut self, scheme: CompressionScheme) -> Self {
        self.compression = scheme;
        self
    }

    /// Use a fully-declared type (the closed configuration).
    pub fn with_datatype(mut self, datatype: ObjectType) -> Self {
        self.datatype = datatype;
        self
    }

    pub fn with_memtable_budget(mut self, bytes: usize) -> Self {
        self.memtable_budget = bytes;
        self
    }

    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Select the compaction strategy. The registry spans the design space
    /// of "Constructing and Analyzing the LSM Compaction Design Space":
    /// `Prefix` (the paper's default), `Constant`, `NoMerge`, `Leveled`,
    /// `Tiered`, `LazyLeveled`, and the lossy `Fifo` retirement policy;
    /// `MergePolicy::matrix` lists each one with bench-scale knobs.
    pub fn with_merge_policy(mut self, policy: MergePolicy) -> Self {
        self.merge_policy = policy;
        self
    }

    pub fn with_primary_key_index(mut self, enabled: bool) -> Self {
        self.primary_key_index = enabled;
        self
    }

    pub fn with_secondary_index(mut self, field: impl Into<String>) -> Self {
        self.secondary_index_on = Some(field.into());
        self
    }

    pub fn with_wal(mut self, enabled: bool) -> Self {
        self.wal_enabled = enabled;
        self
    }

    pub fn with_background_maintenance(mut self, enabled: bool) -> Self {
        self.background_maintenance = enabled;
        self
    }

    pub fn with_integrity_checks(mut self, enabled: bool) -> Self {
        self.integrity = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_declares_only_pk() {
        let c = DatasetConfig::new("Employee", "id");
        assert_eq!(c.datatype.fields.len(), 1);
        assert_eq!(c.datatype.fields[0].name, "id");
        assert!(c.datatype.is_open);
        assert_eq!(c.format, StorageFormat::Inferred);
    }

    #[test]
    fn builder_chains() {
        let c = DatasetConfig::new("d", "id")
            .with_format(StorageFormat::Open)
            .with_compression(CompressionScheme::Snappy)
            .with_primary_key_index(true)
            .with_secondary_index("timestamp_ms")
            .with_background_maintenance(true)
            .with_integrity_checks(false);
        assert_eq!(c.format, StorageFormat::Open);
        assert_eq!(c.compression, CompressionScheme::Snappy);
        assert!(c.primary_key_index);
        assert_eq!(c.secondary_index_on.as_deref(), Some("timestamp_ms"));
        assert!(c.background_maintenance);
        assert!(!c.integrity);
    }

    /// Every policy in the registry configures a dataset and keeps its
    /// name; the seven names are distinct.
    #[test]
    fn merge_policy_registry_configures_datasets() {
        let mut names = Vec::new();
        for policy in MergePolicy::matrix() {
            let c = DatasetConfig::new("d", "id").with_merge_policy(policy);
            assert_eq!(c.merge_policy, policy);
            names.push(c.merge_policy.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7, "registry names must be distinct");
    }

    #[test]
    fn format_classification() {
        assert!(StorageFormat::Inferred.is_inferred());
        assert!(StorageFormat::Columnar.is_inferred());
        assert!(!StorageFormat::VectorUncompacted.is_inferred());
        assert_eq!(StorageFormat::VectorUncompacted.name(), "sl-vb");
        assert_eq!(StorageFormat::Columnar.name(), "amax");
    }
}
