//! Seeded workload generators matching the paper's dataset shapes (Table 1).
//!
//! The paper ingests a replicated Twitter API sample, the Web of Science
//! dump, and a synthetic sensors dataset. The tuple compactor's scope is
//! record *metadata*, not values (§4.1), so what the generators must match
//! is each dataset's structural profile: scalar-count distribution, nesting
//! depth, field-name-to-value size ratio, dominant type, optional-field
//! sparsity, and — for WoS — union-typed fields. The Twitter and WoS dumps
//! are licensed data that the repository cannot ship, so generators stand
//! in for all three datasets.
//!
//! All generators are deterministic in their seed.

pub mod sensors;
pub mod twitter;
pub mod updates;
pub mod wide;
pub mod wos;

use tc_adm::Value;

/// A deterministic record stream.
pub trait Generator {
    /// Dataset name (Table 1 row).
    fn name(&self) -> &'static str;
    /// Produce the next record. Primary keys are sequential and unique.
    fn next_record(&mut self) -> Value;
}

/// Structural statistics of a generated sample — the Table 1 columns.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    pub name: &'static str,
    pub records: usize,
    pub avg_text_bytes: usize,
    pub scalar_min: usize,
    pub scalar_max: usize,
    pub scalar_avg: usize,
    pub max_depth: usize,
    pub dominant_type: String,
}

/// Compute Table 1 statistics over `n` records from a generator.
pub fn dataset_stats<G: Generator>(gen: &mut G, n: usize) -> DatasetStats {
    let mut total_bytes = 0usize;
    let mut scalar_min = usize::MAX;
    let mut scalar_max = 0usize;
    let mut scalar_sum = 0usize;
    let mut max_depth = 0usize;
    let mut type_counts: std::collections::HashMap<String, usize> = Default::default();
    for _ in 0..n {
        let r = gen.next_record();
        total_bytes += tc_adm::to_string(&r).len();
        let s = r.count_scalars();
        scalar_min = scalar_min.min(s);
        scalar_max = scalar_max.max(s);
        scalar_sum += s;
        max_depth = max_depth.max(r.max_depth());
        if let Some(t) = r.dominant_scalar_type() {
            *type_counts.entry(t.name().to_string()).or_default() += 1;
        }
    }
    let dominant_type =
        type_counts.into_iter().max_by_key(|(_, c)| *c).map(|(t, _)| t).unwrap_or_default();
    DatasetStats {
        name: gen.name(),
        records: n,
        avg_text_bytes: total_bytes / n.max(1),
        scalar_min,
        scalar_max,
        scalar_avg: scalar_sum / n.max(1),
        max_depth,
        dominant_type,
    }
}

/// Shared word pool for synthetic text.
pub(crate) const WORDS: &[&str] = &[
    "data",
    "system",
    "storage",
    "query",
    "flush",
    "merge",
    "record",
    "schema",
    "nested",
    "value",
    "index",
    "stream",
    "cloud",
    "team",
    "launch",
    "update",
    "great",
    "today",
    "working",
    "remote",
    "coffee",
    "morning",
    "project",
    "release",
    "performance",
    "deep",
    "model",
    "paper",
    "result",
    "amazing",
    "build",
    "deploy",
    "cluster",
    "node",
    "batch",
];

/// Hashtag pool; "jobs" is the tag Twitter Q3 filters on.
pub(crate) const HASHTAGS: &[&str] = &[
    "jobs",
    "Jobs",
    "hiring",
    "tech",
    "rust",
    "database",
    "bigdata",
    "nosql",
    "json",
    "analytics",
    "career",
    "startup",
    "ai",
    "cloud",
    "devops",
];

pub(crate) const COUNTRIES: &[&str] = &[
    "USA",
    "China",
    "Germany",
    "England",
    "Japan",
    "France",
    "Canada",
    "South Korea",
    "Australia",
    "Italy",
    "Spain",
    "Netherlands",
    "India",
    "Brazil",
    "Switzerland",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::SensorsGen;
    use crate::twitter::TwitterGen;
    use crate::wos::WosGen;

    #[test]
    fn generators_are_deterministic() {
        let mut a = TwitterGen::new(42);
        let mut b = TwitterGen::new(42);
        for _ in 0..20 {
            assert_eq!(a.next_record(), b.next_record());
        }
        let mut c = TwitterGen::new(43);
        assert_ne!(a.next_record(), c.next_record());
    }

    #[test]
    fn table1_shapes_roughly_match() {
        let stats = dataset_stats(&mut TwitterGen::new(1), 200);
        // Twitter: string-dominant, deep (paper: depth 8, ~88 scalars avg).
        assert!(stats.max_depth >= 6, "twitter depth {}", stats.max_depth);
        assert!((40..=160).contains(&stats.scalar_avg), "twitter scalars {}", stats.scalar_avg);
        assert_eq!(stats.dominant_type, "string");

        let stats = dataset_stats(&mut WosGen::new(1), 100);
        assert!(stats.max_depth >= 6, "wos depth {}", stats.max_depth);
        assert_eq!(stats.dominant_type, "string");
        assert!(stats.scalar_max > 2 * stats.scalar_min, "wos is irregular");

        let stats = dataset_stats(&mut SensorsGen::new(1), 50);
        // Sensors: numeric-dominant, shallow, fixed shape (248 scalars).
        assert_eq!(stats.max_depth, 3, "sensors depth");
        assert_eq!(stats.scalar_min, stats.scalar_max, "sensors are regular");
        assert_eq!(stats.scalar_avg, 248, "sensors scalar count");
        assert_eq!(stats.dominant_type, "double");
    }

    #[test]
    fn primary_keys_are_sequential() {
        let mut g = TwitterGen::new(7);
        for expect in 0..50i64 {
            let r = g.next_record();
            assert_eq!(r.get_field("id").unwrap().as_i64(), Some(expect));
        }
    }
}
