//! Merge policies (paper §2.2, [19, 29]) and the compaction design space.
//!
//! The paper's ingestion experiments use AsterixDB's default *prefix* merge
//! policy with a maximum mergeable component size and a maximum tolerable
//! component count (§4.3: 1 GB / 5 components). Following "Constructing and
//! Analyzing the LSM Compaction Design Space" (PAPERS.md), the policy is a
//! set of knobs over one decision, not a hardcoded strategy. [`MergePolicy`]
//! is that decision: a small `Copy` enum that lives in `LsmOptions` /
//! `DatasetConfig`, names a policy plus its knobs, and maps the byte sizes
//! of the on-disk components (oldest → newest) to a [`CompactionDecision`]
//! — do nothing, merge a range of runs, or retire an oldest prefix
//! (FIFO/TTL). The registry ([`MergePolicy::matrix`]) makes the whole space
//! iterable by a test harness or an ablation bench.
//!
//! Decisions are pure functions of the size list: same input, same pick
//! (the policy-matrix tests rely on this determinism). A pick is a range of
//! adjacent runs; the tree drops anti-matter only when the range starts at
//! the oldest run (§2.2).

use std::ops::Range;

/// Why a merge fired — indexes the `merges_by_trigger` stats array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeTrigger {
    /// Too many mergeable components accumulated (prefix/constant, and the
    /// leveled L0 rule).
    ComponentCount = 0,
    /// A run grew into its older neighbor's size class (leveled invariant:
    /// one run per level).
    LevelOverflow = 1,
    /// A size tier filled up to its run quota (tiered, and the lazy-leveled
    /// L0 rule).
    TierFull = 2,
    /// Explicitly requested (`force_full_merge` / `merge`).
    Manual = 3,
}

/// Number of [`MergeTrigger`] variants (length of `merges_by_trigger`).
pub const NUM_MERGE_TRIGGERS: usize = 4;

impl MergeTrigger {
    pub const ALL: [MergeTrigger; NUM_MERGE_TRIGGERS] = [
        MergeTrigger::ComponentCount,
        MergeTrigger::LevelOverflow,
        MergeTrigger::TierFull,
        MergeTrigger::Manual,
    ];

    pub fn label(self) -> &'static str {
        match self {
            MergeTrigger::ComponentCount => "component_count",
            MergeTrigger::LevelOverflow => "level_overflow",
            MergeTrigger::TierFull => "tier_full",
            MergeTrigger::Manual => "manual",
        }
    }
}

/// Adjacent runs to merge: a range (oldest → newest) of at least two runs
/// in the run list the policy decided over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePick {
    pub range: Range<usize>,
    pub trigger: MergeTrigger,
}

/// What the policy wants done to the current run list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionDecision {
    /// Nothing to do.
    None,
    /// Merge the picked runs into one.
    Merge(MergePick),
    /// Drop the oldest `n` runs without reading them (FIFO/TTL). Only an
    /// oldest *prefix* may be retired: dropping a middle run could let
    /// surviving anti-matter annihilate nothing while older record
    /// versions resurrect.
    Retire(usize),
}

fn merge(range: Range<usize>, trigger: MergeTrigger) -> CompactionDecision {
    CompactionDecision::Merge(MergePick { range, trigger })
}

/// When and what to merge: a policy plus its knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Merge the run of newest components, each smaller than
    /// `max_mergeable_size`, once more than `max_tolerable_components` of
    /// them accumulate (AsterixDB's default, paper §4.3).
    Prefix { max_mergeable_size: u64, max_tolerable_components: usize },
    /// Merge everything whenever more than `max_components` exist — except
    /// an oldest prefix of components that each outweigh everything newer
    /// combined (rewriting a dominating giant for no count benefit is
    /// quadratic-in-bytes work; see `constant_policy_caps_oversized`).
    Constant { max_components: usize },
    /// Never merge (bulk-load / ablation).
    NoMerge,
    /// Size-ratio levels with one run per level below L0: flushed runs
    /// collect in level 0 (≤ `base_bytes`); more than `level0_components`
    /// of them merge down into the adjacent older run, and a run that
    /// grows into its older neighbor's size class merges with it.
    Leveled { level0_components: usize, base_bytes: u64, fanout: u64 },
    /// Size-tiered runs: contiguous runs of the same size class (classes
    /// grow by `size_ratio` from `base_bytes`) merge once `min_tier_runs`
    /// of them accumulate, newest tier first.
    Tiered { base_bytes: u64, size_ratio: u64, min_tier_runs: usize },
    /// Lazy leveling: tiered at L0 (merge the newest suffix of base-class
    /// runs once `tier_runs` accumulate), leveled below (one run per
    /// level).
    LazyLeveled { tier_runs: usize, base_bytes: u64, fanout: u64 },
    /// FIFO/TTL: never merge; retire the oldest runs once more than
    /// `max_components` runs or `max_total_bytes` bytes accumulate.
    /// Deliberately lossy — retired data is gone.
    Fifo { max_components: usize, max_total_bytes: u64 },
}

impl MergePolicy {
    /// The paper's feed-ingestion configuration, scaled: 1 GB max mergeable,
    /// 5 tolerable components (§4.3).
    pub fn paper_default(max_mergeable_size: u64) -> Self {
        MergePolicy::Prefix { max_mergeable_size, max_tolerable_components: 5 }
    }

    /// Registry name.
    pub fn name(&self) -> &'static str {
        match self {
            MergePolicy::Prefix { .. } => "prefix",
            MergePolicy::Constant { .. } => "constant",
            MergePolicy::NoMerge => "nomerge",
            MergePolicy::Leveled { .. } => "leveled",
            MergePolicy::Tiered { .. } => "tiered",
            MergePolicy::LazyLeveled { .. } => "lazy-leveled",
            MergePolicy::Fifo { .. } => "fifo",
        }
    }

    /// Every registered policy with bench-scale default knobs — the
    /// policy-matrix tests and the compaction ablation iterate this. The
    /// FIFO entry's caps are unreachable — it gets TTL *semantics* without
    /// silently dropping data; set real caps explicitly when loss is
    /// intended.
    pub fn matrix() -> Vec<MergePolicy> {
        const BASE: u64 = 256 * 1024;
        vec![
            MergePolicy::Prefix {
                max_mergeable_size: 32 * 1024 * 1024,
                max_tolerable_components: 5,
            },
            MergePolicy::Constant { max_components: 5 },
            MergePolicy::NoMerge,
            MergePolicy::Leveled { level0_components: 4, base_bytes: BASE, fanout: 4 },
            MergePolicy::Tiered { base_bytes: BASE, size_ratio: 4, min_tier_runs: 4 },
            MergePolicy::LazyLeveled { tier_runs: 4, base_bytes: BASE, fanout: 4 },
            MergePolicy::Fifo { max_components: usize::MAX, max_total_bytes: u64::MAX },
        ]
    }

    /// Decide over `runs`, the byte sizes of the on-disk components (oldest
    /// → newest). A merge pick spans ≥ 2 in-bounds runs and a retire count
    /// is ≥ 1 and ≤ `runs.len()`, so applying decisions reaches
    /// [`CompactionDecision::None`] within `runs.len()` rounds — the tree
    /// re-decides until it does.
    pub fn decide(&self, runs: &[u64]) -> CompactionDecision {
        match *self {
            MergePolicy::Prefix { max_mergeable_size, max_tolerable_components } => {
                // Walk from the newest end, collecting small components.
                let run = runs.iter().rev().take_while(|&&b| b <= max_mergeable_size).count();
                if run > max_tolerable_components && run >= 2 {
                    return merge(runs.len() - run..runs.len(), MergeTrigger::ComponentCount);
                }
            }
            MergePolicy::Constant { max_components } => {
                // Skip an oldest prefix of runs that each outweigh everything
                // newer combined: merging such a giant rewrites almost all
                // its bytes to reduce the component count by at most the
                // same amount as merging only the newer runs.
                let mut start = 0usize;
                while start < runs.len() {
                    let newer: u64 = runs[start + 1..].iter().sum();
                    if runs[start] > newer && newer > 0 {
                        start += 1;
                    } else {
                        break;
                    }
                }
                let n = runs.len() - start;
                if n > max_components && n >= 2 {
                    return merge(start..runs.len(), MergeTrigger::ComponentCount);
                }
            }
            MergePolicy::NoMerge => {}
            MergePolicy::Leveled { level0_components, base_bytes, fanout } => {
                // L0 rule: flushed runs collect in the base size class at the
                // newest end; once more than `level0_components` accumulate,
                // merge them down into the adjacent older run (classic
                // L0 → L1 push).
                let classes = SizeClasses::new(base_bytes, fanout);
                let l0 = classes.level0_runs(runs);
                if l0 > level0_components && l0 >= 2 {
                    let start = (runs.len() - l0).saturating_sub(1);
                    return merge(start..runs.len(), MergeTrigger::ComponentCount);
                }
                return classes.level_overflow(runs);
            }
            MergePolicy::Tiered { base_bytes, size_ratio, min_tier_runs } => {
                // Scan newest → oldest, grouping contiguous same-class runs;
                // the newest full tier merges (into a run of the next class
                // up).
                let classes = SizeClasses::new(base_bytes, size_ratio);
                let mut end = runs.len();
                while end > 0 {
                    let class = classes.class(runs[end - 1]);
                    let mut start = end - 1;
                    while start > 0 && classes.class(runs[start - 1]) == class {
                        start -= 1;
                    }
                    if end - start >= min_tier_runs && end - start >= 2 {
                        return merge(start..end, MergeTrigger::TierFull);
                    }
                    end = start;
                }
            }
            MergePolicy::LazyLeveled { tier_runs, base_bytes, fanout } => {
                // Tiered at L0: merge the newest suffix of base-class runs
                // once `tier_runs` accumulate (without pulling in the older
                // run — that's the "lazy" part). Leveled below.
                let classes = SizeClasses::new(base_bytes, fanout);
                let l0 = classes.level0_runs(runs);
                if l0 >= tier_runs && l0 >= 2 {
                    return merge(runs.len() - l0..runs.len(), MergeTrigger::TierFull);
                }
                return classes.level_overflow(runs);
            }
            MergePolicy::Fifo { max_components, max_total_bytes } => {
                let mut count = runs.len();
                let mut bytes: u64 = runs.iter().sum();
                let mut drop = 0usize;
                while drop < runs.len() && (count > max_components || bytes > max_total_bytes) {
                    bytes -= runs[drop];
                    count -= 1;
                    drop += 1;
                }
                if drop > 0 {
                    return CompactionDecision::Retire(drop);
                }
            }
        }
        CompactionDecision::None
    }

    /// Level assignment per run (for the per-level component-count stats):
    /// the size class for the size-class policies, level 0 for the rest.
    pub fn levels(&self, runs: &[u64]) -> Vec<u32> {
        match *self {
            MergePolicy::Leveled { base_bytes, fanout, .. }
            | MergePolicy::LazyLeveled { base_bytes, fanout, .. }
            | MergePolicy::Tiered { base_bytes, size_ratio: fanout, .. } => {
                let classes = SizeClasses::new(base_bytes, fanout);
                runs.iter().map(|&bytes| classes.class(bytes)).collect()
            }
            MergePolicy::Prefix { .. }
            | MergePolicy::Constant { .. }
            | MergePolicy::NoMerge
            | MergePolicy::Fifo { .. } => vec![0; runs.len()],
        }
    }
}

/// Geometric size classes: class 0 holds runs ≤ `base_bytes`, class *k*
/// holds runs ≤ `base_bytes · ratio^k`.
#[derive(Debug, Clone, Copy)]
struct SizeClasses {
    base_bytes: u64,
    ratio: u64,
}

impl SizeClasses {
    fn new(base_bytes: u64, ratio: u64) -> Self {
        SizeClasses { base_bytes: base_bytes.max(1), ratio: ratio.max(2) }
    }

    fn class(&self, bytes: u64) -> u32 {
        let mut cap = self.base_bytes;
        let mut class = 0u32;
        while bytes > cap {
            class += 1;
            cap = cap.saturating_mul(self.ratio);
        }
        class
    }

    /// How many of the newest runs sit in the base class (level 0).
    fn level0_runs(&self, runs: &[u64]) -> usize {
        runs.iter().rev().take_while(|&&bytes| self.class(bytes) == 0).count()
    }

    /// One run per level below L0: the newest run that has grown into (or
    /// past) its older neighbor's size class merges with it.
    fn level_overflow(&self, runs: &[u64]) -> CompactionDecision {
        let overflow = runs.windows(2).rposition(|pair| {
            let newer = self.class(pair[1]);
            newer > 0 && newer >= self.class(pair[0])
        });
        overflow.map_or(CompactionDecision::None, |i| merge(i..i + 2, MergeTrigger::LevelOverflow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::component::{ComponentBuilder, ComponentId};
    use crate::entry::EntryKind;
    use tc_compress::CompressionScheme;
    use tc_storage::device::{Device, DeviceProfile};

    /// The on-disk size of a real component with approximately `kb`
    /// kilobytes of payload (most tests below use bare sizes).
    fn comp(seq: u64, kb: usize) -> u64 {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b = ComponentBuilder::new(device, 1024, CompressionScheme::None, kb, 10, None);
        for i in 0..kb {
            let key = ((seq << 32) + i as u64).to_be_bytes();
            b.push(&key, EntryKind::Record, &[0u8; 1024]).unwrap();
        }
        b.finish(ComponentId::flushed(seq), true).unwrap().disk_bytes()
    }

    /// Run sizes in bytes, given in kilobytes.
    fn sizes(sizes_kb: &[u64]) -> Vec<u64> {
        sizes_kb.iter().map(|kb| kb * 1024).collect()
    }

    fn merge_of(d: CompactionDecision) -> MergePick {
        match d {
            CompactionDecision::Merge(p) => p,
            other => panic!("expected a merge, got {other:?}"),
        }
    }

    #[test]
    fn no_merge_never_fires() {
        let comps: Vec<_> = (0..10).map(|i| comp(i, 1)).collect();
        assert_eq!(MergePolicy::NoMerge.decide(&comps), CompactionDecision::None);
    }

    #[test]
    fn constant_policy_merges_everything_over_threshold() {
        let p = MergePolicy::Constant { max_components: 4 };
        assert_eq!(p.decide(&sizes(&[1; 4])), CompactionDecision::None);
        assert_eq!(merge_of(p.decide(&sizes(&[1; 5]))).range, 0..5);
    }

    #[test]
    fn prefix_policy_skips_large_components() {
        // One large old component + 6 small new ones: merge only the small
        // run (verified through real component sizes).
        let mut comps = vec![comp(0, 300)]; // ~300 KB
        for i in 1..7 {
            comps.push(comp(i, 1));
        }
        let p = MergePolicy::Prefix { max_mergeable_size: 100 * 1024, max_tolerable_components: 5 };
        assert_eq!(merge_of(p.decide(&comps)).range, 1..7);
    }

    #[test]
    fn prefix_policy_waits_for_tolerable_count() {
        let p = MergePolicy::Prefix { max_mergeable_size: 100 * 1024, max_tolerable_components: 5 };
        assert_eq!(p.decide(&sizes(&[1; 5])), CompactionDecision::None, "5 are tolerable");
        let pick = merge_of(p.decide(&sizes(&[1; 6])));
        assert_eq!(pick.range, 0..6);
        assert_eq!(pick.trigger, MergeTrigger::ComponentCount);
    }

    // ---- decide edge cases, per policy: empty and singleton lists ----

    #[test]
    fn empty_and_singleton_lists_never_fire() {
        for policy in MergePolicy::matrix() {
            assert_eq!(policy.decide(&[]), CompactionDecision::None, "{policy:?} on empty");
            assert_eq!(
                policy.decide(&sizes(&[10_000])),
                CompactionDecision::None,
                "{policy:?} on singleton"
            );
        }
        // Even a FIFO whose caps a single run exceeds must not fire on a
        // count cap of ≥ 1...
        let fifo = MergePolicy::Fifo { max_components: 1, max_total_bytes: u64::MAX };
        assert_eq!(fifo.decide(&sizes(&[5])), CompactionDecision::None);
        // ...but a byte cap genuinely below the singleton retires it (TTL
        // semantics: the data is expired, however little remains).
        let fifo = MergePolicy::Fifo { max_components: usize::MAX, max_total_bytes: 1024 };
        assert_eq!(fifo.decide(&sizes(&[5])), CompactionDecision::Retire(1));
    }

    // ---- exact threshold boundaries ----

    #[test]
    fn leveled_l0_threshold_boundary() {
        let p = MergePolicy::Leveled { level0_components: 3, base_bytes: 64 * 1024, fanout: 4 };
        // Three base-class runs: tolerable.
        assert_eq!(p.decide(&sizes(&[10, 10, 10])), CompactionDecision::None);
        // Four: merge all of L0 (no older run to push into).
        assert_eq!(merge_of(p.decide(&sizes(&[10, 10, 10, 10]))).range, 0..4);
        // Four plus an older big run: the push-down includes the neighbor.
        let pick = merge_of(p.decide(&sizes(&[500, 10, 10, 10, 10])));
        assert_eq!(pick.range, 0..5);
        assert_eq!(pick.trigger, MergeTrigger::ComponentCount);
    }

    #[test]
    fn leveled_level_overflow_fires_on_class_collision() {
        let p = MergePolicy::Leveled { level0_components: 3, base_bytes: 64 * 1024, fanout: 4 };
        // Classes: 64K base, 256K level 1, 1M level 2. A 200K run next to
        // an older 250K run — both level 1 — violates one-run-per-level.
        let pick = merge_of(p.decide(&sizes(&[250, 200, 10])));
        assert_eq!(pick.range, 0..2);
        assert_eq!(pick.trigger, MergeTrigger::LevelOverflow);
        // Strictly decreasing classes oldest → newest is stable.
        assert_eq!(p.decide(&sizes(&[2000, 250, 10])), CompactionDecision::None);
    }

    #[test]
    fn tiered_tier_boundary() {
        let p = MergePolicy::Tiered { base_bytes: 64 * 1024, size_ratio: 4, min_tier_runs: 3 };
        assert_eq!(p.decide(&sizes(&[10, 10])), CompactionDecision::None);
        let pick = merge_of(p.decide(&sizes(&[10, 10, 10])));
        assert_eq!(pick.range, 0..3);
        assert_eq!(pick.trigger, MergeTrigger::TierFull);
        // The newest full tier wins even when an older tier is also full.
        let pick = merge_of(p.decide(&sizes(&[200, 200, 200, 10, 10, 10])));
        assert_eq!(pick.range, 3..6);
    }

    #[test]
    fn tiered_merges_older_full_tier_when_newest_is_partial() {
        let p = MergePolicy::Tiered { base_bytes: 64 * 1024, size_ratio: 4, min_tier_runs: 3 };
        let pick = merge_of(p.decide(&sizes(&[200, 200, 200, 10, 10])));
        assert_eq!(pick.range, 0..3);
    }

    #[test]
    fn lazy_leveled_tiers_l0_and_levels_the_rest() {
        let p = MergePolicy::LazyLeveled { tier_runs: 3, base_bytes: 64 * 1024, fanout: 4 };
        // L0 tier fills: merge only the base-class suffix, not the older run.
        let pick = merge_of(p.decide(&sizes(&[500, 10, 10, 10])));
        assert_eq!(pick.range, 1..4);
        assert_eq!(pick.trigger, MergeTrigger::TierFull);
        // Below L0, the leveled pair rule applies.
        let pick = merge_of(p.decide(&sizes(&[250, 200, 10])));
        assert_eq!(pick.range, 0..2);
        assert_eq!(pick.trigger, MergeTrigger::LevelOverflow);
    }

    #[test]
    fn fifo_count_and_byte_caps() {
        let p = MergePolicy::Fifo { max_components: 3, max_total_bytes: u64::MAX };
        assert_eq!(p.decide(&sizes(&[1, 1, 1])), CompactionDecision::None);
        assert_eq!(p.decide(&sizes(&[1, 1, 1, 1])), CompactionDecision::Retire(1));
        assert_eq!(p.decide(&sizes(&[1, 1, 1, 1, 1, 1])), CompactionDecision::Retire(3));
        let p = MergePolicy::Fifo { max_components: usize::MAX, max_total_bytes: 64 * 1024 };
        // 10 + 30 + 30 KB = 70 KB > 64 KB: dropping the oldest 10 KB run
        // gets back under the cap.
        assert_eq!(p.decide(&sizes(&[10, 30, 30])), CompactionDecision::Retire(1));
        // 10 + 30 + 40 KB = 80 KB: the oldest drop isn't enough, the 30 KB
        // run goes too.
        assert_eq!(p.decide(&sizes(&[10, 30, 40])), CompactionDecision::Retire(2));
    }

    // ---- one oversized component mid-run ----

    #[test]
    fn oversized_component_mid_run() {
        let runs = sizes(&[1, 1, 5000, 1, 1, 1, 1, 1, 1]);
        // Prefix: the small-component run stops at the giant.
        let p = MergePolicy::Prefix { max_mergeable_size: 100 * 1024, max_tolerable_components: 5 };
        assert_eq!(merge_of(p.decide(&runs)).range, 3..9);
        // Constant: a mid-run giant is *not* a dominating prefix — the
        // documented semantics merge everything, giant included.
        let p = MergePolicy::Constant { max_components: 5 };
        assert_eq!(merge_of(p.decide(&runs)).range.len(), 9);
        // Leveled: the giant is simply a higher level; L0 counting stops at
        // it only positionally (it sits below the L0 suffix).
        let p = MergePolicy::Leveled { level0_components: 5, base_bytes: 64 * 1024, fanout: 4 };
        assert_eq!(merge_of(p.decide(&runs)).range, 2..9);
        // Tiered: the giant splits the base tier; only the newest
        // contiguous group counts.
        let p = MergePolicy::Tiered { base_bytes: 64 * 1024, size_ratio: 4, min_tier_runs: 4 };
        assert_eq!(merge_of(p.decide(&runs)).range, 3..9);
    }

    // ---- satellite fix: Constant vs a dominating giant ----

    #[test]
    fn constant_policy_caps_oversized() {
        // A 5 MB component followed by six 1 KB runs: the old behavior
        // merged 0..7, rewriting 5 MB to collapse 6 KB. The giant now stays
        // out of the pick.
        let runs = sizes(&[5000, 1, 1, 1, 1, 1, 1]);
        let p = MergePolicy::Constant { max_components: 5 };
        let pick = merge_of(p.decide(&runs));
        assert_eq!(pick.range, 1..7, "the giant survives, so anti-matter must be kept");
        // Two stacked giants are both skipped.
        let runs = sizes(&[20_000, 5000, 1, 1, 1, 1, 1, 1]);
        assert_eq!(merge_of(p.decide(&runs)).range, 2..8);
        // A giant that no longer dominates (enough new data accumulated)
        // is merged again — the cap is about proportion, not size.
        let runs = sizes(&[5000, 2000, 2000, 2000, 1, 1]);
        assert_eq!(merge_of(p.decide(&runs)).range.len(), 6);
    }

    // ---- determinism: same input, same pick ----

    #[test]
    fn decisions_are_deterministic() {
        let runs = sizes(&[900, 300, 300, 40, 10, 5, 5, 5, 5]);
        for policy in MergePolicy::matrix() {
            let first = policy.decide(&runs);
            for _ in 0..10 {
                assert_eq!(policy.decide(&runs), first, "{policy:?} must be deterministic");
            }
        }
    }

    #[test]
    fn registry_round_trips_names() {
        let names: Vec<&str> = MergePolicy::matrix().iter().map(MergePolicy::name).collect();
        assert_eq!(
            names,
            ["prefix", "constant", "nomerge", "leveled", "tiered", "lazy-leveled", "fifo"]
        );
    }

    /// An append stream of small flushes: every merging matrix policy
    /// rewrites it, the two non-merging ones never do.
    #[test]
    fn matrix_merges_an_append_stream_unless_non_merging() {
        let appended = sizes(&[64; 8]);
        for policy in MergePolicy::matrix() {
            let decision = policy.decide(&appended);
            match policy {
                MergePolicy::NoMerge | MergePolicy::Fifo { .. } => {
                    assert_eq!(decision, CompactionDecision::None, "{}", policy.name())
                }
                _ => assert!(matches!(decision, CompactionDecision::Merge(_)), "{}", policy.name()),
            }
        }
    }

    /// The contract `LsmTree::maybe_merge` relies on, over seeded random
    /// lists of 0–24 runs of 1 B–64 MiB (log-uniform, so every size class
    /// shows up): every merge spans ≥ 2 in-bounds runs, every retire drops
    /// 1..=len runs, `levels` has one entry per run, and applying decisions
    /// — a merge becomes one run of the summed size, a retire drops the
    /// prefix — reaches `None` within `len` rounds.
    #[test]
    fn policy_decisions_keep_the_tree_contract_on_random_size_lists() {
        let mut policies = MergePolicy::matrix();
        policies.extend([
            MergePolicy::Fifo { max_components: 3, max_total_bytes: 32 << 20 },
            MergePolicy::Fifo { max_components: 1, max_total_bytes: 1 << 20 },
            MergePolicy::Leveled { level0_components: 2, base_bytes: 64 * 1024, fanout: 2 },
            MergePolicy::LazyLeveled { tier_runs: 2, base_bytes: 64 * 1024, fanout: 2 },
            MergePolicy::Tiered { base_bytes: 64 * 1024, size_ratio: 2, min_tier_runs: 2 },
        ]);
        // SplitMix64: seeded, so a failure replays exactly.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..2000 {
            let len = (next() % 25) as usize;
            let runs: Vec<u64> = (0..len).map(|_| 1 + next() % (1 << (next() % 27))).collect();
            for policy in &policies {
                let mut list = runs.clone();
                let mut rounds = 0;
                loop {
                    assert_eq!(policy.levels(&list).len(), list.len(), "{policy:?} {list:?}");
                    match policy.decide(&list) {
                        CompactionDecision::None => break,
                        CompactionDecision::Merge(MergePick { range, .. }) => {
                            assert!(
                                range.len() >= 2 && range.end <= list.len(),
                                "{policy:?} picked {range:?} of {list:?}"
                            );
                            let merged = list[range.clone()].iter().sum();
                            list.splice(range, [merged]);
                        }
                        CompactionDecision::Retire(n) => {
                            assert!(
                                n >= 1 && n <= list.len(),
                                "{policy:?} retired {n} of {list:?}"
                            );
                            list.drain(..n);
                        }
                    }
                    rounds += 1;
                    assert!(rounds <= len, "{policy:?} did not settle on {runs:?}");
                }
            }
        }
    }

    #[test]
    fn levels_report_size_classes() {
        let p = MergePolicy::Leveled { level0_components: 3, base_bytes: 64 * 1024, fanout: 4 };
        // Caps: 64 KB (L0), 256 KB (L1), 1 MB (L2), 4 MB (L3).
        let levels = p.levels(&sizes(&[2000, 200, 10]));
        assert_eq!(levels, vec![3, 1, 0]);
        // Policies without level structure put everything at level 0.
        let levels = MergePolicy::NoMerge.levels(&sizes(&[2000, 200, 10]));
        assert_eq!(levels, vec![0, 0, 0]);
    }
}
