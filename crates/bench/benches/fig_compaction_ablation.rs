//! Compaction design-space ablation: every registry merge policy over the
//! same ingest + update mix on a bare `LsmTree`, mapping write
//! amplification against final tree shape. The cluster-level claims —
//! every policy, sync and background, is lossless on random workloads and
//! attributes each merge to a trigger — are the property test
//! `merge_policies_are_observationally_equivalent` (`tests/property.rs`).
//!
//! A second table shows FIFO/TTL with *reachable* caps actually retiring
//! the oldest runs — the registry entry's caps are unreachable on purpose,
//! so loss never sneaks into an equivalence or crash harness.

use std::sync::Arc;
use std::time::Instant;

use tc_bench::support::{banner, fmt_bytes, fmt_dur, header, row, scale};
use tc_lsm::entry::encode_u64_key;
use tc_lsm::{LsmOptions, LsmTree, MergePolicy, MergeTrigger, NoopHook};
use tc_storage::device::{Device, DeviceProfile};
use tc_storage::BufferCache;

fn tree_with(policy: MergePolicy) -> (Arc<Device>, LsmTree) {
    let device = Arc::new(Device::new(DeviceProfile::SATA_SSD));
    let cache = Arc::new(BufferCache::new(1024));
    let tree = LsmTree::new(
        Arc::clone(&device),
        cache,
        Arc::new(NoopHook),
        LsmOptions { merge_policy: policy, memtable_budget: 64 * 1024, ..Default::default() },
    );
    (device, tree)
}

fn policy_matrix_ablation(n: usize) {
    banner(
        "Ablation: compaction design space",
        "insert + 25% update mix under every registry merge policy",
        "write amplification buys component count (scan cost); no policy wins both",
    );
    header("policy", &["ingest time", "write amp", "components", "levels", "merge triggers"]);
    for policy in MergePolicy::matrix() {
        let (device, tree) = tree_with(policy);
        let start = Instant::now();
        for i in 0..n as u64 {
            tree.insert(encode_u64_key(i), vec![7u8; 256]).unwrap();
            // Every 4th op revisits an older key — update pressure keeps
            // anti-matter and overlapping versions in play.
            if i % 4 == 3 {
                tree.insert(encode_u64_key(i / 2), vec![9u8; 256]).unwrap();
            }
        }
        tree.flush().unwrap();
        tree.maybe_merge().unwrap();
        let wall = start.elapsed() + device.io_time();
        let stats = tree.stats();
        let triggers = MergeTrigger::ALL
            .iter()
            .filter(|t| stats.merges_by_trigger[**t as usize] > 0)
            .map(|t| format!("{}:{}", t.label(), stats.merges_by_trigger[*t as usize]))
            .collect::<Vec<_>>()
            .join(" ");
        row(
            policy.name(),
            &[
                fmt_dur(wall),
                format!("{:.2}x", stats.write_amplification()),
                tree.components().len().to_string(),
                format!("{:?}", tree.level_counts()),
                if triggers.is_empty() { "-".to_string() } else { triggers },
            ],
        );
        assert!(stats.write_amplification() >= 1.0);
        assert_eq!(stats.merges_by_trigger.iter().sum::<u64>(), stats.merges);
    }
}

fn fifo_retirement_ablation(n: usize) {
    banner(
        "Ablation: FIFO/TTL retirement",
        "FIFO with reachable caps vs no-merge on the same append stream",
        "FIFO bounds disk footprint by dropping the oldest runs whole — lossy by design",
    );
    header("policy", &["components", "disk bytes", "retired", "entries lost"]);
    for (policy, label) in [
        (MergePolicy::NoMerge, "no merge (keep everything)"),
        (MergePolicy::Fifo { max_components: 6, max_total_bytes: u64::MAX }, "fifo(max 6 runs)"),
    ] {
        let (_device, tree) = tree_with(policy);
        for i in 0..n as u64 {
            tree.insert(encode_u64_key(i), vec![3u8; 256]).unwrap();
        }
        tree.flush().unwrap();
        tree.maybe_merge().unwrap();
        let stats = tree.stats();
        row(
            label,
            &[
                tree.components().len().to_string(),
                fmt_bytes(tree.disk_bytes()),
                stats.components_retired.to_string(),
                stats.entries_retired.to_string(),
            ],
        );
        assert_eq!(stats.merges, 0, "neither policy merges");
        if let MergePolicy::Fifo { max_components, .. } = policy {
            assert!(tree.components().len() <= max_components, "FIFO cap enforced");
            assert!(stats.components_retired > 0, "caps were reachable");
        }
    }
}

fn main() {
    let s = scale();
    policy_matrix_ablation(10_000 * s);
    fifo_retirement_ablation(10_000 * s);
}
