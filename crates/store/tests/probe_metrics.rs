//! Result-probe telemetry of the disk store: one fixed sequence of
//! probes, and the exact hit, miss and filter counts it must produce,
//! whether a hit shares a live decoded result or decodes the artifact.
//!
//! Lives in its own test binary on purpose: the counters are
//! process-global, and probes from the store's other tests would land
//! in the same counters while these run.

use marioh_store::{ArtifactStore, DiskStore, JobResult, JobSpec, Json, SpecHash, StoreTuning};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("marioh-probe-metrics-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hash(seed: u64) -> SpecHash {
    let body = format!(r#"{{"dataset": "Hosts", "seed": {seed}}}"#);
    JobSpec::from_json(&Json::parse(&body).unwrap())
        .unwrap()
        .content_hash()
        .unwrap()
}

fn result() -> Arc<JobResult> {
    let mut h = marioh_hypergraph::Hypergraph::new(0);
    h.add_edge_with_multiplicity(marioh_hypergraph::hyperedge::edge(&[0, 1, 2]), 3);
    h.add_edge(marioh_hypergraph::hyperedge::edge(&[1, 4]));
    Arc::new(JobResult {
        reconstruction: h,
        jaccard: 0.8125,
    })
}

fn tuning(budget: Option<u64>) -> StoreTuning {
    StoreTuning {
        retain: 16,
        budget,
        segment_bytes: 1 << 20,
        compact_sealed: 1_000_000,
        auto_compact: false,
    }
}

/// `[cache hits, cache misses, filter passed, filter negative, filter
/// false positive]` for result probes, process-wide.
fn counts() -> [u64; 5] {
    let obs = marioh_obs::global();
    let kind = [("kind", "result")];
    [
        "marioh_store_artifact_cache_hits_total",
        "marioh_store_artifact_cache_misses_total",
        "marioh_store_filter_passed_total",
        "marioh_store_filter_negative_total",
        "marioh_store_filter_fp_total",
    ]
    .map(|name| obs.counter_with(name, &kind).get())
}

fn delta(before: [u64; 5]) -> [u64; 5] {
    let after = counts();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn result_probe_counters_are_the_same_for_shared_and_decoded_hits() {
    let size = {
        let store = DiskStore::open_tuned(tmp_dir("size"), tuning(None)).unwrap();
        store.put_result(&hash(100), &result()).unwrap();
        store.artifact_stats().result_bytes
    };
    // Room for one result artifact, not two.
    let store = DiskStore::open_tuned(tmp_dir("probes"), tuning(Some(size + size / 2))).unwrap();
    let (first, second, ghost) = (hash(1), hash(2), hash(3));

    // A negative probe stops at the filter.
    let before = counts();
    assert!(store.get_result(&first).is_none());
    assert_eq!(delta(before), [0, 1, 0, 1, 0]);

    // Hits on a held result share it; each counts like a decoded hit.
    let held = result();
    store.put_result(&first, &held).unwrap();
    let before = counts();
    for _ in 0..3 {
        assert!(Arc::ptr_eq(&store.get_result(&first).unwrap(), &held));
    }
    assert!(store.contains_result(&first));
    assert_eq!(delta(before), [4, 0, 4, 0, 0]);

    // With no holder left, the hit decodes, and counts the same.
    drop(held);
    let before = counts();
    assert!(store.get_result(&first).is_some());
    assert_eq!(delta(before), [1, 0, 1, 0, 0]);

    // Evicted while held: the filter still admits it, the disk says
    // no, and the probe is a counted false positive and a miss.
    let held = store.get_result(&first).unwrap();
    store.put_result(&second, &result()).unwrap();
    let before = counts();
    assert!(store.get_result(&first).is_none());
    assert!(store.get_result(&second).is_some());
    assert_eq!(delta(before), [1, 1, 2, 0, 1]);
    drop(held);

    // A disabled filter admits everything; an absent artifact is again
    // a false positive and a miss.
    store.set_filter_enabled(false);
    let before = counts();
    assert!(store.get_result(&ghost).is_none());
    assert_eq!(delta(before), [0, 1, 1, 0, 1]);
}
