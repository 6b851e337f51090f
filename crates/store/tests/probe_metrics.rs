//! Result-probe telemetry of the disk store: one fixed sequence of
//! probes, and the exact hit, miss and filter counts it must produce,
//! whether a hit shares a live decoded result or decodes the artifact;
//! and what one cache hit writes: one small WAL record and one fsync.
//!
//! Lives in its own test binary on purpose: the counters are
//! process-global, and probes from the store's other tests would land
//! in the same counters while these run. The tests here take
//! [`SERIAL`] for the same reason.

use marioh_store::segment::{parse_segment_file_name, read_segment, segment_file_name};
use marioh_store::{
    ArtifactStore, DiskStore, JobResult, JobSpec, JobStore, Json, SpecHash, StoreTuning, Transition,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Serializes the tests of this binary: each asserts exact deltas of
/// process-global counters.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

    // Evicted while held: eviction took its key out of the filter, so
    // the probe is a filter negative and a miss, and never a disk stat.
    let held = store.get_result(&first).unwrap();
    store.put_result(&second, &result()).unwrap();
    let before = counts();
    assert!(store.get_result(&first).is_none());
    assert!(store.get_result(&second).is_some());
    assert_eq!(delta(before), [1, 1, 1, 1, 0]);
    drop(held);

    // A disabled filter admits everything; an absent artifact is again
    // a false positive and a miss.
    store.set_filter_enabled(false);
    let before = counts();
    assert!(store.get_result(&ghost).is_none());
    assert_eq!(delta(before), [0, 1, 1, 0, 1]);
}

/// Every WAL payload's length under `dir`, in sequence order.
fn wal_record_lens(dir: &Path) -> Vec<usize> {
    let mut seqs: Vec<u64> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .filter_map(|e| parse_segment_file_name(e.ok()?.file_name().to_str()?))
        .collect();
    seqs.sort_unstable();
    seqs.into_iter()
        .flat_map(|first| {
            read_segment(&dir.join("wal").join(segment_file_name(first)), first)
                .unwrap()
                .records
        })
        .map(|(_, payload)| payload.len())
        .collect()
}

fn fsyncs() -> u64 {
    marioh_obs::global()
        .counter("marioh_store_fsync_total")
        .get()
}

#[test]
fn a_cache_hit_on_an_85_kb_upload_writes_one_small_record_and_one_fsync() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // About 85 KB of edge list: 4800 edges of 3 to 5 five-digit ids.
    let mut text = String::new();
    for i in 0..4800u32 {
        let base = 10_000 + i * 13;
        let width = 3 + i % 3;
        let nodes: Vec<String> = (0..width).map(|k| (base + k * 7).to_string()).collect();
        text.push_str(&format!("{} {}\n", 1 + i % 3, nodes.join(" ")));
    }
    let body = format!(r#"{{"edges": {}, "seed": 7}}"#, Json::str(text));
    assert!(body.len() > 85_000, "upload is {} bytes", body.len());
    let spec = JobSpec::from_json(&Json::parse(&body).unwrap()).unwrap();
    let hash = spec.content_hash().unwrap();

    let dir = tmp_dir("hit-record");
    let store = DiskStore::open_tuned(&dir, tuning(None)).unwrap();
    let first = store.submit(&spec, &hash);
    store.start(first).unwrap();
    store.put_result(&hash, &result()).unwrap();
    store.transition(
        first,
        Transition::Done {
            result: result(),
            cached: false,
        },
    );
    let records = wal_record_lens(&dir);
    assert!(
        records[0] > 85_000,
        "the miss logs its spec once ({} bytes)",
        records[0]
    );

    // The hit itself: the probe writes nothing, the record one frame.
    let before = fsyncs();
    let hit = store.get_result(&hash).expect("cached");
    let ids = store.submit_hits(vec![(hash, hit)]);
    assert_eq!(fsyncs() - before, 1);
    let after = wal_record_lens(&dir);
    assert_eq!(after.len(), records.len() + 1, "one WAL record per hit");
    let hit_record = after[records.len()];
    assert!(hit_record < 256, "the hit record is {hit_record} bytes");
    assert!(store.view(ids[0]).unwrap().cached);
}

#[test]
fn a_result_evicted_after_compaction_is_a_filter_negative() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let size = {
        let store = DiskStore::open_tuned(tmp_dir("compact-size"), tuning(None)).unwrap();
        store.put_result(&hash(200), &result()).unwrap();
        store.artifact_stats().result_bytes
    };
    // Room for one result artifact, not two.
    let store =
        DiskStore::open_tuned(tmp_dir("compact-evict"), tuning(Some(size + size / 2))).unwrap();
    let (first, second) = (hash(11), hash(12));
    store.put_result(&first, &result()).unwrap();
    store.compact_now().unwrap();
    store.put_result(&second, &result()).unwrap();

    // The compacted artifact was evicted: the probe is answered from
    // memory, with no disk stat and no false positive.
    let before = counts();
    assert!(store.get_result(&first).is_none());
    assert!(!store.contains_result(&first));
    assert_eq!(delta(before), [0, 2, 0, 2, 0]);
}
