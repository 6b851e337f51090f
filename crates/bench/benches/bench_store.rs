//! Storage-engine benchmark: the three numbers the segmented-WAL
//! rebuild of [`marioh_store::DiskStore`] is supposed to move.
//!
//! * **Cold open** — a state dir holding a v1-format record log (one
//!   JSON line per event, replayed in full at every open) versus the
//!   same history after migration to v2 (a compacted snapshot plus an
//!   empty WAL tail). The v1 number includes the one-shot migration the
//!   v2 store performs on first contact, which is exactly the cost a
//!   deployment pays once; every open after that is the v2 number.
//! * **Negative probes** — `get_result` misses against a populated
//!   artifact cache, with the index answer on (default) and off
//!   (`set_filter_enabled`). A filtered miss is answered from the
//!   store's in-memory artifact index; an unfiltered miss pays a file
//!   stat to learn the same thing. The committed baseline is gated on
//!   the index winning by >= 5x. The JSON keys keep their `filtered`
//!   names.
//! * **Compaction pause** — `compact_now` folding a WAL that tiny
//!   segment caps have split into many sealed segments. Compaction runs
//!   on a background thread in production; the pause here is the
//!   write-lock window a foreground submit could observe.
//!
//! Results land in `BENCH_store.json` at the workspace root.
//! `MARIOH_BENCH_SMOKE=1` runs a tiny configuration once and writes to
//! `target/BENCH_store.smoke.json`, leaving the committed baseline
//! untouched.

use marioh_store::{
    ArtifactStore, DiskStore, JobResult, JobSpec, JobStore, Json, SpecHash, StoreTuning,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("marioh-bench-store")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_for(seed: u64) -> (JobSpec, SpecHash) {
    let spec = JobSpec::from_json(
        &Json::parse(&format!(r#"{{"dataset": "Hosts", "seed": {seed}}}"#)).expect("valid JSON"),
    )
    .expect("valid spec");
    let hash = spec.content_hash().expect("hashable");
    (spec, hash)
}

fn sample_result() -> Arc<JobResult> {
    let mut h = marioh_hypergraph::Hypergraph::new(0);
    h.add_edge_with_multiplicity(marioh_hypergraph::hyperedge::edge(&[0, 1, 2]), 2);
    h.add_edge_with_multiplicity(marioh_hypergraph::hyperedge::edge(&[1, 2, 3, 4]), 1);
    Arc::new(JobResult {
        reconstruction: h,
        jaccard: 0.75,
    })
}

fn tuning(records: usize, segment_bytes: u64) -> StoreTuning {
    StoreTuning {
        retain: records,
        budget: None,
        segment_bytes,
        compact_sealed: usize::MAX,
        auto_compact: false, // every measurement is explicitly driven
    }
}

/// Writes `records` submit/start/done triples in the v1 single-file log
/// format, as a pre-migration server would have left them.
fn build_v1_dir(dir: &PathBuf, records: usize) {
    std::fs::create_dir_all(dir).expect("create v1 dir");
    std::fs::write(dir.join("VERSION"), "marioh-store v1\n").expect("write VERSION");
    let mut log = String::from("marioh-store v1 log\n");
    for id in 1..=records as u64 {
        let (spec, hash) = spec_for(id);
        log.push_str(&format!(
            "{{\"t\": \"submit\", \"id\": {id}, \"hash\": \"{}\", \"spec\": {}}}\n",
            hash.to_hex(),
            spec.to_json()
        ));
        log.push_str(&format!("{{\"t\": \"start\", \"id\": {id}}}\n"));
        log.push_str(&format!(
            "{{\"t\": \"done\", \"id\": {id}, \"cached\": false}}\n"
        ));
    }
    std::fs::write(dir.join("jobs.log"), log).expect("write jobs.log");
}

/// Cold-open latency: replay-the-world v1 versus snapshot-seeked v2,
/// over the same `records`-job history. Returns (v1_secs, v2_secs).
fn bench_cold_open(records: usize, reps: usize) -> (f64, f64) {
    let mut v1_secs = f64::INFINITY;
    let mut v2_secs = f64::INFINITY;
    for _ in 0..reps {
        let dir = scratch("cold-open");
        build_v1_dir(&dir, records);

        let t = Instant::now();
        let store = DiskStore::open_tuned(&dir, tuning(records, 4 << 20)).expect("open v1 dir");
        v1_secs = v1_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(store.counters().submitted, records as u64);
        drop(store);

        // The migration left a v2 snapshot behind; reopening is the
        // steady-state cold-open cost.
        let t = Instant::now();
        let store = DiskStore::open_tuned(&dir, tuning(records, 4 << 20)).expect("reopen v2 dir");
        v2_secs = v2_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(store.counters().submitted, records as u64);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    (v1_secs, v2_secs)
}

/// Negative-probe latency against a cache of `artifacts` stored
/// results, filter on versus off. Returns nanoseconds per probe.
fn bench_negative_probes(artifacts: usize, probes: usize) -> (f64, f64) {
    let dir = scratch("probes");
    let store = DiskStore::open_tuned(&dir, tuning(artifacts.max(16), 4 << 20)).expect("open");
    let result = sample_result();
    for seed in 0..artifacts as u64 {
        let (_, hash) = spec_for(seed);
        store.put_result(&hash, &result).expect("store artifact");
    }
    // Absent keys, distinct from every stored spec hash.
    let absent: Vec<SpecHash> = (0..probes as u64)
        .map(|i| SpecHash::of(&i.to_le_bytes()))
        .collect();

    let timed = |enabled: bool| {
        store.set_filter_enabled(enabled);
        let t = Instant::now();
        let mut hits = 0usize;
        for hash in &absent {
            if store.get_result(hash).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 0, "probe keys must all miss");
        t.elapsed().as_secs_f64() * 1e9 / probes as f64
    };
    let unfiltered_ns = timed(false);
    let filtered_ns = timed(true);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (filtered_ns, unfiltered_ns)
}

/// Foreground pause of one `compact_now` over a WAL fragmented into
/// many sealed segments. Returns (sealed segments folded, pause secs).
fn bench_compaction(records: usize) -> (usize, f64) {
    let dir = scratch("compact");
    // Small segments fragment the log the way a long-lived server's
    // rotation cadence would.
    let store = DiskStore::open_tuned(&dir, tuning(records, 16 << 10)).expect("open");
    for seed in 0..records as u64 {
        let (spec, hash) = spec_for(seed);
        store.submit(&spec, &hash);
    }
    let segments = store.sealed_segments();
    let t = Instant::now();
    store.compact_now().expect("compaction succeeds");
    let pause = t.elapsed().as_secs_f64();
    assert_eq!(
        store.sealed_segments(),
        0,
        "compaction retires every segment"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (segments, pause)
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    records: usize,
    probes: usize,
    v1_secs: f64,
    v2_secs: f64,
    filtered_ns: f64,
    unfiltered_ns: f64,
    segments: usize,
    pause_secs: f64,
    smoke: bool,
) -> std::io::Result<PathBuf> {
    let mut body = String::new();
    body.push_str("{\n  \"bench\": \"store\",\n");
    if smoke {
        body.push_str("  \"smoke\": true,\n");
    }
    body.push_str(&format!(
        "  \"records\": {records},\n  \"probes\": {probes},\n"
    ));
    body.push_str(&format!(
        "  \"cold_open\": {{\"v1_log_replay_secs\": {v1_secs:.6}, \"v2_snapshot_secs\": {v2_secs:.6}, \"speedup\": {:.3}}},\n",
        v1_secs / v2_secs.max(1e-12)
    ));
    body.push_str(&format!(
        "  \"negative_probe\": {{\"filtered_ns\": {filtered_ns:.1}, \"unfiltered_ns\": {unfiltered_ns:.1}, \"speedup\": {:.3}}},\n",
        unfiltered_ns / filtered_ns.max(1e-12)
    ));
    body.push_str(&format!(
        "  \"compaction\": {{\"segments\": {segments}, \"pause_secs\": {pause_secs:.6}}}\n"
    ));
    body.push_str("}\n");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke {
        root.join("target/BENCH_store.smoke.json")
    } else {
        root.join("BENCH_store.json")
    };
    std::fs::write(&path, body)?;
    Ok(path.canonicalize().unwrap_or(path))
}

fn main() {
    let smoke = std::env::var("MARIOH_BENCH_SMOKE").as_deref() == Ok("1");
    let (records, artifacts, probes, reps) = if smoke {
        (500, 32, 2_000, 1)
    } else {
        (10_000, 256, 50_000, 3)
    };

    let (v1_secs, v2_secs) = bench_cold_open(records, reps);
    println!(
        "bench_store/cold-open: {records} records, v1 replay {v1_secs:.4}s vs v2 snapshot {v2_secs:.4}s ({:.1}x)",
        v1_secs / v2_secs.max(1e-12)
    );

    let mut filtered_ns = f64::INFINITY;
    let mut unfiltered_ns = f64::INFINITY;
    for _ in 0..reps {
        let (f, u) = bench_negative_probes(artifacts, probes);
        filtered_ns = filtered_ns.min(f);
        unfiltered_ns = unfiltered_ns.min(u);
    }
    let probe_speedup = unfiltered_ns / filtered_ns.max(1e-12);
    println!(
        "bench_store/negative-probe: {probes} misses over {artifacts} artifacts, filtered {filtered_ns:.0}ns vs unfiltered {unfiltered_ns:.0}ns ({probe_speedup:.1}x)"
    );

    let (segments, pause_secs) = bench_compaction(records);
    println!("bench_store/compaction: {segments} sealed segments folded in {pause_secs:.4}s");

    if !smoke {
        assert!(
            probe_speedup >= 5.0,
            "the filter must answer negative probes >=5x faster than disk (got {probe_speedup:.2}x)"
        );
    }
    match write_json(
        records,
        probes,
        v1_secs,
        v2_secs,
        filtered_ns,
        unfiltered_ns,
        segments,
        pause_secs,
        smoke,
    ) {
        Ok(path) => println!("bench_store: wrote {}", path.display()),
        Err(e) => eprintln!("bench_store: failed to write BENCH_store.json: {e}"),
    }
}
