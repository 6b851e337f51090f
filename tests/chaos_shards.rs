//! Chaos e2e: scripted fault plans (`--faults`, see
//! `crates/fault/FORMATS.md`) against a real `marioh serve --shards 4`
//! child-process fleet.
//!
//! * mid-stream frame corruption (parent and worker side) is absorbed:
//!   the 16-job batch completes bit-identical to a fault-free
//!   in-process run, and `marioh_faults_injected_total` counts the
//!   injections,
//! * a scripted crash loop on one shard trips the circuit breaker
//!   (visible in `/stats`), its jobs reroute to in-process execution
//!   and still stream progress, the batch completes, and after the
//!   cooldown the breaker closes again,
//! * per-job deadlines fire across the wire with a typed timeout
//!   reason, never a hang,
//! * a job that panics (`job.run:panic`) fails with a typed internal
//!   error in both serving modes, is counted once in `/metrics`, and
//!   the next job on the same server completes.
//!
//! The test process itself never arms a fault plan — all injection is
//! scripted into the serve child via `--faults`, so the rest of the
//! suite sees a clean process.

use marioh::dispatch::shard_for;
use marioh::server::{client, Json, Server, ServerConfig};
use marioh::store::{JobSpec, Json as StoreJson};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The 16-job workload: distinct seeds, so distinct spec hashes that
/// spread across shards.
fn batch_bodies(throttle_ms: u64) -> Vec<String> {
    (0..16)
        .map(|seed| {
            format!(r#"{{"dataset": "Hosts", "seed": {seed}, "throttle_ms": {throttle_ms}}}"#)
        })
        .collect()
}

fn post_batch(addr: SocketAddr, bodies: &[String]) -> (u64, Vec<u64>) {
    let body = format!("[{}]", bodies.join(","));
    let response = client::post(addr, "/jobs", &body).expect("submit batch");
    assert_eq!(response.status, 201, "{}", response.body);
    let json = response.json().expect("valid JSON");
    let batch = json.get("batch").and_then(Json::as_u64).expect("batch id");
    let ids: Vec<u64> = json
        .get("ids")
        .and_then(Json::as_array)
        .expect("ids array")
        .iter()
        .map(|v| v.as_u64().expect("job id"))
        .collect();
    (batch, ids)
}

fn wait_batch_complete(addr: SocketAddr, batch: u64, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let response = client::get(addr, &format!("/batches/{batch}")).expect("batch view");
        assert_eq!(response.status, 200, "{}", response.body);
        let view = response.json().expect("valid JSON");
        if view.get("complete").and_then(Json::as_bool) == Some(true) {
            return view;
        }
        assert!(
            Instant::now() < deadline,
            "batch {batch} not complete in time: {view}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A result reduced to comparable form: sorted `(nodes, multiplicity)`
/// pairs plus the exact jaccard bits.
type Fingerprint = (Vec<(Vec<u64>, u64)>, u64);

fn fingerprint(addr: SocketAddr, id: u64) -> Fingerprint {
    let response = client::get(addr, &format!("/jobs/{id}/result")).expect("result");
    assert_eq!(response.status, 200, "{}", response.body);
    let result = response.json().expect("valid JSON");
    let mut edges: Vec<(Vec<u64>, u64)> = result
        .get("edges")
        .and_then(Json::as_array)
        .expect("edges array")
        .iter()
        .map(|e| {
            (
                e.get("nodes")
                    .and_then(Json::as_array)
                    .expect("nodes array")
                    .iter()
                    .map(|n| n.as_u64().expect("node id"))
                    .collect(),
                e.get("multiplicity")
                    .and_then(Json::as_u64)
                    .expect("multiplicity"),
            )
        })
        .collect();
    edges.sort();
    let jaccard = result
        .get("jaccard")
        .and_then(Json::as_f64)
        .expect("jaccard");
    (edges, jaccard.to_bits())
}

fn stats(addr: SocketAddr) -> Json {
    client::get(addr, "/stats")
        .expect("stats")
        .json()
        .expect("valid JSON")
}

/// Reads one counter/gauge value from the Prometheus exposition,
/// summing across label sets whose line starts with `prefix`.
fn metric_total(addr: SocketAddr, prefix: &str) -> f64 {
    let response = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(response.status, 200);
    response
        .body
        .lines()
        .filter(|line| line.starts_with(prefix))
        .filter_map(|line| line.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

/// Submits one job and returns its id.
fn submit(addr: SocketAddr, body: &str) -> u64 {
    let response = client::post(addr, "/jobs", body).expect("submit");
    assert_eq!(response.status, 201, "{}", response.body);
    let json = response.json().expect("valid JSON");
    json.get("id").and_then(Json::as_u64).expect("job id")
}

/// Polls a job until it reaches a terminal status; returns its view.
fn wait_terminal(addr: SocketAddr, id: u64, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let view = job_view(addr, id);
        if matches!(
            view.get("status").and_then(Json::as_str),
            Some("done" | "failed" | "cancelled")
        ) {
            return view;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {view}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn job_view(addr: SocketAddr, id: u64) -> Json {
    client::get(addr, &format!("/jobs/{id}"))
        .expect("job view")
        .json()
        .expect("valid JSON")
}

/// A `marioh serve` child process (`--shards 0` keeps the worker pool)
/// bound to an ephemeral port, with a scripted fault plan and fast
/// breaker/backoff knobs.
struct ServeProcess {
    child: Child,
    addr: SocketAddr,
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_chaos_serve(shards: usize, faults: Option<&str>, extra: &[&str]) -> ServeProcess {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_marioh"));
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--queue-cap",
        "32",
        "--shards",
        &shards.to_string(),
    ])
    .args(extra)
    // Keep the chaos loops fast: short respawn backoff, short breaker
    // cooldown so recovery is observable within the test budget.
    .env("MARIOH_RESPAWN_BACKOFF_MS", "40")
    .env("MARIOH_BREAKER_COOLDOWN_MS", "1200")
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    if let Some(plan) = faults {
        cmd.args(["--faults", plan]);
    }
    let mut child = cmd.spawn().expect("spawn marioh serve --shards");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    // With --faults the first stderr line announces the armed plan;
    // keep reading until the listen banner.
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read serve stderr");
        assert!(n > 0, "serve exited before printing its listen banner");
        if let Some(addr) = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
        {
            break addr;
        }
    };
    // Keep draining stderr for the child's lifetime: dropping the pipe
    // would make the serve process's later eprintln!s (breaker
    // transitions, respawn notes) fail on a closed pipe and panic.
    std::thread::spawn(move || {
        let mut line = String::new();
        while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
            line.clear();
        }
    });
    ServeProcess { child, addr }
}

/// Fault-free reference run on the in-process pool, used as the
/// bit-identical baseline for the chaos runs.
fn reference_fingerprints(bodies: &[String]) -> Vec<Fingerprint> {
    let pooled = Server::start(ServerConfig {
        workers: 4,
        queue_cap: 32,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = pooled.local_addr();
    let (batch, ids) = post_batch(addr, bodies);
    wait_batch_complete(addr, batch, Duration::from_secs(180));
    let prints = ids.iter().map(|id| fingerprint(addr, *id)).collect();
    pooled.shutdown();
    prints
}

#[test]
fn frame_corruption_chaos_stays_bit_identical_and_is_counted() {
    let reference = reference_fingerprints(&batch_bodies(0));

    // One corrupted frame per process incarnation: the parent's 25th
    // send (handshakes and dispatches land earlier, so this hits an
    // established channel) and each worker's 25th. Every hit is a CRC
    // failure on the peer, i.e. one clean shard death + respawn +
    // idempotent re-dispatch.
    let serve = spawn_chaos_serve(4, Some("wire.frame:corrupt@nth:25"), &[]);
    let addr = serve.addr;

    let (batch, ids) = post_batch(addr, &batch_bodies(0));
    let view = wait_batch_complete(addr, batch, Duration::from_secs(240));
    assert_eq!(
        view.get("done").and_then(Json::as_u64),
        Some(ids.len() as u64),
        "chaos batch did not fully complete: {view}"
    );
    let results: Vec<Fingerprint> = ids.iter().map(|id| fingerprint(addr, *id)).collect();
    assert_eq!(
        results, reference,
        "results under frame corruption differ from the fault-free run"
    );

    // The parent keeps sending pings, so its own nth:25 fires within a
    // couple of seconds even if the batch finished first; the injection
    // counter and the respawn counter must both report it.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let injected = metric_total(addr, "marioh_faults_injected_total{site=\"wire.frame\"}");
        let restarts = stats(addr)
            .get("shard_restarts")
            .and_then(Json::as_u64)
            .expect("shard_restarts");
        if injected >= 1.0 && restarts >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fault metrics never reported: injected={injected} restarts={restarts}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn scripted_crash_loop_trips_the_breaker_reroutes_and_recovers() {
    // The plan must name its victim before boot, and shard placement is
    // pure (`shard_for` over the canonical spec hash), so pick the
    // shard that will receive the most of the 16 jobs.
    let bodies = batch_bodies(600);
    let mut per_shard = [0usize; 4];
    for body in &bodies {
        let spec = JobSpec::from_json(&StoreJson::parse(body).unwrap()).unwrap();
        per_shard[shard_for(spec.content_hash().unwrap().as_bytes(), 4)] += 1;
    }
    let victim = (0..4).max_by_key(|s| per_shard[*s]).unwrap();
    assert!(
        per_shard[victim] >= 3,
        "placement too skewed: {per_shard:?}"
    );

    // Every incarnation of the victim's worker exits (code 86) on its
    // first dispatched job — a crash loop the respawn backoff cannot
    // clear, so the breaker must open and reroute.
    let plan = format!("shard.{victim}:exit@job:1");
    let serve = spawn_chaos_serve(4, Some(&plan), &[]);
    let addr = serve.addr;

    let (batch, ids) = post_batch(addr, &bodies);

    // The breaker opens while the batch is in flight.
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        let s = stats(addr);
        let open = s
            .get("breakers_open")
            .and_then(Json::as_u64)
            .unwrap_or_default();
        if open >= 1 {
            let entry = &s.get("shard_status").and_then(Json::as_array).unwrap()[victim];
            assert_eq!(
                entry.get("breaker_open").and_then(Json::as_bool),
                Some(true)
            );
            break;
        }
        assert!(Instant::now() < deadline, "breaker never opened: {s}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Despite the dead shard the whole batch completes: its jobs were
    // rerouted to in-process execution.
    let view = wait_batch_complete(addr, batch, Duration::from_secs(240));
    assert_eq!(
        view.get("done").and_then(Json::as_u64),
        Some(ids.len() as u64),
        "batch did not complete across the open breaker: {view}"
    );
    assert!(
        metric_total(addr, "marioh_dispatch_breaker_rerouted_total") >= 1.0,
        "reroutes were not counted"
    );
    // Rerouted jobs run through the same job runner as shard workers, so
    // they stream per-round progress too.
    for id in &ids {
        let view = job_view(addr, *id);
        let rounds = view
            .get("progress")
            .and_then(|p| p.get("rounds"))
            .and_then(Json::as_u64)
            .expect("progress.rounds");
        assert!(rounds >= 1, "job {id} reported no rounds: {view}");
    }

    // With no jobs left to kill it, the post-cooldown half-open probe
    // respawns a healthy worker and the breaker closes.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = stats(addr);
        let entry = &s.get("shard_status").and_then(Json::as_array).unwrap()[victim];
        if entry.get("breaker_open").and_then(Json::as_bool) == Some(false) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never recovered after the crash loop drained: {s}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn job_deadline_fires_across_the_wire_with_a_typed_reason() {
    // No fault plan: the deadline machinery itself is the subject. The
    // spec-level timeout must cancel a wedged (60 s throttle) job in
    // shard mode and surface the typed reason, not a hang.
    let serve = spawn_chaos_serve(2, None, &[]);
    let addr = serve.addr;

    let response = client::post(
        addr,
        "/jobs",
        r#"{"dataset": "Hosts", "throttle_ms": 60000, "timeout_secs": 1}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 201, "{}", response.body);
    let id = response
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .expect("job id");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let view = client::get(addr, &format!("/jobs/{id}"))
            .expect("job view")
            .json()
            .expect("valid JSON");
        match view.get("status").and_then(Json::as_str) {
            Some("failed") => {
                let error = view.get("error").and_then(Json::as_str).expect("error");
                assert!(
                    error.contains("timed out") && error.contains("1s deadline"),
                    "untyped timeout failure: {error:?}"
                );
                break;
            }
            Some("cancelled") => panic!("timeout surfaced as a plain cancellation: {view}"),
            _ => {
                assert!(Instant::now() < deadline, "deadline never fired: {view}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Scripts a panic into the first job that enters the job runner
/// (`job.run:panic@nth:1`) and checks that the boundary contains it: the
/// job fails with a typed internal error, the next job on the same
/// server completes, and `/metrics` counts exactly one panic.
fn assert_job_panic_is_contained(shards: usize, extra: &[&str]) {
    let serve = spawn_chaos_serve(shards, Some("job.run:panic@nth:1"), extra);
    let addr = serve.addr;

    let first = submit(addr, r#"{"dataset": "Hosts", "seed": 1}"#);
    let view = wait_terminal(addr, first, Duration::from_secs(120));
    assert_eq!(
        view.get("status").and_then(Json::as_str),
        Some("failed"),
        "{view}"
    );
    let error = view.get("error").and_then(Json::as_str).expect("error");
    assert!(
        error.starts_with("internal error: job panicked: "),
        "untyped panic failure: {error:?}"
    );

    let second = submit(addr, r#"{"dataset": "Hosts", "seed": 2}"#);
    let view = wait_terminal(addr, second, Duration::from_secs(120));
    assert_eq!(
        view.get("status").and_then(Json::as_str),
        Some("done"),
        "the worker did not survive the panic: {view}"
    );

    // A shard worker's counters reach /metrics in the snapshot it pushes
    // after each job, so give that push a moment to land.
    let deadline = Instant::now() + Duration::from_secs(30);
    let panicked = loop {
        let panicked = metric_total(addr, "marioh_jobs_panicked_total");
        if panicked >= 1.0 || Instant::now() >= deadline {
            break panicked;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(panicked, 1.0, "panics counted in /metrics");
}

#[test]
fn a_panicking_job_is_contained_in_the_worker_pool() {
    assert_job_panic_is_contained(0, &["--workers", "1"]);
}

#[test]
fn a_panicking_job_is_contained_in_a_shard_worker() {
    assert_job_panic_is_contained(1, &[]);
}
