//! End-to-end tests of the persistence layer behind `marioh-server`:
//!
//! * an identical resubmission is answered from the artifact cache
//!   without spawning a pipeline (asserted through the `/stats`
//!   `pipeline_runs` counter),
//! * a job referencing `"model": "job:<id>"` reproduces its donor
//!   bit-for-bit while skipping training (asserted through the
//!   observer-driven `models_trained` counter),
//! * a server killed with SIGKILL mid-queue and restarted on the same
//!   `--state-dir` serves its pre-crash results from disk and resumes
//!   the interrupted queue.

use marioh::server::{client, Json, Server, ServerConfig, StorageConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let response = client::post(addr, "/jobs", body).expect("submit");
    assert_eq!(response.status, 201, "{}", response.body);
    response
        .json()
        .expect("valid JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id in response")
}

fn job_view(addr: SocketAddr, id: u64) -> Json {
    let response = client::get(addr, &format!("/jobs/{id}")).expect("poll");
    assert_eq!(response.status, 200, "{}", response.body);
    response.json().expect("valid JSON")
}

fn status_of(view: &Json) -> String {
    view.get("status")
        .and_then(Json::as_str)
        .expect("status field")
        .to_owned()
}

fn wait_terminal(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let view = job_view(addr, id);
        if ["done", "failed", "cancelled"].contains(&status_of(&view).as_str()) {
            return view;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} not terminal in time: {view:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn stats(addr: SocketAddr) -> Json {
    let response = client::get(addr, "/stats").expect("stats");
    assert_eq!(response.status, 200);
    response.json().expect("valid JSON")
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {key:?} missing or not an integer: {stats}"))
}

fn result_body(addr: SocketAddr, id: u64) -> Json {
    let response = client::get(addr, &format!("/jobs/{id}/result")).expect("result");
    assert_eq!(response.status, 200, "{}", response.body);
    response.json().expect("valid JSON")
}

fn edge_multiset(result: &Json) -> Vec<(Vec<u64>, u64)> {
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
    edges
}

#[test]
fn identical_resubmission_is_served_from_cache_without_a_pipeline_run() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_cap: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let body = r#"{"dataset": "Hosts", "seed": 11, "params": {"theta_init": 0.9}}"#;
    let first = submit(addr, body);
    assert_eq!(status_of(&wait_terminal(addr, first)), "done");
    let s = stats(addr);
    assert_eq!(stat(&s, "pipeline_runs"), 1);
    assert_eq!(stat(&s, "cache_hits"), 0);
    assert_eq!(stat(&s, "results_cached"), 1);
    let first_result = result_body(addr, first);

    // The same computation, spelled differently: key order shuffled, the
    // default alpha made explicit, a thread-count knob added. Answered
    // instantly from the cache — done on arrival, flagged cached, and
    // the pipeline-run counter does not move.
    let respelled = r#"{"seed": 11, "params": {"threads": 2, "alpha": 0.05,
                         "theta_init": 0.9}, "dataset": "Hosts"}"#;
    let second = submit(addr, respelled);
    let view = job_view(addr, second);
    assert_eq!(status_of(&view), "done", "{view:?}");
    assert_eq!(view.get("cached").and_then(Json::as_bool), Some(true));
    let s = stats(addr);
    assert_eq!(stat(&s, "pipeline_runs"), 1, "cache hit spawned a pipeline");
    assert_eq!(stat(&s, "cache_hits"), 1);
    let second_result = result_body(addr, second);
    assert_eq!(edge_multiset(&first_result), edge_multiset(&second_result));
    assert_eq!(
        first_result.get("jaccard").and_then(Json::as_f64),
        second_result.get("jaccard").and_then(Json::as_f64)
    );

    // A semantically different submission (new seed) runs for real.
    let third = submit(addr, r#"{"dataset": "Hosts", "seed": 12}"#);
    assert_eq!(status_of(&wait_terminal(addr, third)), "done");
    assert_eq!(stat(&stats(addr), "pipeline_runs"), 2);

    // GET /jobs lists all three, newest ids included.
    let listing = client::get(addr, "/jobs").expect("jobs").json().unwrap();
    assert_eq!(stat(&listing, "count"), 3);

    server.shutdown();
}

#[test]
fn model_reuse_over_http_reproduces_the_donor_and_skips_training() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_cap: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let donor = submit(addr, r#"{"dataset": "Hosts", "seed": 21}"#);
    assert_eq!(status_of(&wait_terminal(addr, donor)), "done");
    let s = stats(addr);
    assert_eq!(stat(&s, "models_trained"), 1);
    assert!(stat(&s, "models_cached") >= 1, "trained model not stored");

    // Same input + seed, donor's model: a real pipeline run, zero
    // training (the observer's on_training_done never fires), and a
    // bit-identical reconstruction thanks to the restored RNG state.
    let reuser = submit(
        addr,
        &format!(r#"{{"dataset": "Hosts", "seed": 21, "model": "job:{donor}"}}"#),
    );
    assert_eq!(status_of(&wait_terminal(addr, reuser)), "done");
    let s = stats(addr);
    assert_eq!(stat(&s, "pipeline_runs"), 2);
    assert_eq!(stat(&s, "models_trained"), 1, "reuse job trained a model");
    let donor_result = result_body(addr, donor);
    let reuse_result = result_body(addr, reuser);
    assert_eq!(edge_multiset(&donor_result), edge_multiset(&reuse_result));
    assert_eq!(
        donor_result.get("jaccard").and_then(Json::as_f64),
        reuse_result.get("jaccard").and_then(Json::as_f64),
    );

    // The stored model is listed.
    let models = client::get(addr, "/models")
        .expect("models")
        .json()
        .unwrap();
    assert!(stat(&models, "count") >= 1, "{models}");

    // Dangling references are a 400 at submission.
    let response =
        client::post(addr, "/jobs", r#"{"dataset": "Hosts", "model": "job:999"}"#).expect("submit");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("donor job 999"), "{}", response.body);

    server.shutdown();
}

/// A `marioh serve` child process bound to an ephemeral port.
struct ServeProcess {
    child: Child,
    addr: SocketAddr,
}

fn spawn_serve(state_dir: &std::path::Path) -> ServeProcess {
    spawn_serve_with(state_dir, &[], &[])
}

fn spawn_serve_with(
    state_dir: &std::path::Path,
    extra_args: &[&str],
    envs: &[(&str, &str)],
) -> ServeProcess {
    let mut command = Command::new(env!("CARGO_BIN_EXE_marioh"));
    command
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue-cap",
            "16",
            "--state-dir",
            state_dir.to_str().expect("utf-8 path"),
        ])
        .args(extra_args);
    for (key, value) in envs {
        command.env(key, value);
    }
    let mut child = command
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn marioh serve");
    // The bound address is in the stderr banner:
    // "marioh-server listening on http://127.0.0.1:PORT (...)".
    // Notices (an armed fault plan, say) may precede it, so scan a few
    // lines rather than trusting the first.
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("read listen line");
        assert!(read > 0, "serve exited before its banner: {seen:?}");
        seen.push_str(&line);
        if let Some(addr) = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
        {
            break addr;
        }
        assert!(seen.lines().count() < 10, "no banner in: {seen:?}");
    };
    ServeProcess { child, addr }
}

#[test]
fn sigkilled_server_serves_old_results_and_resumes_its_queue_after_restart() {
    let state_dir =
        std::env::temp_dir().join(format!("marioh-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    // --- first life: a real `marioh serve` process ---------------------
    let serve = spawn_serve(&state_dir);
    let addr = serve.addr;
    let mut child = serve.child;

    let done_id = submit(addr, r#"{"dataset": "Hosts", "seed": 31}"#);
    assert_eq!(status_of(&wait_terminal(addr, done_id)), "done");
    let done_result = result_body(addr, done_id);

    // Occupy the single worker with a throttled job and stack two more
    // behind it, so the kill lands mid-queue: one running, two queued.
    let running_id = submit(
        addr,
        r#"{"dataset": "Hosts", "seed": 32, "throttle_ms": 3000}"#,
    );
    let queued_a = submit(addr, r#"{"dataset": "Hosts", "seed": 33}"#);
    let queued_b = submit(addr, r#"{"dataset": "Hosts", "seed": 34}"#);
    let deadline = Instant::now() + Duration::from_secs(30);
    while status_of(&job_view(addr, running_id)) != "running" {
        assert!(Instant::now() < deadline, "throttled job never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    // SIGKILL: no shutdown hooks, no flushing courtesy — the store's
    // per-append flush discipline is all that survives.
    child.kill().expect("kill serve process");
    child.wait().expect("reap serve process");

    // --- second life: same state dir, in-process for easy assertions ---
    let server = Server::start_with_storage(
        ServerConfig {
            workers: 1,
            queue_cap: 16,
            ..ServerConfig::default()
        },
        StorageConfig {
            state_dir: Some(state_dir.clone()),
            retain: 1024,
            store_budget: None,
        },
    )
    .expect("reopen state dir");
    let addr = server.local_addr();

    // Pre-crash history is intact: same id, same status, and the result
    // is served from disk, byte-equal down to the jaccard bits.
    let view = job_view(addr, done_id);
    assert_eq!(status_of(&view), "done", "{view:?}");
    let replayed = result_body(addr, done_id);
    assert_eq!(edge_multiset(&done_result), edge_multiset(&replayed));
    assert_eq!(
        done_result.get("jaccard").and_then(Json::as_f64),
        replayed.get("jaccard").and_then(Json::as_f64),
    );
    assert_eq!(
        stats(addr).get("store").and_then(Json::as_str),
        Some("disk")
    );

    // The interrupted job and both queued jobs resume and complete.
    for id in [running_id, queued_a, queued_b] {
        let view = wait_terminal(addr, id);
        assert_eq!(status_of(&view), "done", "job {id}: {view:?}");
        assert!(
            !edge_multiset(&result_body(addr, id)).is_empty(),
            "job {id} resumed to an empty result"
        );
    }
    // Lifetime counters survived the crash: 4 submissions total, all
    // finished by now.
    let s = stats(addr);
    assert_eq!(stat(&s, "jobs_submitted"), 4);
    assert_eq!(stat(&s, "jobs_finished"), 4);

    server.shutdown();

    // --- third life: the queue is empty, history still serves ----------
    let server = start_on_disk(&state_dir);
    let addr = server.local_addr();
    assert_eq!(status_of(&job_view(addr, running_id)), "done");
    assert_eq!(stat(&stats(addr), "queue_depth"), 0);
    // An identical resubmission of the first job now hits the on-disk
    // result cache — no pipeline, served across three process lives.
    let resubmitted = submit(addr, r#"{"dataset": "Hosts", "seed": 31}"#);
    let view = job_view(addr, resubmitted);
    assert_eq!(status_of(&view), "done", "{view:?}");
    assert_eq!(view.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(stat(&stats(addr), "pipeline_runs"), 0);
    server.shutdown();

    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_server_killed_between_compaction_snapshot_and_retirement_recovers_cleanly() {
    let state_dir =
        std::env::temp_dir().join(format!("marioh-compact-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    // --- first life: tiny segments, eager compaction, scripted kill ----
    // A 2 KiB segment cap rotates after a handful of records, a
    // compact-after-one-sealed-segment policy wakes the compactor
    // immediately, and `store.compact:exit@nth:2` kills the process at
    // the protocol's worst moment — the snapshot rename has landed but
    // the segments it covers are still on disk.
    let serve = spawn_serve_with(
        &state_dir,
        &["--faults", "store.compact:exit@nth:2"],
        &[
            ("MARIOH_STORE_SEGMENT_BYTES", "2048"),
            ("MARIOH_STORE_COMPACT_SEGMENTS", "1"),
        ],
    );
    let addr = serve.addr;
    let mut child = serve.child;

    let done_id = submit(addr, r#"{"dataset": "Hosts", "seed": 41}"#);
    assert_eq!(status_of(&wait_terminal(addr, done_id)), "done");
    let done_result = result_body(addr, done_id);

    // Keep submitting until the WAL rotates and the background
    // compaction trips the scripted exit. Submissions race the kill, so
    // tolerate refused connections and only count acknowledged jobs.
    let mut acked = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve process") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "scripted mid-compaction exit never fired"
        );
        let seed = 100 + acked.len();
        if let Ok(response) = client::post(
            addr,
            "/jobs",
            &format!(r#"{{"dataset": "Hosts", "seed": {seed}}}"#),
        ) {
            if response.status == 201 {
                if let Some(id) = response
                    .json()
                    .ok()
                    .and_then(|j| j.get("id").and_then(Json::as_u64))
                {
                    acked.push(id);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        status.code(),
        Some(86),
        "process must die through the fault exit, not a crash of its own"
    );

    // --- second life: replay must skip the snapshotted segments -------
    let server = Server::start_with_storage(
        ServerConfig {
            workers: 1,
            queue_cap: 1024,
            ..ServerConfig::default()
        },
        StorageConfig {
            state_dir: Some(state_dir.clone()),
            retain: 1024,
            store_budget: None,
        },
    )
    .expect("reopen after mid-compaction kill");
    let addr = server.local_addr();

    // The pre-crash result survives byte-for-byte, and every job the
    // dead server acknowledged is still known and runs to completion.
    let replayed = result_body(addr, done_id);
    assert_eq!(edge_multiset(&done_result), edge_multiset(&replayed));
    assert_eq!(
        done_result.get("jaccard").and_then(Json::as_f64),
        replayed.get("jaccard").and_then(Json::as_f64),
    );
    for &id in &acked {
        let view = wait_terminal(addr, id);
        assert_eq!(status_of(&view), "done", "job {id}: {view:?}");
    }
    let s = stats(addr);
    assert_eq!(stat(&s, "jobs_submitted"), 1 + acked.len() as u64);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A result body past its leading `{"id":N,` — a resubmitted job
/// answers under its own id, and everything after it must match.
fn past_id(body: &str) -> Option<&str> {
    Some(body.strip_prefix(r#"{"id":"#)?.split_once(',')?.1)
}

/// Opens the disk store at `state_dir` in-process. The previous life's
/// detached connection threads may hold the store (and its exclusive
/// dir lock) for a moment after shutdown returns; retry briefly instead
/// of flaking on "state dir is in use".
fn start_on_disk(state_dir: &std::path::Path) -> Server {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Server::start_with_storage(
            ServerConfig {
                workers: 2,
                queue_cap: 16,
                ..ServerConfig::default()
            },
            StorageConfig {
                state_dir: Some(state_dir.to_path_buf()),
                retain: 4096,
                store_budget: None,
            },
        ) {
            Ok(server) => return server,
            Err(e) if Instant::now() < deadline && e.to_string().contains("in use") => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("open state dir: {e}"),
        }
    }
}

#[test]
fn interleaved_cache_hits_on_a_disk_store_all_succeed_with_identical_results() {
    let state_dir = std::env::temp_dir().join(format!("marioh-shared-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    // Hosts reconstructs to a multi-KB result, Crime to a smaller one.
    let bodies = [
        r#"{"dataset": "Hosts", "seed": 51}"#,
        r#"{"dataset": "Crime", "seed": 52}"#,
    ];

    // First life: run both specs and keep their first fetched results.
    let server = start_on_disk(&state_dir);
    let addr = server.local_addr();
    let ids: Vec<u64> = bodies.iter().map(|body| submit(addr, body)).collect();
    let references: Vec<String> = ids
        .iter()
        .map(|&id| {
            assert_eq!(status_of(&wait_terminal(addr, id)), "done");
            let response = client::get(addr, &format!("/jobs/{id}/result")).expect("result");
            assert_eq!(response.status, 200, "{}", response.body);
            response.body
        })
        .collect();
    assert!(references[0].len() > 2048, "{} bytes", references[0].len());
    server.shutdown();

    // Second life: the original records are replayed, so their results
    // load lazily while resubmits probe the same artifacts — from two
    // client threads at once.
    let server = start_on_disk(&state_dir);
    let addr = server.local_addr();
    const OPS_PER_CLIENT: usize = 150;
    let outcomes: Vec<(usize, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|client_no| {
                let (ids, references) = (&ids, &references);
                s.spawn(move || {
                    let mut resubmits = 0;
                    let mut failures = Vec::new();
                    let mut check = |ok: bool, what: String| {
                        if !ok {
                            failures.push(what);
                        }
                    };
                    // The servebench `cached` mix: 10% resubmits (each
                    // followed by a fetch), 30% status reads, 60% result
                    // fetches.
                    for op in 0..OPS_PER_CLIENT {
                        let spec = (op + client_no) % 2;
                        let id = ids[spec];
                        match op % 10 {
                            0 => {
                                resubmits += 1;
                                let r =
                                    client::post(addr, "/jobs", bodies[spec]).expect("resubmit");
                                check(
                                    r.status == 201,
                                    format!("resubmit: {} {}", r.status, r.body),
                                );
                                let view = r.json().unwrap_or(Json::Null);
                                check(
                                    view.get("status").and_then(Json::as_str) == Some("done")
                                        && view.get("cached").and_then(Json::as_bool) == Some(true),
                                    format!("resubmit not answered from cache: {}", r.body),
                                );
                                let Some(new_id) = view.get("id").and_then(Json::as_u64) else {
                                    check(false, format!("resubmit without id: {}", r.body));
                                    continue;
                                };
                                let r = client::get(addr, &format!("/jobs/{new_id}/result"))
                                    .expect("fetch resubmitted result");
                                check(r.status == 200, format!("result {new_id}: {}", r.status));
                                check(
                                    past_id(&r.body).is_some()
                                        && past_id(&r.body) == past_id(&references[spec]),
                                    format!(
                                        "result of resubmit {new_id} differs from spec {spec}'s"
                                    ),
                                );
                            }
                            1..=3 => {
                                let r = client::get(addr, &format!("/jobs/{id}")).expect("status");
                                check(r.status == 200, format!("status {id}: {}", r.status));
                                let view = r.json().unwrap_or(Json::Null);
                                check(
                                    view.get("status").and_then(Json::as_str) == Some("done"),
                                    format!("job {id} reports {}", r.body),
                                );
                            }
                            _ => {
                                let r = client::get(addr, &format!("/jobs/{id}/result"))
                                    .expect("result");
                                check(r.status == 200, format!("result {id}: {}", r.status));
                                check(
                                    r.body == references[spec],
                                    format!("result of job {id} differs from its first fetch"),
                                );
                            }
                        }
                    }
                    (resubmits, failures)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let failures: Vec<&String> = outcomes.iter().flat_map(|(_, f)| f).collect();
    assert!(
        failures.is_empty(),
        "{} failed: {failures:?}",
        failures.len()
    );
    let resubmits: usize = outcomes.iter().map(|(n, _)| n).sum();
    let s = stats(addr);
    assert_eq!(stat(&s, "pipeline_runs"), 0, "a resubmit ran a pipeline");
    assert_eq!(stat(&s, "cache_hits"), resubmits as u64);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}
