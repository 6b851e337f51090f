//! End-to-end tests of `marioh-server`: a live service on an ephemeral
//! port, driven exclusively through the std-only HTTP client — no
//! external HTTP crate anywhere.
//!
//! Covers the acceptance criteria of the serving subsystem: a submitted
//! job's result is bit-identical to a direct [`Pipeline`] run, a 2-worker
//! pool never runs more than 2 of 8 submitted jobs at once while all 8
//! reach a terminal state, `DELETE` on a running job reports it
//! `Cancelled` within one search round, and hyperparameter validation
//! errors round-trip the pipeline builder's own message as a 400.

use marioh::core::{Pipeline, Reconstructor as _};
use marioh::datasets::{split::split_source_target, PaperDataset};
use marioh::hypergraph::projection::project;
use marioh::hypergraph::Hypergraph;
use marioh::server::{client, Json, Server, ServerConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start(workers: usize, queue_cap: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_cap,
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

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

fn rounds_of(view: &Json) -> u64 {
    view.get("progress")
        .and_then(|p| p.get("rounds"))
        .and_then(Json::as_u64)
        .expect("progress.rounds field")
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

/// The hyperedge multiset as comparable plain data.
fn edge_multiset(h: &Hypergraph) -> Vec<(Vec<u64>, u64)> {
    let mut edges: Vec<(Vec<u64>, u64)> = h
        .sorted_edges()
        .into_iter()
        .map(|e| {
            (
                e.nodes().iter().map(|n| u64::from(n.0)).collect(),
                u64::from(h.multiplicity(e)),
            )
        })
        .collect();
    edges.sort();
    edges
}

fn edge_multiset_from_json(result: &Json) -> Vec<(Vec<u64>, u64)> {
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
fn submitted_job_matches_a_direct_pipeline_run() {
    let server = start(2, 16);
    let addr = server.local_addr();

    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    let seed = 1u64;
    let id = submit(addr, &format!(r#"{{"dataset": "Hosts", "seed": {seed}}}"#));
    let view = wait_terminal(addr, id);
    assert_eq!(status_of(&view), "done", "{view:?}");
    assert!(rounds_of(&view) >= 1, "no search rounds observed: {view:?}");

    let response = client::get(addr, &format!("/jobs/{id}/result")).expect("result");
    assert_eq!(response.status, 200, "{}", response.body);
    let result = response.json().expect("valid JSON");

    // Replicate the worker's exact RNG discipline: one StdRng drives
    // split → train → reconstruct.
    let data = PaperDataset::Hosts.generate_scaled(PaperDataset::Hosts.default_scale());
    let mut rng = StdRng::seed_from_u64(seed);
    let (source, target) = split_source_target(&data.hypergraph, &mut rng);
    let pipeline = Pipeline::builder().build().expect("default pipeline");
    let model = pipeline.train(&source, &mut rng).expect("train");
    let direct = model
        .reconstruct(&project(&target), &mut rng)
        .expect("reconstruct");

    assert_eq!(
        edge_multiset_from_json(&result),
        edge_multiset(&direct),
        "served result differs from the direct pipeline run"
    );
    let jaccard = result
        .get("jaccard")
        .and_then(Json::as_f64)
        .expect("jaccard");
    assert!(jaccard > 0.5, "jaccard {jaccard}");

    server.shutdown();
}

#[test]
fn eight_jobs_on_two_workers_stay_bounded_and_a_running_job_cancels() {
    let server = start(2, 16);
    let addr = server.local_addr();

    // Throttled tiny jobs: each occupies its worker for an observable
    // window (cancellable sleep before start and after each round).
    let ids: Vec<u64> = (0..8)
        .map(|seed| {
            submit(
                addr,
                &format!(r#"{{"dataset": "Hosts", "seed": {seed}, "throttle_ms": 150}}"#),
            )
        })
        .collect();

    // Find a job mid-run and cancel it. A fresh submission enters a
    // ≥150 ms cancellable delay as soon as a worker picks it up, so
    // retrying across the pool always catches one in `running`.
    let deadline = Instant::now() + Duration::from_secs(60);
    let cancelled_id = 'found: loop {
        assert!(Instant::now() < deadline, "never caught a running job");
        for &id in &ids {
            let view = job_view(addr, id);
            if status_of(&view) != "running" {
                continue;
            }
            let response = client::delete(addr, &format!("/jobs/{id}")).expect("cancel");
            assert_eq!(response.status, 200, "{}", response.body);
            let body = response.json().expect("valid JSON");
            if status_of(&body) != "cancelled" {
                continue; // finished in the observation window; try another
            }
            // Baseline AFTER the DELETE landed (the token is fired by
            // now), so rounds completed before cancellation don't race
            // the assertion: only the round in flight may still finish.
            let rounds_at_cancel = rounds_of(&job_view(addr, id));
            let final_view = wait_terminal(addr, id);
            assert_eq!(status_of(&final_view), "cancelled", "{final_view:?}");
            assert!(
                rounds_of(&final_view) <= rounds_at_cancel + 1,
                "cancelled job kept running: {rounds_at_cancel} -> {final_view:?}"
            );
            break 'found id;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    // Drain the rest, sampling /stats continuously: concurrency stays
    // bounded by the pool size the whole way down.
    let mut max_running = 0;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let response = client::get(addr, "/stats").expect("stats");
        assert_eq!(response.status, 200);
        let stats = response.json().expect("valid JSON");
        let running = stats
            .get("running")
            .and_then(Json::as_u64)
            .expect("running");
        let finished = stats
            .get("jobs_finished")
            .and_then(Json::as_u64)
            .expect("jobs_finished");
        assert_eq!(stats.get("workers").and_then(Json::as_u64), Some(2));
        assert!(running <= 2, "unbounded concurrency: {running} running");
        max_running = max_running.max(running);
        if finished == 8 {
            break;
        }
        assert!(Instant::now() < deadline, "jobs did not drain: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(max_running >= 1, "never observed a running job in /stats");

    // All eight reached a terminal state; everything but the cancelled
    // job completed.
    for &id in &ids {
        let status = status_of(&wait_terminal(addr, id));
        if id == cancelled_id {
            assert_eq!(status, "cancelled");
        } else {
            assert_eq!(status, "done", "job {id}");
        }
    }
    let stats = client::get(addr, "/stats").expect("stats").json().unwrap();
    assert_eq!(stats.get("jobs_submitted").and_then(Json::as_u64), Some(8));
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(0));

    server.shutdown();
}

#[test]
fn bad_hyperparameters_round_trip_the_builder_message_as_400() {
    let server = start(1, 4);
    let addr = server.local_addr();

    // Regression: a bad theta_init must answer 400 with the exact
    // message `Pipeline::builder()` produces — never a 500.
    let expected = Pipeline::builder()
        .theta_init(42.0)
        .build()
        .expect_err("42.0 is out of domain")
        .to_string();
    let response = client::post(
        addr,
        "/jobs",
        r#"{"dataset": "Hosts", "params": {"theta_init": 42.0}}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 400, "{}", response.body);
    let body = response.json().expect("valid JSON");
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some(expected.as_str())
    );

    // Duplicate hyperparameters are a 400, not silent last-wins.
    let response = client::post(
        addr,
        "/jobs",
        r#"{"dataset": "Hosts", "params": {"theta_init": 0.9, "theta_init": 0.8}}"#,
    )
    .expect("submit");
    assert_eq!(response.status, 400);
    let error = response
        .json()
        .expect("valid JSON")
        .get("error")
        .and_then(Json::as_str)
        .expect("error field")
        .to_owned();
    assert!(error.contains("duplicate hyperparameter"), "{error}");

    // Malformed JSON and unknown datasets are 400s too.
    assert_eq!(
        client::post(addr, "/jobs", "{{{").expect("submit").status,
        400
    );
    let response = client::post(addr, "/jobs", r#"{"dataset": "Atlantis"}"#).expect("submit");
    assert_eq!(response.status, 400);

    // Nothing was accepted.
    let stats = client::get(addr, "/stats").expect("stats").json().unwrap();
    assert_eq!(stats.get("jobs_submitted").and_then(Json::as_u64), Some(0));

    server.shutdown();
}

#[test]
fn oversized_or_overflowing_uploads_are_400s() {
    let server = start(1, 4);
    let addr = server.local_addr();

    // Each upload would crash a job (or the process) if it were run: a
    // 4e9-node universe, u32 ids and counts that wrap.
    for (edges, needle) in [
        ("1 0 4000000000", "node id 4000000000 is too large"),
        (
            "4294967295 0 1\n1 0 2",
            "total multiplicity 4294967296 is above",
        ),
        ("1 0 4294967295", "out of range"),
        ("4294967295 0 1\n1 1 0", "repeated hyperedge passes"),
    ] {
        let body = format!(r#"{{"edges": {}}}"#, Json::str(edges));
        let response = client::post(addr, "/jobs", &body).expect("submit");
        assert_eq!(response.status, 400, "{edges:?}: {}", response.body);
        let error = response
            .json()
            .expect("valid JSON")
            .get("error")
            .and_then(Json::as_str)
            .expect("error field")
            .to_owned();
        assert!(
            error.starts_with("invalid edge list") && error.contains(needle),
            "{edges:?}: {error}"
        );
    }

    let stats = client::get(addr, "/stats").expect("stats").json().unwrap();
    assert_eq!(stats.get("jobs_submitted").and_then(Json::as_u64), Some(0));
    server.shutdown();
}

#[test]
fn uploaded_edge_lists_reconstruct_and_shutdown_cancels_in_flight_jobs() {
    let server = start(1, 8);
    let addr = server.local_addr();

    // A structured hypergraph in the text format, inline in the body.
    let mut lines = String::new();
    for b in 0..30u32 {
        let base = b * 3;
        lines.push_str(&format!("2 {} {} {}\n", base, base + 1, base + 2));
        lines.push_str(&format!("1 {} {}\n", base, base + 1));
    }
    let body = Json::Obj(vec![
        ("edges".to_owned(), Json::str(lines)),
        ("seed".to_owned(), Json::num(3.0)),
    ]);
    let id = submit(addr, &body.to_string());
    let view = wait_terminal(addr, id);
    assert_eq!(status_of(&view), "done", "{view:?}");
    let result = client::get(addr, &format!("/jobs/{id}/result")).expect("result");
    assert_eq!(result.status, 200);
    assert!(
        !edge_multiset_from_json(&result.json().unwrap()).is_empty(),
        "empty reconstruction"
    );

    // Park a long throttled job plus a queued one, then shut down:
    // both must end Cancelled, and shutdown must not hang on them.
    let running = submit(addr, r#"{"dataset": "Hosts", "throttle_ms": 60000}"#);
    let queued = submit(addr, r#"{"dataset": "Hosts", "throttle_ms": 60000}"#);
    loop {
        if status_of(&job_view(addr, running)) == "running" {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let t0 = Instant::now();
    let manager = server.manager().clone();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "shutdown hung on in-flight jobs"
    );
    use marioh::server::JobStatus;
    assert_eq!(manager.view(running).unwrap().status, JobStatus::Cancelled);
    assert_eq!(manager.view(queued).unwrap().status, JobStatus::Cancelled);
}
