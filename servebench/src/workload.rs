//! The three workloads, driven against a live `marioh serve` from at
//! most [`CLIENTS`] client threads, one connection each at a time.

use crate::gen::{self, Stream};
use crate::serve::{request, Response, ScratchDir, Server};
use crate::stats;
use marioh_datasets::split::split_source_target;
use marioh_hypergraph::io::read_hypergraph;
use marioh_hypergraph::metrics::jaccard;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::Hypergraph;
use marioh_store::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client threads (and so concurrent connections): the core count of
/// the machine the benchmark was calibrated on.
pub const CLIENTS: usize = 2;

/// Times set-up is repeated per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Mean interval between status polls of one in-flight job. Each pause
/// is drawn uniformly from `[0, 2 × POLL)`: with a fixed pause, job
/// latencies snap to whole poll periods (about 15 ms with the request
/// itself), and a run's median jumps between grid points.
pub const POLL: Duration = Duration::from_millis(10);

/// A job not done after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Interval between `/stats` queue-depth samples in traced runs.
const STATS_EVERY: Duration = Duration::from_millis(250);

/// Offered rate of the cached workload's open loop, in requests/s.
pub const CACHED_RATE: f64 = 60.0;

/// Shares of the cached workload's request mix: resubmits, status
/// reads, result reads.
pub const CACHED_MIX: [(Route, f64); 3] = [
    (Route::Submit, 0.1),
    (Route::Status, 0.3),
    (Route::Result, 0.6),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fresh,
    Transfer,
    Cached,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fresh" => Some(Workload::Fresh),
            "transfer" => Some(Workload::Transfer),
            "cached" => Some(Workload::Cached),
            _ => None,
        }
    }

    pub fn server_flags(self, state_dir: &str) -> Vec<String> {
        let flags: Vec<&str> = match self {
            Workload::Fresh => vec!["--workers", "2"],
            Workload::Transfer => vec!["--shards", "2"],
            Workload::Cached => vec![
                "--workers",
                "2",
                "--retain",
                "1000000",
                "--state-dir",
                state_dir,
            ],
        };
        flags.into_iter().map(str::to_owned).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Submit,
    Status,
    Result,
    Stats,
}

/// One timed HTTP operation.
#[derive(Debug, Clone)]
pub struct Req {
    pub route: Route,
    pub ms: f64,
    /// When the request completed, in seconds since the timed phase
    /// began.
    pub done_at_s: f64,
    pub bytes: usize,
    /// Cached workload: the spec the request was about.
    pub spec: usize,
}

/// One job whose result was fetched.
#[derive(Debug, Clone)]
pub struct Job {
    pub index: u64,
    pub latency_s: f64,
    /// When the job completed, in seconds since the timed phase began.
    pub done_at_s: f64,
    pub request: String,
    pub result: String,
}

/// What a client thread (or the whole run) observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Start of the timed phase.
    pub origin: Option<Instant>,
    pub reqs: Vec<Req>,
    pub jobs: Vec<Job>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub late_ms: Vec<f64>,
    pub queue_depth: Vec<f64>,
    pub errors: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.origin = self.origin.or(other.origin);
        self.reqs.extend(other.reqs);
        self.jobs.extend(other.jobs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.late_ms.extend(other.late_ms);
        self.queue_depth.extend(other.queue_depth);
        self.errors.extend(other.errors);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn mismatch(&mut self, msg: String) {
        self.mismatches += 1;
        self.fail(msg);
    }

    /// One timed request; any transport error or status other than
    /// `expect` is a failure (a 503 with `Retry-After` included) and is
    /// never retried.
    fn op(
        &mut self,
        server: &Server,
        route: Route,
        method: &str,
        path: &str,
        body: &str,
        expect: u16,
    ) -> Option<Response> {
        self.attempted += 1;
        let t = Instant::now();
        let outcome = request(server.addr, method, path, body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let done_at_s = self.origin.map_or(0.0, |o| o.elapsed().as_secs_f64());
        match outcome {
            Ok(r) if r.status == expect => {
                self.reqs.push(Req {
                    route,
                    ms,
                    done_at_s,
                    bytes: r.body.len(),
                    spec: 0,
                });
                Some(r)
            }
            Ok(r) => {
                self.fail(format!(
                    "{method} {path}: status {} {}",
                    r.status,
                    r.body.trim()
                ));
                None
            }
            Err(e) => {
                self.fail(format!("{method} {path}: {e}"));
                None
            }
        }
    }
}

/// Everything one run measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    pub tally: Tally,
    pub rss_mb: f64,
    pub stats_before: Json,
    pub stats_after: Json,
    pub metrics_before: String,
    pub metrics_after: String,
    pub server_flags: Vec<String>,
    /// Request bodies of set-up jobs the replay needs (donors, cache
    /// fill), with their job ids.
    pub setup_jobs: Vec<(u64, String)>,
    /// Cached workload: the first fetch of each spec's result.
    pub references: Vec<String>,
    /// Shares of machine CPU time, over the timed phase, that was busy
    /// and that the hypervisor stole.
    pub cpu_share: f64,
    pub steal_share: f64,
}

pub struct Config {
    pub marioh: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
}

fn submit(server: &Server, body: &str) -> Result<u64, String> {
    let r = request(server.addr, "POST", "/jobs", body).map_err(|e| e.to_string())?;
    if r.status != 201 {
        return Err(format!("submit: status {} {}", r.status, r.body.trim()));
    }
    let json = Json::parse(&r.body)?;
    json.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "submit: no id".to_owned())
}

fn wait_done(server: &Server, id: u64) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let r =
            request(server.addr, "GET", &format!("/jobs/{id}"), "").map_err(|e| e.to_string())?;
        let json = Json::parse(&r.body)?;
        match json.get("status").and_then(Json::as_str) {
            Some("done") => return Ok(()),
            Some("queued" | "running") if t0.elapsed() < JOB_TIMEOUT => {}
            other => return Err(format!("set-up job {id} ended {other:?}: {}", r.body)),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn fetch(server: &Server, path: &str) -> Result<String, String> {
    let r = request(server.addr, "GET", path, "").map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    Ok(r.body)
}

/// Submits set-up jobs (all at once, so both workers fill) and waits
/// for every one; returns their ids in order.
fn run_setup_jobs(server: &Server, bodies: &[String]) -> Result<Vec<u64>, String> {
    let ids = bodies
        .iter()
        .map(|b| submit(server, b))
        .collect::<Result<Vec<_>, _>>()?;
    for id in &ids {
        wait_done(server, *id)?;
    }
    Ok(ids)
}

/// State a set-up leaves for the timed phase.
struct Ready {
    server: Server,
    setup_jobs: Vec<(u64, String)>,
    references: Vec<String>,
    _state: Option<ScratchDir>,
}

fn set_up(
    cfg: &Config,
    workload: Workload,
    rep: usize,
) -> Result<(Ready, f64, Vec<String>), String> {
    // Inputs are generated before the clock starts.
    let state = match workload {
        Workload::Cached => Some(
            ScratchDir::new(&cfg.scratch, &format!("state-{rep}")).map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    let state_path = state
        .as_ref()
        .map(|s| s.0.to_string_lossy().into_owned())
        .unwrap_or_default();
    let flags = workload.server_flags(&state_path);
    let donors = gen::donor_jobs(cfg.seed);
    // A fresh server numbers jobs from 1, so the cache donor's id is
    // known before it is submitted.
    let cache_specs = gen::cache_specs(cfg.seed, 1);
    let log = cfg.scratch.join(format!("serve-{rep}.log"));

    let t0 = Instant::now();
    let server = Server::start(&cfg.marioh, &flags, &log)?;
    let mut references = Vec::new();
    let setup_jobs = match workload {
        // Warm-up on fresh; the donors whose models transfer jobs reuse.
        Workload::Fresh | Workload::Transfer => {
            let ids = run_setup_jobs(&server, &donors)?;
            ids.into_iter().zip(donors).collect()
        }
        // Cache fill: the donor first (its id is what the other specs
        // reference), then every spec, then one fetch of each result.
        Workload::Cached => {
            let donor = run_setup_jobs(&server, &cache_specs[..1])?;
            if donor != [1] {
                return Err(format!("cache donor got id {donor:?}, expected 1"));
            }
            let mut ids = donor;
            ids.extend(run_setup_jobs(&server, &cache_specs[1..])?);
            for id in &ids {
                references.push(fetch(&server, &format!("/jobs/{id}/result"))?);
            }
            ids.into_iter().zip(cache_specs).collect()
        }
    };
    let elapsed = t0.elapsed().as_secs_f64();
    Ok((
        Ready {
            server,
            setup_jobs,
            references,
            _state: state,
        },
        elapsed,
        flags,
    ))
}

/// Runs `workload` once: set-up (repeated), the timed phase, and the
/// post-run reads. Verification and replay happen afterwards, off the
/// clock.
pub fn run(cfg: &Config, workload: Workload) -> Result<Run, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ready: Option<Ready> = None;
    let mut server_flags = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(previous) = ready.take() {
            previous.server.stop();
        }
        let (r, secs, flags) = set_up(cfg, workload, rep)?;
        setup_s.push(secs);
        server_flags = flags;
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    let server = &ready.server;
    let stats_before = Json::parse(&fetch(server, "/stats")?)?;
    let metrics_before = fetch(server, "/metrics")?;

    let cpu_before = cpu_ticks();
    let t0 = Instant::now();
    let tally = match workload {
        Workload::Fresh => closed_loop(cfg, server, &|i| gen::fresh_job(cfg.seed, i)),
        Workload::Transfer => {
            let donor_ids: Vec<u64> = ready.setup_jobs.iter().map(|(id, _)| *id).collect();
            closed_loop(cfg, server, &|i| gen::transfer_job(cfg.seed, i, &donor_ids))
        }
        Workload::Cached => {
            let ops = schedule(cfg.seed, CACHED_RATE, cfg.seconds, ready.setup_jobs.len());
            open_loop(server, &ops, &ready.setup_jobs, &ready.references)
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_after = cpu_ticks();
    let (cpu_share, steal_share) = cpu_shares(&cpu_before, &cpu_after);

    let stats_after = Json::parse(&fetch(server, "/stats")?)?;
    let metrics_after = fetch(server, "/metrics")?;
    let rss_mb = server.peak_rss_mb();
    let Ready {
        server,
        setup_jobs,
        references,
        _state,
    } = ready;
    server.stop();
    drop(_state); // the state dir goes only once the server is down
    Ok(Run {
        setup_s,
        wall_s,
        tally,
        rss_mb,
        stats_before,
        stats_after,
        metrics_before,
        metrics_after,
        server_flags,
        setup_jobs,
        references,
        cpu_share,
        steal_share,
    })
}

/// Shares of machine CPU time between two [`cpu_ticks`] readings that
/// were busy and that the hypervisor stole.
fn cpu_shares(before: &[u64], after: &[u64]) -> (f64, f64) {
    let delta = |i: usize| after.get(i).copied().unwrap_or(0) - before.get(i).copied().unwrap_or(0);
    let total = (0..8).map(delta).sum::<u64>().max(1) as f64;
    let busy = [0, 1, 2, 5, 6].map(delta).iter().sum::<u64>() as f64;
    (busy / total, delta(7) as f64 / total)
}

/// The machine-wide `cpu` line of `/proc/stat`: user, nice, system,
/// idle, iowait, irq, softirq, steal ticks (empty off Linux).
fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned))
        .map(|l| {
            l.split_ascii_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Closed loop: each client submits a job, polls its status until it is
/// done, fetches the result, and only then submits the next. Jobs are
/// numbered in submission order across clients.
fn closed_loop(cfg: &Config, server: &Server, job: &(dyn Fn(u64) -> String + Sync)) -> Tally {
    let next = AtomicU64::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(cfg.seconds);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let sample_stats = cfg.trace && client == 0;
                    let mut pauses = gen::rng(cfg.seed, Stream::Poll, client as u64);
                    let mut t = Tally {
                        origin: Some(origin),
                        ..Tally::default()
                    };
                    let mut last_stats = Instant::now();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let request = job(index);
                        let start = Instant::now();
                        let Some(r) = t.op(server, Route::Submit, "POST", "/jobs", &request, 201)
                        else {
                            continue;
                        };
                        let Some(id) = Json::parse(&r.body)
                            .ok()
                            .and_then(|j| j.get("id").and_then(Json::as_u64))
                        else {
                            t.mismatch(format!("job {index}: submit answer without id"));
                            continue;
                        };
                        let status_path = format!("/jobs/{id}");
                        let mut done = false;
                        while start.elapsed() < JOB_TIMEOUT {
                            let pause = POLL.mul_f64(2.0 * pauses.gen::<f64>());
                            let due = Instant::now() + pause;
                            std::thread::sleep(pause);
                            t.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                            let Some(r) = t.op(server, Route::Status, "GET", &status_path, "", 200)
                            else {
                                break;
                            };
                            let status = Json::parse(&r.body).ok().and_then(|j| {
                                j.get("status").and_then(Json::as_str).map(str::to_owned)
                            });
                            if sample_stats && last_stats.elapsed() >= STATS_EVERY {
                                last_stats = Instant::now();
                                if let Some(r) =
                                    t.op(server, Route::Stats, "GET", "/stats", "", 200)
                                {
                                    if let Some(depth) = Json::parse(&r.body)
                                        .ok()
                                        .and_then(|j| j.get("queue_depth").and_then(Json::as_f64))
                                    {
                                        t.queue_depth.push(depth);
                                    }
                                }
                            }
                            match status.as_deref() {
                                Some("queued" | "running") => {}
                                Some("done") => {
                                    done = true;
                                    break;
                                }
                                other => {
                                    t.fail(format!("job {index} (id {id}) ended {other:?}"));
                                    break;
                                }
                            }
                        }
                        if !done {
                            if start.elapsed() >= JOB_TIMEOUT {
                                t.fail(format!("job {index} (id {id}) timed out"));
                            }
                            continue;
                        }
                        let path = format!("/jobs/{id}/result");
                        if let Some(r) = t.op(server, Route::Result, "GET", &path, "", 200) {
                            t.jobs.push(Job {
                                index,
                                latency_s: start.elapsed().as_secs_f64(),
                                done_at_s: origin.elapsed().as_secs_f64(),
                                request,
                                result: r.body,
                            });
                        }
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total.jobs.sort_by_key(|j| j.index);
    total
}

/// One scheduled request of the cached workload's open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub due: Duration,
    pub route: Route,
    pub spec: usize,
}

/// The cached workload's schedule: `rate × seconds` requests at seeded
/// Poisson arrival times (uniform order statistics — a Poisson process
/// conditioned on its count). The route mix follows [`CACHED_MIX`] and
/// specs are spread evenly within each route, in exact counts; only the
/// order is shuffled by the seed. Fixed counts keep the rare heavy
/// requests (resubmits of the largest upload) at the same share of the
/// tail on every seed.
pub fn schedule(seed: u64, rate: f64, seconds: f64, specs: usize) -> Vec<Op> {
    let mut r = gen::rng(seed, Stream::Schedule, 0);
    let n = (rate * seconds).round() as usize;
    let mut kinds: Vec<(Route, usize)> = Vec::with_capacity(n);
    for (k, (route, share)) in CACHED_MIX.iter().enumerate() {
        let count = if k + 1 == CACHED_MIX.len() {
            n - kinds.len()
        } else {
            (n as f64 * share).round() as usize
        };
        kinds.extend((0..count).map(|i| (*route, i % specs)));
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, r.gen_range(0..=i));
    }
    let mut due: Vec<f64> = (0..n).map(|_| r.gen::<f64>() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .zip(kinds)
        .map(|(at, (route, spec))| Op {
            due: Duration::from_secs_f64(at),
            route,
            spec,
        })
        .collect()
}

/// Open loop: requests are due on the schedule whether or not earlier
/// ones finished; each is timed from when it was due, and how late a
/// client thread started it is recorded as generator lateness.
fn open_loop(server: &Server, ops: &[Op], specs: &[(u64, String)], references: &[String]) -> Tally {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut t = Tally {
                        origin: Some(start),
                        ..Tally::default()
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst) as usize;
                        let Some(op) = ops.get(i) else {
                            return t;
                        };
                        let due = start + op.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        t.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        let (id, body) = (&specs[op.spec].0, &specs[op.spec].1);
                        let reqs_before = t.reqs.len();
                        match op.route {
                            // A cached job: resubmit, then fetch the answer
                            // under the id the resubmit returned.
                            Route::Submit => {
                                if let Some(r) =
                                    t.op(server, Route::Submit, "POST", "/jobs", body, 201)
                                {
                                    let json = Json::parse(&r.body).ok();
                                    let field = |key: &str| json.as_ref().and_then(|j| j.get(key));
                                    let new_id = field("id").and_then(Json::as_u64);
                                    let cached = field("status").and_then(Json::as_str)
                                        == Some("done")
                                        && field("cached").and_then(Json::as_bool) == Some(true);
                                    match new_id.filter(|_| cached) {
                                        None => t.mismatch(format!(
                                            "resubmit of spec {} not served from cache: {}",
                                            op.spec, r.body
                                        )),
                                        Some(new_id) => {
                                            let path = format!("/jobs/{new_id}/result");
                                            if let Some(r) =
                                                t.op(server, Route::Result, "GET", &path, "", 200)
                                            {
                                                if !same_result(&r.body, &references[op.spec]) {
                                                    t.mismatch(format!(
                                                        "result of resubmitted job {new_id} differs from spec {}'s",
                                                        op.spec
                                                    ));
                                                } else {
                                                    t.jobs.push(Job {
                                                        index: i as u64,
                                                        latency_s: due.elapsed().as_secs_f64(),
                                                        done_at_s: start.elapsed().as_secs_f64(),
                                                        request: String::new(),
                                                        result: String::new(),
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            Route::Status => {
                                if let Some(r) = t.op(
                                    server,
                                    Route::Status,
                                    "GET",
                                    &format!("/jobs/{id}"),
                                    "",
                                    200,
                                ) {
                                    let json = Json::parse(&r.body).ok();
                                    if json
                                        .as_ref()
                                        .and_then(|j| j.get("status").and_then(Json::as_str))
                                        != Some("done")
                                    {
                                        t.mismatch(format!("cached job {id} reports {}", r.body));
                                    }
                                }
                            }
                            Route::Result | Route::Stats => {
                                if let Some(r) = t.op(
                                    server,
                                    Route::Result,
                                    "GET",
                                    &format!("/jobs/{id}/result"),
                                    "",
                                    200,
                                ) {
                                    if r.body != references[op.spec] {
                                        t.mismatch(format!(
                                            "result of job {id} differs from its first fetch"
                                        ));
                                    }
                                }
                            }
                        }
                        // Open-loop latency runs from when the request was
                        // due; a resubmit's follow-up fetch is due the moment
                        // the resubmit answers, so it keeps its own timing.
                        if let Some(req) = t.reqs.get_mut(reqs_before) {
                            req.ms = (req.done_at_s - op.due.as_secs_f64()) * 1e3;
                        }
                        for req in &mut t.reqs[reqs_before..] {
                            req.spec = op.spec;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total
}

/// Whether two result bodies are byte-equal past their leading
/// `{"id":N,` (a resubmitted job answers under its own id).
fn same_result(a: &str, b: &str) -> bool {
    fn tail(s: &str) -> Option<&str> {
        Some(s.strip_prefix(r#"{"id":"#)?.split_once(',')?.1)
    }
    matches!((tail(a), tail(b)), (Some(x), Some(y)) if x == y)
}

/// Checks one served result against its request: the returned Jaccard
/// is exactly the Jaccard of the returned edges against the target half
/// of the uploaded graph, and the reconstruction projects onto exactly
/// the target's projected graph.
pub fn verify(request: &str, result: &str) -> Result<(Hypergraph, f64), String> {
    let (rec, served_jaccard) = stats::parse_result(result)?;
    let (edges, seed) = gen::body_parts(request).ok_or("request body not made by this bench")?;
    let h = read_hypergraph(edges.as_bytes()).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, target) = split_source_target(&h, &mut rng);
    let expected = jaccard(&target, &rec);
    if expected.to_bits() != served_jaccard.to_bits() {
        return Err(format!(
            "served jaccard {served_jaccard} but the returned edges score {expected}"
        ));
    }
    if project(&target).sorted_edge_list() != project(&rec).sorted_edge_list() {
        return Err("reconstruction does not project onto the uploaded target graph".to_owned());
    }
    Ok((rec, served_jaccard))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resubmitted_results_compare_past_their_id() {
        let a = r#"{"id":3,"jaccard":1,"edges":[]}"#;
        assert!(same_result(r#"{"id":41,"jaccard":1,"edges":[]}"#, a));
        assert!(!same_result(r#"{"id":41,"jaccard":0.5,"edges":[]}"#, a));
        assert!(!same_result("not a result", "not a result"));
    }

    #[test]
    fn schedule_is_seeded_with_exact_mix_counts() {
        let a = schedule(1, 60.0, 20.0, 8);
        assert_eq!(a, schedule(1, 60.0, 20.0, 8));
        assert_ne!(a, schedule(2, 60.0, 20.0, 8));
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|o| o.due < Duration::from_secs(20)));
        let count = |route: Route, spec: usize| {
            a.iter()
                .filter(|o| o.route == route && o.spec == spec)
                .count()
        };
        assert_eq!((0..8).map(|s| count(Route::Submit, s)).sum::<usize>(), 120);
        assert_eq!((0..8).map(|s| count(Route::Result, s)).sum::<usize>(), 720);
        // Specs are spread evenly within a route, so every seed resubmits
        // the largest upload equally often.
        let b = schedule(2, 60.0, 20.0, 8);
        for spec in 0..8 {
            let c = count(Route::Submit, spec);
            assert_eq!(c, 15);
            assert_eq!(
                c,
                b.iter()
                    .filter(|o| o.route == Route::Submit && o.spec == spec)
                    .count()
            );
        }
    }
}
