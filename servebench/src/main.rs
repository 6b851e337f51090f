//! `servebench`: the serving benchmark of this repository.
//!
//! Starts the real `marioh serve` binary, drives one workload (`fresh`,
//! `transfer` or `cached`) against it from two client threads, checks
//! every returned result, and prints each metric by name and unit. With
//! `--trace 1` it then replays a sample of the served jobs in-process,
//! timing the calls into each layer, and prints the per-layer ledger
//! instead of the end-to-end metrics. See `README.md` beside this file.
//!
//! ```text
//! servebench --workload fresh --seed 1 --seconds 15 --trace 0 --marioh <path to marioh>
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! A correctness mismatch exits with status 1 after printing it.

mod gen;
mod layers;
mod replay;
mod serve;
mod stats;
mod workload;

use marioh_core::SavedModel;
use marioh_store::{JobResult, Json};
use serve::{metric_total, ScratchDir};
use stats::{mean, median, quantile, supported};
use std::path::PathBuf;
use std::sync::Arc;
use workload::{Config, Job, Route, Run, Workload};

/// Jobs (by submission index) whose results form the run digest and are
/// replayed in traced runs.
const REPLAY_JOBS: u64 = 6;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    marioh: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload_name = get("--workload")
        .ok_or("--workload is required")?
        .to_owned();
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        format!("unknown workload {workload_name:?}: use fresh, transfer or cached")
    })?;
    let num = |key: &str, default: &str| -> Result<f64, String> {
        get(key)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|_| format!("{key} must be a number"))
    };
    let seed = get("--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds = num("--seconds", "15")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let marioh =
        PathBuf::from(get("--marioh").ok_or("--marioh <path to the marioh binary> is required")?);
    if !marioh.is_file() {
        return Err(format!("no marioh binary at {}", marioh.display()));
    }
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
        marioh,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// A percentile metric, annotated with its sample count; flagged when
/// fewer than ten samples lie beyond it.
fn pct(name: &'static str, xs: &[f64], p: f64, unit: &'static str) -> Metric {
    let mut m = metric(name, quantile(xs, p), unit);
    m.note = format!("n={}", xs.len());
    if !supported(xs.len(), p) {
        m.note.push_str(&format!(
            ", below the {} samples p{} needs",
            stats::min_samples(p),
            (p * 100.0).round()
        ));
    }
    m
}

fn with_note(mut m: Metric, note: impl Into<String>) -> Metric {
    m.note = note.into();
    m
}

/// The commit the checkout was made from, read from `.git` if present
/// (benchmark checkouts need not be repositories).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn env_stamp(args: &Args, run: &Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags = run.server_flags.join(" ").replace('"', "");
    format!(
        r#"{{"nproc": {nproc}, "kernel_level": "{:?}", "marioh_no_simd": {}, "commit": "{}", "workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "clients": {}, "offered_rate": {}, "server_flags": "{flags}", "cpu_busy_share": {:.3}, "cpu_steal_share": {:.3}}}"#,
        marioh_kernels::level(),
        std::env::var_os("MARIOH_NO_SIMD").is_some(),
        git_commit(),
        args.workload_name,
        args.seed,
        args.seconds,
        args.trace,
        workload::CLIENTS,
        if args.workload == Workload::Cached {
            workload::CACHED_RATE.to_string()
        } else {
            "null".to_owned()
        },
        run.cpu_share,
        run.steal_share,
    )
}

fn stat_delta(run: &Run, key: &str) -> f64 {
    let get = |j: &Json| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    get(&run.stats_after) - get(&run.stats_before)
}

fn metrics_delta(run: &Run, family: &str) -> f64 {
    metric_total(&run.metrics_after, family) - metric_total(&run.metrics_before, family)
}

/// The result checks every run makes, off the clock.
struct Verified {
    /// Latencies (s) of the jobs that count: verified jobs, or cached
    /// resubmits.
    job_latency_s: Vec<f64>,
    job_done_at_s: Vec<f64>,
    jaccard: Vec<f64>,
    digest: String,
    /// Indices of the jobs (or cached specs) the digest covers.
    digested: Vec<u64>,
}

fn verify_run(workload: Workload, run: &mut Run) -> Verified {
    let mut out = Verified {
        job_latency_s: Vec::new(),
        job_done_at_s: Vec::new(),
        jaccard: Vec::new(),
        digest: String::new(),
        digested: Vec::new(),
    };
    let mut bytes = Vec::new();
    match workload {
        Workload::Fresh | Workload::Transfer => {
            let jobs: Vec<Job> = std::mem::take(&mut run.tally.jobs);
            for job in &jobs {
                match workload::verify(&job.request, &job.result) {
                    Ok((h, j)) => {
                        out.job_latency_s.push(job.latency_s);
                        out.job_done_at_s.push(job.done_at_s);
                        out.jaccard.push(j);
                        if job.index < REPLAY_JOBS {
                            stats::digest_job(&mut bytes, job.index, &h, j);
                            out.digested.push(job.index);
                        }
                    }
                    Err(e) => run.tally.mismatch(format!("job {}: {e}", job.index)),
                }
            }
            if out.digested.len() as u64 != REPLAY_JOBS {
                run.tally.mismatch(format!(
                    "the first {REPLAY_JOBS} jobs did not all complete verified"
                ));
            }
            run.tally.jobs = jobs;
        }
        Workload::Cached => {
            let mut spec_jaccard = Vec::new();
            for (i, ((_, request), reference)) in
                run.setup_jobs.iter().zip(&run.references).enumerate()
            {
                match workload::verify(request, reference) {
                    Ok((h, j)) => {
                        spec_jaccard.push(j);
                        stats::digest_job(&mut bytes, i as u64, &h, j);
                        out.digested.push(i as u64);
                    }
                    Err(e) => {
                        spec_jaccard.push(0.0);
                        run.tally.mismatch(format!("cached spec {i}: {e}"));
                    }
                }
            }
            out.job_latency_s = run.tally.jobs.iter().map(|j| j.latency_s).collect();
            out.job_done_at_s = run.tally.jobs.iter().map(|j| j.done_at_s).collect();
            out.jaccard = spec_jaccard;
        }
    }
    out.digest = stats::digest_hex(&bytes);
    out
}

fn end_to_end(workload: Workload, run: &Run, v: &Verified, seconds: f64) -> Vec<Metric> {
    let client_reqs = || run.tally.reqs.iter().filter(|r| r.route != Route::Stats);
    let reqs: Vec<f64> = client_reqs().map(|r| r.ms).collect();
    let req_done_at: Vec<f64> = client_reqs().map(|r| r.done_at_s).collect();
    let ok_ratio = if run.tally.attempted == 0 {
        0.0
    } else {
        1.0 - run.tally.failed as f64 / run.tally.attempted as f64
    };
    let job_what = match workload {
        Workload::Cached => "cached resubmits",
        _ => "verified jobs",
    };
    vec![
        with_note(
            metric("setup_s", median(&run.setup_s), "s"),
            format!("median of {} set-ups: {:?}", run.setup_s.len(), run.setup_s),
        ),
        with_note(
            metric(
                "jobs_per_s",
                stats::sliced_rate(&v.job_done_at_s, seconds),
                "jobs/s",
            ),
            format!(
                "median of {} slices; {} {job_what} in {:.3} s",
                stats::RATE_SLICES,
                v.job_latency_s.len(),
                run.wall_s
            ),
        ),
        pct("job_p50_s", &v.job_latency_s, 0.5, "s"),
        pct("job_p90_s", &v.job_latency_s, 0.9, "s"),
        with_note(
            metric(
                "req_per_s",
                stats::sliced_rate(&req_done_at, seconds),
                "req/s",
            ),
            format!(
                "median of {} slices; {} requests completed",
                stats::RATE_SLICES,
                reqs.len()
            ),
        ),
        pct("req_p50_ms", &reqs, 0.5, "ms"),
        pct("req_p99_ms", &reqs, 0.99, "ms"),
        with_note(
            metric("ok_ratio", ok_ratio, "share"),
            format!(
                "{} failed of {} attempted",
                run.tally.failed, run.tally.attempted
            ),
        ),
        with_note(
            metric("jaccard_mean", mean(&v.jaccard), "share"),
            format!("n={}", v.jaccard.len()),
        ),
        with_note(
            metric("server_rss_mb", run.rss_mb, "MB"),
            "peak VmHWM, server plus shard workers",
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    let scratch = ScratchDir::new(
        &std::env::current_dir().map_err(|e| e.to_string())?,
        &format!(".servebench-tmp-{}", std::process::id()),
    )
    .map_err(|e| format!("scratch dir: {e}"))?;
    let cfg = Config {
        marioh: args.marioh.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.0.clone(),
    };
    let started = std::time::Instant::now();
    let mut run = workload::run(&cfg, args.workload)?;
    let served = started.elapsed().as_secs_f64();
    println!("env {}", env_stamp(args, &run));
    let verified = verify_run(args.workload, &mut run);
    let checked = started.elapsed().as_secs_f64();
    println!(
        "digest {} (results {:?})",
        verified.digest, verified.digested
    );
    if args.workload == Workload::Cached {
        let kb = |s: &String| format!("{:.1}", s.len() as f64 / 1024.0);
        println!(
            "cached specs: upload KB {:?}, result KB {:?}",
            run.setup_jobs
                .iter()
                .map(|(_, b)| kb(b))
                .collect::<Vec<_>>(),
            run.references.iter().map(kb).collect::<Vec<_>>()
        );
    }

    let mut metrics = end_to_end(args.workload, &run, &verified, args.seconds);
    if args.trace {
        let ledger = trace(args.workload, &cfg, &mut run, &verified)?;
        for m in &metrics {
            println!(
                "untraced-run {} = {} {} ({})",
                m.name, m.value, m.unit, m.note
            );
        }
        metrics = ledger;
    }
    if args.workload == Workload::Cached {
        for spec in 0..run.setup_jobs.len() {
            let p50 = |route: Route| {
                let xs: Vec<f64> = run
                    .tally
                    .reqs
                    .iter()
                    .filter(|q| q.route == route && q.spec == spec)
                    .map(|q| q.ms)
                    .collect();
                format!("{:.2} ms (n={})", median(&xs), xs.len())
            };
            println!(
                "cached spec {spec}: resubmit p50 {}, status p50 {}, result p50 {}",
                p50(Route::Submit),
                p50(Route::Status),
                p50(Route::Result)
            );
        }
    }
    eprintln!(
        "servebench: served in {served:.2} s, verified in {:.2} s, done at {:.2} s",
        checked - served,
        started.elapsed().as_secs_f64()
    );
    check_declared(&metrics, args.trace)?;
    for e in &run.tally.errors {
        println!("error {e}");
    }
    for m in &metrics {
        println!(
            "metric {} = {} {}{}",
            m.name,
            m.value,
            m.unit,
            if m.note.is_empty() {
                String::new()
            } else {
                format!(" ({})", m.note)
            }
        );
    }
    let correct = run.tally.mismatches == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        run.tally.attempted.max(1),
        run.tally.failed,
        body.join(", ")
    );
    drop(scratch);
    Ok(correct)
}

/// Fails when the metrics differ from the list `BENCHMARK.json` (if the
/// working directory has one) declares for this mode, so the two cannot
/// drift apart.
fn check_declared(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let key = if trace { "per_layer" } else { "end_to_end" };
    let declared: Vec<(String, String)> = Json::parse(&text)?
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("unit")?.as_str()?.to_owned(),
            ))
        })
        .collect();
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    if declared != printed {
        return Err(format!(
            "metrics differ from BENCHMARK.json {key}: declared {declared:?}, printed {printed:?}"
        ));
    }
    Ok(())
}

/// Replays a sample of the run's jobs in-process and builds the
/// per-layer ledger. A replay that does not reproduce the served
/// results bit for bit is a correctness mismatch.
fn trace(
    workload: Workload,
    cfg: &Config,
    run: &mut Run,
    v: &Verified,
) -> Result<Vec<Metric>, String> {
    // Replayed jobs of the timed path, and set-up jobs that trained.
    let mut timed: Vec<replay::Replayed> = Vec::new();
    let mut training: Vec<replay::Replayed> = Vec::new();
    let mut store_items: Vec<(marioh_store::JobSpec, Arc<JobResult>)> = Vec::new();
    let mut wire = layers::WireCost::default();
    let mut replay_digest = Vec::new();

    let mut replay_one =
        |index: u64, body: &str, reuse: Option<&SavedModel>| -> Result<replay::Replayed, String> {
            let r = replay::replay_job(body, reuse)?;
            wire.add_job(index, &r.spec, reuse, &r.result, r.trained.as_ref())?;
            store_items.push((r.spec.clone(), Arc::new(r.result.clone())));
            Ok(r)
        };
    match workload {
        Workload::Fresh => {
            for job in run.tally.jobs.iter().filter(|j| j.index < REPLAY_JOBS) {
                let r = replay_one(job.index, &job.request, None)?;
                stats::digest_job(
                    &mut replay_digest,
                    job.index,
                    &r.result.reconstruction,
                    r.result.jaccard,
                );
                timed.push(r);
            }
        }
        Workload::Transfer => {
            let mut donors = Vec::new();
            for (k, (_, body)) in run.setup_jobs.iter().enumerate() {
                let r = replay_one(k as u64, body, None)?;
                donors.push(r.trained.clone().ok_or("donor trained no model")?);
                training.push(r);
            }
            for job in run.tally.jobs.iter().filter(|j| j.index < REPLAY_JOBS) {
                let donor = &donors[(job.index % donors.len() as u64) as usize];
                let r = replay_one(job.index, &job.request, Some(donor))?;
                stats::digest_job(
                    &mut replay_digest,
                    job.index,
                    &r.result.reconstruction,
                    r.result.jaccard,
                );
                timed.push(r);
            }
        }
        Workload::Cached => {
            let mut donor: Option<SavedModel> = None;
            for (k, (_, body)) in run.setup_jobs.iter().enumerate() {
                let r = replay_one(k as u64, body, donor.as_ref())?;
                stats::digest_job(
                    &mut replay_digest,
                    k as u64,
                    &r.result.reconstruction,
                    r.result.jaccard,
                );
                if k == 0 {
                    donor = Some(r.trained.clone().ok_or("cache donor trained no model")?);
                    training.push(r);
                } else {
                    timed.push(r);
                }
            }
        }
    }
    let replayed = stats::digest_hex(&replay_digest);
    println!("replay-digest {replayed}");
    if replayed != v.digest {
        run.tally.mismatch(format!(
            "replay digest {replayed} differs from the served digest {}",
            v.digest
        ));
    }
    // Fresh jobs train on the timed path; elsewhere only set-up jobs do.
    let training = if workload == Workload::Fresh {
        &timed
    } else {
        &training
    };

    let store_dir = ScratchDir::new(&cfg.scratch, "store-replay").map_err(|e| e.to_string())?;
    let store = layers::store_replay(&store_dir.0, &store_items)?;
    drop(store_dir);

    Ok(per_layer(workload, run, v, &timed, training, &store, &wire))
}

fn per_layer(
    workload: Workload,
    run: &Run,
    v: &Verified,
    timed: &[replay::Replayed],
    training: &[replay::Replayed],
    store: &layers::StoreCost,
    wire: &layers::WireCost,
) -> Vec<Metric> {
    let route = |r: Route| -> Vec<f64> {
        run.tally
            .reqs
            .iter()
            .filter(|q| q.route == r)
            .map(|q| q.ms)
            .collect()
    };
    let result_kb: Vec<f64> = run
        .tally
        .reqs
        .iter()
        .filter(|q| q.route == Route::Result)
        .map(|q| q.bytes as f64 / 1024.0)
        .collect();
    let requests = run
        .tally
        .reqs
        .iter()
        .filter(|q| q.route != Route::Stats)
        .count()
        .max(1) as f64;
    let submitted = stat_delta(run, "jobs_submitted");
    let jobs_done = v.job_latency_s.len().max(1) as f64;

    // The search-side ledger: the timed path's jobs, or on cached (whose
    // timed path computes nothing) the cache-fill jobs the replay ran.
    let l = |f: &dyn Fn(&replay::Ledger) -> f64| -> f64 {
        median(&timed.iter().map(|r| f(&r.ledger)).collect::<Vec<_>>())
    };
    let t = |f: &dyn Fn(&replay::TrainingLedger) -> f64| -> f64 {
        median(
            &training
                .iter()
                .filter_map(|r| r.ledger.training.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let enumerated: f64 = timed
        .iter()
        .map(|r| r.ledger.cliques_enumerated as f64)
        .sum();
    let committed: f64 = timed.iter().map(|r| r.ledger.committed as f64).sum();
    let phase = |i: usize| l(&|x| x.phase_ms[i]);

    let layer_sum_ms = match workload {
        Workload::Cached => (store.submit_us + store.get_result_us + store.finish_us) / 1e3,
        _ => {
            let on_path = |f: &dyn Fn(&replay::TrainingLedger) -> f64| -> f64 {
                if workload == Workload::Fresh {
                    t(f)
                } else {
                    0.0
                }
            };
            // The server parses each upload on submit; a shard worker
            // parses the forwarded spec once more.
            let parses = if workload == Workload::Transfer {
                2.0
            } else {
                1.0
            };
            parses * l(&|x| x.spec_parse_ms)
                + l(&|x| x.split_ms)
                + on_path(&|x| x.training_set_ms)
                + on_path(&|x| x.fit_ms)
                + l(&|x| x.project_ms)
                + l(&|x| x.filtering_ms)
                + l(&|x| x.search_ms)
                + l(&|x| x.jaccard_ms)
        }
    };
    let job_p50_ms = median(&v.job_latency_s) * 1e3;
    let frames = metrics_delta(run, "marioh_dispatch_frames_sent_total")
        + metrics_delta(run, "marioh_dispatch_frames_received_total");
    let n_timed = format!("median of {} replayed jobs", timed.len());
    let n_train = format!(
        "median of {} replayed trainings{}",
        training
            .iter()
            .filter(|r| r.ledger.training.is_some())
            .count(),
        if workload == Workload::Fresh {
            ""
        } else {
            " (set-up jobs; the timed jobs train nothing)"
        }
    );

    vec![
        pct("server.submit_ms_p50", &route(Route::Submit), 0.5, "ms"),
        pct("server.status_ms_p50", &route(Route::Status), 0.5, "ms"),
        pct("server.result_ms_p50", &route(Route::Result), 0.5, "ms"),
        pct("server.result_ms_p99", &route(Route::Result), 0.99, "ms"),
        with_note(
            metric("server.result_kb_mean", mean(&result_kb), "KB"),
            format!("n={}", result_kb.len()),
        ),
        with_note(
            metric(
                "server.queue_depth_mean",
                mean(&run.tally.queue_depth),
                "jobs",
            ),
            format!("{} /stats samples", run.tally.queue_depth.len()),
        ),
        with_note(
            metric(
                "server.cache_hit_ratio",
                if submitted > 0.0 {
                    stat_delta(run, "cache_hits") / submitted
                } else {
                    0.0
                },
                "share",
            ),
            format!("of {submitted} submissions"),
        ),
        metric(
            "server.pipeline_runs",
            stat_delta(run, "pipeline_runs"),
            "count",
        ),
        metric(
            "server.models_trained",
            stat_delta(run, "models_trained"),
            "count",
        ),
        with_note(
            metric("store.submit_us_p50", store.submit_us, "us"),
            "DiskStore replay",
        ),
        with_note(
            metric("store.finish_us_p50", store.finish_us, "us"),
            "DiskStore replay",
        ),
        with_note(
            metric("store.put_result_us_p50", store.put_result_us, "us"),
            "DiskStore replay",
        ),
        with_note(
            metric("store.get_result_us_p50", store.get_result_us, "us"),
            "DiskStore replay",
        ),
        with_note(
            metric("store.probe_miss_us_p50", store.probe_miss_us, "us"),
            "DiskStore replay",
        ),
        with_note(
            metric(
                "store.fsyncs_per_req",
                metrics_delta(run, "marioh_store_fsync_total") / requests,
                "count",
            ),
            "served run",
        ),
        with_note(
            metric(
                "store.fsync_ms_mean",
                {
                    let n = metrics_delta(run, "marioh_store_fsync_seconds_count");
                    if n > 0.0 {
                        metrics_delta(run, "marioh_store_fsync_seconds_sum") * 1e3 / n
                    } else {
                        0.0
                    }
                },
                "ms",
            ),
            "served run",
        ),
        with_note(
            metric(
                "store.compactions",
                metrics_delta(run, "marioh_store_compactions_total"),
                "count",
            ),
            "served run",
        ),
        metric("wire.dispatch_kb_mean", mean(&wire.dispatch_kb), "KB"),
        metric("wire.result_kb_mean", mean(&wire.result_kb), "KB"),
        pct("wire.encode_us_p50", &wire.encode_us, 0.5, "us"),
        pct("wire.decode_us_p50", &wire.decode_us, 0.5, "us"),
        with_note(
            metric("dispatch.frames_per_job", frames / jobs_done, "count"),
            "served run",
        ),
        with_note(
            metric("store.spec_parse_ms", l(&|x| x.spec_parse_ms), "ms"),
            n_timed.clone(),
        ),
        with_note(
            metric("datasets.split_ms", l(&|x| x.split_ms), "ms"),
            n_timed.clone(),
        ),
        with_note(
            metric("hypergraph.project_ms", l(&|x| x.project_ms), "ms"),
            n_timed.clone(),
        ),
        with_note(
            metric("core.training_set_ms", t(&|x| x.training_set_ms), "ms"),
            n_train.clone(),
        ),
        with_note(
            metric("core.training_rows", t(&|x| x.rows as f64), "count"),
            n_train.clone(),
        ),
        with_note(metric("ml.fit_ms", t(&|x| x.fit_ms), "ms"), n_train.clone()),
        with_note(
            metric("ml.fit_row_epochs", t(&|x| x.row_epochs as f64), "count"),
            n_train,
        ),
        with_note(
            metric("core.filtering_ms", l(&|x| x.filtering_ms), "ms"),
            n_timed.clone(),
        ),
        metric(
            "core.filtering_pairs",
            l(&|x| x.filtering_pairs as f64),
            "count",
        ),
        with_note(
            metric("core.search_ms", l(&|x| x.search_ms), "ms"),
            n_timed.clone(),
        ),
        metric("core.search_rounds", l(&|x| x.rounds as f64), "count"),
        metric(
            "core.cliques_enumerated",
            l(&|x| x.cliques_enumerated as f64),
            "count",
        ),
        metric(
            "core.commit_ratio",
            if enumerated > 0.0 {
                committed / enumerated
            } else {
                0.0
            },
            "share",
        ),
        metric("core.reuse_ratio", l(&|x| x.reuse_ratio), "share"),
        with_note(
            metric("core.enumeration_ms", phase(0), "ms"),
            "engine phase span sums",
        ),
        with_note(
            metric("core.scoring_ms", phase(1), "ms"),
            "engine phase span sums",
        ),
        with_note(
            metric("core.commit_ms", phase(2), "ms"),
            "engine phase span sums",
        ),
        with_note(
            metric("core.mhh_patch_ms", phase(3), "ms"),
            "engine phase span sums",
        ),
        with_note(
            metric("core.jaccard_ms", l(&|x| x.jaccard_ms), "ms"),
            n_timed,
        ),
        pct("bench.gen_late_p99_ms", &run.tally.late_ms, 0.99, "ms"),
        metric("bench.layer_sum_ms", layer_sum_ms, "ms"),
        with_note(
            metric("bench.unaccounted_ms", job_p50_ms - layer_sum_ms, "ms"),
            format!("job_p50 {job_p50_ms:.3} ms minus the layer sum"),
        ),
    ]
}
