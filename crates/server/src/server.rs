//! The HTTP front of the job service: socket handling, routing, and
//! graceful shutdown.
//!
//! One short-lived thread per connection (requests are small and answered
//! from the in-memory store; the heavy lifting happens on the worker
//! pool), an accept loop that blocks in `accept(2)` until a client or
//! [`Server::shutdown`]'s wake-up connection arrives, and
//! `Connection: close` semantics throughout.

use crate::http::{
    error_body, read_request, write_response, write_text_response, Request, JSON_CONTENT_TYPE,
};
use crate::job::{
    BatchError, BatchSubmission, JobManager, JobResult, JobSpec, JobStatus, SubmitError,
};
use crate::json::Json;
use crate::shards::{spawn_shard_router, EventSink};
use crate::worker::spawn_workers;
use marioh_core::MariohError;
use marioh_dispatch::{DispatchConfig, Dispatcher, WorkerCommand};
use marioh_hypergraph::io::push_u32;
use marioh_store::{ArtifactStore, DiskStore, JobStore, MemoryStore, DEFAULT_RETAINED_JOBS};
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop backs off after a failed `accept` (e.g.
/// `EMFILE`), so a persistent error cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// Per-connection socket read/write timeout.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing reconstruction jobs.
    pub workers: usize,
    /// Capacity of the job queue (further submissions get 503).
    pub queue_cap: usize,
    /// Shard worker processes (`marioh serve --shards N`). Zero — the
    /// default — keeps the in-process worker pool; a positive count
    /// replaces it with the [`marioh_dispatch::Dispatcher`] driving `N`
    /// child processes over the wire protocol. Results are bit-identical
    /// either way: both modes run every job through
    /// [`marioh_dispatch::run_dispatched`].
    pub shards: usize,
    /// Command line of the shard worker (the dispatcher appends
    /// `--connect ADDR --shard K`). Empty — the default — re-executes
    /// the current binary with a `shard-worker` subcommand; the special
    /// value `["in-thread"]` runs shard workers as threads of this
    /// process (still over loopback TCP), for tests and benches that
    /// have no `marioh` binary to exec.
    pub shard_worker: Vec<String>,
    /// Default per-job deadline (`marioh serve --job-timeout`): a job
    /// still running this long after dispatch is cancelled and recorded
    /// failed with a typed timeout reason. Specs carrying their own
    /// `timeout_secs` override it; `None` leaves jobs unbounded.
    pub job_timeout: Option<Duration>,
    /// Shard heartbeat timeout (`marioh serve --shard-timeout`): a shard
    /// silent this long is declared dead and respawned. `None` keeps the
    /// dispatcher's default; zero is rejected.
    pub shard_timeout: Option<Duration>,
    /// Pin worker threads to CPU cores, round-robin (`marioh serve
    /// --pin-cores`). A scheduling hint only — job results are
    /// bit-identical either way, and the flag is a silent no-op on
    /// platforms without `sched_setaffinity`. Ignored in shard mode
    /// (shard children manage their own threads).
    pub pin_cores: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 64,
            shards: 0,
            shard_worker: Vec::new(),
            job_timeout: None,
            shard_timeout: None,
            pin_cores: false,
        }
    }
}

/// Storage configuration of [`Server::start_with_storage`].
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Directory of the durable [`DiskStore`]; `None` keeps everything
    /// in memory (records and cache die with the process).
    pub state_dir: Option<PathBuf>,
    /// Terminal job records retained before the oldest are evicted
    /// (`marioh serve --retain`).
    pub retain: usize,
    /// Artifact byte budget for the disk store (`marioh serve
    /// --store-budget`); exceeding it evicts least-recently-used
    /// artifacts. `None` disables size-aware eviction.
    pub store_budget: Option<u64>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            state_dir: None,
            retain: DEFAULT_RETAINED_JOBS,
            store_budget: None,
        }
    }
}

/// A running reconstruction service.
///
/// Dropping the handle leaks the background threads; call
/// [`Server::shutdown`] for a graceful stop that cancels in-flight jobs.
pub struct Server {
    addr: SocketAddr,
    manager: JobManager,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    dispatcher: Option<Arc<Dispatcher>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`] for a zero worker count or queue capacity,
    /// [`MariohError::Io`] when the address cannot be bound.
    pub fn start(config: ServerConfig) -> Result<Server, MariohError> {
        Server::start_with_storage(config, StorageConfig::default())
    }

    /// Like [`Server::start`], with explicit storage: a `state_dir`
    /// selects the durable [`DiskStore`] — the server replays its
    /// record log, serves pre-restart results, and re-queues jobs that
    /// were interrupted mid-run.
    ///
    /// # Errors
    ///
    /// Everything [`Server::start`] returns, plus
    /// [`MariohError::Config`]/[`MariohError::Io`] when the state dir
    /// cannot be opened (wrong format version, corrupt records).
    pub fn start_with_storage(
        config: ServerConfig,
        storage: StorageConfig,
    ) -> Result<Server, MariohError> {
        if config.workers == 0 {
            return Err(MariohError::config("workers must be >= 1 (got 0)"));
        }
        if config.queue_cap == 0 {
            return Err(MariohError::config("queue capacity must be >= 1 (got 0)"));
        }
        if storage.retain == 0 {
            return Err(MariohError::config("retention must be >= 1 (got 0)"));
        }
        if config.job_timeout.is_some_and(|t| t.is_zero()) {
            return Err(MariohError::config("job timeout must be >= 1 second"));
        }
        if config.shard_timeout.is_some_and(|t| t.is_zero()) {
            return Err(MariohError::config("shard timeout must be >= 1 second"));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let (job_store, artifact_store): (Arc<dyn JobStore>, Arc<dyn ArtifactStore>) =
            match &storage.state_dir {
                Some(dir) => {
                    let mut tuning = marioh_store::StoreTuning::new(storage.retain);
                    tuning.budget = storage.store_budget;
                    let store = Arc::new(DiskStore::open_tuned(dir, tuning)?);
                    (store.clone(), store)
                }
                None => {
                    let store = Arc::new(MemoryStore::new(storage.retain));
                    (store.clone(), store)
                }
            };
        let manager =
            JobManager::with_stores(config.queue_cap, config.workers, job_store, artifact_store);
        manager.set_job_timeout(config.job_timeout);
        let (worker_threads, dispatcher) = if config.shards > 0 {
            manager.set_shard_mode(config.shards);
            let worker = if config.shard_worker == ["in-thread"] {
                WorkerCommand::InThread
            } else if config.shard_worker.is_empty() {
                let exe = std::env::current_exe()
                    .map_err(|e| MariohError::config(format!("cannot locate own binary: {e}")))?;
                WorkerCommand::Process(vec![
                    exe.to_string_lossy().into_owned(),
                    "shard-worker".to_owned(),
                ])
            } else {
                WorkerCommand::Process(config.shard_worker.clone())
            };
            let sink = Arc::new(EventSink {
                manager: manager.clone(),
            });
            let mut dispatch_config = DispatchConfig::new(config.shards, worker);
            if let Some(timeout) = config.shard_timeout {
                dispatch_config.shard_timeout = timeout;
            }
            let dispatcher = Arc::new(Dispatcher::start(dispatch_config, sink).map_err(|e| {
                MariohError::config(format!("failed to start shard dispatcher: {e}"))
            })?);
            manager.attach_dispatcher(&dispatcher);
            let router = spawn_shard_router(&manager, Arc::clone(&dispatcher));
            (vec![router], Some(dispatcher))
        } else {
            (
                spawn_workers(&manager, config.workers, config.pin_cores),
                None,
            )
        };
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let manager = manager.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("marioh-accept".to_owned())
                .spawn(move || accept_loop(listener, manager, stop))
                .expect("spawn accept thread")
        };
        Ok(Server {
            addr,
            manager,
            stop,
            accept_thread: Some(accept_thread),
            worker_threads,
            dispatcher,
        })
    }

    /// The bound address (the actual port when configured with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared job manager (stats, direct submission in benches).
    pub fn manager(&self) -> &JobManager {
        &self.manager
    }

    /// Graceful shutdown: stop accepting connections, cancel every queued
    /// and running job, and join the worker pool. Running jobs observe
    /// their [`marioh_core::CancelToken`] at the next training epoch or
    /// search-round boundary, so shutdown completes within one such step
    /// of each in-flight job.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop out of its blocking accept; it sees `stop`
        // and exits. Should the wake-up connection fail, the thread is
        // left blocked rather than joined forever.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(t) = self.accept_thread.take() {
            if TcpStream::connect(wake).is_ok() {
                let _ = t.join();
            }
        }
        // Wakes the worker pool (or the shard router) out of take_next.
        self.manager.shutdown();
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        // After the router has stopped feeding it: send Goodbye frames,
        // cancel in-flight jobs, and reap the shard worker processes.
        // (On a durable store, jobs caught mid-flight re-queue at the
        // next startup via the usual recovery path.)
        if let Some(dispatcher) = self.dispatcher.take() {
            dispatcher.shutdown();
        }
    }
}

/// Concurrent connection cap: beyond it, new connections get an
/// immediate 503 instead of a thread — one client opening sockets cannot
/// pin unbounded threads or body buffers.
const MAX_CONNECTIONS: usize = 64;

/// Decrements the live-connection count when a handler thread ends,
/// however it ends.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, manager: JobManager, stop: Arc<AtomicBool>) {
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                if live.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
                    live.fetch_sub(1, Ordering::SeqCst);
                    let _ = write_response(
                        &mut stream,
                        503,
                        &error_body("too many open connections; retry later"),
                    );
                    continue;
                }
                let slot = ConnectionSlot(Arc::clone(&live));
                let manager = manager.clone();
                // Detached: connections are short-lived (Connection:
                // close + socket timeouts), so shutdown does not wait on
                // them.
                let spawned = std::thread::Builder::new()
                    .name("marioh-conn".to_owned())
                    .spawn(move || {
                        let _slot = slot;
                        handle_connection(stream, &manager);
                    });
                drop(spawned); // on spawn failure the slot frees with the closure
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn handle_connection(stream: TcpStream, manager: &JobManager) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let started = Instant::now();
    let mut endpoint = None;
    let (status, reply) = match read_request(&mut reader) {
        Ok(Some(request)) => {
            endpoint = Some(endpoint_of(&request.path));
            route(&request, manager)
        }
        Ok(None) => return, // client connected and left
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            (400, Reply::Json(error_body(e.to_string())))
        }
        Err(_) => return, // transport error; nothing sensible to send
    };
    let _ = match &reply {
        Reply::Json(body) => write_response(&mut writer, status, body),
        Reply::Text { content_type, body } => {
            write_text_response(&mut writer, status, content_type, body)
        }
    };
    if let Some(endpoint) = endpoint {
        manager
            .registry()
            .histogram_with("marioh_http_request_seconds", &[("endpoint", endpoint)])
            .observe(started.elapsed());
    }
}

/// The latency-histogram label for a request path: known routes keep
/// their shape with ids collapsed to `:id` (bounded cardinality), and
/// everything else shares one bucket.
fn endpoint_of(path: &str) -> &'static str {
    match segments(path).as_slice() {
        ["healthz"] => "/healthz",
        ["stats"] => "/stats",
        ["metrics"] => "/metrics",
        ["jobs"] => "/jobs",
        ["jobs", _] => "/jobs/:id",
        ["jobs", _, "result"] => "/jobs/:id/result",
        ["batches", _] => "/batches/:id",
        ["models"] => "/models",
        _ => "other",
    }
}

/// What a route produced: almost always a `Json` value; `/metrics` is
/// Prometheus plain text, and a done job's result is JSON text written
/// directly (see [`result_body`]).
enum Reply {
    Json(Json),
    Text {
        content_type: &'static str,
        body: String,
    },
}

impl From<Json> for Reply {
    fn from(body: Json) -> Reply {
        Reply::Json(body)
    }
}

#[cfg(test)]
impl Reply {
    fn as_json(&self) -> &Json {
        match self {
            Reply::Json(body) => body,
            Reply::Text { body, .. } => panic!("expected a JSON reply, got text {body:?}"),
        }
    }
}

/// Splits `/jobs/17/result` into its non-empty segments.
fn segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// The Prometheus text exposition content type served on `/metrics`.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

fn route(request: &Request, manager: &JobManager) -> (u16, Reply) {
    match (request.method.as_str(), segments(&request.path).as_slice()) {
        // `/metrics` is the one non-JSON route: the Prometheus rendering
        // of the same merged snapshot `/stats` reads, so the two views
        // can never disagree.
        ("GET", ["metrics"]) => (
            200,
            Reply::Text {
                content_type: METRICS_CONTENT_TYPE,
                body: manager.metrics_snapshot().render_prometheus(),
            },
        ),
        ("GET", ["jobs", id, "result"]) => with_job_id(id, |id| job_result(id, manager)),
        _ => {
            let (status, body) = route_json(request, manager);
            (status, Reply::Json(body))
        }
    }
}

fn route_json(request: &Request, manager: &JobManager) -> (u16, Json) {
    let method = request.method.as_str();
    match (method, segments(&request.path).as_slice()) {
        // Degraded (read-only store after persistent I/O failure) still
        // answers 200: the service *is* serving, from memory and the
        // artifact overlay — orchestrators should not kill it, but
        // operators need to see it.
        ("GET", ["healthz"]) => {
            let status = if manager.store_degraded() {
                "degraded"
            } else {
                "ok"
            };
            (200, Json::Obj(vec![("status".into(), Json::str(status))]))
        }
        ("GET", ["stats"]) => (200, stats_body(manager)),
        ("GET", ["jobs"]) => (200, jobs_body(manager)),
        ("GET", ["models"]) => (200, models_body(manager)),
        ("POST", ["jobs"]) => submit(request, manager),
        ("GET", ["jobs", id]) => with_job_id(id, |id| match manager.view(id) {
            Some(view) => (200, view_body(&view)),
            None => not_found(id),
        }),
        ("GET", ["batches", id]) => match id.parse::<u64>() {
            Ok(batch) => batch_body(batch, manager),
            Err(_) => (400, error_body(format!("invalid batch id {id:?}"))),
        },
        ("DELETE", ["jobs", id]) => with_job_id(id, |id| match manager.cancel(id) {
            Some(status) => (
                200,
                Json::Obj(vec![
                    ("id".into(), Json::num(id as f64)),
                    ("status".into(), Json::str(status.as_str())),
                ]),
            ),
            None => not_found(id),
        }),
        (_, ["healthz" | "stats" | "models" | "metrics"])
        | (_, ["jobs", ..])
        | (_, ["batches", ..]) => (
            405,
            error_body(format!("method {method} not allowed on {}", request.path)),
        ),
        _ => (404, error_body(format!("no such route {}", request.path))),
    }
}

fn not_found<T: From<Json>>(id: u64) -> (u16, T) {
    (404, error_body(format!("no such job {id}")).into())
}

fn with_job_id<T: From<Json>>(raw: &str, f: impl FnOnce(u64) -> (u16, T)) -> (u16, T) {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => (400, error_body(format!("invalid job id {raw:?}")).into()),
    }
}

fn submit(request: &Request, manager: &JobManager) -> (u16, Json) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("request body is not valid UTF-8")),
    };
    let body = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, error_body(format!("invalid JSON body: {e}"))),
    };
    // An array body is a batch: all-or-nothing admission, one store
    // commit, per-index errors on rejection.
    if let Json::Arr(items) = &body {
        return submit_batch(items, manager);
    }
    let spec = match JobSpec::from_json(&body) {
        Ok(spec) => spec,
        Err(msg) => return (400, error_body(msg)),
    };
    match manager.submit(spec) {
        Ok(id) => {
            // A cache hit is `done` on arrival; report the real status
            // (and the marker) so clients need not poll to notice.
            let view = manager.view(id);
            let status = view.as_ref().map_or(JobStatus::Queued, |v| v.status);
            let mut pairs = vec![
                ("id".into(), Json::num(id as f64)),
                ("status".into(), Json::str(status.as_str())),
            ];
            if view.is_some_and(|v| v.cached) {
                pairs.push(("cached".into(), Json::Bool(true)));
            }
            (201, Json::Obj(pairs))
        }
        Err(SubmitError::Invalid(msg)) => (400, error_body(msg)),
        Err(e @ SubmitError::QueueFull { .. }) => (503, error_body(e.to_string())),
    }
}

/// Renders `(index, message)` pairs as the batch-rejection body.
fn batch_errors_body(errors: Vec<(usize, String)>) -> Json {
    let details: Vec<Json> = errors
        .into_iter()
        .map(|(index, error)| {
            Json::Obj(vec![
                ("index".into(), Json::num(index as f64)),
                ("error".into(), Json::str(error)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "error".into(),
            Json::str("batch rejected; no job was submitted"),
        ),
        ("errors".into(), Json::Arr(details)),
    ])
}

fn submit_batch(items: &[Json], manager: &JobManager) -> (u16, Json) {
    let mut specs = Vec::with_capacity(items.len());
    let mut errors = Vec::new();
    for (index, item) in items.iter().enumerate() {
        match JobSpec::from_json(item) {
            Ok(spec) => specs.push(spec),
            Err(msg) => errors.push((index, msg)),
        }
    }
    if !errors.is_empty() {
        return (400, batch_errors_body(errors));
    }
    match manager.submit_batch(specs) {
        Ok(BatchSubmission { batch, ids }) => (
            201,
            Json::Obj(vec![
                ("batch".into(), Json::num(batch as f64)),
                ("count".into(), Json::num(ids.len() as f64)),
                (
                    "ids".into(),
                    Json::Arr(ids.into_iter().map(|id| Json::num(id as f64)).collect()),
                ),
            ]),
        ),
        Err(BatchError::Invalid(errors)) => (400, batch_errors_body(errors)),
        Err(BatchError::Rejected(SubmitError::Invalid(msg))) => (400, error_body(msg)),
        Err(BatchError::Rejected(e @ SubmitError::QueueFull { .. })) => {
            (503, error_body(e.to_string()))
        }
    }
}

fn batch_body(batch: u64, manager: &JobManager) -> (u16, Json) {
    let Some(members) = manager.batch_view(batch) else {
        return (404, error_body(format!("no such batch {batch}")));
    };
    let (mut done, mut failed, mut cancelled) = (0usize, 0usize, 0usize);
    let jobs: Vec<Json> = members
        .iter()
        .map(|(id, view)| match view {
            Some(view) => {
                match view.status {
                    JobStatus::Done => done += 1,
                    JobStatus::Failed => failed += 1,
                    JobStatus::Cancelled => cancelled += 1,
                    _ => {}
                }
                view_body(view)
            }
            // Evicted from the retention window: terminal, details gone.
            None => {
                done += 1;
                Json::Obj(vec![
                    ("id".into(), Json::num(*id as f64)),
                    ("status".into(), Json::str("evicted")),
                ])
            }
        })
        .collect();
    let terminal = done + failed + cancelled;
    (
        200,
        Json::Obj(vec![
            ("batch".into(), Json::num(batch as f64)),
            ("count".into(), Json::num(members.len() as f64)),
            ("done".into(), Json::num(done as f64)),
            ("failed".into(), Json::num(failed as f64)),
            ("cancelled".into(), Json::num(cancelled as f64)),
            ("complete".into(), Json::Bool(terminal == members.len())),
            ("jobs".into(), Json::Arr(jobs)),
        ]),
    )
}

fn job_result(id: u64, manager: &JobManager) -> (u16, Reply) {
    match manager.result(id) {
        None => not_found(id),
        Some((JobStatus::Done, Some(result))) => (
            200,
            Reply::Text {
                content_type: JSON_CONTENT_TYPE,
                body: result_body(id, &result),
            },
        ),
        Some((status, _)) => (
            409,
            error_body(format!(
                "job {id} is {status}; results exist only for done jobs"
            ))
            .into(),
        ),
    }
}

/// A done job's result body, written straight from its hypergraph:
/// `{"id":…,"jaccard":…,"edges":[{"nodes":[…],"multiplicity":…},…]}`
/// with edges in [`Hypergraph::sorted_edges`] order, the same bytes as
/// the `Json` value of that shape would render. `id` and `jaccard` go
/// through [`Json`]'s own number rendering (an integral `jaccard`
/// prints without a point); node ids and multiplicities are `u32`s,
/// which it prints as plain decimals, written here with
/// [`push_u32`].
///
/// [`Hypergraph::sorted_edges`]: marioh_hypergraph::Hypergraph::sorted_edges
fn result_body(id: u64, result: &JobResult) -> String {
    use std::io::Write;
    let h = &result.reconstruction;
    let edges = h.sorted_edges();
    let mut out = Vec::with_capacity(64 + 40 * edges.len());
    let _ = write!(
        out,
        r#"{{"id":{},"jaccard":{},"edges":["#,
        Json::num(id as f64),
        Json::num(result.jaccard)
    );
    for (i, e) in edges.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(br#"{"nodes":["#);
        for (j, n) in e.nodes().iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            push_u32(&mut out, n.0);
        }
        out.extend_from_slice(br#"],"multiplicity":"#);
        push_u32(&mut out, h.multiplicity(e));
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
    String::from_utf8(out).expect("JSON text is UTF-8")
}

fn view_body(view: &crate::job::JobView) -> Json {
    let mut pairs = vec![
        ("id".into(), Json::num(view.id as f64)),
        ("status".into(), Json::str(view.status.as_str())),
        (
            "progress".into(),
            Json::Obj(vec![
                ("rounds".into(), Json::num(view.rounds as f64)),
                ("committed".into(), Json::num(view.committed as f64)),
            ]),
        ),
    ];
    if view.cached {
        pairs.push(("cached".into(), Json::Bool(true)));
    }
    if let Some(error) = &view.error {
        pairs.push(("error".into(), Json::str(error.clone())));
    }
    Json::Obj(pairs)
}

fn jobs_body(manager: &JobManager) -> Json {
    let jobs: Vec<Json> = manager.scan().iter().map(view_body).collect();
    Json::Obj(vec![
        ("count".into(), Json::num(jobs.len() as f64)),
        ("jobs".into(), Json::Arr(jobs)),
    ])
}

fn models_body(manager: &JobManager) -> Json {
    let models: Vec<Json> = manager
        .list_models()
        .into_iter()
        .map(|entry| {
            let mut pairs = Vec::new();
            if let Some(name) = entry.name {
                pairs.push(("name".into(), Json::str(name)));
            }
            if let Some(hash) = entry.hash {
                pairs.push(("spec_hash".into(), Json::str(hash.to_hex())));
            }
            pairs.push(("mode".into(), Json::str(entry.mode)));
            Json::Obj(pairs)
        })
        .collect();
    Json::Obj(vec![
        ("count".into(), Json::num(models.len() as f64)),
        ("models".into(), Json::Arr(models)),
    ])
}

fn stats_body(manager: &JobManager) -> Json {
    let s = manager.stats();
    let statuses = manager.shard_statuses();
    let breakers_open = statuses.iter().filter(|s| s.breaker_open).count();
    let shard_status: Vec<Json> = statuses
        .into_iter()
        .map(|status| {
            Json::Obj(vec![
                ("shard".into(), Json::num(status.shard as f64)),
                (
                    "last_heartbeat_ms".into(),
                    Json::num(status.last_heartbeat_ms as f64),
                ),
                ("inflight".into(), Json::num(status.inflight as f64)),
                ("breaker_open".into(), Json::Bool(status.breaker_open)),
                ("strikes".into(), Json::num(status.strikes as f64)),
            ])
        })
        .collect();
    let mut pairs = vec![
        ("queue_depth".into(), Json::num(s.queue_depth as f64)),
        ("running".into(), Json::num(s.running as f64)),
        ("workers".into(), Json::num(s.workers as f64)),
        ("queue_cap".into(), Json::num(s.queue_cap as f64)),
        ("jobs_submitted".into(), Json::num(s.submitted as f64)),
        ("jobs_finished".into(), Json::num(s.finished as f64)),
        ("pipeline_runs".into(), Json::num(s.pipeline_runs as f64)),
        ("cache_hits".into(), Json::num(s.cache_hits as f64)),
        ("models_trained".into(), Json::num(s.models_trained as f64)),
        ("cliques_reused".into(), Json::num(s.cliques_reused as f64)),
        (
            "cliques_rescored".into(),
            Json::num(s.cliques_rescored as f64),
        ),
        (
            "search_reuse_ratio".into(),
            Json::num(if s.cliques_rescored == 0 {
                0.0
            } else {
                s.cliques_reused as f64 / s.cliques_rescored as f64
            }),
        ),
        ("results_cached".into(), Json::num(s.results_cached as f64)),
        ("models_cached".into(), Json::num(s.models_cached as f64)),
        ("result_bytes".into(), Json::num(s.result_bytes as f64)),
        ("model_bytes".into(), Json::num(s.model_bytes as f64)),
        ("store".into(), Json::str(s.store)),
        ("shards".into(), Json::num(s.shards as f64)),
        ("shard_restarts".into(), Json::num(s.shard_restarts as f64)),
        ("degraded".into(), Json::Bool(s.degraded)),
    ];
    if !shard_status.is_empty() {
        pairs.push(("breakers_open".into(), Json::num(breakers_open as f64)));
        pairs.push(("shard_status".into(), Json::Arr(shard_status)));
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn start_rejects_zero_workers_and_zero_queue() {
        for config in [
            ServerConfig {
                workers: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                queue_cap: 0,
                ..ServerConfig::default()
            },
        ] {
            assert!(matches!(Server::start(config), Err(MariohError::Config(_))));
        }
    }

    #[test]
    fn start_reports_bind_failures_as_io() {
        match Server::start(ServerConfig {
            addr: "256.0.0.1:99999".to_owned(),
            ..ServerConfig::default()
        }) {
            Err(MariohError::Io(_)) => {}
            Err(other) => panic!("expected Io error, got {other}"),
            Ok(_) => panic!("bind to an invalid address succeeded"),
        }
    }

    #[test]
    fn connection_cap_answers_503_and_recovers_when_slots_free() {
        use std::time::{Duration, Instant};
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_cap: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        // Saturate the cap with idle connections that never send a byte.
        let idle: Vec<std::net::TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| std::net::TcpStream::connect(addr).expect("connect"))
            .collect();
        // Once the accept loop has admitted them all, further requests
        // are turned away instead of getting a new thread: a 503 when
        // the refusal arrives intact, or a reset when the kernel drops
        // the socket's unread request data first.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match crate::client::get(addr, "/healthz") {
                Ok(response) if response.status == 503 => {
                    assert!(response.body.contains("too many open connections"));
                    assert_eq!(
                        response.header("retry-after"),
                        Some("1"),
                        "every 503 must tell the client when to retry"
                    );
                    break;
                }
                Ok(_) => {}
                Err(_) => break,
            }
            assert!(Instant::now() < deadline, "connection cap never engaged");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Dropping the idle connections frees their slots.
        drop(idle);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if crate::client::get(addr, "/healthz").expect("probe").status == 200 {
                break;
            }
            assert!(Instant::now() < deadline, "server never recovered");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    /// The per-edge `Json` tree the result route built before it wrote
    /// its body directly: the oracle for [`result_body`]'s bytes.
    fn result_tree(id: u64, result: &JobResult) -> Json {
        let edges: Vec<Json> = result
            .reconstruction
            .sorted_edges()
            .into_iter()
            .map(|e| {
                Json::Obj(vec![
                    (
                        "nodes".into(),
                        Json::Arr(e.nodes().iter().map(|n| Json::num(n.0 as f64)).collect()),
                    ),
                    (
                        "multiplicity".into(),
                        Json::num(result.reconstruction.multiplicity(e) as f64),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("id".into(), Json::num(id as f64)),
            ("jaccard".into(), Json::num(result.jaccard)),
            ("edges".into(), Json::Arr(edges)),
        ])
    }

    /// Random results, with integral (`0`, `1`) and non-integral
    /// `jaccard`s, ids up to `u32::MAX - 1` and multiplicities up to
    /// `u32::MAX`.
    fn arb_result() -> impl Strategy<Value = JobResult> {
        use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId};
        let jaccard = prop_oneof![
            (0usize..4).prop_map(|i| [0.0, 1.0, 0.5, 1.0 / 3.0][i]),
            0.0..1.0f64,
        ];
        let node = prop_oneof![0u32..50, (u32::MAX - 50)..u32::MAX];
        let mult = prop_oneof![1u32..5, (u32::MAX - 2)..=u32::MAX];
        let edges = proptest::collection::vec((proptest::collection::vec(node, 2..6), mult), 0..20);
        (jaccard, edges).prop_map(|(jaccard, edges)| {
            let mut h = Hypergraph::new(0);
            for (nodes, m) in edges {
                if let Some(e) = Hyperedge::new(nodes.into_iter().map(NodeId)) {
                    if h.multiplicity(&e) == 0 {
                        h.add_edge_with_multiplicity(e, m);
                    }
                }
            }
            JobResult {
                reconstruction: h,
                jaccard,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn result_body_matches_the_json_tree_oracle(
            id in prop_oneof![1u64..1000, any::<u64>()],
            result in arb_result(),
        ) {
            prop_assert_eq!(result_body(id, &result), result_tree(id, &result).to_string());
        }
    }

    #[test]
    fn result_route_bodies_are_unchanged() {
        use marioh_hypergraph::hyperedge::edge;
        let manager = JobManager::new(4, 1);
        let get = |path: &str| {
            let request = Request {
                method: "GET".into(),
                path: path.into(),
                headers: Vec::new(),
                body: Vec::new(),
            };
            let (status, reply) = route(&request, &manager);
            match reply {
                Reply::Json(body) => (status, JSON_CONTENT_TYPE, body.to_string()),
                Reply::Text { content_type, body } => (status, content_type, body),
            }
        };
        assert_eq!(
            get("/jobs/7/result"),
            (
                404,
                JSON_CONTENT_TYPE,
                r#"{"error":"no such job 7"}"#.into()
            )
        );
        assert_eq!(
            get("/jobs/x/result"),
            (
                400,
                JSON_CONTENT_TYPE,
                r#"{"error":"invalid job id \"x\""}"#.into()
            )
        );
        let id = manager
            .submit(JobSpec::from_json(&Json::parse(r#"{"dataset": "Hosts"}"#).unwrap()).unwrap())
            .unwrap();
        assert_eq!(
            get(&format!("/jobs/{id}/result")),
            (
                409,
                JSON_CONTENT_TYPE,
                format!(r#"{{"error":"job {id} is queued; results exist only for done jobs"}}"#)
            )
        );
        let job = manager.take_next().unwrap();
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[2, 0, 1]), 3);
        h.add_edge(edge(&[1, 4]));
        manager.finish(
            job.id,
            Ok(JobResult {
                reconstruction: h,
                jaccard: 1.0,
            }),
        );
        assert_eq!(
            get(&format!("/jobs/{id}/result")),
            (
                200,
                JSON_CONTENT_TYPE,
                format!(
                    r#"{{"id":{id},"jaccard":1,"edges":[{{"nodes":[0,1,2],"multiplicity":3}},{{"nodes":[1,4],"multiplicity":1}}]}}"#
                )
            )
        );
    }

    #[test]
    fn routing_table_without_sockets() {
        let manager = JobManager::new(4, 1);
        let req = |method: &str, path: &str, body: &[u8]| Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.to_vec(),
        };
        assert_eq!(route(&req("GET", "/healthz", b""), &manager).0, 200);
        assert_eq!(route(&req("GET", "/stats", b""), &manager).0, 200);
        assert_eq!(route(&req("GET", "/nope", b""), &manager).0, 404);
        assert_eq!(route(&req("PUT", "/jobs", b""), &manager).0, 405);
        assert_eq!(route(&req("POST", "/healthz", b""), &manager).0, 405);
        assert_eq!(route(&req("GET", "/jobs/7", b""), &manager).0, 404);
        assert_eq!(route(&req("GET", "/jobs/x", b""), &manager).0, 400);
        assert_eq!(route(&req("DELETE", "/jobs/7", b""), &manager).0, 404);
        assert_eq!(route(&req("GET", "/jobs/7/result", b""), &manager).0, 404);
        assert_eq!(route(&req("POST", "/jobs", b"not json"), &manager).0, 400);
        assert_eq!(route(&req("POST", "/jobs", b"{}"), &manager).0, 400);
        assert_eq!(route(&req("POST", "/metrics", b""), &manager).0, 405);
        let (status, reply) = route(&req("GET", "/metrics", b""), &manager);
        assert_eq!(status, 200);
        match reply {
            Reply::Text { content_type, body } => {
                assert_eq!(content_type, METRICS_CONTENT_TYPE);
                assert!(body.contains("marioh_server_pipeline_runs_total"), "{body}");
            }
            Reply::Json(body) => panic!("metrics must be plain text, got {body}"),
        }

        let (status, reply) = route(&req("POST", "/jobs", br#"{"dataset": "Hosts"}"#), &manager);
        assert_eq!(status, 201);
        let id = reply.as_json().get("id").unwrap().as_u64().unwrap();
        assert_eq!(
            route(&req("GET", &format!("/jobs/{id}"), b""), &manager).0,
            200
        );
        // Still queued (no workers running): the result is a 409.
        assert_eq!(
            route(&req("GET", &format!("/jobs/{id}/result"), b""), &manager).0,
            409
        );
        // Queue capacity 4: the fifth submission is a 503.
        for _ in 0..3 {
            assert_eq!(
                route(&req("POST", "/jobs", br#"{"dataset": "Hosts"}"#), &manager).0,
                201
            );
        }
        assert_eq!(
            route(&req("POST", "/jobs", br#"{"dataset": "Hosts"}"#), &manager).0,
            503
        );
        // Cancel the queued job through the route.
        let (status, reply) = route(&req("DELETE", &format!("/jobs/{id}"), b""), &manager);
        assert_eq!(status, 200);
        assert_eq!(
            reply.as_json().get("status").unwrap().as_str(),
            Some("cancelled")
        );
    }
}
