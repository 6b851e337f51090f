//! The orchestration layer over the persistence stack: the bounded FIFO
//! queue, worker wakeup, and cancellation tokens.
//!
//! Job *records* — lifecycle state, progress, results — live in a
//! [`JobStore`] from `marioh-store` (in-memory by default, disk-backed
//! under `marioh serve --state-dir`), and completed artifacts live in an
//! [`ArtifactStore`] keyed by each spec's canonical content hash. The
//! [`JobManager`] here owns only what dies with the process anyway:
//! the queue, the condvar workers block on, the per-job [`CancelToken`]s,
//! and the process-lifetime cache/run counters.
//!
//! Submission consults the artifact cache: a spec whose hash already has
//! a cached result is recorded `Done` immediately (`cached: true` in its
//! view) without ever entering the queue — MARIOH is deterministic, so
//! the cached reconstruction *is* the reconstruction. On a durable
//! store, jobs that were queued or running when the process died are
//! re-queued at construction.

use marioh_core::progress::CancelToken;
use marioh_core::{MariohError, SavedModel};
use marioh_dispatch::{Dispatcher, ShardStatus};
use marioh_obs::{Counter, Gauge, Registry, Snapshot};
use marioh_store::{
    ArtifactStats, ArtifactStore, JobStore, MemoryStore, ModelEntry, SpecHash, Transition,
    DEFAULT_RETAINED_JOBS,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

// The job domain model lives in `marioh-store`; re-export it so server
// consumers keep their import paths.
pub use marioh_store::spec::{
    variant_by_name, JobInput, JobParams, JobResult, JobSpec, JobStatus, JobView, ModelRef,
    MAX_THROTTLE_MS,
};

/// Aggregate counters served by `GET /stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently held by workers.
    pub running: usize,
    /// Size of the worker pool.
    pub workers: usize,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Jobs accepted (store lifetime — survives restarts on a durable
    /// store).
    pub submitted: u64,
    /// Jobs that reached a terminal state (store lifetime).
    pub finished: u64,
    /// Reconstruction pipelines actually executed by workers since this
    /// process started — cache hits never increment it.
    pub pipeline_runs: u64,
    /// Submissions answered from the artifact cache since this process
    /// started.
    pub cache_hits: u64,
    /// Classifiers trained since this process started (model-reuse jobs
    /// never increment it; counted through the observer's
    /// `on_training_done`).
    pub models_trained: u64,
    /// Listed cliques the incremental search engine carried from the
    /// previous round without re-enumeration, summed over every round of
    /// every job this process ran (streamed in through the progress
    /// observer).
    pub cliques_reused: u64,
    /// Listed cliques scored, same scope.
    pub cliques_rescored: u64,
    /// Results currently in the artifact cache.
    pub results_cached: usize,
    /// Trained models currently in the artifact store.
    pub models_cached: usize,
    /// Encoded (post-compression) bytes of cached results on disk.
    pub result_bytes: u64,
    /// Encoded bytes of stored models on disk.
    pub model_bytes: u64,
    /// Shard worker processes (`marioh serve --shards`); 0 when the
    /// in-process worker pool serves jobs.
    pub shards: usize,
    /// Shard workers replaced after dying (SIGKILL, crash, heartbeat
    /// timeout) since this process started.
    pub shard_restarts: u64,
    /// `"memory"` or `"disk"`.
    pub store: &'static str,
    /// Whether the job store is in read-only degraded mode (persistent
    /// I/O failure; serving continues from memory and the artifact
    /// overlay).
    pub degraded: bool,
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// Invalid specification; the message is the 400 response body.
    Invalid(String),
    /// The queue is at capacity; the client should retry later (503).
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg) => f.write_str(msg),
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue is full (capacity {capacity}); retry later")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a batch submission was rejected. Batches are all-or-nothing: on
/// any error, no job of the batch was accepted.
#[derive(Debug)]
pub enum BatchError {
    /// One or more specs failed validation; each entry is the failing
    /// spec's index in the submitted array and its message (the per-index
    /// 400 payload).
    Invalid(Vec<(usize, String)>),
    /// A whole-batch rejection: the queue cannot absorb the batch, or
    /// the server is shutting down.
    Rejected(SubmitError),
}

/// A successfully accepted batch.
#[derive(Debug, Clone)]
pub struct BatchSubmission {
    /// The batch id (`GET /batches/:id`).
    pub batch: u64,
    /// Per-spec job ids, in submission order.
    pub ids: Vec<u64>,
}

/// Per-process orchestration state (the store holds everything that
/// outlives the process).
struct Orchestration {
    queue: VecDeque<u64>,
    /// Tokens for queued and running jobs; removed at terminal states.
    tokens: HashMap<u64, CancelToken>,
    shutdown: bool,
    running: usize,
    /// Batch id → member job ids. Process-lifetime, like the queue: the
    /// member *jobs* are durable, the grouping is a submission-time
    /// convenience.
    batches: HashMap<u64, Vec<u64>>,
    next_batch: u64,
    /// Running jobs with a deadline: id → (deadline, timeout seconds).
    /// Set at dispatch, cleared at every terminal path.
    deadlines: HashMap<u64, (Instant, u64)>,
    /// Jobs the deadline watchdog cancelled, with their timeout in
    /// seconds. Consulted by the finish paths to turn the worker's
    /// `Cancelled` report into a typed timeout failure.
    timed_out: HashMap<u64, u64>,
}

struct Shared {
    orch: Mutex<Orchestration>,
    work_ready: Condvar,
    store: Arc<dyn JobStore>,
    artifacts: Arc<dyn ArtifactStore>,
    queue_cap: usize,
    workers: usize,
    /// Per-manager metrics registry: the single source every frontend
    /// reads. `/stats` and `GET /metrics` both render from it (plus the
    /// process-global registry), so the two views can never disagree.
    registry: Arc<Registry>,
    pipeline_runs: Arc<Counter>,
    cache_hits: Arc<Counter>,
    models_trained: Arc<Counter>,
    shards: Arc<Gauge>,
    shard_restarts: Arc<Counter>,
    /// The shard dispatcher, when `--shards` is active. Weak: the
    /// dispatcher's event sink owns a manager clone, so a strong handle
    /// here would cycle.
    dispatcher: Mutex<Weak<Dispatcher>>,
    /// Server-wide default job deadline (`marioh serve --job-timeout`);
    /// `None` means jobs without their own `timeout_secs` run unbounded.
    job_timeout: Mutex<Option<Duration>>,
    /// Whether the deadline watchdog thread has been spawned (lazily, on
    /// the first job that actually has a deadline).
    watchdog_started: AtomicBool,
}

/// The concurrent job queue and orchestration over a pluggable store.
/// Cheap to clone; all clones share one store.
#[derive(Clone)]
pub struct JobManager {
    shared: Arc<Shared>,
}

/// A job handed to a worker by [`JobManager::take_next`].
pub struct DispatchedJob {
    /// Job id, for progress reports and [`JobManager::finish`].
    pub id: u64,
    /// The specification (ownership moves to the worker).
    pub spec: JobSpec,
    /// The spec's content hash — the artifact-cache key the worker
    /// consults before building a pipeline.
    pub spec_hash: SpecHash,
    /// The token `DELETE /jobs/:id` and shutdown fire.
    pub cancel: CancelToken,
}

impl JobManager {
    /// A manager over a fresh in-memory store with the given queue
    /// capacity, reporting `workers` in its stats (the worker pool
    /// itself lives in the server). Retains the
    /// [`DEFAULT_RETAINED_JOBS`] most recent terminal records.
    pub fn new(queue_cap: usize, workers: usize) -> JobManager {
        let store = Arc::new(MemoryStore::new(DEFAULT_RETAINED_JOBS));
        JobManager::with_stores(queue_cap, workers, store.clone(), store)
    }

    /// A manager over explicit stores (the server builds a
    /// [`marioh_store::DiskStore`] here for `--state-dir`). Jobs the
    /// store recovered — queued or interrupted mid-run in a previous
    /// process — are re-queued immediately with fresh cancel tokens.
    pub fn with_stores(
        queue_cap: usize,
        workers: usize,
        store: Arc<dyn JobStore>,
        artifacts: Arc<dyn ArtifactStore>,
    ) -> JobManager {
        let recovered = store.recover_queued();
        let mut orch = Orchestration {
            queue: VecDeque::new(),
            tokens: HashMap::new(),
            shutdown: false,
            running: 0,
            batches: HashMap::new(),
            next_batch: 1,
            deadlines: HashMap::new(),
            timed_out: HashMap::new(),
        };
        for id in recovered {
            orch.tokens.insert(id, CancelToken::new());
            orch.queue.push_back(id);
        }
        let registry = Arc::new(Registry::default());
        JobManager {
            shared: Arc::new(Shared {
                orch: Mutex::new(orch),
                work_ready: Condvar::new(),
                store,
                artifacts,
                queue_cap,
                workers,
                pipeline_runs: registry.counter("marioh_server_pipeline_runs_total"),
                cache_hits: registry.counter("marioh_server_cache_hits_total"),
                models_trained: registry.counter("marioh_server_models_trained_total"),
                shards: registry.gauge("marioh_server_shards"),
                shard_restarts: registry.counter("marioh_server_shard_restarts_total"),
                registry,
                dispatcher: Mutex::new(Weak::new()),
                job_timeout: Mutex::new(None),
                watchdog_started: AtomicBool::new(false),
            }),
        }
    }

    /// Sets the server-wide default job deadline (`marioh serve
    /// --job-timeout`). Jobs whose spec carries its own `timeout_secs`
    /// override it; `None` leaves default-less jobs unbounded. Applies
    /// to jobs dispatched after the call.
    pub fn set_job_timeout(&self, timeout: Option<Duration>) {
        *self
            .shared
            .job_timeout
            .lock()
            .expect("job timeout lock poisoned") = timeout;
    }

    fn lock(&self) -> MutexGuard<'_, Orchestration> {
        self.shared.orch.lock().expect("job queue lock poisoned")
    }

    fn store(&self) -> &dyn JobStore {
        &*self.shared.store
    }

    /// Validates and enqueues a job, returning its id. A spec whose
    /// content hash already has a cached result is recorded `Done`
    /// instantly — no queue slot, no worker, no pipeline.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] with the pipeline builder's message for
    /// bad hyperparameters, an unresolvable `model` reference, or when
    /// shutting down; [`SubmitError::QueueFull`] when the queue is at
    /// capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let hash = self.validate_spec(&spec)?;
        // The cache probe can read and parse a large artifact — on a
        // disk store only the first time: later hits share the decoded
        // result earlier records hold. Either way, do it before touching
        // the orchestration lock that every worker dispatch and finish
        // contends on.
        let cached = self.shared.artifacts.get_result(&hash);
        let shutting_down =
            || SubmitError::Invalid("server is shutting down; not accepting jobs".to_owned());
        if let Some(result) = cached {
            if self.lock().shutdown {
                return Err(shutting_down());
            }
            // Deterministic pipeline + identical spec = identical result.
            // No queue slot, no token: the record is terminal on arrival.
            let id = self.store().submit(&spec, &hash);
            self.store().transition(
                id,
                Transition::Done {
                    result,
                    cached: true,
                },
            );
            self.shared.cache_hits.inc();
            return Ok(id);
        }
        let mut orch = self.lock();
        if orch.shutdown {
            return Err(shutting_down());
        }
        if orch.queue.len() >= self.shared.queue_cap {
            return Err(SubmitError::QueueFull {
                capacity: self.shared.queue_cap,
            });
        }
        let id = self.store().submit(&spec, &hash);
        orch.tokens.insert(id, CancelToken::new());
        orch.queue.push_back(id);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// The validation half of [`JobManager::submit`]: spec validity, the
    /// content hash, and fail-fast model-reference checks. The donor of
    /// a `model: "job:<id>"` reference must already be done (accepting a
    /// still-running donor would turn into a timing-dependent failure at
    /// dispatch on multi-worker pools); workers still re-resolve at
    /// dispatch — the donor can be evicted, or a recovered job's donor
    /// may be gone after restart.
    fn validate_spec(&self, spec: &JobSpec) -> Result<SpecHash, SubmitError> {
        spec.validate()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        let hash = spec
            .content_hash()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        match &spec.model {
            Some(ModelRef::Job(donor)) => match self.store().view(*donor) {
                None => {
                    return Err(SubmitError::Invalid(format!(
                        "model donor job {donor} is unknown (or evicted)"
                    )));
                }
                Some(view) if view.status != JobStatus::Done => {
                    return Err(SubmitError::Invalid(format!(
                        "model donor job {donor} is {}; models exist only for done jobs",
                        view.status
                    )));
                }
                Some(_) => {}
            },
            Some(ModelRef::Named(name))
                if self.shared.artifacts.get_named_model(name).is_none() =>
            {
                return Err(SubmitError::Invalid(format!(
                    "no saved model named {name:?}"
                )));
            }
            _ => {}
        }
        Ok(hash)
    }

    /// Atomically submits a batch of specs, returning a batch id and the
    /// per-spec job ids. All-or-nothing: every spec is validated first
    /// and any failure rejects the whole batch with per-index messages.
    /// On a durable store the accepted batch is one log commit (one
    /// fsync), not one per job. Specs whose results are already cached
    /// are recorded `Done` on arrival without taking queue slots.
    ///
    /// # Errors
    ///
    /// [`BatchError::Invalid`] with per-index messages for invalid
    /// specs; [`BatchError::Rejected`] when the batch is empty, the
    /// queue cannot absorb it, or the manager is shutting down.
    pub fn submit_batch(&self, specs: Vec<JobSpec>) -> Result<BatchSubmission, BatchError> {
        if specs.is_empty() {
            return Err(BatchError::Rejected(SubmitError::Invalid(
                "batch is empty; submit at least one spec".to_owned(),
            )));
        }
        let mut errors: Vec<(usize, String)> = Vec::new();
        let mut hashes: Vec<SpecHash> = Vec::with_capacity(specs.len());
        for (index, spec) in specs.iter().enumerate() {
            match self.validate_spec(spec) {
                Ok(hash) => hashes.push(hash),
                Err(SubmitError::Invalid(msg)) => errors.push((index, msg)),
                Err(e @ SubmitError::QueueFull { .. }) => {
                    unreachable!("validation never reports {e}")
                }
            }
        }
        if !errors.is_empty() {
            return Err(BatchError::Invalid(errors));
        }
        // Cache probes before the orchestration lock, like single submit.
        let cached: Vec<Option<Arc<JobResult>>> = hashes
            .iter()
            .map(|hash| self.shared.artifacts.get_result(hash))
            .collect();
        let queue_need = cached.iter().filter(|c| c.is_none()).count();
        let mut orch = self.lock();
        if orch.shutdown {
            return Err(BatchError::Rejected(SubmitError::Invalid(
                "server is shutting down; not accepting jobs".to_owned(),
            )));
        }
        if orch.queue.len() + queue_need > self.shared.queue_cap {
            return Err(BatchError::Rejected(SubmitError::QueueFull {
                capacity: self.shared.queue_cap,
            }));
        }
        let items: Vec<(JobSpec, SpecHash)> = specs.into_iter().zip(hashes).collect();
        let ids = self.store().submit_batch(&items);
        let mut done: Vec<(u64, Transition)> = Vec::new();
        for (id, hit) in ids.iter().zip(cached) {
            match hit {
                Some(result) => {
                    self.shared.cache_hits.inc();
                    done.push((
                        *id,
                        Transition::Done {
                            result,
                            cached: true,
                        },
                    ));
                }
                None => {
                    orch.tokens.insert(*id, CancelToken::new());
                    orch.queue.push_back(*id);
                }
            }
        }
        if !done.is_empty() {
            self.store().transition_batch(done);
        }
        let batch = orch.next_batch;
        orch.next_batch += 1;
        orch.batches.insert(batch, ids.clone());
        self.shared.work_ready.notify_all();
        Ok(BatchSubmission { batch, ids })
    }

    /// The member jobs of a batch with their current views, in
    /// submission order (`None` for members already evicted), or `None`
    /// for unknown batch ids.
    pub fn batch_view(&self, batch: u64) -> Option<Vec<(u64, Option<JobView>)>> {
        let ids = self.lock().batches.get(&batch).cloned()?;
        Some(
            ids.into_iter()
                .map(|id| (id, self.store().view(id)))
                .collect(),
        )
    }

    /// Blocks until a job is available (FIFO) or the manager shuts down
    /// (`None`). Marks the job `Running`.
    pub fn take_next(&self) -> Option<DispatchedJob> {
        let mut orch = self.lock();
        loop {
            if orch.shutdown {
                return None;
            }
            if let Some(id) = orch.queue.pop_front() {
                orch.running += 1;
                let cancel = orch.tokens.get(&id).cloned().unwrap_or_default();
                let spec = self.store().start(id).expect("queued job has its spec");
                let spec_hash = self
                    .store()
                    .spec_hash(id)
                    .expect("submitted job has a hash");
                self.arm_deadline(&mut orch, id, &spec);
                return Some(DispatchedJob {
                    id,
                    spec,
                    spec_hash,
                    cancel,
                });
            }
            orch = self
                .shared
                .work_ready
                .wait(orch)
                .expect("job queue lock poisoned");
        }
    }

    /// Blocks for the next job to execute and the model it reuses:
    /// [`JobManager::take_next`] plus the steps both serving modes take
    /// before running a job. A job whose twin finished while it queued is
    /// answered from the artifact cache; a job whose model reference no
    /// longer resolves (against this process's stores — shard workers
    /// are stateless, so the model travels with the job) fails. Every job
    /// returned counts as one pipeline run. `None` at shutdown.
    pub fn next_run(&self) -> Option<(DispatchedJob, Option<SavedModel>)> {
        loop {
            let job = self.take_next()?;
            if let Some(cached) = self.cached_result(&job.spec_hash) {
                self.finish_cached(job.id, cached);
                continue;
            }
            let reuse = job.spec.model.as_ref().map(|m| self.resolve_model(m));
            match reuse.transpose() {
                Ok(reuse) => {
                    self.shared.pipeline_runs.inc();
                    return Some((job, reuse));
                }
                Err(msg) => self.finish(job.id, Err(MariohError::config(msg))),
            }
        }
    }

    /// Arms the deadline for a job being dispatched: the spec's own
    /// `timeout_secs` when set, the server-wide default otherwise. Jobs
    /// with neither run unbounded. Spawns the watchdog thread on first
    /// use.
    fn arm_deadline(&self, orch: &mut Orchestration, id: u64, spec: &JobSpec) {
        let secs = if spec.timeout_secs > 0 {
            Some(spec.timeout_secs)
        } else {
            self.shared
                .job_timeout
                .lock()
                .expect("job timeout lock poisoned")
                .map(|d| d.as_secs())
                .filter(|s| *s > 0)
        };
        let Some(secs) = secs else { return };
        if let Some(deadline) = Instant::now().checked_add(Duration::from_secs(secs)) {
            orch.deadlines.insert(id, (deadline, secs));
            self.ensure_watchdog();
        }
    }

    fn ensure_watchdog(&self) {
        if self.shared.watchdog_started.swap(true, Ordering::SeqCst) {
            return;
        }
        let shared = Arc::downgrade(&self.shared);
        std::thread::Builder::new()
            .name("marioh-deadline".to_owned())
            .spawn(move || deadline_watchdog(shared))
            .expect("spawn deadline watchdog thread");
    }

    /// Clears a job's deadline bookkeeping at a terminal path and
    /// reports the timeout it hit, if any.
    fn close_deadline(orch: &mut Orchestration, id: u64) -> Option<u64> {
        orch.deadlines.remove(&id);
        orch.timed_out.remove(&id)
    }

    /// Records a finished job. A job already cancelled through
    /// [`JobManager::cancel`] stays `Cancelled` regardless of `outcome`
    /// (terminal records are immutable in the store); a job the deadline
    /// watchdog cancelled records as `Failed` with a typed timeout
    /// reason instead.
    pub fn finish(&self, id: u64, outcome: Result<JobResult, MariohError>) {
        let timed_out = {
            let mut orch = self.lock();
            orch.running = orch.running.saturating_sub(1);
            orch.tokens.remove(&id);
            JobManager::close_deadline(&mut orch, id)
        };
        match outcome {
            Ok(result) => {
                let result = Arc::new(result);
                // Artifact before record: a crash between the two leaves
                // an orphan artifact, never a done record without its
                // result. A *failed* artifact write on a durable store
                // would break that invariant at the next restart (a
                // replayed done record with nothing to serve), so it
                // fails the job instead — the pipeline is deterministic
                // and the client can resubmit once the disk recovers.
                if let Some(hash) = self.store().spec_hash(id) {
                    if let Err(e) = self.shared.artifacts.put_result(&hash, &result) {
                        self.store().transition(
                            id,
                            Transition::Failed(format!(
                                "reconstruction succeeded but its result could not be \
                                 persisted: {e}; resubmit once storage recovers"
                            )),
                        );
                        return;
                    }
                }
                self.store().transition(
                    id,
                    Transition::Done {
                        result,
                        cached: false,
                    },
                );
            }
            Err(MariohError::Cancelled) => {
                let transition = match timed_out {
                    Some(secs) => Transition::Failed(timeout_message(secs)),
                    None => Transition::Cancelled,
                };
                self.store().transition(id, transition);
            }
            Err(e) => {
                self.store()
                    .transition(id, Transition::Failed(e.to_string()));
            }
        }
    }

    /// Records a sweep of finished jobs at once — the shard dispatcher's
    /// batched twin of [`JobManager::finish`]. Artifacts are stored
    /// first, per job (same crash-ordering invariant as `finish`), then
    /// every record transition lands in one store commit — on a durable
    /// store, one fsync for the whole sweep.
    pub fn finish_batch(&self, outcomes: Vec<(u64, Result<JobResult, MariohError>)>) {
        if outcomes.is_empty() {
            return;
        }
        let mut timed_out: HashMap<u64, u64> = HashMap::new();
        {
            let mut orch = self.lock();
            for (id, _) in &outcomes {
                orch.running = orch.running.saturating_sub(1);
                orch.tokens.remove(id);
                if let Some(secs) = JobManager::close_deadline(&mut orch, *id) {
                    timed_out.insert(*id, secs);
                }
            }
        }
        let mut transitions: Vec<(u64, Transition)> = Vec::with_capacity(outcomes.len());
        for (id, outcome) in outcomes {
            match outcome {
                Ok(result) => {
                    let result = Arc::new(result);
                    // Artifact before record, exactly like `finish`.
                    if let Some(hash) = self.store().spec_hash(id) {
                        if let Err(e) = self.shared.artifacts.put_result(&hash, &result) {
                            transitions.push((
                                id,
                                Transition::Failed(format!(
                                    "reconstruction succeeded but its result could not be \
                                     persisted: {e}; resubmit once storage recovers"
                                )),
                            ));
                            continue;
                        }
                    }
                    transitions.push((
                        id,
                        Transition::Done {
                            result,
                            cached: false,
                        },
                    ));
                }
                Err(MariohError::Cancelled) => transitions.push((
                    id,
                    match timed_out.get(&id) {
                        Some(secs) => Transition::Failed(timeout_message(*secs)),
                        None => Transition::Cancelled,
                    },
                )),
                Err(e) => transitions.push((id, Transition::Failed(e.to_string()))),
            }
        }
        self.store().transition_batch(transitions);
    }

    /// Applies a sweep of non-terminal record transitions (progress
    /// counters, error notes) in one store commit. Used by the shard
    /// dispatcher's event sink; no orchestration state changes.
    pub fn record_progress_batch(&self, transitions: Vec<(u64, Transition)>) {
        if !transitions.is_empty() {
            self.store().transition_batch(transitions);
        }
    }

    /// Records a job answered from the artifact cache by a worker that
    /// found the artifact only after dispatch (e.g. its identical twin
    /// finished while it sat in the queue).
    pub fn finish_cached(&self, id: u64, result: Arc<JobResult>) {
        {
            let mut orch = self.lock();
            orch.running = orch.running.saturating_sub(1);
            orch.tokens.remove(&id);
            JobManager::close_deadline(&mut orch, id);
        }
        self.shared.cache_hits.inc();
        self.store().transition(
            id,
            Transition::Done {
                result,
                cached: true,
            },
        );
    }

    /// The cached result for a spec hash, if any.
    pub fn cached_result(&self, hash: &SpecHash) -> Option<Arc<JobResult>> {
        self.shared.artifacts.get_result(hash)
    }

    /// Resolves a job's `model` reference against the stores.
    ///
    /// # Errors
    ///
    /// A user-facing message (the job's failure text) when the donor is
    /// not done or its model is gone.
    pub fn resolve_model(&self, model: &ModelRef) -> Result<SavedModel, String> {
        match model {
            ModelRef::Job(donor) => {
                let view = self
                    .store()
                    .view(*donor)
                    .ok_or_else(|| format!("model donor job {donor} is unknown (or evicted)"))?;
                if view.status != JobStatus::Done {
                    return Err(format!(
                        "model donor job {donor} is {}; models exist only for done jobs",
                        view.status
                    ));
                }
                let hash = self
                    .store()
                    .spec_hash(*donor)
                    .ok_or_else(|| format!("model donor job {donor} is unknown (or evicted)"))?;
                self.shared.artifacts.get_model(&hash).ok_or_else(|| {
                    format!(
                        "no stored model for job {donor} (it was answered from cache, \
                         or the artifact store lost it)"
                    )
                })
            }
            ModelRef::Named(name) => self
                .shared
                .artifacts
                .get_named_model(name)
                .ok_or_else(|| format!("no saved model named {name:?}")),
        }
    }

    /// Stores the model a job trained, keyed by the job's spec hash, so
    /// later jobs can reference it as `model: "job:<id>"`. Best-effort:
    /// an artifact-store failure degrades model reuse, not the job.
    pub fn store_model(&self, hash: &SpecHash, model: &SavedModel) {
        let _ = self.shared.artifacts.put_model(hash, model);
    }

    /// Counts one classifier trained (driven by the observer's
    /// `on_training_done`, so model-reuse jobs — which skip training —
    /// never count).
    pub fn note_trained(&self) {
        self.shared.models_trained.inc();
    }

    /// Records that this manager serves through `shards` shard worker
    /// processes (surfaces in `/stats`).
    pub fn set_shard_mode(&self, shards: usize) {
        self.shared.shards.set(shards as u64);
    }

    /// Counts one shard worker replacement (SIGKILL, crash, or heartbeat
    /// timeout followed by respawn).
    pub fn note_shard_restart(&self) {
        self.shared.shard_restarts.inc();
    }

    /// This manager's metrics registry — where the HTTP layer records
    /// request latencies and the server counters above live.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Attaches the shard dispatcher so stats and metrics can fold in
    /// per-shard heartbeat ages, in-flight counts, and pushed worker
    /// registries. Held weakly — the dispatcher's event sink already
    /// owns a manager clone.
    pub fn attach_dispatcher(&self, dispatcher: &Arc<Dispatcher>) {
        *self
            .shared
            .dispatcher
            .lock()
            .expect("dispatcher handle lock poisoned") = Arc::downgrade(dispatcher);
    }

    /// Per-shard status (heartbeat age, in-flight jobs, latest pushed
    /// metrics snapshot); empty when no dispatcher is attached.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.shared
            .dispatcher
            .lock()
            .expect("dispatcher handle lock poisoned")
            .upgrade()
            .map(|d| d.shard_statuses())
            .unwrap_or_default()
    }

    /// The one merged metrics view every frontend renders from: this
    /// manager's registry, the process-global registry (engine phases,
    /// store, dispatch wire traffic), and each shard worker's pushed
    /// registry re-labelled with `shard="K"`. `/stats` and `GET /metrics`
    /// both read this, so they can never disagree.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.shared.registry.snapshot();
        snap.merge(&marioh_obs::global().snapshot());
        for status in self.shard_statuses() {
            if let Some(text) = &status.snapshot {
                if let Ok(worker) = Snapshot::decode(text) {
                    snap.merge(&worker.with_label("shard", &status.shard.to_string()));
                }
            }
        }
        snap
    }

    /// Cancels a job: de-queues it if still queued, fires its token if
    /// running. Terminal jobs are left unchanged. Returns the resulting
    /// status, or `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let mut orch = self.lock();
        let view = self.store().view(id)?;
        if view.status.is_terminal() {
            return Some(view.status);
        }
        orch.queue.retain(|q| *q != id);
        if let Some(token) = orch.tokens.get(&id) {
            token.cancel();
        }
        if view.status == JobStatus::Queued {
            orch.tokens.remove(&id);
        }
        // An explicit cancel takes the job off the deadline watch; a
        // timeout already recorded races at the store (terminal-once).
        orch.deadlines.remove(&id);
        // The store arbitrates the race with a finishing worker:
        // whichever terminal transition lands first wins.
        self.store().transition(id, Transition::Cancelled)
    }

    /// A snapshot of one job, or `None` for unknown ids.
    pub fn view(&self, id: u64) -> Option<JobView> {
        self.store().view(id)
    }

    /// Snapshots of every retained job, ascending by id (`GET /jobs`).
    pub fn scan(&self) -> Vec<JobView> {
        self.store().scan()
    }

    /// Every stored model (`GET /models`).
    pub fn list_models(&self) -> Vec<ModelEntry> {
        self.shared.artifacts.list_models()
    }

    /// The job's status and (for done jobs) a shared handle to its
    /// result. An `Arc` clone, so large reconstructions are never copied
    /// under the store lock.
    pub fn result(&self, id: u64) -> Option<(JobStatus, Option<Arc<JobResult>>)> {
        self.store().result(id)
    }

    /// Aggregate queue/worker/cache counters.
    pub fn stats(&self) -> ServerStats {
        let (queue_depth, running) = {
            let orch = self.lock();
            (orch.queue.len(), orch.running)
        };
        let counters = self.store().counters();
        let ArtifactStats {
            results,
            models,
            result_bytes,
            model_bytes,
        } = self.shared.artifacts.artifact_stats();
        // Engine reuse totals are recorded once, in core, on the global
        // registry (and on each shard worker's, folded in with a
        // `shard="K"` label); summing the family covers both modes.
        let merged = self.metrics_snapshot();
        ServerStats {
            queue_depth,
            running,
            workers: self.shared.workers,
            queue_cap: self.shared.queue_cap,
            submitted: counters.submitted,
            finished: counters.finished,
            pipeline_runs: self.shared.pipeline_runs.get(),
            cache_hits: self.shared.cache_hits.get(),
            models_trained: self.shared.models_trained.get(),
            cliques_reused: merged.total("marioh_engine_cliques_reused_total"),
            cliques_rescored: merged.total("marioh_engine_cliques_rescored_total"),
            results_cached: results,
            models_cached: models,
            result_bytes,
            model_bytes,
            shards: self.shared.shards.get() as usize,
            shard_restarts: self.shared.shard_restarts.get(),
            store: self.store().kind(),
            degraded: self.store().degraded(),
        }
    }

    /// Whether the job store is in read-only degraded mode (surfaced on
    /// `/healthz` and `/stats`).
    pub fn store_degraded(&self) -> bool {
        self.store().degraded()
    }

    /// Stops accepting and dispatching work: cancels every queued job,
    /// fires the tokens of running jobs, and wakes all blocked
    /// [`JobManager::take_next`] calls.
    pub fn shutdown(&self) {
        let mut orch = self.lock();
        orch.shutdown = true;
        while let Some(id) = orch.queue.pop_front() {
            if let Some(token) = orch.tokens.remove(&id) {
                token.cancel();
            }
            self.store().transition(id, Transition::Cancelled);
        }
        for token in orch.tokens.values() {
            token.cancel();
        }
        self.shared.work_ready.notify_all();
    }
}

/// How often the deadline watchdog scans for expired jobs.
const DEADLINE_TICK: Duration = Duration::from_millis(50);

/// The typed failure reason of a job the deadline watchdog cancelled.
fn timeout_message(secs: u64) -> String {
    format!("timed out: job exceeded its {secs}s deadline and was cancelled")
}

/// The deadline watchdog: scans running jobs' deadlines every
/// [`DEADLINE_TICK`] and fires the cancel token of any job past its
/// deadline — the same token `DELETE /jobs/:id` fires, so both serving
/// modes (in-process pool and shard dispatch) stop the job through
/// their existing cancellation machinery. The finish paths then turn
/// the worker's `Cancelled` report into a typed timeout failure via the
/// `timed_out` ledger. Exits when the manager shuts down or is dropped.
fn deadline_watchdog(shared: Weak<Shared>) {
    loop {
        std::thread::sleep(DEADLINE_TICK);
        let Some(shared) = shared.upgrade() else {
            return;
        };
        let mut orch = shared.orch.lock().expect("job queue lock poisoned");
        if orch.shutdown {
            return;
        }
        if orch.deadlines.is_empty() {
            continue;
        }
        let now = Instant::now();
        let expired: Vec<(u64, u64)> = orch
            .deadlines
            .iter()
            .filter(|(_, (deadline, _))| *deadline <= now)
            .map(|(id, (_, secs))| (*id, *secs))
            .collect();
        for (id, secs) in expired {
            orch.deadlines.remove(&id);
            orch.timed_out.insert(id, secs);
            if let Some(token) = orch.tokens.get(&id) {
                token.cancel();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use marioh_hypergraph::hyperedge::edge;

    fn tiny_spec() -> JobSpec {
        JobSpec::from_json(&Json::parse(r#"{"dataset": "Hosts"}"#).unwrap()).unwrap()
    }

    fn manager_with_retention(queue_cap: usize, workers: usize, retain: usize) -> JobManager {
        let store = Arc::new(MemoryStore::new(retain));
        JobManager::with_stores(queue_cap, workers, store.clone(), store)
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let m = JobManager::new(4, 1);
        let id = m.submit(tiny_spec()).unwrap();
        assert_eq!(m.view(id).unwrap().status, JobStatus::Queued);
        assert_eq!(m.stats().queue_depth, 1);

        let job = m.take_next().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(m.view(id).unwrap().status, JobStatus::Running);
        assert_eq!(m.stats().running, 1);

        m.record_progress_batch(vec![(
            id,
            Transition::Progress {
                rounds: Some(3),
                committed: Some(17),
            },
        )]);
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        m.finish(
            id,
            Ok(JobResult {
                reconstruction: h,
                jaccard: 1.0,
            }),
        );
        let view = m.view(id).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert_eq!(view.rounds, 3);
        assert_eq!(view.committed, 17);
        assert!(!view.cached);
        let stats = m.stats();
        assert_eq!((stats.running, stats.finished, stats.submitted), (0, 1, 1));
        assert!(m.result(id).unwrap().1.is_some());
        assert_eq!(stats.results_cached, 1, "done results enter the cache");
    }

    #[test]
    fn identical_resubmission_is_answered_from_the_cache() {
        let m = JobManager::new(4, 1);
        let first = m.submit(tiny_spec()).unwrap();
        let job = m.take_next().unwrap();
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        m.finish(
            job.id,
            Ok(JobResult {
                reconstruction: h,
                jaccard: 0.9,
            }),
        );
        // The identical spec never touches the queue: done instantly,
        // flagged cached, sharing the stored result.
        let second = m.submit(tiny_spec()).unwrap();
        assert_ne!(first, second);
        let view = m.view(second).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert!(view.cached);
        assert_eq!(m.stats().queue_depth, 0);
        assert_eq!(m.stats().cache_hits, 1);
        let (_, result) = m.result(second).unwrap();
        assert_eq!(result.unwrap().jaccard, 0.9);
        // A semantically different spec misses.
        let mut other = tiny_spec();
        other.seed = 7;
        let third = m.submit(other).unwrap();
        assert_eq!(m.view(third).unwrap().status, JobStatus::Queued);
    }

    #[test]
    fn batch_submission_is_atomic_with_per_index_errors() {
        let m = JobManager::new(8, 1);
        // One invalid spec rejects the whole batch, naming its index.
        let mut bad = tiny_spec();
        bad.model = Some(ModelRef::Job(42));
        match m.submit_batch(vec![tiny_spec(), bad]).unwrap_err() {
            BatchError::Invalid(errors) => {
                assert_eq!(errors.len(), 1);
                assert_eq!(errors[0].0, 1, "the *second* spec is the bad one");
                assert!(errors[0].1.contains("donor job 42"), "{}", errors[0].1);
            }
            other => panic!("expected per-index errors, got {other:?}"),
        }
        assert_eq!(m.stats().submitted, 0, "a rejected batch submits nothing");
        assert!(matches!(
            m.submit_batch(Vec::new()).unwrap_err(),
            BatchError::Rejected(SubmitError::Invalid(msg)) if msg.contains("empty")
        ));
        // A valid batch lands under one batch id, in order.
        let mut second = tiny_spec();
        second.seed = 7;
        let BatchSubmission { batch, ids } = m.submit_batch(vec![tiny_spec(), second]).unwrap();
        assert_eq!(ids.len(), 2);
        let views = m.batch_view(batch).unwrap();
        assert_eq!(views.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
        assert!(views
            .iter()
            .all(|(_, v)| v.as_ref().unwrap().status == JobStatus::Queued));
        assert!(m.batch_view(batch + 1).is_none());
        // The queue guards the batch as a whole: all or nothing.
        let too_many: Vec<JobSpec> = (10..20)
            .map(|seed| {
                let mut spec = tiny_spec();
                spec.seed = seed;
                spec
            })
            .collect();
        assert!(matches!(
            m.submit_batch(too_many).unwrap_err(),
            BatchError::Rejected(SubmitError::QueueFull { capacity: 8 })
        ));
        assert_eq!(m.stats().queue_depth, 2, "rejected batch enqueued nothing");
        // Cached members are done on arrival and take no queue slot.
        let job = m.take_next().unwrap();
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        m.finish(
            job.id,
            Ok(JobResult {
                reconstruction: h,
                jaccard: 1.0,
            }),
        );
        let mut fresh = tiny_spec();
        fresh.seed = 99;
        let BatchSubmission { batch, .. } = m.submit_batch(vec![tiny_spec(), fresh]).unwrap();
        let views = m.batch_view(batch).unwrap();
        let first = views[0].1.as_ref().unwrap();
        assert_eq!(first.status, JobStatus::Done);
        assert!(first.cached);
        assert_eq!(views[1].1.as_ref().unwrap().status, JobStatus::Queued);
        assert_eq!(m.stats().cache_hits, 1);
    }

    #[test]
    fn dangling_model_references_are_rejected_at_submission() {
        let m = JobManager::new(4, 1);
        let mut spec = tiny_spec();
        spec.model = Some(ModelRef::Job(42));
        let err = m.submit(spec).unwrap_err();
        assert!(
            matches!(&err, SubmitError::Invalid(msg) if msg.contains("donor job 42")),
            "{err}"
        );
        let mut spec = tiny_spec();
        spec.model = Some(ModelRef::Named("nope".to_owned()));
        let err = m.submit(spec).unwrap_err();
        assert!(
            matches!(&err, SubmitError::Invalid(msg) if msg.contains("no saved model")),
            "{err}"
        );
        // A donor that exists but is not done yet is rejected too — on a
        // multi-worker pool it would otherwise race to a spurious
        // dispatch-time failure.
        let queued_donor = m.submit(tiny_spec()).unwrap();
        let mut spec = tiny_spec();
        spec.seed = 9;
        spec.model = Some(ModelRef::Job(queued_donor));
        let err = m.submit(spec).unwrap_err();
        assert!(
            matches!(&err, SubmitError::Invalid(msg) if msg.contains("is queued")),
            "{err}"
        );
    }

    #[test]
    fn invalid_spec_is_rejected_at_submit_with_builder_message() {
        use marioh_core::Pipeline;
        let m = JobManager::new(4, 1);
        let body = Json::parse(r#"{"dataset": "Hosts", "params": {"theta_init": 1.5}}"#).unwrap();
        let err = m.submit(JobSpec::from_json(&body).unwrap()).unwrap_err();
        let expected = Pipeline::builder()
            .theta_init(1.5)
            .build()
            .unwrap_err()
            .to_string();
        assert!(
            matches!(&err, SubmitError::Invalid(m) if *m == expected),
            "{err}"
        );
        assert_eq!(m.stats().submitted, 0);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let m = JobManager::new(2, 1);
        m.submit(tiny_spec()).unwrap();
        m.submit(tiny_spec()).unwrap();
        let err = m.submit(tiny_spec()).unwrap_err();
        assert!(
            matches!(err, SubmitError::QueueFull { capacity: 2 }),
            "{err}"
        );
        // Draining one slot re-opens the queue.
        let job = m.take_next().unwrap();
        m.submit(tiny_spec()).unwrap();
        m.finish(job.id, Err(MariohError::config("boom")));
        assert_eq!(m.view(job.id).unwrap().status, JobStatus::Failed);
    }

    #[test]
    fn cancel_dequeues_queued_jobs_and_fires_running_tokens() {
        let m = JobManager::new(8, 1);
        let queued = m.submit(tiny_spec()).unwrap();
        assert_eq!(m.cancel(queued), Some(JobStatus::Cancelled));
        assert_eq!(m.stats().queue_depth, 0);
        // The queue no longer hands it out.
        let running = m.submit(tiny_spec()).unwrap();
        let job = m.take_next().unwrap();
        assert_eq!(job.id, running);
        assert!(!job.cancel.is_cancelled());
        assert_eq!(m.cancel(running), Some(JobStatus::Cancelled));
        assert!(job.cancel.is_cancelled());
        // The worker's report afterwards cannot resurrect the job...
        m.finish(running, Err(MariohError::Cancelled));
        assert_eq!(m.view(running).unwrap().status, JobStatus::Cancelled);
        // ...and it was counted terminal exactly once.
        assert_eq!(m.stats().finished, 2);
        // Cancelling a terminal or unknown job is a no-op.
        assert_eq!(m.cancel(running), Some(JobStatus::Cancelled));
        assert_eq!(m.stats().finished, 2);
        assert_eq!(m.cancel(999), None);
    }

    #[test]
    fn terminal_records_are_evicted_beyond_the_retention_cap() {
        let m = manager_with_retention(4, 1, 3);
        let ids: Vec<u64> = (0..5)
            .map(|_| {
                let id = m.submit(tiny_spec()).unwrap();
                let job = m.take_next().unwrap();
                assert_eq!(job.id, id);
                m.finish(id, Err(MariohError::config("boom")));
                id
            })
            .collect();
        // Only the three most recent terminal records remain; evicted
        // ids behave exactly like unknown ones.
        for old in &ids[..2] {
            assert!(m.view(*old).is_none());
            assert!(m.result(*old).is_none());
            assert_eq!(m.cancel(*old), None);
        }
        for recent in &ids[2..] {
            assert_eq!(m.view(*recent).unwrap().status, JobStatus::Failed);
        }
        // Counters are history, not store size: eviction leaves them.
        assert_eq!(m.stats().finished, 5);
        assert_eq!(m.scan().len(), 3);
    }

    #[test]
    fn deadline_watchdog_times_out_running_jobs_with_a_typed_reason() {
        let m = JobManager::new(4, 1);
        m.set_job_timeout(Some(Duration::from_secs(1)));
        let id = m.submit(tiny_spec()).unwrap();
        let job = m.take_next().unwrap();
        // The watchdog fires the job's token once the deadline passes.
        let t0 = Instant::now();
        while !job.cancel.is_cancelled() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "deadline never fired"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // The worker reports the cancellation; the record shows a typed
        // timeout failure, not a plain cancel.
        m.finish(id, Err(MariohError::Cancelled));
        let view = m.view(id).unwrap();
        assert_eq!(view.status, JobStatus::Failed);
        let msg = view.error.expect("timeouts carry a reason");
        assert!(msg.contains("timed out"), "{msg}");
        assert!(msg.contains("1s deadline"), "{msg}");
    }

    #[test]
    fn spec_timeout_overrides_the_default_and_explicit_cancel_stays_cancelled() {
        let m = JobManager::new(8, 1);
        // A server-wide default long enough to never fire in this test.
        m.set_job_timeout(Some(Duration::from_secs(3600)));
        let spec = JobSpec::from_json(
            &Json::parse(r#"{"dataset": "Hosts", "timeout_secs": 1, "seed": 3}"#).unwrap(),
        )
        .unwrap();
        let id = m.submit(spec).unwrap();
        let job = m.take_next().unwrap();
        let t0 = std::time::Instant::now();
        while !job.cancel.is_cancelled() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "spec-level deadline never fired"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        m.finish(id, Err(MariohError::Cancelled));
        assert_eq!(m.view(id).unwrap().status, JobStatus::Failed);

        // An explicit DELETE under an armed deadline records Cancelled,
        // never a timeout.
        let other = m.submit(tiny_spec()).unwrap();
        let job = m.take_next().unwrap();
        assert_eq!(job.id, other);
        assert_eq!(m.cancel(other), Some(JobStatus::Cancelled));
        m.finish(other, Err(MariohError::Cancelled));
        assert_eq!(m.view(other).unwrap().status, JobStatus::Cancelled);
    }

    #[test]
    fn shutdown_wakes_blocked_workers_and_cancels_queued_jobs() {
        let m = JobManager::new(8, 1);
        let waiter = {
            let m = m.clone();
            std::thread::spawn(move || m.take_next().map(|j| j.id))
        };
        let id = m.submit(tiny_spec()).unwrap();
        // The waiter takes the only job; give it a moment.
        while m.stats().running == 0 {
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().unwrap(), Some(id));

        let queued = m.submit(tiny_spec()).unwrap();
        let blocked = {
            let m = m.clone();
            std::thread::spawn(move || m.take_next().map(|j| j.id))
        };
        // `queued` may be taken by `blocked` before shutdown; either way
        // the thread must return promptly after shutdown.
        m.shutdown();
        let taken = blocked.join().unwrap();
        if taken.is_none() {
            assert_eq!(m.view(queued).unwrap().status, JobStatus::Cancelled);
        }
        assert!(matches!(
            m.submit(tiny_spec()),
            Err(SubmitError::Invalid(msg)) if msg.contains("shutting down")
        ));
    }
}
