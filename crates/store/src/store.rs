//! The storage traits and the in-memory implementation.
//!
//! [`JobStore`] owns job *records* — their lifecycle state, progress, and
//! results — while queueing, worker wakeup, and cancellation tokens stay
//! in the server's orchestration layer. [`ArtifactStore`] is the
//! content-addressed cache: results and trained models keyed by the
//! submitting spec's [`SpecHash`], plus named models.
//!
//! [`MemoryStore`] implements both — the original `JobManager` store,
//! extracted. `crate::disk::DiskStore` is the durable sibling with an
//! identical contract (the shared conformance tests in
//! `crates/store/tests` run against both).

use crate::hash::SpecHash;
use crate::spec::{JobResult, JobSpec, JobStatus, JobView, Transition};
use marioh_core::{MariohError, SavedModel};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Terminal job records retained for polling before the oldest are
/// evicted — the queue capacity bounds queued work, this bounds the
/// store itself, so a long-lived server's memory does not grow without
/// limit. Evicted ids answer 404, like unknown ones. Overridable with
/// `marioh serve --retain`.
pub const DEFAULT_RETAINED_JOBS: usize = 1024;

/// Aggregate counters a store keeps across its lifetime (the durable
/// store reconstructs them on replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs that reached a terminal state.
    pub finished: u64,
}

/// Counts and byte totals of cached artifacts. Byte totals are the
/// *encoded* sizes the store actually holds — post-compression for
/// results and the disk store's v2 models, plain encoding for the
/// in-memory store's models — so `/stats` reports the real footprint,
/// not the logical one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtifactStats {
    /// Cached job results.
    pub results: usize,
    /// Stored trained models (hash-keyed and named).
    pub models: usize,
    /// Encoded bytes of cached results.
    pub result_bytes: u64,
    /// Encoded bytes of stored models (hash-keyed and named).
    pub model_bytes: u64,
}

/// One stored model, as listed by `GET /models`.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The saved-model name, for named models.
    pub name: Option<String>,
    /// The donor spec hash, for job-derived models.
    pub hash: Option<SpecHash>,
    /// The model's feature mode tag.
    pub mode: String,
}

/// Durable (or not) storage of job records.
///
/// Implementations must make terminal records immutable: once a job is
/// `Done`/`Failed`/`Cancelled`, further [`JobStore::transition`] calls
/// return the existing status without changing anything, and the
/// `finished` counter counts each job exactly once. This is what makes
/// the manager's cancel/finish race benign.
pub trait JobStore: Send + Sync {
    /// Persists a new `Queued` record and returns its id (ids ascend).
    fn submit(&self, spec: &JobSpec, hash: &SpecHash) -> u64;

    /// Records submissions answered from the artifact cache: one record
    /// per item, `Done` and `cached` on arrival, returning their ids in
    /// order. Equivalent to [`JobStore::submit`] then a cached
    /// [`Transition::Done`], but the record never holds the spec, so a
    /// durable store logs one small record per hit (no spec) and pays
    /// one flush + fsync per call.
    fn submit_hits(&self, hits: Vec<(SpecHash, Arc<JobResult>)>) -> Vec<u64>;

    /// Marks a queued job `Running` and yields a clone of its spec. The
    /// store keeps its own copy while the job runs — a compaction
    /// snapshot must be able to persist in-flight jobs so a crash
    /// requeues them with their specs intact; terminal transitions drop
    /// the copy (specs can hold multi-MB uploaded hypergraphs). `None`
    /// for unknown ids or jobs not currently queued.
    fn start(&self, id: u64) -> Option<JobSpec>;

    /// Applies a state change; see [`Transition`] for the semantics.
    /// Returns the job's status after the call, or `None` for unknown
    /// (or evicted) ids.
    fn transition(&self, id: u64, t: Transition) -> Option<JobStatus>;

    /// A snapshot of one job, or `None` for unknown ids.
    fn view(&self, id: u64) -> Option<JobView>;

    /// The job's status and (for done jobs) a shared handle to its
    /// result.
    fn result(&self, id: u64) -> Option<(JobStatus, Option<Arc<JobResult>>)>;

    /// The content hash the job was submitted under.
    fn spec_hash(&self, id: u64) -> Option<SpecHash>;

    /// Snapshots of every retained job, ascending by id.
    fn scan(&self) -> Vec<JobView>;

    /// Lifetime counters.
    fn counters(&self) -> StoreCounters;

    /// Persists a batch of new `Queued` records in one call, returning
    /// their ids in order. Semantically identical to calling
    /// [`JobStore::submit`] per item; durable implementations override
    /// this to pay one flush + fsync for the whole batch instead of one
    /// per record.
    fn submit_batch(&self, items: &[(JobSpec, SpecHash)]) -> Vec<u64> {
        items
            .iter()
            .map(|(spec, hash)| self.submit(spec, hash))
            .collect()
    }

    /// Applies a batch of state changes in one call, returning each
    /// job's status after its transition (in input order). Semantically
    /// identical to calling [`JobStore::transition`] per item; durable
    /// implementations override this to batch the log appends from a
    /// dispatcher's merge path into one flush + fsync per drain.
    fn transition_batch(&self, items: Vec<(u64, Transition)>) -> Vec<Option<JobStatus>> {
        items
            .into_iter()
            .map(|(id, t)| self.transition(id, t))
            .collect()
    }

    /// Ids of jobs that were queued or running when the store was
    /// opened and must be re-dispatched (ascending; the durable store
    /// resets interrupted `Running` jobs to `Queued` on replay). Drained
    /// once, at manager construction.
    fn recover_queued(&self) -> Vec<u64> {
        Vec::new()
    }

    /// `"memory"` or `"disk"`, surfaced in `/stats`.
    fn kind(&self) -> &'static str;

    /// True once persistent I/O failure has flipped the store to
    /// read-only degraded mode: serving continues from memory + the
    /// artifact overlay, nothing further touches the disk, and
    /// `/healthz` reports `degraded`. Purely in-memory stores never
    /// degrade.
    fn degraded(&self) -> bool {
        false
    }
}

/// Records one artifact-cache probe on the process-wide registry
/// (`marioh_store_artifact_cache_{hits,misses}_total{kind=...}`).
/// Shared by every [`ArtifactStore`] implementation so cache telemetry
/// means the same thing for memory and disk backends.
pub(crate) fn record_cache_probe(kind: &'static str, hit: bool) {
    let name = if hit {
        "marioh_store_artifact_cache_hits_total"
    } else {
        "marioh_store_artifact_cache_misses_total"
    };
    marioh_obs::global()
        .counter_with(name, &[("kind", kind)])
        .inc();
}

/// Records bytes written for a freshly stored artifact
/// (`marioh_store_artifact_bytes_total{kind=...}`).
pub(crate) fn record_artifact_bytes(kind: &'static str, bytes: u64) {
    marioh_obs::global()
        .counter_with("marioh_store_artifact_bytes_total", &[("kind", kind)])
        .add(bytes);
}

/// Content-addressed storage of reconstruction results and trained
/// models.
///
/// Keys are [`SpecHash`]es — identical submissions share one slot, so
/// `put` on an existing key may overwrite (the content is identical by
/// construction) or keep the original; both are correct.
pub trait ArtifactStore: Send + Sync {
    /// Caches a job result under its spec hash.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] when the backing storage fails.
    fn put_result(&self, hash: &SpecHash, result: &Arc<JobResult>) -> Result<(), MariohError>;

    /// The cached result for a spec hash, if any.
    fn get_result(&self, hash: &SpecHash) -> Option<Arc<JobResult>>;

    /// Cheap presence probe: never a false negative for a result that
    /// [`ArtifactStore::get_result`] would find, and no decode (the
    /// disk store answers a miss from its in-memory artifact index and
    /// a hit with one file stat). Dispatch lookaside
    /// paths call this first so the common cache-miss case skips the
    /// full artifact fetch and decode.
    fn contains_result(&self, hash: &SpecHash) -> bool {
        self.get_result(hash).is_some()
    }

    /// Stores the model a job trained, keyed by the job's spec hash.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] when the backing storage fails.
    fn put_model(&self, hash: &SpecHash, model: &SavedModel) -> Result<(), MariohError>;

    /// The stored model for a spec hash, if any.
    fn get_model(&self, hash: &SpecHash) -> Option<SavedModel>;

    /// Saves a model under a name (see
    /// [`crate::spec::validate_model_name`]).
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`] for invalid names, [`MariohError::Io`]
    /// when the backing storage fails.
    fn put_named_model(&self, name: &str, model: &SavedModel) -> Result<(), MariohError>;

    /// The named model, if any.
    fn get_named_model(&self, name: &str) -> Option<SavedModel>;

    /// Every stored model (named and job-derived), names first, sorted.
    fn list_models(&self) -> Vec<ModelEntry>;

    /// Counts of cached artifacts.
    fn artifact_stats(&self) -> ArtifactStats;
}

/// One job record as the stores keep it.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    /// Taken (not cloned) by [`JobStore::start`]; dropped on
    /// cancellation.
    pub spec: Option<JobSpec>,
    pub hash: SpecHash,
    pub status: JobStatus,
    pub rounds: usize,
    pub committed: usize,
    pub error: Option<String>,
    /// Shared, not cloned, on reads. On the disk store every done
    /// record of one spec holds the same decoded result: cache hits and
    /// lazy loads hand out the copy a record already holds (its
    /// live-result index), so a resubmit adds a pointer, not a
    /// hypergraph. The disk store leaves this `None` for replayed `Done`
    /// records until their first read; the memory store always leaves
    /// it `None` and decodes its artifact.
    pub result: Option<Arc<JobResult>>,
    pub cached: bool,
}

impl Record {
    /// Rough snapshot-encoded size of a terminal record (fixed framing
    /// plus the only unbounded field it retains, the error/note text) —
    /// the unit the byte-budget retention policy accounts in. A done
    /// record's result is not counted: it is its artifact's one shared
    /// decoded copy, which the artifact budget accounts for once.
    pub(crate) fn estimated_bytes(&self) -> u64 {
        128 + self.error.as_ref().map_or(0, |e| e.len() as u64)
    }

    pub(crate) fn queued(spec: JobSpec, hash: SpecHash) -> Record {
        Record {
            spec: Some(spec),
            hash,
            status: JobStatus::Queued,
            rounds: 0,
            committed: 0,
            error: None,
            result: None,
            cached: false,
        }
    }

    /// A cache hit: done and cached on arrival, with no spec.
    pub(crate) fn hit(hash: SpecHash, result: Option<Arc<JobResult>>) -> Record {
        Record {
            spec: None,
            hash,
            status: JobStatus::Done,
            rounds: 0,
            committed: 0,
            error: None,
            result,
            cached: true,
        }
    }
}

/// The record bookkeeping shared by the memory and disk stores: id
/// allocation, the record map, terminal-order retention, and counters.
#[derive(Debug, Clone)]
pub(crate) struct RecordTable {
    next_id: u64,
    jobs: HashMap<u64, Record>,
    /// Terminal job ids in completion order with their estimated
    /// retained size, for retention eviction.
    terminal_order: VecDeque<(u64, u64)>,
    submitted: u64,
    finished: u64,
    retain: usize,
    /// Optional byte ceiling for retained terminal records — the
    /// record-table slice of `--store-budget`. Evicts oldest-first like
    /// the count cap, but never below [`MIN_RETAINED_JOBS`].
    record_budget: Option<u64>,
    terminal_bytes: u64,
}

/// Floor under byte-budget eviction: even the tightest `--store-budget`
/// keeps this many terminal records pollable.
pub(crate) const MIN_RETAINED_JOBS: usize = 16;

impl RecordTable {
    pub(crate) fn new(retain: usize) -> RecordTable {
        RecordTable {
            next_id: 1,
            jobs: HashMap::new(),
            terminal_order: VecDeque::new(),
            submitted: 0,
            finished: 0,
            retain,
            record_budget: None,
            terminal_bytes: 0,
        }
    }

    /// Folds terminal-record retention into a size-aware policy: on top
    /// of the `retain` count cap, evict oldest terminal records while
    /// their estimated bytes exceed `budget`.
    pub(crate) fn set_record_budget(&mut self, budget: Option<u64>) {
        self.record_budget = budget;
    }

    pub(crate) fn submit(&mut self, spec: JobSpec, hash: SpecHash) -> u64 {
        let id = self.next_id;
        self.insert_with_id(id, Record::queued(spec, hash));
        id
    }

    /// Inserts a [`Record::hit`] under the next id; it counts as both
    /// submitted and finished.
    pub(crate) fn submit_hit(&mut self, hash: SpecHash, result: Option<Arc<JobResult>>) -> u64 {
        let id = self.next_id;
        self.insert_with_id(id, Record::hit(hash, result));
        id
    }

    /// Inserts a record under an explicit id (log replay), keeping
    /// `next_id` ahead of every id seen.
    pub(crate) fn insert_with_id(&mut self, id: u64, record: Record) {
        let terminal = record.status.is_terminal();
        self.jobs.insert(id, record);
        self.next_id = self.next_id.max(id + 1);
        self.submitted += 1;
        if terminal {
            self.note_terminal(id);
        }
    }

    pub(crate) fn start(&mut self, id: u64) -> Option<JobSpec> {
        let record = self.jobs.get_mut(&id)?;
        if record.status != JobStatus::Queued {
            return None;
        }
        // Clone rather than take: the table's copy is what a compaction
        // snapshot persists, and a crash mid-run must requeue this job
        // with its spec intact. The duplicate lives only while the job
        // runs — terminal transitions drop it.
        let spec = record.spec.clone()?;
        record.status = JobStatus::Running;
        Some(spec)
    }

    /// Applies a transition; terminal records are immutable (the call
    /// reports their status and changes nothing).
    pub(crate) fn transition(&mut self, id: u64, t: Transition) -> Option<JobStatus> {
        let record = self.jobs.get_mut(&id)?;
        if record.status.is_terminal() {
            return Some(record.status);
        }
        match t {
            Transition::Start => {
                record.status = JobStatus::Running;
            }
            Transition::Progress { rounds, committed } => {
                if let Some(rounds) = rounds {
                    record.rounds = record.rounds.max(rounds);
                }
                if let Some(committed) = committed {
                    record.committed = committed;
                }
            }
            Transition::Note(msg) => {
                record.error = Some(msg);
            }
            Transition::Done { result, cached } => {
                record.status = JobStatus::Done;
                record.result = Some(result);
                record.cached = cached;
                record.spec = None;
                self.note_terminal(id);
            }
            Transition::Failed(msg) => {
                record.status = JobStatus::Failed;
                // The worker's `on_error` observer usually got here
                // first; keep its message rather than overwriting.
                record.error.get_or_insert(msg);
                record.spec = None;
                self.note_terminal(id);
            }
            Transition::Cancelled => {
                record.status = JobStatus::Cancelled;
                // A cancelled-while-queued spec (possibly a multi-MB
                // uploaded hypergraph) would otherwise sit in the
                // retained record.
                record.spec = None;
                self.note_terminal(id);
            }
        }
        self.jobs.get(&id).map(|r| r.status)
    }

    /// Counts a job that just reached a terminal state and evicts the
    /// oldest terminal records beyond the retention cap — by count
    /// (`retain`) and, when a record budget is set, by estimated bytes.
    fn note_terminal(&mut self, id: u64) {
        self.finished += 1;
        let bytes = self.jobs.get(&id).map_or(0, Record::estimated_bytes);
        self.terminal_order.push_back((id, bytes));
        self.terminal_bytes += bytes;
        while self.terminal_order.len() > self.retain || self.over_record_budget() {
            let Some((evicted, evicted_bytes)) = self.terminal_order.pop_front() else {
                break;
            };
            self.jobs.remove(&evicted);
            self.terminal_bytes -= evicted_bytes;
        }
    }

    fn over_record_budget(&self) -> bool {
        match self.record_budget {
            Some(budget) => {
                self.terminal_bytes > budget && self.terminal_order.len() > MIN_RETAINED_JOBS
            }
            None => false,
        }
    }

    pub(crate) fn view(&self, id: u64) -> Option<JobView> {
        let record = self.jobs.get(&id)?;
        Some(JobView {
            id,
            status: record.status,
            rounds: record.rounds,
            committed: record.committed,
            error: record.error.clone(),
            cached: record.cached,
        })
    }

    pub(crate) fn get(&self, id: u64) -> Option<&Record> {
        self.jobs.get(&id)
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut Record> {
        self.jobs.get_mut(&id)
    }

    pub(crate) fn scan(&self) -> Vec<JobView> {
        let mut ids: Vec<u64> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().filter_map(|id| self.view(id)).collect()
    }

    pub(crate) fn counters(&self) -> StoreCounters {
        StoreCounters {
            submitted: self.submitted,
            finished: self.finished,
        }
    }

    /// Terminal ids in completion order (snapshot writing).
    pub(crate) fn terminal_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.terminal_order.iter().map(|(id, _)| *id)
    }

    /// Overrides the lifetime counters with a snapshot's authoritative
    /// values (per-insert counting misses records evicted before the
    /// snapshot was taken).
    pub(crate) fn set_counters(&mut self, counters: StoreCounters) {
        self.submitted = counters.submitted;
        self.finished = counters.finished;
    }

    /// Marks a record `Done` without a result in memory: the store reads
    /// the artifact by spec hash instead (the durable store for replayed
    /// records, the memory store for every record).
    pub(crate) fn mark_done_by_hash(&mut self, id: u64, cached: bool) {
        let Some(record) = self.jobs.get_mut(&id) else {
            return;
        };
        if record.status.is_terminal() {
            return;
        }
        record.status = JobStatus::Done;
        record.cached = cached;
        record.spec = None;
        self.note_terminal(id);
    }

    /// All queued ids, ascending (recovery after replay).
    pub(crate) fn queued_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, r)| r.status == JobStatus::Queued)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Resets interrupted `Running` records to `Queued` (replay: their
    /// worker died with the process).
    pub(crate) fn requeue_running(&mut self) {
        for record in self.jobs.values_mut() {
            if record.status == JobStatus::Running {
                record.status = JobStatus::Queued;
            }
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&u64, &Record)> {
        self.jobs.iter()
    }
}

/// In-memory artifacts. Results are held as the compressed container
/// bytes the disk store writes, so retained memory tracks the encoded
/// size rather than throughput; models are paired with their encoded
/// size so [`ArtifactStore::artifact_stats`] reports byte totals
/// consistent with the disk backend.
#[derive(Default)]
struct MemoryArtifacts {
    results: HashMap<SpecHash, Arc<[u8]>>,
    models: HashMap<SpecHash, (SavedModel, u64)>,
    named: std::collections::BTreeMap<String, (SavedModel, u64)>,
}

fn encoded_model_len(model: &SavedModel) -> u64 {
    let mut buf = Vec::new();
    model.write_to(&mut buf).map_or(0, |()| buf.len() as u64)
}

/// The in-memory store: the original `JobManager` bookkeeping plus an
/// in-process artifact cache. Everything is lost when the process exits;
/// use `crate::disk::DiskStore` for durability.
pub struct MemoryStore {
    table: Mutex<RecordTable>,
    artifacts: Mutex<MemoryArtifacts>,
}

impl MemoryStore {
    /// A store retaining the given number of terminal records.
    pub fn new(retain: usize) -> MemoryStore {
        MemoryStore {
            table: Mutex::new(RecordTable::new(retain)),
            artifacts: Mutex::new(MemoryArtifacts::default()),
        }
    }

    fn table(&self) -> std::sync::MutexGuard<'_, RecordTable> {
        self.table.lock().expect("job store lock poisoned")
    }

    fn artifacts(&self) -> std::sync::MutexGuard<'_, MemoryArtifacts> {
        self.artifacts.lock().expect("artifact store lock poisoned")
    }

    /// The encoded result cached under `hash`, decoded outside the lock.
    fn decode_result(&self, hash: &SpecHash) -> Option<Arc<JobResult>> {
        let bytes = self.artifacts().results.get(hash).cloned()?;
        let result = crate::disk::decode_result(&bytes).expect("memory store encoded this result");
        Some(Arc::new(result))
    }
}

impl Default for MemoryStore {
    fn default() -> Self {
        MemoryStore::new(DEFAULT_RETAINED_JOBS)
    }
}

impl JobStore for MemoryStore {
    fn submit(&self, spec: &JobSpec, hash: &SpecHash) -> u64 {
        self.table().submit(spec.clone(), *hash)
    }

    fn submit_hits(&self, hits: Vec<(SpecHash, Arc<JobResult>)>) -> Vec<u64> {
        hits.into_iter()
            .map(|(hash, result)| {
                // As for `Done`: the record reads the cached artifact,
                // which the hit came from (stored here if it did not).
                self.put_result(&hash, &result)
                    .expect("memory store put cannot fail");
                self.table().submit_hit(hash, None)
            })
            .collect()
    }

    fn start(&self, id: u64) -> Option<JobSpec> {
        self.table().start(id)
    }

    fn transition(&self, id: u64, t: Transition) -> Option<JobStatus> {
        let Transition::Done { result, cached } = t else {
            return self.table().transition(id, t);
        };
        // The record keeps no decoded result: `result` reads the cached
        // artifact. Callers store it first (`put_result`, or it came from
        // `get_result`); one that did not gets it stored here, so a
        // `Done` record always has its bytes.
        let hash = self.table().get(id)?.hash;
        self.put_result(&hash, &result)
            .expect("memory store put cannot fail");
        let mut table = self.table();
        table.mark_done_by_hash(id, cached);
        table.get(id).map(|r| r.status)
    }

    fn view(&self, id: u64) -> Option<JobView> {
        self.table().view(id)
    }

    fn result(&self, id: u64) -> Option<(JobStatus, Option<Arc<JobResult>>)> {
        let (status, hash) = {
            let table = self.table();
            let record = table.get(id)?;
            (record.status, record.hash)
        };
        let result = match status {
            JobStatus::Done => self.decode_result(&hash),
            _ => None,
        };
        Some((status, result))
    }

    fn spec_hash(&self, id: u64) -> Option<SpecHash> {
        self.table().get(id).map(|r| r.hash)
    }

    fn scan(&self) -> Vec<JobView> {
        self.table().scan()
    }

    fn counters(&self) -> StoreCounters {
        self.table().counters()
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

impl ArtifactStore for MemoryStore {
    fn put_result(&self, hash: &SpecHash, result: &Arc<JobResult>) -> Result<(), MariohError> {
        if !self.artifacts().results.contains_key(hash) {
            let encoded = crate::disk::encode_result_container(result);
            self.artifacts()
                .results
                .entry(*hash)
                .or_insert_with(|| encoded.into());
        }
        Ok(())
    }

    fn get_result(&self, hash: &SpecHash) -> Option<Arc<JobResult>> {
        let found = self.decode_result(hash);
        record_cache_probe("result", found.is_some());
        found
    }

    fn contains_result(&self, hash: &SpecHash) -> bool {
        self.artifacts().results.contains_key(hash)
    }

    fn put_model(&self, hash: &SpecHash, model: &SavedModel) -> Result<(), MariohError> {
        let mut artifacts = self.artifacts();
        if !artifacts.models.contains_key(hash) {
            let bytes = encoded_model_len(model);
            artifacts.models.insert(*hash, (model.clone(), bytes));
        }
        Ok(())
    }

    fn get_model(&self, hash: &SpecHash) -> Option<SavedModel> {
        let found = self.artifacts().models.get(hash).map(|(m, _)| m.clone());
        record_cache_probe("model", found.is_some());
        found
    }

    fn put_named_model(&self, name: &str, model: &SavedModel) -> Result<(), MariohError> {
        crate::spec::validate_model_name(name).map_err(MariohError::Config)?;
        let bytes = encoded_model_len(model);
        self.artifacts()
            .named
            .insert(name.to_owned(), (model.clone(), bytes));
        Ok(())
    }

    fn get_named_model(&self, name: &str) -> Option<SavedModel> {
        self.artifacts().named.get(name).map(|(m, _)| m.clone())
    }

    fn list_models(&self) -> Vec<ModelEntry> {
        let artifacts = self.artifacts();
        let mut out: Vec<ModelEntry> = artifacts
            .named
            .iter()
            .map(|(name, (m, _))| ModelEntry {
                name: Some(name.clone()),
                hash: None,
                mode: m.model.feature_mode().tag().to_owned(),
            })
            .collect();
        let mut hashed: Vec<(&SpecHash, &(SavedModel, u64))> = artifacts.models.iter().collect();
        hashed.sort_by_key(|(h, _)| **h);
        out.extend(hashed.into_iter().map(|(h, (m, _))| ModelEntry {
            name: None,
            hash: Some(*h),
            mode: m.model.feature_mode().tag().to_owned(),
        }));
        out
    }

    fn artifact_stats(&self) -> ArtifactStats {
        let artifacts = self.artifacts();
        ArtifactStats {
            results: artifacts.results.len(),
            models: artifacts.models.len() + artifacts.named.len(),
            result_bytes: artifacts.results.values().map(|b| b.len() as u64).sum(),
            model_bytes: artifacts.models.values().map(|(_, b)| b).sum::<u64>()
                + artifacts.named.values().map(|(_, b)| b).sum::<u64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn spec(body: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(body).unwrap()).unwrap()
    }

    fn submit(store: &MemoryStore, body: &str) -> u64 {
        let s = spec(body);
        let hash = s.content_hash().unwrap();
        store.submit(&s, &hash)
    }

    #[test]
    fn lifecycle_and_terminal_immutability() {
        let store = MemoryStore::new(8);
        let id = submit(&store, r#"{"dataset": "Hosts"}"#);
        assert_eq!(store.view(id).unwrap().status, JobStatus::Queued);
        let taken = store.start(id).expect("spec taken once");
        assert!(matches!(taken.input, crate::spec::JobInput::Dataset { .. }));
        assert!(store.start(id).is_none(), "spec is taken, not cloned");
        store.transition(
            id,
            Transition::Progress {
                rounds: Some(3),
                committed: Some(17),
            },
        );
        store.transition(id, Transition::Cancelled);
        // A worker's late failure cannot resurrect a cancelled job...
        let status = store.transition(id, Transition::Failed("late".into()));
        assert_eq!(status, Some(JobStatus::Cancelled));
        // ...and the job was counted terminal exactly once.
        assert_eq!(store.counters().finished, 1);
        let view = store.view(id).unwrap();
        assert_eq!((view.rounds, view.committed), (3, 17));
    }

    #[test]
    fn retention_evicts_oldest_terminal_records() {
        let store = MemoryStore::new(3);
        let ids: Vec<u64> = (0..5)
            .map(|_| {
                let id = submit(&store, r#"{"dataset": "Hosts"}"#);
                store.start(id).unwrap();
                store.transition(id, Transition::Failed("boom".into()));
                id
            })
            .collect();
        for old in &ids[..2] {
            assert!(store.view(*old).is_none());
            assert!(store.result(*old).is_none());
        }
        for recent in &ids[2..] {
            assert_eq!(store.view(*recent).unwrap().status, JobStatus::Failed);
        }
        assert_eq!(store.counters().finished, 5);
        assert_eq!(store.scan().len(), 3);
    }

    #[test]
    fn artifact_cache_stores_results_and_models() {
        use marioh_hypergraph::hyperedge::edge;
        let store = MemoryStore::default();
        let s = spec(r#"{"dataset": "Hosts", "seed": 4}"#);
        let hash = s.content_hash().unwrap();
        assert!(store.get_result(&hash).is_none());
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        let result = Arc::new(JobResult {
            reconstruction: h,
            jaccard: 0.75,
        });
        store.put_result(&hash, &result).unwrap();
        let cached = store.get_result(&hash).unwrap();
        assert_eq!(cached.jaccard, 0.75);
        assert_eq!(store.artifact_stats().results, 1);
        assert!(store.put_named_model("bad/name", &dummy_model()).is_err());
        store.put_named_model("good-name", &dummy_model()).unwrap();
        assert!(store.get_named_model("good-name").is_some());
        assert_eq!(store.artifact_stats().models, 1);
        let listed = store.list_models();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name.as_deref(), Some("good-name"));
    }

    #[test]
    fn done_records_hold_no_decoded_result() {
        use marioh_hypergraph::hyperedge::edge;
        let store = MemoryStore::default();
        let id = submit(&store, r#"{"dataset": "Hosts", "seed": 9}"#);
        let hash = store.spec_hash(id).unwrap();
        store.start(id).unwrap();
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[2, 3]));
        let result = Arc::new(JobResult {
            reconstruction: h,
            jaccard: 0.5,
        });
        store.put_result(&hash, &result).unwrap();
        let status = store.transition(
            id,
            Transition::Done {
                result: Arc::clone(&result),
                cached: false,
            },
        );
        assert_eq!(status, Some(JobStatus::Done));
        assert_eq!(
            Arc::strong_count(&result),
            1,
            "the store kept a decoded copy"
        );
        let (status, served) = store.result(id).unwrap();
        assert_eq!(status, JobStatus::Done);
        let served = served.expect("done job serves its result");
        assert_eq!(served.reconstruction, result.reconstruction);
        assert_eq!(served.jaccard.to_bits(), result.jaccard.to_bits());
        assert_eq!(
            store.artifact_stats().result_bytes,
            crate::disk::encode_result_container(&result).len() as u64
        );
    }

    fn dummy_model() -> SavedModel {
        use marioh_core::training::{train_classifier, TrainingConfig};
        use marioh_hypergraph::hyperedge::edge;
        use rand::{rngs::StdRng, SeedableRng};
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        for b in 0..12u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
            h.add_edge(edge(&[b * 3, b * 3 + 1]));
        }
        let mut rng = StdRng::seed_from_u64(0);
        SavedModel::bare(train_classifier(&h, &TrainingConfig::default(), &mut rng))
    }
}
