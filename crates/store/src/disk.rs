//! The durable store: a segmented, CRC-framed WAL + snapshot for job
//! records, and content-addressed compressed artifact files for results
//! and models, tracked by an in-memory artifact index.
//!
//! # Layout (under `--state-dir`)
//!
//! ```text
//! <state-dir>/
//!   VERSION                         "marioh-store v3"
//!   jobs.snapshot                   compacted state + WAL watermark
//!   wal/
//!     seg-<first-seq>.wal           CRC-framed record segments
//!   artifacts/
//!     results/<spec-hash>.result    cached reconstructions (compressed)
//!     models/<spec-hash>.model      models trained by jobs (compressed)
//!     models/named/<name>.model     models saved by name
//! ```
//!
//! Every state change appends one framed record to the tail WAL segment
//! and flushes, so a killed process loses at most work in flight, never
//! acknowledged records. Segments rotate at a byte cap
//! (`MARIOH_STORE_SEGMENT_BYTES`); a background compactor folds sealed
//! segments into a fresh snapshot and retires them, so replay cost is
//! bounded by the segment cap times the seal threshold, not by history.
//! The snapshot carries a **sequence watermark**: replay skips records
//! the snapshot already folded in, which makes compaction's
//! snapshot-then-retire protocol crash-safe at every interleaving (the
//! `store.compact` fault site scripts those crashes deterministically).
//!
//! Result artifacts are written **before** the `done` record is logged,
//! so a replayed `done` can always lazily load its result; the reverse
//! crash order merely leaves an orphan artifact that the next identical
//! submission reuses.
//!
//! # Indexed probes, compression, eviction
//!
//! Artifact cache probes ask the in-memory artifact index first — the
//! same map that drives eviction and the byte totals, rebuilt at open
//! from the snapshot and WAL replay. A key it does not hold is a
//! definitive negative — the common case on a fresh corpus — answered
//! without touching disk; a key it holds is confirmed on disk, and an
//! entry whose file is gone (an eviction record lost to a crash) is
//! dropped there. The `marioh_store_filter_*` counters count these
//! answers. Artifacts are stored as compressed containers
//! ([`crate::compress`]); v1 plain files are still read transparently.
//! A byte budget ([`StoreTuning::budget`]) drives least-recently-used
//! eviction across result and model artifacts, with terminal job
//! records folded into the same policy via the record table's byte cap.
//!
//! A result artifact is decoded at most once while anyone holds it: a
//! live-result index (hash → `Weak`) hands every later cache hit and
//! lazy record load the copy already in memory, after the same index
//! and presence checks, so retained records of one spec share one
//! hypergraph.
//!
//! # Degraded mode
//!
//! Disk failures must not take serving down: artifact writes retry
//! with bounded backoff, and persistent failure (or a run of
//! consecutive WAL-write failures) flips the store into **read-only
//! degraded mode** — nothing further touches the disk, new artifacts
//! land in an in-memory overlay, the job table stays authoritative,
//! and [`JobStore::degraded`] reports the state for `/healthz`. The
//! write paths carry `marioh-fault` sites (`store.append`,
//! `store.fsync`, `store.artifact`, `store.compact`) so chaos runs can
//! force these transitions deterministically.
//!
//! Changing [`STORE_FORMAT_VERSION`] is an on-disk format change: add a
//! migration note to `crates/store/FORMATS.md` (CI and a unit test fail
//! otherwise). v1 state dirs migrate in place at open: the legacy
//! `jobs.log` is replayed once, the artifact index is seeded from a
//! directory scan, and a snapshot replaces both. v2 dirs open as they
//! are; only their `VERSION` is rewritten. A writer open also deletes
//! the `wal/*.filter` files older builds wrote next to their segments.

use crate::compress;
use crate::hash::SpecHash;
use crate::json::Json;
use crate::segment::{
    parse_segment_file_name, read_segment, segment_file_name, SegmentWriter, FRAME_OVERHEAD,
    SEGMENT_HEADER_LEN,
};
use crate::spec::{JobResult, JobSpec, JobStatus, JobView, Transition};
use crate::store::{
    ArtifactStats, ArtifactStore, JobStore, ModelEntry, Record, RecordTable, StoreCounters,
    DEFAULT_RETAINED_JOBS,
};
use marioh_core::{MariohError, SavedModel};
use marioh_hypergraph::io as hio;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

/// Version of the on-disk store format, written into `VERSION` and the
/// snapshot header. Opening a state dir written by a *newer* version is
/// refused with a clear error; v1 and v2 dirs are migrated in place at
/// open.
///
/// Bumping this constant requires a migration note in
/// `crates/store/FORMATS.md`.
pub const STORE_FORMAT_VERSION: u32 = 3;

/// The tag v1 stores wrote into `VERSION`; still accepted (and
/// migrated) at open.
const V1_TAG: &str = "marioh-store v1";

/// The tag v2 stores wrote into `VERSION` and their snapshot header. A
/// v2 dir is a v3 dir that has never logged a `hit` record, so opening
/// one only rewrites `VERSION`.
const V2_TAG: &str = "marioh-store v2";

/// Version of the logical result encoding ([`encode_result`]'s
/// `marioh-result vN` header). Unchanged since store v2: store v3 only
/// added a WAL record type.
///
/// Bumping this constant requires a migration note in
/// `crates/store/FORMATS.md`.
pub(crate) const RESULT_FORMAT_VERSION: u32 = 2;

/// Header line of a compressed result container; the body is one
/// [`compress`] block holding exactly the [`encode_result`] bytes.
const RESULT_CONTAINER: &str = "marioh-result-z v2";

/// Header line of a compressed model container; the body is one
/// [`compress`] block holding exactly the [`SavedModel::write_to`]
/// bytes.
const MODEL_CONTAINER: &str = "marioh-model-z v1";

/// Default byte cap per WAL segment before rotation.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Default sealed-segment count that wakes the background compactor.
pub const DEFAULT_COMPACT_SEALED: usize = 4;

fn format_tag() -> String {
    format!("marioh-store v{STORE_FORMAT_VERSION}")
}

fn corrupt(msg: impl Into<String>) -> MariohError {
    MariohError::Config(msg.into())
}

/// Consecutive WAL write failures tolerated before the store gives up
/// on the disk and flips to read-only degraded mode.
const LOG_FAILURE_LIMIT: u32 = 3;

/// Attempts per artifact write (first try + retries with doubling
/// backoff) before the failure is treated as persistent.
const ARTIFACT_WRITE_ATTEMPTS: u32 = 3;

/// Backoff before the first artifact-write retry; doubles per attempt.
const ARTIFACT_RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Tuning knobs for [`DiskStore::open_tuned`]. `new` reads the
/// environment overrides (`MARIOH_STORE_SEGMENT_BYTES`,
/// `MARIOH_STORE_COMPACT_SEGMENTS`) so child processes in end-to-end
/// tests can shrink segments without plumbing flags everywhere.
#[derive(Debug, Clone)]
pub struct StoreTuning {
    /// Terminal job records kept in memory and the snapshot (count cap).
    pub retain: usize,
    /// Optional artifact byte budget; exceeding it evicts
    /// least-recently-used artifacts. One eighth of it also caps the
    /// bytes held by retained terminal records.
    pub budget: Option<u64>,
    /// Byte cap per WAL segment before rotation.
    pub segment_bytes: u64,
    /// Sealed-segment count that wakes the background compactor.
    pub compact_sealed: usize,
    /// Spawn the background compaction thread (tests and benches turn
    /// this off and drive [`DiskStore::compact_now`] directly).
    pub auto_compact: bool,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl StoreTuning {
    /// Defaults plus environment overrides.
    pub fn new(retain: usize) -> StoreTuning {
        StoreTuning {
            retain,
            budget: None,
            segment_bytes: env_u64("MARIOH_STORE_SEGMENT_BYTES")
                .unwrap_or(DEFAULT_SEGMENT_BYTES)
                .max(SEGMENT_HEADER_LEN as u64 + 1),
            compact_sealed: env_u64("MARIOH_STORE_COMPACT_SEGMENTS")
                .unwrap_or(DEFAULT_COMPACT_SEALED as u64)
                .max(1) as usize,
            auto_compact: true,
        }
    }
}

/// Artifact kinds tracked by the size-aware index. Named models are
/// outside the budget (explicit exports should not silently vanish).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArtifactKind {
    Result,
    Model,
}

impl ArtifactKind {
    fn tag(self) -> &'static str {
        match self {
            ArtifactKind::Result => "result",
            ArtifactKind::Model => "model",
        }
    }

    fn from_tag(tag: &str) -> Option<ArtifactKind> {
        match tag {
            "result" => Some(ArtifactKind::Result),
            "model" => Some(ArtifactKind::Model),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct ArtEntry {
    bytes: u64,
    tick: u64,
}

/// The in-memory artifact index: what is on disk, how big it is
/// encoded, and in what recency order — the eviction policy's whole
/// world, and the exact membership test every cache probe asks before
/// disk. Rebuilt at open from the snapshot's `art` records plus WAL
/// replay.
#[derive(Debug, Default, Clone)]
struct ArtState {
    index: HashMap<(SpecHash, ArtifactKind), ArtEntry>,
    /// `tick -> key`, oldest first; ticks are unique.
    lru: BTreeMap<u64, (SpecHash, ArtifactKind)>,
    next_tick: u64,
    result_bytes: u64,
    model_bytes: u64,
}

impl ArtState {
    fn bytes_mut(&mut self, kind: ArtifactKind) -> &mut u64 {
        match kind {
            ArtifactKind::Result => &mut self.result_bytes,
            ArtifactKind::Model => &mut self.model_bytes,
        }
    }

    fn insert(&mut self, hash: SpecHash, kind: ArtifactKind, bytes: u64) {
        self.remove(hash, kind);
        let tick = self.next_tick;
        self.next_tick += 1;
        self.index.insert((hash, kind), ArtEntry { bytes, tick });
        self.lru.insert(tick, (hash, kind));
        *self.bytes_mut(kind) += bytes;
    }

    fn remove(&mut self, hash: SpecHash, kind: ArtifactKind) -> Option<u64> {
        let entry = self.index.remove(&(hash, kind))?;
        self.lru.remove(&entry.tick);
        *self.bytes_mut(kind) -= entry.bytes;
        Some(entry.bytes)
    }

    fn touch(&mut self, hash: SpecHash, kind: ArtifactKind) {
        if let Some(entry) = self.index.get_mut(&(hash, kind)) {
            self.lru.remove(&entry.tick);
            entry.tick = self.next_tick;
            self.next_tick += 1;
            self.lru.insert(entry.tick, (hash, kind));
        }
    }

    fn pop_oldest(&mut self) -> Option<(SpecHash, ArtifactKind, u64)> {
        let (&tick, &(hash, kind)) = self.lru.iter().next()?;
        self.lru.remove(&tick);
        let entry = self.index.remove(&(hash, kind)).expect("lru/index in sync");
        *self.bytes_mut(kind) -= entry.bytes;
        Some((hash, kind, entry.bytes))
    }

    fn total_bytes(&self) -> u64 {
        self.result_bytes + self.model_bytes
    }

    fn count(&self, kind: ArtifactKind) -> usize {
        self.index.keys().filter(|(_, k)| *k == kind).count()
    }
}

/// A sealed (no longer appended-to) WAL segment.
#[derive(Debug, Clone)]
struct SealedSegment {
    first_seq: u64,
    last_seq: u64,
}

struct DiskInner {
    table: RecordTable,
    /// The tail segment writer; `None` in read-only mode (appends
    /// become no-ops, like degraded mode).
    wal: Option<SegmentWriter>,
    sealed: Vec<SealedSegment>,
    /// Consecutive WAL write/flush failures; one success resets it,
    /// [`LOG_FAILURE_LIMIT`] in a row flips degraded mode.
    log_failures: u32,
    degraded: Arc<AtomicBool>,
}

/// Artifacts accepted while the disk was unwritable (or the store is
/// read-only). Serving stays correct from this overlay + the in-memory
/// job table; the entries die with the process, exactly like
/// [`crate::store::MemoryStore`] data.
#[derive(Debug, Default)]
struct ArtifactOverlay {
    results: HashMap<SpecHash, Arc<JobResult>>,
    models: HashMap<SpecHash, SavedModel>,
    named: HashMap<String, SavedModel>,
}

#[derive(Default)]
struct CompactSignal {
    wake: bool,
    shutdown: bool,
}

/// Everything the store and its background compactor share. The
/// compactor thread holds an `Arc<StoreCore>` (not the `DiskStore`), so
/// dropping the store can signal shutdown and join without a cycle.
///
/// Lock order: `inner`, `art` and `live` are each taken alone.
struct StoreCore {
    root: PathBuf,
    wal_dir: PathBuf,
    tuning: StoreTuning,
    read_only: bool,
    inner: Mutex<DiskInner>,
    art: Mutex<ArtState>,
    /// Cleared by [`DiskStore::set_filter_enabled`]: every probe then
    /// goes to disk, whatever the index says.
    filter_enabled: AtomicBool,
    overlay: Mutex<ArtifactOverlay>,
    /// The live-result index: the one decoded copy of each on-disk
    /// result that some job record (or caller) still holds. It never
    /// keeps a result alive by itself, so it costs no budget; eviction
    /// drops an artifact's entry with it. Never held across I/O or a
    /// decode.
    live: Mutex<HashMap<SpecHash, Weak<JobResult>>>,
    /// Set once persistent I/O failure flips the store to read-only
    /// degraded mode; checked lock-free on every write path.
    degraded: Arc<AtomicBool>,
    compact_mx: Mutex<CompactSignal>,
    compact_cv: Condvar,
    /// Held (OS-level, advisory, exclusive) for the store's whole
    /// lifetime; the kernel releases it when the process dies, so a
    /// `kill -9` never leaves a stale lock behind. `None` for
    /// read-only opens, which must coexist with a live writer.
    _lock: Option<File>,
}

impl StoreCore {
    fn inner(&self) -> MutexGuard<'_, DiskInner> {
        self.inner.lock().expect("disk store lock poisoned")
    }

    fn art(&self) -> MutexGuard<'_, ArtState> {
        self.art.lock().expect("artifact index lock poisoned")
    }

    fn overlay(&self) -> MutexGuard<'_, ArtifactOverlay> {
        self.overlay.lock().expect("artifact overlay lock poisoned")
    }

    /// A map of `Weak` is consistent after every single step, so a
    /// panic elsewhere while it was held cannot leave it half-updated.
    fn live(&self) -> MutexGuard<'_, HashMap<SpecHash, Weak<JobResult>>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `result` as the shared copy of `hash`'s artifact,
    /// unless a live one is already registered; returns the copy
    /// callers should hold, so concurrent decodes converge on one.
    fn share_result(&self, hash: &SpecHash, result: Arc<JobResult>) -> Arc<JobResult> {
        let mut live = self.live();
        if let Some(existing) = live.get(hash).and_then(Weak::upgrade) {
            return existing;
        }
        live.insert(*hash, Arc::downgrade(&result));
        result
    }

    /// The stored result for `hash`: the shared copy when one is live,
    /// else a fresh decode of the artifact, registered for the next
    /// caller.
    fn load_result(&self, hash: &SpecHash) -> Result<Arc<JobResult>, MariohError> {
        if let Some(live) = self.live().get(hash).and_then(Weak::upgrade) {
            return Ok(live);
        }
        let decoded = read_result_file(&self.result_path(hash))?;
        Ok(self.share_result(hash, Arc::new(decoded)))
    }

    fn result_path(&self, hash: &SpecHash) -> PathBuf {
        self.root
            .join("artifacts")
            .join("results")
            .join(format!("{hash}.result"))
    }

    fn model_path(&self, hash: &SpecHash) -> PathBuf {
        self.root
            .join("artifacts")
            .join("models")
            .join(format!("{hash}.model"))
    }

    fn artifact_path(&self, hash: &SpecHash, kind: ArtifactKind) -> PathBuf {
        match kind {
            ArtifactKind::Result => self.result_path(hash),
            ArtifactKind::Model => self.model_path(hash),
        }
    }

    fn named_model_path(&self, name: &str) -> PathBuf {
        self.root
            .join("artifacts")
            .join("models")
            .join("named")
            .join(format!("{name}.model"))
    }
}

/// The durable job + artifact store. One instance owns a state dir;
/// share it across the job and artifact roles with an `Arc`.
pub struct DiskStore {
    core: Arc<StoreCore>,
    recovered: Mutex<Vec<u64>>,
    compactor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("root", &self.core.root)
            .field("read_only", &self.core.read_only)
            .finish_non_exhaustive()
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        let handle = self.compactor.lock().ok().and_then(|mut g| g.take());
        if let Some(handle) = handle {
            if let Ok(mut sig) = self.core.compact_mx.lock() {
                sig.shutdown = true;
            }
            self.core.compact_cv.notify_all();
            let _ = handle.join();
        }
        if let Ok(mut inner) = self.core.inner.lock() {
            if let Some(wal) = inner.wal.as_mut() {
                let _ = wal.flush();
            }
        }
    }
}

impl DiskStore {
    /// Opens (creating if absent) the store at `root` with default
    /// tuning, replaying the snapshot + WAL segments, re-queueing
    /// interrupted jobs, and migrating v1 state dirs in place.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] for filesystem failures,
    /// [`MariohError::Config`] for a state dir written by a newer
    /// format version, with corrupt records, or already locked by
    /// another process.
    pub fn open(root: impl Into<PathBuf>, retain: usize) -> Result<DiskStore, MariohError> {
        Self::open_tuned(root, StoreTuning::new(retain))
    }

    /// [`DiskStore::open`] with explicit [`StoreTuning`].
    ///
    /// # Errors
    ///
    /// As [`DiskStore::open`].
    pub fn open_tuned(
        root: impl Into<PathBuf>,
        tuning: StoreTuning,
    ) -> Result<DiskStore, MariohError> {
        Self::open_with_mode(root.into(), tuning, false)
    }

    /// Opens an existing store **read-only**, without taking the
    /// exclusive dir lock: no truncation, no migration, no snapshot or
    /// WAL writes, no compactor. Safe against a concurrent live writer
    /// because both WAL appends and artifact renames are
    /// prefix-ordered/atomic — a scan sees a consistent prefix, never a
    /// torn interior. Used by `marioh model export` against a running
    /// server's state dir.
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`] when no store exists at `root` or the
    /// format version is unreadable by this build.
    pub fn open_read_only(root: impl Into<PathBuf>) -> Result<DiskStore, MariohError> {
        Self::open_with_mode(root.into(), StoreTuning::new(DEFAULT_RETAINED_JOBS), true)
    }

    fn open_with_mode(
        root: PathBuf,
        tuning: StoreTuning,
        read_only: bool,
    ) -> Result<DiskStore, MariohError> {
        let wal_dir = root.join("wal");
        if !read_only {
            fs::create_dir_all(root.join("artifacts").join("results"))?;
            fs::create_dir_all(root.join("artifacts").join("models").join("named"))?;
            fs::create_dir_all(&wal_dir)?;
        }

        let lock = if read_only {
            None
        } else {
            let lock = File::create(root.join("LOCK"))?;
            if let Err(e) = lock.try_lock() {
                return Err(corrupt(format!(
                    "state dir {} is in use by another process ({e}); stop it first \
                     (the lock is released automatically when that process exits)",
                    root.display()
                )));
            }
            Some(lock)
        };

        let version_path = root.join("VERSION");
        let mut migrate_from_v1 = false;
        let mut migrate_from_v2 = false;
        match fs::read_to_string(&version_path) {
            Ok(existing) => {
                let existing = existing.trim();
                if existing == V1_TAG {
                    migrate_from_v1 = true;
                } else if existing == V2_TAG {
                    migrate_from_v2 = true;
                } else if existing != format_tag() {
                    return Err(corrupt(format!(
                        "state dir {} was written by {:?}; this build is {:?} — migrate it first \
                         (see crates/store/FORMATS.md)",
                        root.display(),
                        existing,
                        format_tag()
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if read_only {
                    return Err(corrupt(format!(
                        "no store at {} (read-only open does not create one)",
                        root.display()
                    )));
                }
                fs::write(&version_path, format!("{}\n", format_tag()))?;
            }
            Err(e) => return Err(MariohError::Io(e)),
        }

        let mut table = RecordTable::new(tuning.retain);
        table.set_record_budget(tuning.budget.map(|b| b / 8));
        let mut art = ArtState::default();

        let snapshot_path = root.join("jobs.snapshot");
        let snapshot_existed = snapshot_path.exists();
        let mut wal_seq = 0u64;
        if snapshot_existed {
            wal_seq = read_snapshot(&snapshot_path, &mut table, &mut art)?;
        }

        // A v1 `jobs.log` (including one left by a crash mid-migration)
        // replays once and is folded into the first v2 snapshot below.
        let legacy_log = root.join("jobs.log");
        let had_legacy_log = legacy_log.exists();
        if had_legacy_log {
            replay_legacy_log(&legacy_log, &mut table)?;
        }

        // Replay WAL segments in sequence order, skipping records the
        // snapshot watermark already covers and refusing any gap.
        let mut seg_seqs: Vec<u64> = match fs::read_dir(&wal_dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| parse_segment_file_name(e.file_name().to_str()?))
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(MariohError::Io(e)),
        };
        seg_seqs.sort_unstable();
        let mut sealed: Vec<SealedSegment> = Vec::new();
        let mut expected_next = wal_seq + 1;
        for first_seq in seg_seqs {
            let path = wal_dir.join(segment_file_name(first_seq));
            let scan = match read_segment(&path, first_seq) {
                Ok(scan) => scan,
                // A concurrent compactor may retire a segment between
                // our dir listing and the read; for a read-only opener
                // that is expected churn (the snapshot covers it).
                Err(_) if read_only && !path.exists() => continue,
                Err(e) => return Err(corrupt(e)),
            };
            for (seq, payload) in &scan.records {
                if *seq <= wal_seq {
                    continue; // already folded into the snapshot
                }
                if *seq != expected_next {
                    return Err(corrupt(format!(
                        "wal is missing sequence {expected_next}: segment {} jumps to {seq}",
                        path.display()
                    )));
                }
                let text = std::str::from_utf8(payload)
                    .map_err(|_| corrupt("wal record payload is not UTF-8"))?;
                let record = Json::parse(text)
                    .map_err(|e| corrupt(format!("corrupt wal record at seq {seq}: {e}")))?;
                apply_wal_record(&mut table, &mut art, &record)?;
                expected_next += 1;
            }
            if scan.records.is_empty() {
                // An empty shell (clean or torn before the first flush)
                // carries nothing; a writer clears it out of the way.
                if !read_only {
                    let _ = fs::remove_file(&path);
                }
                continue;
            }
            if scan.torn && !read_only {
                // Truncate the torn debris so this segment reads clean
                // once it is no longer the newest file.
                let valid_len: u64 = SEGMENT_HEADER_LEN as u64
                    + scan
                        .records
                        .iter()
                        .map(|(_, p)| (FRAME_OVERHEAD + p.len()) as u64)
                        .sum::<u64>();
                let file = fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len)?;
                file.sync_all()?;
            }
            sealed.push(SealedSegment {
                first_seq,
                last_seq: first_seq + scan.records.len() as u64 - 1,
            });
        }

        table.requeue_running();
        let recovered = table.queued_ids();

        if !read_only && (migrate_from_v1 || had_legacy_log || !snapshot_existed) {
            if migrate_from_v1 || had_legacy_log {
                seed_art_index_from_disk(&root, &mut art);
            }
            write_snapshot(&snapshot_path, &table, &art, expected_next - 1)?;
            fs::write(&version_path, format!("{}\n", format_tag()))?;
            if had_legacy_log {
                fs::remove_file(&legacy_log)?;
            }
        } else if !read_only && migrate_from_v2 {
            // Everything a v2 dir holds reads as v3. Stamping `VERSION`
            // before the first `hit` record can be logged is what makes
            // a v2 build refuse the dir from here on.
            fs::write(&version_path, format!("{}\n", format_tag()))?;
        }

        let degraded = Arc::new(AtomicBool::new(false));
        let wal = if read_only {
            None
        } else {
            Some(SegmentWriter::create(&wal_dir, expected_next)?)
        };

        if !read_only {
            remove_legacy_filter_files(&wal_dir);
        }

        marioh_obs::global()
            .gauge("marioh_store_segments")
            .set(sealed.len() as u64 + 1);

        let core = Arc::new(StoreCore {
            root,
            wal_dir,
            read_only,
            inner: Mutex::new(DiskInner {
                table,
                wal,
                sealed,
                log_failures: 0,
                degraded: Arc::clone(&degraded),
            }),
            art: Mutex::new(art),
            filter_enabled: AtomicBool::new(true),
            overlay: Mutex::new(ArtifactOverlay::default()),
            live: Mutex::new(HashMap::new()),
            degraded,
            compact_mx: Mutex::new(CompactSignal::default()),
            compact_cv: Condvar::new(),
            _lock: lock,
            tuning,
        });

        let store = DiskStore {
            core: Arc::clone(&core),
            recovered: Mutex::new(recovered),
            compactor: Mutex::new(None),
        };
        if !read_only && core.tuning.auto_compact {
            let thread_core = Arc::clone(&core);
            let handle = std::thread::Builder::new()
                .name("marioh-store-compact".into())
                .spawn(move || compactor_loop(thread_core))
                .map_err(MariohError::Io)?;
            *store.compactor.lock().expect("compactor handle lock") = Some(handle);
        }
        Ok(store)
    }

    fn is_degraded(&self) -> bool {
        self.core.degraded.load(Ordering::Relaxed)
    }

    /// The state directory this store owns.
    pub fn root(&self) -> &Path {
        &self.core.root
    }

    /// Runs one compaction synchronously: snapshot everything applied
    /// so far (with the WAL watermark) and retire fully-covered sealed
    /// segments. The background compactor calls this; tests and
    /// benches call it directly for determinism.
    ///
    /// # Errors
    ///
    /// [`MariohError::Io`] / [`MariohError::Config`] when the snapshot
    /// cannot be written; the WAL is left untouched in that case, so
    /// nothing is lost.
    pub fn compact_now(&self) -> Result<(), MariohError> {
        compact(&self.core)
    }

    /// Turns the index answer for cache probes on or off at runtime
    /// (benches measure the unfiltered floor this way). Disabled means
    /// every probe goes to disk, exactly the v1 behavior.
    pub fn set_filter_enabled(&self, enabled: bool) {
        self.core.filter_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Sealed (rotation-completed, not yet compacted) segment count.
    pub fn sealed_segments(&self) -> usize {
        self.core.inner().sealed.len()
    }
}

fn compactor_loop(core: Arc<StoreCore>) {
    loop {
        {
            let mut sig = core.compact_mx.lock().expect("compact signal lock");
            while !sig.wake && !sig.shutdown {
                sig = core.compact_cv.wait(sig).expect("compact signal wait");
            }
            if sig.shutdown {
                return;
            }
            sig.wake = false;
        }
        if let Err(e) = compact(&core) {
            eprintln!("marioh-store: compaction failed (will retry at next seal): {e}");
        }
    }
}

fn signal_compactor(core: &StoreCore) {
    if let Ok(mut sig) = core.compact_mx.lock() {
        sig.wake = true;
    }
    core.compact_cv.notify_all();
}

/// One `store.compact` fault-site operation. The site is hit twice per
/// compaction — once at entry, once between the snapshot rename and
/// segment retirement — so `store.compact:exit@nth:2` scripts a crash
/// at the protocol's most delicate interleaving.
fn compact_fault_op() -> Result<(), MariohError> {
    match marioh_fault::hit("store.compact") {
        Some(marioh_fault::Action::Exit) => std::process::exit(marioh_fault::EXIT_CODE),
        Some(marioh_fault::Action::Err) => {
            Err(MariohError::Io(marioh_fault::io_error("store.compact")))
        }
        Some(marioh_fault::Action::Stall(ms)) => {
            marioh_fault::stall(ms);
            Ok(())
        }
        _ => Ok(()),
    }
}

fn compact(core: &StoreCore) -> Result<(), MariohError> {
    if core.read_only || core.degraded.load(Ordering::Relaxed) {
        return Ok(());
    }
    compact_fault_op()?;
    let t0 = std::time::Instant::now();

    // Clone `inner` first, then `art`: an artifact put updates the
    // index *before* appending its WAL record, so every artifact whose
    // record seq is <= the watermark read here is already in the index
    // when we clone it below. (Extras in the art clone with seq > the
    // watermark are re-applied idempotently at replay.)
    let (upto, table, sealed_snapshot) = {
        let mut inner = core.inner();
        if let Some(wal) = inner.wal.as_mut() {
            if let Err(e) = wal.sync() {
                return Err(MariohError::Io(e));
            }
        }
        let upto = inner.wal.as_ref().map_or(0, |w| w.next_seq() - 1);
        (upto, inner.table.clone(), inner.sealed.clone())
    };
    let art = core.art().clone();

    write_snapshot(&core.root.join("jobs.snapshot"), &table, &art, upto)?;
    compact_fault_op()?;

    // The snapshot now covers every record <= upto, so segments wholly
    // below the watermark are dead weight; retire them.
    for s in sealed_snapshot.iter().filter(|s| s.last_seq <= upto) {
        let _ = fs::remove_file(core.wal_dir.join(segment_file_name(s.first_seq)));
    }
    let live_segments = {
        let mut inner = core.inner();
        inner.sealed.retain(|s| s.last_seq > upto);
        inner.sealed.len() + 1
    };

    let obs = marioh_obs::global();
    obs.counter("marioh_store_compactions_total").inc();
    obs.histogram("marioh_store_compaction_seconds")
        .observe(t0.elapsed());
    obs.gauge("marioh_store_segments").set(live_segments as u64);
    Ok(())
}

/// A tmp path unique to this (process, call): concurrent writers of the
/// same artifact — two workers finishing identical specs — must not
/// truncate each other's half-written tmp before the atomic rename.
fn unique_tmp(path: &Path) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}-{n}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Flips the store to read-only degraded mode (idempotent): WAL and
/// artifact writes stop touching the disk, serving continues from the
/// in-memory table + artifact overlay, and `/healthz` reports it.
fn enter_degraded(degraded: &AtomicBool, why: &str) {
    if !degraded.swap(true, Ordering::Relaxed) {
        eprintln!("marioh-store: persistent I/O failure, entering read-only degraded mode: {why}");
        marioh_obs::global().gauge("marioh_store_degraded").set(1);
    }
}

/// Records the outcome of one WAL write/flush: a success resets the
/// consecutive-failure run, [`LOG_FAILURE_LIMIT`] failures in a row
/// flip degraded mode. A lone failure must not take the serving path
/// down; the in-memory state stays authoritative and the next open
/// replays what did land.
fn note_log_outcome(inner: &mut DiskInner, result: std::io::Result<()>) {
    match result {
        Ok(()) => inner.log_failures = 0,
        Err(e) => {
            inner.log_failures += 1;
            if inner.log_failures >= LOG_FAILURE_LIMIT {
                enter_degraded(&inner.degraded, &format!("wal write failed: {e}"));
            }
        }
    }
}

/// Buffers one WAL record without flushing — callers pair it with
/// [`commit_log`], so a batch of appends pays one flush (+ fsync)
/// total. No-op in degraded and read-only modes.
fn buffer_record(inner: &mut DiskInner, record: &Json) {
    if inner.degraded.load(Ordering::Relaxed) {
        return; // read-only: the disk already proved unwritable
    }
    let Some(wal) = inner.wal.as_mut() else {
        return; // read-only open: in-memory only
    };
    let payload = record.to_string();
    let result = match marioh_fault::hit("store.append") {
        Some(marioh_fault::Action::Err) => Err(marioh_fault::io_error("store.append")),
        Some(marioh_fault::Action::Stall(ms)) => {
            marioh_fault::stall(ms);
            wal.append(payload.as_bytes()).map(|_| ())
        }
        _ => wal.append(payload.as_bytes()).map(|_| ()),
    };
    note_log_outcome(inner, result);
}

/// Flushes everything buffered since the last commit; `durable` adds an
/// fsync so acknowledged records survive power loss, not just a crash.
fn commit_log(inner: &mut DiskInner, durable: bool) {
    if inner.degraded.load(Ordering::Relaxed) {
        return;
    }
    let Some(wal) = inner.wal.as_mut() else {
        return;
    };
    let flushed = wal.flush();
    if durable {
        let t0 = std::time::Instant::now();
        let synced = match marioh_fault::hit("store.fsync") {
            Some(marioh_fault::Action::Err) => Err(marioh_fault::io_error("store.fsync")),
            Some(marioh_fault::Action::Stall(ms)) => {
                marioh_fault::stall(ms);
                wal.sync()
            }
            _ => wal.sync(),
        };
        let obs = marioh_obs::global();
        obs.counter("marioh_store_fsync_total").inc();
        obs.histogram("marioh_store_fsync_seconds")
            .observe(t0.elapsed());
        note_log_outcome(inner, flushed.and(synced));
    } else {
        note_log_outcome(inner, flushed);
    }
}

/// Rotates the tail segment once it crosses the byte cap: fsync it,
/// seal it, and start a fresh segment at the next sequence number.
/// Called with `inner` held.
fn maybe_rotate(core: &StoreCore, inner: &mut DiskInner) {
    if inner.degraded.load(Ordering::Relaxed) {
        return;
    }
    let Some(wal) = inner.wal.as_mut() else {
        return;
    };
    if wal.bytes() < core.tuning.segment_bytes || !wal.dirty() {
        return;
    }
    if let Err(e) = wal.sync() {
        note_log_outcome(inner, Err(e));
        return;
    }
    let first_seq = wal.first_seq();
    let last_seq = wal.next_seq() - 1;
    let next_seq = wal.next_seq();
    inner.sealed.push(SealedSegment {
        first_seq,
        last_seq,
    });
    match SegmentWriter::create(&core.wal_dir, next_seq) {
        Ok(writer) => inner.wal = Some(writer),
        Err(e) => {
            enter_degraded(&inner.degraded, &format!("wal rotation failed: {e}"));
            return;
        }
    }
    marioh_obs::global()
        .gauge("marioh_store_segments")
        .set(inner.sealed.len() as u64 + 1);
    if inner.sealed.len() >= core.tuning.compact_sealed {
        signal_compactor(core);
    }
}

fn append(core: &StoreCore, inner: &mut DiskInner, record: &Json, durable: bool) {
    buffer_record(inner, record);
    commit_log(inner, durable);
    maybe_rotate(core, inner);
}

/// Runs one artifact write with bounded retry: a transient failure
/// (real, or injected at the `store.artifact` site) backs off with
/// doubling sleeps and retries up to [`ARTIFACT_WRITE_ATTEMPTS`] total
/// attempts; the final error is returned for the caller to treat as
/// persistent. Each attempt counts one `store.artifact` operation.
fn artifact_write_retry(
    mut attempt: impl FnMut() -> Result<(), MariohError>,
) -> Result<(), MariohError> {
    let mut backoff = ARTIFACT_RETRY_BACKOFF;
    let mut tries = 0;
    loop {
        let result = match marioh_fault::hit("store.artifact") {
            Some(marioh_fault::Action::Err) => {
                Err(MariohError::Io(marioh_fault::io_error("store.artifact")))
            }
            Some(marioh_fault::Action::Stall(ms)) => {
                marioh_fault::stall(ms);
                attempt()
            }
            _ => attempt(),
        };
        tries += 1;
        match result {
            Ok(()) => return Ok(()),
            Err(e) if tries >= ARTIFACT_WRITE_ATTEMPTS => return Err(e),
            Err(_) => {
                marioh_obs::global()
                    .counter("marioh_store_artifact_retries_total")
                    .inc();
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Registers a freshly landed artifact: index first, then the WAL
/// record (that order is what makes the compactor's inner-then-art
/// clone sequence lossless), then budget enforcement.
fn note_artifact(core: &StoreCore, hash: &SpecHash, kind: ArtifactKind, bytes: u64) {
    core.art().insert(*hash, kind, bytes);
    let record = obj(vec![
        ("t", Json::str("artifact")),
        ("kind", Json::str(kind.tag())),
        ("hash", Json::str(hash.to_hex())),
        ("bytes", Json::num(bytes as f64)),
    ]);
    {
        let mut inner = core.inner();
        append(core, &mut inner, &record, false);
    }
    enforce_budget(core);
}

/// Evicts least-recently-used artifacts while the byte budget is
/// exceeded. The index entry goes first, so a probe after the eviction
/// is answered from memory. The file is deleted *before* the evict
/// record is logged: the worst crash leaves a stale index entry (one
/// wasted probe, healed lazily), never a resurrected artifact.
fn enforce_budget(core: &StoreCore) {
    let Some(budget) = core.tuning.budget else {
        return;
    };
    loop {
        let victim = {
            let mut art = core.art();
            if art.total_bytes() <= budget {
                return;
            }
            art.pop_oldest()
        };
        let Some((hash, kind, bytes)) = victim else {
            return;
        };
        if kind == ArtifactKind::Result {
            core.live().remove(&hash);
        }
        let _ = fs::remove_file(core.artifact_path(&hash, kind));
        let obs = marioh_obs::global();
        obs.counter_with("marioh_store_evictions_total", &[("kind", kind.tag())])
            .inc();
        obs.counter_with("marioh_store_evicted_bytes_total", &[("kind", kind.tag())])
            .add(bytes);
        let record = obj(vec![
            ("t", Json::str("evict")),
            ("kind", Json::str(kind.tag())),
            ("hash", Json::str(hash.to_hex())),
        ]);
        let mut inner = core.inner();
        append(core, &mut inner, &record, false);
    }
}

/// Asks the artifact index whether one probe may hit, emitting the
/// filter metric for the outcome. Returns `false` when the artifact is
/// definitively absent.
fn filter_admits(core: &StoreCore, hash: &SpecHash, kind: ArtifactKind) -> bool {
    let admitted = !core.filter_enabled.load(Ordering::Relaxed)
        || core.art().index.contains_key(&(*hash, kind));
    let name = if admitted {
        "marioh_store_filter_passed_total"
    } else {
        "marioh_store_filter_negative_total"
    };
    marioh_obs::global()
        .counter_with(name, &[("kind", kind.tag())])
        .inc();
    admitted
}

/// Records a filter false positive: the index said present, the disk
/// said no. Drops the stale index entry (e.g. an eviction whose WAL
/// record was lost to a crash) so the next probe is answered from
/// memory. A put can land the artifact meanwhile; it writes the file
/// before it inserts the entry, so checking the file under the index
/// lock keeps an entry whose file is there.
fn note_filter_fp(core: &StoreCore, hash: &SpecHash, kind: ArtifactKind) {
    marioh_obs::global()
        .counter_with("marioh_store_filter_fp_total", &[("kind", kind.tag())])
        .inc();
    if kind == ArtifactKind::Result {
        core.live().remove(hash);
    }
    let mut art = core.art();
    if !core.artifact_path(hash, kind).exists() {
        art.remove(*hash, kind);
    }
}

/// Deletes the `wal/*.filter` files (per-segment and base xor filters)
/// that builds before the index answered probes wrote. They were never
/// read back, so they go without a format change.
fn remove_legacy_filter_files(wal_dir: &Path) {
    let Ok(entries) = fs::read_dir(wal_dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".filter") || name.ends_with(".filter.tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

impl JobStore for DiskStore {
    fn submit(&self, spec: &JobSpec, hash: &SpecHash) -> u64 {
        let mut inner = self.core.inner();
        let id = inner.table.submit(spec.clone(), *hash);
        let record = obj(vec![
            ("t", Json::str("submit")),
            ("id", Json::num(id as f64)),
            ("hash", Json::str(hash.to_hex())),
            ("spec", spec.to_json()),
        ]);
        append(&self.core, &mut inner, &record, true);
        id
    }

    fn submit_hits(&self, hits: Vec<(SpecHash, Arc<JobResult>)>) -> Vec<u64> {
        if hits.is_empty() {
            return Vec::new();
        }
        let mut inner = self.core.inner();
        let ids = hits
            .into_iter()
            .map(|(hash, result)| {
                let id = inner.table.submit_hit(hash, Some(result));
                let record = obj(vec![
                    ("t", Json::str("hit")),
                    ("id", Json::num(id as f64)),
                    ("hash", Json::str(hash.to_hex())),
                ]);
                buffer_record(&mut inner, &record);
                id
            })
            .collect();
        // One flush + fsync for all of them.
        commit_log(&mut inner, true);
        maybe_rotate(&self.core, &mut inner);
        ids
    }

    fn start(&self, id: u64) -> Option<JobSpec> {
        let mut inner = self.core.inner();
        let spec = inner.table.start(id)?;
        let record = obj(vec![
            ("t", Json::str("start")),
            ("id", Json::num(id as f64)),
        ]);
        append(&self.core, &mut inner, &record, false);
        Some(spec)
    }

    fn transition(&self, id: u64, t: Transition) -> Option<JobStatus> {
        let mut inner = self.core.inner();
        let (status, wrote) = transition_locked(&mut inner, id, t);
        if let Some(durable) = wrote {
            commit_log(&mut inner, durable);
            maybe_rotate(&self.core, &mut inner);
        }
        status
    }

    fn transition_batch(&self, items: Vec<(u64, Transition)>) -> Vec<Option<JobStatus>> {
        let mut inner = self.core.inner();
        let mut wrote = false;
        let mut durable = false;
        let statuses = items
            .into_iter()
            .map(|(id, t)| {
                let (status, record) = transition_locked(&mut inner, id, t);
                if let Some(d) = record {
                    wrote = true;
                    durable |= d;
                }
                status
            })
            .collect();
        // One flush (and at most one fsync) for the whole drain, instead
        // of one per record.
        if wrote {
            commit_log(&mut inner, durable);
            maybe_rotate(&self.core, &mut inner);
        }
        statuses
    }

    fn view(&self, id: u64) -> Option<JobView> {
        self.core.inner().table.view(id)
    }

    fn result(&self, id: u64) -> Option<(JobStatus, Option<Arc<JobResult>>)> {
        let (status, hash, result) = {
            let inner = self.core.inner();
            let record = inner.table.get(id)?;
            (record.status, record.hash, record.result.clone())
        };
        if status != JobStatus::Done || result.is_some() {
            return Some((status, result));
        }
        // Replayed done record: load the artifact lazily — the shared
        // copy when a live one exists — outside the table lock, then
        // memoize. This read is keyed by a known done record — not a
        // speculative cache probe — so it bypasses the index check.
        let overlaid = self.core.overlay().results.get(&hash).cloned();
        let Some(arc) = overlaid.or_else(|| self.core.load_result(&hash).ok()) else {
            return Some((status, None));
        };
        if let Some(record) = self.core.inner().table.get_mut(id) {
            record.result.get_or_insert_with(|| Arc::clone(&arc));
        }
        Some((status, Some(arc)))
    }

    fn spec_hash(&self, id: u64) -> Option<SpecHash> {
        self.core.inner().table.get(id).map(|r| r.hash)
    }

    fn scan(&self) -> Vec<JobView> {
        self.core.inner().table.scan()
    }

    fn counters(&self) -> StoreCounters {
        self.core.inner().table.counters()
    }

    fn submit_batch(&self, items: &[(JobSpec, SpecHash)]) -> Vec<u64> {
        if items.is_empty() {
            return Vec::new();
        }
        let mut inner = self.core.inner();
        let ids = items
            .iter()
            .map(|(spec, hash)| {
                let id = inner.table.submit(spec.clone(), *hash);
                let record = obj(vec![
                    ("t", Json::str("submit")),
                    ("id", Json::num(id as f64)),
                    ("hash", Json::str(hash.to_hex())),
                    ("spec", spec.to_json()),
                ]);
                buffer_record(&mut inner, &record);
                id
            })
            .collect();
        // One flush + fsync for the whole batch.
        commit_log(&mut inner, true);
        maybe_rotate(&self.core, &mut inner);
        ids
    }

    fn recover_queued(&self) -> Vec<u64> {
        std::mem::take(&mut *self.recovered.lock().expect("recovered lock poisoned"))
    }

    fn kind(&self) -> &'static str {
        "disk"
    }

    fn degraded(&self) -> bool {
        self.is_degraded()
    }
}

/// Applies one transition against the locked inner state, buffering (but
/// not committing) its WAL record. Returns the resulting status and
/// `Some(durable)` when a record was buffered — the caller owns the
/// [`commit_log`] so batches pay one flush + fsync total.
fn transition_locked(
    inner: &mut DiskInner,
    id: u64,
    t: Transition,
) -> (Option<JobStatus>, Option<bool>) {
    let Some(before) = inner.table.get(id).map(|r| r.status) else {
        return (None, None);
    };
    let record = if before.is_terminal() {
        None // immutable; nothing to log
    } else {
        match &t {
            Transition::Start => Some((
                obj(vec![
                    ("t", Json::str("start")),
                    ("id", Json::num(id as f64)),
                ]),
                false,
            )),
            Transition::Progress { rounds, committed } => {
                let mut pairs = vec![("t", Json::str("progress")), ("id", Json::num(id as f64))];
                if let Some(rounds) = rounds {
                    pairs.push(("rounds", Json::num(*rounds as f64)));
                }
                if let Some(committed) = committed {
                    pairs.push(("committed", Json::num(*committed as f64)));
                }
                Some((obj(pairs), false))
            }
            Transition::Note(msg) => Some((
                obj(vec![
                    ("t", Json::str("note")),
                    ("id", Json::num(id as f64)),
                    ("error", Json::str(msg.clone())),
                ]),
                false,
            )),
            Transition::Done { cached, .. } => Some((
                obj(vec![
                    ("t", Json::str("done")),
                    ("id", Json::num(id as f64)),
                    ("cached", Json::Bool(*cached)),
                ]),
                true,
            )),
            Transition::Failed(msg) => Some((
                obj(vec![
                    ("t", Json::str("failed")),
                    ("id", Json::num(id as f64)),
                    ("error", Json::str(msg.clone())),
                ]),
                true,
            )),
            Transition::Cancelled => Some((
                obj(vec![
                    ("t", Json::str("cancelled")),
                    ("id", Json::num(id as f64)),
                ]),
                true,
            )),
        }
    };
    let status = inner.table.transition(id, t);
    match record {
        Some((record, durable)) => {
            buffer_record(inner, &record);
            (status, Some(durable))
        }
        None => (status, None),
    }
}

impl ArtifactStore for DiskStore {
    fn put_result(&self, hash: &SpecHash, result: &Arc<JobResult>) -> Result<(), MariohError> {
        if self.is_degraded() || self.core.read_only {
            self.core
                .overlay()
                .results
                .insert(*hash, Arc::clone(result));
            return Ok(());
        }
        let path = self.core.result_path(hash);
        if path.exists() {
            self.core.share_result(hash, Arc::clone(result));
            // Identical content by construction; make sure the index
            // knows it (heals an orphan left by a crash between the
            // rename and the WAL record).
            if !self
                .core
                .art()
                .index
                .contains_key(&(*hash, ArtifactKind::Result))
            {
                if let Ok(meta) = fs::metadata(&path) {
                    note_artifact(&self.core, hash, ArtifactKind::Result, meta.len());
                }
            }
            return Ok(());
        }
        let encoded = encode_result_container(result);
        crate::store::record_artifact_bytes("result", encoded.len() as u64);
        let written = artifact_write_retry(|| {
            let tmp = unique_tmp(&path);
            fs::write(&tmp, &encoded)?;
            fs::rename(&tmp, &path)?;
            Ok(())
        });
        match written {
            Ok(()) => {
                // Shared before it is noted: noting may evict it at once,
                // and eviction must find the entry to drop.
                self.core.share_result(hash, Arc::clone(result));
                note_artifact(&self.core, hash, ArtifactKind::Result, encoded.len() as u64);
            }
            Err(e) => {
                enter_degraded(
                    &self.core.degraded,
                    &format!("result artifact write failed: {e}"),
                );
                self.core
                    .overlay()
                    .results
                    .insert(*hash, Arc::clone(result));
            }
        }
        Ok(())
    }

    fn get_result(&self, hash: &SpecHash) -> Option<Arc<JobResult>> {
        if let Some(found) = self.core.overlay().results.get(hash).cloned() {
            crate::store::record_cache_probe("result", true);
            return Some(found);
        }
        if !filter_admits(&self.core, hash, ArtifactKind::Result) {
            // Definitive negative: the probe never touches disk.
            crate::store::record_cache_probe("result", false);
            return None;
        }
        // The presence check keeps an evicted artifact a miss even if a
        // record still holds its decoded copy; past it, a live copy is
        // shared instead of read, decompressed and parsed again.
        let found = if self.core.result_path(hash).exists() {
            self.core.load_result(hash).ok()
        } else {
            None
        };
        match found {
            Some(result) => {
                crate::store::record_cache_probe("result", true);
                self.core.art().touch(*hash, ArtifactKind::Result);
                Some(result)
            }
            None => {
                note_filter_fp(&self.core, hash, ArtifactKind::Result);
                crate::store::record_cache_probe("result", false);
                None
            }
        }
    }

    fn contains_result(&self, hash: &SpecHash) -> bool {
        if self.core.overlay().results.contains_key(hash) {
            crate::store::record_cache_probe("result", true);
            return true;
        }
        if !filter_admits(&self.core, hash, ArtifactKind::Result) {
            crate::store::record_cache_probe("result", false);
            return false;
        }
        let hit = self.core.result_path(hash).exists();
        if !hit {
            note_filter_fp(&self.core, hash, ArtifactKind::Result);
        }
        crate::store::record_cache_probe("result", hit);
        hit
    }

    fn put_model(&self, hash: &SpecHash, model: &SavedModel) -> Result<(), MariohError> {
        if self.is_degraded() || self.core.read_only {
            self.core.overlay().models.insert(*hash, model.clone());
            return Ok(());
        }
        let path = self.core.model_path(hash);
        if path.exists() {
            if !self
                .core
                .art()
                .index
                .contains_key(&(*hash, ArtifactKind::Model))
            {
                if let Ok(meta) = fs::metadata(&path) {
                    note_artifact(&self.core, hash, ArtifactKind::Model, meta.len());
                }
            }
            return Ok(());
        }
        let encoded = encode_model_container(model)?;
        crate::store::record_artifact_bytes("model", encoded.len() as u64);
        let written = artifact_write_retry(|| {
            let tmp = unique_tmp(&path);
            fs::write(&tmp, &encoded)?;
            fs::rename(&tmp, &path)?;
            Ok(())
        });
        match written {
            Ok(()) => note_artifact(&self.core, hash, ArtifactKind::Model, encoded.len() as u64),
            Err(e) => {
                enter_degraded(
                    &self.core.degraded,
                    &format!("model artifact write failed: {e}"),
                );
                self.core.overlay().models.insert(*hash, model.clone());
            }
        }
        Ok(())
    }

    fn get_model(&self, hash: &SpecHash) -> Option<SavedModel> {
        if let Some(found) = self.core.overlay().models.get(hash).cloned() {
            crate::store::record_cache_probe("model", true);
            return Some(found);
        }
        if !filter_admits(&self.core, hash, ArtifactKind::Model) {
            crate::store::record_cache_probe("model", false);
            return None;
        }
        match read_model_file(&self.core.model_path(hash)) {
            Ok(model) => {
                crate::store::record_cache_probe("model", true);
                self.core.art().touch(*hash, ArtifactKind::Model);
                Some(model)
            }
            Err(_) => {
                note_filter_fp(&self.core, hash, ArtifactKind::Model);
                crate::store::record_cache_probe("model", false);
                None
            }
        }
    }

    fn put_named_model(&self, name: &str, model: &SavedModel) -> Result<(), MariohError> {
        crate::spec::validate_model_name(name).map_err(MariohError::Config)?;
        if self.is_degraded() || self.core.read_only {
            self.core
                .overlay()
                .named
                .insert(name.to_owned(), model.clone());
            return Ok(());
        }
        let path = self.core.named_model_path(name);
        let encoded = encode_model_container(model)?;
        let written = artifact_write_retry(|| {
            let tmp = unique_tmp(&path);
            fs::write(&tmp, &encoded)?;
            fs::rename(&tmp, &path)?;
            Ok(())
        });
        if let Err(e) = written {
            enter_degraded(
                &self.core.degraded,
                &format!("named model write failed: {e}"),
            );
            self.core
                .overlay()
                .named
                .insert(name.to_owned(), model.clone());
        }
        Ok(())
    }

    fn get_named_model(&self, name: &str) -> Option<SavedModel> {
        crate::spec::validate_model_name(name).ok()?;
        if let Some(found) = self.core.overlay().named.get(name).cloned() {
            return Some(found);
        }
        read_model_file(&self.core.named_model_path(name)).ok()
    }

    fn list_models(&self) -> Vec<ModelEntry> {
        let models_dir = self.core.root.join("artifacts").join("models");
        let mut named_files = list_model_files(&models_dir.join("named"));
        {
            // Models accepted while degraded live only in the overlay;
            // listing must still see them.
            let overlay = self.core.overlay();
            for (name, model) in &overlay.named {
                if !named_files.iter().any(|(stem, _)| stem == name) {
                    named_files.push((name.clone(), model.model.feature_mode().tag().to_owned()));
                }
            }
        }
        let mut named: Vec<ModelEntry> = named_files
            .into_iter()
            .map(|(stem, mode)| ModelEntry {
                name: Some(stem),
                hash: None,
                mode,
            })
            .collect();
        named.sort_by(|a, b| a.name.cmp(&b.name));
        let mut hashed: Vec<ModelEntry> = list_model_files(&models_dir)
            .into_iter()
            .filter_map(|(stem, mode)| {
                SpecHash::from_hex(&stem).map(|h| ModelEntry {
                    name: None,
                    hash: Some(h),
                    mode,
                })
            })
            .collect();
        hashed.sort_by_key(|e| e.hash);
        named.extend(hashed);
        named
    }

    fn artifact_stats(&self) -> ArtifactStats {
        // Named models sit outside the budgeted index; count them (and
        // their encoded bytes) from the directory.
        let named_dir = self
            .core
            .root
            .join("artifacts")
            .join("models")
            .join("named");
        let (named_count, named_bytes) = fs::read_dir(&named_dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "model"))
                    .fold((0usize, 0u64), |(n, b), e| {
                        (n + 1, b + e.metadata().map(|m| m.len()).unwrap_or(0))
                    })
            })
            .unwrap_or((0, 0));
        let art = self.core.art();
        let overlay = self.core.overlay();
        ArtifactStats {
            results: art.count(ArtifactKind::Result) + overlay.results.len(),
            models: art.count(ArtifactKind::Model)
                + named_count
                + overlay.models.len()
                + overlay.named.len(),
            result_bytes: art.result_bytes,
            model_bytes: art.model_bytes + named_bytes,
        }
    }
}

/// `(file stem, feature-mode tag)` of every `.model` file directly in
/// `dir` (not recursing into `named/`).
fn list_model_files(dir: &Path) -> Vec<(String, String)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .filter_map(|e| {
            let path = e.path();
            if path.extension()? != "model" {
                return None;
            }
            let stem = path.file_stem()?.to_str()?.to_owned();
            let mode = read_model_file(&path)
                .ok()
                .map(|m| m.model.feature_mode().tag().to_owned())?;
            Some((stem, mode))
        })
        .collect()
}

// --- artifact containers -------------------------------------------------

/// Encodes a result artifact's **logical** bytes (`marioh-result vN`
/// header, `jaccard_bits`, hypergraph text). The wire protocol ships
/// these same bytes in `Result` frames, so a sharded run's merge path
/// persists byte-for-byte what a single-process run would have written;
/// on disk they are wrapped in a compressed container
/// (`marioh-result-z`) that decompresses back to exactly this output.
pub fn encode_result(result: &JobResult) -> Vec<u8> {
    let mut out = Vec::new();
    // Writes into a Vec cannot fail.
    let _ = writeln!(out, "marioh-result v{RESULT_FORMAT_VERSION}");
    let _ = writeln!(out, "jaccard_bits {}", result.jaccard.to_bits());
    let _ = hio::write_hypergraph(&result.reconstruction, &mut out);
    out
}

/// Decodes a result artifact produced by [`encode_result`], or read
/// back from a store's `artifacts/results/` directory (either the
/// compressed v2 container or a plain v1 file).
///
/// # Errors
///
/// [`MariohError::Config`] for malformed or version-mismatched bytes.
pub fn decode_result(bytes: &[u8]) -> Result<JobResult, MariohError> {
    if let Some(body) = strip_container(bytes, RESULT_CONTAINER) {
        let plain = compress::decompress(body).map_err(corrupt)?;
        return read_result(&plain[..]);
    }
    read_result(bytes)
}

fn strip_container<'a>(data: &'a [u8], header: &str) -> Option<&'a [u8]> {
    let prefix = data.strip_prefix(header.as_bytes())?;
    prefix.strip_prefix(b"\n")
}

pub(crate) fn encode_result_container(result: &JobResult) -> Vec<u8> {
    let plain = encode_result(result);
    let mut out = Vec::with_capacity(plain.len() / 2 + RESULT_CONTAINER.len() + 8);
    out.extend_from_slice(RESULT_CONTAINER.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(&compress::compress(&plain));
    out
}

fn encode_model_container(model: &SavedModel) -> Result<Vec<u8>, MariohError> {
    let mut plain = Vec::new();
    model.write_to(&mut plain)?;
    let mut out = Vec::with_capacity(plain.len() / 2 + MODEL_CONTAINER.len() + 8);
    out.extend_from_slice(MODEL_CONTAINER.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(&compress::compress(&plain));
    Ok(out)
}

fn read_result_file(path: &Path) -> Result<JobResult, MariohError> {
    decode_result(&fs::read(path)?)
}

fn read_model_file(path: &Path) -> Result<SavedModel, MariohError> {
    let data = fs::read(path)?;
    if let Some(body) = strip_container(&data, MODEL_CONTAINER) {
        let plain = compress::decompress(body).map_err(corrupt)?;
        return SavedModel::read_from(&plain[..]);
    }
    SavedModel::read_from(&data[..])
}

fn read_result(mut input: impl BufRead) -> Result<JobResult, MariohError> {
    let mut line = String::new();
    input.read_line(&mut line)?;
    let header = line.trim();
    if header
        .strip_prefix("marioh-result v")
        .and_then(|v| v.parse::<u32>().ok())
        .is_none_or(|v| v == 0 || v > RESULT_FORMAT_VERSION)
    {
        return Err(corrupt(format!("not a marioh result file: {header:?}")));
    }
    line.clear();
    input.read_line(&mut line)?;
    let jaccard = line
        .trim()
        .strip_prefix("jaccard_bits ")
        .and_then(|b| b.parse::<u64>().ok())
        .map(f64::from_bits)
        .ok_or_else(|| corrupt("malformed jaccard line in result file"))?;
    let reconstruction = hio::read_hypergraph(input).map_err(MariohError::from)?;
    Ok(JobResult {
        reconstruction,
        jaccard,
    })
}

// --- snapshot + replay ---------------------------------------------------

fn get_u64(v: &Json, key: &str) -> Result<u64, MariohError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt(format!("store record is missing integer field {key:?}")))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, MariohError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt(format!("store record is missing string field {key:?}")))
}

fn get_hash(v: &Json) -> Result<SpecHash, MariohError> {
    SpecHash::from_hex(get_str(v, "hash")?)
        .ok_or_else(|| corrupt("store record has a malformed spec hash"))
}

fn get_spec(v: &Json) -> Result<JobSpec, MariohError> {
    let spec = v
        .get("spec")
        .ok_or_else(|| corrupt("store record is missing its spec"))?;
    JobSpec::from_json(spec).map_err(|e| corrupt(format!("store record has an invalid spec: {e}")))
}

/// Writes a snapshot (one layout since v2): header, a meta line
/// carrying the lifetime counters **and the WAL sequence watermark**,
/// the artifact index in LRU order (oldest first, so replay
/// reconstructs the eviction order), then job records — terminal ones
/// in completion order, live ones by id. tmp + fsync + rename, so a
/// crash leaves either the old or the new snapshot, never a torn one.
fn write_snapshot(
    path: &Path,
    table: &RecordTable,
    art: &ArtState,
    wal_seq: u64,
) -> Result<(), MariohError> {
    let tmp = path.with_extension("snapshot.tmp");
    {
        let mut out = std::io::BufWriter::new(File::create(&tmp)?);
        writeln!(out, "{} snapshot", format_tag())?;
        let counters = table.counters();
        let meta = obj(vec![
            ("t", Json::str("meta")),
            ("submitted", Json::num(counters.submitted as f64)),
            ("finished", Json::num(counters.finished as f64)),
            ("wal_seq", Json::num(wal_seq as f64)),
        ]);
        writeln!(out, "{meta}")?;
        for (hash, kind) in art.lru.values() {
            let entry = &art.index[&(*hash, *kind)];
            let record = obj(vec![
                ("t", Json::str("art")),
                ("kind", Json::str(kind.tag())),
                ("hash", Json::str(hash.to_hex())),
                ("bytes", Json::num(entry.bytes as f64)),
            ]);
            writeln!(out, "{record}")?;
        }
        let mut ordered: Vec<(u64, &Record)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for id in table.terminal_ids() {
            if let Some(record) = table.get(id) {
                ordered.push((id, record));
                seen.insert(id);
            }
        }
        let mut live: Vec<(u64, &Record)> = table
            .iter()
            .filter(|(id, _)| !seen.contains(*id))
            .map(|(id, r)| (*id, r))
            .collect();
        live.sort_by_key(|(id, _)| *id);
        ordered.extend(live);
        for (id, record) in ordered {
            let mut pairs = vec![
                ("t", Json::str("job")),
                ("id", Json::num(id as f64)),
                ("hash", Json::str(record.hash.to_hex())),
                ("status", Json::str(record.status.as_str())),
                ("rounds", Json::num(record.rounds as f64)),
                ("committed", Json::num(record.committed as f64)),
                ("cached", Json::Bool(record.cached)),
            ];
            if let Some(error) = &record.error {
                pairs.push(("error", Json::str(error.clone())));
            }
            if let Some(spec) = &record.spec {
                pairs.push(("spec", spec.to_json()));
            }
            writeln!(out, "{}", obj(pairs))?;
        }
        out.flush()?;
        out.get_ref().sync_data()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a snapshot (current, v2 or legacy v1) into `table` and `art`,
/// returning the WAL sequence watermark (0 for v1 snapshots, which
/// predate the WAL).
fn read_snapshot(
    path: &Path,
    table: &mut RecordTable,
    art: &mut ArtState,
) -> Result<u64, MariohError> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| corrupt("empty store snapshot"))?;
    let expected = format!("{} snapshot", format_tag());
    let older = [V1_TAG, V2_TAG].map(|tag| format!("{tag} snapshot"));
    if header.trim() != expected && !older.iter().any(|h| header.trim() == h) {
        return Err(corrupt(format!(
            "snapshot header {header:?} does not match {expected:?} — migrate the state dir first"
        )));
    }
    let mut counters = StoreCounters::default();
    let mut wal_seq = 0u64;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            Json::parse(line).map_err(|e| corrupt(format!("corrupt snapshot record: {e}")))?;
        match get_str(&record, "t")? {
            "meta" => {
                counters.submitted = get_u64(&record, "submitted")?;
                counters.finished = get_u64(&record, "finished")?;
                wal_seq = record.get("wal_seq").and_then(Json::as_u64).unwrap_or(0);
            }
            "art" => {
                let kind = ArtifactKind::from_tag(get_str(&record, "kind")?)
                    .ok_or_else(|| corrupt("snapshot art record has an unknown kind"))?;
                art.insert(get_hash(&record)?, kind, get_u64(&record, "bytes")?);
            }
            "job" => {
                let id = get_u64(&record, "id")?;
                let status = JobStatus::from_str_tag(get_str(&record, "status")?)
                    .ok_or_else(|| corrupt("snapshot record has an unknown status"))?;
                let spec = match record.get("spec") {
                    Some(_) => Some(get_spec(&record)?),
                    None => None,
                };
                table.insert_with_id(
                    id,
                    Record {
                        spec,
                        hash: get_hash(&record)?,
                        status,
                        rounds: get_u64(&record, "rounds")? as usize,
                        committed: get_u64(&record, "committed")? as usize,
                        error: record
                            .get("error")
                            .and_then(Json::as_str)
                            .map(str::to_owned),
                        result: None, // loaded lazily from the artifact store
                        cached: record
                            .get("cached")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                    },
                );
            }
            other => return Err(corrupt(format!("unknown snapshot record type {other:?}"))),
        }
    }
    // The snapshot's lifetime counters override the per-insert counting
    // (evicted records are gone from the snapshot but still happened).
    table.set_counters(counters);
    Ok(wal_seq)
}

/// Replays a v1 `jobs.log` (the pre-segment textual format) during
/// migration: one JSON line per record, torn final line tolerated.
fn replay_legacy_log(path: &Path, table: &mut RecordTable) -> Result<(), MariohError> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines().enumerate();
    match lines.next() {
        None => return Ok(()), // empty log
        Some((_, header)) => {
            let expected = format!("{V1_TAG} log");
            if header.trim() != expected {
                return Err(corrupt(format!(
                    "log header {header:?} does not match {expected:?} — migrate the state dir first"
                )));
            }
        }
    }
    let non_empty: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let last_index = non_empty.len().saturating_sub(1);
    for (pos, (lineno, line)) in non_empty.iter().enumerate() {
        let record = match Json::parse(line) {
            Ok(r) => r,
            // A torn final line is the expected debris of a kill;
            // anything earlier is real corruption.
            Err(_) if pos == last_index => break,
            Err(e) => {
                return Err(corrupt(format!(
                    "corrupt store log at line {}: {e}",
                    lineno + 1
                )))
            }
        };
        apply_job_record(table, &record)?;
    }
    Ok(())
}

/// Applies one replayed WAL record: the v1 job records, the v2
/// `artifact`/`evict` index records, or a v3 `hit`.
fn apply_wal_record(
    table: &mut RecordTable,
    art: &mut ArtState,
    record: &Json,
) -> Result<(), MariohError> {
    match get_str(record, "t")? {
        "artifact" => {
            let kind = ArtifactKind::from_tag(get_str(record, "kind")?)
                .ok_or_else(|| corrupt("wal artifact record has an unknown kind"))?;
            art.insert(get_hash(record)?, kind, get_u64(record, "bytes")?);
            Ok(())
        }
        "evict" => {
            let kind = ArtifactKind::from_tag(get_str(record, "kind")?)
                .ok_or_else(|| corrupt("wal evict record has an unknown kind"))?;
            art.remove(get_hash(record)?, kind);
            Ok(())
        }
        _ => apply_job_record(table, record),
    }
}

fn apply_job_record(table: &mut RecordTable, record: &Json) -> Result<(), MariohError> {
    let id = get_u64(record, "id")?;
    match get_str(record, "t")? {
        "submit" => {
            table.insert_with_id(id, Record::queued(get_spec(record)?, get_hash(record)?));
        }
        "hit" => {
            // Like a replayed `done`: the result loads lazily by hash.
            table.insert_with_id(id, Record::hit(get_hash(record)?, None));
        }
        "start" => {
            table.transition(id, Transition::Start);
        }
        "progress" => {
            table.transition(
                id,
                Transition::Progress {
                    rounds: record
                        .get("rounds")
                        .and_then(Json::as_u64)
                        .map(|v| v as usize),
                    committed: record
                        .get("committed")
                        .and_then(Json::as_u64)
                        .map(|v| v as usize),
                },
            );
        }
        "note" => {
            table.transition(id, Transition::Note(get_str(record, "error")?.to_owned()));
        }
        "done" => {
            // The result stays on disk; `DiskStore::result` loads it
            // lazily by spec hash.
            let cached = record
                .get("cached")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            table.mark_done_by_hash(id, cached);
        }
        "failed" => {
            table.transition(id, Transition::Failed(get_str(record, "error")?.to_owned()));
        }
        "cancelled" => {
            table.transition(id, Transition::Cancelled);
        }
        other => return Err(corrupt(format!("unknown store log record type {other:?}"))),
    }
    Ok(())
}

/// Seeds the artifact index from a directory scan — migration path for
/// v1 stores, which had artifacts but no index. File sizes are the
/// encoded sizes (v1 files are plain, so this is exact).
fn seed_art_index_from_disk(root: &Path, art: &mut ArtState) {
    let scan = |dir: PathBuf, ext: &str, kind: ArtifactKind, art: &mut ArtState| {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != ext) {
                continue;
            }
            let Some(hash) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(SpecHash::from_hex)
            else {
                continue;
            };
            if art.index.contains_key(&(hash, kind)) {
                continue;
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            art.insert(hash, kind, bytes);
        }
    };
    let artifacts = root.join("artifacts");
    scan(
        artifacts.join("results"),
        "result",
        ArtifactKind::Result,
        art,
    );
    scan(artifacts.join("models"), "model", ArtifactKind::Model, art);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use marioh_hypergraph::hyperedge::edge;
    use std::fs::OpenOptions;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("marioh-disk-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(body: &str) -> (JobSpec, SpecHash) {
        let s = JobSpec::from_json(&Json::parse(body).unwrap()).unwrap();
        let h = s.content_hash().unwrap();
        (s, h)
    }

    fn result() -> Arc<JobResult> {
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 3);
        h.add_edge(edge(&[1, 4]));
        Arc::new(JobResult {
            reconstruction: h,
            jaccard: 0.8125,
        })
    }

    /// Synchronous-compaction tuning with a tiny segment cap, so tests
    /// drive rotation deterministically and call `compact_now` directly.
    fn tiny_tuning(retain: usize, segment_bytes: u64) -> StoreTuning {
        StoreTuning {
            retain,
            budget: None,
            segment_bytes,
            compact_sealed: 1_000_000,
            auto_compact: false,
        }
    }

    /// The newest (highest-first-seq) WAL segment file — the tail a
    /// crash would tear.
    fn tail_segment(dir: &Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "wal"))
            .collect();
        segs.sort();
        segs.pop().expect("a tail segment exists")
    }

    #[test]
    fn restart_replays_terminal_records_and_requeues_interrupted_jobs() {
        let dir = tmp_dir("restart");
        let (done_spec, done_hash) = spec(r#"{"dataset": "Hosts", "seed": 1}"#);
        let (queued_spec, queued_hash) = spec(r#"{"dataset": "Hosts", "seed": 2}"#);
        let (running_spec, running_hash) = spec(r#"{"dataset": "Hosts", "seed": 3}"#);

        let (done_id, queued_id, running_id) = {
            let store = DiskStore::open(&dir, 64).unwrap();
            assert!(store.recover_queued().is_empty());
            let done_id = store.submit(&done_spec, &done_hash);
            let queued_id = store.submit(&queued_spec, &queued_hash);
            let running_id = store.submit(&running_spec, &running_hash);
            store.start(done_id).unwrap();
            store.put_result(&done_hash, &result()).unwrap();
            store.transition(
                done_id,
                Transition::Done {
                    result: result(),
                    cached: false,
                },
            );
            store.start(running_id).unwrap();
            store.transition(
                running_id,
                Transition::Progress {
                    rounds: Some(2),
                    committed: Some(9),
                },
            );
            (done_id, queued_id, running_id)
            // dropped without any shutdown ceremony — like a kill
        };

        let store = DiskStore::open(&dir, 64).unwrap();
        // Terminal history is served from disk...
        let view = store.view(done_id).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        let (_, loaded) = store.result(done_id).unwrap();
        let loaded = loaded.expect("replayed result loads lazily");
        assert_eq!(loaded.jaccard.to_bits(), 0.8125f64.to_bits());
        assert_eq!(
            loaded.reconstruction.total_edge_count(),
            result().reconstruction.total_edge_count()
        );
        // ...and interrupted work is back in the queue, in order.
        assert_eq!(store.recover_queued(), vec![queued_id, running_id]);
        let requeued = store.view(running_id).unwrap();
        assert_eq!(requeued.status, JobStatus::Queued);
        assert_eq!(requeued.rounds, 2, "progress survives the restart");
        let taken = store.start(running_id).expect("recovered spec is intact");
        assert_eq!(taken.content_hash().unwrap(), running_hash);
        assert_eq!(
            store.counters(),
            StoreCounters {
                submitted: 3,
                finished: 1
            }
        );
    }

    #[test]
    fn a_running_jobs_spec_survives_compaction_and_a_crash() {
        let dir = tmp_dir("running-spec");
        let (s, h) = spec(r#"{"dataset": "Hosts", "seed": 77}"#);
        {
            let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 128)).unwrap();
            let id = store.submit(&s, &h);
            let taken = store.start(id).unwrap();
            assert_eq!(taken.content_hash().unwrap(), h);
            // Compact while the job is mid-flight: the snapshot becomes
            // the only durable copy of the spec once the WAL segment
            // holding the submit record is retired — it must carry the
            // spec even though the worker holds a clone.
            store.compact_now().unwrap();
        }
        let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 128)).unwrap();
        let ids = store.recover_queued();
        assert_eq!(ids.len(), 1);
        let replayed = store
            .start(ids[0])
            .expect("requeued job recovers its spec from the snapshot");
        assert_eq!(replayed.content_hash().unwrap(), h);
    }

    #[test]
    fn counters_and_eviction_survive_compaction_cycles() {
        let dir = tmp_dir("compaction");
        let retain = 2;
        let mut ids = Vec::new();
        for round in 0..3u64 {
            let store = DiskStore::open(&dir, retain).unwrap();
            for id in store.recover_queued() {
                store.start(id);
                store.transition(id, Transition::Failed("interrupted".into()));
            }
            let (s, h) = spec(&format!(
                r#"{{"dataset": "Hosts", "seed": {}}}"#,
                10 + round
            ));
            let id = store.submit(&s, &h);
            store.start(id);
            store.transition(id, Transition::Failed("boom".into()));
            store.compact_now().unwrap();
            ids.push(id);
        }
        let store = DiskStore::open(&dir, retain).unwrap();
        let counters = store.counters();
        assert_eq!(counters.submitted, 3);
        assert_eq!(counters.finished, 3);
        // Only the `retain` most recent terminal records survive.
        assert!(store.view(ids[0]).is_none());
        assert_eq!(store.view(ids[2]).unwrap().status, JobStatus::Failed);
        assert_eq!(store.scan().len(), retain);
        // Ids keep ascending across restarts.
        let (s, h) = spec(r#"{"dataset": "Hosts", "seed": 99}"#);
        assert!(store.submit(&s, &h) > *ids.last().unwrap());
    }

    #[test]
    fn batched_appends_recover_a_consistent_prefix_after_a_mid_batch_crash() {
        let dir = tmp_dir("batch");
        let specs: Vec<(JobSpec, SpecHash)> = (0..4)
            .map(|i| spec(&format!(r#"{{"dataset": "Hosts", "seed": {i}}}"#)))
            .collect();
        let ids = {
            let store = DiskStore::open(&dir, 16).unwrap();
            let ids = store.submit_batch(&specs);
            assert_eq!(ids, vec![1, 2, 3, 4]);
            store.start(ids[0]).unwrap();
            store.start(ids[1]).unwrap();
            let statuses = store.transition_batch(vec![
                (
                    ids[0],
                    Transition::Progress {
                        rounds: Some(1),
                        committed: Some(3),
                    },
                ),
                (ids[1], Transition::Failed("boom".into())),
                (9999, Transition::Failed("unknown".into())),
            ]);
            assert_eq!(
                statuses,
                vec![Some(JobStatus::Running), Some(JobStatus::Failed), None]
            );
            ids
        };

        // The whole first batch was acknowledged, so a restart replays
        // all of it: the interrupted runner re-queues, the failure and
        // the untouched queued jobs survive.
        {
            let store = DiskStore::open(&dir, 16).unwrap();
            assert_eq!(store.recover_queued(), vec![ids[0], ids[2], ids[3]]);
            assert_eq!(store.view(ids[1]).unwrap().status, JobStatus::Failed);
            // Write one more batch, whose tail the "crash" below tears.
            let more: Vec<(JobSpec, SpecHash)> = (10..12)
                .map(|i| spec(&format!(r#"{{"dataset": "Hosts", "seed": {i}}}"#)))
                .collect();
            assert_eq!(store.submit_batch(&more), vec![5, 6]);
        }

        // Simulate a crash mid-batch-append: chop the last bytes of the
        // tail WAL segment, leaving the batch's final frame torn.
        let tail = tail_segment(&dir);
        let bytes = fs::read(&tail).unwrap();
        fs::write(&tail, &bytes[..bytes.len() - 7]).unwrap();

        // Recovery keeps the consistent prefix — every record before the
        // torn one — and drops only the torn tail, exactly like a torn
        // single append.
        let store = DiskStore::open(&dir, 16).unwrap();
        assert_eq!(store.view(5).unwrap().status, JobStatus::Queued);
        assert!(store.view(6).is_none(), "torn tail record must not replay");
        assert_eq!(store.recover_queued(), vec![ids[0], ids[2], ids[3], 5]);
    }

    #[test]
    fn result_codec_round_trips_and_the_disk_artifact_is_a_container() {
        let dir = tmp_dir("codec");
        let store = DiskStore::open(&dir, 8).unwrap();
        let (_, h) = spec(r#"{"dataset": "Hosts", "seed": 3}"#);
        let original = result();
        store.put_result(&h, &original).unwrap();
        // On disk: a compressed container whose body decompresses to
        // byte-for-byte the logical encoding — which is what `Result`
        // wire frames carry, so every serving mode persists identically.
        let on_disk = fs::read(
            dir.join("artifacts")
                .join("results")
                .join(format!("{h}.result")),
        )
        .unwrap();
        let header = format!("{RESULT_CONTAINER}\n");
        assert!(on_disk.starts_with(header.as_bytes()));
        assert_eq!(
            compress::decompress(&on_disk[header.len()..]).unwrap(),
            encode_result(&original)
        );
        // decode_result accepts both the container and the plain bytes.
        for bytes in [&on_disk[..], &encode_result(&original)[..]] {
            let decoded = decode_result(bytes).unwrap();
            assert_eq!(decoded.jaccard.to_bits(), original.jaccard.to_bits());
            assert_eq!(
                decoded.reconstruction.sorted_edges(),
                original.reconstruction.sorted_edges()
            );
        }
        assert!(decode_result(b"not a result").is_err());
        // Torn container body: malformed, not a panic.
        assert!(decode_result(&on_disk[..on_disk.len() - 1]).is_err());
        assert!(decode_result(&encode_result(&original)[..20]).is_err());
    }

    #[test]
    fn v1_state_dir_migrates_in_place() {
        let dir = tmp_dir("migrate");
        fs::create_dir_all(dir.join("artifacts").join("results")).unwrap();
        let (s, h) = spec(r#"{"dataset": "Hosts", "seed": 5}"#);
        fs::write(dir.join("VERSION"), "marioh-store v1\n").unwrap();
        let submit = obj(vec![
            ("t", Json::str("submit")),
            ("id", Json::num(1.0)),
            ("hash", Json::str(h.to_hex())),
            ("spec", s.to_json()),
        ]);
        fs::write(
            dir.join("jobs.log"),
            format!(
                "marioh-store v1 log\n{submit}\n{}\n{}\n",
                obj(vec![("t", Json::str("start")), ("id", Json::num(1.0))]),
                obj(vec![
                    ("t", Json::str("done")),
                    ("id", Json::num(1.0)),
                    ("cached", Json::Bool(false)),
                ]),
            ),
        )
        .unwrap();
        // A v1 artifact is a *plain* (uncompressed, v1-header) file.
        let plain = String::from_utf8(encode_result(&result()))
            .unwrap()
            .replacen("marioh-result v2", "marioh-result v1", 1);
        fs::write(
            dir.join("artifacts")
                .join("results")
                .join(format!("{h}.result")),
            plain,
        )
        .unwrap();

        let store = DiskStore::open(&dir, 16).unwrap();
        assert_eq!(store.view(1).unwrap().status, JobStatus::Done);
        let (_, loaded) = store.result(1).unwrap();
        assert_eq!(loaded.unwrap().jaccard.to_bits(), 0.8125f64.to_bits());
        assert!(store.get_result(&h).is_some(), "plain v1 artifact reads");
        let stats = store.artifact_stats();
        assert_eq!(stats.results, 1);
        assert!(stats.result_bytes > 0, "index seeded from the dir scan");
        drop(store);

        // The migration is complete and permanent: v2 VERSION, no
        // legacy log, a snapshot + WAL layout that reopens cleanly.
        assert_eq!(
            fs::read_to_string(dir.join("VERSION")).unwrap().trim(),
            format_tag()
        );
        assert!(!dir.join("jobs.log").exists());
        assert!(dir.join("jobs.snapshot").exists());
        let store = DiskStore::open(&dir, 16).unwrap();
        assert_eq!(store.view(1).unwrap().status, JobStatus::Done);
        assert_eq!(store.counters().submitted, 1);
    }

    #[test]
    fn torn_final_v1_log_line_is_tolerated_earlier_corruption_is_not() {
        let dir = tmp_dir("torn-v1");
        fs::create_dir_all(&dir).unwrap();
        let (s, h) = spec(r#"{"dataset": "Hosts"}"#);
        let submit = obj(vec![
            ("t", Json::str("submit")),
            ("id", Json::num(1.0)),
            ("hash", Json::str(h.to_hex())),
            ("spec", s.to_json()),
        ]);
        fs::write(dir.join("VERSION"), "marioh-store v1\n").unwrap();
        fs::write(
            dir.join("jobs.log"),
            format!("marioh-store v1 log\n{submit}\n"),
        )
        .unwrap();
        // Simulate a crash mid-append: a partial JSON line at the tail.
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join("jobs.log"))
            .unwrap();
        write!(file, "{{\"t\":\"submit\",\"id\":2,\"ha").unwrap();
        drop(file);
        let store = DiskStore::open(&dir, 8).unwrap();
        assert_eq!(store.recover_queued(), vec![1]);
        drop(store);

        // Corruption in the *middle* of a v1 log is refused loudly.
        let dir = tmp_dir("corrupt-v1");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("VERSION"), "marioh-store v1\n").unwrap();
        fs::write(
            dir.join("jobs.log"),
            format!(
                "marioh-store v1 log\n{submit}\nnot json at all\n{}\n",
                submit
            ),
        )
        .unwrap();
        let err = DiskStore::open(&dir, 8).unwrap_err();
        assert!(err.to_string().contains("corrupt store log"), "{err}");
    }

    #[test]
    fn a_second_opener_is_refused_while_the_store_lives() {
        let dir = tmp_dir("lock");
        let store = DiskStore::open(&dir, 8).unwrap();
        // A concurrent writer would race the WAL and compactor out from
        // under the live process — refused instead.
        let err = DiskStore::open(&dir, 8).unwrap_err();
        assert!(err.to_string().contains("in use"), "{err}");
        // Dropping the store releases the lock.
        drop(store);
        DiskStore::open(&dir, 8).unwrap();
    }

    #[test]
    fn version_mismatch_is_refused_with_a_migration_pointer() {
        let dir = tmp_dir("version");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("VERSION"), "marioh-store v999\n").unwrap();
        let err = DiskStore::open(&dir, 8).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("v999") && msg.contains("FORMATS.md"), "{msg}");
    }

    #[test]
    fn artifacts_round_trip_on_disk() {
        let dir = tmp_dir("artifacts");
        let store = DiskStore::open(&dir, 8).unwrap();
        let (s, h) = spec(r#"{"dataset": "Hosts", "seed": 7}"#);
        let _ = s;
        assert!(store.get_result(&h).is_none());
        store.put_result(&h, &result()).unwrap();
        let back = store.get_result(&h).unwrap();
        assert_eq!(back.jaccard.to_bits(), 0.8125f64.to_bits());
        assert_eq!(store.artifact_stats().results, 1);

        let model = {
            use marioh_core::training::{train_classifier, TrainingConfig};
            use rand::{rngs::StdRng, SeedableRng};
            let mut hg = marioh_hypergraph::Hypergraph::new(0);
            for b in 0..12u32 {
                hg.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
                hg.add_edge(edge(&[b * 3, b * 3 + 1]));
            }
            let mut rng = StdRng::seed_from_u64(0);
            SavedModel {
                model: train_classifier(&hg, &TrainingConfig::default(), &mut rng),
                rng_state: Some([9, 8, 7, 6]),
            }
        };
        store.put_model(&h, &model).unwrap();
        assert_eq!(store.get_model(&h).unwrap().rng_state, Some([9, 8, 7, 6]));
        store.put_named_model("exported", &model).unwrap();
        assert!(store.put_named_model("../escape", &model).is_err());
        assert!(store.get_named_model("exported").is_some());
        let listed = store.list_models();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].name.as_deref(), Some("exported"));
        assert_eq!(listed[1].hash, Some(h));
        let stats = store.artifact_stats();
        assert_eq!(stats.models, 2);
        assert!(stats.model_bytes > 0);
    }

    #[test]
    fn rotation_seals_segments_and_compaction_retires_them() {
        let dir = tmp_dir("rotate");
        let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 256)).unwrap();
        let mut hashes = Vec::new();
        for i in 0..12u64 {
            let (s, h) = spec(&format!(r#"{{"dataset": "Hosts", "seed": {i}}}"#));
            store.submit(&s, &h);
            hashes.push(h);
        }
        assert!(
            store.sealed_segments() >= 2,
            "tiny segment cap must force rotations"
        );
        for h in hashes.iter().take(3) {
            store.put_result(h, &result()).unwrap();
        }
        store.compact_now().unwrap();
        assert_eq!(
            store.sealed_segments(),
            0,
            "compaction retires every fully-snapshotted segment"
        );
        // On disk: exactly one (tail) segment and nothing else.
        let wal_files = wal_file_names(&dir);
        assert_eq!(wal_files.len(), 1, "{wal_files:?}");
        assert!(wal_files[0].ends_with(".wal"), "{wal_files:?}");
        drop(store);

        let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 256)).unwrap();
        assert_eq!(store.counters().submitted, 12);
        assert_eq!(store.recover_queued().len(), 12);
        for h in hashes.iter().take(3) {
            assert!(
                store.get_result(h).is_some(),
                "artifact survives compaction"
            );
        }
        assert_eq!(store.artifact_stats().results, 3);
    }

    fn wal_file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir.join("wal"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_dir_with_filter_files_from_older_builds_opens_and_drops_them() {
        let dir = tmp_dir("legacy-filters");
        let hashes: Vec<SpecHash> = (0..4)
            .map(|i| spec(&format!(r#"{{"dataset": "Hosts", "seed": {i}}}"#)).1)
            .collect();
        {
            let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 256)).unwrap();
            for h in &hashes {
                store.put_result(h, &result()).unwrap();
            }
        }
        // What older builds left next to the segments: one xor filter per
        // sealed segment, the base filter, and a torn base-filter write.
        let wal = dir.join("wal");
        let first = parse_segment_file_name(&wal_file_names(&dir)[0]).unwrap();
        fs::write(wal.join(format!("seg-{first:016x}.filter")), b"xorf").unwrap();
        fs::write(wal.join("base.filter"), b"xorf").unwrap();
        fs::write(wal.join("base.filter.tmp"), b"xo").unwrap();

        let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 256)).unwrap();
        let wal_files = wal_file_names(&dir);
        assert!(
            wal_files.iter().all(|f| f.ends_with(".wal")),
            "{wal_files:?}"
        );
        for h in &hashes {
            assert!(store.contains_result(h));
            assert!(store.get_result(h).is_some());
        }
        let (_, ghost) = spec(r#"{"dataset": "Hosts", "seed": 999}"#);
        assert!(!store.contains_result(&ghost));
        assert!(store.get_result(&ghost).is_none());
        assert!(store.get_model(&hashes[0]).is_none());
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_artifacts() {
        // Measure one encoded artifact first (they are identical).
        let probe_dir = tmp_dir("budget-probe");
        let (_, h_probe) = spec(r#"{"dataset": "Hosts", "seed": 100}"#);
        let size = {
            let store = DiskStore::open_tuned(&probe_dir, tiny_tuning(16, 1 << 20)).unwrap();
            store.put_result(&h_probe, &result()).unwrap();
            store.artifact_stats().result_bytes
        };
        assert!(size > 0);

        let dir = tmp_dir("budget");
        let mut tuning = tiny_tuning(16, 1 << 20);
        tuning.budget = Some(size * 2 + size / 2); // room for two, not three
        let hashes: Vec<SpecHash> = (0..3)
            .map(|i| spec(&format!(r#"{{"dataset": "Hosts", "seed": {i}}}"#)).1)
            .collect();
        {
            let store = DiskStore::open_tuned(&dir, tuning.clone()).unwrap();
            store.put_result(&hashes[0], &result()).unwrap();
            store.put_result(&hashes[1], &result()).unwrap();
            // Touch [0] so [1] is the least recently used...
            assert!(store.get_result(&hashes[0]).is_some());
            // ...and the third put must evict exactly [1].
            store.put_result(&hashes[2], &result()).unwrap();
            assert!(store.contains_result(&hashes[0]));
            assert!(!store.contains_result(&hashes[1]), "LRU victim evicted");
            assert!(store.contains_result(&hashes[2]));
            assert!(store.artifact_stats().result_bytes <= tuning.budget.unwrap());
        }
        assert!(!dir
            .join("artifacts")
            .join("results")
            .join(format!("{}.result", hashes[1]))
            .exists());

        // No resurrection: the eviction outlives a restart.
        let store = DiskStore::open_tuned(&dir, tuning).unwrap();
        assert_eq!(store.artifact_stats().results, 2);
        assert!(store.get_result(&hashes[1]).is_none());
        assert!(store.get_result(&hashes[0]).is_some());
    }

    #[test]
    fn cache_hits_share_the_stored_result() {
        let dir = tmp_dir("share-hits");
        let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
        let (_, h) = spec(r#"{"dataset": "Hosts", "seed": 1}"#);
        let put = result();
        store.put_result(&h, &put).unwrap();
        let hits: Vec<Arc<JobResult>> = (0..5).map(|_| store.get_result(&h).unwrap()).collect();
        for hit in &hits {
            assert!(Arc::ptr_eq(hit, &put), "a hit decoded a private copy");
        }
        assert_eq!(Arc::strong_count(&put), 1 + hits.len());

        // Once every holder is gone the index keeps nothing alive: the
        // next probe decodes again, equal to what was stored, and that
        // copy is the one later probes share.
        let weak = Arc::downgrade(&put);
        drop(hits);
        drop(put);
        assert!(weak.upgrade().is_none(), "the index kept a result alive");
        let again = store.get_result(&h).unwrap();
        assert_eq!(again.reconstruction, result().reconstruction);
        assert_eq!(again.jaccard.to_bits(), result().jaccard.to_bits());
        assert!(Arc::ptr_eq(&again, &store.get_result(&h).unwrap()));
    }

    #[test]
    fn a_replayed_done_record_shares_its_result_with_later_probes() {
        let dir = tmp_dir("share-replay");
        let (s, h) = spec(r#"{"dataset": "Hosts", "seed": 2}"#);
        let id = {
            let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
            let id = store.submit(&s, &h);
            store.start(id).unwrap();
            let r = result();
            store.put_result(&h, &r).unwrap();
            store.transition(
                id,
                Transition::Done {
                    result: r,
                    cached: false,
                },
            );
            id
        };
        let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
        let (status, loaded) = store.result(id).unwrap();
        assert_eq!(status, JobStatus::Done);
        let loaded = loaded.expect("replayed done record loads its artifact");
        assert_eq!(loaded.reconstruction, result().reconstruction);
        let probed = store.get_result(&h).unwrap();
        assert!(Arc::ptr_eq(&loaded, &probed));
        // The memoized record answers with the same copy.
        assert!(Arc::ptr_eq(&loaded, &store.result(id).unwrap().1.unwrap()));

        // And in the other order: a probe first, then the lazy load.
        drop(store);
        let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
        let probed = store.get_result(&h).unwrap();
        assert!(Arc::ptr_eq(&probed, &store.result(id).unwrap().1.unwrap()));
    }

    #[test]
    fn an_evicted_result_misses_and_leaves_the_live_index() {
        let probe_dir = tmp_dir("share-evict-probe");
        let (_, h_probe) = spec(r#"{"dataset": "Hosts", "seed": 100}"#);
        let size = {
            let store = DiskStore::open_tuned(&probe_dir, tiny_tuning(16, 1 << 20)).unwrap();
            store.put_result(&h_probe, &result()).unwrap();
            store.artifact_stats().result_bytes
        };
        let dir = tmp_dir("share-evict");
        let mut tuning = tiny_tuning(16, 1 << 20);
        tuning.budget = Some(size + size / 2); // room for one, not two
        let store = DiskStore::open_tuned(&dir, tuning).unwrap();
        let (_, first) = spec(r#"{"dataset": "Hosts", "seed": 1}"#);
        let (_, second) = spec(r#"{"dataset": "Hosts", "seed": 2}"#);
        // A record-like holder keeps the first result alive throughout.
        let held = result();
        store.put_result(&first, &held).unwrap();
        assert!(store.core.live().contains_key(&first));
        store.put_result(&second, &result()).unwrap();
        assert!(
            store.get_result(&first).is_none(),
            "an evicted artifact must miss even while its result is held"
        );
        assert!(!store.core.live().contains_key(&first));
        assert!(store.core.live().contains_key(&second));
        assert!(store.core.live().len() <= store.core.art().index.len());
        assert_eq!(Arc::strong_count(&held), 1, "the index took a strong ref");
    }

    /// Every WAL payload under `dir`, in sequence order.
    fn wal_payloads(dir: &Path) -> Vec<String> {
        let mut seqs: Vec<u64> = fs::read_dir(dir.join("wal"))
            .unwrap()
            .filter_map(|e| parse_segment_file_name(e.ok()?.file_name().to_str()?))
            .collect();
        seqs.sort_unstable();
        seqs.into_iter()
            .flat_map(|first| {
                let path = dir.join("wal").join(segment_file_name(first));
                read_segment(&path, first).unwrap().records
            })
            .map(|(_, payload)| String::from_utf8(payload).unwrap())
            .collect()
    }

    #[test]
    fn cache_hits_log_one_spec_less_record_and_replay_as_cached_done_jobs() {
        let dir = tmp_dir("hits");
        let (s, h) = spec(r#"{"dataset": "Hosts", "seed": 3}"#);
        let (first, hits) = {
            let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
            let first = store.submit(&s, &h);
            store.start(first).unwrap();
            let r = result();
            store.put_result(&h, &r).unwrap();
            store.transition(
                first,
                Transition::Done {
                    result: r,
                    cached: false,
                },
            );
            let logged = wal_payloads(&dir).len();
            let hit = store.get_result(&h).unwrap();
            let hits = store.submit_hits(vec![(h, Arc::clone(&hit)), (h, Arc::clone(&hit))]);
            assert_eq!(hits, vec![first + 1, first + 2]);
            let payloads = wal_payloads(&dir);
            assert_eq!(
                payloads[logged..],
                hits.iter()
                    .map(|id| format!(r#"{{"t":"hit","id":{id},"hash":"{h}"}}"#))
                    .collect::<Vec<_>>()
            );
            for id in &hits {
                let view = store.view(*id).unwrap();
                assert_eq!((view.status, view.cached), (JobStatus::Done, true));
                assert!(store.core.inner().table.get(*id).unwrap().spec.is_none());
                assert!(Arc::ptr_eq(&store.result(*id).unwrap().1.unwrap(), &hit));
            }
            let counters = store.counters();
            assert_eq!((counters.submitted, counters.finished), (3, 3));
            (first, hits)
        };

        // Replayed from the WAL, then again from a compacted snapshot.
        for compacted in [false, true] {
            let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
            let counters = store.counters();
            assert_eq!((counters.submitted, counters.finished), (3, 3));
            assert!(!store.view(first).unwrap().cached);
            let shared = store.get_result(&h).unwrap();
            for id in &hits {
                let view = store.view(*id).unwrap();
                assert_eq!((view.status, view.cached), (JobStatus::Done, true));
                assert!(store.core.inner().table.get(*id).unwrap().spec.is_none());
                let (_, loaded) = store.result(*id).unwrap();
                assert!(Arc::ptr_eq(&loaded.unwrap(), &shared));
            }
            if !compacted {
                store.compact_now().unwrap();
            }
        }
    }

    #[test]
    fn a_v2_state_dir_opens_under_v3_unchanged() {
        let dir = tmp_dir("v2");
        fs::create_dir_all(dir.join("artifacts").join("results")).unwrap();
        fs::create_dir_all(dir.join("wal")).unwrap();
        let (done_spec, done_hash) = spec(r#"{"dataset": "Hosts", "seed": 5}"#);
        let (queued_spec, queued_hash) = spec(r#"{"dataset": "Hosts", "seed": 6}"#);
        fs::write(dir.join("VERSION"), "marioh-store v2\n").unwrap();
        let meta = obj(vec![
            ("t", Json::str("meta")),
            ("submitted", Json::num(0.0)),
            ("finished", Json::num(0.0)),
            ("wal_seq", Json::num(0.0)),
        ]);
        fs::write(
            dir.join("jobs.snapshot"),
            format!("marioh-store v2 snapshot\n{meta}\n"),
        )
        .unwrap();
        let container = encode_result_container(&result());
        fs::write(
            dir.join("artifacts")
                .join("results")
                .join(format!("{done_hash}.result")),
            &container,
        )
        .unwrap();
        // What a v2 build logged: a run, then a cache hit as a submit +
        // cached done pair, then a queued job.
        let submit = |id: f64, s: &JobSpec, h: &SpecHash| {
            obj(vec![
                ("t", Json::str("submit")),
                ("id", Json::num(id)),
                ("hash", Json::str(h.to_hex())),
                ("spec", s.to_json()),
            ])
        };
        let done = |id: f64, cached: bool| {
            obj(vec![
                ("t", Json::str("done")),
                ("id", Json::num(id)),
                ("cached", Json::Bool(cached)),
            ])
        };
        let mut wal = SegmentWriter::create(&dir.join("wal"), 1).unwrap();
        for record in [
            submit(1.0, &done_spec, &done_hash),
            obj(vec![("t", Json::str("start")), ("id", Json::num(1.0))]),
            obj(vec![
                ("t", Json::str("artifact")),
                ("kind", Json::str("result")),
                ("hash", Json::str(done_hash.to_hex())),
                ("bytes", Json::num(container.len() as f64)),
            ]),
            done(1.0, false),
            submit(2.0, &done_spec, &done_hash),
            done(2.0, true),
            submit(3.0, &queued_spec, &queued_hash),
        ] {
            wal.append(record.to_string().as_bytes()).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let wal_before = wal_payloads(&dir);

        let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
        // Stamped v3 at open, so a v2 build refuses the dir from now on;
        // nothing else was rewritten.
        assert_eq!(
            fs::read_to_string(dir.join("VERSION")).unwrap(),
            "marioh-store v3\n"
        );
        assert!(fs::read_to_string(dir.join("jobs.snapshot"))
            .unwrap()
            .starts_with("marioh-store v2 snapshot\n"));
        assert_eq!(wal_payloads(&dir), wal_before);
        assert_eq!(store.recover_queued(), vec![3]);
        for (id, cached) in [(1, false), (2, true)] {
            let view = store.view(id).unwrap();
            assert_eq!((view.status, view.cached), (JobStatus::Done, cached));
            let (_, loaded) = store.result(id).unwrap();
            assert_eq!(loaded.unwrap().reconstruction, result().reconstruction);
        }
        let counters = store.counters();
        assert_eq!((counters.submitted, counters.finished), (3, 2));
        assert_eq!(store.artifact_stats().results, 1);

        // A v3 hit on the migrated dir replays next to the v2 records.
        let hit = store.get_result(&done_hash).unwrap();
        let id = store.submit_hits(vec![(done_hash, hit)])[0];
        drop(store);
        let store = DiskStore::open_tuned(&dir, tiny_tuning(16, 1 << 20)).unwrap();
        assert!(store.view(id).unwrap().cached);
        assert_eq!(store.view(3).unwrap().status, JobStatus::Queued);
        assert_eq!(store.counters().submitted, 4);
    }

    #[test]
    fn read_only_open_coexists_with_a_live_writer() {
        let dir = tmp_dir("readonly");
        assert!(
            DiskStore::open_read_only(&dir).is_err(),
            "read-only open must not create a store"
        );
        let writer = DiskStore::open(&dir, 16).unwrap();
        let (s, h) = spec(r#"{"dataset": "Hosts", "seed": 1}"#);
        let id = writer.submit(&s, &h);
        writer.start(id).unwrap();
        writer.put_result(&h, &result()).unwrap();
        writer.transition(
            id,
            Transition::Done {
                result: result(),
                cached: false,
            },
        );

        // The writer still holds the exclusive lock...
        assert!(DiskStore::open(&dir, 16).is_err());
        // ...but a read-only open sees the flushed state.
        let ro = DiskStore::open_read_only(&dir).unwrap();
        assert_eq!(ro.view(id).unwrap().status, JobStatus::Done);
        let (_, loaded) = ro.result(id).unwrap();
        assert_eq!(loaded.unwrap().jaccard.to_bits(), 0.8125f64.to_bits());
        assert!(ro.get_result(&h).is_some());

        // Read-only writes land in the overlay, never on disk.
        let (_, h2) = spec(r#"{"dataset": "Hosts", "seed": 2}"#);
        ro.put_result(&h2, &result()).unwrap();
        assert!(ro.get_result(&h2).is_some());
        assert!(!dir
            .join("artifacts")
            .join("results")
            .join(format!("{h2}.result"))
            .exists());
        drop(ro);
        // The writer was never disturbed.
        assert!(writer.get_result(&h).is_some());
        assert!(writer.get_result(&h2).is_none());
    }

    #[test]
    fn filter_never_gives_false_negatives_across_the_segment_lifecycle() {
        let dir = tmp_dir("filter-life");
        let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 256)).unwrap();
        let mut hashes = Vec::new();
        for i in 0..10u64 {
            let (_, h) = spec(&format!(r#"{{"dataset": "Hosts", "seed": {i}}}"#));
            store.put_result(&h, &result()).unwrap();
            hashes.push(h);
            if i == 4 {
                // Mid-stream compaction moves half into the base filter.
                store.compact_now().unwrap();
            }
        }
        let (_, ghost) = spec(r#"{"dataset": "Hosts", "seed": 999}"#);
        for h in &hashes {
            assert!(store.contains_result(h));
            assert!(store.get_result(h).is_some());
        }
        assert!(!store.contains_result(&ghost));
        // Disabling the filter degrades to plain disk probes, same
        // answers.
        store.set_filter_enabled(false);
        assert!(store.contains_result(&hashes[0]));
        assert!(!store.contains_result(&ghost));
        drop(store);

        let store = DiskStore::open_tuned(&dir, tiny_tuning(64, 256)).unwrap();
        for h in &hashes {
            assert!(store.get_result(h).is_some(), "rebuilt filter admits all");
        }
        assert!(!store.contains_result(&ghost));
    }
}
