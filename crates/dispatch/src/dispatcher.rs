//! The dispatcher: hash-partitions jobs across N shard workers speaking
//! the `marioh-wire` protocol, merges their frames into batched events,
//! and keeps the shards alive.
//!
//! ## Thread anatomy
//!
//! * One **reader thread per shard connection** blocks on the socket and
//!   forwards every frame (or the connection's death) into one shared
//!   `mpsc` channel, tagged with the shard's *generation* so frames from
//!   a replaced connection are recognizably stale.
//! * One **merger thread** drains that channel — a blocking `recv`
//!   followed by a `try_recv` sweep — and hands each sweep to the event
//!   sink as a single [`DispatchEvents::on_batch`] call. A durable sink
//!   can therefore fold an entire drain into one fsync. Shard death is
//!   also handled here, serially, which is what makes respawn +
//!   re-dispatch race-free: generations only ever change on this thread.
//! * One **supervisor thread** ticks to send `Ping`s, forward
//!   cancellations as `Cancel` frames, and declare a shard dead when its
//!   heartbeat goes quiet.
//!
//! ## Crash recovery
//!
//! Workers are stateless and jobs are deterministic and content-hashed,
//! so recovery is re-dispatch: when a shard dies (EOF, SIGKILL, or
//! heartbeat timeout), its in-flight jobs are re-sent verbatim to the
//! respawned worker — unless the sink reports the result already landed
//! (a twin job's artifact, or this job's own `Result` frame racing the
//! crash), in which case re-running would only burn CPU to produce the
//! same bytes.

use crate::exec::{run_encoded, Emit};
use crate::shard_worker;
use marioh_core::CancelToken;
use marioh_wire::{
    server_handshake, Frame, FrameReader, FrameWriter, Message, WireError, CONTROL_CHANNEL,
};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker gets to connect back and handshake.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);

/// A live shard connection's write half plus the child process handle
/// (absent for [`WorkerCommand::InThread`] shards).
type ShardLink = (Arc<Mutex<FrameWriter<TcpStream>>>, Option<Child>);

/// Respawn attempts per shard death before the crash-loop breaker is
/// consulted.
const RESPAWN_ATTEMPTS: usize = 3;

/// Supervisor tick.
const TICK: Duration = Duration::from_millis(50);

/// Strikes — spawn-attempt failures or immediate deaths (a worker dying
/// without completing a single job) — before a shard's crash-loop
/// breaker opens and its jobs reroute to in-process execution.
const BREAKER_STRIKES: u32 = 3;

/// Backoff before the second respawn attempt; doubles per attempt.
/// `MARIOH_RESPAWN_BACKOFF_MS` overrides it (tests shrink it).
const RESPAWN_BACKOFF: Duration = Duration::from_millis(100);

/// How long an open breaker cools down before the supervisor probes
/// with one half-open respawn attempt. `MARIOH_BREAKER_COOLDOWN_MS`
/// overrides it (tests shrink it).
const BREAKER_COOLDOWN: Duration = Duration::from_secs(5);

/// Reads a millisecond duration override from the environment, falling
/// back to `default` when unset or malformed.
fn env_duration_ms(name: &str, default: Duration) -> Duration {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(default)
}

/// Picks the shard that owns a spec hash. Pure function of the hash, so
/// twin jobs always land on the same shard and a restarted dispatcher
/// partitions identically.
#[must_use]
pub fn shard_for(spec_hash: &[u8; 32], shards: usize) -> usize {
    let prefix = u64::from_le_bytes(spec_hash[..8].try_into().expect("8-byte prefix"));
    (prefix % shards.max(1) as u64) as usize
}

/// How the dispatcher obtains a worker for a shard slot.
#[derive(Debug, Clone)]
pub enum WorkerCommand {
    /// Spawn `argv[0]` with `argv[1..]` plus `--connect ADDR --shard K`
    /// appended — the production path (`marioh shard-worker`).
    Process(Vec<String>),
    /// Run [`shard_worker::run`] on a thread inside this process. For
    /// tests: exercises the full wire protocol without a child binary
    /// (but cannot be SIGKILLed).
    InThread,
}

/// Dispatcher tuning. `new` picks production defaults; tests shrink the
/// timeouts.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Number of shard workers (≥ 1).
    pub shards: usize,
    /// How workers are launched.
    pub worker: WorkerCommand,
    /// Heartbeat interval.
    pub ping_interval: Duration,
    /// Silence threshold after which a shard is declared dead. Must
    /// comfortably exceed `ping_interval`.
    pub shard_timeout: Duration,
}

impl DispatchConfig {
    /// Production defaults: ping every second, declare death at 10 s.
    #[must_use]
    pub fn new(shards: usize, worker: WorkerCommand) -> Self {
        Self {
            shards,
            worker,
            ping_interval: Duration::from_secs(1),
            shard_timeout: Duration::from_secs(10),
        }
    }
}

/// One job handed to [`Dispatcher::dispatch`]. Self-contained: the
/// worker needs nothing but this (and determinism does the rest).
#[derive(Debug, Clone)]
pub struct DispatchJob {
    /// Job id — correlates frames back to the store.
    pub id: u64,
    /// Canonical spec hash; decides the shard and keys re-dispatch
    /// idempotency.
    pub spec_hash: [u8; 32],
    /// Faithful JSON encoding of the spec.
    pub spec_json: String,
    /// Encoded [`marioh_core::SavedModel`] when the spec reuses one.
    pub model: Option<Vec<u8>>,
    /// Cancelling this token reaches the worker as a `Cancel` frame.
    pub cancel: CancelToken,
}

/// What the merger thread reports to the event sink.
#[derive(Debug)]
pub enum DispatchEvent {
    /// A `Progress` frame: incremental counters for the job record.
    Progress {
        /// Job id.
        job: u64,
        /// Latest completed search round, when one finished.
        rounds: Option<u64>,
        /// Total committed cliques, when a commit happened.
        committed: Option<u64>,
        /// Cliques reused from the previous round's cache.
        reused: u64,
        /// Cliques rescored this round.
        rescored: u64,
        /// True when training finished (fires once per trained job).
        trained: bool,
        /// Worker-side error note (`on_error` passthrough).
        note: Option<String>,
    },
    /// A `Result` frame: the job finished; `payload` is the exact
    /// artifact-store encoding of the result.
    Done {
        /// Job id.
        job: u64,
        /// Echoed spec hash — the artifact cache key.
        spec_hash: [u8; 32],
        /// `marioh_store::encode_result` bytes.
        payload: Vec<u8>,
        /// Encoded trained model, when the job trained one.
        model: Option<Vec<u8>>,
    },
    /// A `Failed` frame, or a dispatcher-side verdict (respawn
    /// exhausted, cancelled while its shard was down).
    Failed {
        /// Job id.
        job: u64,
        /// Human-readable failure.
        message: String,
        /// True when the failure is a cancellation, not an error.
        cancelled: bool,
    },
    /// A shard worker was replaced; `redispatched` of its in-flight
    /// jobs were re-sent to the replacement.
    ShardRespawned {
        /// Which shard slot.
        shard: usize,
        /// Jobs re-dispatched to the new worker.
        redispatched: usize,
    },
}

/// The dispatcher's outbound interface — implemented by the server over
/// its job/artifact stores. Called from the merger thread only.
pub trait DispatchEvents: Send + Sync {
    /// One drain of the frame channel. Durable sinks should fold the
    /// whole batch into a single log commit.
    fn on_batch(&self, events: Vec<DispatchEvent>);

    /// Consulted before re-dispatching a job after a shard death: `true`
    /// means a result for this spec hash already landed (and the sink
    /// has completed the job from it), so re-running is pointless.
    fn result_already_landed(&self, job: u64, spec_hash: &[u8; 32]) -> bool {
        let _ = (job, spec_hash);
        false
    }
}

/// A dispatched job the dispatcher still expects an answer for.
struct Inflight {
    channel: u32,
    spec_hash: [u8; 32],
    spec_json: String,
    model: Option<Vec<u8>>,
    cancel: CancelToken,
    cancel_sent: bool,
}

impl Inflight {
    fn dispatch_message(&self, job: u64) -> Message {
        Message::Dispatch {
            job,
            spec_hash: self.spec_hash,
            spec_json: self.spec_json.clone(),
            model: self.model.clone(),
        }
    }
}

/// One shard slot. `generation` increments on every replacement; frames
/// and death notices carry the generation they were observed under, so
/// stale ones are dropped instead of killing the replacement.
struct Slot {
    generation: u64,
    writer: Option<Arc<Mutex<FrameWriter<TcpStream>>>>,
    child: Option<Child>,
    inflight: HashMap<u64, Inflight>,
    last_seen: Instant,
    last_ping: Instant,
    /// Token of the most recent `Ping` still awaiting its `Pong`
    /// (0 = none; real tokens start at 1). Matching the answer against
    /// exactly one outstanding token keeps RTT tracking allocation-free.
    last_ping_token: u64,
    last_ping_sent: Instant,
    /// Latest metrics snapshot text pushed by the worker (wire v2);
    /// `None` for v1 workers or before the first push.
    last_snapshot: Option<String>,
    /// Crash-loop strikes: spawn-attempt failures and immediate deaths.
    /// A completed job from a live worker resets the count.
    strikes: u32,
    /// When the crash-loop breaker opened, if it is open. While open,
    /// no respawns are attempted and the shard's jobs execute
    /// in-process; after [`BREAKER_COOLDOWN`] the supervisor probes
    /// with one half-open respawn attempt.
    breaker_open_since: Option<Instant>,
    /// Jobs the current worker incarnation has answered (`Result` or
    /// `Failed`). Zero at death means the death was "immediate" — a
    /// crash-loop strike.
    completed_since_spawn: u64,
}

impl Slot {
    fn new() -> Self {
        Self {
            generation: 0,
            writer: None,
            child: None,
            inflight: HashMap::new(),
            last_seen: Instant::now(),
            last_ping: Instant::now(),
            last_ping_token: 0,
            last_ping_sent: Instant::now(),
            last_snapshot: None,
            strikes: 0,
            breaker_open_since: None,
            completed_since_spawn: 0,
        }
    }
}

/// Publishes the number of currently open breakers as a gauge.
fn update_breaker_gauge(shards: &[Slot]) {
    let open = shards
        .iter()
        .filter(|s| s.breaker_open_since.is_some())
        .count();
    marioh_obs::global()
        .gauge("marioh_dispatch_breakers_open")
        .set(open as u64);
}

/// A point-in-time view of one shard slot, surfaced through
/// [`Dispatcher::shard_statuses`] for `/stats` and `/metrics`.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard slot index.
    pub shard: usize,
    /// Milliseconds since the shard's connection last produced a frame.
    pub last_heartbeat_ms: u64,
    /// Jobs dispatched to this shard still awaiting `Result`/`Failed`.
    pub inflight: usize,
    /// Latest worker metrics snapshot (`snapshot v1` text, see
    /// `crates/obs/FORMATS.md`), when the worker speaks wire v2.
    pub snapshot: Option<String>,
    /// Whether the shard's crash-loop breaker is open (its jobs execute
    /// in-process until a half-open probe restores a worker).
    pub breaker_open: bool,
    /// Current crash-loop strike count (resets when a worker completes
    /// a job).
    pub strikes: u32,
}

/// Records one sent frame against the per-shard wire-traffic counters.
fn note_frame_sent(shard: usize, outcome: &Result<usize, WireError>) {
    if let Ok(bytes) = outcome {
        let label = shard.to_string();
        let labels = [("shard", label.as_str())];
        let registry = marioh_obs::global();
        registry
            .counter_with("marioh_dispatch_frames_sent_total", &labels)
            .inc();
        registry
            .counter_with("marioh_dispatch_bytes_sent_total", &labels)
            .add(*bytes as u64);
    }
}

/// Records one received frame against the per-shard wire-traffic
/// counters.
fn note_frame_received(shard: usize, bytes: u64) {
    let label = shard.to_string();
    let labels = [("shard", label.as_str())];
    let registry = marioh_obs::global();
    registry
        .counter_with("marioh_dispatch_frames_received_total", &labels)
        .inc();
    registry
        .counter_with("marioh_dispatch_bytes_received_total", &labels)
        .add(bytes);
}

/// What the reader and supervisor threads feed the merger.
enum Inbound {
    Frame {
        shard: usize,
        generation: u64,
        frame: Frame,
    },
    Down {
        shard: usize,
        generation: u64,
    },
    /// Supervisor verdict: `shard`'s breaker has cooled down; the
    /// merger should probe with one half-open respawn attempt.
    TryRestore {
        shard: usize,
    },
    /// Events produced by in-process execution of a rerouted job (its
    /// breaker was open); bypasses slot/generation bookkeeping.
    Local {
        events: Vec<DispatchEvent>,
    },
    Stop,
}

struct Core {
    worker: WorkerCommand,
    ping_interval: Duration,
    shard_timeout: Duration,
    respawn_backoff: Duration,
    breaker_cooldown: Duration,
    addr: String,
    /// Also serializes worker spawns: connect-back is only attributable
    /// to a shard because one spawn awaits its accept at a time.
    listener: Mutex<TcpListener>,
    shards: Mutex<Vec<Slot>>,
    tx: Mutex<mpsc::Sender<Inbound>>,
    events: Arc<dyn DispatchEvents>,
    stopping: AtomicBool,
    next_channel: AtomicU32,
    ping_token: AtomicU64,
    restarts: AtomicU64,
    side_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Cancel tokens of jobs currently executing in-process because
    /// their shard's breaker is open; fired at shutdown so their
    /// threads wind down promptly.
    local_jobs: Mutex<Vec<(u64, CancelToken)>>,
}

/// Routes jobs to shard workers over the wire protocol. See the module
/// docs for the thread anatomy.
pub struct Dispatcher {
    core: Arc<Core>,
    joiners: Mutex<Vec<JoinHandle<()>>>,
}

impl Dispatcher {
    /// Starts `config.shards` workers and the dispatch threads. Fails if
    /// any worker cannot be launched and handshaken.
    ///
    /// # Errors
    ///
    /// A human-readable reason when binding, spawning, or handshaking
    /// fails; already-started workers are killed before returning.
    pub fn start(config: DispatchConfig, events: Arc<dyn DispatchEvents>) -> Result<Self, String> {
        assert!(config.shards >= 1, "a dispatcher needs at least one shard");
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("could not bind dispatch listener: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("could not configure dispatch listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no local addr for dispatch listener: {e}"))?
            .to_string();
        let (tx, rx) = mpsc::channel();
        let core = Arc::new(Core {
            worker: config.worker,
            ping_interval: config.ping_interval,
            shard_timeout: config.shard_timeout,
            respawn_backoff: env_duration_ms("MARIOH_RESPAWN_BACKOFF_MS", RESPAWN_BACKOFF),
            breaker_cooldown: env_duration_ms("MARIOH_BREAKER_COOLDOWN_MS", BREAKER_COOLDOWN),
            addr,
            listener: Mutex::new(listener),
            shards: Mutex::new((0..config.shards).map(|_| Slot::new()).collect()),
            tx: Mutex::new(tx),
            events,
            stopping: AtomicBool::new(false),
            next_channel: AtomicU32::new(1),
            ping_token: AtomicU64::new(1),
            restarts: AtomicU64::new(0),
            side_threads: Mutex::new(Vec::new()),
            local_jobs: Mutex::new(Vec::new()),
        });
        for shard in 0..config.shards {
            // A shard that cannot come up does not fail the boot: its
            // breaker opens immediately and its jobs run in-process —
            // degraded but correct — until a half-open probe succeeds.
            let mut spawned = None;
            for _ in 0..BREAKER_STRIKES {
                match core.spawn_shard(shard, 0) {
                    Ok(pair) => {
                        spawned = Some(pair);
                        break;
                    }
                    Err(e) => {
                        let mut shards = core.lock_shards();
                        shards[shard].strikes += 1;
                        eprintln!("marioh-dispatch: shard {shard} failed to start: {e}");
                    }
                }
            }
            let mut shards = core.lock_shards();
            match spawned {
                Some((writer, child)) => {
                    shards[shard].writer = Some(writer);
                    shards[shard].child = child;
                    shards[shard].last_seen = Instant::now();
                }
                None => {
                    shards[shard].breaker_open_since = Some(Instant::now());
                    update_breaker_gauge(&shards);
                    eprintln!(
                        "marioh-dispatch: shard {shard} crash-loop breaker open from boot; \
                         its jobs will execute in-process"
                    );
                }
            }
        }
        let merger = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("marioh-dispatch-merge".into())
                .spawn(move || merge_loop(&core, &rx))
                .map_err(|e| format!("could not spawn merger thread: {e}"))?
        };
        let supervisor = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("marioh-dispatch-pulse".into())
                .spawn(move || supervise(&core))
                .map_err(|e| format!("could not spawn supervisor thread: {e}"))?
        };
        Ok(Self {
            core,
            joiners: Mutex::new(vec![merger, supervisor]),
        })
    }

    /// Number of shard slots.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.core.lock_shards().len()
    }

    /// How many times a shard worker has been replaced.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.core.restarts.load(Ordering::Relaxed)
    }

    /// A point-in-time view of every shard slot: heartbeat age, in-flight
    /// job count, and the latest worker metrics snapshot (wire v2).
    #[must_use]
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.core
            .lock_shards()
            .iter()
            .enumerate()
            .map(|(shard, slot)| ShardStatus {
                shard,
                last_heartbeat_ms: slot.last_seen.elapsed().as_millis() as u64,
                inflight: slot.inflight.len(),
                snapshot: slot.last_snapshot.clone(),
                breaker_open: slot.breaker_open_since.is_some(),
                strikes: slot.strikes,
            })
            .collect()
    }

    /// Sends a job to the shard owning its spec hash. The answer arrives
    /// later through [`DispatchEvents::on_batch`]; if the shard is
    /// currently down, the job rides along when it respawns.
    ///
    /// # Errors
    ///
    /// Only when the dispatcher is shutting down.
    pub fn dispatch(&self, job: DispatchJob) -> Result<(), String> {
        if self.core.stopping.load(Ordering::SeqCst) {
            return Err("dispatcher is shutting down".into());
        }
        let shard = shard_for(&job.spec_hash, self.shard_count());
        let channel = self.core.fresh_channel();
        let mut shards = self.core.lock_shards();
        let slot = &mut shards[shard];
        if slot.breaker_open_since.is_some() {
            // Crash-loop breaker open: run the job in this process
            // instead of feeding a respawn loop.
            drop(shards);
            self.core.execute_local(shard, job);
            return Ok(());
        }
        let inflight = Inflight {
            channel,
            spec_hash: job.spec_hash,
            spec_json: job.spec_json,
            model: job.model,
            cancel: job.cancel,
            cancel_sent: false,
        };
        let message = inflight.dispatch_message(job.id);
        let writer = slot.writer.clone();
        slot.inflight.insert(job.id, inflight);
        drop(shards);
        if let Some(writer) = writer {
            // A failed send means the connection is dying; the reader
            // will report it and the respawn path re-sends the job.
            let outcome = writer
                .lock()
                .expect("writer lock poisoned")
                .send(channel, &message);
            note_frame_sent(shard, &outcome);
        }
        Ok(())
    }

    /// Stops everything: polite `Goodbye`s, then SIGKILL for child
    /// workers, then joins all dispatcher threads. Idempotent.
    pub fn shutdown(&self) {
        if self.core.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut shards = self.core.lock_shards();
            for (shard, slot) in shards.iter_mut().enumerate() {
                if let Some(writer) = &slot.writer {
                    let outcome = writer.lock().expect("writer lock poisoned").send(
                        CONTROL_CHANNEL,
                        &Message::Goodbye {
                            reason: "dispatcher shutting down".into(),
                        },
                    );
                    note_frame_sent(shard, &outcome);
                }
                for inflight in slot.inflight.values() {
                    inflight.cancel.cancel();
                }
                if let Some(mut child) = slot.child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                slot.writer = None;
            }
        }
        for (_, cancel) in self
            .core
            .local_jobs
            .lock()
            .expect("local jobs lock poisoned")
            .iter()
        {
            cancel.cancel();
        }
        let _ = self
            .core
            .tx
            .lock()
            .expect("sender lock poisoned")
            .send(Inbound::Stop);
        for handle in self
            .joiners
            .lock()
            .expect("joiners lock poisoned")
            .drain(..)
        {
            let _ = handle.join();
        }
        for handle in self
            .core
            .side_threads
            .lock()
            .expect("side threads lock poisoned")
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Core {
    fn lock_shards(&self) -> std::sync::MutexGuard<'_, Vec<Slot>> {
        self.shards.lock().expect("shards lock poisoned")
    }

    /// Next channel id, skipping 0 (the control channel) on wrap.
    fn fresh_channel(&self) -> u32 {
        loop {
            let channel = self.next_channel.fetch_add(1, Ordering::Relaxed);
            if channel != CONTROL_CHANNEL {
                return channel;
            }
        }
    }

    /// Launches a worker for `shard`, waits for it to connect back and
    /// handshake, and starts its reader thread. Serialized by the
    /// listener lock so concurrent spawns cannot steal each other's
    /// connections (capabilities are verified as a backstop).
    fn spawn_shard(self: &Arc<Self>, shard: usize, generation: u64) -> Result<ShardLink, String> {
        // Parent-side spawn counter: unlike the worker's own `shard.K`
        // sites it survives respawns, so chaos plans can script
        // cross-incarnation crash loops (`shard.spawn.K:err@upto:N`).
        match marioh_fault::hit(&format!("shard.spawn.{shard}")) {
            Some(marioh_fault::Action::Err) => {
                return Err(format!("injected fault at shard.spawn.{shard}"));
            }
            Some(marioh_fault::Action::Stall(ms)) => marioh_fault::stall(ms),
            _ => {}
        }
        let listener = self.listener.lock().expect("listener lock poisoned");
        let mut child = match &self.worker {
            WorkerCommand::Process(argv) => {
                let (program, rest) = argv
                    .split_first()
                    .ok_or_else(|| "empty worker command".to_owned())?;
                let spawned = Command::new(program)
                    .args(rest)
                    .arg("--connect")
                    .arg(&self.addr)
                    .arg("--shard")
                    .arg(shard.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("could not spawn {program:?}: {e}"))?;
                Some(spawned)
            }
            WorkerCommand::InThread => {
                let addr = self.addr.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("marioh-shard-{shard}"))
                    .spawn(move || {
                        let _ = shard_worker::run(&addr, shard);
                    })
                    .map_err(|e| format!("could not spawn shard thread: {e}"))?;
                self.side_threads
                    .lock()
                    .expect("side threads lock poisoned")
                    .push(handle);
                None
            }
        };
        let reap = |child: &mut Option<Child>| {
            if let Some(child) = child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        };
        let deadline = Instant::now() + SPAWN_DEADLINE;
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        reap(&mut child);
                        return Err(format!(
                            "shard {shard} worker did not connect within {SPAWN_DEADLINE:?}"
                        ));
                    }
                    if let Some(child) = child.as_mut() {
                        if let Ok(Some(status)) = child.try_wait() {
                            return Err(format!(
                                "shard {shard} worker exited at startup: {status}"
                            ));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    reap(&mut child);
                    return Err(format!("accept failed for shard {shard}: {e}"));
                }
            }
        };
        let handshake =
            || -> Result<(FrameReader<TcpStream>, FrameWriter<TcpStream>), WireError> {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true).ok();
                // Bound the handshake: a connected-but-silent worker must not
                // wedge the spawn path.
                stream.set_read_timeout(Some(SPAWN_DEADLINE))?;
                let mut reader = FrameReader::new(stream.try_clone()?);
                let mut writer = FrameWriter::new(stream.try_clone()?);
                let (_version, capabilities) = server_handshake(&mut reader, &mut writer)?;
                let expected = format!("shard={shard}");
                if !capabilities.contains(&expected) {
                    return Err(WireError::Rejected(format!(
                        "worker identifies as {capabilities:?}, expected {expected:?}"
                    )));
                }
                stream.set_read_timeout(None)?;
                Ok((reader, writer))
            };
        let (reader, writer) = match handshake() {
            Ok(pair) => pair,
            Err(e) => {
                reap(&mut child);
                return Err(format!("handshake with shard {shard} failed: {e}"));
            }
        };
        let tx = self.tx.lock().expect("sender lock poisoned").clone();
        let handle = std::thread::Builder::new()
            .name(format!("marioh-dispatch-read-{shard}"))
            .spawn(move || reader_loop(&tx, reader, shard, generation))
            .map_err(|e| format!("could not spawn reader thread: {e}"))?;
        self.side_threads
            .lock()
            .expect("side threads lock poisoned")
            .push(handle);
        Ok((Arc::new(Mutex::new(writer)), child))
    }

    /// Merger-thread handling of one frame from a shard.
    fn handle_frame(
        self: &Arc<Self>,
        shard: usize,
        generation: u64,
        frame: Frame,
        events: &mut Vec<DispatchEvent>,
    ) {
        let mut shards = self.lock_shards();
        let slot = &mut shards[shard];
        if slot.generation != generation {
            return; // frame from a connection we already replaced
        }
        slot.last_seen = Instant::now();
        match frame.message {
            Message::Progress {
                job,
                rounds,
                committed,
                reused,
                rescored,
                trained,
                note,
            } => events.push(DispatchEvent::Progress {
                job,
                rounds,
                committed,
                reused,
                rescored,
                trained,
                note,
            }),
            Message::Result {
                job,
                spec_hash,
                payload,
                model,
            } => {
                slot.inflight.remove(&job);
                // A worker that answers jobs is healthy: clear its
                // crash-loop strikes.
                slot.completed_since_spawn += 1;
                slot.strikes = 0;
                events.push(DispatchEvent::Done {
                    job,
                    spec_hash,
                    payload,
                    model,
                });
            }
            Message::Failed {
                job,
                message,
                cancelled,
            } => {
                // A cancellation nobody asked for is a worker winding
                // down (its reader died mid-stream and it cancelled its
                // own jobs on the way out). Drop the frame and keep the
                // job inflight: the imminent shard-down re-dispatches
                // it, instead of surfacing a phantom "cancelled".
                if cancelled
                    && slot
                        .inflight
                        .get(&job)
                        .is_some_and(|inflight| !inflight.cancel.is_cancelled())
                {
                    return;
                }
                slot.inflight.remove(&job);
                slot.completed_since_spawn += 1;
                slot.strikes = 0;
                events.push(DispatchEvent::Failed {
                    job,
                    message,
                    cancelled,
                });
            }
            Message::Pong { token } if token != 0 && token == slot.last_ping_token => {
                slot.last_ping_token = 0;
                let rtt = slot.last_ping_sent.elapsed();
                let label = shard.to_string();
                marioh_obs::global()
                    .histogram_with(
                        "marioh_dispatch_heartbeat_seconds",
                        &[("shard", label.as_str())],
                    )
                    .observe(rtt);
            }
            // An unmatched pong (stale token, or a worker heartbeating
            // on its own) keeps the liveness effect above and nothing
            // else.
            Message::Pong { .. } => {}
            // Opaque here: /stats and /metrics decode it, and a
            // malformed snapshot degrades to "no shard metrics".
            // In-thread workers share this process's global registry,
            // so folding their snapshot back in would double-count
            // every series — drop theirs.
            Message::MetricsSnapshot { stats, .. }
                if !matches!(self.worker, WorkerCommand::InThread) =>
            {
                slot.last_snapshot = Some(stats);
            }
            Message::MetricsSnapshot { .. } => {}
            Message::Goodbye { .. } => {
                drop(shards);
                self.handle_shard_down(shard, generation, events);
            }
            // A v1 worker sends nothing else; last_seen is already bumped.
            _ => {}
        }
    }

    /// Merger-thread handling of a dead shard connection: bump the
    /// generation, respawn (with exponential backoff), and re-dispatch
    /// the jobs the dead worker still owed — unless their results
    /// already landed or they were cancelled meanwhile. A crash loop
    /// (strikes from spawn failures and immediate deaths) opens the
    /// slot's breaker instead: respawns stop and the jobs reroute to
    /// in-process execution, degraded but correct.
    fn handle_shard_down(
        self: &Arc<Self>,
        shard: usize,
        generation: u64,
        events: &mut Vec<DispatchEvent>,
    ) {
        if self.stopping.load(Ordering::SeqCst) {
            return;
        }
        let (new_generation, pending) = {
            let mut shards = self.lock_shards();
            let slot = &mut shards[shard];
            if slot.generation != generation {
                return; // already replaced (e.g. Goodbye raced the EOF)
            }
            slot.generation += 1;
            slot.writer = None;
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if slot.completed_since_spawn == 0 {
                // Died without answering a single job: a crash-loop
                // strike. (A death after completed work is not.)
                slot.strikes += 1;
            }
            (slot.generation, slot.inflight.drain().collect::<Vec<_>>())
        };
        self.restarts.fetch_add(1, Ordering::Relaxed);
        let mut respawned = None;
        let mut backoff = self.respawn_backoff;
        for attempt in 0..RESPAWN_ATTEMPTS {
            if self.stopping.load(Ordering::SeqCst) {
                return;
            }
            if self.lock_shards()[shard].strikes >= BREAKER_STRIKES {
                break; // crash loop: stop burning respawns
            }
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            match self.spawn_shard(shard, new_generation) {
                Ok(pair) => {
                    respawned = Some(pair);
                    break;
                }
                Err(e) => {
                    eprintln!("marioh-dispatch: shard {shard} respawn failed: {e}");
                    self.lock_shards()[shard].strikes += 1;
                }
            }
        }
        let Some((writer, child)) = respawned else {
            {
                let mut shards = self.lock_shards();
                let slot = &mut shards[shard];
                if slot.breaker_open_since.is_none() {
                    slot.breaker_open_since = Some(Instant::now());
                    eprintln!(
                        "marioh-dispatch: shard {shard} crash-loop breaker open; \
                         its jobs will execute in-process until a probe succeeds"
                    );
                }
                update_breaker_gauge(&shards);
            }
            self.reroute_pending(shard, pending, events);
            return;
        };
        let mut shards = self.lock_shards();
        let slot = &mut shards[shard];
        slot.writer = Some(Arc::clone(&writer));
        slot.child = child;
        slot.last_seen = Instant::now();
        slot.completed_since_spawn = 0;
        // Jobs dispatched while the shard was down sit in `inflight`
        // unsent (dispatch() found no writer); fold them in with the
        // dead worker's jobs and (re-)send everything.
        let mut to_send: Vec<(u64, Inflight)> = pending;
        to_send.extend(slot.inflight.drain());
        let mut redispatched = 0usize;
        for (job, mut inflight) in to_send {
            if inflight.cancel.is_cancelled() {
                events.push(DispatchEvent::Failed {
                    job,
                    message: "cancelled".into(),
                    cancelled: true,
                });
                continue;
            }
            if self.events.result_already_landed(job, &inflight.spec_hash) {
                // Idempotent by spec hash: a twin's artifact (or this
                // job's own Result frame racing the crash) already
                // completed the job on the sink side.
                continue;
            }
            let message = inflight.dispatch_message(job);
            inflight.cancel_sent = false;
            let channel = inflight.channel;
            slot.inflight.insert(job, inflight);
            let outcome = writer
                .lock()
                .expect("writer lock poisoned")
                .send(channel, &message);
            note_frame_sent(shard, &outcome);
            if outcome.is_ok() {
                redispatched += 1;
            }
            // A failed send leaves the job inflight; the reader reports
            // the dead connection and this path runs again.
        }
        events.push(DispatchEvent::ShardRespawned {
            shard,
            redispatched,
        });
    }

    /// Routes a dead shard's owed jobs to in-process execution (its
    /// breaker is open). Cancelled jobs fail as cancelled; jobs whose
    /// results already landed are skipped, exactly like re-dispatch.
    fn reroute_pending(
        self: &Arc<Self>,
        shard: usize,
        pending: Vec<(u64, Inflight)>,
        events: &mut Vec<DispatchEvent>,
    ) {
        for (job, inflight) in pending {
            if inflight.cancel.is_cancelled() {
                events.push(DispatchEvent::Failed {
                    job,
                    message: "cancelled".into(),
                    cancelled: true,
                });
                continue;
            }
            if self.events.result_already_landed(job, &inflight.spec_hash) {
                continue;
            }
            self.execute_local(
                shard,
                DispatchJob {
                    id: job,
                    spec_hash: inflight.spec_hash,
                    spec_json: inflight.spec_json,
                    model: inflight.model,
                    cancel: inflight.cancel,
                },
            );
        }
    }

    /// Runs one job in this process on its own thread — the degraded
    /// path while a shard's breaker is open. It goes through the same
    /// runner as a shard worker, and every event it emits (progress, then
    /// `Done`/`Failed`) flows back through the merger as an
    /// [`Inbound::Local`], so the sink sees what a worker would have sent
    /// (and, jobs being deterministic, the same bytes).
    fn execute_local(self: &Arc<Self>, shard: usize, job: DispatchJob) {
        let label = shard.to_string();
        marioh_obs::global()
            .counter_with(
                "marioh_dispatch_breaker_rerouted_total",
                &[("shard", label.as_str())],
            )
            .inc();
        let id = job.id;
        self.local_jobs
            .lock()
            .expect("local jobs lock poisoned")
            .push((id, job.cancel.clone()));
        let tx = self.tx.lock().expect("sender lock poisoned").clone();
        let emit: Emit = Arc::new(move |event| {
            let _ = tx.send(Inbound::Local {
                events: vec![event],
            });
        });
        let core = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("marioh-dispatch-local-{shard}"))
            .spawn({
                let emit = Arc::clone(&emit);
                move || {
                    run_encoded(job, emit);
                    core.local_jobs
                        .lock()
                        .expect("local jobs lock poisoned")
                        .retain(|(local, _)| *local != id);
                }
            });
        match handle {
            Ok(handle) => self
                .side_threads
                .lock()
                .expect("side threads lock poisoned")
                .push(handle),
            // Thread spawn failing is resource exhaustion; report the job
            // failed rather than losing it silently.
            Err(e) => emit(DispatchEvent::Failed {
                job: id,
                message: format!("could not start in-process execution: {e}"),
                cancelled: false,
            }),
        }
    }

    /// Merger-thread handling of a breaker probe: if the breaker is
    /// still open and cooled down, attempt one respawn. Success closes
    /// the breaker half-open (one strike short of the limit, so an
    /// immediate death reopens it; a completed job clears it); failure
    /// restarts the cooldown.
    fn handle_try_restore(self: &Arc<Self>, shard: usize, events: &mut Vec<DispatchEvent>) {
        if self.stopping.load(Ordering::SeqCst) {
            return;
        }
        let generation = {
            let mut shards = self.lock_shards();
            let slot = &mut shards[shard];
            match slot.breaker_open_since {
                Some(since) if since.elapsed() >= self.breaker_cooldown => {}
                _ => return, // closed meanwhile, or probes racing
            }
            slot.generation += 1;
            slot.generation
        };
        match self.spawn_shard(shard, generation) {
            Ok((writer, child)) => {
                let mut shards = self.lock_shards();
                let slot = &mut shards[shard];
                slot.writer = Some(writer);
                slot.child = child;
                slot.last_seen = Instant::now();
                slot.breaker_open_since = None;
                slot.strikes = BREAKER_STRIKES.saturating_sub(1);
                slot.completed_since_spawn = 0;
                update_breaker_gauge(&shards);
                drop(shards);
                eprintln!(
                    "marioh-dispatch: shard {shard} breaker probe succeeded; worker restored"
                );
                events.push(DispatchEvent::ShardRespawned {
                    shard,
                    redispatched: 0,
                });
            }
            Err(e) => {
                eprintln!("marioh-dispatch: shard {shard} breaker probe failed: {e}");
                let mut shards = self.lock_shards();
                shards[shard].breaker_open_since = Some(Instant::now());
            }
        }
    }
}

/// Forwards every frame from one shard connection into the merger's
/// channel; reports the connection's death exactly once.
fn reader_loop(
    tx: &mpsc::Sender<Inbound>,
    mut reader: FrameReader<TcpStream>,
    shard: usize,
    generation: u64,
) {
    let mut counted = 0u64;
    loop {
        match reader.read() {
            Ok(Some(frame)) => {
                let consumed = reader.bytes_consumed();
                note_frame_received(shard, consumed - counted);
                counted = consumed;
                if tx
                    .send(Inbound::Frame {
                        shard,
                        generation,
                        frame,
                    })
                    .is_err()
                {
                    return; // merger is gone; we are shutting down
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send(Inbound::Down { shard, generation });
                return;
            }
        }
    }
}

/// The merger thread: drains the channel in sweeps and reports each
/// sweep as one event batch.
fn merge_loop(core: &Arc<Core>, rx: &mpsc::Receiver<Inbound>) {
    loop {
        let first = match rx.recv() {
            Ok(inbound) => inbound,
            Err(_) => return,
        };
        let mut sweep = vec![first];
        while let Ok(inbound) = rx.try_recv() {
            sweep.push(inbound);
        }
        let mut events = Vec::new();
        let mut stop = false;
        for inbound in sweep {
            match inbound {
                Inbound::Stop => stop = true,
                Inbound::Frame {
                    shard,
                    generation,
                    frame,
                } => core.handle_frame(shard, generation, frame, &mut events),
                Inbound::Down { shard, generation } => {
                    core.handle_shard_down(shard, generation, &mut events);
                }
                Inbound::TryRestore { shard } => {
                    core.handle_try_restore(shard, &mut events);
                }
                Inbound::Local {
                    events: local_events,
                } => events.extend(local_events),
            }
        }
        if !events.is_empty() {
            core.events.on_batch(events);
        }
        if stop {
            return;
        }
    }
}

/// The supervisor thread: heartbeats, cancellation forwarding, and
/// timeout detection. Death verdicts go through the merger so all
/// generation changes happen on one thread.
fn supervise(core: &Arc<Core>) {
    loop {
        std::thread::sleep(TICK);
        if core.stopping.load(Ordering::SeqCst) {
            return;
        }
        let mut shards = core.lock_shards();
        let now = Instant::now();
        for (index, slot) in shards.iter_mut().enumerate() {
            if let Some(since) = slot.breaker_open_since {
                if now.duration_since(since) >= core.breaker_cooldown {
                    // Cooled down: ask the merger for one half-open
                    // probe. (It re-checks and dedups racing probes.)
                    let _ = core
                        .tx
                        .lock()
                        .expect("sender lock poisoned")
                        .send(Inbound::TryRestore { shard: index });
                }
                continue;
            }
            let Some(writer) = slot.writer.clone() else {
                continue;
            };
            for (job, inflight) in &mut slot.inflight {
                if inflight.cancel.is_cancelled() && !inflight.cancel_sent {
                    inflight.cancel_sent = true;
                    let outcome = writer
                        .lock()
                        .expect("writer lock poisoned")
                        .send(inflight.channel, &Message::Cancel { job: *job });
                    note_frame_sent(index, &outcome);
                }
            }
            if now.duration_since(slot.last_ping) >= core.ping_interval {
                slot.last_ping = now;
                let token = core.ping_token.fetch_add(1, Ordering::Relaxed);
                let outcome = writer
                    .lock()
                    .expect("writer lock poisoned")
                    .send(CONTROL_CHANNEL, &Message::Ping { token });
                if outcome.is_ok() {
                    slot.last_ping_token = token;
                    slot.last_ping_sent = Instant::now();
                }
                note_frame_sent(index, &outcome);
            }
            if now.duration_since(slot.last_seen) >= core.shard_timeout {
                // Reset so we do not re-report every tick while the
                // merger is busy replacing the worker.
                slot.last_seen = now;
                let _ = core
                    .tx
                    .lock()
                    .expect("sender lock poisoned")
                    .send(Inbound::Down {
                        shard: index,
                        generation: slot.generation,
                    });
            }
        }
    }
}
