//! `marioh-server`: a concurrent reconstruction service.
//!
//! Reconstruction is a long-running batch job — the paper's scalability
//! study (Fig. 7) runs minutes per dataset — so the serving shape is a
//! submit/poll/cancel job API rather than a blocking request/response.
//! This crate turns the validated [`marioh_core::Pipeline`] into exactly
//! that: jobs enter a bounded FIFO [`job::JobManager`], a pool of worker
//! threads drains it, and a dependency-free HTTP/1.1 front
//! (`std::net::TcpListener`; the build environment is offline) exposes
//! the lifecycle.
//!
//! # Architecture
//!
//! ```text
//!  client ──HTTP──▶ accept loop ──▶ router ──▶ JobManager (bounded FIFO + store)
//!                                                 ▲   │ next_run(): cache consult,
//!                                   EventSink     │   ▼ model resolution
//!                                   (progress,    worker pool ──▶ run_dispatched
//!                                    outcomes)    (panics contained) ──▶ execute_job
//!                                                 (split → train → reconstruct)
//! ```
//!
//! With [`ServerConfig::shards`] > 0 the worker pool is replaced by a
//! `marioh-dispatch` router: jobs are hash-partitioned across N
//! `marioh shard-worker` child processes speaking the `marioh-wire`
//! framed protocol, and dead shards are respawned transparently. Every
//! mode — pool, shard worker, breaker reroute — runs a job through the
//! one runner, [`marioh_dispatch::run_dispatched`], so results are
//! bit-identical and progress streams the same way. See `README.md`
//! ("Sharded serving").
//!
//! # Endpoints
//!
//! | method & path | purpose | success | failures |
//! |---|---|---|---|
//! | `POST /jobs` | submit a job | 201 `{id, status}` | 400 invalid spec, 503 queue full |
//! | `POST /jobs` (array) | submit a batch atomically | 201 `{batch, count, ids}` | 400 per-index errors, 503 queue full |
//! | `GET /batches/:id` | batch progress rollup | 200 `{batch, …, complete, jobs}` | 404 |
//! | `GET /jobs` | list retained jobs | 200 `{count, jobs}` | — |
//! | `GET /jobs/:id` | status + progress | 200 `{id, status, progress, cached?, error?}` | 404 |
//! | `GET /jobs/:id/result` | reconstructed hyperedges | 200 `{id, jaccard, edges}` | 404, 409 not done |
//! | `DELETE /jobs/:id` | cancel (queued or running) | 200 `{id, status}` | 404 |
//! | `GET /models` | list stored trained models | 200 `{count, models}` | — |
//! | `GET /healthz` | liveness | 200 `{status: "ok"}` | — |
//! | `GET /stats` | queue/worker/cache counters | 200 | — |
//!
//! A job body names a registry dataset or uploads an edge list, picks a
//! method variant, and overrides hyperparameters — which are validated
//! through [`marioh_core::Pipeline::builder`] *at submission*, so an
//! invalid `theta_init` is a 400 carrying the builder's own message:
//!
//! ```json
//! {"dataset": "Hosts", "method": "MARIOH", "seed": 7,
//!  "params": {"theta_init": 0.9, "threads": 2}}
//! ```
//!
//! # Persistence & caching
//!
//! Storage is pluggable through [`marioh_store`]: [`job::JobManager`] is
//! orchestration only (queue, condvar, cancel tokens) over
//! `Arc<dyn JobStore>` + `Arc<dyn ArtifactStore>`. The default store is
//! in-memory; [`StorageConfig::state_dir`] (CLI: `marioh serve
//! --state-dir`) selects the durable [`marioh_store::DiskStore`], whose
//! record log + snapshot let a restarted server serve pre-crash results
//! and re-queue interrupted jobs. Results and trained models are cached
//! content-addressed by each spec's canonical hash
//! ([`marioh_store::JobSpec::content_hash`]): identical resubmissions
//! are answered instantly with `cached: true` and no pipeline run, and a
//! `"model": "job:<id>"` (or saved-model name) parameter skips training,
//! reproducing its donor bit-for-bit via the stored post-training RNG
//! state. See `README.md` ("Persistence & caching") for the on-disk
//! layout and examples.
//!
//! # Example
//!
//! ```
//! use marioh_server::{client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default())?; // 127.0.0.1, ephemeral port
//! let addr = server.local_addr();
//! let accepted = client::post(addr, "/jobs", r#"{"dataset": "Hosts", "seed": 1}"#)?;
//! assert_eq!(accepted.status, 201);
//! let id = accepted.json().unwrap().get("id").unwrap().as_u64().unwrap();
//! // Poll GET /jobs/{id} until terminal, then fetch /jobs/{id}/result …
//! let status = client::get(addr, &format!("/jobs/{id}"))?;
//! assert_eq!(status.status, 200);
//! server.shutdown(); // cancels in-flight jobs cooperatively
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Cancellation is cooperative end to end: `DELETE /jobs/:id` fires the
//! job's [`marioh_core::CancelToken`], which training polls at every
//! optimiser epoch and the reconstruction loop at every round boundary —
//! a running job terminates within one epoch or one search round of
//! whatever stage it is in. [`Server::shutdown`] does the same for every
//! in-flight job.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;
pub mod server;
mod shards;
mod worker;

// The JSON codec moved to `marioh-store` with the rest of the
// persistence-facing encoding; the server-side path stays valid.
pub use marioh_store::json;

pub use job::{
    BatchError, BatchSubmission, JobInput, JobManager, JobParams, JobResult, JobSpec, JobStatus,
    JobView, ModelRef, ServerStats, SubmitError,
};
pub use json::Json;
pub use server::{Server, ServerConfig, StorageConfig};
