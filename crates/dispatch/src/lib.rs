//! `marioh-dispatch`: the job runner, and sharded multi-process job
//! serving over the `marioh-wire` framed protocol.
//!
//! Every serving mode runs a job through one function,
//! [`run_dispatched`]: the server's in-process worker pool, the shard
//! worker processes, and the dispatcher's breaker reroute. It streams
//! progress as [`DispatchEvent`]s and contains a panicking job as a
//! typed failure.
//!
//! A [`Dispatcher`] hash-partitions jobs by their canonical spec hash
//! across N stateless shard workers — separate OS processes speaking
//! [`marioh_wire`] over loopback TCP — merges their frames back into the
//! caller's stores, and supervises the worker fleet (heartbeats, SIGKILL
//! detection, respawn, idempotent re-dispatch, a crash-loop breaker that
//! reroutes a shard's jobs into this process).
//!
//! Three properties carry the design:
//!
//! * **Determinism.** [`execute_job`] is the single definition of
//!   running a job, and [`run_dispatched`] its single caller, so a
//!   sharded batch is bit-identical to a single-process one.
//! * **Statelessness.** A `Dispatch` frame carries everything a worker
//!   needs (spec JSON, spec hash, optional model bytes); workers keep
//!   nothing between jobs. Recovery from a killed worker is therefore
//!   just re-sending the frame.
//! * **Content addressing.** Spec hashes key both the partitioning
//!   (twin jobs land on the same shard) and re-dispatch idempotency (a
//!   result that already landed is never recomputed).
//!
//! The crate deliberately knows nothing about HTTP or the job store:
//! the server feeds it [`DispatchJob`]s and receives [`DispatchEvent`]
//! batches through the [`DispatchEvents`] trait, one callback per frame
//! sweep, so a durable store can absorb a whole sweep in one fsync.

#![warn(missing_docs)]

pub mod dispatcher;
pub mod exec;
pub mod shard_worker;

pub use dispatcher::{
    shard_for, DispatchConfig, DispatchEvent, DispatchEvents, DispatchJob, Dispatcher, ShardStatus,
    WorkerCommand,
};
pub use exec::{cancellable_sleep, execute_job, run_dispatched, Emit};
