//! The bridge between [`marioh_dispatch`] and the [`JobManager`].
//!
//! * [`EventSink`] folds runner events into the job and artifact stores:
//!   progress becomes store transitions, `Done` payloads (the exact
//!   artifact-store encoding) become finished jobs plus stored models,
//!   and failures map onto the error and cancellation paths. The
//!   dispatcher hands it one merged sweep per `on_batch` call, which
//!   lands as one durable-store commit; the in-process worker pool hands
//!   it its progress events one at a time.
//! * [`spawn_shard_router`] replaces the in-process worker pool in shard
//!   mode. A single router thread takes jobs from
//!   [`JobManager::next_run`] (the same cache consult and model
//!   resolution a worker does) and hands them to the [`Dispatcher`],
//!   which hash-partitions them onto shard worker processes.

use crate::job::{DispatchedJob, JobManager, JobResult};
use marioh_core::{MariohError, SavedModel};
use marioh_dispatch::{DispatchEvent, DispatchEvents, DispatchJob, Dispatcher};
use marioh_store::{decode_result, SpecHash, Transition};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Folds runner events into the job and artifact stores.
pub(crate) struct EventSink {
    pub(crate) manager: JobManager,
}

impl DispatchEvents for EventSink {
    fn on_batch(&self, events: Vec<DispatchEvent>) {
        let mut progress: Vec<(u64, Transition)> = Vec::new();
        let mut outcomes: Vec<(u64, Result<JobResult, MariohError>)> = Vec::new();
        for event in events {
            match event {
                DispatchEvent::Progress {
                    job,
                    rounds,
                    committed,
                    // Engine reuse totals arrive through each worker's
                    // pushed metrics snapshot instead (wire v2); the
                    // Progress fields stay for v1 compatibility.
                    reused: _,
                    rescored: _,
                    trained,
                    note,
                } => {
                    if trained {
                        self.manager.note_trained();
                    }
                    if rounds.is_some() || committed.is_some() {
                        progress.push((
                            job,
                            Transition::Progress {
                                rounds: rounds.map(|r| r as usize),
                                committed: committed.map(|c| c as usize),
                            },
                        ));
                    }
                    if let Some(note) = note {
                        progress.push((job, Transition::Note(note)));
                    }
                }
                DispatchEvent::Done {
                    job,
                    spec_hash,
                    payload,
                    model,
                } => match decode_result(&payload) {
                    Ok(result) => {
                        let hash = SpecHash::from_bytes(spec_hash);
                        if let Some(bytes) = model {
                            // The model is a reuse optimization, not part
                            // of the result: a decode failure is noted,
                            // never fatal.
                            match SavedModel::read_from(&bytes[..]) {
                                Ok(saved) => self.manager.store_model(&hash, &saved),
                                Err(e) => progress.push((
                                    job,
                                    Transition::Note(format!("shard model discarded: {e}")),
                                )),
                            }
                        }
                        outcomes.push((job, Ok(result)));
                    }
                    Err(e) => outcomes.push((
                        job,
                        Err(MariohError::config(format!(
                            "shard returned an undecodable result: {e}"
                        ))),
                    )),
                },
                DispatchEvent::Failed {
                    job,
                    message,
                    cancelled,
                } => {
                    // The worker already streamed `on_error` as a note
                    // frame, so plain failures need no extra Note here.
                    let err = if cancelled {
                        MariohError::Cancelled
                    } else {
                        MariohError::config(message)
                    };
                    outcomes.push((job, Err(err)));
                }
                DispatchEvent::ShardRespawned { .. } => self.manager.note_shard_restart(),
            }
        }
        // Progress first so a job's final transition is its outcome.
        self.manager.record_progress_batch(progress);
        self.manager.finish_batch(outcomes);
    }

    fn result_already_landed(&self, job: u64, spec_hash: &[u8; 32]) -> bool {
        // A twin of the dead shard's job may have finished elsewhere —
        // its artifact is this job's answer, so skip the re-dispatch.
        // The common case (no twin) is a cache miss, which the disk
        // store's membership filter answers without touching disk, so
        // this probe is safe to run on every respawned job.
        let hash = SpecHash::from_bytes(*spec_hash);
        match self.manager.cached_result(&hash) {
            Some(result) => {
                self.manager.finish_cached(job, result);
                true
            }
            None => false,
        }
    }
}

/// Drains the job queue into the dispatcher until shutdown. The single
/// router thread replaces the whole in-process worker pool: execution
/// happens in the shard worker processes, so routing is never the
/// bottleneck.
pub(crate) fn spawn_shard_router(
    manager: &JobManager,
    dispatcher: Arc<Dispatcher>,
) -> JoinHandle<()> {
    let manager = manager.clone();
    std::thread::Builder::new()
        .name("marioh-shard-router".into())
        .spawn(move || route_jobs(manager, dispatcher))
        .expect("spawn shard router thread")
}

fn route_jobs(manager: JobManager, dispatcher: Arc<Dispatcher>) {
    while let Some((
        DispatchedJob {
            id,
            spec,
            spec_hash,
            cancel,
        },
        reuse,
    )) = manager.next_run()
    {
        let job = DispatchJob {
            id,
            spec_hash: *spec_hash.as_bytes(),
            spec_json: spec.to_json().to_string(),
            model: reuse.as_ref().map(SavedModel::to_bytes),
            cancel,
        };
        if let Err(message) = dispatcher.dispatch(job) {
            manager.finish(id, Err(MariohError::config(message)));
        }
    }
}
