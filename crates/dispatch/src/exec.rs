//! The job runner: the one place every serving mode runs a job.
//!
//! [`run_dispatched`] is called by the in-process worker pool, by shard
//! worker processes, and by the dispatcher's breaker reroute. It builds
//! the job's progress observer, which reports through a [`DispatchEvent`]
//! callback and applies the per-round `throttle_ms` pacing. It runs
//! [`execute_job`] inside a panic boundary and returns the typed outcome.
//! A panicking job fails with an `internal error`, is counted in
//! `marioh_jobs_panicked_total`, and leaves its thread alive.
//!
//! [`execute_job`] is the single definition of the job itself: input
//! resolution, the seeded split → train → reconstruct pipeline, and model
//! reuse with RNG-state restoration. There is one execution path, which
//! is what makes `--shards N` results bit-identical to `--workers N`.
//!
//! Dataset inputs are resolved through a small process-wide memo:
//! generation is deterministic (each registry dataset has a fixed
//! generation seed), so a batch of jobs over the same dataset generates
//! it once per process instead of once per job.

use crate::dispatcher::{DispatchEvent, DispatchJob};
use marioh_core::search::SearchStats;
use marioh_core::{
    CancelToken, MariohError, Pipeline, ProgressObserver, Reconstructor as _, SavedModel,
};
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_hypergraph::metrics::jaccard;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::Hypergraph;
use marioh_store::{encode_result, JobInput, JobResult, JobSpec, Json};
use rand::{rngs::StdRng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Granularity of cancellable sleeps.
const SLEEP_SLICE: Duration = Duration::from_millis(10);

/// Generated datasets kept per process; a batch rarely spans more.
const DATASET_MEMO_CAP: usize = 8;

/// Where a running job reports its events.
pub type Emit = Arc<dyn Fn(DispatchEvent) + Send + Sync>;

/// Sleeps for `ms` milliseconds in small slices, returning early (and
/// reporting whether it completed) once `cancel` fires.
pub fn cancellable_sleep(ms: u64, cancel: &CancelToken) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_millis(ms);
    while std::time::Instant::now() < deadline {
        if cancel.is_cancelled() {
            return false;
        }
        std::thread::sleep(SLEEP_SLICE.min(deadline - std::time::Instant::now()));
    }
    !cancel.is_cancelled()
}

/// Memo key: registry dataset name + the scale's exact bits.
type DatasetKey = (&'static str, u64);

/// Process-wide memo of generated registry datasets. Generation is
/// deterministic, so sharing is invisible to results; it only saves the
/// repeated work when a batch fans many jobs over one dataset.
static DATASET_MEMO: Mutex<Vec<(DatasetKey, Arc<Hypergraph>)>> = Mutex::new(Vec::new());

fn dataset_hypergraph(dataset: PaperDataset, scale: f64) -> Arc<Hypergraph> {
    let key = (dataset.name(), scale.to_bits());
    if let Some(hit) = {
        let memo = DATASET_MEMO.lock().expect("dataset memo lock poisoned");
        memo.iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| Arc::clone(h))
    } {
        return hit;
    }
    // Generate outside the lock so concurrent jobs on *different*
    // datasets do not serialize behind each other.
    let generated = Arc::new(dataset.generate_scaled(scale).hypergraph);
    let mut memo = DATASET_MEMO.lock().expect("dataset memo lock poisoned");
    if let Some((_, existing)) = memo.iter().find(|(k, _)| *k == key) {
        return Arc::clone(existing); // lost a race; both copies are identical
    }
    memo.push((key, Arc::clone(&generated)));
    if memo.len() > DATASET_MEMO_CAP {
        memo.remove(0);
    }
    generated
}

/// Runs one job to completion (or cancellation). Returns the result
/// and, when the job trained its own classifier, the model (with the
/// post-training RNG state) for the artifact store.
///
/// Every job runs split → train → reconstruct off one `StdRng` seeded
/// with the job's seed, so the result is bit-identical to a direct
/// [`Pipeline`] run with the same inputs — and identical across serving
/// modes. A spec reusing a model skips training entirely: restoring the
/// donor's post-training RNG state makes the reconstruction
/// bit-identical to the donor's when input and seed match.
///
/// # Errors
///
/// [`MariohError::Cancelled`] when `cancel` fires, or whatever the
/// pipeline itself fails with.
pub fn execute_job(
    spec: JobSpec,
    reuse: Option<SavedModel>,
    observer: Arc<dyn ProgressObserver>,
    cancel: CancelToken,
) -> Result<(JobResult, Option<SavedModel>), MariohError> {
    if spec.throttle_ms > 0 && !cancellable_sleep(spec.throttle_ms, &cancel) {
        return Err(MariohError::Cancelled);
    }
    let builder = spec
        .apply(Pipeline::builder())
        .observer(observer)
        .cancel_token(cancel.clone());
    let hypergraph: Arc<Hypergraph> = match spec.input {
        JobInput::Dataset { dataset, scale } => {
            dataset_hypergraph(dataset, scale.unwrap_or_else(|| dataset.default_scale()))
        }
        JobInput::Edges(h) => Arc::new(h),
    };
    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (source, target) = split_source_target(&hypergraph, &mut rng);
    let pipeline = builder.build()?; // validated at submission; cannot fail here
    let (model, trained) = match reuse {
        Some(saved) => {
            // Skip training entirely. Restoring the donor's post-training
            // RNG position makes the reconstruction bit-identical to the
            // donor's when input and seed match (the observer's
            // on_training_done never fires on this path).
            if let Some(state) = saved.rng_state {
                rng = StdRng::from_state(state);
            }
            (pipeline.with_model(saved.model), None)
        }
        None => {
            let model = pipeline.train(&source, &mut rng)?;
            let saved = SavedModel {
                model: model.model().clone(),
                rng_state: Some(rng.state()),
            };
            (model, Some(saved))
        }
    };
    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    let reconstruction = model.reconstruct(&project(&target), &mut rng)?;
    let similarity = jaccard(&target, &reconstruction);
    Ok((
        JobResult {
            reconstruction,
            jaccard: similarity,
        },
        trained,
    ))
}

/// Runs one job through [`execute_job`], reporting progress through
/// `emit`, with a panic inside the job contained at this boundary.
///
/// The observer emits [`DispatchEvent::Progress`] for every round (with
/// the round's engine counters), commit, finished training and error
/// note, and sleeps `throttle_ms` after each round. A non-cancel failure
/// is emitted as an error note before it is returned. The outcome itself
/// is returned, never emitted: each caller records it its own way.
///
/// # Errors
///
/// Whatever [`execute_job`] fails with, or [`MariohError::Internal`]
/// when the job panicked.
pub fn run_dispatched(
    job: u64,
    spec: JobSpec,
    reuse: Option<SavedModel>,
    cancel: CancelToken,
    emit: Emit,
) -> Result<(JobResult, Option<SavedModel>), MariohError> {
    let observer = Arc::new(EmitObserver {
        job,
        throttle_ms: spec.throttle_ms,
        cancel: cancel.clone(),
        emit,
    });
    let outcome = contain_panics(|| {
        if marioh_fault::hit("job.run") == Some(marioh_fault::Action::Panic) {
            panic!("injected fault at job.run");
        }
        execute_job(spec, reuse, observer.clone(), cancel)
    });
    if let Err(e) = &outcome {
        if !matches!(e, MariohError::Cancelled) {
            observer.on_error(&e.to_string());
        }
    }
    outcome
}

/// Runs `job`, turning a panic into [`MariohError::Internal`] and
/// counting it in `marioh_jobs_panicked_total`.
fn contain_panics<T>(job: impl FnOnce() -> Result<T, MariohError>) -> Result<T, MariohError> {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        marioh_obs::global()
            .counter("marioh_jobs_panicked_total")
            .inc();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err(MariohError::Internal(format!("job panicked: {message}")))
    })
}

/// Runs a job as it travels on the wire: decodes the spec JSON and the
/// model bytes, runs it through [`run_dispatched`], and emits the outcome
/// as [`DispatchEvent::Done`] (with the artifact-store encoding of the
/// result) or [`DispatchEvent::Failed`]. Shared by shard workers and the
/// dispatcher's breaker reroute.
pub(crate) fn run_encoded(job: DispatchJob, emit: Emit) {
    let failed = |message: String, cancelled: bool| DispatchEvent::Failed {
        job: job.id,
        message,
        cancelled,
    };
    let spec = Json::parse(&job.spec_json)
        .map_err(|e| e.to_string())
        .and_then(|json| JobSpec::from_json(&json).map_err(|e| e.to_string()));
    let reuse = job.model.as_deref().map(SavedModel::read_from).transpose();
    let event = match (spec, reuse) {
        // Can only happen on a dispatcher bug: specs were validated at
        // submission and re-encoded faithfully.
        (Err(e), _) => failed(format!("could not parse dispatched spec: {e}"), false),
        (_, Err(e)) => failed(format!("could not decode dispatched model: {e}"), false),
        (Ok(spec), Ok(reuse)) => {
            match run_dispatched(job.id, spec, reuse, job.cancel, Arc::clone(&emit)) {
                Ok((result, trained)) => DispatchEvent::Done {
                    job: job.id,
                    spec_hash: job.spec_hash,
                    payload: encode_result(&result),
                    model: trained.as_ref().map(SavedModel::to_bytes),
                },
                Err(e) => failed(e.to_string(), matches!(e, MariohError::Cancelled)),
            }
        }
    };
    emit(event);
}

/// The runner's progress observer: every callback becomes one
/// [`DispatchEvent::Progress`].
struct EmitObserver {
    job: u64,
    throttle_ms: u64,
    cancel: CancelToken,
    emit: Emit,
}

impl EmitObserver {
    fn progress(
        &self,
        rounds: Option<usize>,
        committed: Option<usize>,
        stats: Option<&SearchStats>,
        trained: bool,
        note: Option<String>,
    ) {
        (self.emit)(DispatchEvent::Progress {
            job: self.job,
            rounds: rounds.map(|r| r as u64),
            committed: committed.map(|c| c as u64),
            reused: stats.map_or(0, |s| s.cliques_reused as u64),
            rescored: stats.map_or(0, |s| s.cliques_rescored as u64),
            trained,
            note,
        });
    }
}

impl ProgressObserver for EmitObserver {
    fn on_round(&self, round: usize, _theta: f64, stats: &SearchStats) {
        self.progress(Some(round), None, Some(stats), false, None);
        if self.throttle_ms > 0 {
            cancellable_sleep(self.throttle_ms, &self.cancel);
        }
    }

    fn on_commit(&self, _round: usize, _committed: usize, total_committed: usize) {
        self.progress(None, Some(total_committed), None, false, None);
    }

    fn on_training_done(&self, _secs: f64) {
        self.progress(None, None, None, true, None);
    }

    fn on_error(&self, msg: &str) {
        self.progress(None, None, None, false, Some(msg.to_owned()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_core::NoopObserver;
    use marioh_store::Json;

    fn spec(body: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn memoized_dataset_generation_does_not_change_results() {
        let run = |_: usize| {
            execute_job(
                spec(r#"{"dataset": "Hosts", "seed": 11}"#),
                None,
                Arc::new(NoopObserver),
                CancelToken::new(),
            )
            .expect("job runs")
        };
        let (first, _) = run(0);
        let (second, _) = run(1); // second run hits the memo
        assert_eq!(first.jaccard.to_bits(), second.jaccard.to_bits());
        assert_eq!(
            first.reconstruction.sorted_edges(),
            second.reconstruction.sorted_edges()
        );
        let memo = DATASET_MEMO.lock().unwrap();
        assert!(memo.iter().any(|((name, _), _)| *name == "Hosts"));
    }

    #[test]
    fn the_runner_streams_progress_and_returns_the_executed_result() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let emit: Emit = Arc::new(move |event| sink.lock().unwrap().push(event));
        let body = r#"{"dataset": "Hosts", "seed": 11}"#;
        let (result, trained) =
            run_dispatched(7, spec(body), None, CancelToken::new(), emit).expect("job runs");
        assert!(trained.is_some());
        let (direct, _) =
            execute_job(spec(body), None, Arc::new(NoopObserver), CancelToken::new()).unwrap();
        assert_eq!(result.jaccard.to_bits(), direct.jaccard.to_bits());
        let events = events.lock().unwrap();
        let progress = |pick: fn(&DispatchEvent) -> bool| events.iter().filter(|e| pick(e)).count();
        assert_eq!(
            progress(|e| matches!(
                e,
                DispatchEvent::Progress {
                    job: 7,
                    trained: true,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            progress(|e| matches!(
                e,
                DispatchEvent::Progress {
                    rounds: Some(1),
                    ..
                }
            )),
            1
        );
        assert!(
            progress(|e| matches!(
                e,
                DispatchEvent::Progress {
                    committed: Some(_),
                    ..
                }
            )) >= 1
        );
        assert_eq!(
            progress(|e| !matches!(e, DispatchEvent::Progress { .. })),
            0
        );
    }

    #[test]
    fn a_panic_is_contained_as_a_counted_internal_error() {
        let panicked = || {
            marioh_obs::global()
                .counter("marioh_jobs_panicked_total")
                .get()
        };
        let before = panicked();
        let err = contain_panics(|| -> Result<(), MariohError> { panic!("boom") }).unwrap_err();
        assert!(matches!(err, MariohError::Internal(_)));
        assert_eq!(err.to_string(), "internal error: job panicked: boom");
        let n = 3;
        let err = contain_panics(|| -> Result<(), MariohError> { panic!("boom {n}") }).unwrap_err();
        assert_eq!(err.to_string(), "internal error: job panicked: boom 3");
        assert_eq!(panicked() - before, 2);
        assert_eq!(contain_panics(|| Ok(5)).unwrap(), 5);
    }

    #[test]
    fn cancel_during_throttle_returns_cancelled() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = execute_job(
            spec(r#"{"dataset": "Hosts", "throttle_ms": 60000}"#),
            None,
            Arc::new(NoopObserver),
            cancel,
        )
        .unwrap_err();
        assert!(matches!(err, MariohError::Cancelled));
    }
}
