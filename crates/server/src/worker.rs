//! The in-process worker pool: each worker takes the next job from
//! [`JobManager::next_run`] and runs it through the job runner shared
//! with the shard workers, [`marioh_dispatch::run_dispatched`].
//!
//! Both serving modes share the steps around the run, which is what
//! makes `--shards N` results bit-identical to `--workers N`:
//!
//! * **Before the run** ([`JobManager::next_run`]): a job whose twin
//!   finished while it queued is answered from the artifact cache, and a
//!   `model: "job:<id>"` (or saved-model) reference resolves to the
//!   stored [`marioh_core::SavedModel`], whose post-training RNG state
//!   makes the reconstruction bit-identical to the donor's with zero
//!   training epochs.
//! * **During the run**: progress events fold into the job store through
//!   the same [`EventSink`] that folds shard progress frames.
//! * **After the run**: a trained model is stored under the job's spec
//!   hash, and the outcome finishes the job. A job that panicked fails
//!   with an `internal error`, and the worker takes the next job.

use crate::job::{DispatchedJob, JobManager};
use crate::shards::EventSink;
use marioh_dispatch::{run_dispatched, DispatchEvents, Emit};
use std::sync::Arc;
use std::thread::JoinHandle;

fn run_worker(manager: JobManager) {
    let sink = EventSink {
        manager: manager.clone(),
    };
    let emit: Emit = Arc::new(move |event| sink.on_batch(vec![event]));
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
        let outcome =
            run_dispatched(id, spec, reuse, cancel, Arc::clone(&emit)).map(|(result, trained)| {
                if let Some(saved) = trained {
                    manager.store_model(&spec_hash, &saved);
                }
                result
            });
        manager.finish(id, outcome);
    }
}

/// Spawns `n` worker threads draining `manager`'s queue. The threads
/// exit when [`JobManager::shutdown`] fires. With `pin`, each worker is
/// pinned to a CPU core round-robin over the cores the process may run
/// on — a scheduling hint only; results are bit-identical either way.
pub(crate) fn spawn_workers(manager: &JobManager, n: usize, pin: bool) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let manager = manager.clone();
            std::thread::Builder::new()
                .name(format!("marioh-worker-{i}"))
                .spawn(move || {
                    if pin {
                        marioh_kernels::pin_to_core(i % marioh_kernels::available_cores());
                    }
                    run_worker(manager)
                })
                .expect("spawn worker thread")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, JobStatus};
    use crate::json::Json;
    use marioh_datasets::split::split_source_target;
    use rand::{rngs::StdRng, SeedableRng};
    use std::time::Duration;

    fn spec(body: &str) -> JobSpec {
        JobSpec::from_json(&Json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn a_worker_pool_drains_jobs_to_done() {
        let manager = JobManager::new(16, 2);
        let workers = spawn_workers(&manager, 2, true);
        let ids: Vec<u64> = (0..3)
            .map(|seed| {
                manager
                    .submit(spec(&format!(r#"{{"dataset": "Hosts", "seed": {seed}}}"#)))
                    .unwrap()
            })
            .collect();
        for id in &ids {
            while !manager.view(*id).unwrap().status.is_terminal() {
                std::thread::sleep(Duration::from_millis(5));
            }
            let view = manager.view(*id).unwrap();
            assert_eq!(view.status, JobStatus::Done, "job {id}: {view:?}");
            let (_, result) = manager.result(*id).unwrap();
            let result = result.expect("done jobs carry a result");
            assert!(result.reconstruction.unique_edge_count() > 0);
            assert!(result.jaccard > 0.5, "jaccard {}", result.jaccard);
        }
        let stats = manager.stats();
        assert_eq!(stats.pipeline_runs, 3);
        assert_eq!(stats.models_trained, 3);
        assert_eq!(stats.cache_hits, 0);
        manager.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn model_reuse_skips_training_and_reproduces_the_donor() {
        let manager = JobManager::new(16, 1);
        let workers = spawn_workers(&manager, 1, false);
        let donor = manager
            .submit(spec(r#"{"dataset": "Hosts", "seed": 5}"#))
            .unwrap();
        while !manager.view(donor).unwrap().status.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(manager.view(donor).unwrap().status, JobStatus::Done);
        let trained_before = manager.stats().models_trained;
        assert_eq!(trained_before, 1);

        // Same input and seed, but reusing the donor's model. The result
        // cache would short-circuit an *identical* spec, but the model
        // reference changes the hash, so this runs a real pipeline —
        // without training.
        let reuser = manager
            .submit(spec(&format!(
                r#"{{"dataset": "Hosts", "seed": 5, "model": "job:{donor}"}}"#
            )))
            .unwrap();
        while !manager.view(reuser).unwrap().status.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let view = manager.view(reuser).unwrap();
        assert_eq!(view.status, JobStatus::Done, "{view:?}");
        let stats = manager.stats();
        assert_eq!(
            stats.models_trained, trained_before,
            "reuse job must not train (observer saw no on_training_done)"
        );
        assert_eq!(stats.pipeline_runs, 2, "reuse still runs a pipeline");

        // Bit-identical reconstruction, thanks to the restored RNG state.
        let donor_result = manager.result(donor).unwrap().1.unwrap();
        let reuse_result = manager.result(reuser).unwrap().1.unwrap();
        assert_eq!(
            donor_result.jaccard.to_bits(),
            reuse_result.jaccard.to_bits()
        );
        assert_eq!(
            donor_result.reconstruction.sorted_edges(),
            reuse_result.reconstruction.sorted_edges()
        );
        manager.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn throttled_job_cancels_during_its_start_delay() {
        let manager = JobManager::new(4, 1);
        let workers = spawn_workers(&manager, 1, false);
        let id = manager
            .submit(spec(r#"{"dataset": "Hosts", "throttle_ms": 60000}"#))
            .unwrap();
        while manager.view(id).unwrap().status != JobStatus::Running {
            std::thread::sleep(Duration::from_millis(2));
        }
        let t0 = std::time::Instant::now();
        assert_eq!(manager.cancel(id), Some(JobStatus::Cancelled));
        // The worker frees its slot promptly, long before the 60 s delay.
        while manager.stats().running > 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "worker still busy");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(manager.view(id).unwrap().status, JobStatus::Cancelled);
        manager.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn empty_source_fails_and_surfaces_through_on_error() {
        let manager = JobManager::new(4, 1);
        let workers = spawn_workers(&manager, 1, false);
        // A 1-event upload: any seed whose 50/50 split sends that event
        // to the target side leaves the source empty, so training fails.
        let mut h = marioh_hypergraph::Hypergraph::new(0);
        h.add_edge(marioh_hypergraph::hyperedge::edge(&[0, 1]));
        let seed = (0..64)
            .find(|s| {
                let mut rng = StdRng::seed_from_u64(*s);
                split_source_target(&h, &mut rng).0.unique_edge_count() == 0
            })
            .expect("some seed empties a 1-event source");
        let id = manager
            .submit(spec(&format!(r#"{{"edges": "1 0 1", "seed": {seed}}}"#)))
            .unwrap();
        while !manager.view(id).unwrap().status.is_terminal() {
            std::thread::sleep(Duration::from_millis(2));
        }
        let view = manager.view(id).unwrap();
        assert_eq!(view.status, JobStatus::Failed);
        let msg = view.error.expect("failed jobs carry an error");
        assert!(msg.contains("empty source"), "{msg}");
        manager.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }
}
