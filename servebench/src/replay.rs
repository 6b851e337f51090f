//! The traced replay: one served job re-run in-process, call by call.
//!
//! [`replay_job`] calls, in `marioh_dispatch::execute_job`'s order and
//! off the same seeded RNG, the public functions that job composes —
//! split, training-set build, scaler and MLP fit, projection, filtering
//! and search, Jaccard — and times each call with the bench's own
//! clock. Nothing inside the program is instrumented for it: the
//! enumeration/scoring/commit/MHH-patch split is read from the phase
//! histograms the engine already records, as deltas around the call.
//! The replayed result must equal the served one bit for bit, which
//! shows the ledger measured the work the server did.

use marioh_core::filtering::FilterStats;
use marioh_core::training::{build_training_set, subsample_supervision};
use marioh_core::{CancelToken, FeatureMode, Pipeline, ProgressObserver, SavedModel, TrainedModel};
use marioh_datasets::split::split_source_target;
use marioh_hypergraph::metrics::jaccard;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::Hypergraph;
use marioh_ml::{Mlp, StandardScaler};
use marioh_store::{JobInput, JobResult, JobSpec, Json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::Instant;

/// Engine phases whose `marioh_phase_seconds` sums the replay reads.
pub const PHASES: [&str; 4] = ["enumeration", "scoring", "commit", "mhh_patch"];

/// Per-layer cost of one replayed job. Times are milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// `Json::parse` + `JobSpec::from_json` of the request body, as the
    /// server does on submit (and a shard worker again on dispatch).
    pub spec_parse_ms: f64,
    pub split_ms: f64,
    /// `None` when the job reused a model (no training on its path).
    pub training: Option<TrainingLedger>,
    pub project_ms: f64,
    pub filtering_ms: f64,
    pub filtering_pairs: usize,
    pub search_ms: f64,
    pub rounds: usize,
    pub cliques_enumerated: usize,
    pub committed: usize,
    pub reuse_ratio: f64,
    /// Sums of the engine's own phase spans during the call, in
    /// [`PHASES`] order.
    pub phase_ms: [f64; 4],
    pub jaccard_ms: f64,
}

#[derive(Debug, Clone, Default)]
pub struct TrainingLedger {
    pub training_set_ms: f64,
    pub rows: usize,
    /// Scaler fit + transform, MLP construction and optimiser.
    pub fit_ms: f64,
    pub row_epochs: u64,
}

pub struct Replayed {
    /// The spec, parsed from the request body as the server parses it.
    pub spec: JobSpec,
    pub result: JobResult,
    /// The model this job trained, with its post-training RNG state
    /// (what the server stores for `"model": "job:<id>"` reuse).
    pub trained: Option<SavedModel>,
    pub ledger: Ledger,
}

/// Parses a `POST /jobs` body exactly as the server does.
pub fn parse_spec(body: &str) -> Result<JobSpec, String> {
    JobSpec::from_json(&Json::parse(body)?)
}

/// The hypergraph a generated body uploads.
pub fn uploaded(spec: &JobSpec) -> Result<&Hypergraph, String> {
    match &spec.input {
        JobInput::Edges(h) => Ok(h),
        JobInput::Dataset { .. } => Err("benchmark jobs upload their edges".to_owned()),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn phase_micros() -> [u64; 4] {
    PHASES.map(|phase| {
        marioh_obs::global()
            .histogram_with("marioh_phase_seconds", &[("phase", phase)])
            .sum_micros()
    })
}

/// Timestamps the end of the filtering stage from the observer
/// callback, so filtering and search are split on the bench's clock.
struct FilterClock(Mutex<Option<(Instant, usize)>>);

impl ProgressObserver for FilterClock {
    fn on_filtering_done(&self, stats: &FilterStats, _secs: f64) {
        *self.0.lock().expect("filter clock lock") = Some((Instant::now(), stats.pairs_identified));
    }
}

/// Re-runs the job `body` in-process. `reuse` is the donor model for a
/// `"model": "job:<id>"` spec (the server resolves it from its artifact
/// store; the replay is handed the donor's replayed model).
pub fn replay_job(body: &str, reuse: Option<&SavedModel>) -> Result<Replayed, String> {
    let t = Instant::now();
    let spec = parse_spec(body)?;
    let spec_parse_ms = ms(t);
    if spec.model.is_some() != reuse.is_some() {
        return Err("a model-reusing spec needs its donor model, and only then".to_owned());
    }
    let pipeline = spec
        .apply(Pipeline::builder())
        .build()
        .map_err(|e| e.to_string())?;
    let hypergraph = uploaded(&spec)?;
    let mut ledger = Ledger {
        spec_parse_ms,
        ..Ledger::default()
    };

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let t = Instant::now();
    let (source, target) = split_source_target(hypergraph, &mut rng);
    ledger.split_ms = ms(t);

    let (model, trained) = match reuse {
        Some(saved) => {
            if let Some(state) = saved.rng_state {
                rng = StdRng::from_state(state);
            }
            (saved.model.clone(), None)
        }
        None => {
            let cfg = pipeline.training_config();
            let reduced;
            let effective = if cfg.supervision_fraction < 1.0 {
                reduced = subsample_supervision(&source, cfg.supervision_fraction, &mut rng);
                &reduced
            } else {
                &source
            };
            let t = Instant::now();
            let set = build_training_set(effective, cfg, &mut rng);
            let training_set_ms = ms(t);
            let t = Instant::now();
            let scaler = StandardScaler::fit(&set.features);
            let scaled = scaler.transform_batch(&set.features);
            let mode: FeatureMode = cfg.feature_mode;
            let mut mlp = Mlp::new(mode.dim(), &cfg.hidden, &mut rng);
            mlp.train_with_stop(&scaled, &set.labels, &cfg.optimizer, &mut rng, &mut || {
                false
            });
            let fit_ms = ms(t);
            ledger.training = Some(TrainingLedger {
                training_set_ms,
                rows: set.labels.len(),
                fit_ms,
                row_epochs: (set.labels.len() * cfg.optimizer.epochs) as u64,
            });
            let model = TrainedModel::new(mlp, scaler, mode);
            let saved = SavedModel {
                model: model.clone(),
                rng_state: Some(rng.state()),
            };
            (model, Some(saved))
        }
    };

    let t = Instant::now();
    let g = project(&target);
    ledger.project_ms = ms(t);

    let clock = FilterClock(Mutex::new(None));
    let phases_before = phase_micros();
    let t = Instant::now();
    let (reconstruction, report) = marioh_core::reconstruct::reconstruct_observed(
        &g,
        &model,
        pipeline.config(),
        &clock,
        &CancelToken::new(),
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let done = Instant::now();
    let phases_after = phase_micros();
    match clock.0.into_inner().expect("filter clock lock") {
        Some((filtered, pairs)) => {
            ledger.filtering_ms = (filtered - t).as_secs_f64() * 1e3;
            ledger.search_ms = (done - filtered).as_secs_f64() * 1e3;
            ledger.filtering_pairs = pairs;
        }
        None => ledger.search_ms = (done - t).as_secs_f64() * 1e3,
    }
    for (i, (a, b)) in phases_before.iter().zip(phases_after).enumerate() {
        ledger.phase_ms[i] = (b - a) as f64 / 1e3;
    }
    ledger.rounds = report.rounds.len();
    ledger.cliques_enumerated = report.rounds.iter().map(|r| r.cliques_enumerated).sum();
    ledger.committed = report
        .rounds
        .iter()
        .map(|r| r.committed_phase1 + r.committed_phase2)
        .sum();
    ledger.reuse_ratio = report.reuse_ratio();

    let t = Instant::now();
    let similarity = jaccard(&target, &reconstruction);
    ledger.jaccard_ms = ms(t);

    Ok(Replayed {
        spec,
        result: JobResult {
            reconstruction,
            jaccard: similarity,
        },
        trained,
        ledger,
    })
}
