//! The MARIOH outer loop (Algorithm 1) and the high-level API.

use crate::engine::SearchEngine;
use crate::error::MariohError;
use crate::filtering::{filtering, FilterStats};
use crate::model::{CliqueScorer, TrainedModel};
use crate::pipeline::Reconstructor;
use crate::progress::{CancelToken, NoopObserver, ProgressObserver};
use crate::search::SearchStats;
use crate::training::{train_classifier, TrainingConfig};
use marioh_hypergraph::{Hypergraph, ProjectedGraph, WorkerPool};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Hyperparameters of the reconstruction loop (Algorithm 1).
#[derive(Debug, Clone)]
pub struct MariohConfig {
    /// Initial classification threshold `θ_init` (Fig. 4 explores
    /// 0.5–1.0; robust across the range).
    pub theta_init: f64,
    /// Negative-prediction processing ratio `r` in percent (Fig. 4
    /// explores 5–100).
    pub neg_ratio: f64,
    /// Threshold adjust ratio `α` (paper default 1/20).
    pub alpha: f64,
    /// Run the theoretically-guaranteed filtering step (disable for the
    /// MARIOH-F ablation).
    pub use_filtering: bool,
    /// Run Phase 2 of the bidirectional search (disable for MARIOH-B).
    pub use_bidirectional: bool,
    /// Safety cap on outer-loop iterations; the loop provably terminates
    /// once `θ` reaches 0 (sigmoid scores are strictly positive), so this
    /// only guards against a pathological scorer.
    pub max_iterations: usize,
    /// Worker threads for the MHH build, clique enumeration and
    /// scoring (1 = serial). A run with more than one creates one
    /// [`WorkerPool`] at its start and keeps it to the end. Results are
    /// identical for any value; only wall-clock time changes.
    pub threads: usize,
    /// Pin the run's pool workers (and the coordinating thread) to CPU
    /// cores, round-robin over the cores the process is allowed to run
    /// on; only effective with `threads > 1`. Purely a scheduling hint:
    /// results are bit-identical either way, and the flag is a silent
    /// no-op on platforms without `sched_setaffinity`.
    pub pin_cores: bool,
}

impl Default for MariohConfig {
    fn default() -> Self {
        MariohConfig {
            theta_init: 0.9,
            neg_ratio: 20.0,
            alpha: 1.0 / 20.0,
            use_filtering: true,
            use_bidirectional: true,
            max_iterations: 10_000,
            threads: 1,
            pin_cores: false,
        }
    }
}

/// Per-run diagnostics: stage timings (Fig. 6) and counters.
#[derive(Debug, Clone, Default)]
pub struct ReconstructionReport {
    /// Filtering-stage statistics (`None` when filtering is disabled).
    pub filter_stats: Option<FilterStats>,
    /// Wall-clock seconds spent in the filtering stage.
    pub filtering_secs: f64,
    /// Wall-clock seconds spent in bidirectional-search rounds.
    pub search_secs: f64,
    /// One entry per outer-loop round.
    pub rounds: Vec<SearchStats>,
}

impl ReconstructionReport {
    /// Total listed cliques carried across rounds without re-enumeration
    /// by the search engine.
    pub fn cliques_reused(&self) -> usize {
        self.rounds.iter().map(|r| r.cliques_reused).sum()
    }

    /// Total listed cliques scored across all rounds.
    pub fn cliques_rescored(&self) -> usize {
        self.rounds.iter().map(|r| r.cliques_rescored).sum()
    }

    /// Share of scored cliques whose list entry was carried from the
    /// previous round: `reused / rescored`, or 0 when nothing ran.
    pub fn reuse_ratio(&self) -> f64 {
        let rescored = self.cliques_rescored();
        if rescored == 0 {
            0.0
        } else {
            self.cliques_reused() as f64 / rescored as f64
        }
    }
}

/// Reconstructs a hypergraph from `g` with an arbitrary scorer
/// (Algorithm 1), reporting progress to `observer` and polling `cancel`
/// at every round boundary. Returns the reconstruction and a diagnostic
/// report.
///
/// This is the observable, cancellable primitive underneath every
/// frontend; [`reconstruct_with_report`] and [`reconstruct`] are the
/// no-observer conveniences, and the [`Reconstructor`] trait routes here
/// with the observer and token carried by the [`Marioh`] handle.
///
/// # Errors
///
/// Returns [`MariohError::Cancelled`] as soon as `cancel` fires —
/// before filtering, at a round boundary, or between the two phases of a
/// round — discarding all partial state. No other error is produced.
pub fn reconstruct_observed<R: Rng + ?Sized>(
    g: &ProjectedGraph,
    scorer: &dyn CliqueScorer,
    cfg: &MariohConfig,
    observer: &dyn ProgressObserver,
    cancel: &CancelToken,
    rng: &mut R,
) -> Result<(Hypergraph, ReconstructionReport), MariohError> {
    let mut report = ReconstructionReport::default();
    let mut reconstruction = Hypergraph::new(g.num_nodes());

    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    // The run's one worker pool: filtering and every search round fan
    // out over it; a serial run spawns nothing.
    let pool = (cfg.threads > 1).then(|| WorkerPool::with_affinity(cfg.threads, cfg.pin_cores));
    let filtered = if cfg.use_filtering {
        let t0 = std::time::Instant::now();
        let (g2, stats) = {
            let _span = marioh_obs::Span::enter("filtering");
            filtering(g, &mut reconstruction, pool.as_ref())
        };
        report.filtering_secs = t0.elapsed().as_secs_f64();
        observer.on_filtering_done(&stats, report.filtering_secs);
        report.filter_stats = Some(stats);
        Some(g2)
    } else {
        None
    };

    let mut theta = cfg.theta_init;
    let t0 = std::time::Instant::now();
    let mut stall_rounds = 0usize;
    let mut total_committed = 0usize;
    // One engine for the whole run: it freezes the (filtered) graph once
    // and owns the residual from then on; the MHH memo and previous
    // round's clique list persist across rounds (commits invalidate only
    // the region around removed edges). Bit-identical to a fresh engine
    // per round.
    let mut engine = SearchEngine::new(filtered.as_ref().unwrap_or(g), pool.as_ref());
    drop(filtered);
    while engine.residual().num_edges() > 0 && report.rounds.len() < cfg.max_iterations {
        let stats = {
            let _span = marioh_obs::Span::enter("round");
            engine.round(
                scorer,
                theta,
                cfg.neg_ratio,
                &mut reconstruction,
                cfg.use_bidirectional,
                cancel,
                rng,
            )?
        };
        // The process-wide reuse totals every serving frontend reads
        // (`/stats`, `/metrics`, `--verbose`): recorded once, here, so
        // no layer above ever keeps its own copy of this accounting.
        marioh_obs::global()
            .counter("marioh_engine_cliques_reused_total")
            .add(stats.cliques_reused as u64);
        marioh_obs::global()
            .counter("marioh_engine_cliques_rescored_total")
            .add(stats.cliques_rescored as u64);
        let committed = stats.committed_phase1 + stats.committed_phase2;
        let round = report.rounds.len() + 1;
        observer.on_round(round, theta, &stats);
        if committed > 0 {
            total_committed += committed;
            observer.on_commit(round, committed, total_committed);
        }
        report.rounds.push(stats);
        // θ = 0 accepts every positively-scored clique, so a zero-commit
        // round *at* θ = 0 means the scorer is returning non-positive
        // scores; bail out rather than loop forever (the safety cap would
        // catch it anyway). Zero-commit rounds at θ > 0 are normal — the
        // threshold just has not decayed enough yet.
        if committed == 0 && theta == 0.0 {
            stall_rounds += 1;
            if stall_rounds >= 2 {
                break;
            }
        } else if committed > 0 {
            stall_rounds = 0;
        }
        theta = (theta - cfg.alpha * cfg.theta_init).max(0.0);
    }
    report.search_secs = t0.elapsed().as_secs_f64();
    observer.on_done(&report);
    Ok((reconstruction, report))
}

/// [`reconstruct_observed`] with no observer and no cancellation.
pub fn reconstruct_with_report<R: Rng + ?Sized>(
    g: &ProjectedGraph,
    scorer: &dyn CliqueScorer,
    cfg: &MariohConfig,
    rng: &mut R,
) -> (Hypergraph, ReconstructionReport) {
    reconstruct_observed(g, scorer, cfg, &NoopObserver, &CancelToken::new(), rng)
        .expect("fresh cancel token: an unobserved run cannot fail")
}

/// [`reconstruct_with_report`] without the diagnostics.
pub fn reconstruct<R: Rng + ?Sized>(
    g: &ProjectedGraph,
    scorer: &dyn CliqueScorer,
    cfg: &MariohConfig,
    rng: &mut R,
) -> Hypergraph {
    reconstruct_with_report(g, scorer, cfg, rng).0
}

/// The high-level MARIOH API: a trained model ready to reconstruct
/// projected graphs from its domain.
///
/// A `Marioh` carries everything one run needs — the classifier, its
/// [`MariohConfig`], a display name, a [`ProgressObserver`] and a
/// [`CancelToken`] — so it implements [`Reconstructor`] directly and
/// plugs into the same method zoo as the baselines. Build one through
/// [`crate::Pipeline`] (validated hyperparameters) or [`Marioh::train`]
/// (defaults).
#[derive(Clone)]
pub struct Marioh {
    model: TrainedModel,
    config: MariohConfig,
    name: String,
    observer: Arc<dyn ProgressObserver>,
    cancel: CancelToken,
}

impl std::fmt::Debug for Marioh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Marioh")
            .field("name", &self.name)
            .field("model", &self.model)
            .field("config", &self.config)
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive() // the observer has no Debug
    }
}

impl Marioh {
    /// Trains MARIOH's classifier on a source hypergraph (Problem 1's
    /// supervision) with the default reconstruction configuration. The
    /// source projection is computed internally.
    ///
    /// # Panics
    ///
    /// Panics if `source` has no hyperedges. [`crate::Pipeline::train`]
    /// is the non-panicking, validated front door.
    pub fn train<R: Rng + ?Sized>(source: &Hypergraph, cfg: &TrainingConfig, rng: &mut R) -> Self {
        Marioh::from_model(train_classifier(source, cfg, rng))
    }

    /// Wraps an already-trained model (e.g. for transfer experiments)
    /// with the default reconstruction configuration.
    pub fn from_model(model: TrainedModel) -> Self {
        Marioh {
            model,
            config: MariohConfig::default(),
            name: "MARIOH".to_owned(),
            observer: Arc::new(NoopObserver),
            cancel: CancelToken::new(),
        }
    }

    /// Replaces the reconstruction configuration carried by this handle
    /// (used by [`Reconstructor::reconstruct`]). Unvalidated — the
    /// validated path is [`crate::Pipeline::builder`].
    pub fn with_config(mut self, config: MariohConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the display name (e.g. an ablation variant's).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Attaches a progress observer to every run through this handle.
    pub fn with_observer(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches a cancellation token to every run through this handle.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The underlying classifier.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The reconstruction configuration carried by this handle.
    pub fn config(&self) -> &MariohConfig {
        &self.config
    }

    /// Reconstructs with an explicit configuration, ignoring the carried
    /// one (hyperparameter sweeps).
    pub fn reconstruct_with<R: Rng + ?Sized>(
        &self,
        g: &ProjectedGraph,
        cfg: &MariohConfig,
        rng: &mut R,
    ) -> Hypergraph {
        reconstruct(g, &self.model, cfg, rng)
    }

    /// Reconstruction with an explicit configuration plus per-stage
    /// diagnostics (Fig. 6 timings).
    pub fn reconstruct_with_report<R: Rng + ?Sized>(
        &self,
        g: &ProjectedGraph,
        cfg: &MariohConfig,
        rng: &mut R,
    ) -> (Hypergraph, ReconstructionReport) {
        reconstruct_with_report(g, &self.model, cfg, rng)
    }

    /// The full observable run: carried configuration, observer, and
    /// cancellation token, returning the diagnostics alongside the
    /// reconstruction.
    ///
    /// # Errors
    ///
    /// Returns [`MariohError::Cancelled`] if the carried token fires.
    pub fn run<R: Rng + ?Sized>(
        &self,
        g: &ProjectedGraph,
        rng: &mut R,
    ) -> Result<(Hypergraph, ReconstructionReport), MariohError> {
        reconstruct_observed(
            g,
            &self.model,
            &self.config,
            self.observer.as_ref(),
            &self.cancel,
            rng,
        )
    }
}

impl Reconstructor for Marioh {
    fn name(&self) -> &str {
        &self.name
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, MariohError> {
        self.run(g, rng).map(|(h, _)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnScorer;
    use marioh_hypergraph::metrics::{jaccard, multi_jaccard};
    use marioh_hypergraph::{hyperedge::edge, projection::project, GraphView, NodeId};
    use rand::{rngs::StdRng, SeedableRng};

    /// Oracle scorer: 1 for true hyperedges of `truth`, small otherwise.
    fn oracle(truth: &Hypergraph) -> impl CliqueScorer + '_ {
        FnScorer(move |_: &GraphView, c: &[NodeId]| {
            let e = marioh_hypergraph::Hyperedge::new(c.iter().copied()).unwrap();
            if truth.contains(&e) {
                0.99
            } else {
                0.01
            }
        })
    }

    #[test]
    fn perfect_scorer_recovers_simple_hypergraph() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[2, 3, 4]));
        h.add_edge(edge(&[5, 6]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = reconstruct(&g, &oracle(&h), &MariohConfig::default(), &mut rng);
        assert_eq!(jaccard(&h, &rec), 1.0);
        assert_eq!(multi_jaccard(&h, &rec), 1.0);
    }

    #[test]
    fn recovers_multiplicity_via_filtering() {
        // {0,1} x3 alongside a triangle: filtering should certify the
        // pair's residual copies and the loop the rest.
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1]), 3);
        h.add_edge(edge(&[2, 3, 4]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(1);
        let (rec, report) =
            reconstruct_with_report(&g, &oracle(&h), &MariohConfig::default(), &mut rng);
        assert_eq!(multi_jaccard(&h, &rec), 1.0);
        let fs = report.filter_stats.unwrap();
        assert_eq!(fs.multiplicity_extracted, 3);
    }

    #[test]
    fn terminates_even_with_hostile_scorer() {
        // Scorer that returns 0 for everything: θ decays to 0; scores are
        // not > 0, so nothing is ever committed — the stall detector must
        // end the loop.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        let g = project(&h);
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MariohConfig {
            max_iterations: 500,
            ..MariohConfig::default()
        };
        let (rec, report) = reconstruct_with_report(&g, &scorer, &cfg, &mut rng);
        assert!(report.rounds.len() < 500);
        assert_eq!(rec.unique_edge_count(), 0);
    }

    #[test]
    fn graph_is_always_emptied_with_positive_scorer() {
        // Any strictly positive scorer empties the graph: once θ = 0 every
        // maximal clique is committed each round.
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2, 3]), 2);
        h.add_edge(edge(&[1, 2]));
        h.add_edge(edge(&[3, 4]));
        let g = project(&h);
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.001);
        let mut rng = StdRng::seed_from_u64(3);
        let (rec, _) = reconstruct_with_report(&g, &scorer, &MariohConfig::default(), &mut rng);
        // Total projected weight of reconstruction equals the input's.
        assert_eq!(project(&rec).total_weight(), g.total_weight());
    }

    #[test]
    fn ablation_flags_change_behaviour() {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1]), 2);
        let g = project(&h);
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.99);
        let mut rng = StdRng::seed_from_u64(4);
        let no_filter = MariohConfig {
            use_filtering: false,
            ..MariohConfig::default()
        };
        let (_, report) = reconstruct_with_report(&g, &scorer, &no_filter, &mut rng);
        assert!(report.filter_stats.is_none());
        let (_, report) = reconstruct_with_report(&g, &scorer, &MariohConfig::default(), &mut rng);
        assert!(report.filter_stats.is_some());
    }

    #[test]
    fn thread_count_does_not_change_the_reconstruction() {
        let mut h = Hypergraph::new(0);
        for b in 0..8u32 {
            let base = b * 4;
            h.add_edge(edge(&[base, base + 1, base + 2]));
            h.add_edge(edge(&[base + 1, base + 2, base + 3]));
            h.add_edge_with_multiplicity(edge(&[base, base + 3]), 2);
        }
        let g = project(&h);
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            let cfg = MariohConfig {
                threads,
                ..MariohConfig::default()
            };
            reconstruct(&g, &oracle(&h), &cfg, &mut rng)
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
    }

    #[test]
    fn end_to_end_trained_pipeline() {
        // Train on one half of a structured hypergraph, reconstruct the
        // other half's projection, and expect a meaningful Jaccard.
        let mut source = Hypergraph::new(0);
        let mut target = Hypergraph::new(0);
        for b in 0..30u32 {
            let base = b * 3;
            let hg = if b % 2 == 0 { &mut source } else { &mut target };
            hg.add_edge(edge(&[base, base + 1, base + 2]));
            hg.add_edge(edge(&[base, base + 1]));
        }
        let mut rng = StdRng::seed_from_u64(5);
        let model = Marioh::train(&source, &TrainingConfig::default(), &mut rng);
        let g = project(&target);
        let rec = model
            .reconstruct(&g, &mut rng)
            .expect("fresh handle is never cancelled");
        let j = jaccard(&target, &rec);
        assert!(j > 0.5, "trained MARIOH scored only {j}");
    }

    #[test]
    fn observer_sees_filtering_rounds_and_commits() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder(Mutex<Vec<String>>);
        impl ProgressObserver for Recorder {
            fn on_filtering_done(&self, stats: &FilterStats, _secs: f64) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("filter:{}", stats.multiplicity_extracted));
            }
            fn on_round(&self, round: usize, theta: f64, stats: &SearchStats) {
                self.0.lock().unwrap().push(format!(
                    "round:{round}:{theta:.3}:{}",
                    stats.committed_phase1 + stats.committed_phase2
                ));
            }
            fn on_commit(&self, round: usize, committed: usize, total: usize) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("commit:{round}:{committed}:{total}"));
            }
            fn on_done(&self, report: &ReconstructionReport) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("done:{}", report.rounds.len()));
            }
        }

        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1]), 3);
        h.add_edge(edge(&[2, 3, 4]));
        let g = project(&h);
        let run = || {
            let recorder = Recorder::default();
            let mut rng = StdRng::seed_from_u64(1);
            let (_, report) = reconstruct_observed(
                &g,
                &oracle(&h),
                &MariohConfig::default(),
                &recorder,
                &CancelToken::new(),
                &mut rng,
            )
            .expect("not cancelled");
            (recorder.0.into_inner().unwrap(), report)
        };
        let (events, report) = run();
        assert_eq!(events.first().unwrap(), "filter:3");
        assert!(events.iter().any(|e| e.starts_with("commit:")));
        assert_eq!(
            events.last().unwrap(),
            &format!("done:{}", report.rounds.len())
        );
        // Every search round is observed, in order.
        let rounds: Vec<&String> = events.iter().filter(|e| e.starts_with("round:")).collect();
        assert_eq!(rounds.len(), report.rounds.len());
        // The event sequence is deterministic under a fixed seed.
        assert_eq!(events, run().0);
    }

    #[test]
    fn cancelled_run_returns_cancelled_without_partial_state() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        let g = project(&h);
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut rng = StdRng::seed_from_u64(2);
        let err = reconstruct_observed(
            &g,
            &oracle(&h),
            &MariohConfig::default(),
            &NoopObserver,
            &cancel,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, MariohError::Cancelled));
    }

    #[test]
    fn marioh_handle_cancels_through_the_trait() {
        let mut h = Hypergraph::new(0);
        for b in 0..10u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let cancel = CancelToken::new();
        let model =
            Marioh::train(&h, &TrainingConfig::default(), &mut rng).with_cancel(cancel.clone());
        cancel.cancel();
        let err = model.reconstruct(&project(&h), &mut rng).unwrap_err();
        assert!(matches!(err, MariohError::Cancelled));
    }
}
