//! Bit-parity of the cross-round incremental engine.
//!
//! The [`marioh_core::SearchEngine`] carries its clique list, the CSR
//! view and the MHH memo across outer-loop rounds, re-enumerating only
//! around the removed edges of each round's commits. This suite pins the hard
//! contract: for every seed, thread count, variant and feature mode the
//! incremental path is **bit-identical** to the rebuild-every-round path —
//! same reconstruction, same residual graph, same per-round statistics,
//! same observer event stream, same Phase-2 RNG consumption.

use marioh_core::filtering::FilterStats;
use marioh_core::model::CliqueScorer;
use marioh_core::reconstruct::{reconstruct_observed, ReconstructionReport};
use marioh_core::search::SearchStats;
use marioh_core::training::train_classifier;
use marioh_core::{
    CancelToken, FeatureMode, MariohConfig, ProgressObserver, RoundContext, SearchEngine,
    TrainingConfig, Variant,
};
use marioh_hypergraph::hyperedge::edge;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{GraphView, Hypergraph, NodeId, ProjectedGraph};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Mutex;

/// A structured random hypergraph mixing multiplicities, overlaps and
/// isolated pairs — enough texture that rounds remove, decrement and
/// keep edges in the same run.
fn random_hypergraph(rng: &mut StdRng, blocks: u32) -> Hypergraph {
    let mut h = Hypergraph::new(0);
    for b in 0..blocks {
        let base = b * 4;
        h.add_edge_with_multiplicity(edge(&[base, base + 1, base + 2]), rng.gen_range(1..3));
        h.add_edge(edge(&[base + 1, base + 2, base + 3]));
        if rng.gen_bool(0.6) {
            h.add_edge_with_multiplicity(edge(&[base, base + 3]), rng.gen_range(1..4));
        }
        if b + 1 < blocks && rng.gen_bool(0.5) {
            h.add_edge(edge(&[base + 2, base + 3, base + 4]));
        }
        if b + 1 < blocks && rng.gen_bool(0.3) {
            h.add_edge(edge(&[base, base + 5]));
        }
    }
    h
}

fn trained(source: &Hypergraph, mode: FeatureMode, seed: u64) -> marioh_core::TrainedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TrainingConfig {
        feature_mode: mode,
        ..TrainingConfig::default()
    };
    train_classifier(source, &cfg, &mut rng)
}

/// A hash-map copy of a residual view, to seed a fresh engine.
fn thaw(view: &GraphView) -> ProjectedGraph {
    let mut g = ProjectedGraph::new(view.num_nodes());
    for (u, v, w) in view.edges() {
        g.add_edge_weight(u, v, w);
    }
    g
}

/// Records every observer event as a string of its *algorithmic* content
/// (reuse telemetry and timings are engine-mode-dependent by design and
/// excluded, exactly like `SearchStats::eq`).
#[derive(Default)]
struct Recorder(Mutex<Vec<String>>);

impl ProgressObserver for Recorder {
    fn on_filtering_done(&self, stats: &FilterStats, _secs: f64) {
        self.0.lock().unwrap().push(format!(
            "filter:{}:{}:{}",
            stats.pairs_identified, stats.multiplicity_extracted, stats.edges_removed
        ));
    }
    fn on_round(&self, round: usize, theta: f64, stats: &SearchStats) {
        self.0.lock().unwrap().push(format!(
            "round:{round}:{theta:.6}:{}:{}:{}:{}",
            stats.cliques_enumerated,
            stats.committed_phase1,
            stats.subcliques_sampled,
            stats.committed_phase2
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

fn run_reconstruction(
    g: &ProjectedGraph,
    model: &dyn CliqueScorer,
    cfg: &MariohConfig,
    seed: u64,
) -> (Hypergraph, ReconstructionReport, Vec<String>) {
    let recorder = Recorder::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let (rec, report) =
        reconstruct_observed(g, model, cfg, &recorder, &CancelToken::new(), &mut rng)
            .expect("not cancelled");
    (rec, report, recorder.0.into_inner().unwrap())
}

/// The headline property: full reconstructions agree between the
/// incremental engine and the rebuild-every-round path across seeds,
/// thread counts, variants and feature modes.
#[test]
fn incremental_reconstruction_is_bit_identical_to_rebuild() {
    let cases: [(Variant, FeatureMode); 4] = [
        (Variant::Full, FeatureMode::Multiplicity),
        (Variant::Full, FeatureMode::Motif), // 2-hop features
        (Variant::NoBidirectional, FeatureMode::Multiplicity), // MARIOH-B
        (Variant::NoFiltering, FeatureMode::Count), // MARIOH-F
    ];
    let mut seed_rng = StdRng::seed_from_u64(2025);
    let mut total_reused = 0usize;
    for (case, &(variant, mode)) in cases.iter().enumerate() {
        let h = random_hypergraph(&mut seed_rng, 7 + case as u32 * 2);
        let model = trained(&h, mode, 11 + case as u64);
        let g = project(&h);
        let base = variant.marioh_config(&MariohConfig {
            max_iterations: 60,
            ..MariohConfig::default()
        });
        for seed in [0u64, 7] {
            for threads in [1usize, 2, 4] {
                let incremental = MariohConfig {
                    threads,
                    incremental: true,
                    ..base.clone()
                };
                let rebuild = MariohConfig {
                    threads,
                    incremental: false,
                    ..base.clone()
                };
                let (rec_inc, rep_inc, ev_inc) = run_reconstruction(&g, &model, &incremental, seed);
                let (rec_full, rep_full, ev_full) = run_reconstruction(&g, &model, &rebuild, seed);
                assert_eq!(
                    rec_inc, rec_full,
                    "reconstruction diverged: {variant:?}/{mode:?} seed={seed} threads={threads}"
                );
                assert_eq!(
                    rep_inc.rounds, rep_full.rounds,
                    "round stats diverged: {variant:?}/{mode:?} seed={seed} threads={threads}"
                );
                assert_eq!(
                    ev_inc, ev_full,
                    "observer stream diverged: {variant:?}/{mode:?} seed={seed} threads={threads}"
                );
                // The rebuild path never reuses, by definition.
                assert_eq!(rep_full.cliques_reused(), 0);
                total_reused += rep_inc.cliques_reused();
            }
        }
    }
    // Sanity that the parity is not vacuous: across all cases the
    // incremental engine did carry cliques forward. (Individual small
    // dense cases may legitimately dirty everything every round.)
    assert!(total_reused > 0, "incremental engine never reused anything");
}

/// Engine-level parity with residual-graph checks after *every* round:
/// one persistent engine vs a fresh engine per round, trained models, all
/// thread counts.
#[test]
fn persistent_engine_matches_fresh_rounds_with_trained_models() {
    let mut seed_rng = StdRng::seed_from_u64(321);
    for (case, mode) in [
        FeatureMode::Multiplicity,
        FeatureMode::Count,
        FeatureMode::Motif,
    ]
    .into_iter()
    .enumerate()
    {
        let h = random_hypergraph(&mut seed_rng, 8);
        let model = trained(&h, mode, 31 + case as u64);
        let proto = project(&h);
        for threads in [1usize, 2, 4] {
            let mut g_ref = proto.clone();
            let mut rec_inc = Hypergraph::new(proto.num_nodes());
            let mut rec_ref = Hypergraph::new(proto.num_nodes());
            let mut rng_inc = StdRng::seed_from_u64(5);
            let mut rng_ref = StdRng::seed_from_u64(5);
            let mut engine = SearchEngine::new(&proto, threads);
            let cancel = CancelToken::new();
            let mut theta = 0.9f64;
            for round in 0..15 {
                if g_ref.is_edgeless() {
                    break;
                }
                let s_inc = engine
                    .round(
                        &model,
                        theta,
                        20.0,
                        &mut rec_inc,
                        true,
                        &cancel,
                        &mut rng_inc,
                    )
                    .expect("not cancelled");
                let mut fresh = SearchEngine::new(&g_ref, threads);
                let s_ref = fresh
                    .round(
                        &model,
                        theta,
                        20.0,
                        &mut rec_ref,
                        true,
                        &cancel,
                        &mut rng_ref,
                    )
                    .expect("not cancelled");
                g_ref = thaw(fresh.residual());
                assert_eq!(s_inc, s_ref, "stats: {mode:?} t={threads} round={round}");
                assert_eq!(
                    engine.residual().edges().collect::<Vec<_>>(),
                    g_ref.sorted_edge_list(),
                    "residual: {mode:?} t={threads} round={round}"
                );
                assert_eq!(
                    rec_inc, rec_ref,
                    "reconstruction: {mode:?} t={threads} round={round}"
                );
                theta = (theta - 0.045).max(0.0);
            }
        }
    }
}

/// Dirty-region clique maintenance against dense random weighted graphs
/// (not hypergraph projections — more edge removals per commit), with a
/// reuse-safe local scorer, across many rounds and thread counts.
#[test]
fn engine_parity_on_dense_random_graphs() {
    struct PairWeight;
    impl CliqueScorer for PairWeight {
        fn score_batch(&self, round: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]) {
            let g = round.view();
            for (c, o) in cliques.iter().zip(out.iter_mut()) {
                let w: u32 = c
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &u)| c[i + 1..].iter().map(move |&v| g.weight(u, v)))
                    .sum();
                *o = f64::from(w) / (2.0 + f64::from(w));
            }
        }
    }
    let mut seed_rng = StdRng::seed_from_u64(999);
    for _ in 0..5 {
        let n = seed_rng.gen_range(10..28u32);
        let p = seed_rng.gen_range(0.25..0.55);
        let mut proto = ProjectedGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if seed_rng.gen_bool(p) {
                    proto.add_edge_weight(NodeId(u), NodeId(v), seed_rng.gen_range(1..4));
                }
            }
        }
        for threads in [1usize, 4] {
            let mut rec_inc = Hypergraph::new(n);
            let mut rec_ref = Hypergraph::new(n);
            let mut rng_inc = StdRng::seed_from_u64(13);
            let mut rng_ref = StdRng::seed_from_u64(13);
            let mut engine = SearchEngine::new(&proto, threads);
            let mut rebuild = SearchEngine::full_rebuild(&proto, threads);
            let cancel = CancelToken::new();
            let mut theta = 0.7f64;
            for round in 0..20 {
                if rebuild.residual().num_edges() == 0 {
                    break;
                }
                let s_inc = engine
                    .round(
                        &PairWeight,
                        theta,
                        50.0,
                        &mut rec_inc,
                        true,
                        &cancel,
                        &mut rng_inc,
                    )
                    .expect("not cancelled");
                let s_ref = rebuild
                    .round(
                        &PairWeight,
                        theta,
                        50.0,
                        &mut rec_ref,
                        true,
                        &cancel,
                        &mut rng_ref,
                    )
                    .expect("not cancelled");
                assert_eq!(s_inc, s_ref, "stats diverged at round {round}");
                assert_eq!(
                    engine.residual().edges().collect::<Vec<_>>(),
                    rebuild.residual().edges().collect::<Vec<_>>(),
                    "residual diverged at round {round} (threads {threads})"
                );
                assert_eq!(rec_inc, rec_ref, "reconstruction diverged at {round}");
                theta = (theta - 0.08).max(0.0);
            }
        }
    }
}
