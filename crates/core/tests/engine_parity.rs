//! Bit-parity of the cross-round search engine.
//!
//! The [`marioh_core::SearchEngine`] carries its clique list, the CSR
//! view and the MHH memo across outer-loop rounds, re-enumerating only
//! around the removed edges of each round's commits. This suite pins the
//! hard contract against one oracle, [`FreshPerRound`]: a fresh engine
//! per round, frozen from the previous round's residual, so nothing
//! carries. For every seed, pool size, variant and feature mode the
//! persistent engine is **bit-identical** to it — same reconstruction,
//! same residual graph, same per-round statistics, same observer event
//! stream, same Phase-2 RNG consumption.

use marioh_core::engine::enumeration_parallel_worthwhile;
use marioh_core::filtering::{filtering, FilterStats};
use marioh_core::mhh::MHH_PARALLEL_MIN_SLOTS;
use marioh_core::model::CliqueScorer;
use marioh_core::parallel::{score_work, SCORE_PARALLEL_MIN_WORK};
use marioh_core::reconstruct::{reconstruct_observed, ReconstructionReport};
use marioh_core::search::SearchStats;
use marioh_core::training::train_classifier;
use marioh_core::{
    CancelToken, FeatureMode, MariohConfig, ProgressObserver, RoundContext, SearchEngine,
    TrainingConfig, Variant,
};
use marioh_hypergraph::clique::{maximal_cliques, DegeneracyOrdering};
use marioh_hypergraph::hyperedge::edge;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{GraphView, Hypergraph, NodeId, ProjectedGraph, WorkerPool};
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

/// A dense random weighted graph (not a hypergraph projection — more
/// edge removals per commit).
fn random_graph(rng: &mut StdRng, n: u32, p: f64) -> ProjectedGraph {
    let mut g = ProjectedGraph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                g.add_edge_weight(NodeId(u), NodeId(v), rng.gen_range(1..4));
            }
        }
    }
    g
}

fn trained(source: &Hypergraph, mode: FeatureMode, seed: u64) -> marioh_core::TrainedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TrainingConfig {
        feature_mode: mode,
        ..TrainingConfig::default()
    };
    train_classifier(source, &cfg, &mut rng)
}

/// The pool a run at `threads` creates: none when serial.
fn pool_of(threads: usize) -> Option<WorkerPool> {
    (threads > 1).then(|| WorkerPool::new(threads))
}

/// A reuse-safe local scorer: `w / (offset + w)` over the clique's total
/// pair weight.
struct PairWeight(f64);

impl CliqueScorer for PairWeight {
    fn score_batch(&self, round: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]) {
        let g = round.view();
        for (c, o) in cliques.iter().zip(out.iter_mut()) {
            let w: u32 = c
                .iter()
                .enumerate()
                .flat_map(|(i, &u)| c[i + 1..].iter().map(move |&v| g.weight(u, v)))
                .sum();
            *o = f64::from(w) / (self.0 + f64::from(w));
        }
    }
}

/// A hash-map copy of a residual view, to seed a fresh engine.
fn thaw(view: &GraphView) -> ProjectedGraph {
    let mut g = ProjectedGraph::new(view.num_nodes());
    for (u, v, w) in view.edges() {
        g.add_edge_weight(u, v, w);
    }
    g
}

/// The rebuild-every-round oracle: a fresh [`SearchEngine`] per round,
/// frozen from the previous round's residual, so no clique list, MHH
/// memo or degeneracy ordering carries from one round to the next.
struct FreshPerRound<'p> {
    residual: ProjectedGraph,
    pool: Option<&'p WorkerPool>,
}

impl<'p> FreshPerRound<'p> {
    fn new(g: &ProjectedGraph, pool: Option<&'p WorkerPool>) -> Self {
        FreshPerRound {
            residual: g.clone(),
            pool,
        }
    }

    /// One round on a fresh engine over the current residual. A fresh
    /// engine carries nothing, and scores every clique it lists.
    fn round(
        &mut self,
        scorer: &dyn CliqueScorer,
        theta: f64,
        neg_ratio: f64,
        reconstruction: &mut Hypergraph,
        phase2: bool,
        rng: &mut StdRng,
    ) -> SearchStats {
        let mut engine = SearchEngine::new(&self.residual, self.pool);
        let stats = engine
            .round(
                scorer,
                theta,
                neg_ratio,
                reconstruction,
                phase2,
                &CancelToken::new(),
                rng,
            )
            .expect("not cancelled");
        assert_eq!(stats.cliques_reused, 0, "a fresh engine carried a clique");
        assert_eq!(stats.cliques_rescored, stats.cliques_enumerated);
        self.residual = thaw(engine.residual());
        stats
    }
}

/// Records every observer event as a string of its *algorithmic* content
/// (reuse telemetry and timings differ between the engine and the
/// oracle by design and are excluded, exactly like `SearchStats::eq`).
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

/// [`run_reconstruction`] with every round on [`FreshPerRound`]: the
/// outer loop (Algorithm 1) of `reconstruct_observed`, its filtering on
/// a pool of `cfg.threads`, its θ schedule, stall rule and observer
/// events.
fn run_oracle_reconstruction(
    g: &ProjectedGraph,
    model: &dyn CliqueScorer,
    cfg: &MariohConfig,
    seed: u64,
) -> (Hypergraph, ReconstructionReport, Vec<String>) {
    let recorder = Recorder::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = pool_of(cfg.threads);
    let mut report = ReconstructionReport::default();
    let mut rec = Hypergraph::new(g.num_nodes());
    let work = if cfg.use_filtering {
        let (g2, stats) = filtering(g, &mut rec, pool.as_ref());
        recorder.on_filtering_done(&stats, 0.0);
        report.filter_stats = Some(stats);
        g2
    } else {
        g.clone()
    };
    let mut oracle = FreshPerRound::new(&work, pool.as_ref());
    let mut theta = cfg.theta_init;
    let (mut stall_rounds, mut total_committed) = (0usize, 0usize);
    while !oracle.residual.is_edgeless() && report.rounds.len() < cfg.max_iterations {
        let stats = oracle.round(
            model,
            theta,
            cfg.neg_ratio,
            &mut rec,
            cfg.use_bidirectional,
            &mut rng,
        );
        let committed = stats.committed_phase1 + stats.committed_phase2;
        let round = report.rounds.len() + 1;
        recorder.on_round(round, theta, &stats);
        if committed > 0 {
            total_committed += committed;
            recorder.on_commit(round, committed, total_committed);
        }
        report.rounds.push(stats);
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
    recorder.on_done(&report);
    (rec, report, recorder.0.into_inner().unwrap())
}

/// The headline property: full reconstructions agree between the
/// persistent engine and the fresh-per-round oracle across seeds,
/// thread counts, variants and feature modes.
#[test]
fn reconstruction_is_bit_identical_to_the_fresh_per_round_oracle() {
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
                let cfg = MariohConfig {
                    threads,
                    ..base.clone()
                };
                let (rec_eng, rep_eng, ev_eng) = run_reconstruction(&g, &model, &cfg, seed);
                let (rec_ref, rep_ref, ev_ref) = run_oracle_reconstruction(&g, &model, &cfg, seed);
                assert_eq!(
                    rec_eng, rec_ref,
                    "reconstruction diverged: {variant:?}/{mode:?} seed={seed} threads={threads}"
                );
                assert_eq!(
                    rep_eng.rounds, rep_ref.rounds,
                    "round stats diverged: {variant:?}/{mode:?} seed={seed} threads={threads}"
                );
                assert_eq!(
                    ev_eng, ev_ref,
                    "observer stream diverged: {variant:?}/{mode:?} seed={seed} threads={threads}"
                );
                // The oracle never reuses, by definition.
                assert_eq!(rep_ref.cliques_reused(), 0);
                total_reused += rep_eng.cliques_reused();
            }
        }
    }
    // Sanity that the parity is not vacuous: across all cases the
    // persistent engine did carry cliques forward. (Individual small
    // dense cases may legitimately dirty everything every round.)
    assert!(total_reused > 0, "the engine never reused anything");
}

/// Engine-level parity with residual-graph checks after *every* round:
/// one persistent engine vs the oracle, trained models, all thread
/// counts.
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
            let pool = pool_of(threads);
            let mut oracle = FreshPerRound::new(&proto, pool.as_ref());
            let mut rec_inc = Hypergraph::new(proto.num_nodes());
            let mut rec_ref = Hypergraph::new(proto.num_nodes());
            let mut rng_inc = StdRng::seed_from_u64(5);
            let mut rng_ref = StdRng::seed_from_u64(5);
            let mut engine = SearchEngine::new(&proto, pool.as_ref());
            let cancel = CancelToken::new();
            let mut theta = 0.9f64;
            for round in 0..15 {
                if oracle.residual.is_edgeless() {
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
                let s_ref = oracle.round(&model, theta, 20.0, &mut rec_ref, true, &mut rng_ref);
                assert_eq!(s_inc, s_ref, "stats: {mode:?} t={threads} round={round}");
                assert_eq!(
                    engine.residual().edges().collect::<Vec<_>>(),
                    oracle.residual.sorted_edge_list(),
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

/// Dirty-region clique maintenance against dense random weighted graphs,
/// with a reuse-safe local scorer, across many rounds and thread counts;
/// the engine, like the oracle, scores every clique it lists.
#[test]
fn engine_parity_on_dense_random_graphs() {
    let mut seed_rng = StdRng::seed_from_u64(999);
    for _ in 0..5 {
        let n = seed_rng.gen_range(10..28u32);
        let p = seed_rng.gen_range(0.25..0.55);
        let proto = random_graph(&mut seed_rng, n, p);
        for threads in [1usize, 4] {
            let pool = pool_of(threads);
            let mut rec_inc = Hypergraph::new(n);
            let mut rec_ref = Hypergraph::new(n);
            let mut rng_inc = StdRng::seed_from_u64(13);
            let mut rng_ref = StdRng::seed_from_u64(13);
            let mut engine = SearchEngine::new(&proto, pool.as_ref());
            let mut oracle = FreshPerRound::new(&proto, pool.as_ref());
            let cancel = CancelToken::new();
            let mut theta = 0.7f64;
            for round in 0..20 {
                if oracle.residual.is_edgeless() {
                    break;
                }
                let s_inc = engine
                    .round(
                        &PairWeight(2.0),
                        theta,
                        50.0,
                        &mut rec_inc,
                        true,
                        &cancel,
                        &mut rng_inc,
                    )
                    .expect("not cancelled");
                let s_ref = oracle.round(
                    &PairWeight(2.0),
                    theta,
                    50.0,
                    &mut rec_ref,
                    true,
                    &mut rng_ref,
                );
                assert_eq!(s_inc, s_ref, "stats diverged at round {round}");
                assert_eq!(s_inc.cliques_rescored, s_inc.cliques_enumerated);
                assert_eq!(
                    engine.residual().edges().collect::<Vec<_>>(),
                    oracle.residual.sorted_edge_list(),
                    "residual diverged at round {round} (threads {threads})"
                );
                assert_eq!(rec_inc, rec_ref, "reconstruction diverged at {round}");
                theta = (theta - 0.08).max(0.0);
            }
        }
    }
}

/// Multi-round parity plus conservation: after every round, each pair's
/// residual weight plus its weight in the reconstruction's projection is
/// the input weight.
#[test]
fn multi_round_engine_matches_fresh_single_rounds() {
    let mut seed_rng = StdRng::seed_from_u64(505);
    for case in 0..6 {
        let n = seed_rng.gen_range(8..30u32);
        let proto = random_graph(&mut seed_rng, n, 0.35);
        for threads in [1, 4] {
            let pool = pool_of(threads);
            let mut rec_engine = Hypergraph::new(n);
            let mut rng_engine = StdRng::seed_from_u64(9 + case);
            let mut engine = SearchEngine::new(&proto, pool.as_ref());
            let mut oracle = FreshPerRound::new(&proto, pool.as_ref());
            let mut rec_ref = Hypergraph::new(n);
            let mut rng_ref = StdRng::seed_from_u64(9 + case);
            let cancel = CancelToken::new();
            let mut theta = 0.9;
            for round_no in 0..12 {
                if oracle.residual.is_edgeless() {
                    break;
                }
                let stats_e = engine
                    .round(
                        &PairWeight(1.0),
                        theta,
                        40.0,
                        &mut rec_engine,
                        true,
                        &cancel,
                        &mut rng_engine,
                    )
                    .expect("not cancelled");
                let stats_r = oracle.round(
                    &PairWeight(1.0),
                    theta,
                    40.0,
                    &mut rec_ref,
                    true,
                    &mut rng_ref,
                );
                assert_eq!(stats_e, stats_r, "round {round_no} threads {threads}");
                assert_eq!(
                    engine.residual().edges().collect::<Vec<_>>(),
                    oracle.residual.sorted_edge_list(),
                    "residual diverged at round {round_no}"
                );
                assert_eq!(rec_engine, rec_ref, "reconstruction diverged at {round_no}");
                let committed = project(&rec_engine);
                for u in (0..n).map(NodeId) {
                    for v in (u.0 + 1..n).map(NodeId) {
                        assert_eq!(
                            engine.residual().weight(u, v) + committed.weight(u, v),
                            proto.weight(u, v),
                            "pair ({u}, {v}) not conserved at round {round_no}"
                        );
                    }
                }
                theta = (theta - 0.09f64).max(0.0);
            }
        }
    }
}

/// Reads every clique pair's weight and MHH (so the lazy memo build runs
/// on the pool) and hashes the sum into `[0, 1)`, spreading scores so a
/// falling θ commits a slice of the list each round.
struct MhhHash;

impl CliqueScorer for MhhHash {
    fn score_batch(&self, round: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]) {
        let (view, mhh) = (round.view(), round.mhh_cache());
        for (c, o) in cliques.iter().zip(out.iter_mut()) {
            let mut acc = 0u64;
            for (i, &u) in c.iter().enumerate() {
                for &v in &c[i + 1..] {
                    let m = mhh.get(view, u, v).expect("clique pair is an edge");
                    acc += u64::from(view.weight(u, v)) + m;
                }
            }
            *o = (acc.wrapping_mul(2_654_435_761) % 1000) as f64 / 1000.0;
        }
    }
}

/// The small graphs above never reach a fan-out floor. This projection
/// of a few hundred overlapping hyperedges of size 8–12 crosses all
/// three in its first round (MHH build, full enumeration, scoring), and
/// a 4-thread pooled engine must still match the serial oracle round
/// for round.
#[test]
fn pooled_engine_matches_serial_oracle_above_the_fan_out_floors() {
    let mut rng = StdRng::seed_from_u64(2024);
    let n = 3000u32;
    let mut h = Hypergraph::new(n);
    let mut nodes: Vec<u32> = (0..n).collect();
    for _ in 0..700 {
        let size = rng.gen_range(8..=12usize);
        for i in 0..size {
            let j = rng.gen_range(i..nodes.len());
            nodes.swap(i, j);
        }
        h.add_edge_with_multiplicity(edge(&nodes[..size]), rng.gen_range(1..4));
    }
    let proto = project(&h);
    let view = GraphView::freeze(&proto);
    assert!(view.num_slots() >= MHH_PARALLEL_MIN_SLOTS, "MHH floor");
    assert!(enumeration_parallel_worthwhile(&view), "enumeration floor");
    let cliques = maximal_cliques(&view, &DegeneracyOrdering::of(&view), None);
    assert!(
        score_work(&cliques) >= SCORE_PARALLEL_MIN_WORK,
        "scoring floor: {} cliques, work {}",
        cliques.len(),
        score_work(&cliques)
    );

    let pool = WorkerPool::new(4);
    let mut engine = SearchEngine::new(&proto, Some(&pool));
    let mut oracle = FreshPerRound::new(&proto, None);
    let (mut rec_eng, mut rec_ref) = (Hypergraph::new(n), Hypergraph::new(n));
    let mut rng_eng = StdRng::seed_from_u64(3);
    let mut rng_ref = StdRng::seed_from_u64(3);
    let cancel = CancelToken::new();
    let mut reused = 0usize;
    let mut theta = 0.9f64;
    for round in 0..6 {
        if oracle.residual.is_edgeless() {
            break;
        }
        let s_eng = engine
            .round(
                &MhhHash,
                theta,
                30.0,
                &mut rec_eng,
                true,
                &cancel,
                &mut rng_eng,
            )
            .expect("not cancelled");
        let s_ref = oracle.round(&MhhHash, theta, 30.0, &mut rec_ref, true, &mut rng_ref);
        assert_eq!(s_eng, s_ref, "stats diverged at round {round}");
        assert_eq!(
            engine.residual().edges().collect::<Vec<_>>(),
            oracle.residual.sorted_edge_list(),
            "residual diverged at round {round}"
        );
        assert_eq!(rec_eng, rec_ref, "reconstruction diverged at round {round}");
        reused += s_eng.cliques_reused;
        theta = (theta - 0.05).max(0.0);
    }
    assert!(reused > 0, "the engine never carried a clique");
}
