//! End-to-end parity of the round-frozen scoring paths.
//!
//! The perf refactor (CSR `GraphView`, per-round `MhhCache`, zero-alloc
//! `extract_into`, batched `score_batch`) must not move a single bit:
//! serial, threaded, and batched scoring — and whole search rounds built
//! on them — agree exactly with the per-clique hash-map path on seeded
//! random inputs.

use marioh_core::model::CliqueScorer;
use marioh_core::parallel::{score_cliques, score_cliques_round};
use marioh_core::training::train_classifier;
use marioh_core::{CancelToken, FeatureMode, RoundContext, SearchEngine, TrainingConfig};
use marioh_hypergraph::clique::maximal_cliques;
use marioh_hypergraph::hyperedge::edge;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{Hypergraph, ProjectedGraph};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A structured random hypergraph with all three multiplicity regimes.
fn random_hypergraph(rng: &mut StdRng, blocks: u32) -> Hypergraph {
    let mut h = Hypergraph::new(0);
    for b in 0..blocks {
        let base = b * 4;
        h.add_edge_with_multiplicity(edge(&[base, base + 1, base + 2]), rng.gen_range(1..3));
        h.add_edge(edge(&[base + 1, base + 2, base + 3]));
        if rng.gen_bool(0.6) {
            h.add_edge_with_multiplicity(edge(&[base, base + 3]), rng.gen_range(1..4));
        }
        if b + 1 < blocks && rng.gen_bool(0.4) {
            h.add_edge(edge(&[base + 2, base + 3, base + 4]));
        }
    }
    h
}

fn trained_model(source: &Hypergraph, mode: FeatureMode, seed: u64) -> marioh_core::TrainedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TrainingConfig {
        feature_mode: mode,
        ..TrainingConfig::default()
    };
    train_classifier(source, &cfg, &mut rng)
}

#[test]
fn serial_threaded_and_batched_scoring_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(101);
    for case in 0..4 {
        let h = random_hypergraph(&mut rng, 6 + case * 3);
        let g = project(&h);
        let cliques = maximal_cliques(&g);
        assert!(!cliques.is_empty());
        for mode in [
            FeatureMode::Multiplicity,
            FeatureMode::Count,
            FeatureMode::Motif,
        ] {
            let model = trained_model(&h, mode, 7 + u64::from(case));
            // Reference: the pre-refactor path — per-clique extraction
            // and prediction against the hash-map graph.
            let reference: Vec<f64> = cliques.iter().map(|c| model.score(&g, c)).collect();
            // Batched against an explicit frozen context.
            let round = RoundContext::new(&g);
            let mut batched = vec![0.0; cliques.len()];
            model.score_batch(&round, &cliques, &mut batched);
            assert_eq!(batched, reference, "batched diverged ({mode:?})");
            // Serial and threaded through the public entry points.
            for threads in [1, 2, 4] {
                assert_eq!(
                    score_cliques(&model, &g, &cliques, threads),
                    reference,
                    "score_cliques diverged at {threads} threads ({mode:?})"
                );
                assert_eq!(
                    score_cliques_round(&model, &round, &cliques, threads),
                    reference,
                    "score_cliques_round diverged at {threads} threads ({mode:?})"
                );
            }
        }
    }
}

#[test]
fn trained_rounds_match_across_thread_counts_with_stats() {
    let mut seed_rng = StdRng::seed_from_u64(55);
    for case in 0..3 {
        let h = random_hypergraph(&mut seed_rng, 8);
        let model = trained_model(&h, FeatureMode::Multiplicity, 11 + case);
        let proto = project(&h);
        let run = |threads: usize| {
            let mut engine = SearchEngine::new(&proto, threads);
            let mut rec = Hypergraph::new(proto.num_nodes());
            let mut rng = StdRng::seed_from_u64(3);
            let stats = engine
                .round(
                    &model,
                    0.5,
                    50.0,
                    &mut rec,
                    true,
                    &CancelToken::new(),
                    &mut rng,
                )
                .expect("not cancelled");
            (engine.residual().edges().collect::<Vec<_>>(), rec, stats)
        };
        let (g1, rec1, stats1) = run(1);
        for threads in [2, 4] {
            let (gt, rect, statst) = run(threads);
            assert_eq!(stats1, statst, "SearchStats differ at {threads} threads");
            assert_eq!(rec1, rect, "commits differ at {threads} threads");
            assert_eq!(g1, gt, "residual graph differs at {threads} threads");
        }
    }
}

#[test]
fn view_scoring_handles_graphs_with_isolated_and_dense_regions() {
    // A dense block plus isolated nodes: exercises empty adjacency
    // slices, the lazy MHH cache on a clustered graph, and sub-clique
    // scoring after phase-1 commits shrink the graph.
    let mut g = ProjectedGraph::new(40);
    for u in 0..8u32 {
        for v in u + 1..8 {
            g.add_edge_weight(u.into(), v.into(), 1 + (u + v) % 3);
        }
    }
    g.add_edge_weight(20.into(), 21.into(), 5);
    let mut h = Hypergraph::new(0);
    for u in 0..8u32 {
        h.add_edge(edge(&[u % 8, (u + 1) % 8, (u + 2) % 8]));
    }
    h.add_edge_with_multiplicity(edge(&[20, 21]), 5);
    let model = trained_model(&h, FeatureMode::Multiplicity, 99);
    let cliques = maximal_cliques(&g);
    let reference: Vec<f64> = cliques.iter().map(|c| model.score(&g, c)).collect();
    let round = RoundContext::with_threads(&g, 4);
    assert_eq!(score_cliques_round(&model, &round, &cliques, 4), reference);
}
