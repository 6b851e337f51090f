//! Edge-case and failure-injection integration tests: degenerate inputs,
//! boundary hyperparameters, and cross-module consistency checks that
//! don't fit a single crate.

use marioh::baselines::shyre::{ShyreFlavor, ShyreSupervised};
use marioh::baselines::{CFinder, ReconstructionMethod};
use marioh::core::model::FnScorer;
use marioh::core::reconstruct::reconstruct;
use marioh::core::training::{build_training_set, TrainingConfig};
use marioh::core::{Marioh, MariohConfig, TrainingConfig as TC};
use marioh::datasets::PaperDataset;
use marioh::hypergraph::hyperedge::edge;
use marioh::hypergraph::motifs::{motif_census, profile_distance};
use marioh::hypergraph::projection::project;
use marioh::hypergraph::{GraphView, Hypergraph, NodeId, ProjectedGraph};
use rand::{rngs::StdRng, SeedableRng};

/// A single-edge hypergraph round-trips through the whole pipeline.
#[test]
fn minimal_hypergraph_pipeline() {
    let mut source = Hypergraph::new(0);
    source.add_edge(edge(&[0, 1]));
    source.add_edge(edge(&[2, 3]));
    let mut rng = StdRng::seed_from_u64(0);
    let model = Marioh::train(&source, &TC::default(), &mut rng);
    let mut target = Hypergraph::new(0);
    target.add_edge(edge(&[0, 1]));
    let rec = model.reconstruct(&project(&target), &mut rng).unwrap();
    assert!(rec.contains(&edge(&[0, 1])));
}

/// Reconstructing an edgeless graph yields an empty hypergraph for every
/// configuration.
#[test]
fn edgeless_graph_reconstruction() {
    let g = ProjectedGraph::new(10);
    let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.9);
    for (filtering, bidir) in [(true, true), (false, true), (true, false), (false, false)] {
        let cfg = MariohConfig {
            use_filtering: filtering,
            use_bidirectional: bidir,
            ..MariohConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let rec = reconstruct(&g, &scorer, &cfg, &mut rng);
        assert_eq!(rec.unique_edge_count(), 0);
    }
}

/// Boundary hyperparameters: θ_init = 1.0 (nothing passes until decay)
/// and θ_init = 0.0 (everything passes immediately) both terminate and
/// conserve weight.
#[test]
fn boundary_thresholds_terminate() {
    let mut h = Hypergraph::new(0);
    h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 2);
    h.add_edge(edge(&[1, 3]));
    let g = project(&h);
    let scorer = FnScorer(|_: &GraphView, q: &[NodeId]| 0.3 + 0.1 * q.len() as f64 / 10.0);
    for theta in [0.0, 1.0] {
        let cfg = MariohConfig {
            theta_init: theta,
            ..MariohConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let rec = reconstruct(&g, &scorer, &cfg, &mut rng);
        assert_eq!(
            project(&rec).total_weight(),
            g.total_weight(),
            "theta {theta}"
        );
    }
}

/// r = 0% disables Phase 2 sampling without breaking the loop.
#[test]
fn zero_neg_ratio_still_reconstructs() {
    let mut h = Hypergraph::new(0);
    h.add_edge(edge(&[0, 1, 2]));
    let g = project(&h);
    let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.6);
    let cfg = MariohConfig {
        neg_ratio: 0.0,
        ..MariohConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(2);
    let rec = reconstruct(&g, &scorer, &cfg, &mut rng);
    assert!(rec.contains(&edge(&[0, 1, 2])));
}

/// Training with negative_ratio = 0 must not panic (degenerate single-
/// class training set) and the model must still produce probabilities.
#[test]
fn training_without_negatives_is_degenerate_but_safe() {
    let mut source = Hypergraph::new(0);
    for b in 0..10u32 {
        source.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
    }
    let cfg = TrainingConfig {
        negative_ratio: 0.0,
        ..TrainingConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(3);
    let set = build_training_set(&source, &cfg, &mut rng);
    assert!(set.labels.iter().all(|&l| l == 1.0));
    let model = marioh::core::training::train_classifier(&source, &cfg, &mut rng);
    let g = project(&source);
    let p = model.score(&g, &[NodeId(0), NodeId(1), NodeId(2)]);
    assert!((0.0..=1.0).contains(&p));
}

/// CFinder's k selection degrades gracefully when every hyperedge is a
/// pair.
#[test]
fn cfinder_k_selection_on_pairs_only() {
    let mut source = Hypergraph::new(0);
    for b in 0..10u32 {
        source.add_edge(edge(&[b * 2, b * 2 + 1]));
    }
    let mut rng = StdRng::seed_from_u64(4);
    let cf = CFinder::select_k(&source, &mut rng);
    assert_eq!(cf.k, 2);
    let rec = cf.reconstruct(&project(&source), &mut rng).unwrap();
    assert_eq!(rec.unique_edge_count(), 10);
}

/// SHyRe trained on one domain still runs (if poorly) on a structurally
/// different domain — no panics on out-of-distribution clique sizes.
#[test]
fn shyre_out_of_distribution_inference() {
    let mut pairs = Hypergraph::new(0);
    for b in 0..20u32 {
        pairs.add_edge(edge(&[b * 2, b * 2 + 1]));
    }
    let mut rng = StdRng::seed_from_u64(5);
    let model = ShyreSupervised::train(ShyreFlavor::Count, &pairs, &mut rng);
    // Target has big cliques the model never saw.
    let mut big = Hypergraph::new(0);
    big.add_edge(edge(&[0, 1, 2, 3, 4, 5, 6]));
    let rec = model.reconstruct(&project(&big), &mut rng).unwrap();
    // No panic; output may be empty or partial.
    assert!(rec.unique_edge_count() <= 64);
}

/// Generated domains carry distinct h-motif fingerprints, and a dataset
/// is closer to itself (re-generated) than to a different domain.
#[test]
fn domain_fingerprints_via_h_motifs() {
    let contact = PaperDataset::Enron.generate_scaled(0.3).hypergraph;
    let contact2 = PaperDataset::Enron.generate_scaled(0.3).hypergraph; // deterministic: identical
    let coauth = PaperDataset::MagHistory.generate_scaled(0.02).hypergraph;
    let mut rng = StdRng::seed_from_u64(6);
    let fp_contact = motif_census(&contact, 50_000, &mut rng);
    let fp_contact2 = motif_census(&contact2, 50_000, &mut rng);
    let fp_coauth = motif_census(&coauth, 50_000, &mut rng);
    let self_dist = profile_distance(&fp_contact, &fp_contact2);
    let cross_dist = profile_distance(&fp_contact, &fp_coauth);
    assert!(
        self_dist < cross_dist,
        "self {self_dist} should be < cross {cross_dist}"
    );
}

/// Reconstruction restricted to a sub-hypergraph agrees with the
/// induced-subgraph semantics used by the Fig. 2 case study.
#[test]
fn induced_subhypergraph_projection_consistency() {
    let data = PaperDataset::Eu.generate_scaled(0.1);
    let h = &data.hypergraph;
    let nodes: Vec<NodeId> = (0..30).map(NodeId).collect();
    let sub = h.induced_by(&nodes);
    let g_sub = project(&sub);
    // Every edge of the sub-projection exists in the full projection with
    // at least the same weight.
    let g_full = project(h);
    for (u, v, w) in g_sub.sorted_edge_list() {
        assert!(g_full.weight(u, v) >= w);
    }
}
