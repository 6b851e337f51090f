//! Property-based tests of the core invariants, over randomly generated
//! hypergraphs and graphs.

use marioh::core::filtering::filtering;
use marioh::core::mhh::{mhh_view, MhhCache};
use marioh::core::model::FnScorer;
use marioh::core::reconstruct::reconstruct;
use marioh::core::MariohConfig;
use marioh::hypergraph::clique::{is_maximal, maximal_cliques, DegeneracyOrdering};
use marioh::hypergraph::hyperedge::Hyperedge;
use marioh::hypergraph::metrics::{jaccard, multi_jaccard};
use marioh::hypergraph::projection::project;
use marioh::hypergraph::{GraphView, Hypergraph, NodeId};
use proptest::prelude::*;

/// Strategy: a random hypergraph over ≤ `max_nodes` nodes.
fn arb_hypergraph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = Hypergraph> {
    let edge = (
        2u32..=max_nodes,
        proptest::collection::vec(0..max_nodes, 2..6),
        1u32..4,
    );
    proptest::collection::vec(edge, 1..=max_edges).prop_map(move |edges| {
        let mut h = Hypergraph::new(max_nodes);
        for (_, nodes, mult) in edges {
            if let Some(e) = Hyperedge::new(nodes.into_iter().map(NodeId)) {
                h.add_edge_with_multiplicity(e, mult);
            }
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Projection always satisfies the graph invariants, and its total
    /// weight is Σ_e M(e) · C(|e|, 2).
    #[test]
    fn projection_invariants(h in arb_hypergraph(12, 12)) {
        let g = project(&h);
        prop_assert!(g.check_invariants().is_ok());
        let expected: u64 = h
            .iter()
            .map(|(e, m)| u64::from(m) * (e.len() * (e.len() - 1) / 2) as u64)
            .sum();
        prop_assert_eq!(g.total_weight(), expected);
    }

    /// Jaccard and multi-Jaccard are symmetric, bounded, and 1 on equal
    /// inputs.
    #[test]
    fn similarity_metric_properties(
        a in arb_hypergraph(10, 8),
        b in arb_hypergraph(10, 8),
    ) {
        for metric in [jaccard, multi_jaccard] {
            let ab = metric(&a, &b);
            let ba = metric(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((metric(&a, &a) - 1.0).abs() < 1e-12);
        }
        // Jaccard dominates multi-Jaccard never... not in general; but
        // multi-Jaccard of multiplicity-reduced copies equals Jaccard.
        let ra = a.reduce_multiplicity();
        let rb = b.reduce_multiplicity();
        prop_assert!((jaccard(&ra, &rb) - multi_jaccard(&ra, &rb)).abs() < 1e-12);
    }

    /// Lemma 1 and Lemma 2 hold on every generated hypergraph, for the
    /// MHH values the search and filtering read (`mhh_view` and the
    /// per-round `MhhCache`): MHH upper-bounds true higher-order
    /// incidence, the residual lower-bounds true size-2 multiplicity.
    #[test]
    fn mhh_lemmas(h in arb_hypergraph(10, 10)) {
        let g = project(&h);
        let view = GraphView::freeze(&g);
        let cache = MhhCache::build(&view, None);
        for (u, v, w) in g.sorted_edge_list() {
            let true_higher: u64 = h
                .iter()
                .filter(|(e, _)| e.len() >= 3 && e.contains(u) && e.contains(v))
                .map(|(_, m)| u64::from(m))
                .sum();
            let m = mhh_view(&view, u, v);
            prop_assert_eq!(cache.get(&view, u, v), Some(m));
            prop_assert!(m >= true_higher);
            let true_pairs: u64 = h
                .iter()
                .filter(|(e, _)| e.len() == 2 && e.contains(u) && e.contains(v))
                .map(|(_, m)| u64::from(m))
                .sum();
            prop_assert!(u64::from(w).saturating_sub(m) <= true_pairs);
        }
    }

    /// Filtering is sound (never extracts more pairs than exist) and
    /// conservative (weight removed = multiplicity extracted).
    #[test]
    fn filtering_soundness(h in arb_hypergraph(10, 10)) {
        let g = project(&h);
        let mut rec = Hypergraph::new(0);
        let (g2, stats) = filtering(&g, &mut rec, None);
        prop_assert!(g2.check_invariants().is_ok());
        prop_assert_eq!(g.total_weight() - g2.total_weight(), stats.multiplicity_extracted);
        for (e, m) in rec.iter() {
            prop_assert_eq!(e.len(), 2);
            prop_assert!(m <= h.multiplicity(e));
        }
    }

    /// Every enumerated maximal clique is a maximal clique, and every
    /// edge of the graph lies inside at least one of them.
    #[test]
    fn maximal_clique_cover(h in arb_hypergraph(10, 8)) {
        let g = project(&h);
        let view = GraphView::freeze(&g);
        let cliques = maximal_cliques(&view, &DegeneracyOrdering::of(&view), None);
        for c in &cliques {
            prop_assert!(g.is_clique(c));
            prop_assert!(is_maximal(&g, c));
        }
        for (u, v, _) in g.sorted_edge_list() {
            prop_assert!(cliques
                .iter()
                .any(|c| c.binary_search(&u).is_ok() && c.binary_search(&v).is_ok()));
        }
    }

    /// With any strictly positive scorer, Algorithm 1 empties the graph
    /// and conserves the total projected weight.
    #[test]
    fn reconstruction_conserves_weight(h in arb_hypergraph(9, 8)) {
        let g = project(&h);
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        use rand::SeedableRng;
        let rec = reconstruct(&g, &scorer, &MariohConfig::default(), &mut rng);
        prop_assert_eq!(project(&rec).total_weight(), g.total_weight());
    }

    /// Text I/O round-trips every generated hypergraph exactly.
    #[test]
    fn io_round_trip(h in arb_hypergraph(12, 12)) {
        let mut buf = Vec::new();
        marioh::hypergraph::io::write_hypergraph(&h, &mut buf).expect("write");
        let back = marioh::hypergraph::io::read_hypergraph(buf.as_slice()).expect("read");
        prop_assert!((multi_jaccard(&h, &back) - 1.0).abs() < 1e-12);
        prop_assert_eq!(h.total_edge_count(), back.total_edge_count());
    }

    /// Splitting conserves events; merging the halves reproduces the
    /// original multiset.
    #[test]
    fn split_round_trip(h in arb_hypergraph(12, 12), frac in 0.0f64..=1.0) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let (a, b) = marioh::datasets::split::split_events(&h, frac, &mut rng);
        prop_assert_eq!(a.total_edge_count() + b.total_edge_count(), h.total_edge_count());
        let mut merged = a.clone();
        for (e, m) in b.iter() {
            merged.add_edge_with_multiplicity(e.clone(), m);
        }
        prop_assert!((multi_jaccard(&merged, &h) - 1.0).abs() < 1e-12);
    }
}
