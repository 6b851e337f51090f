//! Property-based tests of the parallel paths and the sparse kernels:
//! any thread count must be observationally identical to the serial
//! implementation, and CSR must agree with the dense reference.

use marioh::core::model::FnScorer;
use marioh::core::parallel::score_cliques;
use marioh::core::{CancelToken, SearchEngine};
use marioh::hypergraph::clique::maximal_cliques;
use marioh::hypergraph::parallel::maximal_cliques_view;
use marioh::hypergraph::{GraphView, Hypergraph, NodeId, ProjectedGraph};
use marioh::linalg::sparse::{normalized_adjacency, CsrMatrix};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Strategy: a random weighted graph over `n ≤ max_nodes` nodes.
fn arb_graph(max_nodes: u32) -> impl Strategy<Value = ProjectedGraph> {
    (2..=max_nodes).prop_flat_map(|n| {
        let pairs = (n * (n - 1) / 2) as usize;
        proptest::collection::vec(proptest::option::of(1u32..5), pairs).prop_map(move |weights| {
            let mut g = ProjectedGraph::new(n);
            let mut it = weights.into_iter();
            for u in 0..n {
                for v in u + 1..n {
                    if let Some(Some(w)) = it.next() {
                        g.add_edge_weight(NodeId(u), NodeId(v), w);
                    }
                }
            }
            g
        })
    })
}

/// Strategy: sparse triplets within a `rows × cols` shape.
fn arb_triplets(rows: u32, cols: u32) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0..rows, 0..cols, -5.0f64..5.0), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel clique enumeration is byte-identical to serial for any
    /// thread count.
    #[test]
    fn parallel_cliques_equal_serial(g in arb_graph(16), threads in 2usize..9) {
        prop_assert_eq!(maximal_cliques_view(&GraphView::freeze(&g), threads), maximal_cliques(&g));
    }

    /// Parallel scoring returns the same scores at the same indices.
    #[test]
    fn parallel_scoring_equals_serial(g in arb_graph(14), threads in 2usize..9) {
        let scorer = FnScorer(|g: &GraphView, c: &[NodeId]| {
            let mut acc = c.len() as f64;
            for (i, &u) in c.iter().enumerate() {
                for &v in &c[i + 1..] {
                    acc += f64::from(g.weight(u, v));
                }
            }
            acc / (acc + 1.0)
        });
        let cliques = maximal_cliques(&g);
        prop_assert_eq!(
            score_cliques(&scorer, &g, &cliques, threads),
            score_cliques(&scorer, &g, &cliques, 1)
        );
    }

    /// A threaded search round produces the same commits, stats, and
    /// residual graph as the serial round.
    #[test]
    fn threaded_search_round_equals_serial(g in arb_graph(12), threads in 2usize..6) {
        let scorer = FnScorer(|_: &GraphView, c: &[NodeId]| 1.0 / c.len() as f64);
        let run = |t: usize| {
            let mut engine = SearchEngine::new(&g, t);
            let mut rec = Hypergraph::new(g.num_nodes());
            let mut rng = StdRng::seed_from_u64(3);
            let stats = engine
                .round(&scorer, 0.3, 60.0, &mut rec, true, &CancelToken::new(), &mut rng)
                .expect("not cancelled");
            (engine.residual().edges().collect::<Vec<_>>(), rec, stats)
        };
        let (g1, rec1, stats1) = run(1);
        let (g2, rec2, stats2) = run(threads);
        prop_assert_eq!(stats1, stats2);
        prop_assert_eq!(rec1, rec2);
        prop_assert_eq!(g1, g2);
    }

    /// CSR matvec agrees with the dense reference on arbitrary triplets.
    #[test]
    fn csr_matvec_matches_dense(triplets in arb_triplets(8, 6), x in proptest::collection::vec(-3.0f64..3.0, 6)) {
        let m = CsrMatrix::from_triplets(8, 6, &triplets);
        let d = m.to_dense();
        let mut ys = vec![0.0; 8];
        let mut yd = vec![0.0; 8];
        m.matvec_into(&x, &mut ys);
        d.matvec_into(&x, &mut yd);
        for (a, b) in ys.iter().zip(&yd) {
            prop_assert!((a - b).abs() < 1e-9, "sparse {a} vs dense {b}");
        }
    }

    /// CSR construction sums duplicates: total mass is conserved.
    #[test]
    fn csr_conserves_triplet_mass(triplets in arb_triplets(7, 7)) {
        let m = CsrMatrix::from_triplets(7, 7, &triplets);
        let direct: f64 = triplets.iter().map(|&(_, _, v)| v).sum();
        let stored: f64 = (0..7).flat_map(|r| m.row(r).map(|(_, v)| v).collect::<Vec<_>>()).sum();
        prop_assert!((direct - stored).abs() < 1e-9);
    }

    /// The normalised adjacency is symmetric with spectral radius ≤ 1
    /// (checked via the Rayleigh quotient of a random vector).
    #[test]
    fn normalized_adjacency_properties(g in arb_graph(10), seed in 0u64..1000) {
        let n = g.num_nodes() as usize;
        let edges: Vec<(u32, u32, f64)> = g
            .sorted_edge_list()
            .into_iter()
            .map(|(u, v, w)| (u.0, v.0, f64::from(w)))
            .collect();
        let a = normalized_adjacency(n, &edges);
        prop_assert!(a.is_symmetric(1e-12));
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        let xn: f64 = x.iter().map(|v| v * v).sum();
        if xn > 1e-12 {
            let mut y = vec![0.0; n];
            a.matvec_into(&x, &mut y);
            let rayleigh: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>() / xn;
            prop_assert!(rayleigh <= 1.0 + 1e-9, "Rayleigh quotient {rayleigh}");
            prop_assert!(rayleigh >= -1.0 - 1e-9, "Rayleigh quotient {rayleigh}");
        }
    }
}
