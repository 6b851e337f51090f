//! Bidirectional search over clique candidates (Algorithm 3).
//!
//! One round of the outer loop enumerates the maximal cliques of the
//! residual graph, commits the high-scoring ones (Phase 1), then probes
//! random sub-cliques of the lowest-scoring r% (Phase 2). Committing a
//! clique decrements all its edge weights by one, so later candidates
//! may no longer exist — exactly the behaviour shown in Fig. 3 (clique
//! (B) disappearing after (A) is taken).
//!
//! Rounds are executed by [`crate::engine::SearchEngine::round`]; a
//! single round is an engine built over the graph and run once. This
//! module holds the per-round statistics.

/// Statistics reported by one [`crate::engine::SearchEngine::round`].
///
/// Equality (and the derived hash of nothing — there is none) covers the
/// **algorithmic** fields only: `round_ms` varies run to run, and the
/// `cliques_reused` / `cliques_rescored` split depends on whether the
/// engine carried state into the round — neither changes the search's
/// outcome, and the bit-parity suites compare stats across engine modes.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Maximal cliques enumerated this round.
    pub cliques_enumerated: usize,
    /// Hyperedges committed in Phase 1 (most promising cliques).
    pub committed_phase1: usize,
    /// Sub-cliques sampled in Phase 2.
    pub subcliques_sampled: usize,
    /// Hyperedges committed in Phase 2 (promising sub-cliques).
    pub committed_phase2: usize,
    /// Wall-clock milliseconds this round took (telemetry; not compared).
    pub round_ms: f64,
    /// Listed cliques carried over from the previous round's list
    /// without re-enumeration (telemetry; not compared).
    pub cliques_reused: usize,
    /// Listed cliques scored this round: the whole list, whenever the
    /// round reaches scoring (telemetry; not compared).
    pub cliques_rescored: usize,
}

impl PartialEq for SearchStats {
    fn eq(&self, other: &Self) -> bool {
        self.cliques_enumerated == other.cliques_enumerated
            && self.committed_phase1 == other.committed_phase1
            && self.subcliques_sampled == other.subcliques_sampled
            && self.committed_phase2 == other.committed_phase2
    }
}

impl Eq for SearchStats {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::error::MariohError;
    use crate::model::{CliqueScorer, FnScorer};
    use crate::progress::CancelToken;
    use marioh_hypergraph::{
        hyperedge::edge, projection::project, GraphView, Hypergraph, NodeId, ProjectedGraph,
    };
    use rand::{rngs::StdRng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Runs one round on a fresh engine over `g`, returning the stats,
    /// the engine (whose residual is the graph after the round) and the
    /// reconstruction.
    fn one_round(
        g: &ProjectedGraph,
        scorer: &dyn CliqueScorer,
        theta: f64,
        neg_ratio: f64,
        phase2: bool,
        threads: usize,
        seed: u64,
    ) -> (SearchStats, SearchEngine, Hypergraph) {
        let mut engine = SearchEngine::new(g, threads);
        let mut rec = Hypergraph::new(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = engine
            .round(
                scorer,
                theta,
                neg_ratio,
                &mut rec,
                phase2,
                &CancelToken::new(),
                &mut rng,
            )
            .expect("not cancelled");
        (stats, engine, rec)
    }

    #[test]
    fn commits_high_scoring_maximal_clique() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.99);
        let (stats, engine, rec) = one_round(&project(&h), &scorer, 0.5, 20.0, true, 1, 0);
        assert_eq!(stats.committed_phase1, 1);
        assert!(rec.contains(&edge(&[0, 1, 2])));
        assert_eq!(engine.residual().num_edges(), 0);
    }

    #[test]
    fn overlapping_clique_disappears_after_commit() {
        // Figure 3 scenario: once {5,6,7}-analogue is taken, the second
        // clique loses a shared edge and cannot be committed this round.
        let mut g = ProjectedGraph::new(4);
        // Two triangles {0,1,2} and {1,2,3} sharing edge (1,2), all ω = 1.
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            g.add_edge_weight(n(u), n(v), 1);
        }
        // Score {0,1,2} above {1,2,3}.
        let scorer = FnScorer(
            |_: &GraphView, c: &[NodeId]| {
                if c.contains(&NodeId(0)) {
                    0.9
                } else {
                    0.8
                }
            },
        );
        let (stats, engine, rec) = one_round(&g, &scorer, 0.5, 100.0, true, 1, 0);
        assert_eq!(stats.committed_phase1, 1);
        assert!(rec.contains(&edge(&[0, 1, 2])));
        assert!(!rec.contains(&edge(&[1, 2, 3])));
        // Edges (1,3), (2,3) survive for later rounds.
        assert!(engine.residual().has_edge(n(1), n(3)));
        assert!(engine.residual().has_edge(n(2), n(3)));
    }

    #[test]
    fn phase2_recovers_subclique_of_unpromising_clique() {
        // A triangle scored low as a whole, but whose 2-subsets score
        // high: phase 2 should commit sub-cliques.
        let mut g = ProjectedGraph::new(3);
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            g.add_edge_weight(n(u), n(v), 1);
        }
        let scorer = FnScorer(
            |_: &GraphView, c: &[NodeId]| {
                if c.len() == 3 {
                    0.1
                } else {
                    0.9
                }
            },
        );
        let (stats, _, rec) = one_round(&g, &scorer, 0.5, 100.0, true, 1, 1);
        assert_eq!(stats.committed_phase1, 0);
        assert_eq!(stats.committed_phase2, 1);
        assert_eq!(rec.total_edge_count(), 1);
        let (e, _) = rec.iter().next().unwrap();
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn phase2_disabled_for_variant_b() {
        let mut g = ProjectedGraph::new(3);
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            g.add_edge_weight(n(u), n(v), 1);
        }
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.1);
        let (stats, engine, rec) = one_round(&g, &scorer, 0.5, 100.0, false, 1, 1);
        assert_eq!(stats.subcliques_sampled, 0);
        assert_eq!(rec.total_edge_count(), 0);
        assert_eq!(engine.residual().num_edges(), 3); // untouched
    }

    #[test]
    fn neg_ratio_limits_probed_cliques() {
        // Ten disjoint low-scoring triangles; r = 10% probes only one.
        let mut g = ProjectedGraph::new(30);
        for t in 0..10u32 {
            let b = 3 * t;
            for (u, v) in [(b, b + 1), (b, b + 2), (b + 1, b + 2)] {
                g.add_edge_weight(n(u), n(v), 1);
            }
        }
        let scorer = FnScorer(
            |_: &GraphView, c: &[NodeId]| {
                if c.len() == 3 {
                    0.1
                } else {
                    0.0
                }
            },
        );
        let (stats, _, _) = one_round(&g, &scorer, 0.5, 10.0, true, 1, 2);
        // One clique probed, one sub-clique per k ∈ {2}.
        assert_eq!(stats.subcliques_sampled, 1);
    }

    #[test]
    fn threaded_round_matches_serial_exactly() {
        use rand::Rng as _;
        // A messy random graph plus a score depending on clique content:
        // the threaded round must produce the same commits, stats and
        // final graph as the serial one.
        let scorer = FnScorer(|g: &GraphView, c: &[NodeId]| {
            let w: u32 = c
                .iter()
                .enumerate()
                .flat_map(|(i, &u)| c[i + 1..].iter().map(move |&v| g.weight(u, v)))
                .sum();
            f64::from(w) / (1.0 + f64::from(w))
        });
        let mut seed_rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let n = seed_rng.gen_range(6..25u32);
            let mut proto = ProjectedGraph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if seed_rng.gen_bool(0.35) {
                        proto.add_edge_weight(NodeId(u), NodeId(v), seed_rng.gen_range(1..4));
                    }
                }
            }
            let run = |threads: usize| {
                let (stats, engine, rec) = one_round(&proto, &scorer, 0.5, 50.0, true, threads, 5);
                (engine.residual().edges().collect::<Vec<_>>(), rec, stats)
            };
            let (g1, rec1, stats1) = run(1);
            for threads in [2, 4] {
                let (gt, rect, statst) = run(threads);
                assert_eq!(stats1, statst, "stats differ at {threads} threads");
                assert_eq!(rec1, rect, "reconstruction differs at {threads} threads");
                assert_eq!(g1, gt, "residual graph differs at {threads} threads");
            }
        }
    }

    #[test]
    fn pre_cancelled_round_commits_nothing() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 0.99);
        let mut engine = SearchEngine::new(&project(&h), 1);
        let mut rec = Hypergraph::new(0);
        let mut rng = StdRng::seed_from_u64(0);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = engine
            .round(&scorer, 0.5, 20.0, &mut rec, true, &cancel, &mut rng)
            .unwrap_err();
        assert!(matches!(err, MariohError::Cancelled));
        assert_eq!(rec.total_edge_count(), 0);
        assert_eq!(engine.residual().num_edges(), 3); // untouched
    }

    #[test]
    fn zero_threshold_accepts_everything() {
        let mut g = ProjectedGraph::new(4);
        for (u, v) in [(0, 1), (2, 3)] {
            g.add_edge_weight(n(u), n(v), 2);
        }
        // Sigmoid-like scorer: always positive.
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 1e-6);
        let (stats, engine, _) = one_round(&g, &scorer, 0.0, 20.0, true, 1, 3);
        assert_eq!(stats.committed_phase1, 2);
        // One unit of weight removed per edge per commit.
        assert_eq!(engine.residual().total_weight(), 2);
    }
}
