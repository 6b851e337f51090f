//! Theoretically-guaranteed filtering (Algorithm 2).
//!
//! For every edge of the input graph, a positive residual multiplicity
//! `r_{u,v} = ω_{u,v} − MHH(u,v)` certifies `r_{u,v}` copies of the
//! size-2 hyperedge `{u, v}` (Lemma 2). Those copies are moved into the
//! reconstruction and their weight removed from the graph, shrinking the
//! search space for the clique-candidate phase.

use crate::mhh::MhhCache;
use marioh_hypergraph::{GraphView, Hyperedge, Hypergraph, ProjectedGraph, WorkerPool};

/// Statistics reported by [`filtering`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Number of distinct node pairs certified as size-2 hyperedges.
    pub pairs_identified: usize,
    /// Total multiplicity moved into the reconstruction.
    pub multiplicity_extracted: u64,
    /// Edges fully removed from the graph (weight reached zero).
    pub edges_removed: usize,
}

/// Runs Algorithm 2: extracts provable size-2 hyperedges from `g` into
/// `reconstruction` and returns the intermediate graph `G'` plus stats.
///
/// As in the paper, every `MHH` value is computed against the *input*
/// weights `ω`; only the certified pair's own weight is then reduced, so
/// the result does not depend on edge iteration order. The bounds come
/// from a frozen view and its [`MhhCache`], built on the run's `pool`
/// when there is one. The result is identical for any pool size: every
/// residual is an exact integer, and the certified pairs are visited in
/// sorted edge order.
pub fn filtering(
    g: &ProjectedGraph,
    reconstruction: &mut Hypergraph,
    pool: Option<&WorkerPool>,
) -> (ProjectedGraph, FilterStats) {
    reconstruction.ensure_nodes(g.num_nodes());
    let mut out = g.clone();
    let mut stats = FilterStats::default();
    let view = GraphView::freeze(g);
    let cache = MhhCache::build(&view, pool);
    for (u, v, w) in view.edges() {
        // Residual multiplicity r_{u,v} = ω − MHH, clamped at zero
        // (Lemma 2), straight from the per-round memo.
        let slot = view.slot(u, v).expect("iterated edge exists");
        let r = u32::try_from(u64::from(w).saturating_sub(cache.at(slot)))
            .expect("residual exceeds u32");
        if r > 0 {
            let e = Hyperedge::new([u, v]).expect("two distinct endpoints");
            reconstruction.add_edge_with_multiplicity(e, r);
            stats.pairs_identified += 1;
            stats.multiplicity_extracted += u64::from(r);
            out.decrement_edge(u, v, r);
            if !out.has_edge(u, v) {
                stats.edges_removed += 1;
            }
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::{hyperedge::edge, projection::project, NodeId};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn isolated_pair_is_fully_extracted() {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1]), 3);
        let g = project(&h);
        let mut rec = Hypergraph::new(0);
        let (g2, stats) = filtering(&g, &mut rec, None);
        assert_eq!(rec.multiplicity(&edge(&[0, 1])), 3);
        assert!(g2.is_edgeless());
        assert_eq!(
            stats,
            FilterStats {
                pairs_identified: 1,
                multiplicity_extracted: 3,
                edges_removed: 1
            }
        );
    }

    #[test]
    fn triangle_is_untouched() {
        // A single size-3 hyperedge gives each edge MHH = ω, so nothing is
        // extracted.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        let g = project(&h);
        let mut rec = Hypergraph::new(0);
        let (g2, stats) = filtering(&g, &mut rec, None);
        assert_eq!(rec.unique_edge_count(), 0);
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(stats.pairs_identified, 0);
    }

    #[test]
    fn mixed_case_extracts_only_residual() {
        // {0,1,2} + {0,1}: residual of (0,1) is 1; other edges untouched.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[0, 1]));
        let g = project(&h);
        let mut rec = Hypergraph::new(0);
        let (g2, _) = filtering(&g, &mut rec, None);
        assert_eq!(rec.multiplicity(&edge(&[0, 1])), 1);
        assert_eq!(g2.weight(n(0), n(1)), 1);
        assert_eq!(g2.weight(n(0), n(2)), 1);
        g2.check_invariants().unwrap();
    }

    #[test]
    fn extraction_is_sound_on_random_hypergraphs() {
        // Lemma 2 soundness: extracted multiplicity never exceeds the true
        // number of size-2 hyperedges on that pair.
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..40 {
            let n_nodes = rng.gen_range(4..12u32);
            let mut h = Hypergraph::new(n_nodes);
            for _ in 0..rng.gen_range(3..15) {
                let size = rng.gen_range(2..=4usize.min(n_nodes as usize));
                let mut nodes: Vec<u32> = (0..n_nodes).collect();
                for i in (1..nodes.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    nodes.swap(i, j);
                }
                h.add_edge_with_multiplicity(edge(&nodes[..size]), rng.gen_range(1..3));
            }
            let g = project(&h);
            let mut rec = Hypergraph::new(0);
            let (g2, _) = filtering(&g, &mut rec, None);
            g2.check_invariants().unwrap();
            for (e, m) in rec.iter() {
                assert_eq!(e.len(), 2, "filtering only emits pairs");
                let true_pairs = h.multiplicity(e);
                assert!(m <= true_pairs, "extracted {m} > true {true_pairs} for {e}");
            }
        }
    }

    /// A random hypergraph over `n_nodes` nodes with `edges` hyperedges
    /// of size 2–`max_size`, multiplicities 1–3.
    fn random_hypergraph(
        rng: &mut StdRng,
        n_nodes: u32,
        edges: usize,
        max_size: usize,
    ) -> Hypergraph {
        let mut h = Hypergraph::new(n_nodes);
        for _ in 0..edges {
            let size = rng.gen_range(2..=max_size.min(n_nodes as usize));
            let mut nodes: Vec<u32> = (0..n_nodes).collect();
            for i in (1..nodes.len()).rev() {
                let j = rng.gen_range(0..=i);
                nodes.swap(i, j);
            }
            h.add_edge_with_multiplicity(edge(&nodes[..size]), rng.gen_range(1..4));
        }
        h
    }

    #[test]
    fn threaded_filtering_matches_serial_exactly() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut graphs: Vec<ProjectedGraph> = (0..15)
            .map(|_| {
                let n_nodes = rng.gen_range(4..14u32);
                let edges = rng.gen_range(3..18);
                project(&random_hypergraph(&mut rng, n_nodes, edges, 4))
            })
            .collect();
        // The small graphs stay under the MHH build's fan-out floor; this
        // one crosses it, so the pools really fan out.
        let big = project(&random_hypergraph(&mut rng, 400, 800, 6));
        assert!(
            GraphView::freeze(&big).num_slots() >= crate::mhh::MHH_PARALLEL_MIN_SLOTS,
            "test graph too small to fan out"
        );
        graphs.push(big);
        let mut stats1 = FilterStats::default();
        for g in &graphs {
            let mut rec1 = Hypergraph::new(0);
            let (g1, serial_stats) = filtering(g, &mut rec1, None);
            stats1 = serial_stats;
            for threads in [2, 4] {
                let pool = WorkerPool::new(threads);
                let mut rec = Hypergraph::new(0);
                let (gt, stats) = filtering(g, &mut rec, Some(&pool));
                assert_eq!(stats, stats1);
                assert_eq!(rec, rec1);
                assert_eq!(gt.sorted_edge_list(), g1.sorted_edge_list());
            }
        }
        assert!(
            stats1.pairs_identified > 0,
            "the large case certified nothing"
        );
    }

    #[test]
    fn weight_conservation() {
        // Removed weight equals extracted multiplicity.
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1]), 4);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge_with_multiplicity(edge(&[3, 4]), 2);
        let g = project(&h);
        let mut rec = Hypergraph::new(0);
        let (g2, stats) = filtering(&g, &mut rec, None);
        assert_eq!(
            g.total_weight() - g2.total_weight(),
            stats.multiplicity_extracted
        );
    }
}
