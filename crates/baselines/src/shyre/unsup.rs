//! SHyRe-Unsup: the unsupervised, multiplicity-aware variant from the
//! appendix of Wang & Kleinberg (ICLR 2024).
//!
//! Iteratively selects the top-ranked maximal clique — preferring *larger*
//! cliques with *lower average edge multiplicity* — converts it to a
//! hyperedge, decrements its edge multiplicities, and repeats until the
//! graph is empty. The repeated maximal-clique searches are the method's
//! documented scalability problem; we re-enumerate only when an edge was
//! actually removed (the clique set is provably unchanged otherwise),
//! which preserves the output while keeping the harness usable.

use crate::enumerate_cliques;
use crate::method::Reconstructor;
use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId, ProjectedGraph};
use rand::RngCore;

/// The SHyRe-Unsup baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShyreUnsup;

/// Ranking key: larger cliques first, then lower mean edge multiplicity,
/// then lexicographic for determinism.
fn avg_multiplicity(g: &ProjectedGraph, clique: &[NodeId]) -> f64 {
    let mut sum = 0u64;
    let mut cnt = 0u64;
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            sum += u64::from(g.weight(u, v));
            cnt += 1;
        }
    }
    if cnt == 0 {
        0.0
    } else {
        sum as f64 / cnt as f64
    }
}

impl Reconstructor for ShyreUnsup {
    fn name(&self) -> &str {
        "SHyRe-Unsup"
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        _rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        let mut h = Hypergraph::new(g.num_nodes());
        let mut work = g.clone();
        let mut cliques = enumerate_cliques(&work);
        while !work.is_edgeless() {
            // Rank: size desc, avg multiplicity asc, lexicographic.
            let best = cliques
                .iter()
                .filter(|c| work.is_clique(c) && c.iter().any(|&u| work.degree(u) > 0))
                .min_by(|a, b| {
                    b.len()
                        .cmp(&a.len())
                        .then(
                            avg_multiplicity(&work, a)
                                .partial_cmp(&avg_multiplicity(&work, b))
                                .expect("finite multiplicity"),
                        )
                        .then(a.cmp(b))
                })
                .cloned();
            let Some(best) = best else {
                // All cached cliques invalidated: re-enumerate.
                cliques = enumerate_cliques(&work);
                if cliques.is_empty() {
                    break;
                }
                continue;
            };
            let e = Hyperedge::new(best.iter().copied()).expect("clique size >= 2");
            h.add_edge(e);
            let mut removed_edge = false;
            for (i, &u) in best.iter().enumerate() {
                for &v in &best[i + 1..] {
                    work.decrement_edge(u, v, 1);
                    if !work.has_edge(u, v) {
                        removed_edge = true;
                    }
                }
            }
            if removed_edge {
                // The maximal-clique structure may have changed.
                cliques = enumerate_cliques(&work);
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::metrics::{jaccard, multi_jaccard};
    use marioh_hypergraph::projection::project;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn recovers_repeated_hyperedge_with_multiplicity() {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 3);
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = ShyreUnsup.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(multi_jaccard(&h, &rec), 1.0);
    }

    #[test]
    fn empties_the_graph_completely() {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2, 3]), 2);
        h.add_edge(edge(&[1, 2]));
        h.add_edge(edge(&[4, 5]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(1);
        let rec = ShyreUnsup.reconstruct(&g, &mut rng).unwrap();
        // Conservation: reconstructed projection weight equals input's.
        assert_eq!(project(&rec).total_weight(), g.total_weight());
    }

    #[test]
    fn prefers_large_cliques() {
        // A 4-clique from one hyperedge: taken whole, not as pieces.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2, 3]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(2);
        let rec = ShyreUnsup.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(jaccard(&h, &rec), 1.0);
    }

    #[test]
    fn nested_pair_recovered_after_outer_clique() {
        // {0,1,2} + {0,1}: after taking the triangle once, edge (0,1)
        // retains weight 1 and is finally taken as a pair.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[0, 1]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(3);
        let rec = ShyreUnsup.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(jaccard(&h, &rec), 1.0);
    }
}
