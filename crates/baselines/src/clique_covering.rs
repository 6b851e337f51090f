//! Greedy edge clique cover (Conte, Grossi & Marino, SAC 2016 style).
//!
//! Repeatedly grows a clique from an uncovered edge, preferring extensions
//! that cover many still-uncovered edges, until every edge of the graph is
//! covered; each grown clique becomes a hyperedge.

use crate::method::Reconstructor;
use marioh_hypergraph::fxhash::FxHashSet;
use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId, ProjectedGraph};
use rand::RngCore;

/// The greedy edge-clique-covering baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliqueCovering;

fn pair_key(u: NodeId, v: NodeId) -> (u32, u32) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

impl Reconstructor for CliqueCovering {
    fn name(&self) -> &str {
        "CliqueCovering"
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        _rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        let mut h = Hypergraph::new(g.num_nodes());
        let mut covered: FxHashSet<(u32, u32)> = FxHashSet::default();
        // Deterministic edge order.
        for (u, v, _) in g.sorted_edge_list() {
            if covered.contains(&pair_key(u, v)) {
                continue;
            }
            // Grow a clique from {u, v}; candidates = common neighbours.
            let mut clique = vec![u, v];
            let mut candidates = g.common_neighbors(u, v);
            while !candidates.is_empty() {
                // Pick the candidate covering the most uncovered edges to
                // the current clique (ties: smallest id, deterministic).
                let (best_idx, _) = candidates
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        let newly = clique
                            .iter()
                            .filter(|&&q| !covered.contains(&pair_key(q, c)))
                            .count();
                        (i, newly)
                    })
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                    .expect("non-empty candidates");
                let chosen = candidates[best_idx];
                clique.push(chosen);
                candidates.retain(|&c| c != chosen && g.has_edge(c, chosen));
            }
            clique.sort_unstable();
            for (i, &a) in clique.iter().enumerate() {
                for &b in &clique[i + 1..] {
                    covered.insert(pair_key(a, b));
                }
            }
            let e = Hyperedge::new(clique).expect("clique has >= 2 nodes");
            if !h.contains(&e) {
                h.add_edge(e);
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::projection::project;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn covers_every_edge() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2, 3]));
        h.add_edge(edge(&[2, 3, 4]));
        h.add_edge(edge(&[5, 6]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = CliqueCovering.reconstruct(&g, &mut rng).unwrap();
        // Every projected edge appears inside some reconstructed
        // hyperedge.
        for (u, v, _) in g.sorted_edge_list() {
            let covered = rec.iter().any(|(e, _)| e.contains(u) && e.contains(v));
            assert!(covered, "edge ({u}, {v}) uncovered");
        }
    }

    #[test]
    fn disjoint_cliques_recovered() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[4, 5]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = CliqueCovering.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(marioh_hypergraph::metrics::jaccard(&h, &rec), 1.0);
    }

    #[test]
    fn deterministic() {
        let mut h = Hypergraph::new(0);
        for b in 0..5u32 {
            h.add_edge(edge(&[b, b + 1, b + 2]));
        }
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let a = CliqueCovering.reconstruct(&g, &mut rng).unwrap();
        let b = CliqueCovering.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(marioh_hypergraph::metrics::jaccard(&a, &b), 1.0);
    }
}
