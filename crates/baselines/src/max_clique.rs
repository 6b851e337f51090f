//! MaxClique baseline: every maximal clique becomes a hyperedge
//! (Bron & Kerbosch, Algorithm 457).

use crate::enumerate_cliques;
use crate::method::Reconstructor;
use marioh_hypergraph::{Hyperedge, Hypergraph, ProjectedGraph};
use rand::RngCore;

/// The maximal-clique decomposition baseline.
///
/// Deterministic and fast, but blind to nested hyperedges and
/// multiplicity: it over-merges whenever distinct hyperedges overlap into
/// one large clique, which is why it collapses on dense contact networks
/// (Table II) while staying near-perfect on sparse affiliation data.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxClique;

impl Reconstructor for MaxClique {
    fn name(&self) -> &str {
        "MaxClique"
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        _rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        let mut h = Hypergraph::new(g.num_nodes());
        for clique in enumerate_cliques(g) {
            let e = Hyperedge::new(clique).expect("maximal cliques have >= 2 nodes");
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
    fn recovers_disjoint_hyperedges_exactly() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[3, 4]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = MaxClique.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(marioh_hypergraph::metrics::jaccard(&h, &rec), 1.0);
    }

    #[test]
    fn over_merges_overlapping_hyperedges() {
        // Two hyperedges {0,1,2} and {0,1,3} whose union is NOT a clique:
        // fine. But nested {0,1} inside {0,1,2} is lost.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[0, 1]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = MaxClique.reconstruct(&g, &mut rng).unwrap();
        assert!(rec.contains(&edge(&[0, 1, 2])));
        assert!(!rec.contains(&edge(&[0, 1]))); // the nested pair is missed
    }
}
