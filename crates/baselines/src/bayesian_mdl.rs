//! Bayesian-MDL baseline (Young, Petri & Peixoto, Communications Physics
//! 2021).
//!
//! Young et al. place a parsimony-favouring Bayesian posterior over
//! hypergraphs whose projection matches the observed graph and sample it
//! with MCMC. We implement the equivalent two-part minimum-description-
//! length objective — total description cost = Σ_e (|e| + 1) plus a
//! per-hyperedge model cost — and optimise it by simulated annealing over
//! edge-clique covers with merge / split / replace moves. The substitution
//! (posterior → MDL objective) is recorded in DESIGN.md; both formalise
//! "the fewest, largest cliques that explain the graph".

use crate::enumerate_cliques;
use crate::method::Reconstructor;
use marioh_hypergraph::fxhash::FxHashMap;
use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId, ProjectedGraph};
use rand::Rng;
use rand::RngCore;

/// The Bayesian-MDL baseline.
#[derive(Debug, Clone)]
pub struct BayesianMdl {
    /// Simulated-annealing sweeps over the current cover.
    pub sweeps: usize,
    /// Initial temperature (geometric cooling to ~0).
    pub initial_temperature: f64,
}

impl Default for BayesianMdl {
    fn default() -> Self {
        BayesianMdl {
            sweeps: 30,
            initial_temperature: 1.0,
        }
    }
}

/// Description length of one clique: its node list plus a size marker.
fn clique_cost(len: usize) -> f64 {
    (len + 1) as f64
}

/// State: a multiset of cliques covering all edges, with per-edge coverage
/// counts for O(1) redundancy checks.
struct CoverState {
    cliques: Vec<Vec<NodeId>>,
    coverage: FxHashMap<(u32, u32), u32>,
    cost: f64,
}

fn pair_key(u: NodeId, v: NodeId) -> (u32, u32) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

impl CoverState {
    fn new(cliques: Vec<Vec<NodeId>>) -> Self {
        let mut coverage: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut cost = 0.0;
        for c in &cliques {
            cost += clique_cost(c.len());
            for (i, &u) in c.iter().enumerate() {
                for &v in &c[i + 1..] {
                    *coverage.entry(pair_key(u, v)).or_insert(0) += 1;
                }
            }
        }
        CoverState {
            cliques,
            coverage,
            cost,
        }
    }

    /// Whether removing clique `idx` would leave some edge uncovered.
    fn is_redundant(&self, idx: usize) -> bool {
        let c = &self.cliques[idx];
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                if self.coverage[&pair_key(u, v)] <= 1 {
                    return false;
                }
            }
        }
        true
    }

    fn remove(&mut self, idx: usize) {
        let c = self.cliques.swap_remove(idx);
        self.cost -= clique_cost(c.len());
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                *self.coverage.get_mut(&pair_key(u, v)).expect("covered") -= 1;
            }
        }
    }

    fn add(&mut self, c: Vec<NodeId>) {
        self.cost += clique_cost(c.len());
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                *self.coverage.entry(pair_key(u, v)).or_insert(0) += 1;
            }
        }
        self.cliques.push(c);
    }
}

impl BayesianMdl {
    /// The MCMC cover search (inference body of the trait impl).
    fn run(&self, g: &ProjectedGraph, rng: &mut dyn RngCore) -> Hypergraph {
        let mut h = Hypergraph::new(g.num_nodes());
        if g.is_edgeless() {
            return h;
        }
        // Initial cover: all maximal cliques (always a valid cover).
        let mut state = CoverState::new(enumerate_cliques(g));

        // Pass 1: greedily drop redundant cliques, smallest first (they
        // are the likeliest to be fully covered by larger ones).
        let mut order: Vec<usize> = (0..state.cliques.len()).collect();
        order.sort_by_key(|&i| state.cliques[i].len());
        // Work over clique *contents* because indices shift on removal.
        let targets: Vec<Vec<NodeId>> = order.iter().map(|&i| state.cliques[i].clone()).collect();
        for t in targets {
            if let Some(pos) = state.cliques.iter().position(|c| *c == t) {
                if state.is_redundant(pos) {
                    state.remove(pos);
                }
            }
        }

        // Pass 2: simulated annealing with split moves (a split can free
        // other cliques to become redundant) and re-drop sweeps.
        let mut temp = self.initial_temperature;
        for _sweep in 0..self.sweeps {
            let n = state.cliques.len();
            for _ in 0..n.max(1) {
                if state.cliques.is_empty() {
                    break;
                }
                let idx = rng.gen_range(0..state.cliques.len());
                if state.cliques[idx].len() < 3 {
                    continue;
                }
                // Propose: split the clique into two overlapping halves.
                // Pairs with one endpoint exclusive to each half lose this
                // clique's coverage, so the move is only valid when every
                // such pair is covered at least twice.
                let c = state.cliques[idx].clone();
                let cut = rng.gen_range(1..c.len() - 1);
                let left: Vec<NodeId> = c[..=cut].to_vec();
                let right: Vec<NodeId> = c[cut..].to_vec();
                if left.len() < 2 || right.len() < 2 {
                    continue;
                }
                let cross_covered = c[..cut].iter().all(|&a| {
                    c[cut + 1..]
                        .iter()
                        .all(|&b| state.coverage[&pair_key(a, b)] > 1)
                });
                if !cross_covered {
                    continue;
                }
                let delta =
                    clique_cost(left.len()) + clique_cost(right.len()) - clique_cost(c.len());
                let accept = delta <= 0.0
                    || (temp > 1e-9 && rng.gen_range(0.0..1.0f64) < (-delta / temp).exp());
                if accept {
                    state.remove(idx);
                    state.add(left);
                    state.add(right);
                }
            }
            // Redundancy sweep after the proposals.
            let mut i = 0;
            while i < state.cliques.len() {
                if state.is_redundant(i) {
                    state.remove(i);
                } else {
                    i += 1;
                }
            }
            temp *= 0.85;
        }

        for c in state.cliques {
            let e = Hyperedge::new(c).expect("cover cliques have >= 2 nodes");
            if !h.contains(&e) {
                h.add_edge(e);
            }
        }
        h
    }
}

impl Reconstructor for BayesianMdl {
    fn name(&self) -> &str {
        "Bayesian-MDL"
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        Ok(self.run(g, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::projection::project;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn prefers_single_large_clique() {
        // One size-4 hyperedge: the parsimonious explanation is itself.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2, 3]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = BayesianMdl::default().reconstruct(&g, &mut rng).unwrap();
        assert!(rec.contains(&edge(&[0, 1, 2, 3])));
        assert_eq!(rec.unique_edge_count(), 1);
    }

    #[test]
    fn cover_property_always_holds() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[1, 2, 3, 4]));
        h.add_edge(edge(&[5, 6]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(1);
        let rec = BayesianMdl::default().reconstruct(&g, &mut rng).unwrap();
        for (u, v, _) in g.sorted_edge_list() {
            assert!(
                rec.iter().any(|(e, _)| e.contains(u) && e.contains(v)),
                "uncovered edge ({u}, {v})"
            );
        }
    }

    #[test]
    fn empty_graph_gives_empty_hypergraph() {
        let g = ProjectedGraph::new(4);
        let mut rng = StdRng::seed_from_u64(2);
        let rec = BayesianMdl::default().reconstruct(&g, &mut rng).unwrap();
        assert_eq!(rec.unique_edge_count(), 0);
    }

    #[test]
    fn parsimony_beats_maxclique_on_nested_structures() {
        // Affiliation-like data: near-disjoint small hyperedges.
        let mut h = Hypergraph::new(0);
        for b in 0..10u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
        }
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(3);
        let rec = BayesianMdl::default().reconstruct(&g, &mut rng).unwrap();
        assert_eq!(marioh_hypergraph::metrics::jaccard(&h, &rec), 1.0);
    }
}
