//! Demon baseline (Coscia et al., KDD 2012): local-first overlapping
//! community discovery via ego-network label propagation.
//!
//! For every node, label propagation is run on its ego-minus-ego network;
//! each local community (plus the ego) is then merged into the global
//! community pool whenever the smaller community has at least an
//! `ε`-fraction of its nodes inside the other. The paper configures
//! `ε = 1` (merge only on containment) and a minimum community size of 2.

use crate::method::Reconstructor;
use marioh_hypergraph::fxhash::FxHashMap;
use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId, ProjectedGraph};
use rand::Rng;
use rand::RngCore;

/// The Demon overlapping-community baseline.
#[derive(Debug, Clone)]
pub struct Demon {
    /// Merge threshold ε ∈ [0, 1]: communities merge when
    /// `|A ∩ B| ≥ ε · min(|A|, |B|)`.
    pub epsilon: f64,
    /// Communities smaller than this are discarded.
    pub min_community_size: usize,
    /// Label-propagation rounds per ego network.
    pub lp_rounds: usize,
}

impl Default for Demon {
    fn default() -> Self {
        Demon {
            epsilon: 1.0,
            min_community_size: 2,
            lp_rounds: 8,
        }
    }
}

/// Label propagation on the subgraph induced by `nodes`; returns the
/// communities as sorted node lists.
fn label_propagation(
    g: &ProjectedGraph,
    nodes: &[NodeId],
    rounds: usize,
    rng: &mut dyn RngCore,
) -> Vec<Vec<NodeId>> {
    let index: FxHashMap<u32, usize> = nodes.iter().enumerate().map(|(i, n)| (n.0, i)).collect();
    let mut labels: Vec<usize> = (0..nodes.len()).collect();
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    for _ in 0..rounds {
        // Shuffle the update order (Demon is explicitly randomised).
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut changed = false;
        for &i in &order {
            let u = nodes[i];
            // Majority label among in-subgraph neighbours.
            let mut counts: FxHashMap<usize, usize> = FxHashMap::default();
            for (v, _) in g.neighbors(u) {
                if let Some(&j) = index.get(&v.0) {
                    *counts.entry(labels[j]).or_insert(0) += 1;
                }
            }
            if counts.is_empty() {
                continue;
            }
            let best = counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0))) // ties: smallest label
                .map(|(l, _)| l)
                .expect("non-empty counts");
            if labels[i] != best {
                labels[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut groups: FxHashMap<usize, Vec<NodeId>> = FxHashMap::default();
    for (i, &l) in labels.iter().enumerate() {
        groups.entry(l).or_default().push(nodes[i]);
    }
    let mut out: Vec<Vec<NodeId>> = groups
        .into_values()
        .map(|mut v| {
            v.sort_unstable();
            v
        })
        .collect();
    out.sort_unstable();
    out
}

impl Demon {
    /// Ego-net label propagation plus merging (inference body of the
    /// trait impl).
    fn run(&self, g: &ProjectedGraph, rng: &mut dyn RngCore) -> Hypergraph {
        let mut pool: Vec<Vec<NodeId>> = Vec::new();
        for u in g.non_isolated_nodes() {
            let ego: Vec<NodeId> = g.sorted_neighbors(u);
            if ego.is_empty() {
                continue;
            }
            for mut community in label_propagation(g, &ego, self.lp_rounds, rng) {
                // Re-attach the ego node.
                community.push(u);
                community.sort_unstable();
                if community.len() < self.min_community_size {
                    continue;
                }
                // Merge step.
                let mut merged = false;
                for existing in pool.iter_mut() {
                    let inter = intersection_size(existing, &community);
                    let min_len = existing.len().min(community.len());
                    if inter as f64 >= self.epsilon * min_len as f64 {
                        let mut union = existing.clone();
                        union.extend_from_slice(&community);
                        union.sort_unstable();
                        union.dedup();
                        *existing = union;
                        merged = true;
                        break;
                    }
                }
                if !merged {
                    pool.push(community);
                }
            }
        }
        let mut h = Hypergraph::new(g.num_nodes());
        for c in pool {
            if let Some(e) = Hyperedge::new(c) {
                if !h.contains(&e) {
                    h.add_edge(e);
                }
            }
        }
        h
    }
}

impl Reconstructor for Demon {
    fn name(&self) -> &str {
        "Demon"
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        Ok(self.run(g, rng))
    }
}

fn intersection_size(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::projection::project;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn finds_the_two_obvious_communities() {
        // Two disjoint triangles.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[3, 4, 5]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = Demon::default().reconstruct(&g, &mut rng).unwrap();
        assert!(rec.contains(&edge(&[0, 1, 2])));
        assert!(rec.contains(&edge(&[3, 4, 5])));
    }

    #[test]
    fn respects_min_community_size() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(1);
        let demon = Demon {
            min_community_size: 3,
            ..Demon::default()
        };
        let rec = demon.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(rec.unique_edge_count(), 0);
    }

    #[test]
    fn label_propagation_groups_cliques() {
        // Two triangles joined by one bridge edge: LP on the whole node
        // set should find ≥ 2 groups or one merged — either way it
        // terminates and partitions all nodes.
        let mut g = ProjectedGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.add_edge_weight(NodeId(u), NodeId(v), 1);
        }
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let communities = label_propagation(&g, &nodes, 8, &mut rng);
        let total: usize = communities.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }
}
