//! ρ(n, k): how many size-k hyperedges a size-n maximal clique contains,
//! on average, in the source domain.
//!
//! SHyRe samples its hyperedge candidates from maximal cliques according
//! to this statistic, which is what makes it *supervised*: the
//! source hypergraph tells it how hyperedges distribute inside maximal
//! cliques in this domain.

use crate::enumerate_cliques;
use marioh_hypergraph::fxhash::FxHashMap;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{Hypergraph, NodeId};

/// Estimated `E[#hyperedges of size k | maximal clique of size n]`.
#[derive(Debug, Clone, Default)]
pub struct RhoStatistics {
    /// `expected[n]` maps k → expected count for maximal cliques of size n.
    expected: FxHashMap<usize, FxHashMap<usize, f64>>,
    /// Sorted clique sizes with statistics (for nearest-size fallback).
    sizes: Vec<usize>,
}

impl RhoStatistics {
    /// Estimates ρ from a source hypergraph.
    pub fn estimate(source: &Hypergraph) -> Self {
        let g = project(source);
        let cliques = enumerate_cliques(&g);
        // counts[n][k]: total hyperedges of size k found inside maximal
        // cliques of size n; cliques_of[n]: number of such cliques.
        let mut counts: FxHashMap<usize, FxHashMap<usize, usize>> = FxHashMap::default();
        let mut cliques_of: FxHashMap<usize, usize> = FxHashMap::default();

        // Node → indices of maximal cliques containing it.
        let mut by_node: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for (i, c) in cliques.iter().enumerate() {
            for n in c {
                by_node.entry(n.0).or_default().push(i);
            }
        }
        for c in &cliques {
            *cliques_of.entry(c.len()).or_insert(0) += 1;
        }
        for e in source.sorted_edges() {
            // Find the maximal cliques containing this hyperedge via its
            // first node's clique list.
            let Some(candidates) = by_node.get(&e.nodes()[0].0) else {
                continue;
            };
            for &ci in candidates {
                let clique: &Vec<NodeId> = &cliques[ci];
                if e.nodes().iter().all(|n| clique.binary_search(n).is_ok()) {
                    *counts
                        .entry(clique.len())
                        .or_default()
                        .entry(e.len())
                        .or_insert(0) += 1;
                }
            }
        }
        let mut expected: FxHashMap<usize, FxHashMap<usize, f64>> = FxHashMap::default();
        for (n, per_k) in counts {
            let denom = cliques_of.get(&n).copied().unwrap_or(1).max(1) as f64;
            let entry = expected.entry(n).or_default();
            for (k, c) in per_k {
                entry.insert(k, c as f64 / denom);
            }
        }
        let mut sizes: Vec<usize> = expected.keys().copied().collect();
        sizes.sort_unstable();
        RhoStatistics { expected, sizes }
    }

    /// Expected number of size-`k` hyperedges inside a maximal clique of
    /// size `n`, falling back to the nearest clique size with statistics.
    pub fn expected_count(&self, n: usize, k: usize) -> f64 {
        if k > n || k < 2 {
            return 0.0;
        }
        if let Some(per_k) = self.expected.get(&n) {
            return per_k.get(&k).copied().unwrap_or(0.0);
        }
        // Nearest observed clique size.
        let nearest = self.sizes.iter().min_by_key(|&&s| s.abs_diff(n)).copied();
        match nearest {
            Some(s) => self
                .expected
                .get(&s)
                .and_then(|per_k| per_k.get(&k.min(s)))
                .copied()
                .unwrap_or(0.0),
            None => 0.0,
        }
    }

    /// Whether any statistics were collected.
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;

    #[test]
    fn triangle_hyperedges_register_as_rho_3_3() {
        let mut h = Hypergraph::new(0);
        for b in 0..5u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
        }
        let rho = RhoStatistics::estimate(&h);
        assert!((rho.expected_count(3, 3) - 1.0).abs() < 1e-12);
        assert_eq!(rho.expected_count(3, 2), 0.0);
    }

    #[test]
    fn nested_pairs_register_as_rho_3_2() {
        let mut h = Hypergraph::new(0);
        for b in 0..4u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
            h.add_edge(edge(&[b * 3, b * 3 + 1]));
        }
        let rho = RhoStatistics::estimate(&h);
        assert!((rho.expected_count(3, 3) - 1.0).abs() < 1e-12);
        assert!((rho.expected_count(3, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fallback_to_nearest_size() {
        let mut h = Hypergraph::new(0);
        for b in 0..3u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
        }
        let rho = RhoStatistics::estimate(&h);
        // No size-5 cliques observed: falls back to size-3 statistics.
        assert!(rho.expected_count(5, 3) > 0.0);
        assert_eq!(rho.expected_count(5, 7), 0.0); // k > n
    }

    #[test]
    fn empty_source_gives_empty_stats() {
        let h = Hypergraph::new(3);
        let rho = RhoStatistics::estimate(&h);
        assert!(rho.is_empty());
        assert_eq!(rho.expected_count(3, 2), 0.0);
    }
}
