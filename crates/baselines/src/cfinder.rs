//! CFinder baseline (Palla et al., Nature 2005): k-clique percolation
//! communities.
//!
//! Communities are unions of maximal cliques of size ≥ k that are
//! connected through overlaps of at least k−1 nodes (the standard
//! maximal-clique formulation of clique percolation). The paper selects
//! the "optimal k within the [0.1, 0.5] quantile range of the hyperedge
//! sizes" — [`CFinder::select_k`] reproduces that using the source
//! hypergraph: every k in the quantile range is evaluated on the source
//! projection and the best-scoring k is kept.

use crate::enumerate_cliques;
use crate::method::Reconstructor;
use marioh_hypergraph::metrics::jaccard;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId, ProjectedGraph};
use rand::RngCore;

/// The CFinder (clique percolation) baseline.
#[derive(Debug, Clone)]
pub struct CFinder {
    /// Percolation clique size `k ≥ 2`.
    pub k: usize,
}

impl CFinder {
    /// Builds a CFinder with a fixed `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "k-clique percolation needs k >= 2");
        CFinder { k }
    }

    /// Selects `k` as in the paper: candidates are the hyperedge sizes of
    /// `source` between its 0.1 and 0.5 quantiles; each candidate is
    /// scored by reconstructing the *source* projection and the best
    /// Jaccard wins.
    pub fn select_k(source: &Hypergraph, _rng: &mut dyn RngCore) -> Self {
        let mut sizes: Vec<usize> = source.sorted_edges().iter().map(|e| e.len()).collect();
        if sizes.is_empty() {
            return CFinder::new(3);
        }
        sizes.sort_unstable();
        let lo = sizes[((sizes.len() - 1) as f64 * 0.1) as usize].max(2);
        let hi = sizes[((sizes.len() - 1) as f64 * 0.5) as usize].max(lo);
        let g = project(source);
        let mut best = (f64::NEG_INFINITY, lo);
        for k in lo..=hi {
            let rec = CFinder::new(k).run(&g);
            let score = jaccard(source, &rec);
            if score > best.0 {
                best = (score, k);
            }
        }
        CFinder::new(best.1)
    }
}

/// Union-find with path compression.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

fn overlap_at_least(a: &[NodeId], b: &[NodeId], threshold: usize) -> bool {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                if n >= threshold {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    n >= threshold
}

impl CFinder {
    /// The clique-percolation pass (inference body of the trait impl).
    fn run(&self, g: &ProjectedGraph) -> Hypergraph {
        let cliques: Vec<Vec<NodeId>> = enumerate_cliques(g)
            .into_iter()
            .filter(|c| c.len() >= self.k)
            .collect();
        let mut h = Hypergraph::new(g.num_nodes());
        if cliques.is_empty() {
            return h;
        }
        let mut uf = UnionFind::new(cliques.len());
        for i in 0..cliques.len() {
            for j in i + 1..cliques.len() {
                if overlap_at_least(&cliques[i], &cliques[j], self.k - 1) {
                    uf.union(i, j);
                }
            }
        }
        let mut groups: marioh_hypergraph::fxhash::FxHashMap<usize, Vec<NodeId>> =
            Default::default();
        for (i, c) in cliques.iter().enumerate() {
            let root = uf.find(i);
            groups.entry(root).or_default().extend_from_slice(c);
        }
        for (_, mut nodes) in groups {
            nodes.sort_unstable();
            nodes.dedup();
            if let Some(e) = Hyperedge::new(nodes) {
                if !h.contains(&e) {
                    h.add_edge(e);
                }
            }
        }
        h
    }
}

impl Reconstructor for CFinder {
    fn name(&self) -> &str {
        "CFinder"
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        _rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        Ok(self.run(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn disjoint_triangles_are_separate_communities() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[3, 4, 5]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = CFinder::new(3).reconstruct(&g, &mut rng).unwrap();
        assert_eq!(jaccard(&h, &rec), 1.0);
    }

    #[test]
    fn percolation_merges_chained_cliques() {
        // Two triangles sharing an edge percolate (overlap 2 = k-1) into
        // one community of 4 nodes.
        let mut g = ProjectedGraph::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            g.add_edge_weight(NodeId(u), NodeId(v), 1);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let rec = CFinder::new(3).reconstruct(&g, &mut rng).unwrap();
        assert!(rec.contains(&edge(&[0, 1, 2, 3])));
        assert_eq!(rec.unique_edge_count(), 1);
    }

    #[test]
    fn small_cliques_are_dropped_below_k() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1])); // size-2 clique invisible at k = 3
        h.add_edge(edge(&[2, 3, 4]));
        let g = project(&h);
        let mut rng = StdRng::seed_from_u64(2);
        let rec = CFinder::new(3).reconstruct(&g, &mut rng).unwrap();
        assert!(!rec.contains(&edge(&[0, 1])));
        assert!(rec.contains(&edge(&[2, 3, 4])));
    }

    #[test]
    fn select_k_picks_a_sane_value() {
        let mut h = Hypergraph::new(0);
        for b in 0..8u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let cf = CFinder::select_k(&h, &mut rng);
        assert_eq!(cf.k, 3);
    }
}
