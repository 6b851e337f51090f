//! The weighted projected graph `G = (V, E_G, ω)`.

use crate::fxhash::FxHashMap;
use crate::node::NodeId;

/// A weighted undirected graph with `u32` edge multiplicities.
///
/// This is the clique-expansion target of a [`crate::Hypergraph`] and the
/// *mutable* working structure of the reconstruction loop: MARIOH
/// repeatedly decrements edge multiplicities and removes edges that reach
/// zero, so adjacency is stored as one neighbour→weight hash map per node
/// (O(1) decrement/removal). Weighted degrees are maintained incrementally.
///
/// Invariants (checked by `debug_assert` and property tests):
/// symmetric adjacency, strictly positive weights.
#[derive(Debug, Clone, Default)]
pub struct ProjectedGraph {
    adj: Vec<FxHashMap<u32, u32>>,
    num_edges: usize,
    total_weight: u64,
    weighted_degree: Vec<u64>,
}

impl ProjectedGraph {
    /// An empty graph over `num_nodes` nodes.
    pub fn new(num_nodes: u32) -> Self {
        ProjectedGraph {
            adj: vec![FxHashMap::default(); num_nodes as usize],
            num_edges: 0,
            total_weight: 0,
            weighted_degree: vec![0; num_nodes as usize],
        }
    }

    /// Number of nodes in the universe (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Number of edges with positive weight.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of all edge weights `Σ ω_{u,v}` over unordered pairs.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Average edge multiplicity (0 when edgeless).
    pub fn avg_weight(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.total_weight as f64 / self.num_edges as f64
        }
    }

    /// Whether any edge remains. The MARIOH outer loop runs until empty.
    #[inline]
    pub fn is_edgeless(&self) -> bool {
        self.num_edges == 0
    }

    /// Weight `ω_{u,v}`; zero when the edge is absent.
    #[inline]
    pub fn weight(&self, u: NodeId, v: NodeId) -> u32 {
        self.adj[u.index()].get(&v.0).copied().unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].contains_key(&v.0)
    }

    /// Number of neighbours of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Weighted degree `Σ_{v ∈ N(u)} ω_{u,v}` (maintained incrementally).
    #[inline]
    pub fn weighted_degree(&self, u: NodeId) -> u64 {
        self.weighted_degree[u.index()]
    }

    /// Maximum (unweighted) degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(FxHashMap::len).max().unwrap_or(0)
    }

    /// Iterates over `(neighbour, weight)` of `u` in unspecified order.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.adj[u.index()].iter().map(|(&v, &w)| (NodeId(v), w))
    }

    /// Neighbours of `u` in ascending id order (deterministic).
    pub fn sorted_neighbors(&self, u: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.adj[u.index()].keys().map(|&k| NodeId(k)).collect();
        v.sort_unstable();
        v
    }

    /// Adds `w` to the weight of `{u, v}` (creating the edge if absent).
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are not valid projections) or `w == 0`.
    pub fn add_edge_weight(&mut self, u: NodeId, v: NodeId, w: u32) {
        assert_ne!(u, v, "self-loop {u}");
        assert!(w > 0, "zero-weight edge insert");
        let wu = self.adj[u.index()].entry(v.0).or_insert(0);
        let grew = *wu == 0;
        *wu += w;
        *self.adj[v.index()].entry(u.0).or_insert(0) += w;
        if grew {
            self.num_edges += 1;
        }
        self.total_weight += u64::from(w);
        self.weighted_degree[u.index()] += u64::from(w);
        self.weighted_degree[v.index()] += u64::from(w);
    }

    /// Decrements `ω_{u,v}` by `amount` (clamped), removing the edge when
    /// the weight reaches zero. Returns the amount actually removed.
    pub fn decrement_edge(&mut self, u: NodeId, v: NodeId, amount: u32) -> u32 {
        let Some(w) = self.adj[u.index()].get_mut(&v.0) else {
            return 0;
        };
        let removed = amount.min(*w);
        *w -= removed;
        let gone = *w == 0;
        if gone {
            self.adj[u.index()].remove(&v.0);
            self.adj[v.index()].remove(&u.0);
            self.num_edges -= 1;
        } else {
            *self.adj[v.index()]
                .get_mut(&u.0)
                .expect("symmetric adjacency") -= removed;
        }
        self.total_weight -= u64::from(removed);
        self.weighted_degree[u.index()] -= u64::from(removed);
        self.weighted_degree[v.index()] -= u64::from(removed);
        removed
    }

    /// Removes the edge `{u, v}` entirely, returning its previous weight.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> u32 {
        let w = self.weight(u, v);
        if w > 0 {
            self.decrement_edge(u, v, w);
        }
        w
    }

    /// Whether every pair of distinct nodes in `nodes` is an edge.
    ///
    /// `nodes` must not contain duplicates.
    pub fn is_clique(&self, nodes: &[NodeId]) -> bool {
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                if !self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Size of `N(u) ∩ N(v)`: probes the larger adjacency set with each
    /// member of the smaller one, allocating nothing.
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        let (small, large) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[small.index()]
            .keys()
            .filter(|&&z| self.adj[large.index()].contains_key(&z))
            .count()
    }

    /// Common neighbours of `u` and `v`, ascending (iterates the smaller
    /// adjacency set).
    pub fn common_neighbors(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let (small, large) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let mut out: Vec<NodeId> = self.adj[small.index()]
            .keys()
            .filter(|&&z| self.adj[large.index()].contains_key(&z))
            .map(|&z| NodeId(z))
            .collect();
        out.sort_unstable();
        out
    }

    /// Iterates over all edges `(u, v, ω)` with `u < v`, in unspecified
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter().filter_map(move |(&v, &w)| {
                if (u as u32) < v {
                    Some((NodeId(u as u32), NodeId(v), w))
                } else {
                    None
                }
            })
        })
    }

    /// All edges `(u, v, ω)` with `u < v`, sorted — deterministic order for
    /// seeded algorithms.
    pub fn sorted_edge_list(&self) -> Vec<(NodeId, NodeId, u32)> {
        let mut v: Vec<_> = self.edges().collect();
        v.sort_unstable_by_key(|&(a, b, _)| (a, b));
        v
    }

    /// Nodes with at least one incident edge, ascending.
    pub fn non_isolated_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes())
            .map(NodeId)
            .filter(|&u| !self.adj[u.index()].is_empty())
            .collect()
    }

    /// Validates the symmetry / positive-weight / cached-counter
    /// invariants. Intended for tests; O(V + E).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut edges = 0usize;
        let mut weight = 0u64;
        for (u, nbrs) in self.adj.iter().enumerate() {
            let mut deg = 0u64;
            for (&v, &w) in nbrs {
                if w == 0 {
                    return Err(format!("zero-weight edge ({u}, {v})"));
                }
                if self.adj[v as usize].get(&(u as u32)) != Some(&w) {
                    return Err(format!("asymmetric edge ({u}, {v})"));
                }
                if (u as u32) < v {
                    edges += 1;
                    weight += u64::from(w);
                }
                deg += u64::from(w);
            }
            if deg != self.weighted_degree[u] {
                return Err(format!(
                    "stale weighted degree at {u}: cached {} actual {deg}",
                    self.weighted_degree[u]
                ));
            }
        }
        if edges != self.num_edges {
            return Err(format!(
                "stale edge count: cached {} actual {edges}",
                self.num_edges
            ));
        }
        if weight != self.total_weight {
            return Err(format!(
                "stale total weight: cached {} actual {weight}",
                self.total_weight
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn triangle() -> ProjectedGraph {
        let mut g = ProjectedGraph::new(4);
        g.add_edge_weight(n(0), n(1), 2);
        g.add_edge_weight(n(1), n(2), 1);
        g.add_edge_weight(n(0), n(2), 3);
        g
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_weight(), 6);
        assert!((g.avg_weight() - 2.0).abs() < 1e-12);
        assert_eq!(g.weight(n(0), n(1)), 2);
        assert_eq!(g.weight(n(1), n(0)), 2);
        assert_eq!(g.weight(n(0), n(3)), 0);
        assert_eq!(g.degree(n(0)), 2);
        assert_eq!(g.degree(n(3)), 0);
        assert_eq!(g.weighted_degree(n(0)), 5);
        assert_eq!(g.max_degree(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn add_accumulates_weight() {
        let mut g = ProjectedGraph::new(2);
        g.add_edge_weight(n(0), n(1), 1);
        g.add_edge_weight(n(1), n(0), 4);
        assert_eq!(g.weight(n(0), n(1)), 5);
        assert_eq!(g.num_edges(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut g = ProjectedGraph::new(2);
        g.add_edge_weight(n(1), n(1), 1);
    }

    #[test]
    fn decrement_removes_at_zero() {
        let mut g = triangle();
        assert_eq!(g.decrement_edge(n(0), n(1), 1), 1);
        assert_eq!(g.weight(n(0), n(1)), 1);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.decrement_edge(n(0), n(1), 7), 1);
        assert!(!g.has_edge(n(0), n(1)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.decrement_edge(n(0), n(1), 1), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_edge_returns_weight() {
        let mut g = triangle();
        assert_eq!(g.remove_edge(n(0), n(2)), 3);
        assert_eq!(g.remove_edge(n(0), n(2)), 0);
        assert_eq!(g.total_weight(), 3);
        g.check_invariants().unwrap();
    }

    #[test]
    fn clique_checks() {
        let g = triangle();
        assert!(g.is_clique(&[n(0), n(1), n(2)]));
        assert!(g.is_clique(&[n(0), n(1)]));
        assert!(!g.is_clique(&[n(0), n(1), n(3)]));
        assert!(g.is_clique(&[n(3)]));
    }

    #[test]
    fn common_neighbors_sorted() {
        let mut g = triangle();
        g.add_edge_weight(n(0), n(3), 1);
        g.add_edge_weight(n(1), n(3), 1);
        assert_eq!(g.common_neighbors(n(0), n(1)), vec![n(2), n(3)]);
        assert_eq!(g.common_neighbors(n(2), n(3)), vec![n(0), n(1)]);
        assert_eq!(g.common_neighbor_count(n(0), n(1)), 2);
        assert_eq!(g.common_neighbor_count(n(2), n(3)), 2);
        assert_eq!(g.common_neighbor_count(n(0), n(3)), 1);
    }

    #[test]
    fn edge_iteration_each_pair_once() {
        let g = triangle();
        let mut edges = g.sorted_edge_list();
        edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        assert_eq!(
            edges,
            vec![(n(0), n(1), 2), (n(0), n(2), 3), (n(1), n(2), 1)]
        );
    }

    #[test]
    fn non_isolated_nodes_excludes_isolated() {
        let g = triangle();
        assert_eq!(g.non_isolated_nodes(), vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn neighbors_sorted_deterministic() {
        let mut g = ProjectedGraph::new(5);
        for v in [4, 1, 3] {
            g.add_edge_weight(n(0), n(v), 1);
        }
        assert_eq!(g.sorted_neighbors(n(0)), vec![n(1), n(3), n(4)]);
    }
}
