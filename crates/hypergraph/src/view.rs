//! A round-frozen CSR snapshot of a [`ProjectedGraph`].
//!
//! [`ProjectedGraph`] stores one hash map per node because the
//! reconstruction loop *mutates* it (commits decrement edge weights).
//! Inside one enumeration/scoring pass, however, the graph is frozen:
//! every clique probe, MHH merge and feature read sees the same weights.
//! [`GraphView`] exploits that window with a compressed-sparse-row
//! layout — one offset array plus sorted `(neighbour, weight)` slices —
//! so hot-path queries become merges and binary searches over contiguous
//! memory instead of per-edge hash lookups.
//!
//! A view is a snapshot: it does not follow later mutations of the graph
//! it was frozen from. It can, however, be mutated itself, through
//! [`GraphView::decrement_entry`] and [`GraphView::decrement_unit`]. The
//! cross-round search engine freezes its input once and from then on
//! uses the view as its only working graph, decrementing it with every
//! commit, so the full-freeze cost is paid once per run.

use crate::graph::ProjectedGraph;
use crate::node::NodeId;

/// A CSR snapshot of a [`ProjectedGraph`], patchable in place.
///
/// Per node `u`, `neighbors(u)` and `neighbor_weights(u)` are parallel
/// slices sorted by neighbour id. Every accessor returns exactly the same
/// value as its [`ProjectedGraph`] counterpart on the graph the view was
/// frozen from (property-tested), so the two representations are
/// interchangeable for read-only code.
///
/// Reconstruction commits only ever *decrement* edges, so the view
/// supports exactly that mutation: [`GraphView::decrement_entry`] mirrors
/// [`ProjectedGraph::decrement_edge`]. Removing an edge compacts the two
/// endpoint rows in place (each row keeps its original capacity; the live
/// prefix length is tracked per row), which means **slot indices of
/// untouched rows never move** — the property the per-round MHH memo's
/// incremental patching relies on.
#[derive(Debug, Clone)]
pub struct GraphView {
    /// `offsets[u]..offsets[u + 1]` is `u`'s *capacity* range in
    /// `nbrs`/`weights`; the live entries are the first `lens[u]` of it.
    offsets: Vec<usize>,
    /// Live entries per row (equals the row capacity until an incident
    /// edge is removed).
    lens: Vec<usize>,
    nbrs: Vec<u32>,
    weights: Vec<u32>,
    weighted_degree: Vec<u64>,
    num_edges: usize,
    total_weight: u64,
}

impl GraphView {
    /// Snapshots `g` into CSR form. O(V + E log d) for the per-node sort.
    pub fn freeze(g: &ProjectedGraph) -> Self {
        let n = g.num_nodes() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut slots = 0usize;
        for u in 0..n {
            slots += g.degree(NodeId(u as u32));
            offsets.push(slots);
        }
        let mut nbrs = vec![0u32; slots];
        let mut weights = vec![0u32; slots];
        let mut weighted_degree = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        let mut row: Vec<(u32, u32)> = Vec::new();
        for (u, &start) in offsets.iter().take(n).enumerate() {
            let id = NodeId(u as u32);
            row.clear();
            row.extend(g.neighbors(id).map(|(v, w)| (v.0, w)));
            row.sort_unstable_by_key(|&(v, _)| v);
            for (i, &(v, w)) in row.iter().enumerate() {
                nbrs[start + i] = v;
                weights[start + i] = w;
            }
            lens.push(row.len());
            weighted_degree.push(g.weighted_degree(id));
        }
        GraphView {
            offsets,
            lens,
            nbrs,
            weights,
            weighted_degree,
            num_edges: g.num_edges(),
            total_weight: g.total_weight(),
        }
    }

    /// Number of nodes in the universe (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of edges with positive weight.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of all edge weights over unordered pairs.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Capacity of the directed adjacency slot space — the length any
    /// per-slot side array (such as an MHH cache) must have. Equals
    /// `2 × num_edges` on a freshly frozen view; removals leave holes, so
    /// after patching it may exceed the live slot count.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.nbrs.len()
    }

    /// First slot index of `u`'s row; `u`'s live slots are
    /// `row_start(u) .. row_start(u) + degree(u)`.
    #[inline]
    pub fn row_start(&self, u: NodeId) -> usize {
        self.offsets[u.index()]
    }

    /// Number of neighbours of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.lens[u.index()]
    }

    /// Weighted degree `Σ_{v ∈ N(u)} ω_{u,v}`.
    #[inline]
    pub fn weighted_degree(&self, u: NodeId) -> u64 {
        self.weighted_degree[u.index()]
    }

    /// Neighbour ids of `u`, ascending.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        let start = self.offsets[u.index()];
        &self.nbrs[start..start + self.lens[u.index()]]
    }

    /// Weights parallel to [`GraphView::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, u: NodeId) -> &[u32] {
        let start = self.offsets[u.index()];
        &self.weights[start..start + self.lens[u.index()]]
    }

    /// Sorted neighbour ids and their weights as parallel slices.
    #[inline]
    pub fn neighbor_entries(&self, u: NodeId) -> (&[u32], &[u32]) {
        let start = self.offsets[u.index()];
        let range = start..start + self.lens[u.index()];
        (&self.nbrs[range.clone()], &self.weights[range])
    }

    /// Global slot index of the directed adjacency entry `(u, v)`, if the
    /// edge exists. Slots index [`GraphView::weight_at`] and per-slot side
    /// arrays.
    #[inline]
    pub fn slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let start = self.offsets[u.index()];
        let nbrs = &self.nbrs[start..start + self.lens[u.index()]];
        nbrs.binary_search(&v.0).ok().map(|i| start + i)
    }

    /// Weight stored at a directed slot returned by [`GraphView::slot`].
    #[inline]
    pub fn weight_at(&self, slot: usize) -> u32 {
        self.weights[slot]
    }

    /// Weight `ω_{u,v}`; zero when the edge is absent.
    #[inline]
    pub fn weight(&self, u: NodeId, v: NodeId) -> u32 {
        self.slot(u, v).map_or(0, |s| self.weights[s])
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.slot(u, v).is_some()
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

    /// Size of `N(u) ∩ N(v)` — no allocation, dispatched to the active
    /// [`marioh_kernels`] intersection kernel (exact count at every
    /// level, so this stays interchangeable with the hash-map variant).
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        marioh_kernels::intersect_count(self.neighbors(u), self.neighbors(v))
    }

    /// Iterates over all edges `(u, v, ω)` with `u < v` in ascending
    /// `(u, v)` order — the same order as
    /// [`ProjectedGraph::sorted_edge_list`], without materialising it.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            let id = NodeId(u);
            let (nbrs, weights) = self.neighbor_entries(id);
            nbrs.iter()
                .zip(weights)
                .filter(move |&(&v, _)| u < v)
                .map(move |(&v, &w)| (id, NodeId(v), w))
        })
    }

    /// Decrements `ω_{u,v}` by `amount` (clamped), removing the edge when
    /// the weight reaches zero — the in-place mirror of
    /// [`ProjectedGraph::decrement_edge`]. Returns the amount actually
    /// removed.
    ///
    /// After mirroring every graph mutation through this method, all
    /// accessors return exactly what a fresh [`GraphView::freeze`] of the
    /// mutated graph would (property-tested). A removal compacts only the
    /// two endpoint rows, so slot indices of edges not incident to `u` or
    /// `v` are unaffected.
    pub fn decrement_entry(&mut self, u: NodeId, v: NodeId, amount: u32) -> u32 {
        let Some(su) = self.slot(u, v) else {
            return 0;
        };
        let sv = self.slot(v, u).expect("symmetric adjacency");
        let w = self.weights[su];
        let removed = amount.min(w);
        if removed == w {
            self.remove_slot(u, su);
            self.remove_slot(v, sv);
            self.num_edges -= 1;
        } else {
            self.weights[su] -= removed;
            self.weights[sv] -= removed;
        }
        self.weighted_degree[u.index()] -= u64::from(removed);
        self.weighted_degree[v.index()] -= u64::from(removed);
        self.total_weight -= u64::from(removed);
        removed
    }

    /// Decrements `ω_{u,v}` by one — the commit fast path, skipping the
    /// clamp/absence handling of [`GraphView::decrement_entry`]. Returns
    /// whether the edge was removed (its weight hit zero).
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge; callers validate the whole
    /// clique against the view first.
    pub fn decrement_unit(&mut self, u: NodeId, v: NodeId) -> bool {
        let su = self.slot(u, v).expect("decrement_unit on absent edge");
        let sv = self.slot(v, u).expect("symmetric adjacency");
        let gone = self.weights[su] == 1;
        if gone {
            self.remove_slot(u, su);
            self.remove_slot(v, sv);
            self.num_edges -= 1;
        } else {
            self.weights[su] -= 1;
            self.weights[sv] -= 1;
        }
        self.weighted_degree[u.index()] -= 1;
        self.weighted_degree[v.index()] -= 1;
        self.total_weight -= 1;
        gone
    }

    /// Removes the live slot `s` from `u`'s row by shifting the row's
    /// tail left; the freed capacity slot at the row end becomes a hole.
    fn remove_slot(&mut self, u: NodeId, s: usize) {
        let start = self.offsets[u.index()];
        let end = start + self.lens[u.index()];
        debug_assert!((start..end).contains(&s));
        self.nbrs.copy_within(s + 1..end, s);
        self.weights.copy_within(s + 1..end, s);
        self.lens[u.index()] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn random_graph(rng: &mut StdRng, nodes: u32, p: f64) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(nodes);
        for u in 0..nodes {
            for v in u + 1..nodes {
                if rng.gen_bool(p) {
                    g.add_edge_weight(NodeId(u), NodeId(v), rng.gen_range(1..6));
                }
            }
        }
        g
    }

    #[test]
    fn view_matches_graph_on_every_accessor() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..25 {
            let nodes = rng.gen_range(1..30u32);
            let p = rng.gen_range(0.05..0.7);
            let g = random_graph(&mut rng, nodes, p);
            let view = GraphView::freeze(&g);

            assert_eq!(view.num_nodes(), g.num_nodes());
            assert_eq!(view.num_edges(), g.num_edges());
            assert_eq!(view.total_weight(), g.total_weight());
            assert_eq!(view.num_slots(), 2 * g.num_edges());
            assert_eq!(view.edges().collect::<Vec<_>>(), g.sorted_edge_list());

            for u in (0..nodes).map(NodeId) {
                assert_eq!(view.degree(u), g.degree(u));
                assert_eq!(view.weighted_degree(u), g.weighted_degree(u));
                let sorted: Vec<u32> = g.sorted_neighbors(u).iter().map(|v| v.0).collect();
                assert_eq!(view.neighbors(u), &sorted[..]);
                let (ids, ws) = view.neighbor_entries(u);
                assert_eq!(ids, view.neighbors(u));
                assert_eq!(ws, view.neighbor_weights(u));
                for v in (0..nodes).map(NodeId) {
                    assert_eq!(view.weight(u, v), g.weight(u, v));
                    assert_eq!(view.has_edge(u, v), g.has_edge(u, v));
                    if u < v {
                        assert_eq!(
                            view.common_neighbor_count(u, v),
                            g.common_neighbors(u, v).len()
                        );
                        assert_eq!(
                            view.common_neighbor_count(u, v),
                            g.common_neighbor_count(u, v)
                        );
                    }
                }
            }

            // Random subsets agree on cliqueness.
            for _ in 0..10 {
                let k = rng.gen_range(1..=4.min(nodes as usize));
                let mut subset: Vec<NodeId> = (0..nodes).map(NodeId).collect();
                for i in (1..subset.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    subset.swap(i, j);
                }
                let mut subset: Vec<NodeId> = subset.into_iter().take(k).collect();
                subset.sort_unstable();
                assert_eq!(view.is_clique(&subset), g.is_clique(&subset));
            }
        }
    }

    #[test]
    fn slot_round_trips_weights() {
        let mut g = ProjectedGraph::new(4);
        g.add_edge_weight(n(0), n(2), 5);
        g.add_edge_weight(n(0), n(1), 3);
        let view = GraphView::freeze(&g);
        let s = view.slot(n(0), n(2)).unwrap();
        assert_eq!(view.weight_at(s), 5);
        assert_eq!(view.slot(n(0), n(3)), None);
        assert_eq!(view.neighbors(n(0)), &[1, 2]);
        assert_eq!(view.neighbor_weights(n(0)), &[3, 5]);
    }

    #[test]
    fn empty_graph_view() {
        let view = GraphView::freeze(&ProjectedGraph::new(3));
        assert_eq!(view.num_nodes(), 3);
        assert_eq!(view.num_edges(), 0);
        assert_eq!(view.num_slots(), 0);
        assert!(view.edges().next().is_none());
        assert_eq!(view.common_neighbor_count(n(0), n(1)), 0);
    }

    /// Every accessor of `view` agrees with a fresh freeze of `g`
    /// (ignoring slot-capacity bookkeeping, which holes are allowed to
    /// inflate).
    fn assert_matches_fresh_freeze(view: &GraphView, g: &ProjectedGraph) {
        let fresh = GraphView::freeze(g);
        assert_eq!(view.num_nodes(), fresh.num_nodes());
        assert_eq!(view.num_edges(), fresh.num_edges());
        assert_eq!(view.total_weight(), fresh.total_weight());
        assert_eq!(
            view.edges().collect::<Vec<_>>(),
            fresh.edges().collect::<Vec<_>>()
        );
        for u in (0..view.num_nodes()).map(NodeId) {
            assert_eq!(view.degree(u), fresh.degree(u));
            assert_eq!(view.weighted_degree(u), fresh.weighted_degree(u));
            assert_eq!(view.neighbors(u), fresh.neighbors(u));
            assert_eq!(view.neighbor_weights(u), fresh.neighbor_weights(u));
            for v in (0..view.num_nodes()).map(NodeId) {
                assert_eq!(view.weight(u, v), fresh.weight(u, v));
                assert_eq!(view.has_edge(u, v), fresh.has_edge(u, v));
                if u < v {
                    assert_eq!(
                        view.common_neighbor_count(u, v),
                        fresh.common_neighbor_count(u, v)
                    );
                }
            }
        }
    }

    #[test]
    fn patched_view_matches_fresh_freeze_after_random_decrements() {
        let mut rng = StdRng::seed_from_u64(77);
        // Two inputs: clamped decrements of random pairs (present or
        // not) through `decrement_entry`, and unit decrements of live
        // edges through `decrement_unit`, the engine's commit path.
        for unit in [false, true] {
            for _ in 0..20 {
                let nodes = rng.gen_range(2..25u32);
                let mut g = random_graph(&mut rng, nodes, 0.4);
                let mut view = GraphView::freeze(&g);
                for _ in 0..40 {
                    if unit {
                        let live: Vec<_> = view.edges().collect();
                        if live.is_empty() {
                            break;
                        }
                        let (mut u, mut v, _) = live[rng.gen_range(0..live.len())];
                        if rng.gen_bool(0.5) {
                            std::mem::swap(&mut u, &mut v);
                        }
                        let gone = view.decrement_unit(u, v);
                        assert_eq!(g.decrement_edge(u, v, 1), 1);
                        assert_eq!(gone, !g.has_edge(u, v));
                        continue;
                    }
                    let u = NodeId(rng.gen_range(0..nodes));
                    let v = NodeId(rng.gen_range(0..nodes));
                    if u == v {
                        continue;
                    }
                    let amount = rng.gen_range(1..4u32);
                    let removed_g = g.decrement_edge(u, v, amount);
                    let removed_v = view.decrement_entry(u, v, amount);
                    assert_eq!(removed_g, removed_v);
                }
                assert_matches_fresh_freeze(&view, &g);
                g.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn removal_keeps_untouched_rows_slot_stable() {
        // A path 0-1-2-3 plus an edge (0,3): removing (1,2) must not move
        // the slots of row 0 or row 3.
        let mut g = ProjectedGraph::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            g.add_edge_weight(n(u), n(v), 2);
        }
        let mut view = GraphView::freeze(&g);
        let s01 = view.slot(n(0), n(1)).unwrap();
        let s03 = view.slot(n(0), n(3)).unwrap();
        let s32 = view.slot(n(3), n(2)).unwrap();
        assert_eq!(view.decrement_entry(n(1), n(2), 9), 2);
        assert_eq!(view.slot(n(0), n(1)), Some(s01));
        assert_eq!(view.slot(n(0), n(3)), Some(s03));
        assert_eq!(view.slot(n(3), n(2)), Some(s32));
        assert_eq!(view.slot(n(1), n(2)), None);
        assert_eq!(view.decrement_entry(n(1), n(2), 1), 0);
        assert_eq!(view.num_edges(), 3);
        // Capacity is unchanged; only live lengths shrank.
        assert_eq!(view.num_slots(), 8);
    }
}
