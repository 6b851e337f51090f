//! The maximum number of higher-order hyperedges (MHH) and residual edge
//! multiplicity (Eq. 1, Lemmas 1–2 of the paper).
//!
//! Two computation paths produce identical values:
//!
//! * [`mhh`] — hash probes against a [`ProjectedGraph`];
//!   `O(min-degree)` probes per pair. Used by one-off queries and the
//!   per-clique [`crate::TrainedModel::score`] reference.
//! * [`mhh_view`] / [`MhhCache`] — sorted-merge intersection over a
//!   [`GraphView`], such as the search engine's residual. The cache
//!   computes every edge's MHH at most once per round, which is what
//!   makes clique scoring cheap: overlapping cliques share most of their
//!   pairs.
//!
//! Both are exact integer sums over the same set of common neighbours,
//! so they agree bit-for-bit (property-tested).

use marioh_hypergraph::{GraphView, NodeId, ProjectedGraph, WorkerPool};
use std::sync::Mutex;

/// `MHH(u, v) = Σ_{z ∈ N(u) ∩ N(v)} min(ω_{u,z}, ω_{v,z})` — an upper
/// bound on the number of hyperedges of size ≥ 3 containing both `u` and
/// `v` (Lemma 1).
///
/// Rationale: every size-≥3 hyperedge containing `u` and `v` also contains
/// some third node `z`, and contributes 1 to both `ω_{u,z}` and
/// `ω_{v,z}`; summing the pairwise minima over common neighbours therefore
/// bounds the count from above.
pub fn mhh(g: &ProjectedGraph, u: NodeId, v: NodeId) -> u64 {
    let (small, large) = if g.degree(u) <= g.degree(v) {
        (u, v)
    } else {
        (v, u)
    };
    let mut total = 0u64;
    for (z, w_small) in g.neighbors(small) {
        if z == large {
            continue;
        }
        let w_large = g.weight(large, z);
        if w_large > 0 {
            total += u64::from(w_small.min(w_large));
        }
    }
    total
}

/// Residual edge multiplicity `r_{u,v} = ω_{u,v} − MHH(u, v)`, clamped at
/// zero.
///
/// By Lemma 2 this is a lower bound on the number of hyperedges that
/// consist of exactly `{u, v}`, so a positive residual certifies `r`
/// copies of the size-2 hyperedge.
pub fn residual_multiplicity(g: &ProjectedGraph, u: NodeId, v: NodeId) -> u32 {
    let w = u64::from(g.weight(u, v));
    let bound = mhh(g, u, v);
    u32::try_from(w.saturating_sub(bound)).expect("residual exceeds u32")
}

/// [`mhh`] computed against a round-frozen [`GraphView`] by the
/// dispatched sorted-merge kernel ([`marioh_kernels::intersect_min_sum`])
/// over the two adjacency slices — no hashing, no allocation.
/// Identical value to [`mhh`] on the source graph: both sum
/// `min(ω_{u,z}, ω_{v,z})` over exactly `N(u) ∩ N(v)` (which can contain
/// neither `u` nor `v`), and integer addition is order-independent.
pub fn mhh_view(view: &GraphView, u: NodeId, v: NodeId) -> u64 {
    let (nu, wu) = view.neighbor_entries(u);
    let (nv, wv) = view.neighbor_entries(v);
    marioh_kernels::intersect_min_sum(nu, wu, nv, wv)
}

/// Per-round MHH memo: one `u64` per directed adjacency slot of a
/// [`GraphView`], filled for the canonical direction `u < v`.
///
/// Built once per scoring pass (optionally in parallel), so every edge's
/// MHH is computed exactly once per round no matter how many overlapping
/// cliques contain it. Lookups are a binary search in the smaller
/// endpoint's slice ([`GraphView::slot`]) — or free when the caller
/// already holds the slot from a weight lookup.
#[derive(Debug, Clone)]
pub struct MhhCache {
    vals: Vec<u64>,
}

impl MhhCache {
    /// Computes the MHH of every edge of `view` on up to `threads`
    /// workers. Work is partitioned into contiguous node ranges balanced
    /// by adjacency-slot count; each worker writes only its own slice, so
    /// results are identical for any thread count.
    ///
    /// The cache is sized to the view's full slot *capacity*
    /// ([`GraphView::num_slots`]), so it stays index-compatible with a
    /// view whose rows have been compacted by
    /// [`GraphView::decrement_entry`] — hole slots are simply never
    /// written or read.
    pub fn build(view: &GraphView, threads: usize) -> MhhCache {
        let n = view.num_nodes() as usize;
        let slots = view.num_slots();
        let mut vals = vec![0u64; slots];

        // Fills canonical (u < v) slots for nodes in [lo, hi); `base` is
        // the global slot index where this chunk starts.
        let fill = |lo: usize, hi: usize, chunk: &mut [u64], base: usize| {
            for u in lo..hi {
                let id = NodeId(u as u32);
                let start = view.row_start(id);
                for (i, &v) in view.neighbors(id).iter().enumerate() {
                    if v > u as u32 {
                        chunk[start + i - base] = mhh_view(view, id, NodeId(v));
                    }
                }
            }
        };

        let threads = threads.max(1).min(n.max(1));
        if threads <= 1 || slots < 4096 {
            fill(0, n, &mut vals, 0);
            return MhhCache { vals };
        }

        let (bounds, slot_bounds) = partition_by_capacity(view, threads);
        std::thread::scope(|scope| {
            let mut rest: &mut [u64] = &mut vals;
            let mut consumed = 0usize;
            for w in 0..bounds.len() - 1 {
                let (lo, hi) = (bounds[w], bounds[w + 1]);
                let (base, end) = (slot_bounds[w], slot_bounds[w + 1]);
                let (chunk, tail) = rest.split_at_mut(end - consumed);
                rest = tail;
                consumed = end;
                let fill = &fill;
                scope.spawn(move || fill(lo, hi, chunk, base));
            }
        });
        MhhCache { vals }
    }

    /// [`MhhCache::build`] fanned out over a caller-owned persistent
    /// [`WorkerPool`] — the cross-round engine's path, which avoids the
    /// per-build thread spawns of the scoped variant. Identical values
    /// for any pool size.
    pub fn build_pool(view: &GraphView, pool: &WorkerPool) -> MhhCache {
        let n = view.num_nodes() as usize;
        let slots = view.num_slots();
        let workers = pool.threads().min(n.max(1));
        if workers <= 1 || slots < 4096 {
            return MhhCache::build(view, 1);
        }
        let mut vals = vec![0u64; slots];
        let (bounds, slot_bounds) = partition_by_capacity(view, workers);
        /// One worker's unit: node range `lo..hi`, its chunk's first
        /// global slot, and the disjoint output slice.
        type Chunk<'a> = (usize, usize, usize, &'a mut [u64]);
        {
            // Hand each pool participant its chunk through a one-shot
            // slot table (same pattern as parallel clique scoring).
            let mut chunks: Vec<Chunk<'_>> = Vec::new();
            let mut rest: &mut [u64] = &mut vals;
            let mut consumed = 0usize;
            for w in 0..bounds.len() - 1 {
                let (base, end) = (slot_bounds[w], slot_bounds[w + 1]);
                let (chunk, tail) = rest.split_at_mut(end - consumed);
                rest = tail;
                consumed = end;
                chunks.push((bounds[w], bounds[w + 1], base, chunk));
            }
            let slots_tbl: Mutex<Vec<Option<Chunk<'_>>>> =
                Mutex::new(chunks.into_iter().map(Some).collect());
            let num_chunks = bounds.len() - 1;
            let next = std::sync::atomic::AtomicUsize::new(0);
            pool.run(&|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= num_chunks {
                    break;
                }
                let (lo, hi, base, chunk) = slots_tbl.lock().expect("mhh chunk table poisoned")[i]
                    .take()
                    .expect("each chunk claimed once");
                for u in lo..hi {
                    let id = NodeId(u as u32);
                    let start = view.row_start(id);
                    for (j, &v) in view.neighbors(id).iter().enumerate() {
                        if v > u as u32 {
                            chunk[start + j - base] = mhh_view(view, id, NodeId(v));
                        }
                    }
                }
            });
        }
        MhhCache { vals }
    }

    /// Recomputes the cached MHH of every edge incident to a vertex of
    /// `dirty` against the (patched) `view` the cache was built from.
    ///
    /// `MHH(u, v)` reads only edges incident to `u` or `v`, so after
    /// commits change edges among a set of vertices `C`, exactly the
    /// entries incident to `C` are stale — everything else is carried
    /// over bit-for-bit (MHH is an exact integer, so "carried over" and
    /// "recomputed" are indistinguishable). `dirty` must be
    /// duplicate-free and `dirty_flag` its membership mask.
    pub fn patch(&mut self, view: &GraphView, dirty: &[NodeId], dirty_flag: &[bool]) {
        for &u in dirty {
            let start = view.row_start(u);
            for (i, &v) in view.neighbors(u).iter().enumerate() {
                let vid = NodeId(v);
                if v > u.0 {
                    // Canonical slot lives in u's (already compacted) row.
                    self.vals[start + i] = mhh_view(view, u, vid);
                } else if !dirty_flag[v as usize] {
                    // Canonical slot lives in v's row; recompute it here
                    // unless v is itself dirty (its own pass covers it).
                    let s = view.slot(vid, u).expect("symmetric adjacency");
                    self.vals[s] = mhh_view(view, vid, u);
                }
            }
        }
    }

    /// The cached MHH of edge `{u, v}`, or `None` when the pair is not an
    /// edge of the frozen view. `view` must be the view this cache was
    /// built from.
    pub fn get(&self, view: &GraphView, u: NodeId, v: NodeId) -> Option<u64> {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        view.slot(a, b).map(|s| self.vals[s])
    }

    /// The cached MHH at a canonical (`u < v`) directed slot returned by
    /// [`GraphView::slot`].
    #[inline]
    pub fn at(&self, slot: usize) -> u64 {
        self.vals[slot]
    }
}

/// Cuts node space where the cumulative slot-capacity count crosses each
/// worker's share. Returns `(node_bounds, capacity_bounds)`, both with a
/// leading 0 and trailing end sentinel.
fn partition_by_capacity(view: &GraphView, workers: usize) -> (Vec<usize>, Vec<usize>) {
    let n = view.num_nodes() as usize;
    let slots = view.num_slots();
    let mut bounds = vec![0usize];
    let mut slot_bounds = vec![0usize];
    let per = slots.div_ceil(workers);
    for u in 0..n {
        // Capacity consumed through node u = the next row's start.
        let acc = if u + 1 < n {
            view.row_start(NodeId(u as u32 + 1))
        } else {
            slots
        };
        if acc >= per * bounds.len() && u + 1 < n {
            bounds.push(u + 1);
            slot_bounds.push(acc);
        }
    }
    bounds.push(n);
    slot_bounds.push(slots);
    (bounds, slot_bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::{hyperedge::edge, projection::project, Hypergraph};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn isolated_pair_has_zero_mhh() {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1]), 3);
        let g = project(&h);
        assert_eq!(mhh(&g, n(0), n(1)), 0);
        assert_eq!(residual_multiplicity(&g, n(0), n(1)), 3);
    }

    #[test]
    fn triangle_hyperedge_mhh_covers_weight() {
        // One size-3 hyperedge: each edge has ω = 1 and MHH = 1
        // (via the third node), so residual = 0 — correctly not a size-2
        // hyperedge.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        let g = project(&h);
        assert_eq!(mhh(&g, n(0), n(1)), 1);
        assert_eq!(residual_multiplicity(&g, n(0), n(1)), 0);
    }

    #[test]
    fn mixed_case_from_figure_1() {
        // Hyperedges: {0,1,2} and {0,1} — edge (0,1) has ω = 2, MHH = 1,
        // residual = 1: exactly one provable size-2 hyperedge.
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[0, 1]));
        let g = project(&h);
        assert_eq!(g.weight(n(0), n(1)), 2);
        assert_eq!(mhh(&g, n(0), n(1)), 1);
        assert_eq!(residual_multiplicity(&g, n(0), n(1)), 1);
    }

    #[test]
    fn mhh_is_an_upper_bound_on_random_hypergraphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let n_nodes = rng.gen_range(4..10u32);
            let mut h = Hypergraph::new(n_nodes);
            for _ in 0..rng.gen_range(2..12) {
                let size = rng.gen_range(2..=4usize.min(n_nodes as usize));
                let mut nodes: Vec<u32> = (0..n_nodes).collect();
                for i in (1..nodes.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    nodes.swap(i, j);
                }
                h.add_edge_with_multiplicity(edge(&nodes[..size]), rng.gen_range(1..3));
            }
            let g = project(&h);
            for (u, v, _w) in g.sorted_edge_list() {
                // Count true higher-order hyperedges containing both.
                let true_hh: u64 = h
                    .iter()
                    .filter(|(e, _)| e.len() >= 3 && e.contains(u) && e.contains(v))
                    .map(|(_, m)| u64::from(m))
                    .sum();
                assert!(
                    mhh(&g, u, v) >= true_hh,
                    "MHH violated Lemma 1 for ({u}, {v})"
                );
                // Lemma 2: residual is a lower bound on true size-2 count.
                let true_pair: u64 = h
                    .iter()
                    .filter(|(e, _)| e.len() == 2 && e.contains(u) && e.contains(v))
                    .map(|(_, m)| u64::from(m))
                    .sum();
                assert!(
                    u64::from(residual_multiplicity(&g, u, v)) <= true_pair,
                    "residual violated Lemma 2 for ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn view_and_cache_agree_with_hash_mhh_on_random_hypergraphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..30 {
            let n_nodes = rng.gen_range(4..16u32);
            let mut h = Hypergraph::new(n_nodes);
            for _ in 0..rng.gen_range(2..20) {
                let size = rng.gen_range(2..=5usize.min(n_nodes as usize));
                let mut nodes: Vec<u32> = (0..n_nodes).collect();
                for i in (1..nodes.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    nodes.swap(i, j);
                }
                h.add_edge_with_multiplicity(edge(&nodes[..size]), rng.gen_range(1..4));
            }
            let g = project(&h);
            let view = marioh_hypergraph::GraphView::freeze(&g);
            let threads = 1 + round % 4;
            let cache = MhhCache::build(&view, threads);
            for (u, v, _) in g.sorted_edge_list() {
                let reference = mhh(&g, u, v);
                assert_eq!(mhh_view(&view, u, v), reference);
                assert_eq!(mhh_view(&view, v, u), reference);
                assert_eq!(cache.get(&view, u, v), Some(reference));
                assert_eq!(cache.get(&view, v, u), Some(reference));
                let slot = view.slot(u, v).unwrap();
                assert_eq!(cache.at(slot), reference);
            }
            assert_eq!(cache.get(&view, n(0), n(0)), None);
        }
    }

    #[test]
    fn pool_build_matches_scoped_build_above_the_parallel_floor() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Dense enough that num_slots ≥ 4096, so both variants actually
        // fan out.
        let mut rng = StdRng::seed_from_u64(99);
        let n_nodes = 80u32;
        let mut g = ProjectedGraph::new(n_nodes);
        for u in 0..n_nodes {
            for v in u + 1..n_nodes {
                if rng.gen_bool(0.7) {
                    g.add_edge_weight(n(u), n(v), rng.gen_range(1..5));
                }
            }
        }
        let view = marioh_hypergraph::GraphView::freeze(&g);
        assert!(view.num_slots() >= 4096, "test graph too small to fan out");
        let scoped = MhhCache::build(&view, 4);
        let pool = WorkerPool::new(4);
        let pooled = MhhCache::build_pool(&view, &pool);
        for (u, v, _) in g.sorted_edge_list() {
            let slot = view.slot(u, v).unwrap();
            assert_eq!(pooled.at(slot), scoped.at(slot));
            assert_eq!(pooled.at(slot), mhh(&g, u, v));
        }
    }

    #[test]
    fn patched_cache_matches_full_rebuild_after_decrements() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..20 {
            let n_nodes = rng.gen_range(4..18u32);
            let mut g = ProjectedGraph::new(n_nodes);
            for u in 0..n_nodes {
                for v in u + 1..n_nodes {
                    if rng.gen_bool(0.45) {
                        g.add_edge_weight(n(u), n(v), rng.gen_range(1..4));
                    }
                }
            }
            let mut view = marioh_hypergraph::GraphView::freeze(&g);
            let mut cache = MhhCache::build(&view, 1);
            // A batch of decrements touching a few vertices, mirrored
            // into graph and view; then patch only the touched rows.
            let mut dirty_flag = vec![false; n_nodes as usize];
            let mut dirty = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let u = n(rng.gen_range(0..n_nodes));
                let v = n(rng.gen_range(0..n_nodes));
                if u == v || !g.has_edge(u, v) {
                    continue;
                }
                let amount = rng.gen_range(1..3u32);
                g.decrement_edge(u, v, amount);
                view.decrement_entry(u, v, amount);
                for w in [u, v] {
                    if !dirty_flag[w.index()] {
                        dirty_flag[w.index()] = true;
                        dirty.push(w);
                    }
                }
            }
            cache.patch(&view, &dirty, &dirty_flag);
            let rebuilt = MhhCache::build(&view, 1);
            for (u, v, _) in g.sorted_edge_list() {
                let slot = view.slot(u, v).unwrap();
                assert_eq!(cache.at(slot), rebuilt.at(slot));
                assert_eq!(cache.at(slot), mhh(&g, u, v));
                assert_eq!(cache.get(&view, u, v), Some(mhh(&g, u, v)));
            }
        }
    }

    #[test]
    fn mhh_symmetric() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2, 3]));
        h.add_edge_with_multiplicity(edge(&[1, 2, 3]), 2);
        let g = project(&h);
        for (u, v, _) in g.sorted_edge_list() {
            assert_eq!(mhh(&g, u, v), mhh(&g, v, u));
        }
    }
}
