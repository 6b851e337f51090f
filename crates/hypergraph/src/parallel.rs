//! Parallel maximal-clique enumeration.
//!
//! Clique enumeration dominates MARIOH's bidirectional-search runtime on
//! dense graphs (Fig. 6), and the Bron–Kerbosch outer loop over the
//! degeneracy ordering is embarrassingly parallel: each root vertex's
//! subproblem touches only the immutable adjacency snapshot. Workers pull
//! root vertices from a shared atomic counter (hub vertices make static
//! chunking lopsided), and the merged output is sorted so results are
//! byte-identical to [`crate::clique::maximal_cliques`] regardless of
//! thread count.
//!
//! Fan-out goes through a [`WorkerPool`] — the search engine keeps one
//! alive across all rounds of a run, so repeated rounds never pay thread
//! spawns — and small graphs skip the pool entirely: below
//! [`ENUM_PARALLEL_MIN_EDGES`] edges, enumeration is cheaper than waking
//! the workers (the measured 2/4-thread regressions on the small Table-1
//! datasets), so the serial path runs regardless of the requested thread
//! count. Results are identical either way.

use crate::clique::{
    bk_pivot, bk_pivot_region, degeneracy_ordering_view, region_roots_local, root_split,
};
use crate::node::NodeId;
use crate::pool::WorkerPool;
use crate::view::GraphView;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Below this many edges, Bron–Kerbosch over the whole graph is cheaper
/// than fanning root subproblems out, so enumeration stays serial.
pub const ENUM_PARALLEL_MIN_EDGES: usize = 8192;

/// Whether fanning full enumeration out is worth the dispatch cost.
/// Edge count alone misjudges *dense* graphs — Bron–Kerbosch cost grows
/// with density, not edge count, so a small-but-dense graph (average
/// degree ≥ 32) still fans out even under the edge floor.
pub fn enumeration_parallel_worthwhile(view: &GraphView) -> bool {
    let e = view.num_edges();
    e >= ENUM_PARALLEL_MIN_EDGES || e >= 16 * view.num_nodes() as usize
}

/// Enumerates all maximal cliques (size ≥ 2) of a frozen [`GraphView`].
/// When `threads > 1` *and* [`enumeration_parallel_worthwhile`] says the
/// graph can amortise the dispatch, root subproblems fan out over a
/// transient [`WorkerPool`]; otherwise the serial path runs. The view is
/// the *only* structure consulted, so the search loop shares one view
/// between enumeration and scoring.
///
/// Output is sorted, hence identical for any thread count and equal to
/// [`crate::clique::maximal_cliques`] on the source graph.
pub fn maximal_cliques_view(view: &GraphView, threads: usize) -> Vec<Vec<NodeId>> {
    if threads <= 1 || !enumeration_parallel_worthwhile(view) {
        let (order, rank) = ordering(view);
        return enumerate_roots_serial(view, &rank, &order, None);
    }
    let pool = WorkerPool::new(threads);
    maximal_cliques_pool(view, &pool)
}

/// Computes a degeneracy ordering of `view` and its inverse rank array —
/// the pair every `*_ranked` enumeration entry point consumes. Any
/// permutation yields the correct (sorted) clique set; a degeneracy
/// ordering gives the Eppstein–Löffler–Strash complexity bound, so
/// callers that cache the pair across rounds of a shrinking graph
/// (degrees only decrease) keep near-optimal behaviour without an
/// `O(V + E)` recomputation per round.
pub fn ordering(view: &GraphView) -> (Vec<NodeId>, Vec<u32>) {
    let order = degeneracy_ordering_view(view);
    let mut rank = vec![0u32; view.num_nodes() as usize];
    for (i, u) in order.iter().enumerate() {
        rank[u.index()] = i as u32;
    }
    (order, rank)
}

/// [`maximal_cliques_view`] with a caller-provided (possibly cached)
/// ordering: enumeration itself, no `O(V + E)` ordering pass. `rank`
/// must be the inverse permutation of `order`.
pub fn maximal_cliques_ranked(
    view: &GraphView,
    order: &[NodeId],
    rank: &[u32],
) -> Vec<Vec<NodeId>> {
    enumerate_roots_serial(view, rank, order, None)
}

/// [`maximal_cliques_ranked`] fanned out over a caller-owned pool.
pub fn maximal_cliques_ranked_pool(
    view: &GraphView,
    order: &[NodeId],
    rank: &[u32],
    pool: &WorkerPool,
) -> Vec<Vec<NodeId>> {
    if pool.threads() <= 1 {
        return enumerate_roots_serial(view, rank, order, None);
    }
    enumerate_roots_pool(view, rank, order, None, pool)
}

/// Region enumeration with a cached ordering and the dirty vertex *list*
/// (`dirty_list` deduplicated, `dirty` its membership mask): root
/// candidates are derived from the dirty side in `O(Σ deg(De))` instead
/// of scanning every vertex. Output identical to
/// [`crate::clique::maximal_cliques_region`].
pub fn maximal_cliques_region_ranked(
    view: &GraphView,
    rank: &[u32],
    dirty_list: &[NodeId],
    dirty: &[bool],
) -> Vec<Vec<NodeId>> {
    let roots = region_roots_local(view, rank, dirty_list);
    enumerate_roots_serial(view, rank, &roots, Some(dirty))
}

/// [`maximal_cliques_region_ranked`] fanned out over a caller-owned pool.
pub fn maximal_cliques_region_ranked_pool(
    view: &GraphView,
    rank: &[u32],
    dirty_list: &[NodeId],
    dirty: &[bool],
    pool: &WorkerPool,
) -> Vec<Vec<NodeId>> {
    let roots = region_roots_local(view, rank, dirty_list);
    if pool.threads() <= 1 {
        return enumerate_roots_serial(view, rank, &roots, Some(dirty));
    }
    enumerate_roots_pool(view, rank, &roots, Some(dirty), pool)
}

/// [`maximal_cliques_view`] against a caller-owned [`WorkerPool`] — the
/// cross-round engine's entry point, which skips both the snapshot
/// rebuild *and* the per-round thread spawns. Always fans out (callers
/// apply their own work thresholds); a 1-thread pool runs inline.
pub fn maximal_cliques_pool(view: &GraphView, pool: &WorkerPool) -> Vec<Vec<NodeId>> {
    let (order, rank) = ordering(view);
    maximal_cliques_ranked_pool(view, &order, &rank, pool)
}

/// Serial Bron–Kerbosch over the given root vertices (full enumeration
/// when `roots` is the whole ordering, region enumeration when a dirty
/// mask restricts emission).
fn enumerate_roots_serial(
    view: &GraphView,
    rank: &[u32],
    roots: &[NodeId],
    region: Option<&[bool]>,
) -> Vec<Vec<NodeId>> {
    let mut all: Vec<Vec<u32>> = Vec::new();
    for &u in roots {
        let (p, x) = root_split(view, rank, u);
        let mut r = vec![u.0];
        match region {
            None => {
                bk_pivot(view, &mut r, p, x, &mut all);
            }
            Some(dirty) => {
                bk_pivot_region(view, &mut r, dirty[u.index()], p, x, dirty, &mut all);
            }
        }
    }
    finish(all)
}

/// Pool-fanned enumeration: workers pull roots off an atomic counter into
/// per-worker shards, merged and sorted at the end.
fn enumerate_roots_pool(
    view: &GraphView,
    rank: &[u32],
    roots: &[NodeId],
    region: Option<&[bool]>,
    pool: &WorkerPool,
) -> Vec<Vec<NodeId>> {
    if roots.is_empty() {
        return Vec::new();
    }
    let workers = pool.threads();
    let next = AtomicUsize::new(0);
    let shards: Vec<Mutex<Vec<Vec<u32>>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    pool.run(&|w| {
        let mut out: Vec<Vec<u32>> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&u) = roots.get(i) else {
                break;
            };
            let (p, x) = root_split(view, rank, u);
            let mut r = vec![u.0];
            match region {
                None => {
                    bk_pivot(view, &mut r, p, x, &mut out);
                }
                Some(dirty) => {
                    bk_pivot_region(view, &mut r, dirty[u.index()], p, x, dirty, &mut out);
                }
            }
        }
        *shards[w].lock().expect("shard poisoned") = out;
    });
    let mut all: Vec<Vec<u32>> = Vec::new();
    let total: usize = shards
        .iter()
        .map(|s| s.lock().expect("shard poisoned").len())
        .sum();
    all.reserve(total);
    for shard in shards {
        all.extend(shard.into_inner().expect("shard poisoned"));
    }
    finish(all)
}

fn finish(mut all: Vec<Vec<u32>>) -> Vec<Vec<NodeId>> {
    all.sort_unstable();
    all.into_iter()
        .map(|c| c.into_iter().map(NodeId).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique::{maximal_cliques, maximal_cliques_region};
    use crate::graph::ProjectedGraph;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: u32, p: f64) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(p) {
                    g.add_edge_weight(NodeId(u), NodeId(v), 1);
                }
            }
        }
        g
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..12 {
            let n = rng.gen_range(2..40u32);
            let p = rng.gen_range(0.05..0.6);
            let g = random_graph(&mut rng, n, p);
            let view = GraphView::freeze(&g);
            let (order, rank) = ordering(&view);
            let serial = maximal_cliques(&g);
            for threads in [2, 3, 8] {
                let pool = WorkerPool::new(threads);
                assert_eq!(
                    maximal_cliques_ranked_pool(&view, &order, &rank, &pool),
                    serial,
                    "n={n} p={p} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn pool_enumeration_matches_serial_even_below_threshold() {
        // `maximal_cliques_pool` has no size gate, so small graphs still
        // exercise the fanned-out path.
        let mut rng = StdRng::seed_from_u64(14);
        let pool = WorkerPool::new(4);
        for _ in 0..10 {
            let n = rng.gen_range(2..35u32);
            let g = random_graph(&mut rng, n, 0.4);
            let view = GraphView::freeze(&g);
            assert_eq!(maximal_cliques_pool(&view, &pool), maximal_cliques(&g));
        }
    }

    #[test]
    fn region_pool_matches_serial_region() {
        let mut rng = StdRng::seed_from_u64(15);
        let pool = WorkerPool::new(3);
        for _ in 0..10 {
            let n = rng.gen_range(2..30u32);
            let g = random_graph(&mut rng, n, 0.45);
            let view = GraphView::freeze(&g);
            let (_, rank) = ordering(&view);
            let dirty: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
            let dirty_list: Vec<NodeId> = (0..n).map(NodeId).filter(|u| dirty[u.index()]).collect();
            assert_eq!(
                maximal_cliques_region_ranked_pool(&view, &rank, &dirty_list, &dirty, &pool),
                maximal_cliques_region(&view, &dirty)
            );
        }
    }

    #[test]
    fn single_thread_delegates_to_serial() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = random_graph(&mut rng, 20, 0.3);
        let view = GraphView::freeze(&g);
        assert_eq!(maximal_cliques_view(&view, 1), maximal_cliques(&g));
        assert_eq!(maximal_cliques_view(&view, 0), maximal_cliques(&g));
    }

    #[test]
    fn prebuilt_view_matches_graph_enumeration() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..8 {
            let n = rng.gen_range(2..30u32);
            let g = random_graph(&mut rng, n, 0.35);
            let view = GraphView::freeze(&g);
            let serial = maximal_cliques(&g);
            for threads in [1, 2, 4] {
                assert_eq!(maximal_cliques_view(&view, threads), serial);
            }
        }
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let g = ProjectedGraph::new(7);
        assert!(maximal_cliques_view(&GraphView::freeze(&g), 4).is_empty());
        let pool = WorkerPool::new(4);
        assert!(maximal_cliques_pool(&GraphView::freeze(&g), &pool).is_empty());
    }

    #[test]
    fn more_threads_than_vertices() {
        let mut g = ProjectedGraph::new(3);
        g.add_edge_weight(NodeId(0), NodeId(1), 1);
        g.add_edge_weight(NodeId(1), NodeId(2), 1);
        let pool = WorkerPool::new(64);
        let cliques = maximal_cliques_pool(&GraphView::freeze(&g), &pool);
        assert_eq!(
            cliques,
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(2)]]
        );
    }

    #[test]
    fn dense_graph_single_clique() {
        let mut g = ProjectedGraph::new(10);
        for u in 0..10u32 {
            for v in u + 1..10 {
                g.add_edge_weight(NodeId(u), NodeId(v), 1);
            }
        }
        let cliques = maximal_cliques_view(&GraphView::freeze(&g), 4);
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].len(), 10);
    }
}
