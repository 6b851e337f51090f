//! Maximal-clique enumeration (Bron–Kerbosch) and clique sampling.
//!
//! All clique-candidate generation in this workspace — MARIOH's
//! bidirectional search as well as the clique-based baselines — goes
//! through this module, mirroring the paper's note that "the same maximal
//! clique detection algorithm was used across all methods". It has two
//! enumeration entries, both over a frozen [`GraphView`] and a
//! [`DegeneracyOrdering`]:
//!
//! * [`maximal_cliques`] — every maximal clique;
//! * [`maximal_cliques_region`] — only those touching a dirty vertex set,
//!   the search engine's incremental re-enumeration.
//!
//! Both take an optional [`WorkerPool`]. Given one with more than one
//! thread, the Bron–Kerbosch outer loop fans out over it: each root
//! vertex's subproblem touches only the immutable view, so workers pull
//! roots from a shared atomic counter (hub vertices make static chunking
//! lopsided). The merged output is sorted, so results are byte-identical
//! for any pool size. Whether a graph is large enough to amortise the
//! fan-out is the caller's decision (the search engine gates it).

use crate::graph::ProjectedGraph;
use crate::node::NodeId;
use crate::pool::WorkerPool;
use crate::view::GraphView;
use rand::Rng;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::Mutex;

/// Splits the neighbourhood of root `u` into the Bron–Kerbosch `(P, X)`
/// sets by degeneracy rank: later-ranked neighbours are candidates,
/// earlier-ranked ones exclusions.
fn root_split(view: &GraphView, rank: &[u32], u: NodeId) -> (Vec<u32>, Vec<u32>) {
    let mut p: Vec<u32> = Vec::new();
    let mut x: Vec<u32> = Vec::new();
    for &v in view.neighbors(u) {
        if rank[v as usize] > rank[u.index()] {
            p.push(v);
        } else {
            x.push(v);
        }
    }
    (p, x)
}

/// Intersection of a sorted slice with the sorted neighbour list of `u`,
/// via the dispatched sorted-merge kernel (galloping when the
/// neighbourhood dwarfs the candidate set). Output stays sorted — the
/// Bron–Kerbosch set representation.
fn intersect_sorted(set: &[u32], nbrs: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(set.len().min(nbrs.len()));
    marioh_kernels::intersect_into(set, nbrs, &mut out);
    out
}

/// Size of the intersection of two sorted slices, without allocating.
fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    marioh_kernels::intersect_count(a, b)
}

/// A degeneracy ordering of a view's vertices and its inverse rank
/// array: the root order both enumeration entries walk.
///
/// Any permutation yields the correct (sorted) clique set; a degeneracy
/// ordering gives the Eppstein–Löffler–Strash complexity bound, so a
/// caller that caches one across rounds of a shrinking graph (degrees
/// only decrease) keeps near-optimal behaviour without an `O(V + E)`
/// recomputation per round.
#[derive(Debug, Clone)]
pub struct DegeneracyOrdering {
    order: Vec<NodeId>,
    rank: Vec<u32>,
}

impl DegeneracyOrdering {
    /// Computes a degeneracy ordering of `view`'s nodes (bucket queue,
    /// O(V + E)): each node, when taken, has the minimum degree among the
    /// nodes not yet taken.
    pub fn of(view: &GraphView) -> DegeneracyOrdering {
        let n = view.num_nodes() as usize;
        let mut degree: Vec<usize> = (0..n).map(|u| view.degree(NodeId(u as u32))).collect();
        let max_deg = degree.iter().copied().max().unwrap_or(0);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
        for (u, &d) in degree.iter().enumerate() {
            buckets[d].push(u as u32);
        }
        let mut removed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut cursor = 0usize;
        while order.len() < n {
            while cursor < buckets.len() && buckets[cursor].is_empty() {
                cursor += 1;
            }
            let Some(u) = buckets[cursor].pop() else {
                break;
            };
            if removed[u as usize] || degree[u as usize] != cursor {
                continue; // stale bucket entry
            }
            removed[u as usize] = true;
            order.push(NodeId(u));
            for &v in view.neighbors(NodeId(u)) {
                let vi = v as usize;
                if !removed[vi] {
                    let d = degree[vi];
                    degree[vi] = d - 1;
                    buckets[d - 1].push(v);
                    cursor = cursor.min(d - 1);
                }
            }
        }
        let mut rank = vec![0u32; n];
        for (i, u) in order.iter().enumerate() {
            rank[u.index()] = i as u32;
        }
        DegeneracyOrdering { order, rank }
    }
}

/// Enumerates all maximal cliques (size ≥ 2) of `view`, each a sorted
/// node vector, in sorted order.
///
/// Bron–Kerbosch with pivoting over the outer loop `ordering`
/// (Eppstein–Löffler–Strash), the standard output-sensitive-in-practice
/// variant. Given a `pool` with more than one thread, the root
/// subproblems fan out over it; otherwise they run on the caller. The
/// output is the same either way. `ordering` may be a cached ordering of
/// an earlier state of the view (same vertex set): only efficiency
/// depends on it.
pub fn maximal_cliques(
    view: &GraphView,
    ordering: &DegeneracyOrdering,
    pool: Option<&WorkerPool>,
) -> Vec<Vec<NodeId>> {
    enumerate_roots(view, &ordering.rank, &ordering.order, None, pool)
}

/// Enumerates exactly the maximal cliques (size ≥ 2) of `view` that
/// contain at least one vertex with `dirty[v] == true`, in the same
/// sorted order [`maximal_cliques`] would list them. `ordering` and
/// `pool` work as in [`maximal_cliques`].
///
/// This is the incremental engine's re-enumeration primitive: after a
/// round's commits remove edges, only cliques touching a removed-edge
/// endpoint can have appeared or died, so the engine re-enumerates the
/// dirty region and carries every other clique over.
///
/// # Panics
///
/// Panics if `dirty.len() != view.num_nodes()`.
pub fn maximal_cliques_region(
    view: &GraphView,
    ordering: &DegeneracyOrdering,
    dirty: &[bool],
    pool: Option<&WorkerPool>,
) -> Vec<Vec<NodeId>> {
    assert_eq!(dirty.len(), view.num_nodes() as usize, "dirty mask size");
    let roots = region_roots(view, &ordering.rank, dirty);
    enumerate_roots(view, &ordering.rank, &roots, Some(dirty), pool)
}

/// Bron–Kerbosch over the given root vertices — full enumeration when
/// `roots` is the whole ordering, region enumeration when a dirty mask
/// restricts emission — serially, or fanned out over `pool` when it has
/// more than one thread: workers pull roots off an atomic counter into
/// per-worker shards, merged and sorted at the end.
fn enumerate_roots(
    view: &GraphView,
    rank: &[u32],
    roots: &[NodeId],
    region: Option<&[bool]>,
    pool: Option<&WorkerPool>,
) -> Vec<Vec<NodeId>> {
    let walk = |u: NodeId, out: &mut Vec<Vec<u32>>| {
        let (p, x) = root_split(view, rank, u);
        let mut r = vec![u.0];
        match region {
            None => bk_pivot(view, &mut r, p, x, out),
            Some(dirty) => bk_pivot_region(view, &mut r, dirty[u.index()], p, x, dirty, out),
        }
    };
    let mut all: Vec<Vec<u32>> = Vec::new();
    match pool {
        Some(pool) if pool.threads() > 1 && !roots.is_empty() => {
            let next = AtomicUsize::new(0);
            let shards: Vec<Mutex<Vec<Vec<u32>>>> = (0..pool.threads())
                .map(|_| Mutex::new(Vec::new()))
                .collect();
            pool.run(&|w| {
                let mut out: Vec<Vec<u32>> = Vec::new();
                while let Some(&u) = roots.get(next.fetch_add(1, atomic::Ordering::Relaxed)) {
                    walk(u, &mut out);
                }
                *shards[w].lock().expect("shard poisoned") = out;
            });
            for shard in shards {
                all.extend(shard.into_inner().expect("shard poisoned"));
            }
        }
        _ => {
            for &u in roots {
                walk(u, &mut all);
            }
        }
    }
    all.sort_unstable();
    all.into_iter()
        .map(|c| c.into_iter().map(NodeId).collect())
        .collect()
}

/// Recursive Bron–Kerbosch step with pivoting.
fn bk_pivot(
    view: &GraphView,
    r: &mut Vec<u32>,
    p: Vec<u32>,
    mut x: Vec<u32>,
    out: &mut Vec<Vec<u32>>,
) {
    if p.is_empty() && x.is_empty() {
        if r.len() >= 2 {
            let mut clique = r.clone();
            clique.sort_unstable();
            out.push(clique);
        }
        return;
    }
    // Pivot: the vertex of P ∪ X with the most neighbours in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&v| intersection_size(&p, view.neighbors(NodeId(v))))
        .expect("P ∪ X non-empty");
    let pivot_nbrs = view.neighbors(NodeId(pivot));
    let candidates: Vec<u32> = p
        .iter()
        .copied()
        .filter(|&v| pivot_nbrs.binary_search(&v).is_err())
        .collect();
    let mut p = p;
    for v in candidates {
        let v_nbrs = view.neighbors(NodeId(v));
        let new_p = intersect_sorted(&p, v_nbrs);
        let new_x = intersect_sorted(&x, v_nbrs);
        r.push(v);
        bk_pivot(view, r, new_p, new_x, out);
        r.pop();
        // Move v from P to X.
        if let Ok(idx) = p.binary_search(&v) {
            p.remove(idx);
        }
        let ins = x.binary_search(&v).unwrap_err();
        x.insert(ins, v);
    }
}

/// Root vertices whose Bron–Kerbosch subtree (under the
/// Eppstein–Löffler–Strash decomposition induced by `rank`) can emit a
/// maximal clique containing a vertex of the `dirty` mask.
///
/// ELS emits each maximal clique exactly once, from its minimum-rank
/// member; all other members are that root's higher-ranked neighbours. A
/// clique containing a dirty vertex `d` therefore roots either at `d`
/// itself or at a lower-ranked neighbour of some dirty vertex — computed
/// here from the dirty side only, `O(V + Σ deg(De))` instead of a full
/// `O(V + E)` scan. Returns the set sorted by id, deduplicated (root
/// order does not affect the sorted enumeration output).
fn region_roots(view: &GraphView, rank: &[u32], dirty: &[bool]) -> Vec<NodeId> {
    let mut roots: Vec<NodeId> = Vec::new();
    for d in (0..view.num_nodes()).map(NodeId) {
        if !dirty[d.index()] {
            continue;
        }
        roots.push(d);
        for &v in view.neighbors(d) {
            if rank[v as usize] < rank[d.index()] {
                roots.push(NodeId(v));
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Pivot for the region walk: a vertex of `P ∪ X` with the most
/// neighbours in `P`, scored by the dispatched intersection kernel.
///
/// The scan memoizes a running best and skips every vertex whose upper
/// bound `min(|P|, deg(v))` cannot beat it, so most candidates are
/// rejected on two loads without ever reaching the merge. Ties resolve
/// to the earliest maximum (where [`bk_pivot`]'s `max_by_key` keeps the
/// latest); pivot choice only steers traversal order, and
/// [`maximal_cliques_region`] sorts its output before returning, so the
/// emitted clique *set* and its order are unchanged.
fn region_pivot(view: &GraphView, p: &[u32], x: &[u32]) -> u32 {
    let mut best_v = u32::MAX;
    let mut best: i64 = -1;
    for &v in p.iter().chain(x.iter()) {
        let nbrs = view.neighbors(NodeId(v));
        if (p.len().min(nbrs.len()) as i64) <= best {
            continue;
        }
        let score = intersection_size(p, nbrs) as i64;
        if score > best {
            best = score;
            best_v = v;
        }
    }
    debug_assert_ne!(best_v, u32::MAX, "P ∪ X non-empty");
    best_v
}

/// Recursive Bron–Kerbosch step restricted to the dirty region: emits
/// only maximal cliques containing at least one `dirty` vertex, and
/// prunes any subtree whose current clique `R` and candidate set `P` are
/// both entirely clean (no descendant could emit a dirty clique — `R`
/// only grows from `P`).
fn bk_pivot_region(
    view: &GraphView,
    r: &mut Vec<u32>,
    r_dirty: bool,
    p: Vec<u32>,
    mut x: Vec<u32>,
    dirty: &[bool],
    out: &mut Vec<Vec<u32>>,
) {
    if !r_dirty && !p.iter().any(|&v| dirty[v as usize]) {
        return;
    }
    if p.is_empty() && x.is_empty() {
        if r_dirty && r.len() >= 2 {
            let mut clique = r.clone();
            clique.sort_unstable();
            out.push(clique);
        }
        return;
    }
    let pivot = region_pivot(view, &p, &x);
    let pivot_nbrs = view.neighbors(NodeId(pivot));
    let candidates: Vec<u32> = p
        .iter()
        .copied()
        .filter(|&v| pivot_nbrs.binary_search(&v).is_err())
        .collect();
    let mut p = p;
    for v in candidates {
        let v_nbrs = view.neighbors(NodeId(v));
        let new_p = intersect_sorted(&p, v_nbrs);
        let new_x = intersect_sorted(&x, v_nbrs);
        r.push(v);
        bk_pivot_region(
            view,
            r,
            r_dirty || dirty[v as usize],
            new_p,
            new_x,
            dirty,
            out,
        );
        r.pop();
        if let Ok(idx) = p.binary_search(&v) {
            p.remove(idx);
        }
        let ins = x.binary_search(&v).unwrap_err();
        x.insert(ins, v);
    }
}

/// Whether `clique` (sorted, distinct) is maximal in `g`.
pub fn is_maximal(g: &ProjectedGraph, clique: &[NodeId]) -> bool {
    let Some(&first) = clique.first() else {
        return false;
    };
    // A clique is maximal iff no common neighbour of all members exists.
    // Scan the smallest member's neighbourhood.
    let anchor = clique
        .iter()
        .copied()
        .min_by_key(|&u| g.degree(u))
        .unwrap_or(first);
    for (cand, _) in g.neighbors(anchor) {
        if clique.binary_search(&cand).is_ok() {
            continue;
        }
        if clique.iter().all(|&u| u == cand || g.has_edge(u, cand)) {
            return false;
        }
    }
    true
}

/// [`is_maximal`] against a frozen [`GraphView`]. Returns exactly the
/// same answer as the hash-map variant on the source graph: the anchor is
/// the same (first member of minimum degree, and degrees agree), and
/// maximality is an existence check, so neighbour iteration order cannot
/// change the result.
pub fn is_maximal_view(view: &GraphView, clique: &[NodeId]) -> bool {
    let Some(&first) = clique.first() else {
        return false;
    };
    let anchor = clique
        .iter()
        .copied()
        .min_by_key(|&u| view.degree(u))
        .unwrap_or(first);
    for &cand in view.neighbors(anchor) {
        let cand = NodeId(cand);
        if clique.binary_search(&cand).is_ok() {
            continue;
        }
        if clique.iter().all(|&u| u == cand || view.has_edge(u, cand)) {
            return false;
        }
    }
    true
}

/// Uniformly samples a `k`-subset of `nodes` (Floyd's algorithm), returned
/// sorted.
///
/// # Panics
///
/// Panics if `k > nodes.len()`.
pub fn sample_k_subset<R: Rng + ?Sized>(rng: &mut R, nodes: &[NodeId], k: usize) -> Vec<NodeId> {
    assert!(k <= nodes.len(), "k-subset larger than ground set");
    // Floyd's sampling: O(k) expected inserts.
    let n = nodes.len();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for j in n - k..n {
        let t = rng.gen_range(0..=j);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    let mut out: Vec<NodeId> = chosen.into_iter().map(|i| nodes[i]).collect();
    out.sort_unstable();
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    out
}

/// Calls `f(u, v, w)` for every triangle `u < v < w` of `g`.
///
/// Used by the simplicial-closure property and the motif features.
pub fn for_each_triangle<F: FnMut(NodeId, NodeId, NodeId)>(g: &ProjectedGraph, mut f: F) {
    let view = GraphView::freeze(g);
    for u in 0..g.num_nodes() {
        let nu = view.neighbors(NodeId(u));
        for &v in nu.iter().filter(|&&v| v > u) {
            let nv = view.neighbors(NodeId(v));
            // w > v keeps each triangle counted once.
            let (mut i, mut j) = (0, 0);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if nu[i] > v {
                            f(NodeId(u), NodeId(v), NodeId(nu[i]));
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Full serial enumeration of a hash-map graph, frozen once.
    fn cliques_of(g: &ProjectedGraph) -> Vec<Vec<NodeId>> {
        let view = GraphView::freeze(g);
        maximal_cliques(&view, &DegeneracyOrdering::of(&view), None)
    }

    fn random_graph(rng: &mut rand::rngs::StdRng, nodes: u32, p: f64) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(nodes);
        for u in 0..nodes {
            for v in u + 1..nodes {
                if rng.gen_bool(p) {
                    g.add_edge_weight(n(u), n(v), 1);
                }
            }
        }
        g
    }

    fn graph_from_edges(num: u32, edges: &[(u32, u32)]) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(num);
        for &(u, v) in edges {
            g.add_edge_weight(n(u), n(v), 1);
        }
        g
    }

    #[test]
    fn triangle_is_one_clique() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let cliques = cliques_of(&g);
        assert_eq!(cliques, vec![vec![n(0), n(1), n(2)]]);
    }

    #[test]
    fn path_gives_edges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cliques = cliques_of(&g);
        assert_eq!(
            cliques,
            vec![vec![n(0), n(1)], vec![n(1), n(2)], vec![n(2), n(3)]]
        );
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
        let cliques = cliques_of(&g);
        assert_eq!(
            cliques,
            vec![vec![n(0), n(1), n(2)], vec![n(1), n(2), n(3)]]
        );
    }

    #[test]
    fn complete_graph_single_clique() {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                edges.push((u, v));
            }
        }
        let g = graph_from_edges(6, &edges);
        let cliques = cliques_of(&g);
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].len(), 6);
    }

    #[test]
    fn empty_graph_has_no_cliques() {
        let g = ProjectedGraph::new(5);
        assert!(cliques_of(&g).is_empty());
    }

    /// Brute-force reference enumerator for cross-checking.
    fn brute_force_maximal(g: &ProjectedGraph) -> Vec<Vec<NodeId>> {
        let n = g.num_nodes();
        let mut all: Vec<Vec<NodeId>> = Vec::new();
        for mask in 1u32..(1 << n) {
            let nodes: Vec<NodeId> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(NodeId)
                .collect();
            if nodes.len() >= 2 && g.is_clique(&nodes) {
                all.push(nodes);
            }
        }
        let mut maximal: Vec<Vec<NodeId>> = all
            .iter()
            .filter(|c| {
                !all.iter()
                    .any(|d| d.len() > c.len() && c.iter().all(|x| d.contains(x)))
            })
            .cloned()
            .collect();
        maximal.sort_unstable();
        maximal
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.gen_range(2..10u32);
            let mut g = ProjectedGraph::new(n);
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.45) {
                        g.add_edge_weight(NodeId(u), NodeId(v), 1);
                    }
                }
            }
            assert_eq!(cliques_of(&g), brute_force_maximal(&g));
        }
    }

    #[test]
    fn maximality_check() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]);
        assert!(is_maximal(&g, &[n(0), n(1), n(2)]));
        assert!(!is_maximal(&g, &[n(1), n(2)])); // extends to both triangles
        assert!(!is_maximal(&g, &[n(0), n(1)]));
    }

    #[test]
    fn view_maximality_matches_graph_on_random_cliques() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let nodes = rng.gen_range(3..14u32);
            let mut g = ProjectedGraph::new(nodes);
            for u in 0..nodes {
                for v in u + 1..nodes {
                    if rng.gen_bool(0.5) {
                        g.add_edge_weight(n(u), n(v), 1);
                    }
                }
            }
            let view = GraphView::freeze(&g);
            for clique in cliques_of(&g) {
                assert!(is_maximal_view(&view, &clique));
                for k in 2..clique.len() {
                    let sub = &clique[..k];
                    assert_eq!(is_maximal_view(&view, sub), is_maximal(&g, sub));
                }
            }
        }
    }

    #[test]
    fn view_ordering_is_a_valid_degeneracy_ordering() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let nodes = rng.gen_range(2..20u32);
            let mut g = ProjectedGraph::new(nodes);
            for u in 0..nodes {
                for v in u + 1..nodes {
                    if rng.gen_bool(0.4) {
                        g.add_edge_weight(n(u), n(v), 1);
                    }
                }
            }
            let view = GraphView::freeze(&g);
            let order = DegeneracyOrdering::of(&view).order;
            assert_eq!(order.len(), nodes as usize);
            let mut seen: Vec<u32> = order.iter().map(|u| u.0).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..nodes).collect::<Vec<_>>());
            // The degeneracy property itself: each vertex, when removed,
            // has the minimum remaining degree among the vertices left.
            let mut removed = vec![false; nodes as usize];
            let remaining = |u: NodeId, removed: &[bool]| {
                view.neighbors(u)
                    .iter()
                    .filter(|&&v| !removed[v as usize])
                    .count()
            };
            for &u in &order {
                let min = (0..nodes)
                    .map(NodeId)
                    .filter(|w| !removed[w.index()])
                    .map(|w| remaining(w, &removed))
                    .min()
                    .expect("u itself remains");
                assert_eq!(remaining(u, &removed), min, "{u} removed out of order");
                removed[u.index()] = true;
            }
        }
    }

    #[test]
    fn region_enumeration_matches_filtered_full_enumeration() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..25 {
            let nodes = rng.gen_range(2..22u32);
            let mut g = ProjectedGraph::new(nodes);
            for u in 0..nodes {
                for v in u + 1..nodes {
                    if rng.gen_bool(0.4) {
                        g.add_edge_weight(n(u), n(v), 1);
                    }
                }
            }
            let view = GraphView::freeze(&g);
            // Random dirty masks, including empty and full.
            for density in [0.0, 0.15, 0.5, 1.0] {
                let dirty: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(density)).collect();
                let expected: Vec<Vec<NodeId>> = cliques_of(&g)
                    .into_iter()
                    .filter(|c| c.iter().any(|u| dirty[u.index()]))
                    .collect();
                assert_eq!(
                    maximal_cliques_region(&view, &DegeneracyOrdering::of(&view), &dirty, None),
                    expected,
                    "nodes={nodes} density={density}"
                );
            }
        }
    }

    #[test]
    fn region_enumeration_with_empty_mask_is_empty() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let view = GraphView::freeze(&g);
        let ordering = DegeneracyOrdering::of(&view);
        assert!(maximal_cliques_region(&view, &ordering, &[false; 4], None).is_empty());
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..12 {
            let nodes = rng.gen_range(2..40u32);
            let p = rng.gen_range(0.05..0.6);
            let g = random_graph(&mut rng, nodes, p);
            let view = GraphView::freeze(&g);
            let ordering = DegeneracyOrdering::of(&view);
            let serial = cliques_of(&g);
            for threads in [2, 3, 8] {
                let pool = WorkerPool::new(threads);
                assert_eq!(
                    maximal_cliques(&view, &ordering, Some(&pool)),
                    serial,
                    "n={nodes} p={p} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn pool_enumeration_matches_serial_even_below_threshold() {
        // The entry has no size gate (the search engine applies its
        // own), so small graphs still exercise the fanned-out path.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        let pool = WorkerPool::new(4);
        for _ in 0..10 {
            let nodes = rng.gen_range(2..35u32);
            let g = random_graph(&mut rng, nodes, 0.4);
            let view = GraphView::freeze(&g);
            let ordering = DegeneracyOrdering::of(&view);
            assert_eq!(
                maximal_cliques(&view, &ordering, Some(&pool)),
                cliques_of(&g)
            );
        }
    }

    #[test]
    fn region_pool_matches_serial_region() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(15);
        let pool = WorkerPool::new(3);
        for _ in 0..10 {
            let nodes = rng.gen_range(2..30u32);
            let g = random_graph(&mut rng, nodes, 0.45);
            let view = GraphView::freeze(&g);
            let ordering = DegeneracyOrdering::of(&view);
            let dirty: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(0.3)).collect();
            assert_eq!(
                maximal_cliques_region(&view, &ordering, &dirty, Some(&pool)),
                maximal_cliques_region(&view, &ordering, &dirty, None)
            );
        }
    }

    #[test]
    #[should_panic(expected = "dirty mask size")]
    fn region_pool_path_checks_the_mask_size() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let view = GraphView::freeze(&g);
        let pool = WorkerPool::new(2);
        maximal_cliques_region(&view, &DegeneracyOrdering::of(&view), &[true], Some(&pool));
    }

    #[test]
    fn single_thread_delegates_to_serial() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let g = random_graph(&mut rng, 20, 0.3);
        let view = GraphView::freeze(&g);
        let ordering = DegeneracyOrdering::of(&view);
        let pool = WorkerPool::new(1);
        assert_eq!(
            maximal_cliques(&view, &ordering, Some(&pool)),
            cliques_of(&g)
        );
        assert_eq!(maximal_cliques(&view, &ordering, None), cliques_of(&g));
    }

    #[test]
    fn prebuilt_view_matches_graph_enumeration() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..8 {
            let nodes = rng.gen_range(2..30u32);
            let g = random_graph(&mut rng, nodes, 0.35);
            let view = GraphView::freeze(&g);
            let ordering = DegeneracyOrdering::of(&view);
            let serial = cliques_of(&g);
            for threads in [1, 2, 4] {
                let pool = WorkerPool::new(threads);
                assert_eq!(maximal_cliques(&view, &ordering, Some(&pool)), serial);
            }
        }
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let g = ProjectedGraph::new(7);
        let view = GraphView::freeze(&g);
        let ordering = DegeneracyOrdering::of(&view);
        assert!(maximal_cliques(&view, &ordering, None).is_empty());
        let pool = WorkerPool::new(4);
        assert!(maximal_cliques(&view, &ordering, Some(&pool)).is_empty());
    }

    #[test]
    fn more_threads_than_vertices() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let view = GraphView::freeze(&g);
        let pool = WorkerPool::new(64);
        let cliques = maximal_cliques(&view, &DegeneracyOrdering::of(&view), Some(&pool));
        assert_eq!(cliques, vec![vec![n(0), n(1)], vec![n(1), n(2)]]);
    }

    #[test]
    fn dense_graph_single_clique() {
        let mut edges = Vec::new();
        for u in 0..10u32 {
            for v in u + 1..10 {
                edges.push((u, v));
            }
        }
        let g = graph_from_edges(10, &edges);
        let view = GraphView::freeze(&g);
        let pool = WorkerPool::new(4);
        let cliques = maximal_cliques(&view, &DegeneracyOrdering::of(&view), Some(&pool));
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].len(), 10);
    }

    #[test]
    fn subset_sampling_is_uniformish_and_sorted() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..6000 {
            let s = sample_k_subset(&mut rng, &nodes, 2);
            assert_eq!(s.len(), 2);
            assert!(s[0] < s[1]);
            *counts.entry((s[0].0, s[1].0)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 15); // all C(6,2) pairs occur
        for (_, c) in counts {
            assert!(c > 200, "pair frequency suspiciously low: {c}");
        }
    }

    #[test]
    fn triangle_enumeration() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let mut tris = Vec::new();
        for_each_triangle(&g, |a, b, c| tris.push((a.0, b.0, c.0)));
        tris.sort_unstable();
        assert_eq!(tris, vec![(0, 1, 2), (1, 2, 3)]);
    }
}
