//! The cross-round incremental search engine.
//!
//! MARIOH's outer loop (Algorithm 1) decays θ a little every round, so a
//! run is dozens-to-hundreds of bidirectional-search rounds over a graph
//! that *shrinks only where cliques were committed*. The pre-engine code
//! re-froze the whole graph, re-ran Bron–Kerbosch over every vertex and
//! rebuilt the MHH memo each round, even though a commit only touches
//! the committed clique's vertices. [`SearchEngine`] lives across rounds
//! and re-derives only the structure a round's commits could have
//! changed; every round then scores its whole clique list.
//!
//! # The removed-set invariant
//!
//! A commit decrements exactly the edges *inside* the committed clique
//! `C`, so between two consecutive rounds the changed edges all have
//! both endpoints in `C`. Two vertex sets bound what can differ:
//!
//! * **Removed set `De`** — endpoints of edges whose weight reached zero.
//!   Only *removals* change the graph's topology, and every maximal
//!   clique that appears or dies contains a vertex of `De` (a dying
//!   clique contains a removed edge, i.e. both its endpoints; a newly
//!   maximal clique was previously extendable by some `w`, and the edge
//!   that broke inside `Q ∪ {w}` has an endpoint in `Q`). Cliques
//!   disjoint from `De` are carried over; the `De`-region is re-enumerated
//!   with a region-restricted Bron–Kerbosch.
//! * **Changed vertices** — endpoints of any weight change. `MHH(u,v)`
//!   reads only edges incident to `u` or `v`, so exactly the memo entries
//!   incident to them are re-derived ([`MhhCache::patch`]).
//!
//! Because every carried quantity is an exact integer (clique lists,
//! MHH, weights, degrees) and every score is recomputed by a pure
//! function on bit-identical inputs, the engine is **bit-identical** to
//! the rebuild-every-round path — same cliques, same scores, same commit
//! order, same Phase-2 RNG consumption — for every seed, thread count and
//! variant. A parity suite (`tests/engine_parity.rs`) enforces this.
//!
//! Thread fan-out goes through one persistent [`WorkerPool`] created
//! lazily per engine (so per run), replacing the per-round thread spawns
//! that made small rounds slower at 2/4 threads than at 1.

use crate::error::MariohError;
use crate::mhh::MhhCache;
use crate::model::CliqueScorer;
use crate::parallel::{score_cliques_pool, score_work, SCORE_PARALLEL_MIN_WORK};
use crate::progress::CancelToken;
use crate::round::RoundContext;
use crate::search::SearchStats;
use marioh_hypergraph::clique::sample_k_subset;
use marioh_hypergraph::parallel::{
    enumeration_parallel_worthwhile, maximal_cliques_ranked, maximal_cliques_ranked_pool,
    maximal_cliques_region_ranked, maximal_cliques_region_ranked_pool, ordering,
    ENUM_PARALLEL_MIN_EDGES,
};
use marioh_hypergraph::{GraphView, Hyperedge, Hypergraph, NodeId, ProjectedGraph, WorkerPool};
use rand::Rng;
use std::sync::OnceLock;
use std::time::Instant;

/// A vertex set with O(1) membership and O(|set|) clearing: a flag
/// array plus the list of marked vertices.
#[derive(Debug)]
struct FlagSet {
    flag: Vec<bool>,
    list: Vec<NodeId>,
}

impl FlagSet {
    fn new(n: usize) -> FlagSet {
        FlagSet {
            flag: vec![false; n],
            list: Vec::new(),
        }
    }

    #[inline]
    fn mark(&mut self, u: NodeId) {
        if !self.flag[u.index()] {
            self.flag[u.index()] = true;
            self.list.push(u);
        }
    }

    fn clear(&mut self) {
        for u in self.list.drain(..) {
            self.flag[u.index()] = false;
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// A run-long bidirectional-search engine: executes rounds of
/// Algorithm 3 against the residual graph it owns, maintaining the CSR
/// view, the MHH memo, and the previous round's maximal cliques
/// incrementally across rounds (see the [module docs](self) for the
/// invalidation rules).
///
/// The engine freezes its input graph once, at construction, into a
/// patchable [`GraphView`]; from then on that view is the only working
/// graph. Every commit decrements it in place, scorers read it, and
/// [`SearchEngine::residual`] exposes it. Scores are never carried, so
/// each round may use a different scorer.
///
/// [`crate::reconstruct::reconstruct_observed`] keeps one engine for the
/// whole outer loop.
pub struct SearchEngine {
    threads: usize,
    incremental: bool,
    /// Pin pool workers to cores when the pool is first created.
    pin_cores: bool,
    /// Created on first parallel-eligible stage; persists for the run.
    pool: OnceLock<WorkerPool>,
    /// The residual graph: frozen once, decremented by every commit.
    view: GraphView,
    /// Cached degeneracy ordering and its inverse. Any permutation keeps
    /// enumeration *correct* (emission roots at the min-rank member;
    /// output is sorted); only its efficiency degrades as the graph
    /// shrinks, so it is recomputed once a quarter of the edges are gone.
    order: Vec<NodeId>,
    rank: Vec<u32>,
    edges_at_order: usize,
    /// MHH memo patched for changed-incident edges; `None` until a
    /// scorer first requests MHH (then kept for the rest of the run).
    mhh: Option<MhhCache>,
    /// The previous round's maximal cliques (sorted); `None` before the
    /// first round and always in rebuild mode.
    prev_cliques: Option<Vec<Vec<NodeId>>>,
    /// `De`: endpoints of removed edges since the last snapshot.
    removed: FlagSet,
    /// Endpoints of weight changes since the last MHH sync (consumed
    /// before each scoring pass).
    mhh_stale: FlagSet,
}

impl SearchEngine {
    /// A fresh incremental engine over `g`, fanning out over up to
    /// `threads` threads (1 = fully serial; results are identical either
    /// way).
    pub fn new(g: &ProjectedGraph, threads: usize) -> SearchEngine {
        SearchEngine::with_mode(g, threads, true)
    }

    /// An engine that re-enumerates every round's cliques and rebuilds
    /// its MHH memo and ordering from the residual view —
    /// the parity reference for the incremental path. Still uses the
    /// persistent worker pool.
    pub fn full_rebuild(g: &ProjectedGraph, threads: usize) -> SearchEngine {
        SearchEngine::with_mode(g, threads, false)
    }

    fn with_mode(g: &ProjectedGraph, threads: usize, incremental: bool) -> SearchEngine {
        let view = GraphView::freeze(g);
        let (order, rank) = ordering(&view);
        let n = g.num_nodes() as usize;
        SearchEngine {
            threads: threads.max(1),
            incremental,
            pin_cores: false,
            pool: OnceLock::new(),
            edges_at_order: view.num_edges(),
            view,
            order,
            rank,
            mhh: None,
            prev_cliques: None,
            removed: FlagSet::new(n),
            mhh_stale: FlagSet::new(n),
        }
    }

    /// The residual graph: the input minus one unit per pair of every
    /// clique committed so far.
    pub fn residual(&self) -> &GraphView {
        &self.view
    }

    /// The engine's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Requests CPU pinning for the worker pool (effective only before
    /// the pool's lazy creation, i.e. before the first round). A
    /// scheduling hint: results are bit-identical either way.
    pub fn set_pin_cores(&mut self, pin: bool) {
        self.pin_cores = pin;
    }

    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::with_affinity(self.threads, self.pin_cores))
    }

    /// Runs one bidirectional-search round (Algorithm 3) against the
    /// residual graph, committing into `reconstruction`. Semantics,
    /// statistics, commit order and RNG consumption are identical to the
    /// historical rebuild-every-round implementation.
    ///
    /// # Errors
    ///
    /// Returns [`MariohError::Cancelled`] if `cancel` fires at the round
    /// entry or between the two phases; the residual and
    /// `reconstruction` may then hold partially committed state (callers
    /// owning the run discard both).
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 3's parameter list
    pub fn round<R: Rng + ?Sized>(
        &mut self,
        scorer: &dyn CliqueScorer,
        theta: f64,
        neg_ratio: f64,
        reconstruction: &mut Hypergraph,
        phase2: bool,
        cancel: &CancelToken,
        rng: &mut R,
    ) -> Result<SearchStats, MariohError> {
        if cancel.is_cancelled() {
            return Err(MariohError::Cancelled);
        }
        let t0 = Instant::now();
        let mut stats = SearchStats::default();

        if !self.incremental {
            // Rebuild everything derived from the residual: the memo is
            // re-built lazily by the first scoring pass.
            self.reorder();
            self.mhh = None;
            self.mhh_stale.clear();
        }
        let cliques = self.cliques(&mut stats);
        stats.cliques_enumerated = cliques.len();
        if cliques.is_empty() {
            self.store_prev(cliques);
            stats.round_ms = elapsed_ms(t0);
            return Ok(stats);
        }
        let scores = self.score_pass(scorer, &cliques);
        stats.cliques_rescored = cliques.len();

        // Partition: positives (score > θ) descending, rest ascending —
        // index-based, with the clique itself as the deterministic
        // tie-break (scores can collide).
        let mut positives: Vec<(f64, usize)> = Vec::new();
        let mut negatives: Vec<(f64, usize)> = Vec::new();
        for (i, &s) in scores.iter().enumerate() {
            if s > theta {
                positives.push((s, i));
            } else {
                negatives.push((s, i));
            }
        }
        positives.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("NaN score")
                .then_with(|| cliques[a.1].cmp(&cliques[b.1]))
        });

        // --- Phase 1: most promising cliques ---
        {
            let _span = marioh_obs::Span::enter("commit");
            for &(_, i) in &positives {
                if self.try_commit(&cliques[i], reconstruction) {
                    stats.committed_phase1 += 1;
                }
            }
        }

        if !phase2 {
            self.store_prev(cliques);
            stats.round_ms = elapsed_ms(t0);
            return Ok(stats);
        }
        if cancel.is_cancelled() {
            return Err(MariohError::Cancelled);
        }

        // --- Phase 2: least promising cliques ---
        negatives.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("NaN score")
                .then_with(|| cliques[a.1].cmp(&cliques[b.1]))
        });
        let take = ((neg_ratio / 100.0) * negatives.len() as f64).ceil() as usize;
        // Sample first (sequential: the RNG stream must not depend on
        // thread count), then score the surviving candidates as one batch.
        let mut candidates: Vec<Vec<NodeId>> = Vec::new();
        for &(_, i) in negatives.iter().take(take) {
            let clique = &cliques[i];
            // One random k-subset per size k ∈ {2, …, |Q|−1}.
            for k in 2..clique.len() {
                let sub = sample_k_subset(rng, clique, k);
                stats.subcliques_sampled += 1;
                if self.view.is_clique(&sub) {
                    candidates.push(sub);
                }
                // else: an earlier commit removed one of its edges
            }
        }
        // Phase-1 commits patched the view, so the sub-clique pass
        // scores against the same state a fresh freeze would produce.
        let sub_scores = if candidates.is_empty() {
            Vec::new()
        } else {
            self.score_pass(scorer, &candidates)
        };
        let mut sub_scored: Vec<(f64, Vec<NodeId>)> = sub_scores
            .into_iter()
            .zip(candidates)
            .filter(|&(s, _)| s > theta)
            .collect();
        sub_scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("NaN score")
                .then(a.1.cmp(&b.1))
        });
        {
            let _span = marioh_obs::Span::enter("commit");
            for (_, sub) in &sub_scored {
                if self.try_commit(sub, reconstruction) {
                    stats.committed_phase2 += 1;
                }
            }
        }
        self.store_prev(cliques);
        stats.round_ms = elapsed_ms(t0);
        Ok(stats)
    }

    /// Refreshes the cached degeneracy ordering once the graph has shed
    /// a quarter of its edges since the last one — staleness costs only
    /// BK efficiency, never correctness, so the policy is purely a
    /// perf/amortisation trade-off (and deterministic).
    fn refresh_order(&mut self) {
        if self.view.num_edges() * 4 < self.edges_at_order * 3 {
            self.reorder();
        }
    }

    /// Recomputes the degeneracy ordering of the residual.
    fn reorder(&mut self) {
        let (order, rank) = ordering(&self.view);
        self.order = order;
        self.rank = rank;
        self.edges_at_order = self.view.num_edges();
    }

    /// Enumerates every maximal clique of the residual, fanning out over
    /// the pool when the graph is large enough to amortise it.
    fn enumerate_all(&self) -> Vec<Vec<NodeId>> {
        let _span = marioh_obs::Span::enter("enumeration");
        if self.threads > 1 && enumeration_parallel_worthwhile(&self.view) {
            maximal_cliques_ranked_pool(&self.view, &self.order, &self.rank, self.pool())
        } else {
            maximal_cliques_ranked(&self.view, &self.order, &self.rank)
        }
    }

    /// Produces this round's maximal cliques (sorted, exactly the full
    /// enumeration's output), carrying the previous round's list when
    /// possible, and counts the carried ones in `stats`. Consumes the
    /// removed set accumulated since the previous round's snapshot.
    fn cliques(&mut self, stats: &mut SearchStats) -> Vec<Vec<NodeId>> {
        let Some(prev_cliques) = self.prev_cliques.take() else {
            self.removed.clear();
            return self.enumerate_all();
        };
        self.refresh_order();

        // Three regimes by how much topology the commits removed: nothing
        // (carry the whole list), a small region (re-enumerate only
        // around `De` — every clique that appeared or died intersects
        // it), or most of the graph (full re-enumeration is cheaper than
        // region bookkeeping; a graph this churned has usually also
        // tripped `refresh_order`'s quarter-loss rule, so the full BK runs
        // on a recent degeneracy ordering).
        let removed_incident: usize = self.removed.list.iter().map(|&u| self.view.degree(u)).sum();
        let cliques = if self.removed.is_empty() {
            stats.cliques_reused = prev_cliques.len();
            prev_cliques
        } else if removed_incident * 2 >= self.view.num_edges() {
            self.enumerate_all()
        } else {
            // Re-enumerate only the dirty region and splice it into the
            // carried (De-disjoint, still maximal) remainder — the two
            // sorted streams are disjoint, so the merge reproduces the
            // full enumeration's order exactly.
            let new_cliques = {
                let _span = marioh_obs::Span::enter("enumeration");
                if self.threads > 1 && removed_incident >= ENUM_PARALLEL_MIN_EDGES {
                    maximal_cliques_region_ranked_pool(
                        &self.view,
                        &self.rank,
                        &self.removed.list,
                        &self.removed.flag,
                        self.pool(),
                    )
                } else {
                    maximal_cliques_region_ranked(
                        &self.view,
                        &self.rank,
                        &self.removed.list,
                        &self.removed.flag,
                    )
                }
            };
            let mut cliques = Vec::with_capacity(prev_cliques.len() + new_cliques.len());
            let mut new_iter = new_cliques.into_iter().peekable();
            for clique in prev_cliques {
                if clique.iter().any(|u| self.removed.flag[u.index()]) {
                    continue; // dropped; the region enumeration re-finds survivors
                }
                while let Some(n) = new_iter.next_if(|n| n < &clique) {
                    cliques.push(n);
                }
                debug_assert!(
                    new_iter.peek() != Some(&clique),
                    "carried clique re-enumerated"
                );
                stats.cliques_reused += 1;
                cliques.push(clique);
            }
            cliques.extend(new_iter);
            cliques
        };
        self.removed.clear();
        cliques
    }

    /// Scores one batch against the residual view, syncing the MHH memo
    /// first and keeping any memo a lazy scorer builds.
    fn score_pass(&mut self, scorer: &dyn CliqueScorer, cliques: &[Vec<NodeId>]) -> Vec<f64> {
        let _span = marioh_obs::Span::enter("scoring");
        self.sync_mhh();
        let parallel = self.threads > 1 && score_work(cliques) >= SCORE_PARALLEL_MIN_WORK;
        if parallel {
            // Make sure the pool exists before the context borrows it.
            self.pool();
        }
        let mut ctx = RoundContext::with_frozen(&self.view, self.mhh.as_ref(), self.threads);
        // Lazy MHH builds ride the persistent pool when one exists (it
        // is created lazily by the first parallel-eligible stage — small
        // runs that never fan out keep spawning nothing at all). If the
        // build triggers from *inside* a parallel scoring job, the
        // pool's re-entrancy guard runs it inline on that worker.
        if let Some(pool) = self.pool.get() {
            ctx = ctx.with_pool(pool);
        }
        let scores = if parallel {
            score_cliques_pool(scorer, &ctx, cliques, self.pool())
        } else {
            let mut out = vec![0.0; cliques.len()];
            if !cliques.is_empty() {
                scorer.score_batch(&ctx, cliques, &mut out);
            }
            out
        };
        if let Some(built) = ctx.take_mhh() {
            self.mhh = Some(built);
        }
        scores
    }

    /// Re-derives the MHH memo entries incident to vertices whose
    /// weights changed since the last sync. A no-op until a scorer first
    /// builds the memo.
    fn sync_mhh(&mut self) {
        if self.mhh_stale.is_empty() {
            return;
        }
        if let Some(cache) = self.mhh.as_mut() {
            let _span = marioh_obs::Span::enter("mhh_patch");
            cache.patch(&self.view, &self.mhh_stale.list, &self.mhh_stale.flag);
        }
        self.mhh_stale.clear();
    }

    /// Commits `clique` as a hyperedge if all its edges are still
    /// present in the residual: adds one copy to `reconstruction`,
    /// decrements every constituent pair of the view, and records the
    /// removed and changed vertices. Returns whether the commit happened.
    fn try_commit(&mut self, clique: &[NodeId], reconstruction: &mut Hypergraph) -> bool {
        if !self.view.is_clique(clique) {
            return false;
        }
        let e = Hyperedge::new(clique.iter().copied()).expect("clique has >= 2 nodes");
        reconstruction.add_edge(e);
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                if self.view.decrement_unit(u, v) {
                    self.removed.mark(u);
                    self.removed.mark(v);
                }
            }
        }
        for &u in clique {
            self.mhh_stale.mark(u);
        }
        true
    }

    fn store_prev(&mut self, cliques: Vec<Vec<NodeId>>) {
        if self.incremental {
            self.prev_cliques = Some(cliques);
        }
    }
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnScorer;
    use marioh_hypergraph::projection::project;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: u32, p: f64) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(p) {
                    g.add_edge_weight(NodeId(u), NodeId(v), rng.gen_range(1..4));
                }
            }
        }
        g
    }

    /// A hash-map copy of a residual view, to seed a fresh engine.
    fn thaw(view: &GraphView) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(view.num_nodes());
        for (u, v, w) in view.edges() {
            g.add_edge_weight(u, v, w);
        }
        g
    }

    /// A pair-weight scorer: every round rescores its whole clique list,
    /// which must still match the one-shot path bit for bit.
    fn weight_scorer() -> impl CliqueScorer {
        FnScorer(|g: &GraphView, c: &[NodeId]| {
            let w: u32 = c
                .iter()
                .enumerate()
                .flat_map(|(i, &u)| c[i + 1..].iter().map(move |&v| g.weight(u, v)))
                .sum();
            f64::from(w) / (1.0 + f64::from(w))
        })
    }

    fn round(
        engine: &mut SearchEngine,
        scorer: &dyn CliqueScorer,
        theta: f64,
        neg_ratio: f64,
        rec: &mut Hypergraph,
        phase2: bool,
        rng: &mut StdRng,
    ) -> SearchStats {
        engine
            .round(
                scorer,
                theta,
                neg_ratio,
                rec,
                phase2,
                &CancelToken::new(),
                rng,
            )
            .expect("not cancelled")
    }

    #[test]
    fn multi_round_engine_matches_fresh_single_rounds() {
        let scorer = weight_scorer();
        let mut seed_rng = StdRng::seed_from_u64(505);
        for case in 0..6 {
            let n = seed_rng.gen_range(8..30u32);
            let proto = random_graph(&mut seed_rng, n, 0.35);
            for threads in [1, 4] {
                // Engine run: one engine across all rounds.
                let mut rec_engine = Hypergraph::new(n);
                let mut rng_engine = StdRng::seed_from_u64(9 + case);
                let mut engine = SearchEngine::new(&proto, threads);
                // Reference run: a fresh engine for every round, frozen
                // from the previous round's residual.
                let mut g_ref = proto.clone();
                let mut rec_ref = Hypergraph::new(n);
                let mut rng_ref = StdRng::seed_from_u64(9 + case);
                let mut theta = 0.9;
                for round_no in 0..12 {
                    if g_ref.is_edgeless() {
                        break;
                    }
                    let stats_e = round(
                        &mut engine,
                        &scorer,
                        theta,
                        40.0,
                        &mut rec_engine,
                        true,
                        &mut rng_engine,
                    );
                    let mut fresh = SearchEngine::new(&g_ref, threads);
                    let stats_r = round(
                        &mut fresh,
                        &scorer,
                        theta,
                        40.0,
                        &mut rec_ref,
                        true,
                        &mut rng_ref,
                    );
                    g_ref = thaw(fresh.residual());
                    assert_eq!(stats_e, stats_r, "round {round_no} threads {threads}");
                    assert_eq!(
                        engine.residual().edges().collect::<Vec<_>>(),
                        g_ref.sorted_edge_list(),
                        "residual diverged at round {round_no}"
                    );
                    assert_eq!(rec_engine, rec_ref, "reconstruction diverged at {round_no}");
                    // Conservation: every pair's residual weight plus its
                    // weight in the reconstruction's projection is the
                    // input weight.
                    let committed = project(&rec_engine);
                    for u in (0..n).map(NodeId) {
                        for v in (u.0 + 1..n).map(NodeId) {
                            assert_eq!(
                                engine.residual().weight(u, v) + committed.weight(u, v),
                                proto.weight(u, v),
                                "pair ({u}, {v}) not conserved at round {round_no}"
                            );
                        }
                    }
                    theta = (theta - 0.09f64).max(0.0);
                }
            }
        }
    }

    #[test]
    fn engine_reuses_cliques_across_rounds() {
        // Two far-apart triangles; committing one leaves the other's
        // clique untouched, so round 2 carries it without re-enumeration.
        let mut g = ProjectedGraph::new(6);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            g.add_edge_weight(NodeId(u), NodeId(v), 1);
        }
        struct LocalScorer;
        impl CliqueScorer for LocalScorer {
            fn score_batch(&self, _: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]) {
                for (c, o) in cliques.iter().zip(out.iter_mut()) {
                    *o = if c.contains(&NodeId(0)) { 0.9 } else { 0.4 };
                }
            }
        }
        let mut rec = Hypergraph::new(6);
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = SearchEngine::new(&g, 1);
        let s1 = round(
            &mut engine,
            &LocalScorer,
            0.5,
            0.0,
            &mut rec,
            false,
            &mut rng,
        );
        assert_eq!(s1.committed_phase1, 1);
        assert_eq!(s1.cliques_rescored, 2, "first round scores everything");
        assert_eq!(s1.cliques_reused, 0);
        // Round 2: {0,1,2} was removed entirely; {3,4,5} is disjoint from
        // the removed set, so its clique is carried (and rescored).
        let s2 = round(
            &mut engine,
            &LocalScorer,
            0.3,
            0.0,
            &mut rec,
            false,
            &mut rng,
        );
        assert_eq!(s2.cliques_enumerated, 1);
        assert_eq!(s2.cliques_reused, 1);
        assert_eq!(s2.cliques_rescored, 1);
        assert_eq!(s2.committed_phase1, 1);
        assert_eq!(engine.residual().num_edges(), 0);
    }

    #[test]
    fn full_rebuild_engine_matches_incremental() {
        let scorer = weight_scorer();
        let mut seed_rng = StdRng::seed_from_u64(808);
        for case in 0..4 {
            let n = seed_rng.gen_range(10..25u32);
            let proto = random_graph(&mut seed_rng, n, 0.4);
            let run = |mut engine: SearchEngine| {
                let mut rec = Hypergraph::new(n);
                let mut rng = StdRng::seed_from_u64(77 + case);
                let mut theta = 0.8;
                let mut all = Vec::new();
                for _ in 0..10 {
                    if engine.residual().num_edges() == 0 {
                        break;
                    }
                    all.push(round(
                        &mut engine,
                        &scorer,
                        theta,
                        30.0,
                        &mut rec,
                        true,
                        &mut rng,
                    ));
                    theta = (theta - 0.2f64).max(0.0);
                }
                (engine.residual().edges().collect::<Vec<_>>(), rec, all)
            };
            let (g_inc, rec_inc, stats_inc) = run(SearchEngine::new(&proto, 2));
            let (g_full, rec_full, stats_full) = run(SearchEngine::full_rebuild(&proto, 2));
            assert_eq!(g_inc, g_full);
            assert_eq!(rec_inc, rec_full);
            assert_eq!(stats_inc, stats_full, "algorithmic stats must agree");
            // The rebuild engine reuses nothing, by definition, and both
            // engines score every listed clique.
            assert!(stats_full.iter().all(|s| s.cliques_reused == 0));
            for s in stats_inc.iter().chain(&stats_full) {
                assert_eq!(s.cliques_rescored, s.cliques_enumerated);
            }
        }
    }
}
