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
//! a fresh engine per round frozen from the previous round's residual —
//! same cliques, same scores, same commit order, same Phase-2 RNG
//! consumption — for every seed, pool size and variant. A parity suite
//! (`tests/engine_parity.rs`) enforces this against that oracle.
//!
//! Every fan-out (MHH build, enumeration, scoring) goes through the
//! run's one [`WorkerPool`], which the caller creates and lends to the
//! engine, replacing the per-round thread spawns that made small rounds
//! slower at 2/4 threads than at 1. Each stage still runs serially
//! below its fan-out floor.

use crate::error::MariohError;
use crate::mhh::MhhCache;
use crate::model::CliqueScorer;
use crate::parallel::{score_cliques, score_work, SCORE_PARALLEL_MIN_WORK};
use crate::progress::CancelToken;
use crate::round::RoundContext;
use crate::search::SearchStats;
use marioh_hypergraph::clique::{
    maximal_cliques, maximal_cliques_region, sample_k_subset, DegeneracyOrdering,
};
use marioh_hypergraph::{GraphView, Hyperedge, Hypergraph, NodeId, ProjectedGraph, WorkerPool};
use rand::Rng;
use std::time::Instant;

/// Below this many edges, Bron–Kerbosch over the whole graph is cheaper
/// than fanning root subproblems out over the pool, so enumeration stays
/// serial (the measured 2/4-thread regressions on the small Table-1
/// datasets).
const ENUM_PARALLEL_MIN_EDGES: usize = 8192;

/// Whether fanning full enumeration out is worth the dispatch cost.
/// Edge count alone misjudges *dense* graphs — Bron–Kerbosch cost grows
/// with density, not edge count, so a small-but-dense graph (average
/// degree ≥ 32) still fans out even under the edge floor.
pub fn enumeration_parallel_worthwhile(view: &GraphView) -> bool {
    let e = view.num_edges();
    e >= ENUM_PARALLEL_MIN_EDGES || e >= 16 * view.num_nodes() as usize
}

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
/// whole outer loop and lends it the run's worker pool.
pub struct SearchEngine<'p> {
    /// The run's pool; `None` (or a one-thread pool) keeps every stage
    /// serial.
    pool: Option<&'p WorkerPool>,
    /// The residual graph: frozen once, decremented by every commit.
    view: GraphView,
    /// Cached degeneracy ordering. Any permutation keeps enumeration
    /// *correct* (emission roots at the min-rank member; output is
    /// sorted); only its efficiency degrades as the graph shrinks, so it
    /// is recomputed once a quarter of the edges are gone.
    ordering: DegeneracyOrdering,
    edges_at_order: usize,
    /// MHH memo patched for changed-incident edges; `None` until a
    /// scorer first requests MHH (then kept for the rest of the run).
    mhh: Option<MhhCache>,
    /// The previous round's maximal cliques (sorted); `None` before the
    /// first round.
    prev_cliques: Option<Vec<Vec<NodeId>>>,
    /// `De`: endpoints of removed edges since the last snapshot.
    removed: FlagSet,
    /// Endpoints of weight changes since the last MHH sync (consumed
    /// before each scoring pass).
    mhh_stale: FlagSet,
}

impl<'p> SearchEngine<'p> {
    /// A fresh engine over `g` that fans its stages out over `pool`
    /// (`None` = fully serial; results are identical either way).
    pub fn new(g: &ProjectedGraph, pool: Option<&'p WorkerPool>) -> SearchEngine<'p> {
        let view = GraphView::freeze(g);
        let ordering = DegeneracyOrdering::of(&view);
        let n = g.num_nodes() as usize;
        SearchEngine {
            pool,
            edges_at_order: view.num_edges(),
            view,
            ordering,
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

    /// Runs one bidirectional-search round (Algorithm 3) against the
    /// residual graph, committing into `reconstruction`. Semantics,
    /// statistics, commit order and RNG consumption are identical to a
    /// fresh engine's first round over the same residual.
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
        let cliques = self.cliques(&mut stats);
        stats.cliques_enumerated = cliques.len();
        if cliques.is_empty() {
            self.prev_cliques = Some(cliques);
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
            self.prev_cliques = Some(cliques);
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
        self.prev_cliques = Some(cliques);
        stats.round_ms = elapsed_ms(t0);
        Ok(stats)
    }

    /// Refreshes the cached degeneracy ordering once the graph has shed
    /// a quarter of its edges since the last one — staleness costs only
    /// BK efficiency, never correctness, so the policy is purely a
    /// perf/amortisation trade-off (and deterministic).
    fn refresh_order(&mut self) {
        if self.view.num_edges() * 4 < self.edges_at_order * 3 {
            self.ordering = DegeneracyOrdering::of(&self.view);
            self.edges_at_order = self.view.num_edges();
        }
    }

    /// Enumerates every maximal clique of the residual, fanning out over
    /// the pool when the graph is large enough to amortise it.
    fn enumerate_all(&self) -> Vec<Vec<NodeId>> {
        let _span = marioh_obs::Span::enter("enumeration");
        let pool = self
            .pool
            .filter(|_| enumeration_parallel_worthwhile(&self.view));
        maximal_cliques(&self.view, &self.ordering, pool)
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
                let pool = self
                    .pool
                    .filter(|_| removed_incident >= ENUM_PARALLEL_MIN_EDGES);
                maximal_cliques_region(&self.view, &self.ordering, &self.removed.flag, pool)
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
        let mut ctx = RoundContext::with_frozen(&self.view, self.mhh.as_ref());
        // A lazy MHH build rides the run's pool. If it triggers from
        // *inside* a parallel scoring job, the pool's re-entrancy guard
        // runs it inline on that participant.
        if let Some(pool) = self.pool {
            ctx = ctx.with_pool(pool);
        }
        let pool = self
            .pool
            .filter(|_| score_work(cliques) >= SCORE_PARALLEL_MIN_WORK);
        let scores = score_cliques(scorer, &ctx, cliques, pool);
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
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn round(
        engine: &mut SearchEngine,
        scorer: &dyn CliqueScorer,
        theta: f64,
        rec: &mut Hypergraph,
        rng: &mut StdRng,
    ) -> SearchStats {
        engine
            .round(scorer, theta, 0.0, rec, false, &CancelToken::new(), rng)
            .expect("not cancelled")
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
        let mut engine = SearchEngine::new(&g, None);
        let s1 = round(&mut engine, &LocalScorer, 0.5, &mut rec, &mut rng);
        assert_eq!(s1.committed_phase1, 1);
        assert_eq!(s1.cliques_rescored, 2, "first round scores everything");
        assert_eq!(s1.cliques_reused, 0);
        // Round 2: {0,1,2} was removed entirely; {3,4,5} is disjoint from
        // the removed set, so its clique is carried (and rescored).
        let s2 = round(&mut engine, &LocalScorer, 0.3, &mut rec, &mut rng);
        assert_eq!(s2.cliques_enumerated, 1);
        assert_eq!(s2.cliques_reused, 1);
        assert_eq!(s2.cliques_rescored, 1);
        assert_eq!(s2.committed_phase1, 1);
        assert_eq!(engine.residual().num_edges(), 0);
    }
}
