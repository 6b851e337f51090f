//! The frozen scoring context shared by one enumeration/scoring pass.
//!
//! # The round-frozen invariant
//!
//! The bidirectional search mutates the residual graph only *between*
//! passes: it enumerates and scores against one consistent set of
//! weights, then commits (decrementing edges), then scores again for the
//! sub-clique pass. [`RoundContext`] reifies that window: a CSR
//! [`GraphView`] plus a lazily attached [`MhhCache`], so each edge's MHH
//! is computed at most once per pass regardless of how many overlapping
//! cliques share it.
//!
//! Two ways to build one:
//!
//! * [`RoundContext::new`] / [`RoundContext::with_threads`] — freeze a
//!   [`ProjectedGraph`] now, owning the view (one-shot callers:
//!   filtering, training, benches).
//! * [`RoundContext::with_frozen`] — borrow the residual view (and
//!   optionally an MHH memo) of the cross-round
//!   [`crate::engine::SearchEngine`], which patches both with every
//!   commit. The freeze is paid once per run, and each pass's context is
//!   just a pair of borrows; the borrow keeps the engine from committing
//!   while a pass reads the view.
//!
//! Everything inside a context is immutable, so any number of scoring
//! workers can share one `&RoundContext`.

use crate::mhh::MhhCache;
use marioh_hypergraph::{GraphView, ProjectedGraph, WorkerPool};
use std::sync::OnceLock;

enum ViewSrc<'g> {
    Owned(GraphView),
    Shared(&'g GraphView),
}

enum MhhSrc<'g> {
    /// Built on first request, from this context's view.
    Lazy(OnceLock<MhhCache>),
    /// A caller-maintained memo, already consistent with the view.
    Shared(&'g MhhCache),
}

/// One scoring pass's frozen state: a CSR view and an MHH memo (lazily
/// built, or borrowed from a cross-round engine).
pub struct RoundContext<'g> {
    view: ViewSrc<'g>,
    threads: usize,
    /// A persistent pool for the lazy MHH build (spawns scoped threads
    /// otherwise). Values are identical either way.
    pool: Option<&'g WorkerPool>,
    mhh: MhhSrc<'g>,
}

impl<'g> RoundContext<'g> {
    /// Freezes `g` for one pass (single-threaded cache construction).
    pub fn new(g: &ProjectedGraph) -> Self {
        RoundContext::with_threads(g, 1)
    }

    /// Freezes `g`, remembering `threads` for the MHH-cache build.
    pub fn with_threads(g: &ProjectedGraph, threads: usize) -> Self {
        RoundContext {
            view: ViewSrc::Owned(GraphView::freeze(g)),
            threads: threads.max(1),
            pool: None,
            mhh: MhhSrc::Lazy(OnceLock::new()),
        }
    }

    /// Wraps an externally maintained view; `mhh`, when given, must be
    /// consistent with it. The cross-round engine upholds this by
    /// patching both with every commit.
    ///
    /// With `mhh: None` the memo is still lazily built on first request —
    /// from the *patched* view, so its values are identical to a fresh
    /// freeze-and-build. [`RoundContext::take_mhh`] lets the caller keep
    /// that build for later rounds.
    pub fn with_frozen(view: &'g GraphView, mhh: Option<&'g MhhCache>, threads: usize) -> Self {
        RoundContext {
            view: ViewSrc::Shared(view),
            threads: threads.max(1),
            pool: None,
            mhh: match mhh {
                Some(cache) => MhhSrc::Shared(cache),
                None => MhhSrc::Lazy(OnceLock::new()),
            },
        }
    }

    /// Routes a lazy MHH build through `pool` instead of spawning scoped
    /// threads — callers that keep a pool alive across rounds (the
    /// cross-round engine) attach it so even the one full build a run
    /// pays never spawns.
    pub fn with_pool(mut self, pool: &'g WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The frozen CSR view.
    #[inline]
    pub fn view(&self) -> &GraphView {
        match &self.view {
            ViewSrc::Owned(v) => v,
            ViewSrc::Shared(v) => v,
        }
    }

    /// The per-round MHH memo, built on first request. Scorers that never
    /// need MHH (count/motif features, test oracles) never pay for it.
    pub fn mhh_cache(&self) -> &MhhCache {
        match &self.mhh {
            MhhSrc::Shared(cache) => cache,
            MhhSrc::Lazy(lock) => lock.get_or_init(|| match self.pool {
                Some(pool) if pool.threads() > 1 => MhhCache::build_pool(self.view(), pool),
                _ => MhhCache::build(self.view(), self.threads),
            }),
        }
    }

    /// Consumes the context, handing back an MHH memo that was lazily
    /// built during this pass (if any). `None` when the memo was borrowed
    /// or never requested. The cross-round engine uses this to keep the
    /// one full build a run ever pays.
    pub fn take_mhh(self) -> Option<MhhCache> {
        match self.mhh {
            MhhSrc::Lazy(lock) => lock.into_inner(),
            MhhSrc::Shared(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::NodeId;

    #[test]
    fn context_freezes_view_and_builds_cache_lazily() {
        let mut g = ProjectedGraph::new(3);
        g.add_edge_weight(NodeId(0), NodeId(1), 2);
        g.add_edge_weight(NodeId(1), NodeId(2), 1);
        g.add_edge_weight(NodeId(0), NodeId(2), 1);
        let ctx = RoundContext::with_threads(&g, 4);
        assert_eq!(ctx.view().num_edges(), g.num_edges());
        assert_eq!(
            ctx.mhh_cache().get(ctx.view(), NodeId(0), NodeId(1)),
            Some(crate::mhh::mhh(&g, NodeId(0), NodeId(1)))
        );
        // Second call returns the same memo (OnceLock).
        let first = ctx.mhh_cache() as *const MhhCache;
        assert_eq!(first, ctx.mhh_cache() as *const MhhCache);
    }

    #[test]
    fn borrowed_view_and_cache_are_served_verbatim() {
        let mut g = ProjectedGraph::new(3);
        g.add_edge_weight(NodeId(0), NodeId(1), 2);
        g.add_edge_weight(NodeId(1), NodeId(2), 3);
        let view = GraphView::freeze(&g);
        let cache = MhhCache::build(&view, 1);
        let ctx = RoundContext::with_frozen(&view, Some(&cache), 2);
        assert!(std::ptr::eq(ctx.view(), &view));
        assert!(std::ptr::eq(ctx.mhh_cache(), &cache));
        assert!(ctx.take_mhh().is_none(), "borrowed memo is not handed back");
    }

    #[test]
    fn lazily_built_cache_can_be_taken_by_the_caller() {
        let mut g = ProjectedGraph::new(3);
        g.add_edge_weight(NodeId(0), NodeId(1), 2);
        g.add_edge_weight(NodeId(0), NodeId(2), 1);
        let view = GraphView::freeze(&g);
        let ctx = RoundContext::with_frozen(&view, None, 1);
        let never_requested = RoundContext::with_frozen(&view, None, 1);
        assert!(never_requested.take_mhh().is_none());
        let expected = ctx.mhh_cache().get(&view, NodeId(0), NodeId(1));
        assert_eq!(expected, Some(crate::mhh::mhh(&g, NodeId(0), NodeId(1))));
        let taken = ctx.take_mhh().expect("memo was built in this pass");
        assert_eq!(taken.get(&view, NodeId(0), NodeId(1)), expected);
    }
}
