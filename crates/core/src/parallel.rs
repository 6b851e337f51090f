//! Parallel clique scoring.
//!
//! Scoring a round's cliques (feature extraction + one MLP forward pass
//! each) is the other large slice of bidirectional-search runtime next to
//! clique enumeration, and it is pure: every score reads the same
//! round-frozen [`RoundContext`]. Workers pull fixed-size blocks of the
//! clique slice from a shared atomic counter — large cliques cluster at
//! the front of the sorted enumeration, so static chunking leaves the
//! first worker with most of the work — and write scores straight into
//! their block's slot of the output, so the result is identical to the
//! serial map for any thread count.
//!
//! Fan-out goes through a [`WorkerPool`] (the cross-round engine keeps
//! one alive for the whole run), and batches whose total work falls below
//! [`SCORE_PARALLEL_MIN_WORK`] run serially no matter how many threads
//! were requested: on the small Table-1 datasets the dispatch overhead
//! measurably exceeded the scoring itself. Results are identical either
//! way.

use crate::model::CliqueScorer;
use crate::round::RoundContext;
use marioh_hypergraph::{NodeId, ProjectedGraph, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Minimum total scoring work (Σ per-clique pair count + size, a proxy
/// for feature-extraction cost) before fan-out beats the serial path.
/// Calibrated on the Table-1 round bench: Enron's ~17k-work rounds still
/// lose to serial at 2–4 threads, DBLP/Eu (≥ 100k) win.
pub const SCORE_PARALLEL_MIN_WORK: usize = 32 * 1024;

/// Cliques claimed per steal: small enough that a block of the large
/// front-of-list cliques cannot dominate a worker, large enough that the
/// batched scorer amortises its per-block buffers.
const STEAL_BLOCK: usize = 32;

/// The adaptive-fallback work estimate: pairs dominate feature
/// extraction (per-pair weight/MHH/embeddedness lookups), the linear
/// term covers per-clique overhead.
pub(crate) fn score_work(cliques: &[Vec<NodeId>]) -> usize {
    cliques
        .iter()
        .map(|c| c.len() * (c.len() - 1) / 2 + c.len())
        .sum()
}

/// Scores every clique in `cliques` against a context frozen from `g`.
/// `out[i]` is the score of `cliques[i]`; results are identical for any
/// `threads`.
///
/// Convenience wrapper: callers inside the search loop hold a
/// [`RoundContext`] already and use [`score_cliques_round`] directly,
/// sharing the frozen view (and MHH memo) with enumeration.
pub fn score_cliques(
    scorer: &dyn CliqueScorer,
    g: &ProjectedGraph,
    cliques: &[Vec<NodeId>],
    threads: usize,
) -> Vec<f64> {
    let round = RoundContext::with_threads(g, threads);
    score_cliques_round(scorer, &round, cliques, threads)
}

/// [`score_cliques`] against an existing round-frozen context.
///
/// Serial — or any batch whose [work](SCORE_PARALLEL_MIN_WORK) is too
/// small to amortise fan-out — makes one [`CliqueScorer::score_batch`]
/// call; larger parallel runs fan out over a transient [`WorkerPool`].
/// Callers that keep a pool alive across rounds use
/// [`score_cliques_pool`] instead.
pub fn score_cliques_round(
    scorer: &dyn CliqueScorer,
    round: &RoundContext<'_>,
    cliques: &[Vec<NodeId>],
    threads: usize,
) -> Vec<f64> {
    if threads <= 1 || score_work(cliques) < SCORE_PARALLEL_MIN_WORK {
        let mut scores = vec![0.0; cliques.len()];
        if !cliques.is_empty() {
            scorer.score_batch(round, cliques, &mut scores);
        }
        return scores;
    }
    let pool = WorkerPool::new(threads);
    score_cliques_pool(scorer, round, cliques, &pool)
}

/// [`score_cliques_round`] against a caller-owned [`WorkerPool`]: always
/// fans out when the pool has more than one thread (callers apply their
/// own work thresholds). Workers steal fixed-size blocks off an atomic
/// counter; each block's output slot is handed to exactly one
/// worker, so scores land at their original indices without any post-hoc
/// merge — bit-identical to the serial map.
pub fn score_cliques_pool(
    scorer: &dyn CliqueScorer,
    round: &RoundContext<'_>,
    cliques: &[Vec<NodeId>],
    pool: &WorkerPool,
) -> Vec<f64> {
    let mut scores = vec![0.0; cliques.len()];
    if cliques.is_empty() {
        return scores;
    }
    if pool.threads() <= 1 {
        scorer.score_batch(round, cliques, &mut scores);
        return scores;
    }
    let num_blocks = cliques.len().div_ceil(STEAL_BLOCK);
    {
        // Every block's output slice sits in one slot; a worker that wins
        // block `i` on the counter takes slot `i` exactly once, so the
        // mutex is touched once per block and never contended for long.
        let slots: Mutex<Vec<Option<&mut [f64]>>> =
            Mutex::new(scores.chunks_mut(STEAL_BLOCK).map(Some).collect());
        let next = AtomicUsize::new(0);
        pool.run(&|_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_blocks {
                break;
            }
            let out = slots
                .lock()
                .expect("score worker panicked while holding the slot lock")[i]
                .take()
                .expect("each block is claimed exactly once");
            let lo = i * STEAL_BLOCK;
            scorer.score_batch(round, &cliques[lo..lo + out.len()], out);
        });
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnScorer;
    use marioh_hypergraph::GraphView;

    fn ring_graph(n: u32) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(n);
        for u in 0..n {
            g.add_edge_weight(NodeId(u), NodeId((u + 1) % n), 1);
        }
        g
    }

    #[test]
    fn parallel_scores_match_serial() {
        let g = ring_graph(8);
        let scorer = FnScorer(|_: &GraphView, c: &[NodeId]| {
            c.iter().map(|n| f64::from(n.0)).sum::<f64>() / 100.0
        });
        let cliques: Vec<Vec<NodeId>> = (0..500u32)
            .map(|i| vec![NodeId(i % 8), NodeId((i + 1) % 8)])
            .collect();
        let serial = score_cliques(&scorer, &g, &cliques, 1);
        for threads in [2, 4, 16] {
            assert_eq!(score_cliques(&scorer, &g, &cliques, threads), serial);
            // The pool path has no work gate, so it genuinely fans out.
            let pool = WorkerPool::new(threads);
            let round = RoundContext::new(&g);
            assert_eq!(score_cliques_pool(&scorer, &round, &cliques, &pool), serial);
        }
    }

    #[test]
    fn work_stealing_keeps_output_order_with_uneven_cliques() {
        // Clique sizes shrink along the list, mimicking the sorted
        // enumeration where the heavy cliques cluster at the front. The
        // index-dependent scorer catches any block landing at the wrong
        // output offset.
        let g = ring_graph(64);
        let scorer =
            FnScorer(|_: &GraphView, c: &[NodeId]| c.len() as f64 * 1e3 + f64::from(c[0].0));
        let cliques: Vec<Vec<NodeId>> = (0..700u32)
            .map(|i| {
                let len = if i < 30 { 20 } else { 2 };
                (0..len).map(|k| NodeId((i + k) % 64)).collect()
            })
            .collect();
        let serial = score_cliques(&scorer, &g, &cliques, 1);
        for threads in [2, 3, 8] {
            assert_eq!(score_cliques(&scorer, &g, &cliques, threads), serial);
            let pool = WorkerPool::new(threads);
            let round = RoundContext::new(&g);
            assert_eq!(score_cliques_pool(&scorer, &round, &cliques, &pool), serial);
        }
    }

    #[test]
    fn small_batches_run_serially_but_identically() {
        let g = ring_graph(5);
        let scorer = FnScorer(|_: &GraphView, c: &[NodeId]| c.len() as f64);
        let cliques = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(2)]];
        assert_eq!(score_cliques(&scorer, &g, &cliques, 8), vec![2.0, 2.0]);
    }

    #[test]
    fn work_estimate_counts_pairs_and_sizes() {
        let cliques = vec![
            vec![NodeId(0), NodeId(1)],                       // 1 pair + 2
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)], // 6 pairs + 4
        ];
        assert_eq!(score_work(&cliques), 3 + 10);
    }

    #[test]
    fn empty_input_is_fine() {
        let g = ring_graph(3);
        let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| 1.0);
        assert!(score_cliques(&scorer, &g, &[], 4).is_empty());
        let pool = WorkerPool::new(4);
        let round = RoundContext::new(&g);
        assert!(score_cliques_pool(&scorer, &round, &[], &pool).is_empty());
    }
}
