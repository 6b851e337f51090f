//! Review repro: lazy MHH build triggered on the caller thread from
//! inside a parallel scoring job should not deadlock.

use marioh_core::model::CliqueScorer;
use marioh_core::parallel::score_cliques_pool;
use marioh_core::round::RoundContext;
use marioh_hypergraph::{GraphView, NodeId, ProjectedGraph, WorkerPool};

struct MhhScorer;
impl CliqueScorer for MhhScorer {
    fn score_batch(&self, round: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]) {
        let cache = round.mhh_cache();
        for (c, o) in cliques.iter().zip(out.iter_mut()) {
            let slot = round.view().slot(c[0], c[1]).unwrap();
            *o = cache.at(slot) as f64;
        }
    }
}

#[test]
fn lazy_mhh_build_inside_pool_scoring_does_not_deadlock() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // Graph with >= 4096 slots so build_pool actually fans out
        // (slots = 2 * edges; n = 96 yields 2351 edges, 4702 slots).
        let n = 96u32;
        let mut g = ProjectedGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if (u + v) % 2 == 0 || v == u + 1 {
                    g.add_edge_weight(NodeId(u), NodeId(v), 2);
                }
            }
        }
        let view = GraphView::freeze(&g);
        assert!(view.num_slots() >= 4096, "too small: {}", view.num_slots());
        let pool = WorkerPool::new(4);
        let ctx = RoundContext::with_frozen(&view, None, 4).with_pool(&pool);
        let cliques: Vec<Vec<NodeId>> = g
            .sorted_edge_list()
            .into_iter()
            .map(|(u, v, _)| vec![u, v])
            .collect();
        let scores = score_cliques_pool(&MhhScorer, &ctx, &cliques, &pool);
        tx.send(scores.len()).unwrap();
    });
    match rx.recv_timeout(std::time::Duration::from_secs(20)) {
        Ok(len) => assert!(len > 0),
        Err(_) => panic!("DEADLOCK: scoring never completed"),
    }
}
