//! Criterion bench: one bidirectional-search round (Algorithm 3) — the
//! right panel of Fig. 7 at fixed size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use marioh_core::model::FnScorer;
use marioh_core::{CancelToken, SearchEngine};
use marioh_datasets::hypercl::dblp_like;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{GraphView, Hypergraph, NodeId};
use rand::{rngs::StdRng, SeedableRng};

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("bidirectional_search");
    // A size-biased scorer: committing larger cliques first, like the
    // trained classifier tends to.
    let scorer = FnScorer(|_: &GraphView, q: &[NodeId]| 1.0 - 1.0 / (q.len() as f64 + 1.0));
    for scale in [0.5, 1.0, 2.0] {
        let mut rng = StdRng::seed_from_u64(3);
        let g = project(&dblp_like(scale, &mut rng));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("edges={}", g.num_edges())),
            &g,
            |b, g| {
                b.iter(|| {
                    let mut engine = SearchEngine::new(g, 1);
                    let mut rec = Hypergraph::new(g.num_nodes());
                    let mut rng = StdRng::seed_from_u64(1);
                    std::hint::black_box(engine.round(
                        &scorer,
                        0.5,
                        20.0,
                        &mut rec,
                        true,
                        &CancelToken::new(),
                        &mut rng,
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
