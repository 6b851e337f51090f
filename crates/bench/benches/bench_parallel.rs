//! Criterion bench: the parallelism ablation.
//!
//! Serial vs threaded clique enumeration and clique scoring on a dense
//! contact-style graph (the regime where the search loop dominates,
//! Fig. 6). The threaded paths must return bit-identical results — this
//! bench quantifies the wall-clock side of that design decision
//! (DESIGN.md §5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use marioh_core::parallel::score_cliques_round;
use marioh_core::{Marioh, RoundContext, TrainingConfig};
use marioh_datasets::PaperDataset;
use marioh_hypergraph::clique::maximal_cliques;
use marioh_hypergraph::parallel::maximal_cliques_view;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::GraphView;
use rand::{rngs::StdRng, SeedableRng};

fn bench_parallel_cliques(c: &mut Criterion) {
    let data = PaperDataset::PSchool.generate_scaled(0.35);
    let g = project(&data.hypergraph);
    let mut group = c.benchmark_group("parallel_cliques");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("serial", format!("edges={}", g.num_edges())),
        &g,
        |b, g| b.iter(|| std::hint::black_box(maximal_cliques(g))),
    );
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &g, |b, g| {
            b.iter(|| std::hint::black_box(maximal_cliques_view(&GraphView::freeze(g), threads)))
        });
    }
    group.finish();
}

fn bench_parallel_scoring(c: &mut Criterion) {
    let data = PaperDataset::PSchool.generate_scaled(0.35);
    let g = project(&data.hypergraph);
    let mut rng = StdRng::seed_from_u64(3);
    let model = Marioh::train(&data.hypergraph, &TrainingConfig::default(), &mut rng);
    let cliques = maximal_cliques(&g);
    // The context (CSR view + MHH memo) is built once per search round,
    // not once per scoring call — keep it outside the timed closure so
    // the bench isolates the scoring fan-out.
    let round = RoundContext::with_threads(&g, 8);
    round.mhh_cache();
    let mut group = c.benchmark_group("parallel_scoring");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(cliques.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| std::hint::black_box(score_cliques_round(model.model(), &round, &cliques, t)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_cliques, bench_parallel_scoring);
criterion_main!(benches);
