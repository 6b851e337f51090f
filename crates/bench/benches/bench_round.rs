//! End-to-end bidirectional-search round benchmark.
//!
//! For each registry dataset this measures, on the post-filtering graph
//! with a genuinely trained classifier:
//!
//! * the scoring phase alone, twice — the pre-refactor per-clique path
//!   (`TrainedModel::score` against the hash-map graph, exactly what the
//!   search loop ran before the round-frozen view existed) and the
//!   view/memo/batched path (`RoundContext` + `score_cliques_round`,
//!   freeze and MHH-cache cost included) — giving a like-for-like
//!   scoring speedup;
//! * one full search round (enumerate + score + commit) at 1/2/4
//!   threads, median over several runs.
//!
//! Results land in `BENCH_search.json` at the workspace root so the
//! perf trajectory is tracked in-repo. `MARIOH_BENCH_SMOKE=1` runs a
//! single tiny dataset with one measured iteration (the CI wiring) and
//! writes to `target/BENCH_search.smoke.json` instead, leaving the
//! committed baseline untouched.

use marioh_core::parallel::score_cliques_round;
use marioh_core::training::train_classifier;
use marioh_core::{filtering, CancelToken, RoundContext, SearchEngine, TrainingConfig};
use marioh_datasets::registry::PaperDataset;
use marioh_hypergraph::parallel::maximal_cliques_view;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{GraphView, Hypergraph};
use marioh_ml::TrainConfig;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

struct DatasetResult {
    name: &'static str,
    scale: f64,
    nodes: u32,
    edges: usize,
    cliques: usize,
    legacy_scoring_ms: f64,
    view_scoring_ms: f64,
    round_ms: [f64; THREAD_COUNTS.len()],
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn bench_dataset(dataset: PaperDataset, reps: usize) -> DatasetResult {
    let scale = dataset.default_scale();
    let generated = dataset.generate_scaled(scale);
    let g = project(&generated.hypergraph);

    // A real classifier (fewer epochs than the paper harness: the bench
    // measures inference, not training quality).
    let cfg = TrainingConfig {
        optimizer: TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
        ..TrainingConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let model = train_classifier(&generated.hypergraph, &cfg, &mut rng);

    // Rounds operate on the post-filtering intermediate graph.
    let mut sink = Hypergraph::new(g.num_nodes());
    let (work, _) = filtering::filtering(&g, &mut sink);

    // --- Scoring phase: legacy per-clique vs round-frozen batched ---
    let cliques = maximal_cliques_view(&GraphView::freeze(&work), 1);
    let mut legacy_samples = Vec::with_capacity(reps);
    let mut view_samples = Vec::with_capacity(reps);
    let mut checksum_legacy = 0.0f64;
    let mut checksum_view = 0.0f64;
    for _ in 0..reps {
        let t = Instant::now();
        let scores: Vec<f64> = cliques.iter().map(|c| model.score(&work, c)).collect();
        legacy_samples.push(ms(t));
        checksum_legacy = scores.iter().sum();

        let t = Instant::now();
        let round = RoundContext::new(&work);
        let scores = score_cliques_round(&model, &round, &cliques, 1);
        view_samples.push(ms(t));
        checksum_view = scores.iter().sum();
    }
    assert_eq!(
        checksum_legacy, checksum_view,
        "scoring paths diverged on {}",
        generated.name
    );

    // --- One full round at each thread count ---
    let mut round_ms = [0.0; THREAD_COUNTS.len()];
    for (ti, &threads) in THREAD_COUNTS.iter().enumerate() {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut rec = Hypergraph::new(work.num_nodes());
            let mut rng = StdRng::seed_from_u64(7);
            let t = Instant::now();
            let stats = SearchEngine::new(&work, threads)
                .round(
                    &model,
                    0.5,
                    20.0,
                    &mut rec,
                    true,
                    &CancelToken::new(),
                    &mut rng,
                )
                .expect("fresh token");
            samples.push(ms(t));
            std::hint::black_box(stats);
        }
        round_ms[ti] = median(&mut samples);
    }

    DatasetResult {
        name: generated.name,
        scale,
        nodes: work.num_nodes(),
        edges: work.num_edges(),
        cliques: cliques.len(),
        legacy_scoring_ms: median(&mut legacy_samples),
        view_scoring_ms: median(&mut view_samples),
        round_ms,
    }
}

fn write_json(results: &[DatasetResult], smoke: bool) -> std::io::Result<std::path::PathBuf> {
    let f = |v: f64| format!("{v:.3}");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"bench_round\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str("  \"command\": \"cargo bench -p marioh-bench --bench bench_round\",\n");
    body.push_str("  \"datasets\": [\n");
    for (i, r) in results.iter().enumerate() {
        let speedup = r.legacy_scoring_ms / r.view_scoring_ms.max(1e-9);
        body.push_str("    {\n");
        body.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        body.push_str(&format!("      \"scale\": {},\n", r.scale));
        body.push_str(&format!("      \"nodes\": {},\n", r.nodes));
        body.push_str(&format!("      \"edges\": {},\n", r.edges));
        body.push_str(&format!("      \"maximal_cliques\": {},\n", r.cliques));
        body.push_str(&format!(
            "      \"scoring_ms\": {{\"legacy_per_clique\": {}, \"view_batched\": {}, \"speedup\": {}}},\n",
            f(r.legacy_scoring_ms),
            f(r.view_scoring_ms),
            f(speedup)
        ));
        body.push_str(&format!(
            "      \"round_ms\": {{\"threads_1\": {}, \"threads_2\": {}, \"threads_4\": {}}}\n",
            f(r.round_ms[0]),
            f(r.round_ms[1]),
            f(r.round_ms[2])
        ));
        body.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    body.push_str("  ]\n}\n");
    // Smoke runs go to the (ignored) target dir so CI and local smokes
    // never clobber the committed full-run baseline.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke {
        root.join("target/BENCH_search.smoke.json")
    } else {
        root.join("BENCH_search.json")
    };
    std::fs::write(&path, body)?;
    Ok(path.canonicalize().unwrap_or(path))
}

fn main() {
    let smoke = std::env::var("MARIOH_BENCH_SMOKE").as_deref() == Ok("1");
    let (datasets, reps): (Vec<PaperDataset>, usize) = if smoke {
        (vec![PaperDataset::Crime], 1)
    } else {
        (PaperDataset::TABLE1.to_vec(), 5)
    };

    let mut results = Vec::new();
    for dataset in datasets {
        let t = Instant::now();
        // Sub-millisecond rounds need many more samples for a stable
        // median (scheduler noise swamps 5-rep medians there).
        let big = matches!(
            dataset,
            PaperDataset::Dblp | PaperDataset::Eu | PaperDataset::MagTopCs
        );
        let reps = if smoke || big { reps } else { reps.max(25) };
        let r = bench_dataset(dataset, reps);
        println!(
            "bench_round/{}: scoring {:.3}ms legacy vs {:.3}ms view ({:.2}x), \
             round 1t {:.3}ms / 2t {:.3}ms / 4t {:.3}ms  [total {:.1}s]",
            r.name,
            r.legacy_scoring_ms,
            r.view_scoring_ms,
            r.legacy_scoring_ms / r.view_scoring_ms.max(1e-9),
            r.round_ms[0],
            r.round_ms[1],
            r.round_ms[2],
            t.elapsed().as_secs_f64()
        );
        results.push(r);
    }
    match write_json(&results, smoke) {
        Ok(path) => println!("bench_round: wrote {}", path.display()),
        Err(e) => eprintln!("bench_round: failed to write BENCH_search.json: {e}"),
    }
}
