//! Full multi-round reconstruction benchmark: the cross-round engine vs
//! the pre-engine search path.
//!
//! Where `bench_round` times a *single* search round, this runs the whole
//! outer loop (Algorithm 1) per Table-1 dataset with a genuinely trained
//! classifier, two ways:
//!
//! * **incremental** — `reconstruct_with_report` on the cross-round
//!   [`marioh_core::SearchEngine`]: one freeze/ordering per run, a
//!   carried clique list re-enumerated only around removed edges,
//!   patched MHH memo, and the run's one worker pool. Every round
//!   scores its whole clique list.
//! * **legacy** — a faithful replica of the pre-engine round (PR 3's
//!   code): freeze + degeneracy ordering every pass, full Bron–Kerbosch
//!   every round, a *fresh* lazily-built MHH memo per scoring pass
//!   (phase 2 built its own), and worker threads spawned per stage at
//!   the requested thread count (spawning was unconditional for
//!   enumeration, `≥ 64` cliques for scoring, and at the MHH build's
//!   slot floor for each memo).
//!
//! Both are asserted bit-identical before any number is reported; the
//! headline `speedup` is legacy / incremental. Results land in
//! `BENCH_engine.json` at the workspace root. `MARIOH_BENCH_SMOKE=1`
//! runs a single tiny dataset once and writes to
//! `target/BENCH_engine.smoke.json`, leaving the committed baseline
//! untouched.

use marioh_core::mhh::MHH_PARALLEL_MIN_SLOTS;
use marioh_core::model::CliqueScorer;
use marioh_core::parallel::score_cliques;
use marioh_core::reconstruct::{reconstruct_with_report, ReconstructionReport};
use marioh_core::search::SearchStats;
use marioh_core::training::train_classifier;
use marioh_core::{MariohConfig, RoundContext, TrainingConfig};
use marioh_datasets::registry::PaperDataset;
use marioh_hypergraph::clique::{maximal_cliques, sample_k_subset, DegeneracyOrdering};
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId, ProjectedGraph, WorkerPool};
use marioh_ml::TrainConfig;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

const THREAD_COUNTS: [usize; 2] = [1, 4];

// ---------------------------------------------------------------------
// Faithful replica of the pre-engine (PR 3) search path, preserved here
// as the benchmark baseline after the library switched to the
// cross-round engine. Bit-identical outputs are asserted each run.
// ---------------------------------------------------------------------

/// PR 3's scoring-parallelism threshold (clique count, not work).
const LEGACY_SCORE_PARALLEL_THRESHOLD: usize = 64;

/// The pool one legacy pass's lazy MHH build fans out over, spawned for
/// that pass alone above the build's slot floor (a fresh freeze has two
/// slots per edge): the old per-pass thread spawns of the MHH build.
fn legacy_mhh_pool(g: &ProjectedGraph, threads: usize) -> Option<WorkerPool> {
    (threads > 1 && 2 * g.num_edges() >= MHH_PARALLEL_MIN_SLOTS).then(|| WorkerPool::new(threads))
}

fn legacy_score(
    scorer: &dyn CliqueScorer,
    round: &RoundContext<'_>,
    cliques: &[Vec<NodeId>],
    threads: usize,
) -> Vec<f64> {
    if threads > 1 && cliques.len() >= LEGACY_SCORE_PARALLEL_THRESHOLD {
        // Per-round thread spawns, exactly like the old scoped-thread
        // fan-out (a WorkerPool constructed and dropped per stage has
        // the same spawn/join profile).
        let pool = WorkerPool::new(threads);
        score_cliques(scorer, round, cliques, Some(&pool))
    } else {
        let mut out = vec![0.0; cliques.len()];
        if !cliques.is_empty() {
            scorer.score_batch(round, cliques, &mut out);
        }
        out
    }
}

fn legacy_try_commit(
    g: &mut ProjectedGraph,
    clique: &[NodeId],
    reconstruction: &mut Hypergraph,
) -> bool {
    // The old two-pass commit: validate every pair on the hash maps,
    // then decrement every pair.
    if !g.is_clique(clique) {
        return false;
    }
    let e = Hyperedge::new(clique.iter().copied()).expect("clique has >= 2 nodes");
    reconstruction.add_edge(e);
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            g.decrement_edge(u, v, 1);
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn legacy_round(
    g: &mut ProjectedGraph,
    scorer: &dyn CliqueScorer,
    theta: f64,
    neg_ratio: f64,
    reconstruction: &mut Hypergraph,
    phase2: bool,
    threads: usize,
    rng: &mut StdRng,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let (cliques, scores) = {
        // Freeze per round; fresh lazy MHH memo per pass.
        let mhh_pool = legacy_mhh_pool(g, threads);
        let mut round = RoundContext::new(g);
        if let Some(pool) = &mhh_pool {
            round = round.with_pool(pool);
        }
        let ordering = DegeneracyOrdering::of(round.view());
        let cliques = if threads > 1 {
            // Old enumeration spawned unconditionally when threads > 1.
            let pool = WorkerPool::new(threads);
            maximal_cliques(round.view(), &ordering, Some(&pool))
        } else {
            maximal_cliques(round.view(), &ordering, None)
        };
        let scores = legacy_score(scorer, &round, &cliques, threads);
        (cliques, scores)
    };
    stats.cliques_enumerated = cliques.len();
    if cliques.is_empty() {
        return stats;
    }
    let mut positives: Vec<(f64, &Vec<NodeId>)> = Vec::new();
    let mut negatives: Vec<(f64, &Vec<NodeId>)> = Vec::new();
    for (s, c) in scores.into_iter().zip(cliques.iter()) {
        if s > theta {
            positives.push((s, c));
        } else {
            negatives.push((s, c));
        }
    }
    positives.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN").then(a.1.cmp(b.1)));
    for (_, clique) in &positives {
        if legacy_try_commit(g, clique, reconstruction) {
            stats.committed_phase1 += 1;
        }
    }
    if !phase2 {
        return stats;
    }
    negatives.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN").then(a.1.cmp(b.1)));
    let take = ((neg_ratio / 100.0) * negatives.len() as f64).ceil() as usize;
    let mut candidates: Vec<Vec<NodeId>> = Vec::new();
    for (_, clique) in negatives.iter().take(take) {
        for k in 2..clique.len() {
            let sub = sample_k_subset(rng, clique, k);
            stats.subcliques_sampled += 1;
            if g.is_clique(&sub) {
                candidates.push(sub);
            }
        }
    }
    let sub_scores = if candidates.is_empty() {
        Vec::new()
    } else {
        // Second freeze + second from-scratch MHH memo of the round.
        let mhh_pool = legacy_mhh_pool(g, threads);
        let mut round = RoundContext::new(g);
        if let Some(pool) = &mhh_pool {
            round = round.with_pool(pool);
        }
        legacy_score(scorer, &round, &candidates, threads)
    };
    let mut sub_scored: Vec<(f64, Vec<NodeId>)> = sub_scores
        .into_iter()
        .zip(candidates)
        .filter(|&(s, _)| s > theta)
        .collect();
    sub_scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN").then(a.1.cmp(&b.1)));
    for (_, sub) in &sub_scored {
        if legacy_try_commit(g, sub, reconstruction) {
            stats.committed_phase2 += 1;
        }
    }
    stats
}

/// The pre-engine outer loop: `legacy_round` driven exactly like
/// `reconstruct_observed` drives the engine.
fn legacy_reconstruct(
    g: &ProjectedGraph,
    scorer: &dyn CliqueScorer,
    cfg: &MariohConfig,
    rng: &mut StdRng,
) -> (Hypergraph, ReconstructionReport) {
    let mut report = ReconstructionReport::default();
    let mut reconstruction = Hypergraph::new(g.num_nodes());
    let mut work = if cfg.use_filtering {
        let t0 = Instant::now();
        let pool = legacy_mhh_pool(g, cfg.threads);
        let (g2, stats) = marioh_core::filtering::filtering(g, &mut reconstruction, pool.as_ref());
        report.filtering_secs = t0.elapsed().as_secs_f64();
        report.filter_stats = Some(stats);
        g2
    } else {
        g.clone()
    };
    let mut theta = cfg.theta_init;
    let t0 = Instant::now();
    let mut stall_rounds = 0usize;
    while !work.is_edgeless() && report.rounds.len() < cfg.max_iterations {
        let stats = legacy_round(
            &mut work,
            scorer,
            theta,
            cfg.neg_ratio,
            &mut reconstruction,
            cfg.use_bidirectional,
            cfg.threads,
            rng,
        );
        let committed = stats.committed_phase1 + stats.committed_phase2;
        report.rounds.push(stats);
        if committed == 0 && theta == 0.0 {
            stall_rounds += 1;
            if stall_rounds >= 2 {
                break;
            }
        } else if committed > 0 {
            stall_rounds = 0;
        }
        theta = (theta - cfg.alpha * cfg.theta_init).max(0.0);
    }
    report.search_secs = t0.elapsed().as_secs_f64();
    (reconstruction, report)
}

// ---------------------------------------------------------------------

struct DatasetResult {
    name: &'static str,
    scale: f64,
    nodes: u32,
    edges: usize,
    rounds: usize,
    reuse_ratio: f64,
    /// Per thread count: (incremental, legacy) search seconds.
    search_secs: [(f64, f64); THREAD_COUNTS.len()],
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

fn bench_dataset(dataset: PaperDataset, reps: usize) -> DatasetResult {
    let scale = dataset.default_scale();
    let generated = dataset.generate_scaled(scale);
    let g = project(&generated.hypergraph);

    // A real classifier (fewer epochs than the paper harness: the bench
    // measures reconstruction, not training quality).
    let cfg = TrainingConfig {
        optimizer: TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
        ..TrainingConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let model = train_classifier(&generated.hypergraph, &cfg, &mut rng);

    let engine_run = |threads: usize| {
        let cfg = MariohConfig {
            threads,
            ..MariohConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        reconstruct_with_report(&g, &model, &cfg, &mut rng)
    };
    let legacy_run = |threads: usize| {
        let cfg = MariohConfig {
            threads,
            ..MariohConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        legacy_reconstruct(&g, &model, &cfg, &mut rng)
    };

    // Sub-5ms runs are at the mercy of scheduler noise: take many more
    // samples so the reported medians are stable.
    let reps = if reps > 1 && engine_run(1).1.search_secs < 0.005 {
        reps.max(25)
    } else {
        reps
    };

    let mut search_secs = [(0.0, 0.0); THREAD_COUNTS.len()];
    let mut rounds = 0usize;
    let mut reuse_ratio = 0.0f64;
    for (ti, &threads) in THREAD_COUNTS.iter().enumerate() {
        let mut inc = Vec::with_capacity(reps);
        let mut leg = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (rec_inc, rep_inc) = engine_run(threads);
            let (rec_leg, rep_leg) = legacy_run(threads);
            assert_eq!(
                rec_inc, rec_leg,
                "incremental vs legacy diverged on {}",
                generated.name
            );
            assert_eq!(rep_inc.rounds, rep_leg.rounds, "round stats diverged");
            inc.push(rep_inc.search_secs);
            leg.push(rep_leg.search_secs);
            rounds = rep_inc.rounds.len();
            reuse_ratio = rep_inc.reuse_ratio();
        }
        search_secs[ti] = (median(&mut inc), median(&mut leg));
    }

    DatasetResult {
        name: generated.name,
        scale,
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        rounds,
        reuse_ratio,
        search_secs,
    }
}

fn write_json(results: &[DatasetResult], smoke: bool) -> std::io::Result<std::path::PathBuf> {
    let f = |v: f64| format!("{v:.4}");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"bench_engine\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str("  \"command\": \"cargo bench -p marioh-bench --bench bench_engine\",\n");
    body.push_str(
        "  \"note\": \"full multi-round reconstruction; search_secs excludes training and filtering; legacy = faithful pre-engine path (per-round freeze/spawns, per-pass MHH); speedup = legacy/incremental; both modes asserted bit-identical\",\n",
    );
    body.push_str("  \"datasets\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str("    {\n");
        body.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        body.push_str(&format!("      \"scale\": {},\n", r.scale));
        body.push_str(&format!("      \"nodes\": {},\n", r.nodes));
        body.push_str(&format!("      \"edges\": {},\n", r.edges));
        body.push_str(&format!("      \"rounds\": {},\n", r.rounds));
        body.push_str(&format!(
            "      \"clique_reuse_ratio\": {},\n",
            f(r.reuse_ratio)
        ));
        // Headline per-dataset speedup: legacy / incremental at the
        // highest benched thread count — the configuration whose
        // per-round spawn overhead this PR eliminates. Single-thread
        // detail below (sub-millisecond totals there sit inside
        // scheduler noise).
        let (inc_hi, leg_hi) = r.search_secs[THREAD_COUNTS.len() - 1];
        body.push_str(&format!(
            "      \"speedup\": {:.3},\n",
            leg_hi / inc_hi.max(1e-12)
        ));
        for (ti, &threads) in THREAD_COUNTS.iter().enumerate() {
            let (inc, leg) = r.search_secs[ti];
            body.push_str(&format!(
                "      \"threads_{threads}\": {{\"incremental_search_secs\": {}, \"legacy_search_secs\": {}, \"speedup_vs_legacy\": {:.3}}}{}\n",
                f(inc),
                f(leg),
                leg / inc.max(1e-12),
                if ti + 1 == THREAD_COUNTS.len() { "" } else { "," }
            ));
        }
        body.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    body.push_str("  ]\n}\n");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke {
        root.join("target/BENCH_engine.smoke.json")
    } else {
        root.join("BENCH_engine.json")
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
        let r = bench_dataset(dataset, reps);
        let (inc1, leg1) = r.search_secs[0];
        let (inc4, leg4) = r.search_secs[THREAD_COUNTS.len() - 1];
        println!(
            "bench_engine/{}: {} rounds, reuse {:.1}% | 1t {:.3}s engine vs {:.3}s legacy ({:.2}x) | 4t {:.3}s engine vs {:.3}s legacy ({:.2}x)  [total {:.1}s]",
            r.name,
            r.rounds,
            r.reuse_ratio * 100.0,
            inc1,
            leg1,
            leg1 / inc1.max(1e-12),
            inc4,
            leg4,
            leg4 / inc4.max(1e-12),
            t.elapsed().as_secs_f64()
        );
        results.push(r);
    }
    match write_json(&results, smoke) {
        Ok(path) => println!("bench_engine: wrote {}", path.display()),
        Err(e) => eprintln!("bench_engine: failed to write BENCH_engine.json: {e}"),
    }
}
