//! Kernel-dispatch benchmark: scalar reference vs the runtime-dispatched
//! SIMD paths of `marioh-kernels`, measured on the three per-round hot
//! spots they back plus the end-to-end round loop.
//!
//! Each kernel is timed twice in the same process by re-pointing the
//! dispatch with [`marioh_kernels::override_level`]:
//!
//! * **mhh_cache_build** — [`marioh_core::mhh::MhhCache::build`] over the
//!   frozen CSR view (every canonical slot's MHH sum, i.e. one
//!   `intersect_min_sum` per edge).
//! * **predict_rows** — the scoring-phase MLP forward
//!   ([`marioh_ml::Mlp::predict_rows_with`]) over a real feature batch,
//!   backed by `dense_forward`.
//! * **feature_extract** — [`marioh_core::features::extract_into`] in
//!   multiplicity mode over the dataset's maximal cliques, backed by
//!   `find_positions` (and the MHH cache reads).
//! * **mlp_fit** — [`marioh_ml::Mlp::train`] of a seeded `[64, 32]`
//!   classifier on the dataset's scaled training set with the default
//!   `TrainConfig`, backed by `dense_forward`, `dense_outer_accumulate`
//!   and `dense_backward`.
//!
//! **Bit-identity is asserted before any number is reported**: the two
//! runs of every kernel must produce byte-for-byte identical outputs
//! (`u64` memo words, `f64` bits, feature rows, the trained model's
//! `write_to` bytes), and the end-to-end
//! scalar and dispatched reconstructions must be equal hypergraphs.
//! Results land in `BENCH_kernels.json` at the workspace root;
//! `MARIOH_BENCH_SMOKE=1` runs one tiny dataset once and writes to
//! `target/BENCH_kernels.smoke.json`, leaving the committed baseline
//! untouched.

use marioh_core::features::{extract_into, FeatureMode, FeatureScratch};
use marioh_core::mhh::MhhCache;
use marioh_core::reconstruct::reconstruct_with_report;
use marioh_core::training::{build_training_set, train_classifier};
use marioh_core::{MariohConfig, RoundContext, TrainingConfig};
use marioh_datasets::registry::PaperDataset;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::GraphView;
use marioh_kernels::{override_level, Level};
use marioh_ml::{Mlp, MlpScratch, StandardScaler, TrainConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

struct KernelResult {
    name: &'static str,
    scalar_secs: f64,
    dispatched_secs: f64,
    bit_identical: bool,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.dispatched_secs.max(1e-12)
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

/// Times `work` at a forced dispatch level, `reps` times, returning the
/// median seconds and the last run's output (for the parity check).
fn timed<T>(level: Level, reps: usize, mut work: impl FnMut() -> T) -> (f64, T) {
    override_level(level);
    let mut samples = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = work();
        samples.push(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (median(&mut samples), out.expect("reps >= 1"))
}

/// Every valid slot's memo word, row by row — the cache's observable
/// content (hole slots are unreadable by contract).
fn cache_words(view: &GraphView, cache: &MhhCache) -> Vec<u64> {
    let mut words = Vec::new();
    for u in 0..view.num_nodes() {
        let u = marioh_hypergraph::NodeId(u);
        let start = view.row_start(u);
        for (i, &v) in view.neighbors(u).iter().enumerate() {
            if u.0 < v {
                words.push(cache.at(start + i));
            }
        }
    }
    words
}

fn bench_kernels(dataset: PaperDataset, reps: usize, detected: Level) -> (Vec<KernelResult>, f64) {
    let generated = dataset.generate_scaled(dataset.default_scale());
    let g = project(&generated.hypergraph);
    let round = RoundContext::new(&g);
    let view = round.view();

    // --- MHH cache build --------------------------------------------
    let (scalar_secs, scalar_cache) = timed(Level::Scalar, reps, || MhhCache::build(view, 1));
    let (dispatched_secs, fast_cache) = timed(detected, reps, || MhhCache::build(view, 1));
    let mhh = KernelResult {
        name: "mhh_cache_build",
        scalar_secs,
        dispatched_secs,
        bit_identical: cache_words(view, &scalar_cache) == cache_words(view, &fast_cache),
    };

    // --- Feature extraction (multiplicity mode) ---------------------
    let cliques = marioh_hypergraph::parallel::maximal_cliques_view(view, 1);
    let dim = FeatureMode::Multiplicity.dim();
    let mut extract_all = || {
        let mut scratch = FeatureScratch::default();
        let mut rows = vec![0.0; cliques.len() * dim];
        for (c, row) in cliques.iter().zip(rows.chunks_exact_mut(dim)) {
            extract_into(FeatureMode::Multiplicity, &round, c, &mut scratch, row);
        }
        rows
    };
    // Populate the round's lazy MHH cache outside the timed region (at
    // the detected level; its content is level-independent and checked
    // by the mhh_cache_build parity above).
    override_level(detected);
    let _ = round.mhh_cache();
    let (scalar_secs, scalar_rows) = timed(Level::Scalar, reps, &mut extract_all);
    let (dispatched_secs, fast_rows) = timed(detected, reps, &mut extract_all);
    let features = KernelResult {
        name: "feature_extract",
        scalar_secs,
        dispatched_secs,
        bit_identical: scalar_rows.len() == fast_rows.len()
            && scalar_rows
                .iter()
                .zip(&fast_rows)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
    };

    // --- Scoring-phase MLP forward ----------------------------------
    // The paper's classifier shape (23 → 64 → 32 → 1) over the real
    // feature batch extracted above.
    let mut rng = StdRng::seed_from_u64(3);
    let mlp = Mlp::new(dim, &[64, 32], &mut rng);
    let n_rows = scalar_rows.len() / dim;
    let mut predict_all = || {
        let mut out = vec![0.0; n_rows];
        let mut scratch = MlpScratch::default();
        mlp.predict_rows_with(&scalar_rows, &mut out, &mut scratch);
        out
    };
    let (scalar_secs, scalar_preds) = timed(Level::Scalar, reps, &mut predict_all);
    let (dispatched_secs, fast_preds) = timed(detected, reps, &mut predict_all);
    let predict = KernelResult {
        name: "predict_rows",
        scalar_secs,
        dispatched_secs,
        bit_identical: scalar_preds
            .iter()
            .zip(&fast_preds)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
    };

    // --- Classifier fit ----------------------------------------------
    // The fit a served job runs when it trains its own classifier: the
    // dataset's scaled clique training set through the same seeded
    // `[64, 32]` MLP, backed by `dense_forward`,
    // `dense_outer_accumulate` and `dense_backward`. Parity is the
    // trained model's persisted bytes.
    let train_cfg = TrainingConfig::default();
    let mut rng = StdRng::seed_from_u64(5);
    let set = build_training_set(&generated.hypergraph, &train_cfg, &mut rng);
    let scaled = StandardScaler::fit(&set.features).transform_batch(&set.features);
    let mut fit = || {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mlp = Mlp::new(train_cfg.feature_mode.dim(), &[64, 32], &mut rng);
        mlp.train(&scaled, &set.labels, &train_cfg.optimizer, &mut rng);
        let mut bytes = Vec::new();
        mlp.write_to(&mut bytes).expect("write to a Vec");
        bytes
    };
    let (scalar_secs, scalar_model) = timed(Level::Scalar, reps, &mut fit);
    let (dispatched_secs, fast_model) = timed(detected, reps, &mut fit);
    let mlp_fit = KernelResult {
        name: "mlp_fit",
        scalar_secs,
        dispatched_secs,
        bit_identical: scalar_model == fast_model,
    };

    // --- End-to-end round loop --------------------------------------
    let training = TrainingConfig {
        optimizer: TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
        ..TrainingConfig::default()
    };
    override_level(detected);
    let mut rng = StdRng::seed_from_u64(1);
    let model = train_classifier(&generated.hypergraph, &training, &mut rng);
    let mut run = || {
        let mut rng = StdRng::seed_from_u64(7);
        reconstruct_with_report(&g, &model, &MariohConfig::default(), &mut rng)
    };
    let (scalar_secs, (scalar_rec, _)) = timed(Level::Scalar, reps, &mut run);
    let (dispatched_secs, (fast_rec, _)) = timed(detected, reps, &mut run);
    let round_loop = KernelResult {
        name: "end_to_end_rounds",
        scalar_secs,
        dispatched_secs,
        bit_identical: scalar_rec == fast_rec,
    };
    let e2e_secs = dispatched_secs;

    (vec![mhh, features, predict, mlp_fit, round_loop], e2e_secs)
}

fn write_json(
    dataset_name: &str,
    level: Level,
    results: &[KernelResult],
    smoke: bool,
) -> std::io::Result<std::path::PathBuf> {
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"bench_kernels\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str("  \"command\": \"cargo bench -p marioh-bench --bench bench_kernels\",\n");
    body.push_str(&format!("  \"dataset\": \"{dataset_name}\",\n"));
    body.push_str(&format!("  \"dispatch_level\": \"{}\",\n", level.name()));
    body.push_str(
        "  \"note\": \"scalar reference vs runtime-dispatched kernels, same process via \
         override_level; bit_identical compares the two runs' outputs bit for bit; \
         end_to_end_rounds runs the full reconstruction loop both ways\",\n",
    );
    body.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_secs\": {:.6}, \"dispatched_secs\": {:.6}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
            r.name,
            r.scalar_secs,
            r.dispatched_secs,
            r.speedup(),
            r.bit_identical,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke {
        root.join("target/BENCH_kernels.smoke.json")
    } else {
        root.join("BENCH_kernels.json")
    };
    std::fs::write(&path, body)?;
    Ok(path.canonicalize().unwrap_or(path))
}

fn main() {
    let smoke = std::env::var("MARIOH_BENCH_SMOKE").as_deref() == Ok("1");
    // Detect before any override so the dispatched runs use the real
    // CPU level (the override is process-global).
    let detected = marioh_kernels::level();
    assert_ne!(
        detected,
        Level::Scalar,
        "detection never yields the scalar reference"
    );
    let (dataset, reps) = if smoke {
        (PaperDataset::Crime, 1)
    } else {
        // The dense contact regime: high-degree CSR rows, where the
        // intersection kernels do their heaviest lifting.
        (PaperDataset::PSchool, 5)
    };

    let t0 = Instant::now();
    let (results, e2e_secs) = bench_kernels(dataset, reps, detected);
    for r in &results {
        println!(
            "bench_kernels/{}: scalar {:.4}s vs {} {:.4}s ({:.2}x, bit_identical: {})",
            r.name,
            r.scalar_secs,
            detected.name(),
            r.dispatched_secs,
            r.speedup(),
            r.bit_identical
        );
        assert!(
            r.bit_identical,
            "{}: dispatched output diverged from the scalar reference",
            r.name
        );
    }
    println!(
        "bench_kernels: end-to-end {:.3}s/run at {} [total {:.1}s]",
        e2e_secs,
        detected.name(),
        t0.elapsed().as_secs_f64()
    );
    match write_json(dataset.name(), detected, &results, smoke) {
        Ok(path) => println!("bench_kernels: wrote {}", path.display()),
        Err(e) => eprintln!("bench_kernels: failed to write BENCH_kernels.json: {e}"),
    }
}
