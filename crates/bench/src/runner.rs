//! Shared experiment machinery: the method zoo, timed/budgeted runs,
//! per-(dataset, seed) RNG derivation, and mean ± std aggregation.

use marioh_baselines::shyre::{ShyreFlavor, ShyreSupervised, ShyreUnsup};
use marioh_baselines::{BayesianMdl, CFinder, CliqueCovering, Demon, MaxClique, Reconstructor};
use marioh_core::{CancelToken, Pipeline, Variant};
use marioh_hypergraph::{Hypergraph, ProjectedGraph};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Harness-wide settings shared by all experiments.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale override (`None` = per-dataset default scale).
    pub scale: Option<f64>,
    /// Number of random seeds per cell.
    pub seeds: u64,
    /// Per-run wall-clock budget; overruns report as OOT, mirroring the
    /// paper's 24 h limit at laptop scale.
    pub budget: Duration,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: None,
            seeds: 3,
            budget: Duration::from_secs(180),
        }
    }
}

/// Derives a deterministic RNG for a `(dataset, method, seed)` cell.
pub fn cell_rng(dataset: &str, method: &str, seed: u64) -> StdRng {
    // Cheap stable string hash (FNV-1a) so cells are independent.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in dataset.bytes().chain(method.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The identifiers of the nine methods of Table II, in table order.
pub const TABLE2_METHODS: [&str; 12] = [
    "CFinder",
    "Demon",
    "MaxClique",
    "CliqueCovering",
    "Bayesian-MDL",
    "SHyRe-Unsup",
    "SHyRe-Motif",
    "SHyRe-Count",
    "MARIOH-M",
    "MARIOH-F",
    "MARIOH-B",
    "MARIOH",
];

/// The methods evaluated in the multiplicity-preserved setting
/// (Table III).
pub const TABLE3_METHODS: [&str; 6] = [
    "Bayesian-MDL",
    "SHyRe-Unsup",
    "MARIOH-M",
    "MARIOH-F",
    "MARIOH-B",
    "MARIOH",
];

/// A harness-ready method: the boxed [`Reconstructor`] plus the
/// [`CancelToken`] its pipeline polls, so [`run_budgeted`] can stop an
/// abandoned worker on timeout instead of leaking a CPU-bound thread.
/// Baselines never poll the token (they are fast and infallible), but
/// MARIOH rounds stop at the next boundary after it fires.
pub struct BuiltMethod {
    method: Box<dyn Reconstructor + Send>,
    cancel: CancelToken,
}

impl BuiltMethod {
    /// Pairs a method with the token its internals poll.
    pub fn new(method: Box<dyn Reconstructor + Send>, cancel: CancelToken) -> Self {
        BuiltMethod { method, cancel }
    }

    /// Wraps a method with no cancellation support (the token is fresh
    /// and nothing polls it; timeouts fall back to thread abandonment).
    pub fn untracked(method: Box<dyn Reconstructor + Send>) -> Self {
        BuiltMethod::new(method, CancelToken::new())
    }

    /// The token [`run_budgeted`] fires on timeout.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }
}

impl Reconstructor for BuiltMethod {
    fn name(&self) -> &str {
        self.method.name()
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        self.method.reconstruct(g, rng)
    }
}

/// Builds a method by name, training supervised methods on `source`.
///
/// Returns `None` for unknown names. The RNG drives training; pass a
/// fresh [`cell_rng`] per cell.
pub fn build_method(name: &str, source: &Hypergraph, rng: &mut StdRng) -> Option<BuiltMethod> {
    let cancel = CancelToken::new();
    // Every MARIOH configuration goes through the validated pipeline.
    let marioh = |variant: Variant, cancel: &CancelToken, rng: &mut StdRng| {
        Pipeline::builder()
            .variant(variant)
            .cancel_token(cancel.clone())
            .build()
            .expect("paper defaults are valid")
            .train(source, rng)
            .expect("harness sources are non-empty")
    };
    let method: Box<dyn Reconstructor + Send> = match name {
        "CFinder" => Box::new(CFinder::select_k(source, rng)),
        "Demon" => Box::new(Demon::default()),
        "MaxClique" => Box::new(MaxClique),
        "CliqueCovering" => Box::new(CliqueCovering),
        "Bayesian-MDL" => Box::new(BayesianMdl::default()),
        "SHyRe-Unsup" => Box::new(ShyreUnsup),
        "SHyRe-Count" => Box::new(ShyreSupervised::train(ShyreFlavor::Count, source, rng)),
        "SHyRe-Motif" => Box::new(ShyreSupervised::train(ShyreFlavor::Motif, source, rng)),
        "MARIOH" => Box::new(marioh(Variant::Full, &cancel, rng)),
        "MARIOH-M" => Box::new(marioh(Variant::NoMultiplicityFeatures, &cancel, rng)),
        "MARIOH-F" => Box::new(marioh(Variant::NoFiltering, &cancel, rng)),
        "MARIOH-B" => Box::new(marioh(Variant::NoBidirectional, &cancel, rng)),
        _ => return None,
    };
    Some(BuiltMethod::new(method, cancel))
}

/// Outcome of one budgeted run.
#[derive(Debug)]
pub enum RunOutcome {
    /// Completed within budget: reconstruction and wall-clock seconds.
    Done(Hypergraph, f64),
    /// Out of time (the paper's "OOT").
    OutOfTime,
    /// The method returned an error other than the timeout cancellation.
    Failed(String),
}

/// Runs `method.reconstruct` under the wall-clock budget on a worker
/// thread. On timeout the method's [`CancelToken`] is fired — a
/// cancellation-aware method (MARIOH) stops at its next round boundary
/// instead of running to completion in the background — and `OutOfTime`
/// is reported, mirroring the paper's OOT bookkeeping.
pub fn run_budgeted(
    method: BuiltMethod,
    g: &ProjectedGraph,
    mut rng: StdRng,
    budget: Duration,
) -> RunOutcome {
    let g = g.clone();
    let cancel = method.cancel_token().clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let t0 = Instant::now();
        let result = method.reconstruct(&g, &mut rng);
        let secs = t0.elapsed().as_secs_f64();
        let _ = tx.send((result, secs));
    });
    match rx.recv_timeout(budget) {
        Ok((Ok(rec), secs)) => RunOutcome::Done(rec, secs),
        Ok((Err(e), _)) => RunOutcome::Failed(e.to_string()),
        Err(_) => {
            cancel.cancel();
            RunOutcome::OutOfTime
        }
    }
}

/// Mean and population standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Formats a `mean ± std` cell scaled by 100 (the tables' convention),
/// or "OOT" when no run finished.
pub fn format_cell(values: &[f64]) -> String {
    if values.is_empty() {
        return "OOT".to_owned();
    }
    let (m, s) = mean_std(values);
    format!("{:.2}±{:.2}", 100.0 * m, 100.0 * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::projection::project;

    fn tiny_source() -> Hypergraph {
        let mut h = Hypergraph::new(0);
        for b in 0..10u32 {
            h.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
        }
        h
    }

    #[test]
    fn cell_rng_is_deterministic_and_cellwise_distinct() {
        use rand::Rng;
        let a: u64 = cell_rng("Enron", "MARIOH", 0).gen();
        let b: u64 = cell_rng("Enron", "MARIOH", 0).gen();
        let c: u64 = cell_rng("Enron", "MARIOH", 1).gen();
        let d: u64 = cell_rng("Crime", "MARIOH", 0).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn all_method_names_build() {
        let src = tiny_source();
        for name in TABLE2_METHODS {
            let mut rng = cell_rng("t", name, 0);
            assert!(build_method(name, &src, &mut rng).is_some(), "{name}");
        }
        let mut rng = cell_rng("t", "nope", 0);
        assert!(build_method("nope", &src, &mut rng).is_none());
    }

    #[test]
    fn budgeted_run_completes_fast_method() {
        let src = tiny_source();
        let g = project(&src);
        let mut rng = cell_rng("t", "MaxClique", 0);
        let m = build_method("MaxClique", &src, &mut rng).unwrap();
        match run_budgeted(m, &g, rng, Duration::from_secs(30)) {
            RunOutcome::Done(rec, secs) => {
                assert!(rec.unique_edge_count() > 0);
                assert!(secs < 30.0);
            }
            other => panic!("MaxClique should finish on a toy graph, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_run_times_out() {
        struct Sleeper;
        impl Reconstructor for Sleeper {
            fn name(&self) -> &str {
                "Sleeper"
            }
            fn reconstruct(
                &self,
                g: &ProjectedGraph,
                _rng: &mut dyn rand::RngCore,
            ) -> Result<Hypergraph, marioh_core::MariohError> {
                std::thread::sleep(Duration::from_secs(5));
                Ok(Hypergraph::new(g.num_nodes()))
            }
        }
        let g = ProjectedGraph::new(2);
        let rng = cell_rng("t", "Sleeper", 0);
        match run_budgeted(
            BuiltMethod::untracked(Box::new(Sleeper)),
            &g,
            rng,
            Duration::from_millis(50),
        ) {
            RunOutcome::OutOfTime => {}
            other => panic!("sleeper should time out, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_run_reports_method_errors() {
        struct Cancelled;
        impl Reconstructor for Cancelled {
            fn name(&self) -> &str {
                "Cancelled"
            }
            fn reconstruct(
                &self,
                _g: &ProjectedGraph,
                _rng: &mut dyn rand::RngCore,
            ) -> Result<Hypergraph, marioh_core::MariohError> {
                Err(marioh_core::MariohError::Cancelled)
            }
        }
        let g = ProjectedGraph::new(2);
        let rng = cell_rng("t", "Cancelled", 0);
        match run_budgeted(
            BuiltMethod::untracked(Box::new(Cancelled)),
            &g,
            rng,
            Duration::from_secs(5),
        ) {
            RunOutcome::Failed(msg) => assert!(msg.contains("cancelled"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn timeout_fires_the_method_cancel_token() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        /// Spins until its token fires, then records that it exited.
        struct Spinner {
            cancel: CancelToken,
            exited: Arc<AtomicBool>,
        }
        impl Reconstructor for Spinner {
            fn name(&self) -> &str {
                "Spinner"
            }
            fn reconstruct(
                &self,
                _g: &ProjectedGraph,
                _rng: &mut dyn rand::RngCore,
            ) -> Result<Hypergraph, marioh_core::MariohError> {
                while !self.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                self.exited.store(true, Ordering::SeqCst);
                Err(marioh_core::MariohError::Cancelled)
            }
        }

        let cancel = CancelToken::new();
        let exited = Arc::new(AtomicBool::new(false));
        let spinner = Spinner {
            cancel: cancel.clone(),
            exited: Arc::clone(&exited),
        };
        let g = ProjectedGraph::new(2);
        let rng = cell_rng("t", "Spinner", 0);
        let m = BuiltMethod::new(Box::new(spinner), cancel);
        match run_budgeted(m, &g, rng, Duration::from_millis(30)) {
            RunOutcome::OutOfTime => {}
            other => panic!("spinner should time out, got {other:?}"),
        }
        // The abandoned worker observes the fired token and exits instead
        // of spinning forever.
        let deadline = Instant::now() + Duration::from_secs(2);
        while !exited.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            exited.load(Ordering::SeqCst),
            "worker kept running after timeout"
        );
    }

    #[test]
    fn aggregation_formats() {
        assert_eq!(format_cell(&[]), "OOT");
        let cell = format_cell(&[0.5, 0.7]);
        assert!(cell.starts_with("60.00±"), "{cell}");
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
    }
}
