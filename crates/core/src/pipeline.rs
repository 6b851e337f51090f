//! The unified reconstruction API: the [`Reconstructor`] trait every
//! method implements, and the validated [`Pipeline`] builder that every
//! frontend (CLI, experiment harness, future server) goes through.
//!
//! Wang & Kleinberg frame supervised hypergraph reconstruction as one
//! train → score → search pipeline; this module makes that seam
//! explicit. A [`PipelineBuilder`] checks every hyperparameter at build
//! time (instead of silently accepting nonsense), carries an optional
//! [`ProgressObserver`] and [`CancelToken`], and hands out [`Marioh`]
//! handles that — like every baseline — implement [`Reconstructor`].
//!
//! ```
//! use marioh_core::{FeatureMode, Pipeline, Reconstructor};
//! use marioh_hypergraph::{hyperedge::edge, projection::project, Hypergraph};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut source = Hypergraph::new(0);
//! for b in 0..12u32 {
//!     source.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
//! }
//! let pipeline = Pipeline::builder()
//!     .features(FeatureMode::Multiplicity)
//!     .theta_init(0.9)
//!     .threads(1)
//!     .build()
//!     .expect("valid hyperparameters");
//! let mut rng = StdRng::seed_from_u64(7);
//! let model = pipeline.train(&source, &mut rng).expect("non-empty source");
//! let rec = model.reconstruct(&project(&source), &mut rng).expect("not cancelled");
//! assert!(rec.unique_edge_count() > 0);
//! ```

use crate::error::MariohError;
use crate::features::FeatureMode;
use crate::model::TrainedModel;
use crate::progress::{CancelToken, NoopObserver, ProgressObserver};
use crate::reconstruct::{Marioh, MariohConfig};
use crate::training::{train_classifier_cancellable, TrainingConfig};
use crate::variants::Variant;
use marioh_hypergraph::{Hypergraph, ProjectedGraph};
use rand::{Rng, RngCore};
use std::path::Path;
use std::sync::Arc;

/// A hypergraph-reconstruction method: consumes a (weighted) projected
/// graph, produces a hypergraph.
///
/// Supervised methods capture their training state at construction time;
/// `reconstruct` is inference only. The RNG parameter makes every
/// stochastic method reproducible under the harness's per-(dataset, seed)
/// seeding. Implemented by [`Marioh`], every ablation [`Variant`] handle,
/// and all baselines in `marioh-baselines`.
pub trait Reconstructor {
    /// Display name used in the tables (e.g. `"SHyRe-Count"`).
    fn name(&self) -> &str;

    /// Reconstructs a hypergraph from the projected graph `g`.
    ///
    /// # Errors
    ///
    /// [`MariohError::Cancelled`] when the method carries a fired
    /// [`CancelToken`]; baseline methods are infallible and always return
    /// `Ok`.
    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, MariohError>;
}

impl<T: Reconstructor + ?Sized> Reconstructor for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, MariohError> {
        (**self).reconstruct(g, rng)
    }
}

/// A validated train→score→search pipeline: the single entry point every
/// frontend shares. Construct through [`Pipeline::builder`].
#[derive(Clone)]
pub struct Pipeline {
    training: TrainingConfig,
    config: MariohConfig,
    name: String,
    observer: Arc<dyn ProgressObserver>,
    cancel: CancelToken,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field("training", &self.training)
            .field("config", &self.config)
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive() // the observer has no Debug
    }
}

impl Pipeline {
    /// Starts a builder with the paper's default hyperparameters.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// The validated training configuration.
    pub fn training_config(&self) -> &TrainingConfig {
        &self.training
    }

    /// The validated reconstruction configuration.
    pub fn config(&self) -> &MariohConfig {
        &self.config
    }

    /// The display name ([`Variant`] name unless overridden).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Trains the classifier on `source` and returns a ready
    /// [`Reconstructor`] carrying this pipeline's configuration,
    /// observer, and cancellation token.
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`] if `source` has no hyperedges;
    /// [`MariohError::Cancelled`] if the pipeline's [`CancelToken`] fires
    /// during training (polled between stages and at every optimiser
    /// epoch, so even train-dominated runs abort promptly).
    pub fn train<R: Rng + ?Sized>(
        &self,
        source: &Hypergraph,
        rng: &mut R,
    ) -> Result<Marioh, MariohError> {
        if source.unique_edge_count() == 0 {
            return Err(MariohError::config(
                "cannot train on an empty source hypergraph",
            ));
        }
        let t0 = std::time::Instant::now();
        let model = {
            let _span = marioh_obs::Span::enter("training");
            train_classifier_cancellable(source, &self.training, rng, &self.cancel)?
        };
        self.observer.on_training_done(t0.elapsed().as_secs_f64());
        Ok(self.with_model(model))
    }

    /// Wraps an already-trained classifier (transfer experiments, loaded
    /// models) in a handle carrying this pipeline's configuration,
    /// observer, and cancellation token.
    pub fn with_model(&self, model: TrainedModel) -> Marioh {
        Marioh::from_model(model)
            .with_config(self.config.clone())
            .with_name(self.name.clone())
            .with_observer(Arc::clone(&self.observer))
            .with_cancel(self.cancel.clone())
    }

    /// Loads a model saved by [`TrainedModel::save`] and wraps it like
    /// [`Pipeline::with_model`].
    ///
    /// # Errors
    ///
    /// [`MariohError::ModelFormat`] for corrupt or mismatched model
    /// files, [`MariohError::Io`] for transport failures.
    pub fn load_model<P: AsRef<Path>>(&self, path: P) -> Result<Marioh, MariohError> {
        Ok(self.with_model(TrainedModel::load(path)?))
    }
}

/// Builder for [`Pipeline`]: fluent setters, validation in
/// [`PipelineBuilder::build`].
///
/// Every documented invalid hyperparameter is rejected with
/// [`MariohError::Config`]:
///
/// | parameter | valid domain |
/// |---|---|
/// | `theta_init` | `(0, 1]` |
/// | `neg_ratio` | `(0, 100]` |
/// | `alpha` | `(0, 1]` |
/// | `threads` | `≥ 1` |
/// | `max_iterations` | `≥ 1` |
/// | `supervision_fraction` | `(0, 1]` |
/// | `negative_ratio` | `> 0`, finite |
/// | `hidden_layers` | all widths `≥ 1` |
#[derive(Clone)]
pub struct PipelineBuilder {
    variant: Variant,
    features: Option<FeatureMode>,
    name: Option<String>,
    training: TrainingConfig,
    config: MariohConfig,
    observer: Arc<dyn ProgressObserver>,
    cancel: CancelToken,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        PipelineBuilder {
            variant: Variant::Full,
            features: None,
            name: None,
            training: TrainingConfig::default(),
            config: MariohConfig::default(),
            observer: Arc::new(NoopObserver),
            cancel: CancelToken::new(),
        }
    }
}

impl PipelineBuilder {
    /// Selects an ablation variant (feature mode, filtering, and search
    /// flags follow the paper's Tables II–III; the name becomes the
    /// variant's).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Overrides the feature representation (after the variant's choice).
    pub fn features(mut self, mode: FeatureMode) -> Self {
        self.features = Some(mode);
        self
    }

    /// Overrides the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Initial classification threshold `θ_init` (valid: `(0, 1]`).
    pub fn theta_init(mut self, theta_init: f64) -> Self {
        self.config.theta_init = theta_init;
        self
    }

    /// Negative-prediction processing ratio `r` in percent
    /// (valid: `(0, 100]`).
    pub fn neg_ratio(mut self, neg_ratio: f64) -> Self {
        self.config.neg_ratio = neg_ratio;
        self
    }

    /// Threshold adjust ratio `α` (valid: `(0, 1]`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Toggles the provable filtering step (Algorithm 2).
    pub fn filtering(mut self, on: bool) -> Self {
        self.config.use_filtering = on;
        self
    }

    /// Toggles Phase 2 of the bidirectional search.
    pub fn bidirectional(mut self, on: bool) -> Self {
        self.config.use_bidirectional = on;
        self
    }

    /// Safety cap on outer-loop rounds (valid: `≥ 1`).
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Worker threads for enumeration and scoring (valid: `≥ 1`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Pins worker threads to CPU cores (always valid; off by default).
    /// A scheduling hint only — results are bit-identical either way.
    pub fn pin_cores(mut self, on: bool) -> Self {
        self.config.pin_cores = on;
        self
    }

    /// Fraction of source hyperedges used as supervision
    /// (valid: `(0, 1]`; Table VI's semi-supervised setting).
    pub fn supervision_fraction(mut self, fraction: f64) -> Self {
        self.training.supervision_fraction = fraction;
        self
    }

    /// Negatives sampled per positive during training (valid: `> 0`).
    pub fn negative_ratio(mut self, ratio: f64) -> Self {
        self.training.negative_ratio = ratio;
        self
    }

    /// Hidden layer widths of the classifier MLP (valid: widths `≥ 1`).
    pub fn hidden_layers(mut self, hidden: Vec<usize>) -> Self {
        self.training.hidden = hidden;
        self
    }

    /// Attaches a progress observer (see [`ProgressObserver`]).
    pub fn observer(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches a cancellation token shared with the caller.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Validates every hyperparameter and assembles the [`Pipeline`].
    ///
    /// # Errors
    ///
    /// [`MariohError::Config`] naming the offending parameter, its valid
    /// domain, and the rejected value.
    pub fn build(self) -> Result<Pipeline, MariohError> {
        let mut training = self.variant.training_config(&self.training);
        let config = self.variant.marioh_config(&self.config);
        if let Some(mode) = self.features {
            training.feature_mode = mode;
        }

        fn check_domain(name: &str, value: f64, ok: bool, domain: &str) -> Result<(), MariohError> {
            if value.is_finite() && ok {
                Ok(())
            } else {
                Err(MariohError::Config(format!(
                    "{name} must be in {domain} (got {value})"
                )))
            }
        }

        check_domain(
            "theta_init",
            config.theta_init,
            config.theta_init > 0.0 && config.theta_init <= 1.0,
            "(0, 1]",
        )?;
        check_domain(
            "neg_ratio",
            config.neg_ratio,
            config.neg_ratio > 0.0 && config.neg_ratio <= 100.0,
            "(0, 100]",
        )?;
        check_domain(
            "alpha",
            config.alpha,
            config.alpha > 0.0 && config.alpha <= 1.0,
            "(0, 1]",
        )?;
        if config.threads == 0 {
            return Err(MariohError::config("threads must be >= 1 (got 0)"));
        }
        if config.max_iterations == 0 {
            return Err(MariohError::config("max_iterations must be >= 1 (got 0)"));
        }
        check_domain(
            "supervision_fraction",
            training.supervision_fraction,
            training.supervision_fraction > 0.0 && training.supervision_fraction <= 1.0,
            "(0, 1]",
        )?;
        check_domain(
            "negative_ratio",
            training.negative_ratio,
            training.negative_ratio > 0.0,
            "(0, ∞)",
        )?;
        if training.hidden.contains(&0) {
            return Err(MariohError::config(
                "hidden_layers widths must all be >= 1 (got a 0-width layer)",
            ));
        }

        Ok(Pipeline {
            training,
            config,
            name: self.name.unwrap_or_else(|| self.variant.name().to_owned()),
            observer: self.observer,
            cancel: self.cancel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::metrics::jaccard;
    use marioh_hypergraph::projection::project;
    use rand::{rngs::StdRng, SeedableRng};

    fn assert_config_err(result: Result<Pipeline, MariohError>, needle: &str) {
        match result {
            Err(MariohError::Config(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            other => panic!("expected Config error for {needle}, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_each_invalid_hyperparameter() {
        assert_config_err(Pipeline::builder().theta_init(0.0).build(), "theta_init");
        assert_config_err(Pipeline::builder().theta_init(1.5).build(), "theta_init");
        assert_config_err(
            Pipeline::builder().theta_init(f64::NAN).build(),
            "theta_init",
        );
        assert_config_err(Pipeline::builder().neg_ratio(0.0).build(), "neg_ratio");
        assert_config_err(Pipeline::builder().neg_ratio(100.5).build(), "neg_ratio");
        assert_config_err(Pipeline::builder().alpha(-0.1).build(), "alpha");
        assert_config_err(Pipeline::builder().alpha(2.0).build(), "alpha");
        assert_config_err(Pipeline::builder().threads(0).build(), "threads");
        assert_config_err(
            Pipeline::builder().max_iterations(0).build(),
            "max_iterations",
        );
        assert_config_err(
            Pipeline::builder().supervision_fraction(0.0).build(),
            "supervision_fraction",
        );
        assert_config_err(
            Pipeline::builder().negative_ratio(-1.0).build(),
            "negative_ratio",
        );
        assert_config_err(
            Pipeline::builder().hidden_layers(vec![64, 0]).build(),
            "hidden_layers",
        );
    }

    #[test]
    fn builder_accepts_the_paper_defaults_and_boundaries() {
        assert!(Pipeline::builder().build().is_ok());
        assert!(Pipeline::builder()
            .theta_init(1.0)
            .neg_ratio(100.0)
            .alpha(1.0)
            .threads(8)
            .supervision_fraction(1.0)
            .build()
            .is_ok());
    }

    #[test]
    fn variant_sets_flags_and_name_with_feature_override_last() {
        let p = Pipeline::builder()
            .variant(Variant::NoFiltering)
            .build()
            .unwrap();
        assert!(!p.config().use_filtering);
        assert_eq!(p.name(), "MARIOH-F");

        let p = Pipeline::builder()
            .variant(Variant::NoMultiplicityFeatures)
            .features(FeatureMode::Motif)
            .name("custom")
            .build()
            .unwrap();
        assert_eq!(p.training_config().feature_mode, FeatureMode::Motif);
        assert_eq!(p.name(), "custom");
    }

    #[test]
    fn train_rejects_empty_source_without_panicking() {
        let p = Pipeline::builder().build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = p.train(&Hypergraph::new(4), &mut rng).unwrap_err();
        assert!(matches!(err, MariohError::Config(_)));
    }

    #[test]
    fn train_observes_the_pipeline_cancel_token() {
        use crate::progress::CancelToken;
        let cancel = CancelToken::new();
        let p = Pipeline::builder()
            .cancel_token(cancel.clone())
            .build()
            .unwrap();
        let mut source = Hypergraph::new(0);
        for b in 0..12u32 {
            source.add_edge(edge(&[b * 3, b * 3 + 1, b * 3 + 2]));
        }
        cancel.cancel();
        let mut rng = StdRng::seed_from_u64(0);
        let err = p.train(&source, &mut rng).unwrap_err();
        assert!(matches!(err, MariohError::Cancelled), "{err}");
    }

    #[test]
    fn trained_pipeline_reconstructs_through_the_trait() {
        let mut source = Hypergraph::new(0);
        let mut target = Hypergraph::new(0);
        for b in 0..30u32 {
            let base = b * 3;
            let hg = if b % 2 == 0 { &mut source } else { &mut target };
            hg.add_edge(edge(&[base, base + 1, base + 2]));
            hg.add_edge(edge(&[base, base + 1]));
        }
        let mut rng = StdRng::seed_from_u64(5);
        let model = Pipeline::builder()
            .build()
            .unwrap()
            .train(&source, &mut rng)
            .unwrap();
        let rec = model
            .reconstruct(&project(&target), &mut rng)
            .expect("not cancelled");
        assert_eq!(model.name(), "MARIOH");
        assert!(jaccard(&target, &rec) > 0.5);
    }

    #[test]
    fn load_model_maps_corruption_to_model_format() {
        let dir = std::env::temp_dir().join("marioh-pipeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.txt");
        std::fs::write(&path, "garbage").unwrap();
        let p = Pipeline::builder().build().unwrap();
        assert!(matches!(
            p.load_model(&path),
            Err(MariohError::ModelFormat(_))
        ));
        assert!(matches!(
            p.load_model(dir.join("missing.txt")),
            Err(MariohError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
