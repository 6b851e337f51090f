//! Training the multiplicity-aware classifier (Sect. III-D and the
//! negative-sampling strategy of the online appendix).
//!
//! Positives are the unique hyperedges of the source hypergraph (every
//! hyperedge is a clique of the source projection). Negatives are cliques
//! of the source projection that are *not* hyperedges: maximal cliques
//! first, then random sub-cliques of maximal cliques until the requested
//! negative:positive ratio is met.

use crate::error::MariohError;
use crate::features::{extract_into, FeatureMode, FeatureScratch};
use crate::model::TrainedModel;
use crate::progress::CancelToken;
use crate::round::RoundContext;
use marioh_hypergraph::clique::{maximal_cliques, sample_k_subset};
use marioh_hypergraph::fxhash::FxHashSet;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId};
use marioh_ml::{Mlp, StandardScaler, TrainConfig};
use rand::Rng;

/// Configuration for [`train_classifier`].
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Feature representation (swap to `Count` for the MARIOH-M ablation).
    pub feature_mode: FeatureMode,
    /// Negatives sampled per positive example.
    pub negative_ratio: f64,
    /// Hidden layer widths of the MLP.
    pub hidden: Vec<usize>,
    /// Optimiser settings.
    pub optimizer: TrainConfig,
    /// Fraction of source hyperedges used as supervision (Table VI's
    /// semi-supervised setting); 1.0 = full supervision.
    pub supervision_fraction: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            feature_mode: FeatureMode::Multiplicity,
            negative_ratio: 1.0,
            hidden: vec![64, 32],
            optimizer: TrainConfig::default(),
            supervision_fraction: 1.0,
        }
    }
}

/// Keeps a uniformly-random `fraction` of the unique hyperedges of `h`
/// (multiplicities preserved). Deterministic given the RNG.
pub fn subsample_supervision<R: Rng + ?Sized>(
    h: &Hypergraph,
    fraction: f64,
    rng: &mut R,
) -> Hypergraph {
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
    if fraction >= 1.0 {
        return h.clone();
    }
    let edges = h.sorted_edges();
    let keep = ((edges.len() as f64) * fraction).round().max(1.0) as usize;
    let mut idx: Vec<usize> = (0..edges.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let mut out = Hypergraph::new(h.num_nodes());
    for &i in idx.iter().take(keep) {
        out.add_edge_with_multiplicity(edges[i].clone(), h.multiplicity(edges[i]));
    }
    out
}

/// The assembled training set (exposed for the feature-importance
/// experiment and for tests).
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// Raw (unscaled) feature rows.
    pub features: Vec<Vec<f64>>,
    /// 0/1 labels aligned with `features`.
    pub labels: Vec<f64>,
}

/// Builds the positive/negative clique training set from a source
/// hypergraph (Sect. III-D).
pub fn build_training_set<R: Rng + ?Sized>(
    source: &Hypergraph,
    cfg: &TrainingConfig,
    rng: &mut R,
) -> TrainingSet {
    let g = project(source);
    // One frozen round context serves every extraction below: the CSR
    // view and (lazily) the MHH cache are built once instead of
    // re-deriving per-pair state clique by clique.
    let round = RoundContext::new(&g);
    let mut scratch = FeatureScratch::default();
    let dim = cfg.feature_mode.dim();
    let mut features = Vec::new();
    let mut labels = Vec::new();

    // Positives: every unique hyperedge, in deterministic order.
    let positive_edges = source.sorted_edges();
    for e in &positive_edges {
        let mut row = vec![0.0; dim];
        extract_into(cfg.feature_mode, &round, e.nodes(), &mut scratch, &mut row);
        features.push(row);
        labels.push(1.0);
    }
    let n_pos = positive_edges.len();
    let target_neg = ((n_pos as f64) * cfg.negative_ratio).ceil() as usize;

    // Negatives, stage 1: maximal cliques that are not hyperedges.
    let mut seen: FxHashSet<Hyperedge> = FxHashSet::default();
    let cliques = maximal_cliques(&g);
    let mut negatives: Vec<Vec<NodeId>> = Vec::new();
    for c in &cliques {
        if negatives.len() >= target_neg {
            break;
        }
        let e = Hyperedge::new(c.iter().copied()).expect("clique size >= 2");
        if !source.contains(&e) && seen.insert(e) {
            negatives.push(c.clone());
        }
    }

    // Negatives, stage 2: random sub-cliques of maximal cliques.
    let mut attempts = 0usize;
    let max_attempts = 50 * target_neg.max(1);
    while negatives.len() < target_neg && attempts < max_attempts && !cliques.is_empty() {
        attempts += 1;
        let c = &cliques[rng.gen_range(0..cliques.len())];
        if c.len() < 3 {
            continue;
        }
        let k = rng.gen_range(2..c.len());
        let sub = sample_k_subset(rng, c, k);
        let e = Hyperedge::new(sub.iter().copied()).expect("subclique size >= 2");
        if !source.contains(&e) && seen.insert(e) {
            negatives.push(sub);
        }
    }

    for c in &negatives {
        let mut row = vec![0.0; dim];
        extract_into(cfg.feature_mode, &round, c, &mut scratch, &mut row);
        features.push(row);
        labels.push(0.0);
    }
    TrainingSet { features, labels }
}

/// Trains the classifier `M` on a source hypergraph.
///
/// Applies the supervision fraction first (Table VI), builds the clique
/// training set, standardises features and fits the MLP.
///
/// # Panics
///
/// Panics if the source hypergraph is empty.
pub fn train_classifier<R: Rng + ?Sized>(
    source: &Hypergraph,
    cfg: &TrainingConfig,
    rng: &mut R,
) -> TrainedModel {
    train_classifier_cancellable(source, cfg, rng, &CancelToken::new())
        .expect("a fresh token never fires")
}

/// Like [`train_classifier`], but observes `cancel` between stages and
/// at every optimiser epoch, so a long training run aborts promptly
/// instead of holding its thread to completion — the entry point the job
/// server (through [`crate::Pipeline::train`]) relies on. Runs whose
/// token never fires are bit-identical to [`train_classifier`]: the
/// cancellation polls draw no randomness.
///
/// # Errors
///
/// [`MariohError::Cancelled`] once `cancel` fires; no model is returned.
pub fn train_classifier_cancellable<R: Rng + ?Sized>(
    source: &Hypergraph,
    cfg: &TrainingConfig,
    rng: &mut R,
    cancel: &CancelToken,
) -> Result<TrainedModel, MariohError> {
    assert!(
        source.unique_edge_count() > 0,
        "cannot train on an empty source hypergraph"
    );
    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    let reduced;
    let effective: &Hypergraph = if cfg.supervision_fraction < 1.0 {
        reduced = subsample_supervision(source, cfg.supervision_fraction, rng);
        &reduced
    } else {
        source
    };
    // Negative sampling enumerates maximal cliques — the other slow
    // stage besides the optimiser — so poll around it too.
    let set = build_training_set(effective, cfg, rng);
    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    let scaler = StandardScaler::fit(&set.features);
    let scaled = scaler.transform_batch(&set.features);
    let mut mlp = Mlp::new(cfg.feature_mode.dim(), &cfg.hidden, rng);
    mlp.train_with_stop(&scaled, &set.labels, &cfg.optimizer, rng, &mut || {
        cancel.is_cancelled()
    });
    if cancel.is_cancelled() {
        return Err(MariohError::Cancelled);
    }
    Ok(TrainedModel::new(mlp, scaler, cfg.feature_mode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use rand::{rngs::StdRng, SeedableRng};

    /// A block-structured hypergraph: size-3 hyperedges are real, the
    /// triangles induced by pairwise overlaps are not.
    fn source_hypergraph() -> Hypergraph {
        let mut h = Hypergraph::new(0);
        // 12 triangles as hyperedges, chained to create overlap.
        for b in 0..12u32 {
            h.add_edge(edge(&[b * 2, b * 2 + 1, b * 2 + 2]));
            h.add_edge(edge(&[b * 2, b * 2 + 2]));
        }
        h
    }

    #[test]
    fn training_set_is_balanced_and_labelled() {
        let h = source_hypergraph();
        let cfg = TrainingConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let set = build_training_set(&h, &cfg, &mut rng);
        let pos = set.labels.iter().filter(|&&l| l == 1.0).count();
        let neg = set.labels.len() - pos;
        assert_eq!(pos, h.unique_edge_count());
        assert!(neg > 0, "no negatives sampled");
        assert!(neg <= pos + 1);
        assert!(set
            .features
            .iter()
            .all(|f| f.len() == cfg.feature_mode.dim()));
    }

    #[test]
    fn subsample_keeps_fraction() {
        let h = source_hypergraph();
        let mut rng = StdRng::seed_from_u64(1);
        let half = subsample_supervision(&h, 0.5, &mut rng);
        assert_eq!(half.unique_edge_count(), h.unique_edge_count() / 2);
        let full = subsample_supervision(&h, 1.0, &mut rng);
        assert_eq!(full.unique_edge_count(), h.unique_edge_count());
        // Every kept edge exists in the original.
        for (e, _) in half.iter() {
            assert!(h.contains(e));
        }
    }

    #[test]
    fn trained_model_separates_hyperedges_from_noise() {
        let h = source_hypergraph();
        let mut rng = StdRng::seed_from_u64(2);
        let model = train_classifier(&h, &TrainingConfig::default(), &mut rng);
        let g = project(&h);
        // Average score of true hyperedges should exceed that of
        // non-hyperedge cliques.
        let mut pos_scores = Vec::new();
        for e in h.sorted_edges() {
            pos_scores.push(model.score(&g, e.nodes()));
        }
        let pos_mean: f64 = pos_scores.iter().sum::<f64>() / pos_scores.len() as f64;
        // Pairs inside triangles are not hyperedges (except the chords we
        // added): {b*2, b*2+1} never is.
        let mut neg_scores = Vec::new();
        for b in 0..12u32 {
            let c = [NodeId(b * 2), NodeId(b * 2 + 1)];
            neg_scores.push(model.score(&g, &c));
        }
        let neg_mean: f64 = neg_scores.iter().sum::<f64>() / neg_scores.len() as f64;
        assert!(
            pos_mean > neg_mean,
            "classifier failed to separate: pos {pos_mean} vs neg {neg_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "empty source hypergraph")]
    fn rejects_empty_source() {
        let h = Hypergraph::new(5);
        let mut rng = StdRng::seed_from_u64(3);
        train_classifier(&h, &TrainingConfig::default(), &mut rng);
    }

    #[test]
    fn deterministic_given_seed() {
        let h = source_hypergraph();
        let g = project(&h);
        let score = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = train_classifier(&h, &TrainingConfig::default(), &mut rng);
            model.score(&g, &[NodeId(0), NodeId(1), NodeId(2)])
        };
        assert_eq!(score(9), score(9));
    }
}
