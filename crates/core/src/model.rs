//! The trained multiplicity-aware classifier and its scoring interface.

use crate::features::{extract, extract_into, FeatureMode, FeatureScratch};
use crate::round::RoundContext;
use marioh_hypergraph::{GraphView, NodeId, ProjectedGraph};
use marioh_ml::{Mlp, StandardScaler};

/// Anything that can score a clique's likelihood of being a hyperedge.
///
/// The reconstruction loop is generic over this trait so tests can inject
/// oracles and the ablation variants can swap feature modes. Scoring is
/// pure (no interior mutability), so the trait requires [`Sync`]: the
/// search loop fans scoring out across threads when
/// [`crate::MariohConfig::threads`] is above 1.
pub trait CliqueScorer: Sync {
    /// Scores a batch of cliques against one frozen context, writing
    /// `out[i]` = the predicted probability (in `[0, 1]`) that
    /// `cliques[i]` is a hyperedge of the original hypergraph, judged
    /// against the context's view. Implementations must be pure — the
    /// search loop splits batches across threads and relies on scores
    /// being independent of batching and thread count.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `cliques.len() != out.len()`.
    fn score_batch(&self, round: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]);
}

/// A trained classifier `M`: an MLP over scaled clique features.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    pub(crate) mlp: Mlp,
    pub(crate) scaler: StandardScaler,
    pub(crate) mode: FeatureMode,
}

impl TrainedModel {
    /// Assembles a model from its parts (used by [`crate::training`]).
    pub fn new(mlp: Mlp, scaler: StandardScaler, mode: FeatureMode) -> Self {
        assert_eq!(mlp.input_dim(), mode.dim(), "MLP/feature dim mismatch");
        assert_eq!(scaler.dim(), mode.dim(), "scaler/feature dim mismatch");
        TrainedModel { mlp, scaler, mode }
    }

    /// The feature representation this model was trained on.
    pub fn feature_mode(&self) -> FeatureMode {
        self.mode
    }

    /// Scores one clique against a hash-map graph: per-clique feature
    /// extraction and one MLP forward pass. Bit-identical to
    /// [`CliqueScorer::score_batch`] on a view frozen from `g`; the
    /// SHyRe baseline scores candidates this way, and the parity suites
    /// use it as the reference.
    pub fn score(&self, g: &ProjectedGraph, clique: &[NodeId]) -> f64 {
        let mut feats = extract(self.mode, g, clique);
        self.scaler.transform_in_place(&mut feats);
        self.mlp.predict(&feats)
    }
}

impl CliqueScorer for TrainedModel {
    fn score_batch(&self, round: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]) {
        assert_eq!(cliques.len(), out.len(), "cliques/out length mismatch");
        let dim = self.mode.dim();
        // All buffers are allocated once per batch call and reused
        // across tiles; the tiles keep the transient feature matrix
        // small no matter how many cliques the serial path hands over.
        let mut scratch = FeatureScratch::default();
        let mut mlp_scratch = marioh_ml::MlpScratch::default();
        const TILE: usize = 256;
        let mut rows = vec![0.0; dim * cliques.len().min(TILE)];
        for (tile, outs) in cliques.chunks(TILE).zip(out.chunks_mut(TILE)) {
            let rows = &mut rows[..dim * tile.len()];
            for (c, row) in tile.iter().zip(rows.chunks_exact_mut(dim)) {
                extract_into(self.mode, round, c, &mut scratch, row);
                self.scaler.transform_in_place(row);
            }
            self.mlp.predict_rows_with(rows, outs, &mut mlp_scratch);
        }
    }
}

/// A scorer backed by a per-clique closure over the frozen view —
/// test/diagnostic helper.
pub struct FnScorer<F: Fn(&GraphView, &[NodeId]) -> f64 + Sync>(pub F);

impl<F: Fn(&GraphView, &[NodeId]) -> f64 + Sync> CliqueScorer for FnScorer<F> {
    fn score_batch(&self, round: &RoundContext<'_>, cliques: &[Vec<NodeId>], out: &mut [f64]) {
        for (c, o) in cliques.iter().zip(out.iter_mut()) {
            *o = (self.0)(round.view(), c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn fn_scorer_delegates() {
        let s = FnScorer(|_: &GraphView, c: &[NodeId]| c.len() as f64 / 10.0);
        let round = RoundContext::new(&ProjectedGraph::new(3));
        let mut out = [0.0];
        s.score_batch(&round, &[vec![NodeId(0), NodeId(1)]], &mut out);
        assert_eq!(out, [0.2]);
    }

    #[test]
    fn trained_model_batch_matches_per_clique_bitwise() {
        use crate::training::{train_classifier, TrainingConfig};
        use marioh_hypergraph::{clique::maximal_cliques, hyperedge::edge, projection::project};

        let mut h = marioh_hypergraph::Hypergraph::new(0);
        for b in 0..12u32 {
            let base = b * 3;
            h.add_edge(edge(&[base, base + 1, base + 2]));
            h.add_edge(edge(&[base, base + 1]));
            if b % 3 == 0 {
                h.add_edge(edge(&[base, base + 3]));
            }
        }
        for mode in [
            FeatureMode::Multiplicity,
            FeatureMode::Count,
            FeatureMode::Motif,
        ] {
            let mut rng = StdRng::seed_from_u64(41);
            let cfg = TrainingConfig {
                feature_mode: mode,
                ..TrainingConfig::default()
            };
            let model = train_classifier(&h, &cfg, &mut rng);
            let g = project(&h);
            let cliques = maximal_cliques(&g);
            let reference: Vec<f64> = cliques.iter().map(|c| model.score(&g, c)).collect();
            let round = RoundContext::new(&g);
            let mut out = vec![0.0; cliques.len()];
            model.score_batch(&round, &cliques, &mut out);
            assert_eq!(out, reference, "mode {mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "MLP/feature dim mismatch")]
    fn new_validates_dimensions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(4, &[], &mut rng);
        let scaler = StandardScaler::fit(&[vec![0.0; 23]]);
        TrainedModel::new(mlp, scaler, FeatureMode::Multiplicity);
    }
}
