//! SHyRe-Count and SHyRe-Motif (Wang & Kleinberg, ICLR 2024).
//!
//! Pipeline: (1) estimate ρ(n, k) on the source; (2) train a classifier
//! on source cliques with structural (Count) or structural+motif (Motif)
//! features; (3) at inference, sample candidate sub-cliques from each
//! maximal clique of the target according to ρ, classify them, and keep
//! the positives. The reliance on *sampling* is the method's documented
//! weakness: unsampled hyperedges are unrecoverable false negatives, and
//! edge multiplicity is ignored entirely.

use crate::method::Reconstructor;
use crate::shyre::rho::RhoStatistics;
use marioh_core::features::FeatureMode;
use marioh_core::model::TrainedModel;
use marioh_core::parallel::score_cliques;
use marioh_core::training::{train_classifier, TrainingConfig};
use marioh_core::RoundContext;
use marioh_hypergraph::clique::{maximal_cliques, sample_k_subset, DegeneracyOrdering};
use marioh_hypergraph::fxhash::FxHashSet;
use marioh_hypergraph::{Hyperedge, Hypergraph, ProjectedGraph};
use rand::Rng;
use rand::RngCore;

/// Which SHyRe feature flavour to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShyreFlavor {
    /// Basic structural count features.
    Count,
    /// Count features plus triangle/square motif statistics.
    Motif,
}

impl ShyreFlavor {
    fn feature_mode(self) -> FeatureMode {
        match self {
            ShyreFlavor::Count => FeatureMode::Count,
            ShyreFlavor::Motif => FeatureMode::Motif,
        }
    }

    fn method_name(self) -> &'static str {
        match self {
            ShyreFlavor::Count => "SHyRe-Count",
            ShyreFlavor::Motif => "SHyRe-Motif",
        }
    }
}

/// A trained SHyRe-Count / SHyRe-Motif model.
pub struct ShyreSupervised {
    flavor: ShyreFlavor,
    rho: RhoStatistics,
    model: TrainedModel,
    /// Decision threshold for keeping a classified candidate.
    pub threshold: f64,
}

impl ShyreSupervised {
    /// Trains the classifier and ρ statistics on a source hypergraph.
    pub fn train(flavor: ShyreFlavor, source: &Hypergraph, rng: &mut dyn RngCore) -> Self {
        let cfg = TrainingConfig {
            feature_mode: flavor.feature_mode(),
            ..TrainingConfig::default()
        };
        let model = train_classifier(source, &cfg, rng);
        ShyreSupervised {
            flavor,
            rho: RhoStatistics::estimate(source),
            model,
            threshold: 0.5,
        }
    }
}

/// Expected-count to integer sample count: floor plus a Bernoulli draw on
/// the fraction, capped to C(n, k) lightly via the candidate pool.
fn sample_count(expected: f64, rng: &mut dyn RngCore) -> usize {
    let base = expected.floor() as usize;
    let frac = expected - expected.floor();
    base + usize::from(rng.gen_range(0.0..1.0f64) < frac)
}

impl Reconstructor for ShyreSupervised {
    fn name(&self) -> &str {
        self.flavor.method_name()
    }

    fn reconstruct(
        &self,
        g: &ProjectedGraph,
        rng: &mut dyn RngCore,
    ) -> Result<Hypergraph, marioh_core::MariohError> {
        let mut h = Hypergraph::new(g.num_nodes());
        let mut seen: FxHashSet<Hyperedge> = FxHashSet::default();
        // One freeze serves enumeration and every feature extraction.
        let round = RoundContext::new(g);
        let view = round.view();
        for clique in maximal_cliques(view, &DegeneracyOrdering::of(view), None) {
            let n = clique.len();
            // The maximal clique itself is always a candidate.
            let mut candidates = vec![clique.clone()];
            for k in 2..n {
                let count = sample_count(self.rho.expected_count(n, k), rng);
                for _ in 0..count {
                    candidates.push(sample_k_subset(rng, &clique, k));
                }
            }
            // Scores depend only on the frozen graph, so one batch per
            // clique, walked in sampling order, keeps the same outcome.
            let scores = score_cliques(&self.model, &round, &candidates, None);
            for (cand, score) in candidates.iter().zip(scores) {
                let e = Hyperedge::new(cand.iter().copied()).expect("candidate size >= 2");
                if score > self.threshold && !seen.contains(&e) {
                    seen.insert(e.clone());
                    h.add_edge(e);
                }
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::metrics::jaccard;
    use marioh_hypergraph::projection::project;
    use rand::{rngs::StdRng, SeedableRng};

    fn chained_triangles(n: u32, offset: u32) -> Hypergraph {
        let mut h = Hypergraph::new(0);
        for b in 0..n {
            let base = offset + b * 3;
            h.add_edge(edge(&[base, base + 1, base + 2]));
            h.add_edge(edge(&[base, base + 1]));
        }
        h
    }

    #[test]
    fn count_flavor_recovers_structured_data() {
        let source = chained_triangles(25, 0);
        let target = chained_triangles(25, 100);
        let mut rng = StdRng::seed_from_u64(0);
        let model = ShyreSupervised::train(ShyreFlavor::Count, &source, &mut rng);
        assert_eq!(model.name(), "SHyRe-Count");
        let rec = model.reconstruct(&project(&target), &mut rng).unwrap();
        let j = jaccard(&target, &rec);
        assert!(j > 0.4, "SHyRe-Count scored only {j}");
    }

    #[test]
    fn motif_flavor_runs_and_names_correctly() {
        let source = chained_triangles(10, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let model = ShyreSupervised::train(ShyreFlavor::Motif, &source, &mut rng);
        assert_eq!(model.name(), "SHyRe-Motif");
        let rec = model.reconstruct(&project(&source), &mut rng).unwrap();
        assert!(rec.unique_edge_count() > 0);
    }

    /// The per-candidate inference loop the view path replaced, kept
    /// as a test-local oracle: hash-map scoring of one candidate at a
    /// time, skipping candidates already kept.
    fn per_candidate_reconstruct(
        model: &ShyreSupervised,
        g: &ProjectedGraph,
        rng: &mut dyn RngCore,
    ) -> Hypergraph {
        let mut h = Hypergraph::new(g.num_nodes());
        let mut seen: FxHashSet<Hyperedge> = FxHashSet::default();
        for clique in crate::enumerate_cliques(g) {
            let n = clique.len();
            let mut candidates = vec![clique.clone()];
            for k in 2..n {
                let count = sample_count(model.rho.expected_count(n, k), rng);
                for _ in 0..count {
                    candidates.push(sample_k_subset(rng, &clique, k));
                }
            }
            for cand in candidates {
                let e = Hyperedge::new(cand.iter().copied()).expect("candidate size >= 2");
                if seen.contains(&e) {
                    continue;
                }
                if marioh_core::reference::score(&model.model, g, &cand) > model.threshold {
                    seen.insert(e.clone());
                    h.add_edge(e);
                }
            }
        }
        h
    }

    #[test]
    fn view_path_matches_per_candidate_reference() {
        use marioh_datasets::registry::PaperDataset;
        use marioh_datasets::split::split_source_target;
        for (dataset, scale) in [(PaperDataset::Hosts, 1.0), (PaperDataset::Enron, 0.1)] {
            let data = dataset.generate_scaled(scale);
            for flavor in [ShyreFlavor::Count, ShyreFlavor::Motif] {
                for seed in 0..3u64 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let (source, target) = split_source_target(&data.hypergraph, &mut rng);
                    let model = ShyreSupervised::train(flavor, &source, &mut rng);
                    let g = project(&target);
                    let (mut rng_view, mut rng_ref) = (rng.clone(), rng);
                    let got = model.reconstruct(&g, &mut rng_view).unwrap();
                    let want = per_candidate_reconstruct(&model, &g, &mut rng_ref);
                    let case = format!("{} {flavor:?} seed {seed}", data.name);
                    assert!(want.unique_edge_count() > 0, "{case}: empty reference");
                    assert_eq!(got, want, "{case}: reconstructions differ");
                    assert_eq!(
                        format!("{rng_view:?}"),
                        format!("{rng_ref:?}"),
                        "{case}: RNG streams differ"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_count_rounds_probabilistically() {
        let mut rng = StdRng::seed_from_u64(2);
        let draws: usize = (0..2000).map(|_| sample_count(1.5, &mut rng)).sum();
        let mean = draws as f64 / 2000.0;
        assert!((mean - 1.5).abs() < 0.1, "mean {mean}");
        assert_eq!(sample_count(2.0, &mut rng), 2);
        assert_eq!(sample_count(0.0, &mut rng), 0);
    }

    #[test]
    fn output_has_multiplicity_one() {
        // SHyRe ignores multiplicity: output hyperedges are unique.
        let source = chained_triangles(10, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let model = ShyreSupervised::train(ShyreFlavor::Count, &source, &mut rng);
        let rec = model.reconstruct(&project(&source), &mut rng).unwrap();
        for (_, m) in rec.iter() {
            assert_eq!(m, 1);
        }
    }
}
