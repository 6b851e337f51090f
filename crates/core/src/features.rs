//! Clique feature representations (Sect. III-D).
//!
//! Three feature modes share one extraction entry point,
//! [`extract_into`], which reads a round-frozen [`RoundContext`]:
//!
//! * [`FeatureMode::Multiplicity`] — MARIOH's multiplicity-aware features:
//!   weighted node degrees; per-edge multiplicity, MHH and MHH/ω; clique
//!   size, cut ratio and maximality. Node/edge features are aggregated to
//!   5 statistics (sum, mean, min, max, std) each.
//! * [`FeatureMode::Count`] — multiplicity-*blind* structural features in
//!   the spirit of SHyRe-Count; used by the MARIOH-M ablation and the
//!   SHyRe-Count baseline.
//! * [`FeatureMode::Motif`] — Count plus per-edge motif statistics
//!   (triangle and square counts), for SHyRe-Motif.
//!
//! Its hash-map oracle, [`crate::reference::extract`], lives with the
//! other test oracles.

use marioh_hypergraph::clique::is_maximal_view;
use marioh_hypergraph::{GraphView, NodeId};

use crate::round::RoundContext;

/// Which clique feature representation to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMode {
    /// MARIOH's multiplicity-aware features (23 dims).
    Multiplicity,
    /// Structural count features without multiplicity (13 dims).
    Count,
    /// Count features plus triangle/square motif statistics (18 dims).
    Motif,
}

impl FeatureMode {
    /// Dimensionality of the feature vector for this mode.
    pub fn dim(self) -> usize {
        match self {
            FeatureMode::Multiplicity => 23,
            FeatureMode::Count => 13,
            FeatureMode::Motif => 18,
        }
    }

    /// Stable lower-case tag used by serialised model files and the
    /// artifact store ([`FeatureMode::from_tag`] inverts it).
    pub fn tag(self) -> &'static str {
        match self {
            FeatureMode::Multiplicity => "multiplicity",
            FeatureMode::Count => "count",
            FeatureMode::Motif => "motif",
        }
    }

    /// Parses a tag produced by [`FeatureMode::tag`].
    pub fn from_tag(tag: &str) -> Option<FeatureMode> {
        match tag {
            "multiplicity" => Some(FeatureMode::Multiplicity),
            "count" => Some(FeatureMode::Count),
            "motif" => Some(FeatureMode::Motif),
            _ => None,
        }
    }
}

/// Five aggregate statistics written into `out[0..5]`: sum, mean, min,
/// max, population std.
pub(crate) fn agg5_into(values: &[f64], out: &mut [f64]) {
    if values.is_empty() {
        out[..5].fill(0.0);
        return;
    }
    let n = values.len() as f64;
    let sum: f64 = values.iter().sum();
    let mean = sum / n;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut var = 0.0;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
        let d = v - mean;
        var += d * d;
    }
    out[0] = sum;
    out[1] = mean;
    out[2] = min;
    out[3] = max;
    out[4] = (var / n).sqrt();
}

/// Reusable buffers for [`extract_into`]: the per-clique node and edge
/// value lists that [`crate::reference::extract`] allocates fresh every
/// call. A batch scorer creates one scratch per `score_batch` call and
/// reuses it for every clique in the batch, so extraction itself
/// allocates nothing.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    node: Vec<f64>,
    edge_a: Vec<f64>,
    edge_b: Vec<f64>,
    edge_c: Vec<f64>,
    /// Needle ids for the batched slot lookup (a clique suffix as raw
    /// `u32`s, the kernel's input type).
    ids: Vec<u32>,
    /// Row-relative positions returned by
    /// [`marioh_kernels::find_positions`].
    positions: Vec<u32>,
}

/// Extracts the feature vector of `clique` against a round-frozen
/// [`RoundContext`], writing it into `out` (length must equal
/// [`FeatureMode::dim`]) without allocating: edge weights and MHH values
/// come from the CSR view and the per-round memo, intermediate lists
/// live in `scratch`.
///
/// `clique` must be sorted, duplicate-free and form a clique in the view
/// (debug-asserted). Produces bit-identical values to the hash-map
/// oracle [`crate::reference::extract`] on the graph the context was
/// frozen from (property-tested).
///
/// # Panics
///
/// Panics if `out.len() != mode.dim()`.
pub fn extract_into(
    mode: FeatureMode,
    round: &RoundContext<'_>,
    clique: &[NodeId],
    scratch: &mut FeatureScratch,
    out: &mut [f64],
) {
    assert_eq!(out.len(), mode.dim(), "output slice/feature dim mismatch");
    debug_assert!(clique.len() >= 2, "feature extraction needs |Q| >= 2");
    debug_assert!(clique.windows(2).all(|w| w[0] < w[1]), "clique not sorted");
    debug_assert!(round.view().is_clique(clique), "candidate is not a clique");
    match mode {
        FeatureMode::Multiplicity => extract_multiplicity_view(round, clique, scratch, out),
        FeatureMode::Count => extract_count_view(round.view(), clique, scratch, out),
        FeatureMode::Motif => {
            extract_count_view(round.view(), clique, scratch, &mut out[..13]);
            extract_motif_view(round.view(), clique, scratch, &mut out[13..]);
        }
    }
}

fn extract_multiplicity_view(
    round: &RoundContext<'_>,
    clique: &[NodeId],
    scratch: &mut FeatureScratch,
    out: &mut [f64],
) {
    let view = round.view();
    let cache = round.mhh_cache();

    // Node-level: weighted degree.
    scratch.node.clear();
    scratch
        .node
        .extend(clique.iter().map(|&u| view.weighted_degree(u) as f64));
    agg5_into(&scratch.node, &mut out[0..5]);

    // Edge-level: ω, MHH, MHH/ω — one slot lookup serves all three.
    // The clique is sorted, so for each anchor `u` the co-members after
    // it are a sorted, guaranteed-present subset of `N(u)`: one
    // [`marioh_kernels::find_positions`] merge resolves all of `u`'s
    // canonical slots instead of a binary search per pair.
    scratch.edge_a.clear();
    scratch.edge_b.clear();
    scratch.edge_c.clear();
    let mut internal_weight = 0u64;
    for (i, &u) in clique.iter().enumerate() {
        let rest = &clique[i + 1..];
        if rest.is_empty() {
            break;
        }
        scratch.ids.clear();
        scratch.ids.extend(rest.iter().map(|v| v.0));
        scratch.positions.clear();
        marioh_kernels::find_positions(&scratch.ids, view.neighbors(u), &mut scratch.positions);
        let start = view.row_start(u);
        for &pos in &scratch.positions {
            let slot = start + pos as usize;
            let w = view.weight_at(slot);
            debug_assert!(w > 0);
            let m = cache.at(slot) as f64;
            scratch.edge_a.push(f64::from(w));
            scratch.edge_b.push(m);
            scratch.edge_c.push(m / f64::from(w));
            internal_weight += u64::from(w);
        }
    }
    agg5_into(&scratch.edge_a, &mut out[5..10]);
    agg5_into(&scratch.edge_b, &mut out[10..15]);
    agg5_into(&scratch.edge_c, &mut out[15..20]);

    // Clique-level: size, cut ratio, maximality.
    out[20] = clique.len() as f64;
    let incident: u64 = clique.iter().map(|&u| view.weighted_degree(u)).sum();
    out[21] = if incident == 0 {
        0.0
    } else {
        (2 * internal_weight) as f64 / incident as f64
    };
    out[22] = f64::from(is_maximal_view(view, clique));
}

fn extract_count_view(
    view: &GraphView,
    clique: &[NodeId],
    scratch: &mut FeatureScratch,
    out: &mut [f64],
) {
    scratch.node.clear();
    scratch
        .node
        .extend(clique.iter().map(|&u| view.degree(u) as f64));
    agg5_into(&scratch.node, &mut out[0..5]);

    scratch.edge_a.clear();
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            scratch.edge_a.push(view.common_neighbor_count(u, v) as f64);
        }
    }
    agg5_into(&scratch.edge_a, &mut out[5..10]);

    out[10] = clique.len() as f64;
    let internal = clique.len() * (clique.len() - 1) / 2;
    let incident: usize = clique.iter().map(|&u| view.degree(u)).sum();
    out[11] = if incident == 0 {
        0.0
    } else {
        (2 * internal) as f64 / incident as f64
    };
    out[12] = f64::from(is_maximal_view(view, clique));
}

fn extract_motif_view(
    view: &GraphView,
    clique: &[NodeId],
    scratch: &mut FeatureScratch,
    out: &mut [f64],
) {
    // Per (u, v) the walk count Σ_{a∈N(u)\{v}} |{b ∈ N(a)\{u,v} : b ∈ N(v)}|
    // collapses to Σ_a (|N(a)∩N(v)| − [uv ∈ E]): u always sits in the
    // intersection (a ∈ N(u) ⟹ u ∈ N(a)) and is excluded exactly when
    // uv ∈ E, while v never does (no self-loops). Each term is one
    // sorted-merge intersection count on the dispatched kernel.
    scratch.edge_b.clear();
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            let nv = view.neighbors(v);
            let has_uv = usize::from(view.has_edge(u, v));
            let mut count = 0usize;
            for &a in view.neighbors(u) {
                if a == v.0 {
                    continue;
                }
                count += marioh_kernels::intersect_count(view.neighbors(NodeId(a)), nv) - has_uv;
            }
            scratch.edge_b.push(count as f64);
        }
    }
    agg5_into(&scratch.edge_b, &mut out[0..5]);
}

/// Human-readable names for each dimension of a feature mode, used by the
/// feature-importance experiment (online-appendix reproduction).
pub fn feature_names(mode: FeatureMode) -> Vec<String> {
    let agg = ["sum", "mean", "min", "max", "std"];
    let mut names = Vec::with_capacity(mode.dim());
    let block = |prefix: &str, names: &mut Vec<String>| {
        for a in agg {
            names.push(format!("{prefix}_{a}"));
        }
    };
    match mode {
        FeatureMode::Multiplicity => {
            block("weighted_degree", &mut names);
            block("edge_multiplicity", &mut names);
            block("edge_mhh", &mut names);
            block("edge_mhh_portion", &mut names);
            names.push("clique_size".into());
            names.push("cut_ratio".into());
            names.push("is_maximal".into());
        }
        FeatureMode::Count => {
            block("degree", &mut names);
            block("embeddedness", &mut names);
            names.push("clique_size".into());
            names.push("cut_ratio".into());
            names.push("is_maximal".into());
        }
        FeatureMode::Motif => {
            names = feature_names(FeatureMode::Count);
            block("square_count", &mut names);
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::{hyperedge::edge, projection::project, Hypergraph, ProjectedGraph};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The production extraction against a fresh freeze of `g`.
    fn extract(mode: FeatureMode, g: &ProjectedGraph, clique: &[NodeId]) -> Vec<f64> {
        let round = RoundContext::new(g);
        let mut out = vec![0.0; mode.dim()];
        extract_into(
            mode,
            &round,
            clique,
            &mut FeatureScratch::default(),
            &mut out,
        );
        out
    }

    fn sample_graph() -> ProjectedGraph {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 2);
        h.add_edge(edge(&[1, 2, 3]));
        h.add_edge(edge(&[0, 1]));
        project(&h)
    }

    #[test]
    fn dimensions_match_mode() {
        let g = sample_graph();
        let clique = [n(0), n(1), n(2)];
        for mode in [
            FeatureMode::Multiplicity,
            FeatureMode::Count,
            FeatureMode::Motif,
        ] {
            let f = extract(mode, &g, &clique);
            assert_eq!(f.len(), mode.dim());
            assert_eq!(feature_names(mode).len(), mode.dim());
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn agg5_statistics() {
        let mut out = [0.0; 5];
        agg5_into(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out[0], 6.0); // sum
        assert_eq!(out[1], 2.0); // mean
        assert_eq!(out[2], 1.0); // min
        assert_eq!(out[3], 3.0); // max
        assert!((out[4] - (2.0f64 / 3.0).sqrt()).abs() < 1e-12); // std

        let mut empty = [1.0; 5];
        agg5_into(&[], &mut empty);
        assert_eq!(empty, [0.0; 5]);
    }

    #[test]
    fn multiplicity_features_hand_checked() {
        let g = sample_graph();
        // Clique {0,1}: ω_{0,1} = 3 (2 from {0,1,2} + 1 from {0,1}).
        let f = extract(FeatureMode::Multiplicity, &g, &[n(0), n(1)]);
        // Edge weights block starts at index 5 (after 5 node aggregates):
        // sum = mean = min = max = 3, std = 0.
        assert_eq!(f[5], 3.0);
        assert_eq!(f[6], 3.0);
        assert_eq!(f[9], 0.0);
        // MHH(0,1): common neighbour 2 with min(ω02, ω12) = min(2,3) = 2.
        assert_eq!(f[10], 2.0);
        // Portion = 2/3.
        assert!((f[15] - 2.0 / 3.0).abs() < 1e-12);
        // Clique size.
        assert_eq!(f[20], 2.0);
        // Not maximal ({0,1} extends to {0,1,2}).
        assert_eq!(f[22], 0.0);
    }

    #[test]
    fn maximality_flag() {
        let g = sample_graph();
        let f = extract(FeatureMode::Multiplicity, &g, &[n(0), n(1), n(2)]);
        assert_eq!(f[22], 1.0);
    }

    #[test]
    fn cut_ratio_bounded() {
        let g = sample_graph();
        for clique in [
            vec![n(0), n(1)],
            vec![n(0), n(1), n(2)],
            vec![n(1), n(2), n(3)],
        ] {
            let f = extract(FeatureMode::Multiplicity, &g, &clique);
            assert!(f[21] > 0.0 && f[21] <= 1.0, "cut ratio {}", f[21]);
        }
    }

    #[test]
    fn motif_square_counts() {
        // 4-cycle 0-1-2-3-0 plus chord making {0,1} part of a square
        // 0-3-2-1.
        let mut g = ProjectedGraph::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge_weight(n(u), n(v), 1);
        }
        let f = extract(FeatureMode::Motif, &g, &[n(0), n(1)]);
        // Exactly one square through edge (0,1): path 0-3-2-1 (the motif
        // block follows the 13 count features).
        assert_eq!(f[13], 1.0); // sum over the single edge
    }

    #[test]
    fn extract_into_is_bit_identical_to_extract() {
        use marioh_hypergraph::clique::{maximal_cliques, DegeneracyOrdering};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..15 {
            let n_nodes = rng.gen_range(4..12u32);
            let mut h = Hypergraph::new(n_nodes);
            for _ in 0..rng.gen_range(3..15) {
                let size = rng.gen_range(2..=4usize.min(n_nodes as usize));
                let mut nodes: Vec<u32> = (0..n_nodes).collect();
                for i in (1..nodes.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    nodes.swap(i, j);
                }
                h.add_edge_with_multiplicity(edge(&nodes[..size]), rng.gen_range(1..3));
            }
            let g = project(&h);
            let round = RoundContext::new(&g);
            let view = round.view();
            let ordering = DegeneracyOrdering::of(view);
            let mut scratch = FeatureScratch::default();
            for clique in maximal_cliques(view, &ordering, None) {
                for mode in [
                    FeatureMode::Multiplicity,
                    FeatureMode::Count,
                    FeatureMode::Motif,
                ] {
                    let reference = crate::reference::extract(mode, &g, &clique);
                    let mut out = vec![0.0; mode.dim()];
                    extract_into(mode, &round, &clique, &mut scratch, &mut out);
                    assert_eq!(out, reference, "mode {mode:?} clique {clique:?}");
                }
            }
        }
    }

    #[test]
    fn count_features_ignore_weights() {
        // Same topology, different weights ⇒ identical Count features.
        let mut g1 = ProjectedGraph::new(3);
        let mut g2 = ProjectedGraph::new(3);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            g1.add_edge_weight(n(u), n(v), 1);
            g2.add_edge_weight(n(u), n(v), 7);
        }
        let c = [n(0), n(1), n(2)];
        assert_eq!(
            extract(FeatureMode::Count, &g1, &c),
            extract(FeatureMode::Count, &g2, &c)
        );
        assert_ne!(
            extract(FeatureMode::Multiplicity, &g1, &c),
            extract(FeatureMode::Multiplicity, &g2, &c)
        );
    }
}
