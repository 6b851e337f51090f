//! Hash-map reference oracles for the bit-identity contracts of the
//! scoring path. **Test oracle only:** no production code calls this
//! module. It is public because the integration suites, the root
//! `tests/` and the benches' legacy replicas compare against it.
//!
//! Each function recomputes, per call and against a hash-map
//! [`ProjectedGraph`], a quantity the production path derives from a
//! frozen [`marioh_hypergraph::GraphView`]:
//!
//! * [`mhh`] — the oracle for [`crate::mhh::mhh_view`] and
//!   [`crate::mhh::MhhCache`];
//! * [`extract`] — the oracle for [`crate::features::extract_into`];
//! * [`score`] — the oracle for [`TrainedModel`]'s
//!   [`CliqueScorer::score_batch`](crate::CliqueScorer::score_batch).
//!
//! Every input quantity is an exact integer on both paths and the
//! aggregation order is the same, so the two agree bit for bit
//! (property-tested).

use crate::features::{agg5_into, FeatureMode};
use crate::model::TrainedModel;
use marioh_hypergraph::clique::is_maximal;
use marioh_hypergraph::{NodeId, ProjectedGraph};

/// `MHH(u, v) = Σ_{z ∈ N(u) ∩ N(v)} min(ω_{u,z}, ω_{v,z})` — an upper
/// bound on the number of hyperedges of size ≥ 3 containing both `u` and
/// `v` (Lemma 1), by hash probes: `O(min-degree)` per pair.
///
/// Rationale: every size-≥3 hyperedge containing `u` and `v` also contains
/// some third node `z`, and contributes 1 to both `ω_{u,z}` and
/// `ω_{v,z}`; summing the pairwise minima over common neighbours therefore
/// bounds the count from above.
pub fn mhh(g: &ProjectedGraph, u: NodeId, v: NodeId) -> u64 {
    let (small, large) = if g.degree(u) <= g.degree(v) {
        (u, v)
    } else {
        (v, u)
    };
    let mut total = 0u64;
    for (z, w_small) in g.neighbors(small) {
        if z == large {
            continue;
        }
        let w_large = g.weight(large, z);
        if w_large > 0 {
            total += u64::from(w_small.min(w_large));
        }
    }
    total
}

/// Extracts the feature vector of `clique` against graph `g`, allocating
/// fresh lists per call.
///
/// `clique` must be sorted, duplicate-free and form a clique in `g`
/// (debug-asserted). The returned vector has length [`FeatureMode::dim`].
pub fn extract(mode: FeatureMode, g: &ProjectedGraph, clique: &[NodeId]) -> Vec<f64> {
    debug_assert!(clique.len() >= 2, "feature extraction needs |Q| >= 2");
    debug_assert!(clique.windows(2).all(|w| w[0] < w[1]), "clique not sorted");
    debug_assert!(g.is_clique(clique), "candidate is not a clique");
    let mut out = Vec::with_capacity(mode.dim());
    match mode {
        FeatureMode::Multiplicity => extract_multiplicity(g, clique, &mut out),
        FeatureMode::Count => extract_count(g, clique, &mut out),
        FeatureMode::Motif => {
            extract_count(g, clique, &mut out);
            extract_motif(g, clique, &mut out);
        }
    }
    debug_assert_eq!(out.len(), mode.dim());
    out
}

/// Scores one clique against a hash-map graph: per-clique feature
/// extraction and one MLP forward pass.
pub fn score(model: &TrainedModel, g: &ProjectedGraph, clique: &[NodeId]) -> f64 {
    let mut feats = extract(model.mode, g, clique);
    model.scaler.transform_in_place(&mut feats);
    model.mlp.predict(&feats)
}

/// The five aggregate statistics appended to a growing vector.
fn agg5(values: &[f64], out: &mut Vec<f64>) {
    let start = out.len();
    out.resize(start + 5, 0.0);
    agg5_into(values, &mut out[start..]);
}

fn extract_multiplicity(g: &ProjectedGraph, clique: &[NodeId], out: &mut Vec<f64>) {
    // Node-level: weighted degree.
    let node_feats: Vec<f64> = clique
        .iter()
        .map(|&u| g.weighted_degree(u) as f64)
        .collect();
    agg5(&node_feats, out);

    // Edge-level: ω, MHH, MHH/ω.
    let mut weights = Vec::new();
    let mut mhhs = Vec::new();
    let mut portions = Vec::new();
    let mut internal_weight = 0u64;
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            let w = g.weight(u, v);
            debug_assert!(w > 0);
            let m = mhh(g, u, v) as f64;
            weights.push(f64::from(w));
            mhhs.push(m);
            portions.push(m / f64::from(w));
            internal_weight += u64::from(w);
        }
    }
    agg5(&weights, out);
    agg5(&mhhs, out);
    agg5(&portions, out);

    // Clique-level: size, cut ratio, maximality.
    out.push(clique.len() as f64);
    let incident: u64 = clique.iter().map(|&u| g.weighted_degree(u)).sum();
    let cut_ratio = if incident == 0 {
        0.0
    } else {
        // Internal weight counted from both endpoints' perspectives.
        (2 * internal_weight) as f64 / incident as f64
    };
    out.push(cut_ratio);
    out.push(f64::from(is_maximal(g, clique)));
}

fn extract_count(g: &ProjectedGraph, clique: &[NodeId], out: &mut Vec<f64>) {
    // Node-level: unweighted degree.
    let node_feats: Vec<f64> = clique.iter().map(|&u| g.degree(u) as f64).collect();
    agg5(&node_feats, out);

    // Edge-level: embeddedness (common-neighbour count; probe-counted,
    // no allocation or sort).
    let mut embed = Vec::new();
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            embed.push(g.common_neighbor_count(u, v) as f64);
        }
    }
    agg5(&embed, out);

    // Clique-level: size, unweighted cut ratio, maximality.
    out.push(clique.len() as f64);
    let internal = clique.len() * (clique.len() - 1) / 2;
    let incident: usize = clique.iter().map(|&u| g.degree(u)).sum();
    out.push(if incident == 0 {
        0.0
    } else {
        (2 * internal) as f64 / incident as f64
    });
    out.push(f64::from(is_maximal(g, clique)));
}

/// Square-motif counts per clique edge: paths `u–a–b–v` with
/// `a, b ∉ {u, v}` and `{a,b}` an edge — the number of 4-cycles through
/// the pair.
fn extract_motif(g: &ProjectedGraph, clique: &[NodeId], out: &mut Vec<f64>) {
    let mut squares = Vec::new();
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            let mut count = 0usize;
            for (a, _) in g.neighbors(u) {
                if a == v {
                    continue;
                }
                for (b, _) in g.neighbors(a) {
                    if b == u || b == v {
                        continue;
                    }
                    if g.has_edge(b, v) {
                        count += 1;
                    }
                }
            }
            squares.push(count as f64);
        }
    }
    agg5(&squares, out);
}
