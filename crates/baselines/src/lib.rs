//! Baseline hypergraph-reconstruction methods (Sect. IV-A of the MARIOH
//! paper).
//!
//! Three families, all implementing the core [`Reconstructor`] trait
//! (re-exported here):
//!
//! * overlapping community detection — [`demon`], [`cfinder`],
//! * clique decomposition — [`max_clique`], [`clique_covering`],
//! * hypergraph reconstruction — [`bayesian_mdl`] (Young et al. 2021) and
//!   the [`shyre`] family (Wang & Kleinberg 2024: Count, Motif, Unsup).
//!
//! The same maximal-clique enumerator
//! ([`marioh_hypergraph::clique::maximal_cliques`]) backs every method,
//! mirroring the paper's fairness note.

#![warn(missing_docs)]

pub mod bayesian_mdl;
pub mod cfinder;
pub mod clique_covering;
pub mod demon;
pub mod max_clique;
pub mod method;
pub mod shyre;

pub use bayesian_mdl::BayesianMdl;
pub use cfinder::CFinder;
pub use clique_covering::CliqueCovering;
pub use demon::Demon;
pub use max_clique::MaxClique;
pub use method::Reconstructor;
pub use shyre::{ShyreSupervised, ShyreUnsup};

use marioh_hypergraph::clique::{maximal_cliques, DegeneracyOrdering};
use marioh_hypergraph::{GraphView, NodeId, ProjectedGraph};

/// Every maximal clique of `g` (sorted), enumerated serially on one
/// freeze of the graph.
pub(crate) fn enumerate_cliques(g: &ProjectedGraph) -> Vec<Vec<NodeId>> {
    let view = GraphView::freeze(g);
    maximal_cliques(&view, &DegeneracyOrdering::of(&view), None)
}
