//! Hypergraph and weighted projected-graph substrate for the MARIOH
//! reproduction (ICDE 2025).
//!
//! This crate provides the problem-domain representation of Sect. II of
//! the paper:
//!
//! * [`Hypergraph`] — a multiset of hyperedges `H = (V, E*, M)`,
//! * [`ProjectedGraph`] — its weighted clique expansion `G = (V, E_G, ω)`,
//! * [`projection::project`] — the expansion itself,
//! * [`clique`] — maximal-clique enumeration shared by every method,
//! * [`view`] — round-frozen CSR snapshots shared by enumeration,
//!   feature extraction and scoring within one pass,
//! * [`metrics`] — Jaccard / multi-Jaccard reconstruction accuracy,
//! * [`properties`] — the 12 structural properties of Table IV,
//! * [`io`] — plain-text persistence.
//!
//! # Example
//!
//! ```
//! use marioh_hypergraph::{Hypergraph, hyperedge::edge, projection::project};
//!
//! let mut h = Hypergraph::new(0);
//! h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 2);
//! h.add_edge(edge(&[1, 2]));
//! let g = project(&h);
//! // {1,2} is covered by both copies of {0,1,2} and by itself.
//! assert_eq!(g.weight(1.into(), 2.into()), 3);
//! ```

#![warn(missing_docs)]

pub mod analytics;
pub mod benson;
pub mod clique;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod hyperedge;
pub mod hypergraph;
pub mod io;
pub mod metrics;
pub mod motifs;
pub mod node;
pub mod pool;
pub mod projection;
pub mod properties;
pub mod view;

pub use error::HypergraphError;
pub use graph::ProjectedGraph;
pub use hyperedge::Hyperedge;
pub use hypergraph::Hypergraph;
pub use node::{NodeId, NodeInterner};
pub use pool::WorkerPool;
pub use view::GraphView;
