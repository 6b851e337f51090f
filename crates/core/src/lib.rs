//! MARIOH: multiplicity-aware supervised hypergraph reconstruction
//! (Lee, Lee & Shin, ICDE 2025).
//!
//! Given the weighted projected graph `G` of an unknown hypergraph and a
//! *source* hypergraph from the same domain for supervision, MARIOH
//! reconstructs the hyperedge multiset by
//!
//! 1. [`filtering`] — provably extracting size-2 hyperedges whose residual
//!    multiplicity is positive (Algorithm 2, Lemmas 1–2),
//! 2. scoring clique candidates with a classifier over
//!    multiplicity-aware [`features`] (Sect. III-D),
//! 3. a bidirectional greedy [`search`] over maximal cliques *and*
//!    sub-cliques of unpromising cliques (Algorithm 3),
//! 4. an adaptive-threshold outer loop (Algorithm 1) in [`reconstruct`].
//!
//! # Quickstart
//!
//! Every frontend goes through the same validated [`Pipeline`]: build it
//! once (hyperparameters are checked at [`PipelineBuilder::build`], not
//! at run time), train on the supervision hypergraph, and reconstruct
//! through the [`Reconstructor`] trait shared with every baseline.
//!
//! ```
//! use marioh_core::{FeatureMode, Pipeline, Reconstructor};
//! use marioh_hypergraph::{hyperedge::edge, projection::project, Hypergraph};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A toy source hypergraph for supervision...
//! let mut source = Hypergraph::new(0);
//! source.add_edge(edge(&[0, 1, 2]));
//! source.add_edge(edge(&[2, 3]));
//! source.add_edge(edge(&[3, 4, 5]));
//!
//! // ...and a target projected graph to reconstruct.
//! let mut target = Hypergraph::new(0);
//! target.add_edge(edge(&[0, 1, 2]));
//! target.add_edge(edge(&[4, 5]));
//! let g = project(&target);
//!
//! let pipeline = Pipeline::builder()
//!     .features(FeatureMode::Multiplicity)
//!     .theta_init(0.9)
//!     .threads(1)
//!     .build()?; // Err(MariohError::Config(..)) on invalid hyperparameters
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let model = pipeline.train(&source, &mut rng)?;
//! let reconstructed = model.reconstruct(&g, &mut rng)?;
//! assert!(reconstructed.unique_edge_count() > 0);
//! # Ok::<(), marioh_core::MariohError>(())
//! ```
//!
//! Long runs are observable and cancellable — attach a
//! [`ProgressObserver`] and a [`CancelToken`] to the builder:
//!
//! ```
//! use marioh_core::{CancelToken, Pipeline};
//!
//! let cancel = CancelToken::new();
//! let pipeline = Pipeline::builder()
//!     .cancel_token(cancel.clone())
//!     .build()?;
//! // ... from any thread, at any time:
//! cancel.cancel(); // the run returns Err(MariohError::Cancelled)
//! # Ok::<(), marioh_core::MariohError>(())
//! ```
//!
//! The pre-pipeline entry points ([`Marioh::train`],
//! [`reconstruct::reconstruct_with_report`]) remain for tests and
//! sweeps that juggle raw configs.
//!
//! # The round-frozen invariant
//!
//! The search engine freezes the (filtered) projected graph once into a
//! CSR [`marioh_hypergraph::GraphView`], and that view is its only
//! working graph: commits decrement it in place, and scorers read it.
//! The view is mutated **only between** enumeration/scoring passes.
//! Within one pass — enumerate the maximal cliques, extract features,
//! score — every read sees the same edge weights through one
//! [`RoundContext`]: the view plus a per-round [`mhh::MhhCache`] that
//! computes each edge's MHH at most once no matter how many overlapping
//! cliques share it. The context borrows the view, so the compiler
//! keeps commits out of a pass. All scoring paths — serial, threaded,
//! and batched ([`CliqueScorer::score_batch`]) — are bit-identical by
//! construction and by test.
//!
//! # The removed-set invariant
//!
//! Across rounds, the only mutation is a commit decrementing the edges
//! inside a committed clique `C`. The run-long
//! [`engine::SearchEngine`] therefore rebuilds nothing wholesale: it
//! decrements the CSR view and patches the MHH memo in place, and
//! re-enumerates maximal cliques only around endpoints of *removed*
//! edges — every maximal clique that appears or dies contains one, so
//! the rest of the previous round's list is carried over unchanged.
//! Every round then scores its whole clique list. The engine-parity
//! suite proves the incremental and rebuild-every-round paths identical
//! for every seed, thread count and variant.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod features;
pub mod filtering;
pub mod mhh;
pub mod model;
pub mod parallel;
pub mod persistence;
pub mod pipeline;
pub mod progress;
pub mod reconstruct;
pub mod round;
pub mod search;
pub mod training;
pub mod variants;

pub use engine::SearchEngine;
pub use error::MariohError;
pub use features::FeatureMode;
pub use model::{CliqueScorer, TrainedModel};
pub use persistence::{SavedModel, MODEL_FORMAT_VERSION};
pub use pipeline::{Pipeline, PipelineBuilder, Reconstructor};
pub use progress::{CancelToken, NoopObserver, ProgressObserver};
pub use reconstruct::{Marioh, MariohConfig, ReconstructionReport};
pub use round::RoundContext;
pub use training::TrainingConfig;
pub use variants::Variant;
