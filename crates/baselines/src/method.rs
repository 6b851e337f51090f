//! Re-export of the common reconstruction interface.
//!
//! The trait lives in [`marioh_core::pipeline`] since the unified-API
//! redesign — MARIOH itself, every ablation variant, and all baselines
//! implement it, so the experiment harness, CLI, and examples share one
//! method zoo. This module re-exports it.
//!
//! The former `MariohMethod` adapter is gone: [`marioh_core::Marioh`]
//! implements the trait directly (train one through
//! [`marioh_core::Pipeline::builder`] with a
//! [`marioh_core::Variant`]).

pub use marioh_core::pipeline::Reconstructor;

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_core::{Pipeline, Variant};
    use marioh_hypergraph::hyperedge::edge;
    use marioh_hypergraph::metrics::jaccard;
    use marioh_hypergraph::projection::project;
    use marioh_hypergraph::Hypergraph;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn marioh_joins_the_method_zoo_through_the_core_trait() {
        let mut source = Hypergraph::new(0);
        let mut target = Hypergraph::new(0);
        for b in 0..20u32 {
            let base = b * 3;
            let hg = if b % 2 == 0 { &mut source } else { &mut target };
            hg.add_edge(edge(&[base, base + 1, base + 2]));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let method = Pipeline::builder()
            .variant(Variant::Full)
            .build()
            .expect("defaults are valid")
            .train(&source, &mut rng)
            .expect("non-empty source");
        assert_eq!(Reconstructor::name(&method), "MARIOH");
        let rec = method
            .reconstruct(&project(&target), &mut rng)
            .expect("not cancelled");
        assert!(jaccard(&target, &rec) > 0.5);
    }
}
