//! Contact-network reconstruction in the multiplicity-preserved setting:
//! the regime where edge multiplicity carries the most signal
//! (Table III), including all ablation variants.
//!
//! ```text
//! cargo run --release --example contact_network
//! ```

use marioh::baselines::shyre::ShyreUnsup;
use marioh::baselines::Reconstructor;
use marioh::core::{Pipeline, Variant};
use marioh::datasets::split::split_source_target;
use marioh::datasets::PaperDataset;
use marioh::hypergraph::metrics::multi_jaccard;
use marioh::hypergraph::projection::project;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    // An Enron-like contact dataset: recurring small groups, average
    // hyperedge multiplicity ≈ 5.9.
    let data = PaperDataset::Enron.generate_default();
    println!(
        "dataset {}: avg hyperedge multiplicity {:.2}",
        data.name,
        data.hypergraph.avg_multiplicity()
    );

    // Multiplicities are *kept*: reconstruction must recover how often
    // every group interacted, not just which groups exist.
    let (source, target) = split_source_target(&data.hypergraph, &mut rng);
    let g = project(&target);
    println!(
        "target projection: {} edges, avg edge multiplicity {:.2}\n",
        g.num_edges(),
        g.avg_weight()
    );

    // The unsupervised multiplicity-aware baseline...
    let rec = ShyreUnsup.reconstruct(&g, &mut rng).expect("not cancelled");
    println!(
        "{:<10} multi-Jaccard {:.4}",
        "SHyRe-Unsup",
        multi_jaccard(&target, &rec)
    );

    // ...against MARIOH and each ablation variant.
    for variant in Variant::all() {
        let mut vrng = StdRng::seed_from_u64(7 + variant as u64);
        let method = Pipeline::builder()
            .variant(variant)
            .build()
            .expect("variant defaults are valid")
            .train(&source, &mut vrng)
            .expect("non-empty source");
        let rec = method.reconstruct(&g, &mut vrng).expect("not cancelled");
        println!(
            "{:<10} multi-Jaccard {:.4}",
            variant.name(),
            multi_jaccard(&target, &rec)
        );
    }
}
