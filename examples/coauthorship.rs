//! Co-authorship case study (the paper's Fig. 2): reconstruct the ego
//! sub-hypergraph of the most prolific author and compare MARIOH with
//! SHyRe-Count hyperedge by hyperedge.
//!
//! ```text
//! cargo run --release --example coauthorship
//! ```

use marioh::baselines::shyre::{ShyreFlavor, ShyreSupervised};
use marioh::baselines::Reconstructor;
use marioh::core::{Marioh, TrainingConfig};
use marioh::datasets::split::split_source_target;
use marioh::datasets::PaperDataset;
use marioh::hypergraph::metrics::{jaccard, multi_jaccard};
use marioh::hypergraph::projection::project;
use marioh::hypergraph::{Hypergraph, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Hub + up to ten random co-authors, and the hyperedges inside that set.
fn ego_subhypergraph(h: &Hypergraph, rng: &mut StdRng) -> (NodeId, Hypergraph) {
    let degrees = h.node_degrees();
    let hub = NodeId(
        degrees
            .iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .map(|(i, _)| i as u32)
            .unwrap_or(0),
    );
    let mut coauthors: Vec<NodeId> = Vec::new();
    for (e, _) in h.iter() {
        if e.contains(hub) {
            for &n in e.nodes() {
                if n != hub && !coauthors.contains(&n) {
                    coauthors.push(n);
                }
            }
        }
    }
    coauthors.sort_unstable();
    for i in (1..coauthors.len()).rev() {
        let j = rng.gen_range(0..=i);
        coauthors.swap(i, j);
    }
    coauthors.truncate(10);
    coauthors.push(hub);
    (hub, h.induced_by(&coauthors))
}

fn describe(name: &str, truth: &Hypergraph, rec: &Hypergraph) {
    println!(
        "\n{name}: Jaccard {:.3}, multi-Jaccard {:.3}",
        jaccard(truth, rec),
        multi_jaccard(truth, rec)
    );
    for e in rec.sorted_edges() {
        let mark = if truth.contains(e) {
            "✓"
        } else {
            "✗ (false positive)"
        };
        println!("  {e} x{}  {mark}", rec.multiplicity(e));
    }
    for e in truth.sorted_edges() {
        if !rec.contains(e) {
            println!("  {e} x{}  ✗ (missed)", truth.multiplicity(e));
        }
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(17);
    // A DBLP-like co-authorship stand-in; source half trains, the target
    // half plays "the 2017 co-authorship network" of the paper's case
    // study.
    let data = PaperDataset::Dblp.generate_scaled(1.0 / 32.0);
    let (source, target) = split_source_target(&data.hypergraph, &mut rng);

    let (hub, sub) = ego_subhypergraph(&target, &mut rng);
    println!(
        "case study around author {hub}: {} ground-truth hyperedges",
        sub.unique_edge_count()
    );
    let g = project(&sub);

    let marioh = Marioh::train(&source, &TrainingConfig::default(), &mut rng);
    let rec_marioh = marioh.reconstruct(&g, &mut rng).expect("not cancelled");
    let shyre = ShyreSupervised::train(ShyreFlavor::Count, &source, &mut rng);
    let rec_shyre = shyre.reconstruct(&g, &mut rng).expect("not cancelled");

    describe("SHyRe-Count", &sub, &rec_shyre);
    describe("MARIOH", &sub, &rec_marioh);
}
