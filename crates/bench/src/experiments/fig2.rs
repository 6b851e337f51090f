//! Fig. 2: the co-authorship case study — reconstructing the ego
//! sub-hypergraph of a prolific author exactly.

use super::ExperimentEnv;
use crate::runner::{build_method, cell_rng};
use crate::table::Table;
use marioh_baselines::Reconstructor as _;
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_hypergraph::metrics::{jaccard, multi_jaccard};
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{Hypergraph, NodeId};
use rand::Rng;

/// Builds the case-study sub-hypergraph: a hub author plus up to ten of
/// its co-authors, and the hyperedges fully inside that node set.
pub fn ego_subhypergraph<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> (NodeId, Hypergraph) {
    // Hub: the node with the most incident unique hyperedges.
    let degrees = h.node_degrees();
    let hub = NodeId(
        degrees
            .iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .map(|(i, _)| i as u32)
            .unwrap_or(0),
    );
    // Co-authors of the hub.
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
    // Ten random co-authors (paper: Jure Leskovec + 10 random).
    for i in (1..coauthors.len()).rev() {
        let j = rng.gen_range(0..=i);
        coauthors.swap(i, j);
    }
    coauthors.truncate(10);
    let mut nodes = coauthors;
    nodes.push(hub);
    (hub, h.induced_by(&nodes))
}

/// Runs the case study and prints Jaccard / multi-Jaccard for MARIOH and
/// SHyRe-Count on the hub's sub-hypergraph, as in Fig. 2.
pub fn run(env: &ExperimentEnv) -> Table {
    let data = env.dataset(PaperDataset::Dblp);
    let mut split_rng = cell_rng(data.name, "split", 0);
    let (source, target) = split_source_target(&data.hypergraph, &mut split_rng);
    let mut rng = cell_rng(data.name, "fig2", 0);
    let (hub, sub) = ego_subhypergraph(&target, &mut rng);
    let g = project(&sub);
    eprintln!(
        "[fig2] hub node {hub}: sub-hypergraph with {} hyperedges, {} projected edges",
        sub.unique_edge_count(),
        g.num_edges()
    );

    let mut t = Table::new(vec!["Method", "Jaccard", "multi-Jaccard"]);
    for method in ["SHyRe-Count", "MARIOH"] {
        let mut rng = cell_rng(data.name, method, 0);
        let Some(m) = build_method(method, &source, &mut rng) else {
            continue;
        };
        let rec = m.reconstruct(&g, &mut rng).expect("not cancelled");
        t.add_row(vec![
            method.to_owned(),
            format!("{:.3}", jaccard(&sub, &rec)),
            format!("{:.3}", multi_jaccard(&sub, &rec)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use marioh_hypergraph::hyperedge::edge;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn ego_subhypergraph_contains_hub_edges() {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge(edge(&[0, 3]));
        h.add_edge(edge(&[0, 4, 5]));
        h.add_edge(edge(&[7, 8])); // unrelated
        let mut rng = StdRng::seed_from_u64(0);
        let (hub, sub) = ego_subhypergraph(&h, &mut rng);
        assert_eq!(hub, NodeId(0));
        assert_eq!(sub.unique_edge_count(), 3);
        assert!(!sub.contains(&edge(&[7, 8])));
    }
}
