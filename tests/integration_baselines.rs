//! Cross-crate integration tests for the baseline methods: every method
//! produces structurally valid output on real registry datasets, and the
//! whole zoo satisfies a shared [`Reconstructor`] conformance
//! contract.

use marioh::baselines::shyre::{ShyreFlavor, ShyreSupervised, ShyreUnsup};
use marioh::baselines::{BayesianMdl, CFinder, CliqueCovering, Demon, MaxClique, Reconstructor};
use marioh::core::{Pipeline, Variant};
use marioh::datasets::split::split_source_target;
use marioh::datasets::PaperDataset;
use marioh::hypergraph::metrics::jaccard;
use marioh::hypergraph::projection::project;
use marioh::hypergraph::{Hypergraph, ProjectedGraph};
use rand::{rngs::StdRng, SeedableRng};

fn fixture() -> (Hypergraph, Hypergraph, ProjectedGraph) {
    let data = PaperDataset::Hosts.generate_default();
    let reduced = data.hypergraph.reduce_multiplicity();
    let mut rng = StdRng::seed_from_u64(0);
    let (source, target) = split_source_target(&reduced, &mut rng);
    let g = project(&target);
    (source, target, g)
}

/// Every reconstructed hyperedge must be a clique of the input graph —
/// no method may invent node pairs that never co-occurred.
fn assert_edges_are_cliques(rec: &Hypergraph, g: &ProjectedGraph, name: &str) {
    for (e, _) in rec.iter() {
        for (u, v) in e.pairs() {
            assert!(g.has_edge(u, v), "{name} invented pair ({u}, {v}) in {e}");
        }
    }
}

/// The shared conformance contract of the core trait: a stable non-empty
/// name, infallible success on ordinary graphs, determinism under a
/// fixed seed, and output confined to the input's node set. (Clique-ness
/// of every hyperedge is NOT part of the contract — community methods
/// like Demon legitimately merge beyond cliques.)
fn assert_conformance(method: &dyn Reconstructor, g: &ProjectedGraph, seed: u64) {
    let name = method.name();
    assert!(!name.is_empty(), "method with empty name");
    let mut rng = StdRng::seed_from_u64(seed);
    let rec = method
        .reconstruct(g, &mut rng)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    for (e, _) in rec.iter() {
        for u in e.nodes() {
            assert!(
                u.0 < g.num_nodes(),
                "{name} invented node {u} beyond the input's {} nodes",
                g.num_nodes()
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let again = method
        .reconstruct(g, &mut rng)
        .unwrap_or_else(|e| panic!("{name} failed on rerun: {e}"));
    assert_eq!(rec, again, "{name} is not deterministic under a fixed seed");
}

#[test]
fn every_method_satisfies_the_conformance_contract() {
    let (source, _, g) = fixture();
    let mut rng = StdRng::seed_from_u64(7);
    let methods: Vec<Box<dyn Reconstructor>> = vec![
        Box::new(MaxClique),
        Box::new(CliqueCovering),
        Box::new(BayesianMdl::default()),
        Box::new(ShyreUnsup),
        Box::new(Demon::default()),
        Box::new(CFinder::new(3)),
        Box::new(ShyreSupervised::train(
            ShyreFlavor::Count,
            &source,
            &mut rng,
        )),
        Box::new(ShyreSupervised::train(
            ShyreFlavor::Motif,
            &source,
            &mut rng,
        )),
        Box::new(
            Pipeline::builder()
                .variant(Variant::Full)
                .build()
                .expect("defaults are valid")
                .train(&source, &mut rng)
                .expect("non-empty source"),
        ),
    ];
    for (i, m) in methods.iter().enumerate() {
        assert_conformance(m.as_ref(), &g, 100 + i as u64);
    }
    // Names are unique across the zoo.
    let mut names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), methods.len(), "duplicate method names");
}

#[test]
fn clique_decomposition_methods_produce_valid_cliques() {
    let (_, _, g) = fixture();
    let mut rng = StdRng::seed_from_u64(1);
    for method in [&MaxClique as &dyn Reconstructor, &CliqueCovering] {
        let rec = method.reconstruct(&g, &mut rng).unwrap();
        assert!(rec.unique_edge_count() > 0, "{}", method.name());
        assert_edges_are_cliques(&rec, &g, method.name());
    }
}

#[test]
fn cover_methods_cover_every_edge() {
    let (_, _, g) = fixture();
    let mut rng = StdRng::seed_from_u64(2);
    for method in [
        &CliqueCovering as &dyn Reconstructor,
        &BayesianMdl::default(),
        &ShyreUnsup,
    ] {
        let rec = method.reconstruct(&g, &mut rng).unwrap();
        for (u, v, _) in g.sorted_edge_list() {
            assert!(
                rec.iter().any(|(e, _)| e.contains(u) && e.contains(v)),
                "{} left edge ({u}, {v}) uncovered",
                method.name()
            );
        }
    }
}

#[test]
fn supervised_shyre_beats_community_methods_on_hosts() {
    let (source, target, g) = fixture();
    let mut rng = StdRng::seed_from_u64(3);
    let shyre = ShyreSupervised::train(ShyreFlavor::Count, &source, &mut rng);
    let j_shyre = jaccard(&target, &shyre.reconstruct(&g, &mut rng).unwrap());
    let j_cfinder = jaccard(&target, &CFinder::new(3).reconstruct(&g, &mut rng).unwrap());
    let j_demon = jaccard(
        &target,
        &Demon::default().reconstruct(&g, &mut rng).unwrap(),
    );
    assert!(
        j_shyre >= j_cfinder && j_shyre >= j_demon,
        "SHyRe {j_shyre} vs CFinder {j_cfinder} / Demon {j_demon}"
    );
}

#[test]
fn shyre_unsup_preserves_total_weight() {
    let (_, _, g) = fixture();
    let mut rng = StdRng::seed_from_u64(4);
    let rec = ShyreUnsup.reconstruct(&g, &mut rng).unwrap();
    assert_eq!(project(&rec).total_weight(), g.total_weight());
}

#[test]
fn all_baselines_handle_an_empty_graph() {
    let g = ProjectedGraph::new(5);
    let mut rng = StdRng::seed_from_u64(5);
    let methods: Vec<Box<dyn Reconstructor>> = vec![
        Box::new(MaxClique),
        Box::new(CliqueCovering),
        Box::new(BayesianMdl::default()),
        Box::new(ShyreUnsup),
        Box::new(Demon::default()),
        Box::new(CFinder::new(3)),
    ];
    for m in methods {
        let rec = m.reconstruct(&g, &mut rng).unwrap();
        assert_eq!(rec.unique_edge_count(), 0, "{}", m.name());
    }
}

#[test]
fn motif_flavor_runs_on_registry_data() {
    let (source, target, g) = fixture();
    let mut rng = StdRng::seed_from_u64(6);
    let shyre = ShyreSupervised::train(ShyreFlavor::Motif, &source, &mut rng);
    let rec = shyre.reconstruct(&g, &mut rng).unwrap();
    assert!(jaccard(&target, &rec) > 0.3);
    assert_edges_are_cliques(&rec, &g, "SHyRe-Motif");
}
