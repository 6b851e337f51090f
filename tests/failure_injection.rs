//! Failure-injection tests: every text parser in the workspace must
//! survive arbitrary corruption of its input (clean `Err` or a lossless
//! `Ok`, never a panic), and the reconstruction loop must stay in
//! control under adversarial scorers.

use marioh::core::model::FnScorer;
use marioh::core::reconstruct::reconstruct_with_report;
use marioh::core::{Marioh, MariohConfig, TrainingConfig};
use marioh::hypergraph::hyperedge::edge;
use marioh::hypergraph::projection::project;
use marioh::hypergraph::{io, GraphView, Hypergraph, NodeId};
use marioh::ml::{Mlp, StandardScaler};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// A valid serialised hypergraph to corrupt.
fn valid_hypergraph_bytes() -> Vec<u8> {
    let mut h = Hypergraph::new(6);
    h.add_edge(edge(&[0, 1, 2]));
    h.add_edge_with_multiplicity(edge(&[3, 4]), 3);
    h.add_edge(edge(&[1, 4, 5]));
    let mut buf = Vec::new();
    io::write_hypergraph(&h, &mut buf).expect("write");
    buf
}

/// A valid serialised graph to corrupt.
fn valid_graph_bytes() -> Vec<u8> {
    let mut h = Hypergraph::new(5);
    h.add_edge(edge(&[0, 1, 2, 3]));
    h.add_edge(edge(&[2, 4]));
    let mut buf = Vec::new();
    io::write_graph(&project(&h), &mut buf).expect("write");
    buf
}

/// A valid serialised trained model to corrupt.
fn valid_model_bytes() -> Vec<u8> {
    let mut h = Hypergraph::new(0);
    for b in 0..12u32 {
        let base = b * 3;
        h.add_edge(edge(&[base, base + 1, base + 2]));
        h.add_edge(edge(&[base, base + 1]));
    }
    let mut rng = StdRng::seed_from_u64(0);
    let model = Marioh::train(&h, &TrainingConfig::default(), &mut rng);
    let mut buf = Vec::new();
    model.model().write_to(&mut buf).expect("write");
    buf
}

/// One mutation of a byte buffer.
#[derive(Debug, Clone)]
enum Mutation {
    Truncate(usize),
    FlipByte(usize, u8),
    InsertLine(usize, Vec<u8>),
    Shuffle(u64),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..512).prop_map(Mutation::Truncate),
        ((0usize..512), any::<u8>()).prop_map(|(i, b)| Mutation::FlipByte(i, b)),
        ((0usize..512), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(i, l)| Mutation::InsertLine(i, l)),
        any::<u64>().prop_map(Mutation::Shuffle),
    ]
}

fn apply(buf: &mut Vec<u8>, m: &Mutation) {
    match m {
        Mutation::Truncate(n) => {
            let keep = *n % (buf.len() + 1);
            buf.truncate(keep);
        }
        Mutation::FlipByte(i, b) => {
            if !buf.is_empty() {
                let i = *i % buf.len();
                buf[i] = *b;
            }
        }
        Mutation::InsertLine(i, line) => {
            let i = *i % (buf.len() + 1);
            let mut insert = line.clone();
            insert.push(b'\n');
            buf.splice(i..i, insert);
        }
        Mutation::Shuffle(seed) => {
            // Shuffle lines (a likely hand-editing accident).
            let text: Vec<Vec<u8>> = buf.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
            let mut lines = text;
            let mut rng = StdRng::seed_from_u64(*seed);
            use rand::Rng as _;
            for i in (1..lines.len()).rev() {
                let j = rng.gen_range(0..=i);
                lines.swap(i, j);
            }
            *buf = lines.join(&b'\n');
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The hypergraph parser never panics on corrupted input.
    #[test]
    fn hypergraph_parser_survives_corruption(muts in proptest::collection::vec(arb_mutation(), 1..4)) {
        let mut buf = valid_hypergraph_bytes();
        for m in &muts {
            apply(&mut buf, m);
        }
        let _ = io::read_hypergraph(buf.as_slice()); // Ok or Err, no panic
    }

    /// The graph parser never panics on corrupted input, and a
    /// successfully parsed graph satisfies its structural invariants.
    #[test]
    fn graph_parser_survives_corruption(muts in proptest::collection::vec(arb_mutation(), 1..4)) {
        let mut buf = valid_graph_bytes();
        for m in &muts {
            apply(&mut buf, m);
        }
        if let Ok(g) = io::read_graph(buf.as_slice()) {
            prop_assert!(g.check_invariants().is_ok(), "parsed graph violates invariants");
        }
    }

    /// The trained-model parser never panics on corrupted input, and a
    /// successfully parsed model still yields probability scores.
    #[test]
    fn model_parser_survives_corruption(muts in proptest::collection::vec(arb_mutation(), 1..3)) {
        // Static valid bytes: training in every case would dominate runtime.
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let mut buf = BYTES.get_or_init(valid_model_bytes).clone();
        for m in &muts {
            apply(&mut buf, m);
        }
        if let Ok(model) = marioh::core::TrainedModel::read_from(buf.as_slice()) {
            let mut h = Hypergraph::new(3);
            h.add_edge(edge(&[0, 1, 2]));
            let g = project(&h);
            let s = model.score(&g, &[NodeId(0), NodeId(1), NodeId(2)]);
            prop_assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }

    /// The MLP parser never panics on corrupted input.
    #[test]
    fn mlp_parser_survives_corruption(muts in proptest::collection::vec(arb_mutation(), 1..4)) {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(3, &[4], &mut rng);
        let mut buf = Vec::new();
        mlp.write_to(&mut buf).expect("write");
        for m in &muts {
            apply(&mut buf, m);
        }
        let _ = Mlp::read_from(buf.as_slice());
    }

    /// The scaler parser never panics on corrupted input.
    #[test]
    fn scaler_parser_survives_corruption(muts in proptest::collection::vec(arb_mutation(), 1..4)) {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut buf = Vec::new();
        scaler.write_to(&mut buf).expect("write");
        for m in &muts {
            apply(&mut buf, m);
        }
        let _ = StandardScaler::read_from(buf.as_slice());
    }

    /// Reconstruction terminates within the iteration cap for scorers
    /// that return arbitrary (finite) values, and the committed
    /// hyperedges never exceed the input's projected weight.
    #[test]
    fn reconstruction_survives_adversarial_scores(bias in -2.0f64..3.0, scale_ in 0.0f64..4.0) {
        let mut h = Hypergraph::new(0);
        h.add_edge(edge(&[0, 1, 2]));
        h.add_edge_with_multiplicity(edge(&[2, 3]), 2);
        h.add_edge(edge(&[3, 4, 5]));
        let g = project(&h);
        // Score depends on clique size only; may be negative or > 1.
        let scorer = FnScorer(move |_: &GraphView, c: &[NodeId]| {
            bias + scale_ / c.len() as f64
        });
        let cfg = MariohConfig {
            max_iterations: 200,
            ..MariohConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let (rec, report) = reconstruct_with_report(&g, &scorer, &cfg, &mut rng);
        prop_assert!(report.rounds.len() <= 200);
        prop_assert!(project(&rec).total_weight() <= g.total_weight());
    }
}

/// Scores of NaN are a programming error; the search is documented to
/// panic rather than silently misorder candidates.
#[test]
#[should_panic(expected = "NaN score")]
fn nan_scores_panic_loudly() {
    let mut h = Hypergraph::new(0);
    h.add_edge(edge(&[0, 1, 2]));
    h.add_edge(edge(&[1, 2, 3]));
    let g = project(&h);
    let scorer = FnScorer(|_: &GraphView, _: &[NodeId]| f64::NAN);
    let mut rng = StdRng::seed_from_u64(0);
    let _ = reconstruct_with_report(&g, &scorer, &MariohConfig::default(), &mut rng);
}
