//! Property tests of the canonical spec hash: submissions that describe
//! the same computation must hash equal no matter how the JSON was
//! spelled, and any semantic change must produce a different hash —
//! otherwise the result cache would either miss (wasted recomputation)
//! or, far worse, hit wrongly (served someone else's reconstruction).

use marioh_store::{JobSpec, Json, SpecHash};
use proptest::prelude::*;

/// Renders `body` with `seed`-driven cosmetic noise: object key order is
/// permuted at every level and random whitespace is injected between
/// tokens. The value is unchanged — only the spelling.
fn next_noise(seed: &mut u64, bound: usize) -> usize {
    // SplitMix64 step — cheap deterministic noise.
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize % bound.max(1)
}

fn pad(seed: &mut u64, out: &mut String) {
    for _ in 0..next_noise(seed, 3) {
        out.push(if next_noise(seed, 2) == 0 { ' ' } else { '\n' });
    }
}

fn render_noisy(v: &Json, seed: &mut u64, out: &mut String) {
    match v {
        Json::Obj(pairs) => {
            // A permutation via repeated random removal.
            let mut remaining: Vec<&(String, Json)> = pairs.iter().collect();
            out.push('{');
            let mut first = true;
            while !remaining.is_empty() {
                let idx = next_noise(seed, remaining.len());
                let (key, value) = remaining.remove(idx);
                if !first {
                    out.push(',');
                }
                first = false;
                pad(seed, out);
                out.push_str(&Json::str(key.clone()).to_string());
                pad(seed, out);
                out.push(':');
                pad(seed, out);
                render_noisy(value, seed, out);
            }
            pad(seed, out);
            out.push('}');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(seed, out);
                render_noisy(item, seed, out);
            }
            out.push(']');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn hash_of(body: &str) -> SpecHash {
    JobSpec::from_json(&Json::parse(body).expect("valid JSON"))
        .expect("valid spec")
        .content_hash()
        .expect("valid hyperparameters")
}

/// Strategy: a structured, always-valid job body with a random subset of
/// parameters set, as a `Json` object.
fn arb_body() -> impl Strategy<Value = Json> {
    let arb_bool = || proptest::option::of((0usize..2).prop_map(|v| v == 1));
    let params = (
        (
            proptest::option::of(0.5..1.0f64),   // theta_init
            proptest::option::of(5.0..100.0f64), // neg_ratio
            proptest::option::of(0.01..1.0f64),  // alpha
            proptest::option::of(1usize..4),     // threads
        ),
        (
            proptest::option::of(0.25..1.0f64), // supervision_fraction
            arb_bool(),                         // filtering
            arb_bool(),                         // bidirectional
        ),
    );
    (
        0usize..3,                          // dataset index
        proptest::option::of(0.25..1.5f64), // scale
        0u64..5,                            // seed
        0usize..5,                          // method index
        params,
    )
        .prop_map(|(dataset, scale, seed, method, params)| {
            let dataset = ["Hosts", "crime", "p.school"][dataset];
            let method = [
                None,
                Some("MARIOH"),
                Some("MARIOH-M"),
                Some("MARIOH-F"),
                Some("MARIOH-B"),
            ][method];
            let mut pairs = vec![
                ("dataset".to_owned(), Json::str(dataset)),
                ("seed".to_owned(), Json::num(seed as f64)),
            ];
            if let Some(scale) = scale {
                pairs.push(("scale".to_owned(), Json::num(scale)));
            }
            if let Some(method) = method {
                pairs.push(("method".to_owned(), Json::str(method)));
            }
            let ((theta, ratio, alpha, threads), (sup, filt, bidir)) = params;
            let mut p = Vec::new();
            if let Some(v) = theta {
                p.push(("theta_init".to_owned(), Json::num(v)));
            }
            if let Some(v) = ratio {
                p.push(("neg_ratio".to_owned(), Json::num(v)));
            }
            if let Some(v) = alpha {
                p.push(("alpha".to_owned(), Json::num(v)));
            }
            if let Some(v) = threads {
                p.push(("threads".to_owned(), Json::num(v as f64)));
            }
            if let Some(v) = sup {
                p.push(("supervision_fraction".to_owned(), Json::num(v)));
            }
            if let Some(v) = filt {
                p.push(("filtering".to_owned(), Json::Bool(v)));
            }
            if let Some(v) = bidir {
                p.push(("bidirectional".to_owned(), Json::Bool(v)));
            }
            if !p.is_empty() {
                pairs.push(("params".to_owned(), Json::Obj(p)));
            }
            Json::Obj(pairs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Key order and whitespace are cosmetic: every noisy respelling of
    /// a body parses to the same hash as its compact form.
    #[test]
    fn key_order_and_whitespace_never_change_the_hash(
        body in arb_body(),
        noise_seed in 0u64..1_000_000,
    ) {
        let compact = hash_of(&body.to_string());
        let mut seed = noise_seed;
        let mut noisy = String::new();
        render_noisy(&body, &mut seed, &mut noisy);
        prop_assert_eq!(compact, hash_of(&noisy), "respelling: {}", noisy);
    }

    /// Leaving a parameter out and spelling its default explicitly are
    /// the same computation.
    #[test]
    fn explicit_defaults_hash_like_omitted_ones(seed in 0u64..50) {
        use marioh_core::{MariohConfig, TrainingConfig};
        let c = MariohConfig::default();
        let t = TrainingConfig::default();
        let bare = format!(r#"{{"dataset": "Hosts", "seed": {seed}}}"#);
        let explicit = format!(
            r#"{{"seed": {seed}, "dataset": "Hosts", "method": "MARIOH", "throttle_ms": 0,
                "params": {{"theta_init": {}, "neg_ratio": {}, "alpha": {},
                            "threads": {}, "max_iterations": {},
                            "supervision_fraction": {}, "negative_ratio": {},
                            "filtering": true, "bidirectional": true}}}}"#,
            c.theta_init,
            c.neg_ratio,
            c.alpha,
            c.threads,
            c.max_iterations,
            t.supervision_fraction,
            t.negative_ratio,
        );
        prop_assert_eq!(hash_of(&bare), hash_of(&explicit));
        // A default scale and the dataset's explicit default scale are
        // also the same computation.
        let scale = marioh_datasets::PaperDataset::Hosts.default_scale();
        let scaled = format!(r#"{{"dataset": "Hosts", "seed": {seed}, "scale": {scale}}}"#);
        prop_assert_eq!(hash_of(&bare), hash_of(&scaled));
    }

    /// Flipping any single semantic parameter away from its current
    /// value changes the hash.
    #[test]
    fn every_semantic_change_changes_the_hash(body in arb_body(), bump in 1u64..4) {
        let base = hash_of(&body.to_string());
        let base_spec = JobSpec::from_json(&body).unwrap();

        // Seed.
        let mut changed = base_spec.clone();
        changed.seed = changed.seed.wrapping_add(bump);
        prop_assert_ne!(base, changed.content_hash().unwrap());

        // Each numeric hyperparameter, nudged within its valid domain.
        for field in ["theta_init", "neg_ratio", "alpha", "supervision_fraction"] {
            let mut changed = base_spec.clone();
            let slot = match field {
                "theta_init" => &mut changed.params.theta_init,
                "neg_ratio" => &mut changed.params.neg_ratio,
                "alpha" => &mut changed.params.alpha,
                _ => &mut changed.params.supervision_fraction,
            };
            let current = slot.unwrap_or(match field {
                "theta_init" => 0.9,
                "neg_ratio" => 20.0,
                "alpha" => 0.05,
                _ => 1.0,
            });
            *slot = Some(if current > 0.5 { current / 2.0 } else { current * 1.5 });
            prop_assert_ne!(base, changed.content_hash().unwrap(), "field {}", field);
        }

        // Boolean toggles, relative to their *effective* value. A flag
        // the ablation variant pins (MARIOH-F forces filtering off, the
        // param cannot override it) is skipped: toggling it is not a
        // semantic change, and the canonical encoding rightly ignores it.
        use marioh_core::Variant;
        let effective = base_spec.apply(marioh_core::Pipeline::builder()).build().unwrap();
        if base_spec.variant != Variant::NoFiltering {
            let mut changed = base_spec.clone();
            changed.params.filtering = Some(!effective.config().use_filtering);
            prop_assert_ne!(base, changed.content_hash().unwrap());
        }
        if base_spec.variant != Variant::NoBidirectional {
            let mut changed = base_spec.clone();
            changed.params.bidirectional = Some(!effective.config().use_bidirectional);
            prop_assert_ne!(base, changed.content_hash().unwrap());
        }

        // The input itself.
        let mut changed = base_spec.clone();
        changed.input = marioh_store::JobInput::Dataset {
            dataset: marioh_datasets::PaperDataset::Directors,
            scale: None,
        };
        prop_assert_ne!(base, changed.content_hash().unwrap());

        // Attaching a reused model.
        let mut changed = base_spec;
        changed.model = Some(marioh_store::ModelRef::Job(7));
        prop_assert_ne!(base, changed.content_hash().unwrap());
    }

    /// Two different uploaded edge lists hash differently; the same
    /// multiset uploaded in a different line order hashes the same.
    #[test]
    fn uploaded_edges_hash_by_content_not_spelling(
        lines in proptest::collection::vec((1u32..3, 0u32..8, 8u32..16), 1..6),
        order_seed in 0u64..1000,
    ) {
        let records: Vec<String> = lines
            .iter()
            .map(|(m, a, b)| format!("{m} {a} {b}"))
            .collect();
        let body = |text: &str| format!(r#"{{"edges": {}}}"#, Json::str(text));
        let forward = hash_of(&body(&records.join("\n")));
        // Reversed line order — same multiset.
        let mut reversed = records.clone();
        reversed.reverse();
        prop_assert_eq!(forward, hash_of(&body(&reversed.join("\n"))));
        let _ = order_seed;
        // One extra record — different multiset.
        let mut extra = records;
        extra.push("1 100 101".to_owned());
        prop_assert_ne!(forward, hash_of(&body(&extra.join("\n"))));
    }
}

/// The canonical encoding is the key of every cached artifact on every
/// state dir ever written: these literal hashes must never move, however
/// the encoder is implemented. A change here orphans every cached
/// result and model (bump `CANONICAL_FORMAT_VERSION` instead, on
/// purpose).
#[test]
fn canonical_hashes_of_fixed_specs_are_pinned() {
    let edges = "# a comment line\n2 0 1 2\n1 3 1\n4000000000 7 4294967294 12\n1 5 9 10 11\n";
    let edges_body = format!(
        r#"{{"edges": {}, "method": "MARIOH-B", "seed": 11, "params": {{"theta_init": 0.75}}}}"#,
        Json::str(edges)
    );
    let dataset_body = r#"{"dataset": "Hosts", "seed": 7, "params": {"alpha": 0.5}}"#;
    assert_eq!(
        hash_of(&edges_body).to_hex(),
        "1c71a08185528b7fafca83035ad2c64ba4d7c6467b800602f34588a8611ef30b"
    );
    assert_eq!(
        hash_of(dataset_body).to_hex(),
        "5f9e4f500a24a1cf53b7888ae28caa97fc49d13d10a7e0f59612b13d63fec275"
    );
}
