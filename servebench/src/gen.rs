//! Deterministic request generation.
//!
//! Every uploaded hypergraph comes from the public
//! `marioh_datasets::domains` generators, driven by an RNG seeded from
//! `(workload seed, stream, job index)`. The same seed therefore yields
//! byte-identical request bodies, and different seeds yield different
//! ones. Generation happens before a request's clock starts.

use marioh_datasets::domains::{affiliation, coauthorship, contact};
use marioh_hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input regime of a generated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Contact networks: small groups repeated many times (high
    /// multiplicity, many search rounds).
    Contact,
    /// Co-authorship: power-law teams, multiplicity near 1.
    Coauthor,
    /// Affiliation: near-disjoint groups, multiplicity 1, few rounds.
    Affiliation,
}

/// Separate RNG streams per purpose, so e.g. the cached workload's
/// schedule never shifts when a job generator changes.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Fresh = 1,
    Transfer = 2,
    Donor = 3,
    CacheFill = 4,
    Schedule = 5,
    Poll = 6,
}

/// SplitMix64 finaliser: spreads `(seed, stream, index)` over the seed
/// space so neighbouring indices get unrelated RNG streams.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

/// Generates one hypergraph of `regime`, scaled by `size` (1.0 = the
/// base size below).
pub fn hypergraph(regime: Regime, size: f64, rng: &mut StdRng) -> Hypergraph {
    let n = |base: f64| (base * size).round().max(8.0) as u32;
    let m = |base: f64| (base * size).round().max(8.0) as usize;
    match regime {
        Regime::Contact => {
            contact::generate(
                &contact::ContactParams {
                    num_nodes: n(48.0),
                    num_hyperedges: m(150.0),
                    mean_multiplicity: 6.0,
                    num_communities: 4,
                    intra_community_prob: 0.9,
                    size_dist: vec![(2, 0.5), (3, 0.3), (4, 0.15), (5, 0.05)],
                },
                rng,
            )
            .0
        }
        Regime::Coauthor => coauthorship::generate(
            &coauthorship::CoauthorshipParams {
                num_nodes: n(500.0),
                num_hyperedges: m(260.0),
                mean_multiplicity: 1.1,
                gamma: 2.3,
                team_reuse_prob: 0.25,
                size_dist: vec![(2, 0.4), (3, 0.3), (4, 0.17), (5, 0.09), (6, 0.04)],
            },
            rng,
        ),
        Regime::Affiliation => affiliation::generate(
            &affiliation::AffiliationParams {
                num_nodes: n(500.0),
                num_hyperedges: m(160.0),
                overlap_prob: 0.1,
                size_dist: vec![(2, 0.4), (3, 0.35), (4, 0.2), (5, 0.05)],
            },
            rng,
        ),
    }
}

/// The `"edges"` text of `h` in the server's upload format: one
/// `<multiplicity> <node...>` record per line, in sorted edge order.
pub fn edges_text(h: &Hypergraph) -> String {
    let mut out = String::new();
    for e in h.sorted_edges() {
        out.push_str(&h.multiplicity(e).to_string());
        for n in e.nodes() {
            out.push(' ');
            out.push_str(&n.0.to_string());
        }
        out.push('\n');
    }
    out
}

/// A `POST /jobs` body uploading `h`. The text format needs no JSON
/// escaping beyond the newline.
pub fn job_body(h: &Hypergraph, job_seed: u64, model: Option<u64>) -> String {
    let edges = edges_text(h).replace('\n', "\\n");
    match model {
        Some(donor) => format!(r#"{{"edges":"{edges}","seed":{job_seed},"model":"job:{donor}"}}"#),
        None => format!(r#"{{"edges":"{edges}","seed":{job_seed}}}"#),
    }
}

/// The uploaded edge text and seed of a body made by [`job_body`],
/// read back without a JSON parser (the bench's checks must not depend
/// on the program's own parser).
pub fn body_parts(body: &str) -> Option<(String, u64)> {
    let rest = body.strip_prefix(r#"{"edges":""#)?;
    let (edges, rest) = rest.split_once(r#"","seed":"#)?;
    let seed = rest
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    Some((edges.replace("\\n", "\n"), seed))
}

/// Size of a fresh job (and of a transfer donor).
pub const FRESH_SIZE: f64 = 1.6;

/// Job `index` of the fresh workload: contact jobs alternate with
/// co-authorship and affiliation ones, every spec unique (its seed is
/// drawn from the job's own stream).
pub fn fresh_job(seed: u64, index: u64) -> String {
    let regime = match index % 4 {
        0 | 2 => Regime::Contact,
        1 => Regime::Coauthor,
        _ => Regime::Affiliation,
    };
    let mut r = rng(seed, Stream::Fresh, index);
    let h = hypergraph(regime, FRESH_SIZE, &mut r);
    job_body(&h, r.gen_range(1..u32::MAX as u64), None)
}

/// Regimes with a transfer donor, in donor submission order.
pub const DONOR_REGIMES: [Regime; 2] = [Regime::Contact, Regime::Coauthor];

/// Donors trained per regime during transfer set-up. Transfer jobs
/// rotate over them, so a run's quality is not one model's luck.
pub const DONORS_PER_REGIME: usize = 2;

/// Size of a donor's training graph: larger than a fresh job, so the
/// transferred models are well trained.
pub const DONOR_SIZE: f64 = 4.0;

/// Size of the graphs the transfer workload reconstructs with a donor's
/// model.
pub const TRANSFER_SIZE: f64 = 12.0;

/// Request bodies of the transfer donors, in submission order: donor
/// `k` is of regime `DONOR_REGIMES[k % 2]`.
pub fn donor_jobs(seed: u64) -> Vec<String> {
    (0..DONOR_REGIMES.len() * DONORS_PER_REGIME)
        .map(|k| {
            let regime = DONOR_REGIMES[k % DONOR_REGIMES.len()];
            let mut r = rng(seed, Stream::Donor, k as u64);
            let h = hypergraph(regime, DONOR_SIZE, &mut r);
            job_body(&h, r.gen_range(1..u32::MAX as u64), None)
        })
        .collect()
}

/// Job `index` of the transfer workload: a new graph of its donor's
/// regime, a new seed, and `"model": "job:<donor id>"`. Jobs rotate over
/// the donors (`donor_ids` in [`donor_jobs`] order).
pub fn transfer_job(seed: u64, index: u64, donor_ids: &[u64]) -> String {
    let k = (index % donor_ids.len() as u64) as usize;
    let regime = DONOR_REGIMES[k % DONOR_REGIMES.len()];
    let mut r = rng(seed, Stream::Transfer, index);
    let h = hypergraph(regime, TRANSFER_SIZE, &mut r);
    job_body(&h, r.gen_range(1..u32::MAX as u64), Some(donor_ids[k]))
}

/// Sizes of the cached workload's specs after the donor, smallest
/// first: their results range from about 1.5 KB to 105 KB of JSON. Sizes
/// carry no jitter, so a spec's cost is the same on every seed. The two
/// large specs are the same size: their slow resubmits then form one
/// cluster that holds the tail percentiles on every seed, instead of
/// two clusters whose boundary the percentiles would straddle.
pub const CACHE_SIZES: [f64; 7] = [0.5, 1.0, 1.5, 2.0, 3.0, 30.0, 30.0];

/// The cached workload's specs: one affiliation donor that trains
/// (index 0), then `CACHE_SIZES` affiliation graphs reusing its model so
/// the set-up fill stays short even for the large payloads.
pub fn cache_specs(seed: u64, donor_id: u64) -> Vec<String> {
    let mut specs = Vec::with_capacity(CACHE_SIZES.len() + 1);
    let mut r = rng(seed, Stream::CacheFill, 0);
    let h = hypergraph(Regime::Affiliation, 1.0, &mut r);
    specs.push(job_body(&h, r.gen_range(1..u32::MAX as u64), None));
    for (i, size) in CACHE_SIZES.iter().enumerate() {
        let mut r = rng(seed, Stream::CacheFill, i as u64 + 1);
        let h = hypergraph(Regime::Affiliation, *size, &mut r);
        specs.push(job_body(
            &h,
            r.gen_range(1..u32::MAX as u64),
            Some(donor_id),
        ));
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_repeat_for_a_seed_and_differ_across_seeds() {
        for index in 0..4 {
            assert_eq!(fresh_job(7, index), fresh_job(7, index));
            assert_ne!(fresh_job(7, index), fresh_job(8, index));
            assert_eq!(
                transfer_job(7, index, &[1, 2, 3, 4]),
                transfer_job(7, index, &[1, 2, 3, 4])
            );
            assert_ne!(
                transfer_job(7, index, &[1, 2, 3, 4]),
                transfer_job(8, index, &[1, 2, 3, 4])
            );
        }
        let a: Vec<String> = cache_specs(3, 1);
        let b: Vec<String> = cache_specs(3, 1);
        let c: Vec<String> = cache_specs(4, 1);
        assert_eq!(a, b);
        assert!(a.iter().zip(&c).all(|(x, y)| x != y));
    }

    #[test]
    fn body_parts_recover_the_upload_and_seed() {
        let mut r = rng(9, Stream::Fresh, 0);
        let h = hypergraph(Regime::Contact, 1.0, &mut r);
        for model in [None, Some(4)] {
            let (edges, seed) = body_parts(&job_body(&h, 77, model)).expect("our own format");
            assert_eq!(edges, edges_text(&h));
            assert_eq!(seed, 77);
        }
    }

    #[test]
    fn fresh_specs_are_unique_within_a_run() {
        let bodies: std::collections::HashSet<String> = (0..64).map(|i| fresh_job(1, i)).collect();
        assert_eq!(bodies.len(), 64);
    }

    #[test]
    fn bodies_parse_as_server_specs() {
        use marioh_store::{JobInput, JobSpec, Json};
        for body in [
            fresh_job(5, 0),
            transfer_job(5, 1, &[3, 4]),
            donor_jobs(5)[3].clone(),
        ] {
            let spec = JobSpec::from_json(&Json::parse(&body).expect("json")).expect("spec");
            assert!(matches!(spec.input, JobInput::Edges(_)));
        }
    }
}
