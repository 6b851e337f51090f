//! Summary statistics and the result digest.

use marioh_hypergraph::{Hyperedge, Hypergraph, NodeId};
use marioh_store::SpecHash;

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support the `p`-quantile: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    // The epsilon absorbs `1 - p` rounding (100 × (1 − 0.9) < 10).
    ((n as f64) * (1.0 - p) + 1e-9).floor() as usize >= MIN_BEYOND
}

/// Fewest samples that support the `p`-quantile.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| supported(n, p))
        .expect("some sample count supports p < 1")
}

/// Linear-interpolated `p`-quantile of `xs` (0 for no samples).
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Slices of the timed phase a rate is measured over.
pub const RATE_SLICES: usize = 5;

/// Completions per second: the median over [`RATE_SLICES`] equal slices
/// of `[0, seconds)` of the completions (timestamps in seconds) inside
/// each slice. A median of slices shrugs off a stall confined to one.
pub fn sliced_rate(done_at: &[f64], seconds: f64) -> f64 {
    let width = seconds / RATE_SLICES as f64;
    let mut counts = [0usize; RATE_SLICES];
    for &t in done_at {
        if (0.0..seconds).contains(&t) {
            counts[((t / width) as usize).min(RATE_SLICES - 1)] += 1;
        }
    }
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// Appends one job's canonical result bytes to a digest input: the job
/// index, the edge multiset in sorted order, and the exact bits of its
/// Jaccard value.
pub fn digest_job(out: &mut Vec<u8>, index: u64, h: &Hypergraph, jaccard: f64) {
    out.extend_from_slice(format!("job {index} jaccard {:016x}\n", jaccard.to_bits()).as_bytes());
    for e in h.sorted_edges() {
        out.extend_from_slice(h.multiplicity(e).to_string().as_bytes());
        for n in e.nodes() {
            out.extend_from_slice(format!(" {}", n.0).as_bytes());
        }
        out.push(b'\n');
    }
}

pub fn digest_hex(bytes: &[u8]) -> String {
    SpecHash::of(bytes).to_hex()
}

/// A `GET /jobs/:id/result` body decoded into the reconstruction and its
/// Jaccard value.
///
/// The body has one fixed shape —
/// `{"id":N,"jaccard":X,"edges":[{"nodes":[..],"multiplicity":M},..]}` —
/// and is read with a scanner of its own rather than the program's JSON
/// parser, so the checks do not lean on the code they check (and cost
/// the client time linear in the body).
pub fn parse_result<'a>(body: &'a str) -> Result<(Hypergraph, f64), String> {
    let after = |text: &'a str, key: &str| -> Result<&'a str, String> {
        text.split_once(key)
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("result has no {key}"))
    };
    let number_end = |text: &str| {
        text.find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
            .unwrap_or(text.len())
    };
    let rest = after(body, "\"jaccard\":")?;
    let jaccard: f64 = rest[..number_end(rest)]
        .parse()
        .map_err(|_| "bad jaccard".to_owned())?;
    let mut rest = after(rest, "\"edges\":[")?;
    let mut h = Hypergraph::new(0);
    while let Some(edge) = rest.strip_prefix("{\"nodes\":[") {
        let (nodes, tail) = edge.split_once(']').ok_or("unterminated nodes")?;
        let nodes = nodes
            .split(',')
            .map(|n| {
                n.parse::<u32>()
                    .map(NodeId)
                    .map_err(|_| format!("bad node id {n:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tail = tail
            .strip_prefix(",\"multiplicity\":")
            .ok_or("edge has no multiplicity")?;
        let end = number_end(tail);
        let m: u32 = tail[..end]
            .parse()
            .map_err(|_| "bad multiplicity".to_owned())?;
        if m == 0 {
            return Err("zero multiplicity".to_owned());
        }
        let e = Hyperedge::new(nodes).ok_or("edge with fewer than two nodes")?;
        h.add_edge_with_multiplicity(e, m);
        rest = tail[end..].strip_prefix('}').ok_or("unterminated edge")?;
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    if !rest.starts_with("]}") {
        return Err("trailing data after the edge list".to_owned());
    }
    Ok((h, jaccard))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(!supported(99, 0.9));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs: Vec<f64> = (1..=101).map(f64::from).rev().collect();
        assert_eq!(median(&xs), 51.0);
        assert_eq!(quantile(&xs, 0.9), 91.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn sliced_rate_is_the_median_slice() {
        // Slices of 2 s over 10 s hold 4, 4, 4, 0 and 8 completions.
        let mut t: Vec<f64> = (0..4)
            .flat_map(|s| (0..4).map(move |k| 2.0 * s as f64 + 0.1 * k as f64))
            .collect();
        t.retain(|x| *x < 6.0);
        t.extend((0..8).map(|k| 8.0 + 0.2 * k as f64));
        t.push(10.5); // after the window: drained, not counted
        assert_eq!(sliced_rate(&t, 10.0), 2.0);
        assert_eq!(sliced_rate(&[], 10.0), 0.0);
    }

    #[test]
    fn result_bodies_round_trip_into_the_digest() {
        let body = r#"{"id":3,"jaccard":0.8125,"edges":[{"nodes":[0,1],"multiplicity":2},{"nodes":[1,2,3],"multiplicity":1}]}"#;
        let (h, j) = parse_result(body).expect("parses");
        assert_eq!(j, 0.8125);
        assert_eq!(h.unique_edge_count(), 2);
        let mut a = Vec::new();
        digest_job(&mut a, 0, &h, j);
        assert_eq!(
            String::from_utf8(a.clone()).unwrap(),
            "job 0 jaccard 3fea000000000000\n2 0 1\n1 1 2 3\n"
        );
        let mut b = Vec::new();
        digest_job(&mut b, 0, &h, f64::from_bits(j.to_bits() + 1));
        assert_ne!(digest_hex(&a), digest_hex(&b));
    }
}
