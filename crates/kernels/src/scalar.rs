//! Scalar reference implementations — the semantic ground truth.
//!
//! These are the simplest correct loops, preserved verbatim from the
//! call sites they replaced: the parity suite asserts every dispatched
//! path bit-identical to them, and the benches use them (via
//! [`crate::override_level`] with [`crate::Level::Scalar`]) as the
//! in-process baseline. Do not optimise this module.

use std::cmp::Ordering;

/// Reference `Σ min(wa, wb)` over the sorted intersection: the plain
/// three-way-compare merge `mhh_view` used before this crate existed.
pub fn intersect_min_sum(a: &[u32], wa: &[u32], b: &[u32], wb: &[u32]) -> u64 {
    let mut total = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                total += u64::from(wa[i].min(wb[j]));
                i += 1;
                j += 1;
            }
        }
    }
    total
}

/// Reference `|a ∩ b|`: the plain two-pointer merge.
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Reference sorted intersection, appended to `out`.
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Reference needle positions: one binary search per needle — exactly
/// the per-pair `GraphView::slot` lookup this kernel replaced.
pub fn find_positions(needles: &[u32], haystack: &[u32], out: &mut Vec<u32>) {
    for &needle in needles {
        match haystack.binary_search(&needle) {
            Ok(pos) => out.push(pos as u32),
            Err(_) => debug_assert!(false, "needle {needle} missing from haystack"),
        }
    }
}

/// Reference dense forward over transposed weights: per output lane,
/// the fold `(((0 + x₀·w₀ₒ) + x₁·w₁ₒ) + …) + bₒ` — operation-for-
/// operation the `row.iter().zip(x).map(..).sum() + b` loop that
/// `Layer::forward` ran over row-major weights.
pub fn dense_forward(wt: &[f64], bias: &[f64], x: &[f64], n_out: usize, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(n_out);
    for (o, &b) in bias.iter().enumerate().take(n_out) {
        let mut acc = 0.0f64;
        for (k, &xk) in x.iter().enumerate() {
            acc += xk * wt[k * n_out + o];
        }
        out.push(acc + b);
    }
}

/// Reference batched weight-gradient accumulation: for rows
/// `e = 0..m` in order, `g[o·n_in + k] += d[e·n_out + o]·a[e·n_in + k]`,
/// skipping a delta that is exactly zero — the per-example gradient
/// loop of `Mlp::backprop`, verbatim and with its branch.
pub fn dense_outer_accumulate(
    g: &mut [f64],
    d: &[f64],
    a: &[f64],
    m: usize,
    n_in: usize,
    n_out: usize,
) {
    for e in 0..m {
        let delta = &d[e * n_out..(e + 1) * n_out];
        let input = &a[e * n_in..(e + 1) * n_in];
        for o in 0..n_out {
            let d = delta[o];
            if d != 0.0 {
                let grow = &mut g[o * n_in..(o + 1) * n_in];
                for (g, &inp) in grow.iter_mut().zip(input) {
                    *g += d * inp;
                }
            }
        }
    }
}

/// Reference backward step through one dense layer with row-major
/// weights: `prev[k] = Σ_o d[o]·w[o·n_in + k]` folded in `o` order from
/// `0.0` (a zero delta skipped), then `prev[k] = 0` wherever
/// `act[k] <= 0` (the ReLU derivative) — `Mlp::backprop`'s propagation
/// loop, verbatim.
pub fn dense_backward(w: &[f64], d: &[f64], act: &[f64], prev: &mut [f64]) {
    let n_in = prev.len();
    prev.fill(0.0);
    for (o, &d) in d.iter().enumerate() {
        if d == 0.0 {
            continue;
        }
        let row = &w[o * n_in..(o + 1) * n_in];
        for (p, &w) in prev.iter_mut().zip(row) {
            *p += d * w;
        }
    }
    for (p, &a) in prev.iter_mut().zip(act) {
        if a <= 0.0 {
            *p = 0.0;
        }
    }
}
