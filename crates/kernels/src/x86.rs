//! x86_64 vector paths (AVX2 / SSE4.2), selected at runtime by
//! [`crate::level`] after `is_x86_feature_detected!` — every function
//! here is `unsafe` precisely because the caller vouches for the
//! feature bits.
//!
//! The intersection kernels iterate the shorter slice and advance a
//! cursor through the longer one a whole vector register at a time
//! (unsigned compare via the sign-bit flip, then a movemask popcount of
//! the `< needle` prefix). Length regimes hand off to the portable
//! module where vectors cannot win: near-equal lengths use its
//! branchless two-pointer, extreme skew its galloping search. Sums stay
//! `u64`, so all of this reorders freely under bit-identity.
//!
//! [`dense_forward_avx2`] / [`dense_forward_sse42`] run 16 / 2 output
//! lanes per iteration with separate `mul` and `add` — **never FMA** —
//! keeping every lane's rounding identical to the scalar fold (the
//! crate-level sequential-accumulation contract). The two backward
//! kernels vectorize across inputs `k` and replace the scalar loops'
//! zero-delta branch with a mask on the product (see
//! [`dense_outer_accumulate_avx2`] for why that keeps the bits).

use crate::portable;
use crate::GALLOP_RATIO;
use std::arch::x86_64::*;

/// Below this length ratio the branchless two-pointer wins (a vector
/// probe that advances the cursor by ~1 lane wastes its width).
const SIMD_ADVANCE_RATIO: usize = 4;

/// `Σ min(wa, wb)` over the intersection, AVX2 cursor advance.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn intersect_min_sum_avx2(a: &[u32], wa: &[u32], b: &[u32], wb: &[u32]) -> u64 {
    if a.len() > b.len() {
        return intersect_min_sum_avx2(b, wb, a, wa);
    }
    if a.is_empty() {
        return 0;
    }
    let ratio = b.len() / a.len();
    if !(SIMD_ADVANCE_RATIO..GALLOP_RATIO).contains(&ratio) || b.len() < 8 {
        return portable::intersect_min_sum(a, wa, b, wb);
    }
    let bias = _mm256_set1_epi32(i32::MIN);
    let mut total = 0u64;
    let mut j = 0usize;
    for (i, &x) in a.iter().enumerate() {
        // Skip b-elements < x, 8 lanes per compare. The xor flips the
        // sign bit so the signed epi32 compare orders u32 correctly;
        // b is ascending, so the `< x` lanes are a prefix of the mask.
        let needle = _mm256_xor_si256(_mm256_set1_epi32(x as i32), bias);
        while j + 8 <= b.len() {
            let block = _mm256_xor_si256(_mm256_loadu_si256(b.as_ptr().add(j).cast()), bias);
            let lt = _mm256_cmpgt_epi32(needle, block);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
            if mask == 0xFF {
                j += 8;
            } else {
                j += mask.trailing_ones() as usize;
                break;
            }
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() {
            break;
        }
        if b[j] == x {
            total += u64::from(wa[i].min(wb[j]));
            j += 1;
        }
    }
    total
}

/// `|a ∩ b|`, AVX2 cursor advance.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn intersect_count_avx2(a: &[u32], b: &[u32]) -> usize {
    if a.len() > b.len() {
        return intersect_count_avx2(b, a);
    }
    if a.is_empty() {
        return 0;
    }
    let ratio = b.len() / a.len();
    if !(SIMD_ADVANCE_RATIO..GALLOP_RATIO).contains(&ratio) || b.len() < 8 {
        return portable::intersect_count(a, b);
    }
    let bias = _mm256_set1_epi32(i32::MIN);
    let mut count = 0usize;
    let mut j = 0usize;
    for &x in a {
        let needle = _mm256_xor_si256(_mm256_set1_epi32(x as i32), bias);
        while j + 8 <= b.len() {
            let block = _mm256_xor_si256(_mm256_loadu_si256(b.as_ptr().add(j).cast()), bias);
            let lt = _mm256_cmpgt_epi32(needle, block);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
            if mask == 0xFF {
                j += 8;
            } else {
                j += mask.trailing_ones() as usize;
                break;
            }
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() {
            break;
        }
        if b[j] == x {
            count += 1;
            j += 1;
        }
    }
    count
}

/// `Σ min(wa, wb)` over the intersection, SSE4.2 (4-lane) advance.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[target_feature(enable = "sse4.2")]
pub unsafe fn intersect_min_sum_sse42(a: &[u32], wa: &[u32], b: &[u32], wb: &[u32]) -> u64 {
    if a.len() > b.len() {
        return intersect_min_sum_sse42(b, wb, a, wa);
    }
    if a.is_empty() {
        return 0;
    }
    let ratio = b.len() / a.len();
    if !(SIMD_ADVANCE_RATIO..GALLOP_RATIO).contains(&ratio) || b.len() < 4 {
        return portable::intersect_min_sum(a, wa, b, wb);
    }
    let bias = _mm_set1_epi32(i32::MIN);
    let mut total = 0u64;
    let mut j = 0usize;
    for (i, &x) in a.iter().enumerate() {
        let needle = _mm_xor_si128(_mm_set1_epi32(x as i32), bias);
        while j + 4 <= b.len() {
            let block = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().add(j).cast()), bias);
            let lt = _mm_cmpgt_epi32(needle, block);
            let mask = _mm_movemask_ps(_mm_castsi128_ps(lt)) as u32;
            if mask == 0xF {
                j += 4;
            } else {
                j += mask.trailing_ones() as usize;
                break;
            }
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() {
            break;
        }
        if b[j] == x {
            total += u64::from(wa[i].min(wb[j]));
            j += 1;
        }
    }
    total
}

/// `|a ∩ b|`, SSE4.2 (4-lane) advance.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[target_feature(enable = "sse4.2")]
pub unsafe fn intersect_count_sse42(a: &[u32], b: &[u32]) -> usize {
    if a.len() > b.len() {
        return intersect_count_sse42(b, a);
    }
    if a.is_empty() {
        return 0;
    }
    let ratio = b.len() / a.len();
    if !(SIMD_ADVANCE_RATIO..GALLOP_RATIO).contains(&ratio) || b.len() < 4 {
        return portable::intersect_count(a, b);
    }
    let bias = _mm_set1_epi32(i32::MIN);
    let mut count = 0usize;
    let mut j = 0usize;
    for &x in a {
        let needle = _mm_xor_si128(_mm_set1_epi32(x as i32), bias);
        while j + 4 <= b.len() {
            let block = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().add(j).cast()), bias);
            let lt = _mm_cmpgt_epi32(needle, block);
            let mask = _mm_movemask_ps(_mm_castsi128_ps(lt)) as u32;
            if mask == 0xF {
                j += 4;
            } else {
                j += mask.trailing_ones() as usize;
                break;
            }
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() {
            break;
        }
        if b[j] == x {
            count += 1;
            j += 1;
        }
    }
    count
}

/// Dense forward over transposed weights, 4 output lanes per iteration.
/// Per lane: `mul` then `add` in strict `k` order — the scalar fold's
/// exact rounding (FMA would fuse the rounding and change the bits).
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn dense_forward_avx2(
    wt: &[f64],
    bias: &[f64],
    x: &[f64],
    n_out: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(n_out, 0.0);
    let mut o = 0usize;
    // 16 lanes in flight: four independent accumulators hide the `add`
    // latency that a single one serializes on. Each lane's fold is the
    // same strictly-ordered sequence as in the 4-lane loop below.
    while o + 16 <= n_out {
        let mut acc = [_mm256_setzero_pd(); 4];
        for (k, &xk) in x.iter().enumerate() {
            let xv = _mm256_set1_pd(xk);
            let w = wt.as_ptr().add(k * n_out + o);
            for (j, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(xv, _mm256_loadu_pd(w.add(4 * j))));
            }
        }
        for (j, acc) in acc.iter().enumerate() {
            let r = _mm256_add_pd(*acc, _mm256_loadu_pd(bias.as_ptr().add(o + 4 * j)));
            _mm256_storeu_pd(out.as_mut_ptr().add(o + 4 * j), r);
        }
        o += 16;
    }
    while o + 4 <= n_out {
        let mut acc = _mm256_setzero_pd();
        for (k, &xk) in x.iter().enumerate() {
            let w = _mm256_loadu_pd(wt.as_ptr().add(k * n_out + o));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(xk), w));
        }
        let r = _mm256_add_pd(acc, _mm256_loadu_pd(bias.as_ptr().add(o)));
        _mm256_storeu_pd(out.as_mut_ptr().add(o), r);
        o += 4;
    }
    for tail in o..n_out {
        let mut acc = 0.0f64;
        for (k, &xk) in x.iter().enumerate() {
            acc += xk * wt[k * n_out + tail];
        }
        out[tail] = acc + bias[tail];
    }
}

/// Dense forward over transposed weights, 2 output lanes per iteration
/// (same contract as [`dense_forward_avx2`]).
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[target_feature(enable = "sse4.2")]
pub unsafe fn dense_forward_sse42(
    wt: &[f64],
    bias: &[f64],
    x: &[f64],
    n_out: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(n_out, 0.0);
    let mut o = 0usize;
    while o + 2 <= n_out {
        let mut acc = _mm_setzero_pd();
        for (k, &xk) in x.iter().enumerate() {
            let w = _mm_loadu_pd(wt.as_ptr().add(k * n_out + o));
            acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(xk), w));
        }
        let r = _mm_add_pd(acc, _mm_loadu_pd(bias.as_ptr().add(o)));
        _mm_storeu_pd(out.as_mut_ptr().add(o), r);
        o += 2;
    }
    for tail in o..n_out {
        let mut acc = 0.0f64;
        for (k, &xk) in x.iter().enumerate() {
            acc += xk * wt[k * n_out + tail];
        }
        out[tail] = acc + bias[tail];
    }
}

/// `and(d·a, d != 0)`: the product, or `+0.0` where the delta is zero.
/// `NEQ_UQ` is true for NaN, matching Rust's `!=`, so a NaN delta still
/// contributes; a masked lane is `+0.0` even when `a` is ±inf or NaN.
///
/// # Safety
///
/// The CPU must support AVX2, and `a` must point to 4 readable `f64`s.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn masked_mul(dv: __m256d, keep: __m256d, a: *const f64) -> __m256d {
    _mm256_and_pd(_mm256_mul_pd(dv, _mm256_loadu_pd(a)), keep)
}

/// Batched weight-gradient accumulation
/// (`g[o·n_in+k] += d[e·n_out+o]·a[e·n_in+k]`, rows `e` in order), 16
/// `k` lanes per block with the row loop innermost so the block's four
/// accumulators stay in registers across the whole batch.
///
/// The scalar reference skips a zero delta with a branch, which
/// mispredicts about half the time after ReLU. Here a zero delta adds a
/// masked `+0.0` instead. That is the same value: a lane starts at the
/// caller's `g`, which must hold no `−0.0`, and under round-to-nearest a
/// sum is `−0.0` only when both operands are, so the lane never becomes
/// `−0.0` and `x + 0.0 == x` for every value it takes.
///
/// # Safety
///
/// The CPU must support AVX2, `g.len() == n_out·n_in`,
/// `d.len() == m·n_out` and `a.len() == m·n_in`.
#[target_feature(enable = "avx2")]
pub unsafe fn dense_outer_accumulate_avx2(
    g: &mut [f64],
    d: &[f64],
    a: &[f64],
    m: usize,
    n_in: usize,
    n_out: usize,
) {
    let zero = _mm256_setzero_pd();
    for o in 0..n_out {
        let grow = g.as_mut_ptr().add(o * n_in);
        let mut k = 0usize;
        while k + 16 <= n_in {
            let mut acc = [zero; 4];
            for (j, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_loadu_pd(grow.add(k + 4 * j));
            }
            for e in 0..m {
                let dv = _mm256_set1_pd(d[e * n_out + o]);
                let keep = _mm256_cmp_pd::<_CMP_NEQ_UQ>(dv, zero);
                let row = a.as_ptr().add(e * n_in + k);
                for (j, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_add_pd(*acc, masked_mul(dv, keep, row.add(4 * j)));
                }
            }
            for (j, acc) in acc.iter().enumerate() {
                _mm256_storeu_pd(grow.add(k + 4 * j), *acc);
            }
            k += 16;
        }
        while k + 4 <= n_in {
            let mut acc = _mm256_loadu_pd(grow.add(k));
            for e in 0..m {
                let dv = _mm256_set1_pd(d[e * n_out + o]);
                let keep = _mm256_cmp_pd::<_CMP_NEQ_UQ>(dv, zero);
                acc = _mm256_add_pd(acc, masked_mul(dv, keep, a.as_ptr().add(e * n_in + k)));
            }
            _mm256_storeu_pd(grow.add(k), acc);
            k += 4;
        }
        for tail in k..n_in {
            let mut acc = *grow.add(tail);
            for e in 0..m {
                let dv = d[e * n_out + o];
                let p = dv * a[e * n_in + tail];
                acc += if dv != 0.0 { p } else { 0.0 };
            }
            *grow.add(tail) = acc;
        }
    }
}

/// Backward step through one dense layer with row-major weights
/// (`prev[k] = Σ_o d[o]·w[o·n_in+k]` in `o` order, then zeroed where
/// `act[k] <= 0`), 16 `k` lanes per block with the `o` loop innermost.
/// Zero deltas are masked as in [`dense_outer_accumulate_avx2`] (each
/// lane starts at `+0.0`); the ReLU derivative is a select, and
/// `LE_OQ` is false for a NaN activation, matching Rust's `<=`.
///
/// # Safety
///
/// The CPU must support AVX2, `w.len() == d.len()·prev.len()` and
/// `act.len() == prev.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn dense_backward_avx2(w: &[f64], d: &[f64], act: &[f64], prev: &mut [f64]) {
    let n_in = prev.len();
    let zero = _mm256_setzero_pd();
    let out = prev.as_mut_ptr();
    let mut k = 0usize;
    while k + 16 <= n_in {
        let mut acc = [zero; 4];
        for (o, &dv) in d.iter().enumerate() {
            let dv = _mm256_set1_pd(dv);
            let keep = _mm256_cmp_pd::<_CMP_NEQ_UQ>(dv, zero);
            let row = w.as_ptr().add(o * n_in + k);
            for (j, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_pd(*acc, masked_mul(dv, keep, row.add(4 * j)));
            }
        }
        for (j, acc) in acc.iter().enumerate() {
            let dead =
                _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(act.as_ptr().add(k + 4 * j)), zero);
            _mm256_storeu_pd(out.add(k + 4 * j), _mm256_andnot_pd(dead, *acc));
        }
        k += 16;
    }
    while k + 4 <= n_in {
        let mut acc = zero;
        for (o, &dv) in d.iter().enumerate() {
            let dv = _mm256_set1_pd(dv);
            let keep = _mm256_cmp_pd::<_CMP_NEQ_UQ>(dv, zero);
            acc = _mm256_add_pd(acc, masked_mul(dv, keep, w.as_ptr().add(o * n_in + k)));
        }
        let dead = _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(act.as_ptr().add(k)), zero);
        _mm256_storeu_pd(out.add(k), _mm256_andnot_pd(dead, acc));
        k += 4;
    }
    for (tail, &a) in act.iter().enumerate().skip(k) {
        let mut acc = 0.0f64;
        for (o, &dv) in d.iter().enumerate() {
            let p = dv * w[o * n_in + tail];
            acc += if dv != 0.0 { p } else { 0.0 };
        }
        *out.add(tail) = if a <= 0.0 { 0.0 } else { acc };
    }
}
