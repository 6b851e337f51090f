//! Runtime-dispatched compute kernels for MARIOH's per-round hot paths
//! and the classifier fit.
//!
//! Every kernel here exists in (at least) two implementations:
//!
//! * a **scalar reference** ([`scalar`]) — the simplest correct loop,
//!   kept verbatim as the semantic ground truth and as the baseline the
//!   benches compare against;
//! * a **dispatched fast path** — the free functions at the crate root,
//!   which select an implementation once per process from the CPU's
//!   capabilities ([`Level::Avx2`] / [`Level::Sse42`] via
//!   `is_x86_feature_detected!`) with a branchless + galloping portable
//!   fallback ([`Level::Portable`]) everywhere else.
//!
//! Selection happens on the first kernel call and is cached in an
//! atomic; setting `MARIOH_NO_SIMD=1` in the environment forces
//! [`Level::Portable`] (no `unsafe`, no vector instructions), and
//! [`override_level`] re-points the dispatch at runtime (the benches use
//! it to time the same process both ways).
//!
//! # Bit-identity contract
//!
//! Every fast path is **bit-identical** to its scalar reference, for all
//! inputs — not approximately equal, identical. The parity suite
//! (`tests/parity.rs`) and the callers' engine/round-parity suites
//! assert it. Two rules make that hold:
//!
//! * **Integer kernels** ([`intersect_min_sum`], [`intersect_count`],
//!   [`intersect_into`], [`find_positions`]) accumulate in `u64`/`usize`
//!   — addition is associative, so galloping, block-skipping and
//!   vectorization are free to reorder the traversal.
//! * **Float kernels** ([`dense_forward`], [`dense_outer_accumulate`],
//!   [`dense_backward`]) must keep each output lane's accumulation
//!   **strictly sequential**: lane `o` of the forward pass computes
//!   `(((0 + x₀·w₀ₒ) + x₁·w₁ₒ) + …) + bₒ`, exactly the scalar fold.
//!   Vectorization is only allowed *across* independent output lanes,
//!   never across the terms of one lane's sum, and fused multiply-add
//!   is forbidden (FMA rounds once where `mul`+`add` rounds twice,
//!   which would change the bits). Any new float kernel added to this
//!   crate must obey the same sequential-accumulation contract. Where a
//!   scalar reference skips a zero term with a branch, a vector path
//!   may add a masked `+0.0` instead, as long as its accumulator can
//!   never be `−0.0` (the one value `x + 0.0` changes).
//!
//! The crate also hosts the process's CPU-affinity primitive
//! ([`pin_to_core`]): a raw `sched_setaffinity` syscall on
//! linux-x86_64, a graceful no-op everywhere else. It lives here
//! because this is the one crate that is allowed to know what an ISA
//! is.

#![warn(missing_docs)]

mod affinity;
mod portable;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use affinity::{available_cores, pin_to_core};

use std::sync::atomic::{AtomicU8, Ordering};

/// A dispatch level: which implementation family the free functions at
/// the crate root route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The scalar reference loops — never auto-selected; reachable only
    /// through [`override_level`] (the benches' in-process baseline).
    Scalar,
    /// Branchless two-pointer + galloping, no `unsafe`. Auto-selected
    /// when SIMD is unavailable or `MARIOH_NO_SIMD=1` is set.
    Portable,
    /// SSE4.2 (128-bit) vector paths.
    Sse42,
    /// AVX2 (256-bit) vector paths.
    Avx2,
}

impl Level {
    /// A short stable name (`"avx2"`, `"sse4.2"`, `"portable"`,
    /// `"scalar"`), for logs and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Portable => "portable",
            Level::Sse42 => "sse4.2",
            Level::Avx2 => "avx2",
        }
    }
}

const LEVEL_UNINIT: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_PORTABLE: u8 = 2;
const LEVEL_SSE42: u8 = 3;
const LEVEL_AVX2: u8 = 4;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

fn detect() -> Level {
    if std::env::var("MARIOH_NO_SIMD").as_deref() == Ok("1") {
        return Level::Portable;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return Level::Sse42;
        }
    }
    Level::Portable
}

fn encode(level: Level) -> u8 {
    match level {
        Level::Scalar => LEVEL_SCALAR,
        Level::Portable => LEVEL_PORTABLE,
        Level::Sse42 => LEVEL_SSE42,
        Level::Avx2 => LEVEL_AVX2,
    }
}

/// The active dispatch level, detecting (and caching) it on first use.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_SCALAR => Level::Scalar,
        LEVEL_PORTABLE => Level::Portable,
        LEVEL_SSE42 => Level::Sse42,
        LEVEL_AVX2 => Level::Avx2,
        _ => {
            let detected = detect();
            // A concurrent first call detects the same thing; last
            // store wins harmlessly.
            LEVEL.store(encode(detected), Ordering::Relaxed);
            detected
        }
    }
}

/// Re-points the dispatch at `new_level`, process-wide, overriding both
/// detection and `MARIOH_NO_SIMD`. Selecting [`Level::Avx2`] /
/// [`Level::Sse42`] on a CPU without those features is the caller's
/// responsibility (the benches only ever *lower* the level).
pub fn override_level(new_level: Level) {
    LEVEL.store(encode(new_level), Ordering::Relaxed);
}

/// The active level's short name — convenience for logs and benches.
pub fn active() -> &'static str {
    level().name()
}

// ---------------------------------------------------------------------
// Sorted-set intersection kernels.
//
// All of them take strictly-increasing u32 slices. Weight slices run
// parallel to their neighbour slices. Sums are u64 so the traversal
// order is free (bit-identity by associativity).
// ---------------------------------------------------------------------

/// When one side is at least this many times longer than the other, the
/// merge gallops (exponential-probe binary search) through the long
/// side instead of scanning it.
pub(crate) const GALLOP_RATIO: usize = 32;

/// `Σ min(wa[i], wb[j])` over all positions with `a[i] == b[j]` — the
/// MHH inner sum (Lemma 1's upper bound) for two CSR rows.
pub fn intersect_min_sum(a: &[u32], wa: &[u32], b: &[u32], wb: &[u32]) -> u64 {
    debug_assert_eq!(a.len(), wa.len());
    debug_assert_eq!(b.len(), wb.len());
    match level() {
        Level::Scalar => scalar::intersect_min_sum(a, wa, b, wb),
        Level::Portable => portable::intersect_min_sum(a, wa, b, wb),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns these after feature detection.
        Level::Sse42 => unsafe { x86::intersect_min_sum_sse42(a, wa, b, wb) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::intersect_min_sum_avx2(a, wa, b, wb) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Sse42 | Level::Avx2 => portable::intersect_min_sum(a, wa, b, wb),
    }
}

/// `|a ∩ b|` for two sorted slices — common-neighbour counting and the
/// Bron–Kerbosch pivot score.
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    match level() {
        Level::Scalar => scalar::intersect_count(a, b),
        Level::Portable => portable::intersect_count(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns these after feature detection.
        Level::Sse42 => unsafe { x86::intersect_count_sse42(a, b) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::intersect_count_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Sse42 | Level::Avx2 => portable::intersect_count(a, b),
    }
}

/// Appends `a ∩ b` (sorted) to `out` — the Bron–Kerbosch candidate-set
/// refinement. Integer and order-preserving, so every level produces
/// identical output; the fast levels share the galloping merge.
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    match level() {
        Level::Scalar => scalar::intersect_into(a, b, out),
        _ => portable::intersect_into(a, b, out),
    }
}

/// For each `needles[i]` (sorted, and guaranteed present), appends its
/// index within `haystack` to `out` — one merge instead of a binary
/// search per needle. Backs the multiplicity-feature slot lookup, where
/// the needles are a clique's co-members inside one CSR row.
///
/// # Panics
///
/// Debug builds assert every needle is found; release builds skip
/// missing needles (the caller's clique contract makes that unreachable).
pub fn find_positions(needles: &[u32], haystack: &[u32], out: &mut Vec<u32>) {
    match level() {
        Level::Scalar => scalar::find_positions(needles, haystack, out),
        _ => portable::find_positions(needles, haystack, out),
    }
}

// ---------------------------------------------------------------------
// Dense-layer kernels: the forward pass and the two backward steps.
// ---------------------------------------------------------------------

/// One dense-layer forward pass over **transposed** (column-major)
/// weights: `out[o] = (Σ_k x[k]·wt[k·n_out + o]) + bias[o]`, with each
/// lane's sum folded strictly in `k` order from `0.0` (the
/// sequential-accumulation contract — see the crate docs). Vector
/// levels run 16 (AVX2) or 2 (SSE4.2) output lanes at once with
/// separate `mul` and `add` (no FMA), so every lane's rounding matches
/// the scalar fold bit for bit.
///
/// `out` is cleared first; `x.len() · n_out == wt.len()` and
/// `bias.len() == n_out` are the caller's contract (debug-asserted).
pub fn dense_forward(wt: &[f64], bias: &[f64], x: &[f64], n_out: usize, out: &mut Vec<f64>) {
    debug_assert_eq!(wt.len(), x.len() * n_out);
    debug_assert_eq!(bias.len(), n_out);
    match level() {
        Level::Scalar | Level::Portable => scalar::dense_forward(wt, bias, x, n_out, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns these after feature detection.
        Level::Sse42 => unsafe { x86::dense_forward_sse42(wt, bias, x, n_out, out) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::dense_forward_avx2(wt, bias, x, n_out, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Sse42 | Level::Avx2 => scalar::dense_forward(wt, bias, x, n_out, out),
    }
}

/// Batched weight-gradient accumulation for one dense layer: for rows
/// `e = 0..m` in order, `g[o·n_in + k] += d[e·n_out + o]·a[e·n_in + k]`,
/// where a row whose delta `d[e·n_out + o]` is zero (`== 0.0`, so also
/// `−0.0`, but not NaN) adds nothing. `g` is the row-major `n_out × n_in`
/// gradient, `d` the batch's `m × n_out` deltas and `a` its `m × n_in`
/// layer inputs. Each gradient entry folds its rows strictly in order,
/// so the result is bit-identical to accumulating example by example.
/// The AVX2 path runs 16 `k` lanes with the row loop innermost; other
/// levels run the scalar reference.
///
/// `g` must hold no `−0.0` (a zeroed gradient never does): the vector
/// path adds a masked `+0.0` for a zero delta, which would turn `−0.0`
/// into `+0.0`.
///
/// # Panics
///
/// Panics unless `g.len() == n_out·n_in`, `d.len() == m·n_out` and
/// `a.len() == m·n_in`.
pub fn dense_outer_accumulate(
    g: &mut [f64],
    d: &[f64],
    a: &[f64],
    m: usize,
    n_in: usize,
    n_out: usize,
) {
    assert!(
        g.len() == n_out * n_in && d.len() == m * n_out && a.len() == m * n_in,
        "dense_outer_accumulate: buffer lengths do not match the shape"
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns Avx2 after feature detection;
        // the lengths are checked above.
        Level::Avx2 => unsafe { x86::dense_outer_accumulate_avx2(g, d, a, m, n_in, n_out) },
        _ => scalar::dense_outer_accumulate(g, d, a, m, n_in, n_out),
    }
}

/// One example's backward step through a dense layer with **row-major**
/// weights `w` (`n_out × n_in`): `prev[k] = Σ_o d[o]·w[o·n_in + k]`,
/// folded in `o` order from `0.0` and skipping `d[o] == 0.0`, then
/// `prev[k] = 0.0` wherever `act[k] <= 0.0` (the ReLU derivative of the
/// layer's input). `n_out = d.len()`, `n_in = prev.len()`. The AVX2
/// path runs 16 `k` lanes with the `o` loop innermost and replaces both
/// branches by masks; other levels run the scalar reference.
///
/// # Panics
///
/// Panics unless `w.len() == d.len()·prev.len()` and
/// `act.len() == prev.len()`.
pub fn dense_backward(w: &[f64], d: &[f64], act: &[f64], prev: &mut [f64]) {
    assert!(
        w.len() == d.len() * prev.len() && act.len() == prev.len(),
        "dense_backward: buffer lengths do not match the shape"
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns Avx2 after feature detection;
        // the lengths are checked above.
        Level::Avx2 => unsafe { x86::dense_backward_avx2(w, d, act, prev) },
        _ => scalar::dense_backward(w, d, act, prev),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test: `override_level` is process-global, so
    // asserting detection and override behaviour from parallel tests
    // would race.
    #[test]
    fn detection_caches_and_override_round_trips() {
        let first = level();
        assert_ne!(first, Level::Scalar, "scalar is override-only");
        assert_eq!(level(), first, "cached level is stable");
        assert_eq!(active(), first.name());
        for l in [Level::Scalar, Level::Portable, first] {
            override_level(l);
            assert_eq!(level(), l);
            assert_eq!(active(), l.name());
        }
    }

    #[test]
    fn level_names_are_stable() {
        assert_eq!(Level::Avx2.name(), "avx2");
        assert_eq!(Level::Sse42.name(), "sse4.2");
        assert_eq!(Level::Portable.name(), "portable");
        assert_eq!(Level::Scalar.name(), "scalar");
    }
}
