//! Property tests: every dispatched kernel is **bit-identical** to its
//! scalar reference — for random CSR-shaped rows, skewed lengths,
//! hole-compacted (short, arbitrary-prefix) rows, values at the top of
//! the u32 domain (the unsigned-compare bias trick), and MLP layer
//! widths 1–64 — forward, and both backward steps with the zero, −0.0,
//! NaN and ±inf inputs that pin their zero-delta skip.
//!
//! Each case checks the ambient dispatch level (CI runs this suite
//! twice: once with detection on, once under `MARIOH_NO_SIMD=1`) *and*
//! every level the CPU supports, forced via `override_level` under a
//! process-global lock.

use marioh_kernels as kernels;
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::ops::RangeInclusive;
use std::sync::Mutex;

/// `override_level` is process-global; forced-level tests serialize on
/// this (racing overrides could only swap between parity-correct
/// levels, but deterministic tests beat accidentally-correct ones).
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Every level this CPU can actually run, plus the ambient one.
fn forced_levels() -> Vec<kernels::Level> {
    let mut levels = vec![kernels::Level::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            levels.push(kernels::Level::Sse42);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(kernels::Level::Avx2);
        }
    }
    levels
}

/// Runs `check` under every supported level, restoring the previous
/// level afterwards.
fn at_every_level(check: impl Fn()) {
    check(); // ambient level first (MARIOH_NO_SIMD is honoured here)
    let _guard = LEVEL_LOCK.lock().expect("level lock");
    let prev = kernels::level();
    for level in forced_levels() {
        kernels::override_level(level);
        check();
    }
    kernels::override_level(prev);
}

/// A sorted, strictly-increasing neighbour row with parallel weights,
/// drawn from `domain` (narrow domains force dense intersections).
fn weighted_row(
    domain: RangeInclusive<u32>,
    max_len: usize,
) -> BoxedStrategy<(Vec<u32>, Vec<u32>)> {
    collection::vec((domain, 1u32..=u32::MAX), 0..max_len + 1)
        .prop_map(|mut pairs| {
            pairs.sort_unstable_by_key(|p| p.0);
            pairs.dedup_by_key(|p| p.0);
            pairs.into_iter().unzip()
        })
        .boxed()
}

/// Row pairs across the length regimes the dispatcher switches on:
/// similar lengths (branchless), moderate skew (SIMD cursor advance),
/// extreme skew (galloping), and top-of-u32 values.
#[allow(clippy::type_complexity)]
fn row_pair() -> BoxedStrategy<((Vec<u32>, Vec<u32>), (Vec<u32>, Vec<u32>))> {
    let top = u32::MAX - 400;
    prop_oneof![
        (weighted_row(0..=300, 200), weighted_row(0..=300, 200)),
        (weighted_row(0..=900, 12), weighted_row(0..=900, 700)),
        (weighted_row(0..=2000, 6), weighted_row(0..=2000, 1500)),
        (
            weighted_row(top..=u32::MAX, 64),
            weighted_row(top..=u32::MAX, 300)
        ),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn intersect_min_sum_matches_scalar(rows in row_pair()) {
        let ((a, wa), (b, wb)) = rows;
        let want = kernels::scalar::intersect_min_sum(&a, &wa, &b, &wb);
        at_every_level(|| {
            assert_eq!(
                kernels::intersect_min_sum(&a, &wa, &b, &wb),
                want,
                "min_sum diverged at level {}",
                kernels::active()
            );
        });
    }

    #[test]
    fn intersect_count_matches_scalar(rows in row_pair()) {
        let ((a, _), (b, _)) = rows;
        let want = kernels::scalar::intersect_count(&a, &b);
        at_every_level(|| {
            assert_eq!(
                kernels::intersect_count(&a, &b),
                want,
                "count diverged at level {}",
                kernels::active()
            );
        });
    }

    #[test]
    fn intersect_into_matches_scalar(rows in row_pair()) {
        let ((a, _), (b, _)) = rows;
        let mut want = Vec::new();
        kernels::scalar::intersect_into(&a, &b, &mut want);
        at_every_level(|| {
            let mut got = Vec::new();
            kernels::intersect_into(&a, &b, &mut got);
            assert_eq!(got, want, "intersect_into diverged at level {}", kernels::active());
        });
    }

    #[test]
    fn find_positions_matches_scalar(
        entries in collection::vec((0u32..=5000, 0u8..2), 1..400),
    ) {
        // The haystack is every generated value; the needles are the
        // flagged subset — sorted, unique, and all present, exactly the
        // clique-row contract.
        let mut entries = entries;
        entries.sort_unstable_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        let haystack: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let needles: Vec<u32> = entries.iter().filter(|e| e.1 == 1).map(|e| e.0).collect();
        let mut want = Vec::new();
        kernels::scalar::find_positions(&needles, &haystack, &mut want);
        at_every_level(|| {
            let mut got = Vec::new();
            kernels::find_positions(&needles, &haystack, &mut got);
            assert_eq!(got, want, "find_positions diverged at level {}", kernels::active());
        });
    }

    #[test]
    fn dense_forward_matches_scalar_across_widths(
        dims in (width(), output_width()),
        seed in 0u64..1_000_000,
    ) {
        // Sized buffers follow the widths, so fill them from a seeded
        // RNG instead of a dependent strategy.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (n_in, n_out) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect()
        };
        let wt = draw(n_in * n_out);
        let bias = draw(n_out);
        let x = draw(n_in);
        let mut want = Vec::new();
        kernels::scalar::dense_forward(&wt, &bias, &x, n_out, &mut want);
        at_every_level(|| {
            let mut got = Vec::new();
            kernels::dense_forward(&wt, &bias, &x, n_out, &mut got);
            let identical = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(
                identical,
                "dense_forward not bit-identical at level {} (n_in {n_in}, n_out {n_out})",
                kernels::active()
            );
        });
    }

    #[test]
    fn dense_outer_accumulate_matches_scalar(
        dims in (width(), width(), 1usize..=64),
        seed in 0u64..1_000_000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (n_in, n_out, m) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = deltas(&mut rng, m, n_out);
        // Activations: ordinary values, with ±inf/NaN planted in the
        // rows whose deltas are all zero (±0.0) — they must add nothing
        // — and, rarely, anywhere.
        let mut a = Vec::with_capacity(m * n_in);
        for e in 0..m {
            let dead_row = d[e * n_out..(e + 1) * n_out].iter().all(|&v| v == 0.0);
            for _ in 0..n_in {
                let special = if dead_row { 0.3 } else { 0.01 };
                a.push(if rng.gen_bool(special) {
                    SPECIALS[rng.gen_range(0..SPECIALS.len())]
                } else {
                    rng.gen_range(-3.0..3.0)
                });
            }
        }
        // The gradient accumulates into what is already there; the
        // kernel's contract excludes −0.0.
        let g0: Vec<f64> = (0..n_in * n_out)
            .map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-3.0..3.0) })
            .collect();
        let mut want = g0.clone();
        kernels::scalar::dense_outer_accumulate(&mut want, &d, &a, m, n_in, n_out);
        at_every_level(|| {
            let mut got = g0.clone();
            kernels::dense_outer_accumulate(&mut got, &d, &a, m, n_in, n_out);
            assert!(
                same_bits(&got, &want),
                "dense_outer_accumulate not bit-identical at level {} \
                 (m {m}, n_in {n_in}, n_out {n_out})",
                kernels::active()
            );
        });
    }

    #[test]
    fn dense_backward_matches_scalar(
        dims in (width(), width()),
        seed in 0u64..1_000_000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (n_in, n_out) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = deltas(&mut rng, 1, n_out);
        // Weight rows under a zero delta carry ±inf/NaN: skipped, they
        // must not reach `prev`.
        let mut w = Vec::with_capacity(n_out * n_in);
        for &dv in &d {
            for _ in 0..n_in {
                w.push(if dv == 0.0 && rng.gen_bool(0.3) {
                    SPECIALS[rng.gen_range(0..SPECIALS.len())]
                } else {
                    rng.gen_range(-3.0..3.0)
                });
            }
        }
        // ReLU outputs are ≥ 0; the edge cases are exact (±)0 and NaN.
        let act: Vec<f64> = (0..n_in)
            .map(|_| match rng.gen_range(0u8..8) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => f64::NAN,
                4 => -1.0,
                _ => rng.gen_range(0.0..3.0),
            })
            .collect();
        let mut want = vec![42.0; n_in];
        kernels::scalar::dense_backward(&w, &d, &act, &mut want);
        at_every_level(|| {
            let mut got = vec![-7.0; n_in];
            kernels::dense_backward(&w, &d, &act, &mut got);
            assert!(
                same_bits(&got, &want),
                "dense_backward not bit-identical at level {} (n_in {n_in}, n_out {n_out})",
                kernels::active()
            );
        });
    }
}

/// A layer width in 1–64, biased toward the three feature dimensions
/// (13, 18, 23) and the classifier's widest layer (64).
fn width() -> BoxedStrategy<usize> {
    prop_oneof![1usize..=64, (0usize..4).prop_map(|i| [13, 18, 23, 64][i])].boxed()
}

/// An output width up to 80, biased toward the AVX2 forward path's
/// 16-lane block boundaries and the 4-lane and scalar tails behind them.
fn output_width() -> BoxedStrategy<usize> {
    const EDGES: [usize; 10] = [4, 15, 16, 17, 20, 31, 32, 35, 64, 67];
    prop_oneof![1usize..=80, (0..EDGES.len()).prop_map(|i| EDGES[i])].boxed()
}

/// Values a zero delta must not let through: `0·x` is NaN for these.
const SPECIALS: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// An `m × n_out` delta matrix: whole rows of ±0.0 (an example whose
/// ReLU killed every unit), scattered +0.0 and −0.0 entries, the odd
/// NaN (which must still propagate, as `NaN != 0.0`), and ordinary
/// values.
fn deltas(rng: &mut impl rand::Rng, m: usize, n_out: usize) -> Vec<f64> {
    let mut d = Vec::with_capacity(m * n_out);
    for _ in 0..m {
        let zero_row = rng.gen_bool(0.2);
        for _ in 0..n_out {
            d.push(match rng.gen_range(0u8..10) {
                _ if zero_row => [0.0, -0.0][rng.gen_range(0..2)],
                0..=2 => 0.0,
                3 => -0.0,
                4 if rng.gen_bool(0.1) => f64::NAN,
                _ => rng.gen_range(-3.0..3.0),
            });
        }
    }
    d
}

/// Bit-for-bit equality, except that any NaN matches any NaN: which
/// operand's payload a NaN-producing `mul` keeps is the compiler's
/// choice, not the kernel's.
fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

#[test]
fn empty_and_degenerate_inputs() {
    let empty: [u32; 0] = [];
    let row = [1u32, 5, 9];
    let w = [2u32, 3, 4];
    at_every_level(|| {
        assert_eq!(kernels::intersect_min_sum(&empty, &empty, &row, &w), 0);
        assert_eq!(kernels::intersect_min_sum(&row, &w, &empty, &empty), 0);
        assert_eq!(kernels::intersect_count(&empty, &row), 0);
        let mut out = Vec::new();
        kernels::intersect_into(&row, &empty, &mut out);
        assert!(out.is_empty());
        kernels::find_positions(&empty, &row, &mut out);
        assert!(out.is_empty());
        let mut dense = vec![42.0];
        kernels::dense_forward(&[], &[], &[], 0, &mut dense);
        assert!(dense.is_empty(), "n_out = 0 clears the output");
        let mut g = [1.5, 2.5];
        kernels::dense_outer_accumulate(&mut g, &[], &[], 0, 2, 1);
        assert_eq!(g, [1.5, 2.5], "an empty batch adds nothing");
        let mut prev = [9.0; 3];
        kernels::dense_backward(&[], &[], &[0.0, 1.0, f64::NAN], &mut prev);
        assert_eq!(prev.map(f64::to_bits), [0.0f64; 3].map(f64::to_bits));
    });
}
