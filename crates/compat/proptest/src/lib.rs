//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no network access, so this workspace vendors
//! the slice of `proptest` its test suite uses: the [`strategy::Strategy`] trait
//! with `prop_map` / `prop_flat_map`, range and tuple strategies,
//! [`collection::vec`], [`option::of`], [`arbitrary::any`], the
//! [`prop_oneof!`] union macro, and the [`proptest!`] test-harness macro
//! with `prop_assert!` / `prop_assert_eq!`.
//!
//! Semantics differ from upstream in one deliberate way: there is **no
//! shrinking**. A failing case panics with the generated inputs'
//! case number; cases are deterministic per (test name, case index), so
//! failures reproduce exactly on re-run.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::rc::Rc;

/// Strategy combinators and the core generation trait.
pub mod strategy {
    use super::*;

    /// A recipe for generating values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns
        /// for it (dependent generation).
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Erases the strategy type (used by [`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let s = self;
            BoxedStrategy(Rc::new(move |rng: &mut StdRng| s.generate(rng)))
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut StdRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (self.0)(rng)
        }
    }

    /// A uniform choice between type-erased alternatives
    /// (the [`crate::prop_oneof!`] expansion).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    impl<T: rand::SampleUniform> Strategy for std::ops::Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: rand::SampleUniform> Strategy for std::ops::RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

/// `any::<T>()` — uniform over the whole domain of `T`.
pub mod arbitrary {
    use super::*;
    use crate::strategy::Strategy;

    /// Strategy over the full domain of `T` (see [`any`]).
    pub struct Any<T>(PhantomData<T>);

    impl<T: rand::Standard> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen::<T>()
        }
    }

    /// A strategy generating uniformly over `T`'s whole domain.
    pub fn any<T: rand::Standard>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;
    use crate::strategy::Strategy;

    /// A `Vec` length specification: exact or a range.
    #[derive(Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty vec size range");
            SizeRange {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy producing `Vec`s of `element` with a length drawn from
    /// `size` (an exact `usize` or a range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::*;
    use crate::strategy::Strategy;

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            if rng.gen_bool(0.5) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }

    /// A strategy producing `Some(inner)` half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// Test-runner configuration and per-case RNG derivation.
pub mod test_runner {
    use super::*;

    /// Configuration accepted by the [`crate::proptest!`] macro.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-(test, case) RNG: failures reproduce on re-run.
    pub fn rng_for_case(test_name: &str, case: u32) -> StdRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(h ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Asserts a property inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Declares property tests: each `fn name(x in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng =
                        $crate::test_runner::rng_for_case(stringify!($name), __case);
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&$strat, &mut __rng);
                    )*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = crate::test_runner::rng_for_case("bounds", 0);
        for _ in 0..500 {
            let v = Strategy::generate(&(3..9u32), &mut rng);
            assert!((3..9).contains(&v));
            let vs = Strategy::generate(&crate::collection::vec(0..5usize, 2..6), &mut rng);
            assert!((2..6).contains(&vs.len()));
            assert!(vs.iter().all(|&x| x < 5));
            let pair = Strategy::generate(&((0..3u32), (10..12u32)), &mut rng);
            assert!(pair.0 < 3 && (10..12).contains(&pair.1));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let s = prop_oneof![
            (0..1u32).prop_map(|_| "a"),
            (0..1u32).prop_map(|_| "b"),
            (0..1u32).prop_map(|_| "c"),
        ];
        let mut rng = crate::test_runner::rng_for_case("oneof", 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(Strategy::generate(&s, &mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn flat_map_feeds_dependent_strategy() {
        let s = (2..5usize).prop_flat_map(|n| crate::collection::vec(0..10u32, n));
        let mut rng = crate::test_runner::rng_for_case("flat", 0);
        for _ in 0..100 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: args bind, asserts fire, cases run.
        #[test]
        fn macro_smoke(x in 0..100u32, v in crate::collection::vec(0..10u8, 1..4)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
            prop_assert!(!v.is_empty());
        }
    }
}
