//! A small, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the subset of the proptest API its tests actually
//! use: `Strategy` (with `prop_map`), `any`, `Just`, integer-range
//! strategies, tuple and `collection::vec` combinators, `prop_oneof!`,
//! and the `proptest!` test macro. Inputs are drawn from a deterministic
//! per-test RNG (seeded from the test's module path and case index), so
//! failures reproduce across runs. There is no shrinking: a failing case
//! reports its case index and panics with the underlying assertion.

pub mod test_runner {
    /// Test-harness configuration (only `cases` is meaningful here).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Deterministic xorshift/splitmix RNG for input generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds a generator for one `(test, case)` pair. The seed mixes
        /// an FNV-1a hash of the test's name with the case index so every
        /// test and every case draws an independent stream.
        pub fn for_case(test_name: &str, case: u32) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            let mut rng = TestRng {
                state: h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1,
            };
            // Warm the state so nearby seeds diverge.
            rng.next_u64();
            rng.next_u64();
            rng
        }

        /// Next 64 random bits (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Multiply-shift rejection-free mapping is fine for tests.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;
    use core::ops::{Range, RangeInclusive};

    /// A generator of random values of type `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical full-range strategy (see [`any`]).
    pub trait ArbPrimitive: Sized {
        /// Draws a uniformly random value of the full domain.
        fn sample(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl ArbPrimitive for $t {
                fn sample(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbPrimitive for bool {
        fn sample(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 != 0
        }
    }

    /// Strategy produced by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: ArbPrimitive> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample(rng)
        }
    }

    /// The full-range strategy for a primitive type.
    pub fn any<T: ArbPrimitive>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "empty range strategy");
                    (lo + rng.below((hi - lo) as u64) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(lo <= hi, "empty range strategy");
                    (lo + rng.below((hi - lo + 1) as u64) as i128) as $t
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// Weighted choice between boxed strategies (built by `prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
    }

    impl<V> Union<V> {
        /// An empty union; populate with [`Union::or`].
        #[allow(clippy::new_without_default)]
        pub fn new() -> Union<V> {
            Union { arms: Vec::new() }
        }

        /// Adds an arm with the given relative weight.
        pub fn or<S>(mut self, weight: u32, s: S) -> Union<V>
        where
            S: Strategy<Value = V> + 'static,
        {
            assert!(weight > 0, "zero-weight prop_oneof arm");
            self.arms.push((weight, Box::new(s)));
            self
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.below(total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::Range;

    /// Strategy for `Vec`s with random length (see [`vec()`]).
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates `Vec`s whose length is uniform in `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the `#![proptest_config(...)]` header and any number of
/// `fn name(arg in strategy, ...) { body }` items, like the real crate.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let run = || -> () { $body };
                if let Err(payload) =
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run))
                {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed",
                        case,
                        config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Picks between strategies producing the same value type, optionally
/// weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or($weight, $arm))+
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or(1, $arm))+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = (3u8..7).generate(&mut rng);
            assert!((3..7).contains(&v));
            let i = (-31i8..31).generate(&mut rng);
            assert!((-31..31).contains(&i));
            let x = (0u8..=31).generate(&mut rng);
            assert!(x <= 31);
        }
    }

    #[test]
    fn deterministic_per_case() {
        let a: Vec<u32> = crate::collection::vec(any::<u32>(), 4..9)
            .generate(&mut crate::test_runner::TestRng::for_case("t", 5));
        let b: Vec<u32> = crate::collection::vec(any::<u32>(), 4..9)
            .generate(&mut crate::test_runner::TestRng::for_case("t", 5));
        assert_eq!(a, b);
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = crate::test_runner::TestRng::for_case("arms", 0);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(s.generate(&mut rng) - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_round_trip(v in crate::collection::vec(any::<u8>(), 1..16), x in 0u32..10) {
            prop_assert!(!v.is_empty() && v.len() < 16);
            prop_assert!(x < 10);
            prop_assert_eq!(x, x);
        }
    }
}
