//! A tiny, dependency-free stand-in for the [`proptest`][upstream] crate.
//!
//! This workspace builds in fully offline environments, so it cannot pull
//! the real `proptest` from crates.io. This crate re-implements the subset
//! of the proptest API the workspace's property tests actually use:
//!
//! * the [`proptest!`] macro with `#![proptest_config(..)]` and
//!   `arg in strategy` bindings;
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`];
//! * range strategies (`0usize..8`, `-1.0f32..1.0`, `1u32..=64`),
//!   [`any`], tuple strategies, [`collection::vec`], [`sample::select`],
//!   and [`Just`];
//! * [`ProptestConfig::with_cases`].
//!
//! Unlike upstream there is no shrinking: a failing case reports the exact
//! generated inputs (which are reproducible — generation is seeded from the
//! test name), which is enough to pin down and replay a failure.
//!
//! [upstream]: https://docs.rs/proptest

#![forbid(unsafe_code)]

use core::fmt::Debug;
use core::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// A `PROPTEST_SEED` value: a decimal `u64`, or hexadecimal after `0x`
/// (`0X`), surrounding whitespace ignored.
///
/// # Panics
///
/// Panics, naming the value, on anything else.
#[must_use]
pub fn parse_seed(value: &str) -> u64 {
    let v = value.trim();
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|_| {
        panic!("PROPTEST_SEED={value:?} is neither a decimal nor a 0x-hexadecimal u64")
    })
}

/// The deterministic generator driving test-case generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from raw state.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Seeds deterministically from a test name (and the optional
    /// `PROPTEST_SEED` environment variable, for exploring other sequences).
    ///
    /// # Panics
    ///
    /// Panics if `PROPTEST_SEED` is set but not a seed [`parse_seed`]
    /// reads: a seed that is silently ignored explores nothing new.
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Ok(extra) = std::env::var("PROPTEST_SEED") {
            h ^= parse_seed(&extra).rotate_left(17);
        }
        Self::from_seed(h)
    }

    /// Next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full-width range: any value.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + (rng.unit_f64() as $t) * (hi - lo)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        // Finite, well-spread values; upstream's NaN/inf corners are not
        // needed by this workspace's tests.
        ((rng.unit_f64() - 0.5) * 2.0e6) as f32
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        (rng.unit_f64() - 0.5) * 2.0e12
    }
}

/// Strategy for an unconstrained value of `T` (see [`any`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the unconstrained strategy for `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// Size specifications accepted by [`collection::vec`].
pub trait SizeRange {
    /// Draws a concrete length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        Strategy::generate(self, rng)
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        Strategy::generate(self, rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use core::fmt::Debug;

    /// Strategy for `Vec<T>` with element strategy `S` and a size range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(element, size)` — a vector whose length is drawn from `size` and
    /// whose elements come from `element`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};
    use core::fmt::Debug;

    /// Strategy choosing uniformly among fixed options.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone + Debug> {
        options: Vec<T>,
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }

    /// `select(options)` — one of the given values, uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() needs at least one option");
        Select { options }
    }
}

// ---------------------------------------------------------------------------
// Config and failure plumbing
// ---------------------------------------------------------------------------

/// Runner configuration (only `cases` is interpreted).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A test-case failure produced by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with a message.
    #[must_use]
    pub fn fail(message: String) -> Self {
        Self { message }
    }
}

impl core::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Everything a property test file needs, mirroring upstream's prelude.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, proptest, sample, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `body` over generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                    let mut inputs = String::new();
                    $(
                        inputs.push_str("  ");
                        inputs.push_str(stringify!($arg));
                        inputs.push_str(" = ");
                        inputs.push_str(&format!("{:?}", &$arg));
                        inputs.push('\n');
                    )+
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!(
                            "property '{}' failed at case {case}: {e}\ninputs:\n{inputs}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test, reporting generated inputs on
/// failure instead of panicking on the spot.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{parse_seed, TestRng};

    #[test]
    fn seeds_read_as_decimal_or_hex() {
        assert_eq!(parse_seed("12648430"), 0x00C0_FFEE);
        assert_eq!(parse_seed(" 0x00C0FFEE\n"), 0x00C0_FFEE);
        assert_eq!(parse_seed("0XFA57F00D"), 0xFA57_F00D);
        assert_eq!(parse_seed("0xffffffffffffffff"), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "PROPTEST_SEED=\"0xC0FFEG\" is neither")]
    fn a_seed_that_reads_as_nothing_panics() {
        let _ = parse_seed("0xC0FFEG");
    }

    #[test]
    #[should_panic(expected = "is neither a decimal nor a 0x-hexadecimal u64")]
    fn a_seed_past_u64_panics() {
        let _ = parse_seed("18446744073709551616");
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = (3usize..10).generate(&mut rng);
            assert!((3..10).contains(&v));
            let w = (1u32..=64).generate(&mut rng);
            assert!((1..=64).contains(&w));
            let f = (-2.0f32..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_and_select_strategies() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..100 {
            let v = collection::vec(0u8..=4, 1..64).generate(&mut rng);
            assert!(!v.is_empty() && v.len() < 64);
            assert!(v.iter().all(|&x| x <= 4));
            let s = sample::select(vec![256usize, 512, 1024]).generate(&mut rng);
            assert!([256, 512, 1024].contains(&s));
        }
    }

    #[test]
    fn tuples_compose() {
        let mut rng = TestRng::from_seed(3);
        let (a, b, c) = (0usize..8, any::<u64>(), 1u32..=64).generate(&mut rng);
        assert!(a < 8);
        let _ = b;
        assert!((1..=64).contains(&c));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(
            xs in collection::vec(-10.0f32..10.0, 0..50),
            k in any::<u32>()
        ) {
            prop_assert!(xs.len() < 50);
            prop_assert_eq!(k, k);
            prop_assert_ne!(k as u64 + 1, u64::from(k));
            for x in &xs {
                prop_assert!((-10.0..10.0).contains(x), "out of range: {x}");
            }
        }
    }
}
