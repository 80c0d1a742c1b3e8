//! Offline, API-compatible subset of the [`proptest`] property-testing
//! crate.
//!
//! This workspace builds in environments without network access, so the
//! real `proptest` cannot be fetched from crates.io. This crate implements
//! the slice of its API the test suites actually use — the [`proptest!`]
//! macro, [`Strategy`] with `prop_map` / `prop_flat_map` / `prop_filter`,
//! integer/float range strategies, [`any`], tuple strategies and
//! [`collection::vec`] — on top of the workspace's deterministic
//! [`apx_rng::Xoshiro256`] generator.
//!
//! Differences from the real crate (deliberate, to stay small):
//!
//! * no shrinking — a failing case reports its inputs via the assertion
//!   message only;
//! * generation is deterministic per test (seeded from the test name), so
//!   failures always reproduce;
//! * strategies are plain value generators, not value trees.
//!
//! [`proptest`]: https://docs.rs/proptest

use apx_rng::Xoshiro256;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// The deterministic random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: Xoshiro256,
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self { inner: Xoshiro256::from_seed(seed) }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.f64()
    }

    /// Uniform integer in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.inner.gen_range(bound as usize) as u64
    }
}

/// Error raised by a single generated test case.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion; the test panics with this message.
    Fail(String),
    /// The case was rejected (`prop_assume!` / filter); it is re-drawn.
    Reject(String),
}

impl TestCaseError {
    /// A failing case with the given message.
    #[must_use]
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (skipped, re-drawn) case.
    #[must_use]
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` accepted cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// FNV-1a hash of the test name — the deterministic per-test seed.
#[must_use]
pub fn seed_of(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drives the generate/run loop of one `proptest!` test function.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    name: &'static str,
}

impl TestRunner {
    /// A runner for the named test.
    #[must_use]
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        Self { config, name }
    }

    /// Runs `f` until `config.cases` cases were accepted.
    ///
    /// # Panics
    ///
    /// Panics when a case fails, or when rejection (via `prop_assume!`)
    /// starves generation.
    pub fn run<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut rng = TestRng::from_seed(seed_of(self.name));
        let mut accepted = 0u32;
        let max_attempts = self.config.cases.saturating_mul(20).max(1024);
        let mut attempts = 0u32;
        while accepted < self.config.cases {
            attempts += 1;
            assert!(
                attempts <= max_attempts,
                "proptest '{}': too many rejected cases ({accepted} accepted of {} wanted)",
                self.name,
                self.config.cases
            );
            match f(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{}' failed at case {accepted}: {msg}", self.name)
                }
            }
        }
    }
}

/// A generator of values of type [`Strategy::Value`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value and runs the strategy `f` returns.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Re-draws until `f` accepts the value.
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, whence, f }
    }

    /// Boxes the strategy behind a trait object.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter '{}' rejected 10000 consecutive samples", self.whence)
    }
}

/// See [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Box<dyn StrategyObject<Value = T>>);

/// Object-safe view of [`Strategy`] used by [`BoxedStrategy`].
trait StrategyObject {
    type Value;
    fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> StrategyObject for S {
    type Value = S::Value;
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// Types with a canonical "uniform over the whole domain" strategy.
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for the full domain of `T` (`any::<u64>()` etc.).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(PhantomData<T>);

/// The canonical strategy of `T` — every value equally likely.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + i128::from(rng.below(span))) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = hi as i128 - lo as i128 + 1;
                if span > i128::from(u64::MAX) {
                    // Full 64-bit domain (e.g. `0u64..=u64::MAX`): every
                    // bit pattern is in range, so draw one directly.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + i128::from(rng.below(span as u64))) as $t
            }
        }
    )*};
}
int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.f64() as $t) * (self.end - self.start)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + (rng.f64() as $t) * (hi - lo)
            }
        }
    )*};
}
float_range_strategies!(f32, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3), (A.0, B.1, C.2, D.3, E.4));

/// A single fixed value (`Just(x)`).
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self { lo: *r.start(), hi: *r.end() }
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let n = self.size.lo + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `Vec` of values drawn from `elem`, with a length drawn from
    /// `size` (a fixed `usize`, `a..b` or `a..=b`).
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }
}

/// The common import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Defines property-based test functions.
///
/// Supports the standard shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u32..10, v in proptest::collection::vec(0.0f64..1.0, 16)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg(::core::default::Default::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::new(config, stringify!($name));
                runner.run(|prop_rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), prop_rng);)*
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {} at {}:{}",
                ::core::stringify!($cond),
                ::core::file!(),
                ::core::line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {} — {} at {}:{}",
                ::core::stringify!($cond),
                ::std::format!($($fmt)+),
                ::core::file!(),
                ::core::line!()
            )));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?}) at {}:{}",
                ::core::stringify!($a),
                ::core::stringify!($b),
                left,
                right,
                ::core::file!(),
                ::core::line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?}) — {} at {}:{}",
                ::core::stringify!($a),
                ::core::stringify!($b),
                left,
                right,
                ::std::format!($($fmt)+),
                ::core::file!(),
                ::core::line!()
            )));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{} != {}` (both: {:?}) at {}:{}",
                ::core::stringify!($a),
                ::core::stringify!($b),
                left,
                ::core::file!(),
                ::core::line!()
            )));
        }
    }};
}

/// Skips (re-draws) the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(::core::stringify!(
                $cond
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = (3u32..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (-5i64..=5).generate(&mut rng);
            assert!((-5..=5).contains(&w));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn full_domain_inclusive_ranges_do_not_overflow() {
        let mut rng = TestRng::from_seed(11);
        let mut any_high = false;
        for _ in 0..64 {
            let u = (0u64..=u64::MAX).generate(&mut rng);
            any_high |= u > u64::MAX / 2;
            let _ = (i64::MIN..=i64::MAX).generate(&mut rng);
            let b = (0u8..=u8::MAX).generate(&mut rng);
            let _ = b; // full u8 domain: every pattern valid
        }
        assert!(any_high, "full-domain draws should cover the upper half");
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..200 {
            let v = crate::collection::vec(0u8..4, 3..=7).generate(&mut rng);
            assert!((3..=7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
            let fixed = crate::collection::vec(any::<u64>(), 5usize).generate(&mut rng);
            assert_eq!(fixed.len(), 5);
        }
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::from_seed(3);
        let s = (1usize..=4)
            .prop_flat_map(|n| crate::collection::vec(0u32..10, n))
            .prop_map(|v| v.len())
            .prop_filter("nonempty", |&n| n > 0);
        for _ in 0..100 {
            let n = s.generate(&mut rng);
            assert!((1..=4).contains(&n));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = TestRng::from_seed(9);
        let mut b = TestRng::from_seed(9);
        let s = (0u64..1_000_000, 0.0f64..1.0);
        for _ in 0..50 {
            assert_eq!(s.0.generate(&mut a), s.0.generate(&mut b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0u32..100, v in crate::collection::vec(0i8..8, 0..5)) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 13);
        }
    }
}
