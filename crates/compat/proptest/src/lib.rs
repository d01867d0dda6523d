//! Offline shim for the `proptest` property-testing framework,
//! API-compatible with the subset this workspace's tests use: the
//! [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`, range and
//! tuple strategies, [`collection::vec`], [`option::of`], [`arbitrary::any`],
//! [`prop_oneof!`], `prop_assert*`/[`prop_assume!`], and
//! [`test_runner::Config`]/[`test_runner::TestCaseError`].
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this minimal implementation (see the workspace `Cargo.toml`).
//! Semantic differences from real proptest: cases are drawn from a
//! deterministic per-test RNG (seeded from the test name), and failing
//! cases are reported without shrinking.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Test-case outcomes and runner configuration.
pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The RNG driving strategy sampling.
    pub type TestRng = SmallRng;

    /// Builds the deterministic per-test RNG (FNV-1a over the test name).
    pub fn rng_for(test_name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng::seed_from_u64(h)
    }

    /// Why a generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case did not satisfy a `prop_assume!` precondition; it is
        /// skipped without counting toward the case budget.
        Reject(String),
        /// The property was violated.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given reason.
        pub fn fail<R: std::fmt::Display>(reason: R) -> Self {
            TestCaseError::Fail(reason.to_string())
        }

        /// A rejection (unmet precondition) with the given reason.
        pub fn reject<R: std::fmt::Display>(reason: R) -> Self {
            TestCaseError::Reject(reason.to_string())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
                TestCaseError::Fail(r) => write!(f, "failed: {r}"),
            }
        }
    }

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// How many passing cases each property must accumulate.
        pub cases: u32,
        /// Upper bound on `prop_assume!` rejections across the whole run.
        pub max_global_rejects: u32,
    }

    impl Config {
        /// A config running `cases` cases with the default reject budget.
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Generates values of `Self::Value` for property tests.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe core used by [`BoxedStrategy`].
    trait DynStrategy<V> {
        fn dyn_new_value(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_new_value(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            self.0.dyn_new_value(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Chooses uniformly among alternative strategies ([`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over `options`; panics if empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].new_value(rng)
        }
    }

    /// A strategy returning a fixed (cloned) value.
    #[derive(Debug, Clone)]
    pub struct Just<V: Clone>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn new_value(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / 0);
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
}

/// `any::<T>()` — full-range strategies for primitive types.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.gen::<$t>()
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            // Finite values only, over a wide magnitude range.
            let mag = rng.gen_range(-300.0f64..300.0);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>() * 10f64.powf(mag % 38.0)
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// A strategy over all of `T`'s values.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A strategy over vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match real proptest's default 3:1 bias toward Some.
            if rng.gen_range(0u32..4) > 0 {
                Some(self.0.new_value(rng))
            } else {
                None
            }
        }
    }

    /// A strategy over `Option<S::Value>`, biased toward `Some`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// The commonly used names, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} != {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} != {:?}: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {:?} == {:?}",
            left,
            right
        );
    }};
}

/// Skips the current case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_owned(),
            ));
        }
    };
}

/// Chooses uniformly among the listed strategies (all must yield the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `name(pattern in strategy, …) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut rng = $crate::test_runner::rng_for(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut passed: u32 = 0;
                let mut rejected: u32 = 0;
                while passed < config.cases {
                    let outcome: ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $(
                            let $pat =
                                $crate::strategy::Strategy::new_value(&($strategy), &mut rng);
                        )+
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        ::core::result::Result::Ok(()) => passed += 1,
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {
                            rejected += 1;
                            if rejected > config.max_global_rejects {
                                panic!(
                                    "{}: too many prop_assume! rejections ({} after {} passes)",
                                    stringify!($name), rejected, passed
                                );
                            }
                        }
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(reason),
                        ) => {
                            panic!(
                                "proptest case {}/{} of {} failed: {}",
                                passed + 1, config.cases, stringify!($name), reason
                            );
                        }
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::default())]
            $(
                $(#[$meta])*
                fn $name( $($pat in $strategy),+ ) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 10u32..20, y in 0.0f64..1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn tuples_and_maps_compose(
            (a, b) in (0u64..100, 0u64..100),
            v in crate::collection::vec(0i32..5, 1..10),
        ) {
            prop_assert!(a < 100 && b < 100);
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|x| (0..5).contains(x)));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn oneof_picks_every_arm_eventually(x in prop_oneof![0u32..1, 10u32..11]) {
            prop_assert!(x == 0 || x == 10);
        }
    }

    #[test]
    fn option_of_yields_both_variants() {
        let s = crate::option::of(0u32..100);
        let mut rng = crate::test_runner::rng_for("option_of");
        let vals: Vec<_> = (0..200).map(|_| s.new_value(&mut rng)).collect();
        assert!(vals.iter().any(|v| v.is_some()));
        assert!(vals.iter().any(|v| v.is_none()));
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
