//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the slice of proptest's API the workspace uses: the [`proptest!`] macro
//! (with `#![proptest_config]`), integer-range / regex-string / tuple /
//! [`Just`] / [`prop_oneof!`] / [`collection::vec`] strategies,
//! `prop_map`, the `prop_assert*` macros, and deterministic case
//! generation with **regression-seed replay** compatible with
//! `proptest-regressions/<file>.txt` files (`cc <seed>` lines).
//!
//! Differences from upstream, by design:
//!
//! * case generation is fully deterministic (seed derived from the test's
//!   file + name, overridable via `PROPTEST_RNG_SEED`), so CI replays the
//!   same cases every run;
//! * no shrinking — a failing case reports the seed that reproduces it
//!   and persists it to the regression file, which is replayed first on
//!   the next run.

use std::fmt;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

pub mod strategy;

pub use strategy::{Just, Strategy};

/// Test-runner configuration and error types.
pub mod test_runner {
    use super::*;

    /// Subset of proptest's runner configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Default config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The property was falsified.
        Fail(String),
        /// The input was rejected (unused here, kept for API parity).
        Reject(String),
    }

    impl TestCaseError {
        /// A falsification with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }
}

pub use test_runner::{ProptestConfig, TestCaseError};

/// Per-case result type used by generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic generation RNG handed to strategies (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a generation stream.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, span)`; `span` must be non-zero.
    #[inline]
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let m = (self.next_u64() as u128) * (span as u128);
        (m >> 64) as u64
    }

    /// Fair coin.
    #[inline]
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy yielding arbitrary booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Either boolean, uniformly.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.flip()
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Strategy for vectors with a length drawn from a half-open range.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A vector of `size` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, len: size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The most common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Derive the regression-file path for a test source file, mirroring
/// proptest's source-parallel layout: `crates/net/src/fluid.rs` →
/// `<crate root>/proptest-regressions/fluid.txt`.
fn regression_path(source_file: &str) -> Option<PathBuf> {
    let comps: Vec<&str> = source_file.split(['/', '\\']).collect();
    let idx = comps.iter().position(|c| *c == "src" || *c == "tests")?;
    let manifest = std::env::var("CARGO_MANIFEST_DIR").ok()?;
    let mut path = PathBuf::from(manifest);
    path.push("proptest-regressions");
    for mid in &comps[idx + 1..comps.len().saturating_sub(1)] {
        path.push(mid);
    }
    let stem = comps.last()?.strip_suffix(".rs")?;
    path.push(format!("{stem}.txt"));
    Some(path)
}

fn load_regression_seeds(path: &PathBuf) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| l.trim().strip_prefix("cc "))
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn persist_regression_seed(path: &Option<PathBuf>, seed: u64) {
    let Some(path) = path else { return };
    if load_regression_seeds(path).contains(&seed) {
        return;
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let header_needed = !path.exists();
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        if header_needed {
            let _ = writeln!(
                f,
                "# Seeds for failure cases proptest has generated in the past. It is\n\
                 # automatically read and these particular cases re-run before any\n\
                 # novel cases are generated."
            );
        }
        let _ = writeln!(f, "cc {seed}");
    }
}

#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Execute one property: replay persisted regression seeds first, then run
/// `config.cases` deterministically derived fresh cases. Used by the
/// [`proptest!`] macro; not part of the public proptest API.
pub fn run_property<F>(config: &ProptestConfig, source_file: &str, test_name: &str, body: F)
where
    F: Fn(&mut TestRng) -> TestCaseResult,
{
    let reg_path = regression_path(source_file);
    let persisted = reg_path
        .as_ref()
        .map(load_regression_seeds)
        .unwrap_or_default();
    let base = std::env::var("PROPTEST_RNG_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| mix(fnv1a(source_file), fnv1a(test_name)));

    let fresh = (0..config.cases as u64).map(|i| mix(base, i));
    for (replayed, seed) in persisted
        .into_iter()
        .map(|s| (true, s))
        .chain(fresh.map(|s| (false, s)))
    {
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut TestRng::new(seed))));
        let message = match outcome {
            Ok(Ok(())) => continue,
            Ok(Err(TestCaseError::Reject(_))) => continue,
            Ok(Err(TestCaseError::Fail(m))) => m,
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "test body panicked".to_string()),
        };
        if !replayed {
            persist_regression_seed(&reg_path, seed);
        }
        panic!(
            "proptest property `{test_name}` failed{}: {message}\n\
             reproduce with seed {seed} (persisted to {})",
            if replayed {
                " (replayed regression seed)"
            } else {
                ""
            },
            reg_path
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "<no regression path>".into()),
        );
    }
}

/// Property-test entry point; see crate docs. Supports an optional
/// `#![proptest_config(...)]` header and any number of `#[test]` functions
/// whose arguments are drawn from strategies via `name in strategy`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_each! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_each! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal recursive expansion of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_each {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_property(&config, file!(), stringify!($name), |rng| {
                $(let $arg = $crate::strategy::generate_one(&$strat, rng);)+
                $crate::TestCaseResult::Ok($body)
            });
        }
        $crate::__proptest_each! { ($cfg) $($rest)* }
    };
}

/// `prop_assert!`: falsify the current case without panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `prop_assert_eq!`: equality check that falsifies instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($lhs), stringify!($rhs), l, r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// `prop_assert_ne!`: inequality check that falsifies instead of panicking.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

/// `prop_oneof!`: uniform choice between strategies with a common value
/// type (weights are not supported by this stand-in).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or($arm))+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        A(u64),
        B,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![(0u64..10).prop_map(Op::A), Just(Op::B)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(
            a in 3u64..17,
            (b, c) in (0u32..4, 1usize..9),
            s in "[a-z]{2,5}\\.[a-z]{2,3}",
            v in crate::collection::vec(op(), 1..8),
            f in crate::bool::ANY,
        ) {
            prop_assert!((3..17).contains(&a));
            prop_assert!(b < 4);
            prop_assert!((1..9).contains(&c));
            let dot = s.find('.').expect("regex forces a dot");
            prop_assert!((2..=5).contains(&dot));
            prop_assert!(!v.is_empty() && v.len() < 8);
            // Tautology on purpose: exercises bool generation + the macro.
            #[allow(clippy::overly_complex_bool_expr)]
            {
                prop_assert_eq!(f || !f, true);
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let strat = (0u64..1000, crate::collection::vec(0u32..7, 1..20));
        let a = crate::strategy::generate_one(&strat, &mut crate::TestRng::new(42));
        let b = crate::strategy::generate_one(&strat, &mut crate::TestRng::new(42));
        assert_eq!(a, b);
    }

    #[test]
    fn regression_path_layout() {
        let p = super::regression_path("crates/net/src/fluid.rs").unwrap();
        let s = p.display().to_string();
        assert!(s.ends_with("proptest-regressions/fluid.txt"), "{s}");
        let p = super::regression_path("crates/mapreduce/tests/chaos.rs").unwrap();
        assert!(p
            .display()
            .to_string()
            .ends_with("proptest-regressions/chaos.txt"));
    }
}
