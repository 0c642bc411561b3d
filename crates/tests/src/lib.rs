//! # ddc-tests
//!
//! Cross-crate test suites (under `/tests`) plus a tiny deterministic
//! property-test harness that replaces `proptest` so the workspace
//! builds and tests with zero network access, and [`FlakyTarget`], the
//! failing-on-demand double the commit-pipeline suites supervise.
//!
//! ## The harness
//!
//! [`run_cases`] runs a closure over `cases` independently seeded
//! [`DdcRng`]s. Each case seed derives deterministically from a master
//! seed, so failures reproduce exactly; on a panic the harness reports
//! the case index and its seed, and re-running with
//! `DDC_PROP_SEED=<seed> DDC_PROP_CASES=1` replays just that case.
//! There is no shrinking — generators are written to produce small
//! inputs in the first place.
//!
//! ```
//! ddc_tests::run_cases("addition_commutes", 32, |rng| {
//!     let a = rng.gen_range(-1000i64..=1000);
//!     let b = rng.gen_range(-1000i64..=1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use ddc_array::Shape;
use ddc_core::{CommitTarget, DdcConfig, GrowableCube, IoError, ShardConfig, ShardedCube};
pub use ddc_workload::DdcRng;

/// Default number of cases when a suite does not override it.
pub const DEFAULT_CASES: usize = 32;

/// Master seed used when `DDC_PROP_SEED` is unset. Arbitrary but fixed:
/// test runs are reproducible across machines by default.
const DEFAULT_SEED: u64 = 0xDDC0_FFEE;

fn master_seed() -> u64 {
    match std::env::var("DDC_PROP_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("DDC_PROP_SEED must be a u64, got {s:?}")),
        Err(_) => DEFAULT_SEED,
    }
}

fn case_count(default: usize) -> usize {
    match std::env::var("DDC_PROP_CASES") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("DDC_PROP_CASES must be a usize, got {s:?}")),
        Err(_) => default,
    }
}

/// splitmix64 step — derives per-case seeds from the master seed so
/// cases are decorrelated but individually replayable.
fn derive(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` over `cases` freshly seeded RNGs; panics (failing the test)
/// on the first failing case, reporting the case index and seed needed
/// to replay it.
///
/// `DDC_PROP_CASES` overrides `cases`; `DDC_PROP_SEED` overrides the
/// master seed (useful to replay one failing case in isolation).
pub fn run_cases(name: &str, cases: usize, f: impl Fn(&mut DdcRng)) {
    let master = master_seed();
    let n = case_count(cases);
    for i in 0..n {
        let seed = derive(master, i as u64);
        let mut rng = DdcRng::seed_from_u64(seed);
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut rng)));
        if let Err(panic) = result {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property '{name}' failed at case {i}/{n} (seed {seed}): {msg}\n\
                 replay with: DDC_PROP_SEED={master} DDC_PROP_CASES={c} cargo test {name}",
                c = i + 1,
            );
        }
    }
}

/// Declares a `#[test]` that runs a property over seeded RNG cases.
///
/// ```
/// ddc_tests::for_cases! {
///     /// i64 addition commutes.
///     fn addition_commutes(rng, cases = 64) {
///         let a = rng.gen_range(-1000i64..=1000);
///         let b = rng.gen_range(-1000i64..=1000);
///         assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! for_cases {
    ($( $(#[$meta:meta])* fn $name:ident($rng:ident $(, cases = $cases:expr)?) $body:block )*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                #[allow(unused_mut, unused_variables)]
                let run = |$rng: &mut $crate::DdcRng| $body;
                #[allow(unused_variables)]
                let cases = $crate::DEFAULT_CASES;
                $(let cases = $cases;)?
                $crate::run_cases(stringify!($name), cases, run);
            }
        )*
    };
}

/// How an armed [`FlakyTarget`] fails a commit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Return a typed error before touching the target.
    Refuse,
    /// Panic before touching the target.
    Panic,
    /// Commit into the target, then panic: on a logged target the
    /// record is in the log and the caller never hears an ack.
    PanicAfterCommit,
}

/// The switch of a [`FlakyTarget`], kept by the test that built it.
#[derive(Debug)]
pub struct Faults {
    /// Commits still to fail, and how.
    armed: Mutex<(u64, Fault)>,
}

impl Default for Faults {
    fn default() -> Self {
        Self {
            armed: Mutex::new((0, Fault::Panic)),
        }
    }
}

impl Faults {
    /// The next `commits` commits fail with `fault` (`u64::MAX`: until
    /// healed).
    pub fn arm(&self, fault: Fault, commits: u64) {
        *self.armed.lock().expect("fault switch") = (commits, fault);
    }

    /// Commits succeed again.
    pub fn heal(&self) {
        self.arm(Fault::Panic, 0);
    }

    fn take(&self) -> Option<Fault> {
        let mut armed = self.armed.lock().expect("fault switch");
        let due = armed.0 > 0;
        armed.0 = armed.0.saturating_sub(1);
        due.then_some(armed.1)
    }
}

/// A [`CommitTarget`] that is `T` until its [`Faults`] are armed — the
/// engine bug or failing disk the pipeline's supervisor exists to
/// contain, on demand. Its [`CommitTarget::PANIC_CAUSE`] is `T`'s, so
/// it is plain- or durable-shaped with what it wraps.
#[derive(Debug)]
pub struct FlakyTarget<T> {
    inner: T,
    faults: Arc<Faults>,
}

impl<T> FlakyTarget<T> {
    /// `inner`, failing as `faults` says.
    pub fn new(inner: T, faults: Arc<Faults>) -> Self {
        Self { inner, faults }
    }

    /// The wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl FlakyTarget<GrowableCube<i64>> {
    /// A cube like [`ShardedCube::new`]'s whose slab 0 fails as
    /// `faults` says; the other slabs never do.
    pub fn sharded(
        shape: Shape,
        config: DdcConfig,
        shard_config: ShardConfig,
        faults: &Arc<Faults>,
    ) -> ShardedCube<i64, Self> {
        let d = shape.ndim();
        ShardedCube::bounded(shape, shard_config, |rows_lo| {
            let faults = match rows_lo {
                0 => Arc::clone(faults),
                _ => Arc::default(),
            };
            Self::new(GrowableCube::new(d, config), faults)
        })
    }
}

impl<T: CommitTarget<i64>> CommitTarget<i64> for FlakyTarget<T> {
    const PANIC_CAUSE: &'static str = T::PANIC_CAUSE;

    fn cube(&self) -> &GrowableCube<i64> {
        self.inner.cube()
    }

    fn commit(&mut self, batch: &[(Vec<i64>, i64)]) -> Result<(), IoError> {
        match self.faults.take() {
            None => self.inner.commit(batch),
            Some(Fault::Refuse) => Err(IoError::Transient {
                detail: "injected commit refusal".to_string(),
                retries: 0,
            }),
            Some(Fault::Panic) => panic!("injected commit failure"),
            Some(Fault::PanicAfterCommit) => {
                let landed = self.inner.commit(batch);
                panic!("injected failure after the commit ({landed:?})");
            }
        }
    }

    fn degraded(&self) -> Option<&str> {
        self.inner.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<i64> = Vec::new();
        run_cases("collect", 8, |rng| {
            // Interior mutability not needed: closure is Fn, so collect
            // through a RefCell-free channel — recompute instead.
            let _ = rng.gen_range(0i64..100);
        });
        // Seeds derive purely from (master, index): same inputs, same seeds.
        let a: Vec<u64> = (0..8).map(|i| derive(DEFAULT_SEED, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| derive(DEFAULT_SEED, i)).collect();
        assert_eq!(a, b);
        first.push(0);
        assert_eq!(first.len(), 1);
    }

    #[test]
    fn failure_reports_case_and_seed() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_cases("always_fails", 4, |_rng| panic!("boom"));
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("case 0/4"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
        assert!(msg.contains("DDC_PROP_SEED="), "{msg}");
    }

    for_cases! {
        /// The macro wires name, cases, and rng through correctly.
        fn macro_smoke(rng, cases = 16) {
            let v = rng.gen_range(1usize..=8);
            assert!((1..=8).contains(&v));
        }

        /// Default case count applies when none is given.
        fn macro_default_cases(rng) {
            assert!(rng.gen_range(0.0f64..1.0) < 1.0);
        }
    }
}
