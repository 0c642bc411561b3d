//! # ddc-tests
//!
//! Cross-crate test suites (under `/tests`) plus a tiny deterministic
//! property-test harness that replaces `proptest` so the workspace
//! builds and tests with zero network access, and [`FlakyTarget`], the
//! failing-on-demand double the commit-pipeline suites supervise.
//!
//! It also holds [`fixed_shape_trace`], the op generator of the suites
//! that run fixed-shape engines through `ddc_check::run_trace_on`, and
//! [`Counting`], the heap-counting allocator of the suites that pin what
//! a path allocates.
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ddc_array::Shape;
use ddc_core::{CommitTarget, DdcConfig, GrowableCube, IoError, ShardConfig, ShardedCube};
pub use ddc_workload::DdcRng;
use ddc_workload::{CheckOp, CheckTrace};

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

/// A differential trace over the fixed box `[0, dims)`: `ops` point
/// updates, sets, range sums and cell reads (4 : 2 : 3 : 1), values in
/// ±1000. It never grows, round-trips or crashes, so any engine of shape
/// `dims` can replay it, and `ddc_check::run_trace_on` compares each of
/// its answers with the oracle.
pub fn fixed_shape_trace(dims: &[usize], ops: usize, rng: &mut DdcRng) -> CheckTrace {
    let point = |rng: &mut DdcRng| -> Vec<i64> {
        dims.iter().map(|&n| rng.gen_range(0..n as i64)).collect()
    };
    let ops = (0..ops)
        .map(|_| match rng.gen_range(0usize..10) {
            0..=3 => CheckOp::Update {
                point: point(rng),
                delta: rng.gen_range(-1000i64..=1000),
            },
            4..=5 => CheckOp::Set {
                point: point(rng),
                value: rng.gen_range(-1000i64..=1000),
            },
            6..=8 => {
                let (a, b) = (point(rng), point(rng));
                CheckOp::Query {
                    lo: a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect(),
                    hi: a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect(),
                }
            }
            _ => CheckOp::Cell { point: point(rng) },
        })
        .collect();
    CheckTrace {
        origin: vec![0; dims.len()],
        dims: dims.to_vec(),
        ops,
    }
}

/// `System`, counting the allocations made (reallocations included),
/// the bytes live and the most ever live at once. A suite installs it
/// in its own binary —
/// `#[global_allocator] static ALLOCATOR: Counting = Counting;` — and
/// keeps to one test, so no other thread of the binary allocates while
/// it measures.
pub struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, size);
        if !q.is_null() {
            match size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                    LIVE.fetch_sub(layout.size() - size, Ordering::Relaxed);
                }
            }
        }
        q
    }
}

/// Allocations and reallocations made so far under [`Counting`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` under [`Counting`], returning its result and the most heap
/// live at once while it ran, above what was live when it started.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
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

    fn commit<P: AsRef<[i64]>>(&mut self, batch: &[(P, i64)]) -> Result<(), IoError> {
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
        // The closure is `Fn`, so the draws are collected through a lock.
        let draws = || {
            let seen = Mutex::new(Vec::new());
            run_cases("collect", 8, |rng| {
                let draw = rng.next_u64();
                seen.lock().expect("draws").push(draw);
            });
            seen.into_inner().expect("draws")
        };
        let (first, second) = (draws(), draws());
        assert_eq!(first, second, "same master seed, same draws");
        let mut distinct = first.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "eight cases, eight seeds: {first:?}");
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
