//! The commit pipeline: every served update — logged or not — takes the
//! same path to the cube, and every read the same path back.
//!
//! ```text
//!                   ┌ door ┐    ┌──────── commit, both targets ────────┐
//! try_add_batch ──▶ rank and ─▶ [log: append, sync] ─▶ apply to the cube ─▶ ack
//!                   bounds      (logged only)          (write lock)
//! ```
//!
//! The unit it moves is a **run** of updates ([`try_add_batch`];
//! [`try_add`] is a run of one), and the rule is the same on every
//! target: **an update is acknowledged once its commit has landed**.
//! Within a run, the stretch the cube already covers is **one** commit
//! — one exclusive lock acquisition, applied in order and never
//! coalesced, acknowledged as a whole or not at all — and a point the
//! cube must grow for commits alone, because only its own commit can
//! refuse it.
//!
//! [`ShardedCube`] is that pipeline over one target, behind one lock: a
//! read-write lock over the target, the pipeline's health and its
//! counters. It is generic over the [`CommitTarget`] it commits into,
//! and there are two:
//!
//! * [`GrowableCube`] — apply only.
//! * [`DurableCube`](crate::DurableCube) — append → sync → apply: one
//!   log write and one sync per commit, one record per ack.
//!
//! State is addressed in signed `i64` coordinates throughout. A cube
//! built with bounds (a [`Shape`]) refuses coordinates outside them at
//! the door; a cube without bounds grows where the data goes (its
//! commit refuses a point the cube cannot grow to). Nothing is routed
//! by row: the §1 deployment's many readers and one feed share the
//! cube, and the polylog update keeps every exclusive hold short. A
//! range query is one range sum of the cube — Figure 4's ≤ `2^d` prefix
//! terms are formed once, inside it. The `usize` / [`Region`] methods
//! are casts over the `i64` door for callers that hold checked
//! coordinates already.
//!
//! ## Consistency
//!
//! The cube is linearizable: a read is one shared hold of the lock and
//! one read of its cube, and a commit cuts its stretch, applies it and
//! books its counters under one exclusive hold, so a read sees a commit
//! whole or not at all. An update is visible from the moment its commit
//! applies it, which is before its call returns: a thread always reads
//! its own acknowledged writes, and a single-threaded caller observes
//! exactly the semantics of an engine (the `sharded_cube` tests demand
//! bit-identical answers after every step). A run of several commits
//! releases the lock between them, so another writer's commit may land
//! between two of its commits; each still lands whole.
//!
//! ## Failure
//!
//! Every commit runs under one `catch_unwind`, and one rule covers what
//! it can do wrong: **a commit that does not land fails the pipeline** —
//! read-only from then on ([`TryUpdateError::ShardFailed`]), reported
//! by [`ShardedCube::health`], never retried — and none of its run is
//! acknowledged. A retry is not exact: the commit may have changed the
//! cube before it failed, and on the logged target its record may be in
//! the log already. The one exception is a *typed refusal* (ENOSPC,
//! retries exhausted, a point the cube cannot grow to): nothing changed,
//! so the refusal is handed to the caller and the target keeps its own
//! degraded state.
//!
//! * A plain pipeline whose commit panicked says [`COMMIT_FAILED`]; a
//!   logged one says [`PANICKED_AFTER_APPEND`]: "restart to recover
//!   from the log" ([`CommitTarget::PANIC_CAUSE`]).
//! * Lock poisoning never panics a public entry point: a supervised
//!   commit cannot poison the lock (the panic is caught inside the
//!   exclusive hold), and a lock poisoned anyway is recovered — *exact*
//!   repair of a half-applied commit is the log's job ([`crate::wal`]).
//!
//! [`try_add`]: ShardedCube::try_add
//! [`try_add_batch`]: ShardedCube::try_add_batch

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ddc_array::{AbelianGroup, OpCounter, OpSnapshot, Point, RangeSumEngine, Region, Shape};

use crate::config::DdcConfig;
use crate::growth::GrowableCube;
use crate::obs;
use crate::vfs::IoError;

/// Cube-wide observability handles (the wait for the exclusive lock
/// vs. the commit itself — the two halves of a write's life), cached
/// off the registry lock. The wait keeps its `shard.queue_wait` name
/// for the dashboards that scrape it.
struct ShardObs {
    queue_wait_ns: Arc<obs::Histogram>,
    commit_ns: Arc<obs::Histogram>,
}

fn shard_obs() -> &'static ShardObs {
    static OBS: OnceLock<ShardObs> = OnceLock::new();
    OBS.get_or_init(|| ShardObs {
        queue_wait_ns: obs::histogram("shard.queue_wait"),
        commit_ns: obs::histogram("shard.commit"),
    })
}

/// What the pipeline commits into: the one seam between the door and
/// the state. Implemented by [`GrowableCube`] (apply only) and
/// [`DurableCube`](crate::DurableCube) (append → sync → apply); tests
/// substitute a double that fails on demand.
pub trait CommitTarget<G: AbelianGroup>: Send + Sync {
    /// The cube every read is answered from.
    fn cube(&self) -> &GrowableCube<G>;

    /// [`TryUpdateError::ShardFailed::cause`] of a pipeline one of whose
    /// commits panicked.
    const PANIC_CAUSE: &'static str = COMMIT_FAILED;

    /// Lands `batch`, in order. `Err` means none of it is acknowledged.
    fn commit<P: AsRef<[i64]>>(&mut self, batch: &[(P, G)]) -> Result<(), IoError>;

    /// Why the target refuses writes, when it does.
    fn degraded(&self) -> Option<&str> {
        None
    }
}

/// Refuses a batch with a point the cube cannot grow to before applying
/// any of it, as [`DurableCube::add_group`](crate::DurableCube::add_group)
/// does before its append.
impl<G: AbelianGroup> CommitTarget<G> for GrowableCube<G> {
    fn cube(&self) -> &GrowableCube<G> {
        self
    }

    fn commit<P: AsRef<[i64]>>(&mut self, batch: &[(P, G)]) -> Result<(), IoError> {
        let points = batch.iter().map(|(point, _)| point.as_ref());
        self.check_cover_all(points).map_err(IoError::OutOfRange)?;
        for (point, delta) in batch {
            self.add(point.as_ref(), *delta);
        }
        Ok(())
    }
}

/// The configuration [`ShardedCube::new`] takes. The pipeline is one
/// slab: `shards` is 1, the only count [`ShardedCube::new`] accepts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Slab count; must be 1.
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl ShardConfig {
    /// `shards` slabs (see [`ShardedCube::new`]).
    pub fn with_shards(shards: usize) -> Self {
        Self { shards }
    }
}

/// Most updates of a run one commit takes: one exclusive acquisition
/// (and, logged, one log write and one sync) covers at most this many
/// acknowledgements.
const RUN_CHUNK: usize = 4096;

/// A coordinate the door refused: wrong rank, outside the bounds, or a
/// box whose corners are inverted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfBounds(pub String);

impl std::fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for OutOfBounds {}

/// Why [`ShardedCube::try_add`] did not acknowledge an update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TryUpdateError {
    /// The point did not pass the door; nothing was committed.
    OutOfBounds(OutOfBounds),
    /// The pipeline no longer accepts writes.
    ShardFailed {
        /// Why: the target's [`CommitTarget::PANIC_CAUSE`]
        /// ([`COMMIT_FAILED`] or [`PANICKED_AFTER_APPEND`]).
        cause: &'static str,
    },
    /// The target refused the commit this ack needed (degraded, out of
    /// retries, or a point the cube cannot grow to).
    Refused(IoError),
}

/// [`TryUpdateError::ShardFailed::cause`] of a plain pipeline whose
/// commit panicked: its run was not acknowledged, but the commit may
/// have changed the cube before it failed.
pub const COMMIT_FAILED: &str =
    "a commit panicked and was not acknowledged; reads may include part of its run";

/// [`TryUpdateError::ShardFailed::cause`] of a logged pipeline whose
/// commit panicked: the record may be in the log, so the commit is not
/// retried.
pub const PANICKED_AFTER_APPEND: &str =
    "a commit panicked after its log append; restart to recover from the log";

impl std::fmt::Display for TryUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryUpdateError::OutOfBounds(why) => why.fmt(f),
            TryUpdateError::ShardFailed { cause } => f.write_str(cause),
            TryUpdateError::Refused(why) => why.fmt(f),
        }
    }
}

impl std::error::Error for TryUpdateError {}

/// Point-in-time commit metrics of the pipeline.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Updates landed in the target, each acknowledged.
    pub ops_applied: u64,
    /// Commits performed.
    pub batches_flushed: u64,
    /// Nanoseconds the exclusive lock was held for commits, from the
    /// moment it was granted — the contention budget readers compete
    /// against.
    pub lock_hold_nanos: u64,
    /// Update attempts that passed the door and were not acknowledged.
    pub ops_rejected: u64,
    /// Commits that failed the pipeline (0 or 1: a failed pipeline
    /// commits nothing more).
    pub worker_panics: u64,
}

/// What the pipeline's one lock guards.
#[derive(Debug)]
struct State<T> {
    /// What every commit lands in and every read is answered from.
    target: T,
    /// The pipeline's health: `None` while it takes writes, else the
    /// [`TryUpdateError::ShardFailed::cause`] it refuses them with.
    failed: Option<&'static str>,
    /// The counters, kept here because the exclusive hold already
    /// serializes everything that writes them.
    metrics: MetricsSnapshot,
}

/// The commit pipeline over one cube (module docs: door, commit,
/// supervision).
///
/// # Examples
///
/// ```
/// use ddc_array::{RangeSumEngine, Region, Shape};
/// use ddc_core::{DdcConfig, ShardConfig, ShardedCube};
///
/// let cube = ShardedCube::<i64>::new(
///     Shape::new(&[64, 64]),
///     DdcConfig::dynamic(),
///     ShardConfig::default(),
/// );
/// cube.update(&[3, 5], 7);
/// cube.update(&[60, 9], 2);
/// assert_eq!(cube.query(&Region::new(&[0, 0], &[63, 63])), 9);
/// // The same cube through its `i64` door, which refuses instead of
/// // panicking.
/// assert_eq!(cube.query_box(&[0, 0], &[10, 10]), Ok(7));
/// assert!(cube.try_add(&[64, 0], 1).is_err());
/// ```
#[derive(Debug)]
pub struct ShardedCube<G: AbelianGroup, T = GrowableCube<G>> {
    ndim: usize,
    bounds: Option<Shape>,
    /// The one lock: a commit holds it exclusively, so the coverage it
    /// is cut by and the pipeline's health cannot change under it.
    state: RwLock<State<T>>,
    /// What [`RangeSumEngine::counter`] hands out: the tree counts, and
    /// `ops()` copies it into this.
    counter: OpCounter,
    group: std::marker::PhantomData<G>,
}

impl<G: AbelianGroup> ShardedCube<G> {
    /// An all-zero cube bounded by `shape`.
    ///
    /// # Panics
    ///
    /// Panics unless `shard_config.shards` is 1: the pipeline is one
    /// slab.
    pub fn new(shape: Shape, config: DdcConfig, shard_config: ShardConfig) -> Self {
        let shards = shard_config.shards;
        assert_eq!(shards, 1, "{shards} slabs: the commit pipeline is one");
        let cube = GrowableCube::new(shape.ndim(), config);
        Self::bounded(shape, cube)
    }
}

impl<G: AbelianGroup, T: CommitTarget<G>> ShardedCube<G, T> {
    /// The pipeline over `target` and no bounds: the cube grows where
    /// the data goes.
    pub fn unbounded(target: T) -> Self {
        Self::assemble(None, target)
    }

    /// The pipeline over `target`, bounded by `shape`.
    ///
    /// # Panics
    ///
    /// Panics if the target's rank differs from the shape's.
    pub fn bounded(shape: Shape, target: T) -> Self {
        Self::assemble(Some(shape), target)
    }

    fn assemble(bounds: Option<Shape>, target: T) -> Self {
        let ndim = target.cube().ndim();
        if let Some(shape) = &bounds {
            assert_eq!(shape.ndim(), ndim, "target rank differs from {shape}");
        }
        Self {
            ndim,
            bounds,
            state: RwLock::new(State {
                target,
                failed: None,
                metrics: MetricsSnapshot::default(),
            }),
            counter: OpCounter::new(),
            group: std::marker::PhantomData,
        }
    }

    /// Takes the lock shared, recovering from poisoning. A supervised
    /// commit catches its panic *inside* the exclusive hold, so the lock
    /// is only ever poisoned by a panic in trivially transactional code
    /// (counter updates); recovering is sound and keeps poisoning off
    /// the public API.
    fn read_lock(&self) -> RwLockReadGuard<'_, State<T>> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock exclusively, recovering from poisoning (see
    /// [`ShardedCube::read_lock`]).
    fn write_lock(&self) -> RwLockWriteGuard<'_, State<T>> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Dimensionality of the cube.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// The bounds the door enforces, if the cube has any.
    pub fn bounds(&self) -> Option<&Shape> {
        self.bounds.as_ref()
    }

    /// The door's refusal of a point of rank `rank`.
    fn rank_mismatch(&self, rank: usize) -> OutOfBounds {
        OutOfBounds(format!(
            "point rank {rank} does not match cube rank {}",
            self.ndim
        ))
    }

    /// The door: rank, and the bounds when there are any.
    fn check_door(&self, point: &[i64]) -> Result<(), OutOfBounds> {
        if point.len() != self.ndim {
            return Err(self.rank_mismatch(point.len()));
        }
        let dims = self.bounds.as_ref().map_or(&[][..], Shape::dims);
        for (axis, (&p, &n)) in point.iter().zip(dims).enumerate() {
            if p < 0 || p as u64 >= n as u64 {
                return Err(OutOfBounds(format!(
                    "coordinate {p} outside dimension {axis} of size {n}"
                )));
            }
        }
        Ok(())
    }

    /// Adds `delta` at `point` if the pipeline can acknowledge it: a run
    /// of one (see [`ShardedCube::try_add_batch`]).
    pub fn try_add(&self, point: &[i64], delta: G) -> Result<(), TryUpdateError> {
        let (_, refused) = self.try_add_batch(&[(point, delta)]);
        refused.map_or(Ok(()), Err)
    }

    /// Adds a run of deltas in order, stopping at the first the cube
    /// cannot acknowledge: returns how many leading deltas were
    /// acknowledged — landed in the cube, and logged first on a logged
    /// target — and why the next one was not. In front of the first
    /// point the door refuses, each stretch the cube already covers is
    /// **one** commit, acknowledged as a whole or not at all, and a
    /// point the cube must grow for commits alone, since only its own
    /// commit can refuse it. The points are borrowed (`&[i64]`,
    /// `Vec<i64>`) or inline ([`Point`]): the run is never copied.
    pub fn try_add_batch<P: AsRef<[i64]>>(
        &self,
        run: &[(P, G)],
    ) -> (usize, Option<TryUpdateError>) {
        let mut refused = None;
        let door = |(point, _): &&(P, G)| {
            refused = self.check_door(point.as_ref()).err();
            refused.is_none()
        };
        let passed = run.iter().take_while(door).count();
        let refused = refused.map(TryUpdateError::OutOfBounds);
        if passed == 0 {
            return (0, refused);
        }
        let (acked, failed) = self.commit_run(&run[..passed]);
        (acked, failed.or(refused))
    }

    /// [`ShardedCube::try_add_batch`] for a run that passed the door,
    /// one exclusive hold per commit. Under the hold a commit cuts its
    /// stretch — what the cube covers already (at most [`RUN_CHUNK`]),
    /// else the one point it must grow for — and lands it under one
    /// `catch_unwind`. A typed refusal changed nothing and is handed
    /// back; a commit that panics fails the pipeline (module docs: one
    /// rule).
    fn commit_run<P: AsRef<[i64]>>(&self, run: &[(P, G)]) -> (usize, Option<TryUpdateError>) {
        let mut acked = 0;
        while acked < run.len() {
            let wait = shard_obs().queue_wait_ns.span("shard.queue_wait");
            let mut guard = self.write_lock();
            wait.end();
            let state = &mut *guard;
            if let Some(cause) = state.failed {
                state.metrics.ops_rejected += 1;
                return (acked, Some(TryUpdateError::ShardFailed { cause }));
            }
            // One clock pair feeds both the exact lock-hold total and the
            // span, so every commit is timed.
            let held = Instant::now();
            let rest = &run[acked..];
            let covers = |(point, _): &&(P, G)| state.target.cube().covers(point.as_ref());
            let covered = rest.iter().take(RUN_CHUNK).take_while(covers).count();
            let taken = &rest[..covered.max(1)];
            let outcome = catch_unwind(AssertUnwindSafe(|| state.target.commit(taken)));
            let held_ns = held.elapsed().as_nanos() as u64;
            state.metrics.lock_hold_nanos += held_ns;
            shard_obs().commit_ns.observe("shard.commit", held, held_ns);
            let refused = match outcome {
                Ok(Ok(())) => {
                    state.metrics.ops_applied += taken.len() as u64;
                    state.metrics.batches_flushed += 1;
                    acked += taken.len();
                    continue;
                }
                Ok(Err(why)) => TryUpdateError::Refused(why),
                Err(_) => {
                    state.metrics.worker_panics += 1;
                    let cause = T::PANIC_CAUSE;
                    state.failed = Some(cause);
                    TryUpdateError::ShardFailed { cause }
                }
            };
            state.metrics.ops_rejected += 1;
            return (acked, Some(refused));
        }
        (acked, None)
    }

    /// Does nothing: nothing is ever queued, every acknowledged update is in its cube.
    pub fn flush(&self) {}

    /// Why the cube no longer takes every write, when it does not: a
    /// failed commit, else a degraded target. `None` is fully serving;
    /// either way reads are served.
    pub fn health(&self) -> Option<String> {
        let state = self.read_lock();
        match state.failed {
            Some(cause) => Some(TryUpdateError::ShardFailed { cause }.to_string()),
            None => state.target.degraded().map(str::to_string),
        }
    }

    /// Runs `f` on the target under the shared lock (log statistics,
    /// pool counters, structural audits).
    pub fn read_target<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.read_lock().target)
    }

    /// One read of the cube, under the shared lock. A failed pipeline
    /// stays readable.
    fn read(&self, read: impl FnOnce(&GrowableCube<G>) -> G) -> G {
        read(self.read_lock().target.cube())
    }

    /// Sum over the closed box `[lo, hi]` (Figure 4 happens in the
    /// cube). Without bounds, parts the cube has not grown to contribute
    /// zero.
    pub fn query_box(&self, lo: &[i64], hi: &[i64]) -> Result<G, OutOfBounds> {
        self.check_door(lo)?;
        self.check_door(hi)?;
        if lo.iter().zip(hi).any(|(l, h)| l > h) {
            return Err(OutOfBounds(format!("inverted box {lo:?}..{hi:?}")));
        }
        Ok(self.read(|c| c.range_sum(lo, hi)))
    }

    /// One cell's value.
    pub fn cell_at(&self, point: &[i64]) -> Result<G, OutOfBounds> {
        self.check_door(point)?;
        Ok(self.read(|c| c.cell(point)))
    }

    /// Populated cells.
    pub fn entries(&self) -> Vec<(Vec<i64>, G)> {
        self.read_lock().target.cube().entries()
    }

    /// `point` in signed coordinates; more than [`ddc_array::MAX_RANK`]
    /// of them is a rank no cube has.
    fn signed(&self, point: &[usize]) -> Result<Point, OutOfBounds> {
        let mut signed = Point::new();
        for &c in point {
            if !signed.push(c as i64) {
                return Err(self.rank_mismatch(point.len()));
            }
        }
        Ok(signed)
    }

    /// [`ShardedCube::try_add`] for checked coordinates.
    pub fn try_update(&self, point: &[usize], delta: G) -> Result<(), TryUpdateError> {
        let point = self.signed(point).map_err(TryUpdateError::OutOfBounds)?;
        self.try_add(&point, delta)
    }

    /// The infallible facade over [`ShardedCube::try_update`]: a
    /// rejected delta (a failed pipeline, a refusing target) is *shed* —
    /// it is in `ops_rejected`, and counted in `shard.shed` so writes
    /// lost without the caller hearing of it show up next to the
    /// rejections callers were handed. Callers that must not lose writes
    /// use `try_update` and handle the error.
    ///
    /// # Panics
    ///
    /// Panics if `point` does not pass the door (a caller bug here, as
    /// in every [`RangeSumEngine`]).
    pub fn update(&self, point: &[usize], delta: G) {
        match self.try_update(point, delta) {
            Ok(()) => {}
            Err(TryUpdateError::OutOfBounds(why)) => panic!("{why}"),
            Err(_) => obs::counter("shard.shed").inc(),
        }
    }

    /// [`ShardedCube::query_box`] for a checked region.
    ///
    /// # Panics
    ///
    /// Panics if `region` does not pass the door.
    pub fn query(&self, region: &Region) -> G {
        let sum = || self.query_box(&self.signed(region.lo())?, &self.signed(region.hi())?);
        sum().unwrap_or_else(|why| panic!("{why}"))
    }

    /// `SUM(A[0,…,0] : A[point])`: the range sum over `[0, point]`.
    pub fn query_prefix(&self, point: &[usize]) -> G {
        self.query(&Region::prefix(point))
    }

    /// [`ShardedCube::cell_at`] for a checked point.
    ///
    /// # Panics
    ///
    /// Panics if `point` does not pass the door.
    pub fn cell_value(&self, point: &[usize]) -> G {
        let point = self.signed(point);
        let value = point.and_then(|point| self.cell_at(&point));
        value.unwrap_or_else(|why| panic!("{why}"))
    }

    /// The commit metrics, as a one-entry list (the shape callers index
    /// with `[0]`).
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        vec![self.read_lock().metrics]
    }
}

/// The engine interface of a cube with bounds.
impl<G: AbelianGroup, T: CommitTarget<G>> RangeSumEngine<G> for ShardedCube<G, T> {
    fn name(&self) -> &'static str {
        "sharded-ddc"
    }

    /// # Panics
    ///
    /// Panics on a cube without bounds: it has no shape.
    fn shape(&self) -> &Shape {
        let bounds = self.bounds.as_ref();
        bounds.unwrap_or_else(|| panic!("a cube without bounds has no shape"))
    }

    fn prefix_sum(&self, point: &[usize]) -> G {
        self.query_prefix(point)
    }

    fn apply_delta(&mut self, point: &[usize], delta: G) {
        self.update(point, delta);
    }

    fn range_sum(&self, region: &Region) -> G {
        self.query(region)
    }

    fn cell(&self, point: &[usize]) -> G {
        self.cell_value(point)
    }

    fn counter(&self) -> &OpCounter {
        &self.counter
    }

    /// The tree's counter, which is also left in
    /// [`RangeSumEngine::counter`] (as of this call).
    fn ops(&self) -> OpSnapshot {
        let total = self.read_lock().target.cube().counter().snapshot();
        self.counter.reset();
        self.counter.read(total.reads);
        self.counter.write(total.writes);
        total
    }

    fn reset_ops(&self) {
        self.read_lock().target.cube().counter().reset();
        self.counter.reset();
    }

    fn heap_bytes(&self) -> usize {
        self.read_lock().target.cube().heap_bytes()
    }

    fn metrics_text(&self) -> Option<String> {
        let m = self.read_lock().metrics;
        Some(format!(
            "applied  batches  rejected  panics  lock-held\n\
             {:>7}  {:>7}  {:>8}  {:>6}  {:>7.3}ms",
            m.ops_applied,
            m.batches_flushed,
            m.ops_rejected,
            m.worker_panics,
            m.lock_hold_nanos as f64 / 1e6,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DdcEngine;

    fn cube() -> ShardedCube<i64> {
        ShardedCube::new(
            Shape::new(&[32, 16]),
            DdcConfig::dynamic(),
            ShardConfig::default(),
        )
    }

    #[test]
    fn matches_a_plain_engine_on_every_prefix() {
        let mut plain = DdcEngine::<i64>::dynamic(Shape::new(&[32, 16]));
        let c = cube();
        let pts: [([usize; 2], i64); 6] = [
            ([0, 0], 3),
            ([31, 15], 4),
            ([7, 7], -2),
            ([8, 0], 9),
            ([16, 3], 1),
            ([7, 7], 5),
        ];
        for (p, v) in pts {
            plain.apply_delta(&p, v);
            c.update(&p, v);
        }
        for p in Shape::new(&[32, 16]).iter_points() {
            assert_eq!(c.query_prefix(&p), plain.prefix_sum(&p), "{p:?}");
        }
        let q = Region::new(&[5, 2], &[20, 11]);
        assert_eq!(c.query(&q), plain.range_sum(&q));
        assert_eq!(c.cell_value(&[7, 7]), 3);
    }

    #[test]
    fn a_read_sees_an_update_once_it_returns() {
        let c = cube();
        c.update(&[10, 10], 7);
        assert_eq!(c.query_prefix(&[31, 15]), 7);
        c.update(&[10, 10], -7);
        assert_eq!(c.query(&Region::full(&Shape::new(&[32, 16]))), 0);
    }

    #[test]
    fn the_door_refuses_what_the_usize_facade_panics_on() {
        let c = cube();
        for bad in [&[32, 0][..], &[-1, 0], &[0], &[0, i64::MAX]] {
            let refused = c.try_add(bad, 1).unwrap_err();
            assert!(matches!(refused, TryUpdateError::OutOfBounds(_)), "{bad:?}");
            assert!(c.cell_at(bad).is_err(), "{bad:?}");
        }
        assert!(c.query_box(&[2, 2], &[1, 1]).is_err(), "inverted");
        assert_eq!(c.metrics()[0].ops_applied, 0);
        let facade = std::panic::catch_unwind(|| c.update(&[32, 0], 1));
        assert!(facade.is_err(), "update() must not shed a caller bug");
        // Without bounds the door checks rank only: the commit refuses
        // what the cube cannot grow to, and reads clip to what it covers
        // — on either target.
        let log = crate::DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::sparse(), Vec::new());
        let open = ShardedCube::unbounded(log.unwrap());
        unbounded_refuses_what_it_cannot_grow_to(&open);
        assert_eq!(open.read_target(|t| t.wal_stats().1), 1, "one record");
        let plain = ShardedCube::unbounded(GrowableCube::<i64>::new(2, DdcConfig::sparse()));
        unbounded_refuses_what_it_cannot_grow_to(&plain);
    }

    fn unbounded_refuses_what_it_cannot_grow_to<T: CommitTarget<i64>>(open: &ShardedCube<i64, T>) {
        open.try_add(&[-40_000, 3], 1).unwrap();
        assert_eq!(open.query_box(&[-50_000, -10], &[20, 10]), Ok(1));
        for edge in [i64::MIN, i64::MAX, 1 << 40] {
            for far in [[edge, 0], [0, edge]] {
                let refused = open.try_add(&far, 1).unwrap_err();
                assert!(
                    matches!(refused, TryUpdateError::Refused(IoError::OutOfRange(_))),
                    "{far:?}: {refused:?}"
                );
                assert_eq!(open.cell_at(&far), Ok(0), "{far:?}");
            }
        }
        let everything = open.query_box(&[i64::MIN; 2], &[i64::MAX; 2]);
        assert_eq!(everything, Ok(1));
        assert_eq!(open.query_box(&[i64::MAX, 0], &[i64::MAX, 0]), Ok(0));
        assert_eq!(open.query_box(&[i64::MIN, 0], &[i64::MIN, 0]), Ok(0));
        assert!(open.try_add(&[0], 1).is_err(), "rank");
        assert_eq!(open.metrics()[0].ops_applied, 1);
        open.read_target(|t| t.cube().check_invariants());
    }

    /// A run is acknowledged as its deltas one by one would be — same
    /// acks, same applied counts, same answers — with one commit per
    /// stretch the cube covers; it stops at the first point the door
    /// refuses.
    #[test]
    fn a_run_is_acknowledged_as_its_singles_would_be() {
        let (run_fed, singles_fed) = (cube(), cube());
        let run: Vec<_> = (0..20i64)
            .map(|i| (vec![(i * 5) % 32, i % 16], i - 7))
            .collect();
        assert_eq!(run_fed.try_add_batch(&run), (20, None));
        for (point, delta) in &run {
            singles_fed.try_add(point, *delta).unwrap();
        }
        let counted = |c: &ShardedCube<i64>| {
            let uncommitted = |m| MetricsSnapshot {
                lock_hold_nanos: 0,
                batches_flushed: 0,
                ..m
            };
            uncommitted(c.metrics()[0])
        };
        assert_eq!(counted(&run_fed), counted(&singles_fed));
        let commits = |c: &ShardedCube<i64>| c.metrics()[0].batches_flushed;
        assert!(commits(&run_fed) < commits(&singles_fed));
        assert_eq!(commits(&singles_fed), 20);
        assert_eq!(
            run_fed.query_prefix(&[31, 15]),
            singles_fed.query_prefix(&[31, 15])
        );

        let cut = [
            (vec![1, 1], 1),
            (vec![30, 1], 1),
            (vec![32, 0], 1),
            (vec![2, 2], 1),
        ];
        let (acked, refused) = run_fed.try_add_batch(&cut);
        assert!(
            matches!(refused, Some(TryUpdateError::OutOfBounds(_))),
            "{refused:?}"
        );
        assert_eq!(acked, 2, "the prefix in front of the refused point");
    }

    /// On the logged target the stretch of a run the cube covers already
    /// is one commit — one record per delta, cancelling deltas included —
    /// and a point it must grow for commits alone, so a point it cannot
    /// grow to is refused alone.
    #[test]
    fn a_logged_run_is_one_commit_per_covered_stretch() {
        let log = crate::DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::dynamic(), Vec::new());
        let open = ShardedCube::unbounded(log.unwrap());
        let at = |row: i64, delta: i64| (vec![row, 0], delta);
        let run = [
            at(1, 5),
            at(1, -5),
            at(2, 1),
            at(40, 1),
            at(33, 1),
            at(1 << 40, 1),
            at(3, 1),
        ];
        let (acked, refused) = open.try_add_batch(&run);
        assert_eq!(acked, 5);
        assert!(
            matches!(
                refused,
                Some(TryUpdateError::Refused(IoError::OutOfRange(_)))
            ),
            "{refused:?}"
        );
        let m = open.metrics()[0];
        // [1, 1, 2] covered, 40 grows the cube, 33 is covered by then.
        assert_eq!((m.ops_applied, m.batches_flushed), (5, 3));
        assert_eq!(open.read_target(|t| t.wal_stats().1), 5, "never coalesced");
        assert_eq!(open.try_add_batch(&run[6..]), (1, None));
        assert_eq!(open.query_box(&[0, 0], &[63, 0]), Ok(4));
    }

    #[test]
    fn ops_reads_the_tree_counts_without_double_counting() {
        let c = cube();
        assert_eq!(c.ops(), OpSnapshot::default());
        for i in 0..16 {
            c.update(&[i, 0], 1);
        }
        let after_writes = c.ops();
        assert!(after_writes.writes > 0, "{after_writes:?}");
        let _ = c.query_prefix(&[31, 15]);
        let after_reads = c.ops();
        assert!(after_reads.reads > after_writes.reads, "{after_reads:?}");
        // Absorbing twice must not double-count.
        let again = c.ops();
        assert_eq!(again, after_reads);
        c.reset_ops();
        assert_eq!(c.ops(), OpSnapshot::default());
    }

    #[test]
    fn metrics_text_is_one_row() {
        let c = cube();
        c.update(&[0, 0], 1);
        let text = RangeSumEngine::metrics_text(&c).expect("sharded cube reports metrics");
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("applied"), "{text}");
        assert!(text.contains("panics"), "{text}");
    }

    #[test]
    fn trait_object_round_trip() {
        let mut c: Box<dyn RangeSumEngine<i64>> = Box::new(cube());
        c.apply_delta(&[1, 2], 5);
        assert_eq!(c.set(&[1, 2], 9), 5);
        assert_eq!(c.cell(&[1, 2]), 9);
        assert_eq!(c.range_sum(&Region::full(&Shape::new(&[32, 16]))), 9);
        assert_eq!(c.name(), "sharded-ddc");
    }
}
