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
//! Each stretch of a run that one slab owns takes that slab's commit
//! lock once; within it, the stretch the cube already covers is **one**
//! commit — one exclusive target acquisition, applied in order and
//! never coalesced, acknowledged as a whole or not at all — and a point
//! the cube must grow for commits alone, because only its own commit
//! can refuse it.
//!
//! [`ShardedCube`] is that pipeline. It is generic over the
//! [`CommitTarget`] a slab commits into, and there are two:
//!
//! * [`GrowableCube`] — apply only.
//! * [`DurableCube`](crate::DurableCube) — append → sync → apply: one
//!   log write and one sync per commit, one record per ack.
//!
//! State is addressed in signed `i64` coordinates throughout. A cube
//! built with bounds (a [`Shape`]) refuses coordinates outside them at
//! the door and is cut along **dimension 0** into
//! [`ShardConfig::shards`] contiguous slabs, each a cube of its own
//! behind its own lock; a cube without bounds grows where the data goes
//! and has one slab, which owns every `i64` row (its commit refuses a
//! point the cube cannot grow to). A range query is the sum, over the
//! slabs whose rows overlap it, of the slab's own range sum of the box
//! clamped into the slab — Figure 4's ≤ `2^d` prefix terms are formed
//! once, inside the cube. The `usize` / [`Region`] methods are casts
//! over the `i64` door for callers that hold checked coordinates
//! already.
//!
//! ## Consistency
//!
//! Each slab is linearizable: a read is one read lock on the slab's
//! target and one read of its cube, and a commit applies under the
//! exclusive lock, so a read sees a commit whole or not at all. An
//! update is visible from the moment its commit applies it, which is
//! before its call returns: a thread always reads its own acknowledged
//! writes, and a single-threaded caller observes exactly the semantics
//! of an unsharded engine (the `sharded_cube` differential test demands
//! bit-identical answers after every step). Readers never take the
//! commit lock or the exclusive target lock. Across slabs there is no
//! global snapshot.
//!
//! ## Failure
//!
//! Every commit runs under one `catch_unwind`, and one rule covers what
//! it can do wrong: **a commit that does not land fails its slab** —
//! read-only from then on ([`TryUpdateError::ShardFailed`]), reported
//! by [`ShardedCube::health`], never retried — and none of its run is
//! acknowledged. A retry is not exact: the commit may have changed the
//! cube before it failed, and on the logged target its record may be in
//! the log already. The one exception is a *typed refusal* (ENOSPC,
//! retries exhausted, a point the cube cannot grow to): nothing changed,
//! so the refusal is handed to the caller and the target keeps its own
//! degraded state.
//!
//! * A plain slab whose commit panicked says [`COMMIT_FAILED`]; a
//!   logged one says [`PANICKED_AFTER_APPEND`]: "restart to recover
//!   from the log" ([`CommitTarget::PANIC_CAUSE`]).
//! * Lock poisoning never panics a public entry point: the commit mutex
//!   cannot be poisoned by a supervised commit (the panic is caught
//!   inside the lock scope), and a poisoned target lock is recovered —
//!   the slab is failed by then, and *exact* repair of a half-applied
//!   commit is the log's job ([`crate::wal`]).
//!
//! [`try_add`]: ShardedCube::try_add
//! [`try_add_batch`]: ShardedCube::try_add_batch

use std::time::Instant;

use crate::sync::untracked::Ordering;
use crate::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use ddc_array::{AbelianGroup, OpCounter, OpSnapshot, Point, RangeSumEngine, Region, Shape};

use crate::config::DdcConfig;
use crate::growth::GrowableCube;
use crate::obs;
use crate::vfs::IoError;

/// Cube-wide observability handles (the wait for a slab's commit lock
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

/// What a slab of the pipeline commits into: the one seam between the
/// door and the state. Implemented by [`GrowableCube`] (apply only) and
/// [`DurableCube`](crate::DurableCube) (append → sync → apply); tests
/// substitute a double that fails on demand.
pub trait CommitTarget<G: AbelianGroup>: Send + Sync {
    /// The cube every read is answered from.
    fn cube(&self) -> &GrowableCube<G>;

    /// [`TryUpdateError::ShardFailed::cause`] of a slab one of whose
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

/// Tuning knobs for a [`ShardedCube`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Requested slab count. Clamped to `1..=n_0` (a slab needs at
    /// least one row of dimension 0); a cube without bounds has one.
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::with_shards(4)
    }
}

impl ShardConfig {
    /// `shards` slabs.
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
    /// The owning slab no longer accepts writes.
    ShardFailed {
        /// Index of the failed slab.
        shard: usize,
        /// Why: the target's [`CommitTarget::PANIC_CAUSE`]
        /// ([`COMMIT_FAILED`] or [`PANICKED_AFTER_APPEND`]).
        cause: &'static str,
    },
    /// The target refused the commit this ack needed (degraded, out of
    /// retries, or a point the cube cannot grow to).
    Refused(IoError),
}

/// [`TryUpdateError::ShardFailed::cause`] of a plain slab whose commit
/// panicked: its run was not acknowledged, but the commit may have
/// changed the cube before it failed.
pub const COMMIT_FAILED: &str =
    "a commit panicked and was not acknowledged; reads may include part of its run";

/// [`TryUpdateError::ShardFailed::cause`] of a logged slab whose commit
/// panicked: the record may be in the log, so the commit is not retried.
pub const PANICKED_AFTER_APPEND: &str =
    "a commit panicked after its log append; restart to recover from the log";

impl std::fmt::Display for TryUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryUpdateError::OutOfBounds(why) => why.fmt(f),
            TryUpdateError::ShardFailed { shard, cause } => {
                write!(f, "shard {shard} failed ({cause})")
            }
            TryUpdateError::Refused(why) => why.fmt(f),
        }
    }
}

impl std::error::Error for TryUpdateError {}

/// Point-in-time metrics for one slab (the S3 relaxed-atomic op
/// counters, extended per slab).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Slab index in `0..S`.
    pub shard: usize,
    /// First dimension-0 row owned by the slab (`0` without bounds).
    pub rows_lo: usize,
    /// One past the last dimension-0 row owned by the slab
    /// (`i64::MAX` without bounds).
    pub rows_hi: usize,
    /// Updates landed in the target, each acknowledged.
    pub ops_applied: u64,
    /// Commits performed.
    pub batches_flushed: u64,
    /// Slab visits: one per range, prefix or cell read that reached this
    /// slab (each is one cube read under one read-lock acquisition,
    /// however many Figure-4 terms the cube forms for it).
    pub queries: u64,
    /// Estimated nanoseconds the exclusive target lock was held for
    /// commits — the contention budget readers compete against.
    pub lock_hold_nanos: u64,
    /// Update attempts that reached the slab and were not acknowledged.
    pub ops_rejected: u64,
    /// Commits that failed the slab (0 or 1: a failed slab commits
    /// nothing more).
    pub worker_panics: u64,
}

/// What a slab's commit lock guards.
#[derive(Debug)]
struct SlabState {
    /// The slab's health: `None` while it takes writes, else the
    /// [`TryUpdateError::ShardFailed::cause`] it refuses them with.
    failed: Option<&'static str>,
    /// The slab's counters, kept here because the commit lock already
    /// serializes everything that writes them — all but `queries`.
    metrics: MetricsSnapshot,
}

#[derive(Debug)]
struct Shard<T> {
    /// Owned dimension-0 rows, `rows_lo..=rows_last`: every `i64`
    /// without bounds, which is why the end is inclusive.
    rows_lo: i64,
    rows_last: i64,
    target: RwLock<T>,
    /// The commit lock: it serializes the slab's commits, so the
    /// coverage a commit is cut by and its health cannot change under
    /// it. Lock order: `state` before `target`.
    state: Mutex<SlabState>,
    /// [`MetricsSnapshot::queries`]: reads do not take the commit lock.
    /// Untracked: it never gates control flow.
    queries: crate::sync::untracked::AtomicU64,
}

/// Locks a slab's commit lock, recovering from poisoning. A supervised
/// commit catches its panic *inside* the lock scope, so the mutex is
/// only ever poisoned by a panic in trivially transactional code
/// (counter updates); recovering is sound and keeps poisoning off the
/// public API.
fn lock_state<T>(shard: &Shard<T>) -> MutexGuard<'_, SlabState> {
    shard.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a slab's target, recovering from poisoning. A poisoned
/// target means a commit panicked mid-apply; the slab is failed by
/// then, and exact repair belongs to log recovery, not to refusing
/// reads.
fn read_target<T>(shard: &Shard<T>) -> RwLockReadGuard<'_, T> {
    shard.target.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a slab's target, recovering from poisoning (see
/// [`read_target`]).
fn write_target<T>(shard: &Shard<T>) -> RwLockWriteGuard<'_, T> {
    shard.target.write().unwrap_or_else(PoisonError::into_inner)
}

/// The commit pipeline over one cube (module docs: door, commit,
/// supervision), cut along dimension 0 into slabs when it has bounds.
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
///     ShardConfig::with_shards(4),
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
    shards: Vec<Shard<T>>,
    /// What [`RangeSumEngine::counter`] hands out: the trees count, and
    /// `ops()` sums them into this.
    counter: OpCounter,
    group: std::marker::PhantomData<G>,
}

impl<G: AbelianGroup> ShardedCube<G> {
    /// An all-zero cube bounded by `shape`. The slab count is clamped
    /// to the number of dimension-0 rows.
    pub fn new(shape: Shape, config: DdcConfig, shard_config: ShardConfig) -> Self {
        let d = shape.ndim();
        Self::bounded(shape, shard_config, |rows_lo| {
            let mut origin = vec![0; d];
            origin[0] = rows_lo;
            GrowableCube::with_origin(&origin, config)
        })
    }
}

impl<G: AbelianGroup, T: CommitTarget<G>> ShardedCube<G, T> {
    /// The pipeline over one target and no bounds: the cube grows where
    /// the data goes, and has one slab.
    pub fn unbounded(target: T) -> Self {
        Self::assemble(None, vec![(i64::MIN, i64::MAX, target)])
    }

    /// The pipeline bounded by `shape` over caller-built targets:
    /// `target(rows_lo)` is called once per slab with the slab's first
    /// dimension-0 row.
    ///
    /// # Panics
    ///
    /// Panics if a target's rank differs from the shape's.
    pub fn bounded(
        shape: Shape,
        shard_config: ShardConfig,
        mut target: impl FnMut(i64) -> T,
    ) -> Self {
        let n0 = shape.dim(0);
        let s = shard_config.shards.clamp(1, n0);
        let slabs = (0..s)
            .map(|i| ((i * n0 / s) as i64, ((i + 1) * n0 / s) as i64 - 1))
            .map(|(rows_lo, rows_last)| (rows_lo, rows_last, target(rows_lo)))
            .collect();
        Self::assemble(Some(shape), slabs)
    }

    fn assemble(bounds: Option<Shape>, slabs: Vec<(i64, i64, T)>) -> Self {
        let shards: Vec<Shard<T>> = slabs
            .into_iter()
            .enumerate()
            .map(|(shard, (rows_lo, rows_last, target))| Shard {
                rows_lo,
                rows_last,
                target: RwLock::new(target),
                state: Mutex::new(SlabState {
                    failed: None,
                    metrics: MetricsSnapshot {
                        shard,
                        rows_lo: rows_lo.max(0) as usize,
                        rows_hi: rows_last.saturating_add(1) as usize,
                        ..MetricsSnapshot::default()
                    },
                }),
                queries: Default::default(),
            })
            .collect();
        let ndim = read_target(&shards[0]).cube().ndim();
        if let Some(shape) = &bounds {
            assert_eq!(shape.ndim(), ndim, "target rank differs from {shape}");
        }
        Self {
            ndim,
            bounds,
            shards,
            counter: OpCounter::new(),
            group: std::marker::PhantomData,
        }
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

    /// Index of the slab owning dimension-0 row `row` (door-checked, so
    /// some slab does): the first whose rows do not end before it.
    fn owner_index(&self, row: i64) -> usize {
        self.shards.partition_point(|shard| shard.rows_last < row)
    }

    /// Adds `delta` at `point` if the owning slab can acknowledge it: a
    /// run of one (see [`ShardedCube::try_add_batch`]).
    pub fn try_add(&self, point: &[i64], delta: G) -> Result<(), TryUpdateError> {
        let (_, refused) = self.try_add_batch(&[(point, delta)]);
        refused.map_or(Ok(()), Err)
    }

    /// Adds a run of deltas in order, stopping at the first the cube
    /// cannot acknowledge: returns how many leading deltas were
    /// acknowledged — landed in the cube, and logged first on a logged
    /// target — and why the next one was not. Each stretch of the run
    /// that one slab owns takes that slab's commit lock once; the
    /// stretch of it the cube already covers is **one** commit,
    /// acknowledged as a whole or not at all, and a point the cube must
    /// grow for commits alone, since only its own commit can refuse it.
    /// The points are borrowed (`&[i64]`, `Vec<i64>`) or inline
    /// ([`Point`]): the run is never copied.
    pub fn try_add_batch<P: AsRef<[i64]>>(
        &self,
        run: &[(P, G)],
    ) -> (usize, Option<TryUpdateError>) {
        let owner = |(point, _): &(P, G)| {
            let point = point.as_ref();
            let door = self.check_door(point);
            door.map(|()| self.owner_index(point[0]))
        };
        let mut acked = 0;
        while acked < run.len() {
            let slab = match owner(&run[acked]) {
                Ok(slab) => slab,
                Err(why) => return (acked, Some(TryUpdateError::OutOfBounds(why))),
            };
            let rest = &run[acked..];
            let stretch = rest.iter().take_while(|update| owner(update) == Ok(slab));
            let stretch = &rest[..stretch.count()];
            let (landed, refused) = Self::commit_stretch(&self.shards[slab], stretch);
            acked += landed;
            if refused.is_some() {
                return (acked, refused);
            }
        }
        (acked, None)
    }

    /// [`ShardedCube::try_add_batch`] for one slab's stretch of the run,
    /// behind its commit lock: one commit per stretch the cube covers
    /// already (at most [`RUN_CHUNK`]), one per point it must grow for.
    fn commit_stretch<P: AsRef<[i64]>>(
        slab: &Shard<T>,
        run: &[(P, G)],
    ) -> (usize, Option<TryUpdateError>) {
        let wait = shard_obs().queue_wait_ns.span("shard.queue_wait");
        let mut state = lock_state(slab);
        wait.end();
        let mut acked = 0;
        while acked < run.len() {
            let rest = &run[acked..];
            let covered = if rest.len() == 1 {
                1
            } else {
                let target = read_target(slab);
                let covers = |(point, _): &&(P, G)| target.cube().covers(point.as_ref());
                rest.iter().take(RUN_CHUNK).take_while(covers).count()
            };
            let taken = &rest[..covered.max(1)];
            if let Err(refused) = Self::commit(slab, &mut state, taken) {
                state.metrics.ops_rejected += 1;
                return (acked, Some(refused));
            }
            acked += taken.len();
        }
        (acked, None)
    }

    /// Supervised commit of `batch`, in order, under one exclusive
    /// target acquisition and one `catch_unwind`, with the slab's commit
    /// lock held. A typed refusal changed nothing and is handed back; a
    /// commit that panics fails the slab (module docs: one rule).
    fn commit<P: AsRef<[i64]>>(
        shard: &Shard<T>,
        state: &mut SlabState,
        batch: &[(P, G)],
    ) -> Result<(), TryUpdateError> {
        let slab = state.metrics.shard;
        if let Some(cause) = state.failed {
            return Err(TryUpdateError::ShardFailed { shard: slab, cause });
        }
        // One clock pair feeds both the exact lock-hold total and the
        // span, so every commit is timed.
        let held = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_target(shard).commit(batch)
        }));
        let held_ns = held.elapsed().as_nanos() as u64;
        state.metrics.lock_hold_nanos += held_ns;
        shard_obs().commit_ns.observe("shard.commit", held, held_ns);
        match outcome {
            Ok(Ok(())) => {
                state.metrics.ops_applied += batch.len() as u64;
                state.metrics.batches_flushed += 1;
                Ok(())
            }
            Ok(Err(why)) => Err(TryUpdateError::Refused(why)),
            Err(_) => {
                state.metrics.worker_panics += 1;
                let cause = T::PANIC_CAUSE;
                state.failed = Some(cause);
                Err(TryUpdateError::ShardFailed { shard: slab, cause })
            }
        }
    }

    /// Does nothing: nothing is ever queued, every acknowledged update is in its cube.
    pub fn flush(&self) {}

    /// Why the cube no longer takes every write, when it does not: the
    /// first failed slab, else the first degraded target. `None` is
    /// fully serving; either way reads are served.
    pub fn health(&self) -> Option<String> {
        self.shards.iter().enumerate().find_map(|(shard, s)| {
            let failed = lock_state(s).failed;
            match failed {
                Some(cause) => Some(TryUpdateError::ShardFailed { shard, cause }.to_string()),
                None => read_target(s).degraded().map(str::to_string),
            }
        })
    }

    /// Runs `f` on slab `shard`'s target under its read lock (log
    /// statistics, pool counters, structural audits).
    pub fn read_target<R>(&self, shard: usize, f: impl FnOnce(&T) -> R) -> R {
        f(&read_target(&self.shards[shard]))
    }

    /// One read of a slab: `read` against its cube, under the target's
    /// read lock. Failed slabs stay readable.
    fn read(shard: &Shard<T>, read: impl FnOnce(&GrowableCube<G>) -> G) -> G {
        shard.queries.fetch_add(1, Ordering::Relaxed);
        read(read_target(shard).cube())
    }

    /// Sum over the closed box `[lo, hi]`: each slab whose rows overlap
    /// it answers the box clamped into the slab (Figure 4 happens in
    /// its cube). Without bounds, parts the cube has not grown to
    /// contribute zero.
    pub fn query_box(&self, lo: &[i64], hi: &[i64]) -> Result<G, OutOfBounds> {
        self.check_door(lo)?;
        self.check_door(hi)?;
        if lo.iter().zip(hi).any(|(l, h)| l > h) {
            return Err(OutOfBounds(format!("inverted box {lo:?}..{hi:?}")));
        }
        let (Some(mut l), Some(mut h)) = (Point::from_slice(lo), Point::from_slice(hi)) else {
            unreachable!("the door passed a corner of more than MAX_RANK coordinates")
        };
        let mut acc = G::ZERO;
        for shard in &self.shards[self.owner_index(lo[0])..=self.owner_index(hi[0])] {
            l[0] = lo[0].max(shard.rows_lo);
            h[0] = hi[0].min(shard.rows_last);
            acc = acc.add(Self::read(shard, |c| c.range_sum(&l, &h)));
        }
        Ok(acc)
    }

    /// One cell's value: served entirely by the owning slab.
    pub fn cell_at(&self, point: &[i64]) -> Result<G, OutOfBounds> {
        self.check_door(point)?;
        let shard = &self.shards[self.owner_index(point[0])];
        Ok(Self::read(shard, |c| c.cell(point)))
    }

    /// Populated cells.
    pub fn entries(&self) -> Vec<(Vec<i64>, G)> {
        self.shards
            .iter()
            .flat_map(|shard| read_target(shard).cube().entries())
            .collect()
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
    /// rejected delta (a failed slab, a refusing target) is *shed* — it
    /// is in its slab's `ops_rejected`, and counted in `shard.shed` so
    /// writes lost without the caller hearing of it show up next to the
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

    /// Per-slab metrics, in slab order.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        let snapshot = |shard: &Shard<T>| MetricsSnapshot {
            queries: shard.queries.load(Ordering::Relaxed),
            ..lock_state(shard).metrics
        };
        self.shards.iter().map(snapshot).collect()
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

    /// The sum of the slab trees' counters, which is also left in
    /// [`RangeSumEngine::counter`] (as of this call).
    fn ops(&self) -> OpSnapshot {
        let mut total = OpSnapshot::default();
        for shard in &self.shards {
            let slab = read_target(shard).cube().counter().snapshot();
            total.reads += slab.reads;
            total.writes += slab.writes;
        }
        self.counter.reset();
        self.counter.read(total.reads);
        self.counter.write(total.writes);
        total
    }

    fn reset_ops(&self) {
        for shard in &self.shards {
            read_target(shard).cube().counter().reset();
        }
        self.counter.reset();
    }

    fn heap_bytes(&self) -> usize {
        let slab = |shard: &Shard<T>| read_target(shard).cube().heap_bytes();
        self.shards.iter().map(slab).sum()
    }

    fn metrics_text(&self) -> Option<String> {
        let mut out = String::from(
            "shard  rows          applied  batches   queries  rejected  panics  lock-held\n",
        );
        for m in self.metrics() {
            out.push_str(&format!(
                "{:>5}  [{:>4},{:>4})  {:>8}  {:>7}  {:>8}  {:>8}  {:>6}  {:>7.3}ms\n",
                m.shard,
                m.rows_lo,
                m.rows_hi,
                m.ops_applied,
                m.batches_flushed,
                m.queries,
                m.ops_rejected,
                m.worker_panics,
                m.lock_hold_nanos as f64 / 1e6,
            ));
        }
        out.pop();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DdcEngine;
    use std::sync::atomic::AtomicU64;

    fn cube(shards: usize) -> ShardedCube<i64> {
        ShardedCube::new(
            Shape::new(&[32, 16]),
            DdcConfig::dynamic(),
            ShardConfig::with_shards(shards),
        )
    }

    /// A target whose next `armed` commits panic before touching the
    /// cube — what the supervisor exists to contain.
    struct Flaky {
        cube: GrowableCube<i64>,
        armed: Arc<AtomicU64>,
    }

    impl CommitTarget<i64> for Flaky {
        fn cube(&self) -> &GrowableCube<i64> {
            &self.cube
        }
        fn commit<P: AsRef<[i64]>>(&mut self, batch: &[(P, i64)]) -> Result<(), IoError> {
            if self.armed.load(Ordering::SeqCst) > 0 {
                self.armed.fetch_sub(1, Ordering::SeqCst);
                panic!("injected commit failure");
            }
            self.cube.commit(batch)
        }
    }

    /// An 8 × 4 cube whose slab 0 fails its next `n` commits.
    fn flaky(n: u64, shards: usize) -> ShardedCube<i64, Flaky> {
        let shard_config = ShardConfig::with_shards(shards);
        ShardedCube::bounded(Shape::new(&[8, 4]), shard_config, |rows_lo| Flaky {
            cube: GrowableCube::with_origin(&[rows_lo, 0], DdcConfig::dynamic()),
            armed: Arc::new(AtomicU64::new(if rows_lo == 0 { n } else { 0 })),
        })
    }

    #[test]
    fn slabs_cover_dimension_zero_exactly() {
        for (n0, s) in [(32usize, 4usize), (31, 4), (5, 8), (1, 3), (7, 7)] {
            let c = ShardedCube::<i64>::new(
                Shape::new(&[n0, 4]),
                DdcConfig::dynamic(),
                ShardConfig::with_shards(s),
            );
            assert_eq!(c.shards.len(), s.min(n0));
            let mut next = 0;
            for shard in &c.shards {
                assert_eq!(shard.rows_lo, next);
                assert!(shard.rows_last >= shard.rows_lo);
                next = shard.rows_last + 1;
            }
            assert_eq!(next, n0 as i64);
            for row in 0..n0 as i64 {
                let o = &c.shards[c.owner_index(row)];
                assert!(o.rows_lo <= row && row <= o.rows_last);
            }
        }
    }

    #[test]
    fn matches_unsharded_engine_on_every_prefix() {
        let mut plain = DdcEngine::<i64>::dynamic(Shape::new(&[32, 16]));
        let c = cube(4);
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
    fn queries_see_queued_writes_immediately() {
        let c = cube(4);
        c.update(&[10, 10], 7);
        assert_eq!(c.query_prefix(&[31, 15]), 7);
        c.update(&[10, 10], -7);
        assert_eq!(c.query(&Region::full(&Shape::new(&[32, 16]))), 0);
    }

    #[test]
    fn exhausted_restart_budget_fails_the_shard() {
        let c = flaky(1, 2);
        let failed = TryUpdateError::ShardFailed {
            shard: 0,
            cause: COMMIT_FAILED,
        };
        // Its commit panics → failed, not acknowledged, no retry.
        assert_eq!(c.try_update(&[0, 0], 1), Err(failed.clone()));
        let err = c.try_update(&[1, 0], 1).unwrap_err();
        assert_eq!(err, failed);
        assert!(err.to_string().contains("shard 0"));
        assert_eq!(c.health(), Some(failed.to_string()));
        // The infallible facades shed the same rejection, and say so.
        let shed_before = obs::counter("shard.shed").get();
        c.update(&[1, 0], 1);
        c.update(&[2, 0], 1);
        assert!(obs::counter("shard.shed").get() >= shed_before + 2);
        assert_eq!(c.metrics()[0].ops_rejected, 4);
        // The sibling slab is unaffected.
        c.try_update(&[7, 0], 3).unwrap();
        assert_eq!(c.metrics()[1].ops_applied, 1);
        // The failed slab stays readable; the refused delta is not in it.
        assert_eq!(c.query_prefix(&[7, 3]), 3);
    }

    #[test]
    fn the_door_refuses_what_the_usize_facade_panics_on() {
        let c = cube(2);
        for bad in [&[32, 0][..], &[-1, 0], &[0], &[0, i64::MAX]] {
            let refused = c.try_add(bad, 1).unwrap_err();
            assert!(matches!(refused, TryUpdateError::OutOfBounds(_)), "{bad:?}");
            assert!(c.cell_at(bad).is_err(), "{bad:?}");
        }
        assert!(c.query_box(&[2, 2], &[1, 1]).is_err(), "inverted");
        assert_eq!(c.metrics()[0].ops_applied, 0);
        let facade = std::panic::catch_unwind(|| c.update(&[32, 0], 1));
        assert!(facade.is_err(), "update() must not shed a caller bug");
        // Without bounds the door checks rank only: every `i64` row has
        // an owner, the commit refuses what the cube cannot grow to, and
        // reads clip to what it covers — on either target.
        let log = crate::DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::sparse(), Vec::new());
        let open = ShardedCube::unbounded(log.unwrap());
        unbounded_refuses_what_it_cannot_grow_to(&open);
        assert_eq!(open.read_target(0, |t| t.wal_stats().1), 1, "one record");
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
        let slab = &open.metrics()[0];
        assert_eq!((open.metrics().len(), slab.ops_applied), (1, 1));
        open.read_target(0, |t| t.cube().check_invariants());
    }

    /// A run is acknowledged as its deltas one by one would be — same
    /// acks, same applied counts, same answers — under one commit lock
    /// acquisition per stretch a slab owns, and one commit per stretch
    /// the cube covers; it stops at the first point the door refuses.
    #[test]
    fn a_run_enqueues_as_its_singles_would() {
        let (run_fed, singles_fed) = (cube(4), cube(4));
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
            c.metrics().into_iter().map(uncommitted).collect::<Vec<_>>()
        };
        assert_eq!(counted(&run_fed), counted(&singles_fed));
        let commits =
            |c: &ShardedCube<i64>| c.metrics().iter().map(|m| m.batches_flushed).sum::<u64>();
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
        let slab = open.metrics()[0];
        // [1, 1, 2] covered, 40 grows the cube, 33 is covered by then.
        assert_eq!((slab.ops_applied, slab.batches_flushed), (5, 3));
        assert_eq!(
            open.read_target(0, |t| t.wal_stats().1),
            5,
            "never coalesced"
        );
        assert_eq!(open.try_add_batch(&run[6..]), (1, None));
        assert_eq!(open.query_box(&[0, 0], &[63, 0]), Ok(4));
    }

    #[test]
    fn facade_counter_absorbs_shard_ops() {
        let c = cube(4);
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
    fn metrics_text_is_one_row_per_shard() {
        let c = cube(3);
        c.update(&[0, 0], 1);
        let text = RangeSumEngine::metrics_text(&c).expect("sharded cube reports metrics");
        assert_eq!(text.lines().count(), 1 + 3, "{text}");
        assert!(text.contains("applied"), "{text}");
        assert!(text.contains("panics"), "{text}");
    }

    #[test]
    fn trait_object_round_trip() {
        let mut c: Box<dyn RangeSumEngine<i64>> = Box::new(cube(4));
        c.apply_delta(&[1, 2], 5);
        assert_eq!(c.set(&[1, 2], 9), 5);
        assert_eq!(c.cell(&[1, 2]), 9);
        assert_eq!(c.range_sum(&Region::full(&Shape::new(&[32, 16]))), 9);
        assert_eq!(c.name(), "sharded-ddc");
    }
}
