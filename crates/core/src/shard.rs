//! The commit pipeline: every served update — logged or not — takes the
//! same path to the cube, and every read the same path back.
//!
//! ```text
//!                   ┌ door ┐   ┌──── queue ────┐   ┌──── target ────┐
//! try_add_batch ──▶ rank and ─▶ bounded, per ───▶ [log: append, sync] ─▶ ack
//!                   bounds      slab; coalesce      apply to the cube
//! ```
//!
//! The unit it moves is a **run** of updates ([`try_add_batch`];
//! [`try_add`] is a run of one): each stretch of a run that one slab owns
//! is enqueued under one acquisition of that slab's queue lock.
//!
//! [`ShardedCube`] is that pipeline. It is generic over the
//! [`CommitTarget`] a slab commits into, and there are two:
//!
//! * [`GrowableCube`] — apply only. An update is acknowledged when it
//!   is *enqueued*; the queue is landed in one exclusive acquisition
//!   once it reaches [`ShardConfig::batch_capacity`] (group commit), and
//!   queued deltas are coalesced per cell first, which is sound because
//!   [`AbelianGroup`] addition commutes.
//! * [`DurableCube`](crate::DurableCube) — append → sync → apply. The
//!   target states that an acknowledgement needs the commit
//!   ([`CommitTarget::ACK_NEEDS_COMMIT`]), so the pipeline commits
//!   inline before [`try_add_batch`] returns, straight from the caller's
//!   run (nothing sits in the queue, nothing is coalesced: one record
//!   per ack, in order). The stretch of the run the cube already covers
//!   is **one** commit — one log write, one sync, all of it acknowledged
//!   or none — and a point the cube must grow for commits alone, because
//!   only its own commit can refuse it.
//!
//! State is addressed in signed `i64` coordinates throughout. A cube
//! built with bounds (a [`Shape`]) refuses coordinates outside them at
//! the door and is cut along **dimension 0** into
//! [`ShardConfig::shards`] contiguous slabs, each a cube of its own
//! behind its own lock; a cube without bounds grows where the data goes
//! and has one slab, which owns every `i64` row (only a target whose
//! ack needs the commit may go without bounds: the commit is what
//! refuses a point the cube cannot grow to). A range query is the sum,
//! over the slabs whose rows overlap it, of the slab's own range sum of
//! the box clamped into the slab — Figure 4's ≤ `2^d` prefix terms are
//! formed once, inside the cube. The `usize` / [`Region`] methods are
//! casts over the `i64` door for callers that hold checked coordinates
//! already.
//!
//! ## Consistency
//!
//! Each slab is linearizable: a query reads *through* the slab's queue
//! — cube value plus the contribution of the still-queued deltas — so a
//! thread always reads its own writes and a single-threaded caller
//! observes exactly the semantics of an unsharded engine (the
//! `sharded_cube` differential test demands bit-identical answers after
//! every step). Readers never take the exclusive target lock; only
//! commits do. Across slabs there is no global snapshot.
//!
//! **Visibility.** An update is visible to other threads only once the
//! call that made it has been acknowledged (`Ok`). On the logged target
//! that is after its covering `sync` — one sync covers a whole group,
//! which becomes visible as a whole: the queue lock is held from the
//! enqueue to the end of the commit, and the cube changes last, under
//! the exclusive target lock.
//!
//! ## Failure
//!
//! Every commit runs under one `catch_unwind`, and one rule covers what
//! it can do wrong: **a commit that does not land fails its slab** —
//! read-only from then on ([`TryUpdateError::ShardFailed`]), reported
//! by [`ShardedCube::health`], never retried. A retry is not exact: the
//! commit may have changed the cube before it failed, and on the logged
//! target its record may be in the log already. The one exception is a
//! logged commit's *typed refusal* (ENOSPC, retries exhausted, a point
//! the cube cannot grow to): nothing was acknowledged, so the refusal
//! is handed to the caller and the target keeps its own degraded state.
//!
//! * A plain slab's queue holds acknowledged deltas, so a failed commit
//!   leaves them queued and reads keep seeing them ([`COMMIT_FAILED`]
//!   says that reads may count part of the batch twice, when the commit
//!   changed the cube before failing). A healthy queue is bounded by
//!   [`ShardConfig::batch_capacity`], and a failed one takes no more.
//! * A logged commit that panics fails the pipeline with
//!   [`PANICKED_AFTER_APPEND`]: "restart to recover from the log".
//! * Lock poisoning never panics a public entry point: the queue mutex
//!   cannot be poisoned by a supervised commit (the panic is caught
//!   inside the lock scope), and a poisoned target lock is recovered —
//!   the slab is failed by then, and *exact* repair of a half-applied
//!   batch is the log's job ([`crate::wal`]).
//!
//! [`try_add`]: ShardedCube::try_add
//! [`try_add_batch`]: ShardedCube::try_add_batch

use std::collections::HashMap;
use std::time::Instant;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use ddc_array::{AbelianGroup, OpCounter, OpSnapshot, RangeSumEngine, Region, Shape};

use crate::config::DdcConfig;
use crate::growth::GrowableCube;
use crate::obs;
use crate::vfs::IoError;

/// Cube-wide observability handles (queue-wait vs. commit latency — the
/// two halves of a write's life), cached off the registry lock.
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
/// queue and the state. Implemented by [`GrowableCube`] (apply only) and
/// [`DurableCube`](crate::DurableCube) (append → sync → apply); tests
/// substitute a double that fails on demand.
pub trait CommitTarget<G: AbelianGroup>: Send + Sync {
    /// The cube every read is answered from.
    fn cube(&self) -> &GrowableCube<G>;

    /// True when an update may be acknowledged only after its commit
    /// (a logged target: the ack is the durability promise). The
    /// pipeline then commits each run inline (see the module docs for
    /// how it is grouped), hands a refusal to the caller, and never
    /// retries a commit that panicked.
    const ACK_NEEDS_COMMIT: bool;

    /// Lands `batch`, in order. `Err` means none of it is acknowledged.
    fn commit(&mut self, batch: &[(Vec<i64>, G)]) -> Result<(), IoError>;

    /// Why the target refuses writes, when it does.
    fn degraded(&self) -> Option<&str> {
        None
    }
}

impl<G: AbelianGroup> CommitTarget<G> for GrowableCube<G> {
    const ACK_NEEDS_COMMIT: bool = false;

    fn cube(&self) -> &GrowableCube<G> {
        self
    }

    fn commit(&mut self, batch: &[(Vec<i64>, G)]) -> Result<(), IoError> {
        for (point, delta) in batch {
            self.add(point, *delta);
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
    /// Queue length that triggers a group commit, and so the bound on a
    /// slab's queue. `1` degenerates to write-through locking, which is
    /// also what a target whose ack needs the commit gets whatever this
    /// says.
    pub batch_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            batch_capacity: 128,
        }
    }
}

impl ShardConfig {
    /// `shards` slabs with default batching.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// Most updates of a run one logged commit takes: one log write and one
/// sync cover at most this many acknowledgements.
const LOGGED_RUN_CHUNK: usize = 4096;

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
    /// The point did not pass the door; nothing was queued.
    OutOfBounds(OutOfBounds),
    /// The owning slab no longer accepts writes.
    ShardFailed {
        /// Index of the failed slab.
        shard: usize,
        /// Why: [`COMMIT_FAILED`] or [`PANICKED_AFTER_APPEND`].
        cause: &'static str,
    },
    /// The target refused the commit this ack needed (a logged target:
    /// degraded, out of retries, or a point it cannot grow to).
    Refused(IoError),
}

/// [`TryUpdateError::ShardFailed::cause`] of a slab whose commit of
/// acknowledged deltas panicked or was refused. The deltas stay queued
/// and readable; the commit may have changed the cube before it failed.
pub const COMMIT_FAILED: &str =
    "a commit of acknowledged updates failed; reads may include part of its batch twice";

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
    /// Deltas pushed onto the write queue.
    pub ops_enqueued: u64,
    /// Deltas landed in the target (equals enqueued after a flush).
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
    /// High-water mark of the write queue depth.
    pub queue_depth_max: u64,
    /// Update attempts that reached the slab and were not acknowledged.
    pub ops_rejected: u64,
    /// Commits that failed the slab (0 or 1: a failed slab commits
    /// nothing more).
    pub worker_panics: u64,
}

#[derive(Debug)]
struct ShardQueue<G: AbelianGroup> {
    /// Acknowledged deltas that have not landed yet (always empty on a
    /// target whose ack needs the commit).
    deltas: Vec<(Vec<i64>, G)>,
    /// The slab's health: `None` while it takes writes, else the
    /// [`TryUpdateError::ShardFailed::cause`] it refuses them with.
    /// Kept under the queue lock so it changes in step with enqueues
    /// and commits.
    failed: Option<&'static str>,
    /// The slab's counters, kept here because the queue lock already
    /// serializes everything that writes them — all but `queries`.
    metrics: MetricsSnapshot,
}

#[derive(Debug)]
struct Shard<G: AbelianGroup, T> {
    /// Owned dimension-0 rows, `rows_lo..=rows_last`: every `i64`
    /// without bounds, which is why the end is inclusive.
    rows_lo: i64,
    rows_last: i64,
    target: RwLock<T>,
    /// Queue + health. Lock order: `queue` before `target` —
    /// commits hold the queue while applying so a concurrent reader that
    /// drains the queue cannot miss deltas enqueued behind it.
    queue: Mutex<ShardQueue<G>>,
    /// Fast-path mirror of the queue length so readers skip the mutex
    /// when nothing is pending.
    pending: AtomicUsize,
    /// [`MetricsSnapshot::queries`]: reads do not take the queue lock.
    /// Untracked: it never gates control flow.
    queries: crate::sync::untracked::AtomicU64,
}

/// Locks a slab's queue, recovering from poisoning. A supervised commit
/// catches its panic *inside* the lock scope, so the mutex is only ever
/// poisoned by a panic in trivially transactional code (push/drain);
/// recovering is sound and keeps poisoning off the public API.
fn lock_queue<G: AbelianGroup, T>(shard: &Shard<G, T>) -> MutexGuard<'_, ShardQueue<G>> {
    shard.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a slab's target, recovering from poisoning. A poisoned
/// target means a commit panicked mid-apply; the slab is failed by
/// then, and exact repair belongs to log recovery, not to refusing
/// reads.
fn read_target<G: AbelianGroup, T>(shard: &Shard<G, T>) -> RwLockReadGuard<'_, T> {
    shard.target.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a slab's target, recovering from poisoning (see
/// [`read_target`]).
fn write_target<G: AbelianGroup, T>(shard: &Shard<G, T>) -> RwLockWriteGuard<'_, T> {
    shard.target.write().unwrap_or_else(PoisonError::into_inner)
}

/// Queued deltas summed per cell, zero sums dropped.
fn coalesce<G: AbelianGroup>(deltas: &[(Vec<i64>, G)]) -> Vec<(Vec<i64>, G)> {
    let mut cells: HashMap<&[i64], G> = HashMap::with_capacity(deltas.len());
    for (point, delta) in deltas {
        let slot = cells.entry(point.as_slice()).or_insert(G::ZERO);
        *slot = slot.add(*delta);
    }
    cells
        .into_iter()
        .filter(|(_, d)| !d.is_zero())
        .map(|(p, d)| (p.to_vec(), d))
        .collect()
}

fn signed(point: &[usize]) -> Vec<i64> {
    point.iter().map(|&c| c as i64).collect()
}

/// The commit pipeline over one cube (module docs: door, queue, target,
/// read-through, supervision), cut along dimension 0 into slabs when it
/// has bounds.
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
    shard_config: ShardConfig,
    shards: Vec<Shard<G, T>>,
    /// What [`RangeSumEngine::counter`] hands out: the trees count, and
    /// `ops()` sums them into this.
    counter: OpCounter,
}

impl<G: AbelianGroup> ShardedCube<G> {
    /// An all-zero cube bounded by `shape`, acknowledged on enqueue. The
    /// slab count is clamped to the number of dimension-0 rows.
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
    ///
    /// # Panics
    ///
    /// Panics unless the target's ack needs the commit: whether the cube
    /// can grow to a point depends on the points before it, so only a
    /// commit can refuse one, and an ack on enqueue would already be out.
    pub fn unbounded(target: T, shard_config: ShardConfig) -> Self {
        assert!(T::ACK_NEEDS_COMMIT, "an ack on enqueue needs bounds");
        Self::assemble(None, shard_config, vec![(i64::MIN, i64::MAX, target)])
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
        Self::assemble(Some(shape), shard_config, slabs)
    }

    fn assemble(
        bounds: Option<Shape>,
        shard_config: ShardConfig,
        slabs: Vec<(i64, i64, T)>,
    ) -> Self {
        let shards: Vec<Shard<G, T>> = slabs
            .into_iter()
            .enumerate()
            .map(|(shard, (rows_lo, rows_last, target))| Shard {
                rows_lo,
                rows_last,
                target: RwLock::new(target),
                queue: Mutex::new(ShardQueue {
                    deltas: Vec::new(),
                    failed: None,
                    metrics: MetricsSnapshot {
                        shard,
                        rows_lo: rows_lo.max(0) as usize,
                        rows_hi: rows_last.saturating_add(1) as usize,
                        ..MetricsSnapshot::default()
                    },
                }),
                pending: AtomicUsize::new(0),
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
            shard_config,
            shards,
            counter: OpCounter::new(),
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

    /// The door: rank, and the bounds when there are any.
    fn check_door(&self, point: &[i64]) -> Result<(), OutOfBounds> {
        if point.len() != self.ndim {
            return Err(OutOfBounds(format!(
                "point rank {} does not match cube rank {}",
                point.len(),
                self.ndim
            )));
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
        let (_, refused) = self.try_add_batch(&[(point.to_vec(), delta)]);
        refused.map_or(Ok(()), Err)
    }

    /// Adds a run of deltas in order, stopping at the first the cube
    /// cannot acknowledge: returns how many leading deltas were
    /// acknowledged and why the next one was not. Acknowledged means
    /// queued (and visible to every read) or, on a target whose ack
    /// needs the commit, landed — there the stretch of the run the cube
    /// already covers is **one** commit (one log write, one sync),
    /// acknowledged as a whole or not at all, and a point the cube must
    /// grow for commits alone, since only its own commit can refuse it.
    /// Each stretch of the run that one slab owns takes that slab's
    /// queue lock once.
    pub fn try_add_batch(&self, run: &[(Vec<i64>, G)]) -> (usize, Option<TryUpdateError>) {
        let owner = |(point, _): &(Vec<i64>, G)| {
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
            let slab = &self.shards[slab];
            let wait = obs::timer();
            let mut queue = lock_queue(slab);
            wait.observe("shard.queue_wait", &shard_obs().queue_wait_ns);
            let (landed, refused) = self.enqueue(slab, &mut queue, stretch);
            slab.pending.store(queue.deltas.len(), Ordering::Release);
            queue.metrics.ops_rejected += u64::from(refused.is_some());
            acked += landed;
            if refused.is_some() {
                return (acked, refused);
            }
        }
        (acked, None)
    }

    /// [`ShardedCube::try_add_batch`] for one slab's stretch of the run,
    /// behind its queue lock.
    fn enqueue(
        &self,
        slab: &Shard<G, T>,
        queue: &mut ShardQueue<G>,
        run: &[(Vec<i64>, G)],
    ) -> (usize, Option<TryUpdateError>) {
        let batch = self.shard_config.batch_capacity.max(1);
        let mut acked = 0;
        while acked < run.len() {
            if let Some(cause) = queue.failed {
                let shard = queue.metrics.shard;
                return (acked, Some(TryUpdateError::ShardFailed { shard, cause }));
            }
            // How much of the run goes in together. When the ack needs the
            // commit: the stretch the cube covers already, at most a chunk
            // — a point it must grow for goes alone, since only its own
            // commit can refuse it. Else: up to the next flush trigger, so
            // a run commits where the same deltas enqueued one by one
            // would have.
            let rest = &run[acked..];
            let room = if T::ACK_NEEDS_COMMIT {
                let target = read_target(slab);
                let covered = |(point, _): &&(Vec<i64>, G)| target.cube().covers(point);
                rest.iter()
                    .take(LOGGED_RUN_CHUNK)
                    .take_while(covered)
                    .count()
            } else {
                batch.saturating_sub(queue.deltas.len())
            };
            let taken = &rest[..rest.len().min(room.max(1))];
            let depth = (queue.deltas.len() + taken.len()) as u64;
            queue.metrics.ops_enqueued += taken.len() as u64;
            queue.metrics.queue_depth_max = queue.metrics.queue_depth_max.max(depth);
            if !T::ACK_NEEDS_COMMIT {
                queue.deltas.extend_from_slice(taken);
                if queue.deltas.len() >= batch {
                    // Acknowledged either way: a failed commit fails the
                    // slab, which refuses the rest of the run above.
                    drop(self.commit(slab, queue, &[]));
                }
            } else if let Err(refused) = self.commit(slab, queue, taken) {
                return (acked, Some(refused));
            }
            acked += taken.len();
        }
        (acked, None)
    }

    /// Supervised commit, under one exclusive target acquisition and one
    /// `catch_unwind`, of what the target's ack rule makes the batch:
    /// `group` as it stands when the ack needs the commit (one record
    /// per ack, in order: a logged run is never coalesced, and never
    /// sits in the queue), else the queue, coalesced per cell. Called
    /// with the queue lock held so no concurrent enqueue can slip
    /// between coalesce and apply.
    ///
    /// The queue is drained only *after* a successful commit. A commit
    /// that panics, or is refused with acknowledged deltas in it, fails
    /// the slab (module docs: one rule), and its deltas stay queued and
    /// readable. A logged group that is refused is dropped and handed
    /// back — it was never acknowledged.
    fn commit(
        &self,
        shard: &Shard<G, T>,
        queue: &mut ShardQueue<G>,
        group: &[(Vec<i64>, G)],
    ) -> Result<(), TryUpdateError> {
        let coalesced;
        let batch = if T::ACK_NEEDS_COMMIT {
            group
        } else if queue.deltas.len() == 1 {
            &queue.deltas
        } else {
            coalesced = coalesce(&queue.deltas);
            &coalesced
        };
        let ops = if T::ACK_NEEDS_COMMIT {
            group.len() as u64
        } else {
            queue.deltas.len() as u64
        };
        if ops == 0 {
            shard.pending.store(0, Ordering::Release);
            return Ok(());
        }
        let span = obs::timer();
        let held = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if batch.is_empty() {
                return Ok(());
            }
            write_target(shard).commit(batch)
        }));
        queue.metrics.lock_hold_nanos += held.elapsed().as_nanos() as u64;
        span.observe("shard.commit", &shard_obs().commit_ns);
        match outcome {
            Ok(Ok(())) => {
                queue.metrics.ops_applied += ops;
                queue.metrics.batches_flushed += 1;
                queue.deltas.clear();
                // Cleared only after the apply: a reader that saw
                // `pending == 0` on its fast path must find every drained
                // delta already in the cube.
                shard.pending.store(0, Ordering::Release);
                return Ok(());
            }
            Ok(Err(why)) if T::ACK_NEEDS_COMMIT => return Err(TryUpdateError::Refused(why)),
            _ => {}
        }
        let cause = if T::ACK_NEEDS_COMMIT {
            PANICKED_AFTER_APPEND
        } else {
            COMMIT_FAILED
        };
        queue.metrics.worker_panics += 1;
        queue.failed = Some(cause);
        let shard = queue.metrics.shard;
        Err(TryUpdateError::ShardFailed { shard, cause })
    }

    /// Forces a commit on every live slab (e.g. before `entries`, or to
    /// bound queue staleness from a maintenance thread). Skips failed
    /// slabs, so it always terminates and never deadlocks; a failed
    /// slab's queued deltas stay readable but never land (degraded mode,
    /// visible in [`ShardedCube::health`]).
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut queue = lock_queue(shard);
            if queue.failed.is_none() {
                // A failure is in `queue.failed`, for `health()`.
                drop(self.commit(shard, &mut queue, &[]));
            }
        }
    }

    /// Why the cube no longer takes every write, when it does not: the
    /// first failed slab, else the first degraded target. `None` is
    /// fully serving; either way reads are served.
    pub fn health(&self) -> Option<String> {
        self.shards.iter().enumerate().find_map(|(shard, s)| {
            let failed = lock_queue(s).failed;
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

    /// One read of a slab, *through* its write queue: `read` against
    /// the cube plus the still-queued deltas inside the box `[lo, hi]`.
    /// The queue mutex is held only until the target read lock is
    /// acquired — the same queue→target order a commit uses — so a
    /// concurrent flush can neither apply a delta we already counted
    /// nor sneak one past us. Failed slabs stay readable: their
    /// acknowledged deltas are simply all queued.
    fn read_through(
        shard: &Shard<G, T>,
        lo: &[i64],
        hi: &[i64],
        read: impl FnOnce(&GrowableCube<G>) -> G,
    ) -> G {
        shard.queries.fetch_add(1, Ordering::Relaxed);
        if shard.pending.load(Ordering::Acquire) == 0 {
            return read(read_target(shard).cube());
        }
        let queue = lock_queue(shard);
        let queued = queue
            .deltas
            .iter()
            .filter(|(p, _)| {
                p.iter()
                    .zip(lo.iter().zip(hi))
                    .all(|(c, (l, h))| l <= c && c <= h)
            })
            .fold(G::ZERO, |acc, (_, d)| acc.add(*d));
        let target = read_target(shard);
        drop(queue);
        read(target.cube()).add(queued)
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
        let (mut l, mut h) = (lo.to_vec(), hi.to_vec());
        let mut acc = G::ZERO;
        for shard in &self.shards[self.owner_index(lo[0])..=self.owner_index(hi[0])] {
            l[0] = lo[0].max(shard.rows_lo);
            h[0] = hi[0].min(shard.rows_last);
            acc = acc.add(Self::read_through(shard, &l, &h, |c| c.range_sum(&l, &h)));
        }
        Ok(acc)
    }

    /// One cell's value: served entirely by the owning slab.
    pub fn cell_at(&self, point: &[i64]) -> Result<G, OutOfBounds> {
        self.check_door(point)?;
        let shard = &self.shards[self.owner_index(point[0])];
        Ok(Self::read_through(shard, point, point, |c| c.cell(point)))
    }

    /// Populated cells (flushes first).
    pub fn entries(&self) -> Vec<(Vec<i64>, G)> {
        self.flush();
        self.shards
            .iter()
            .flat_map(|shard| read_target(shard).cube().entries())
            .collect()
    }

    /// [`ShardedCube::try_add`] for checked coordinates.
    pub fn try_update(&self, point: &[usize], delta: G) -> Result<(), TryUpdateError> {
        let (_, refused) = self.try_add_batch(&[(signed(point), delta)]);
        refused.map_or(Ok(()), Err)
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
        self.query_box(&signed(region.lo()), &signed(region.hi()))
            .unwrap_or_else(|why| panic!("{why}"))
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
        self.cell_at(&signed(point))
            .unwrap_or_else(|why| panic!("{why}"))
    }

    /// Per-slab metrics, in slab order.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        let snapshot = |shard: &Shard<G, T>| MetricsSnapshot {
            queries: shard.queries.load(Ordering::Relaxed),
            ..lock_queue(shard).metrics
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
        let per_delta = std::mem::size_of::<(Vec<i64>, G)>() + self.ndim * 8;
        let slab = |shard: &Shard<G, T>| {
            // Queue capacity is read (and its guard dropped) before the
            // target lock: holding target while taking queue inverts the
            // documented queue→target order and can deadlock against a
            // commit.
            let queued = lock_queue(shard).deltas.capacity() * per_delta;
            read_target(shard).cube().heap_bytes() + queued
        };
        self.shards.iter().map(slab).sum()
    }

    fn metrics_text(&self) -> Option<String> {
        let mut out = String::from(
            "shard  rows          enqueued   applied  batches   queries  rejected  depth^  \
             panics  lock-held\n",
        );
        for m in self.metrics() {
            out.push_str(&format!(
                "{:>5}  [{:>4},{:>4})  {:>8}  {:>8}  {:>7}  {:>8}  {:>8}  {:>6}  {:>6}  {:>7.3}ms\n",
                m.shard,
                m.rows_lo,
                m.rows_hi,
                m.ops_enqueued,
                m.ops_applied,
                m.batches_flushed,
                m.queries,
                m.ops_rejected,
                m.queue_depth_max,
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

    fn cube(shards: usize, batch: usize) -> ShardedCube<i64> {
        ShardedCube::new(
            Shape::new(&[32, 16]),
            DdcConfig::dynamic(),
            ShardConfig {
                shards,
                batch_capacity: batch,
            },
        )
    }

    /// A target whose next `armed` commits panic before touching the
    /// cube — what the supervisor exists to contain.
    struct Flaky {
        cube: GrowableCube<i64>,
        armed: Arc<AtomicU64>,
    }

    impl CommitTarget<i64> for Flaky {
        const ACK_NEEDS_COMMIT: bool = false;
        fn cube(&self) -> &GrowableCube<i64> {
            &self.cube
        }
        fn commit(&mut self, batch: &[(Vec<i64>, i64)]) -> Result<(), IoError> {
            if self.armed.load(Ordering::SeqCst) > 0 {
                self.armed.fetch_sub(1, Ordering::SeqCst);
                panic!("injected commit failure");
            }
            self.cube.commit(batch)
        }
    }

    /// An 8 × 4 cube whose slab 0 fails its next `n` commits.
    fn flaky(n: u64, shard_config: ShardConfig) -> ShardedCube<i64, Flaky> {
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
        let c = cube(4, 8);
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
    fn queue_batches_and_flushes_on_capacity() {
        let c = cube(2, 4);
        for i in 0..3 {
            c.update(&[i, 0], 1);
        }
        // Below capacity: nothing applied yet.
        let m = c.metrics();
        assert_eq!(m.iter().map(|s| s.ops_enqueued).sum::<u64>(), 3);
        assert_eq!(m.iter().map(|s| s.ops_applied).sum::<u64>(), 0);
        c.update(&[3, 0], 1); // fourth hits capacity on shard 0
        let m = c.metrics();
        assert_eq!(m[0].ops_applied, 4);
        assert_eq!(m[0].batches_flushed, 1);
        assert_eq!(m[0].queue_depth_max, 4);
        // Queries read through the queues without forcing extra commits.
        assert_eq!(c.query_prefix(&[31, 15]), 4);
        let m = c.metrics();
        assert_eq!(m.iter().map(|s| s.ops_applied).sum::<u64>(), 4);
    }

    #[test]
    fn queries_see_queued_writes_immediately() {
        let c = cube(4, 1_000_000); // batch capacity never reached
        c.update(&[10, 10], 7);
        assert_eq!(c.query_prefix(&[31, 15]), 7);
        c.update(&[10, 10], -7);
        assert_eq!(c.query(&Region::full(&Shape::new(&[32, 16]))), 0);
    }

    #[test]
    fn coalescing_cancels_opposing_deltas() {
        let c = cube(1, 1_000_000);
        c.update(&[4, 4], 10);
        c.update(&[4, 4], -10);
        c.flush();
        // Both raw ops count as applied, but the cube saw a no-op batch.
        let m = c.metrics();
        assert_eq!(m[0].ops_applied, 2);
        assert_eq!(c.entries().len(), 0);
    }

    #[test]
    fn exhausted_restart_budget_fails_the_shard() {
        let c = flaky(
            1,
            ShardConfig {
                shards: 2,
                batch_capacity: 1,
            },
        );
        c.update(&[0, 0], 1); // its commit panics → Failed, no retry
        let err = c.try_update(&[1, 0], 1).unwrap_err();
        let failed = TryUpdateError::ShardFailed {
            shard: 0,
            cause: COMMIT_FAILED,
        };
        assert_eq!(err, failed);
        assert!(err.to_string().contains("shard 0"));
        assert_eq!(c.health(), Some(failed.to_string()));
        // The infallible facades shed the same rejection, and say so.
        let shed_before = obs::counter("shard.shed").get();
        c.update(&[1, 0], 1);
        c.update(&[2, 0], 1);
        assert!(obs::counter("shard.shed").get() >= shed_before + 2);
        assert_eq!(c.metrics()[0].ops_rejected, 3);
        // The sibling slab is unaffected, and flush() skips the corpse
        // instead of deadlocking.
        c.try_update(&[7, 0], 3).unwrap();
        c.flush();
        assert_eq!(c.metrics()[1].ops_applied, 1);
        // The delta the failed slab acknowledged stays readable.
        assert_eq!(c.query_prefix(&[7, 3]), 4);
    }

    #[test]
    fn the_door_refuses_what_the_usize_facade_panics_on() {
        let c = cube(2, 8);
        for bad in [&[32, 0][..], &[-1, 0], &[0], &[0, i64::MAX]] {
            let refused = c.try_add(bad, 1).unwrap_err();
            assert!(matches!(refused, TryUpdateError::OutOfBounds(_)), "{bad:?}");
            assert!(c.cell_at(bad).is_err(), "{bad:?}");
        }
        assert!(c.query_box(&[2, 2], &[1, 1]).is_err(), "inverted");
        assert_eq!(c.metrics()[0].ops_enqueued, 0);
        let facade = std::panic::catch_unwind(|| c.update(&[32, 0], 1));
        assert!(facade.is_err(), "update() must not shed a caller bug");
        // Without bounds the door checks rank only: every `i64` row has
        // an owner, the commit refuses what the cube cannot grow to, and
        // reads clip to what it covers.
        let log = crate::DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::sparse(), Vec::new());
        let open = ShardedCube::unbounded(log.unwrap(), ShardConfig::default());
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
        assert_eq!(open.read_target(0, |t| t.wal_stats().1), 1, "one record");
        let acked_on_enqueue = std::panic::catch_unwind(|| {
            let plain = GrowableCube::<i64>::new(2, DdcConfig::sparse());
            ShardedCube::unbounded(plain, ShardConfig::default())
        });
        assert!(acked_on_enqueue.is_err(), "an ack on enqueue needs bounds");
    }

    /// A run is its deltas enqueued one by one — same acks, same commit
    /// points, same counters — under one lock acquisition per stretch a
    /// slab owns; it stops at the first point the door refuses.
    #[test]
    fn a_run_enqueues_as_its_singles_would() {
        let (run_fed, singles_fed) = (cube(4, 3), cube(4, 3));
        let run: Vec<_> = (0..20i64)
            .map(|i| (vec![(i * 5) % 32, i % 16], i - 7))
            .collect();
        assert_eq!(run_fed.try_add_batch(&run), (20, None));
        for (point, delta) in &run {
            singles_fed.try_add(point, *delta).unwrap();
        }
        let counted = |c: &ShardedCube<i64>| {
            let untimed = |m| MetricsSnapshot {
                lock_hold_nanos: 0,
                ..m
            };
            c.metrics().into_iter().map(untimed).collect::<Vec<_>>()
        };
        assert_eq!(counted(&run_fed), counted(&singles_fed));
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
        let open = ShardedCube::unbounded(log.unwrap(), ShardConfig::default());
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
        let c = cube(4, 1);
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
        let c = cube(3, 2);
        c.update(&[0, 0], 1);
        let text = RangeSumEngine::metrics_text(&c).expect("sharded cube reports metrics");
        assert_eq!(text.lines().count(), 1 + 3, "{text}");
        assert!(text.contains("enqueued"), "{text}");
        assert!(text.contains("panics"), "{text}");
    }

    #[test]
    fn trait_object_round_trip() {
        let mut c: Box<dyn RangeSumEngine<i64>> = Box::new(cube(4, 8));
        c.apply_delta(&[1, 2], 5);
        assert_eq!(c.set(&[1, 2], 9), 5);
        assert_eq!(c.cell(&[1, 2]), 9);
        assert_eq!(c.range_sum(&Region::full(&Shape::new(&[32, 16]))), 9);
        assert_eq!(c.name(), "sharded-ddc");
    }
}
