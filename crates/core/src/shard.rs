//! A sharded concurrent cube: dimension-0 partitioning with write batching.
//!
//! [`SharedCube`](crate::SharedCube) serializes every operation behind one
//! `RwLock`, so aggregate read throughput stops scaling as soon as a
//! writer stalls the lock. [`ShardedCube`] removes that single choke
//! point:
//!
//! * The cube is split along **dimension 0** into `S` contiguous slabs,
//!   each backed by its own independently locked [`DdcEngine`].
//! * Point updates route to the owning shard's **write-batch queue**.
//!   Queued deltas are coalesced per cell (sound because
//!   [`AbelianGroup`] addition commutes) and applied under a *single*
//!   exclusive acquisition — group commit.
//! * A dimension-0 slab of a cube is itself a cube, so a range query is
//!   the sum, over the slabs whose rows overlap it, of the slab engine's
//!   own range sum of the region clamped into the slab — Figure 4's
//!   ≤ `2^d` prefix terms are formed once, inside the engine. A prefix
//!   query is the range `[0, point]`.
//!
//! ## Consistency
//!
//! Each shard is linearizable: a query reads *through* the shard's queue
//! — engine value plus the contribution of the still-queued deltas — so
//! a thread always reads its own writes and a single-threaded caller
//! observes exactly the semantics of an unsharded engine (the
//! `sharded_cube` differential test replays a trace and demands
//! bit-identical answers). Readers never take the exclusive engine lock;
//! only group commits do. Across shards there is no global snapshot —
//! concurrent multi-shard queries may observe one shard before and
//! another after a concurrent update, the usual trade of sharded stores.
//!
//! ## Supervision & backpressure
//!
//! Shards are built to *survive*, not to assume success:
//!
//! * Write queues are **bounded** ([`ShardConfig::queue_capacity`]).
//!   When a queue is full and a commit cannot make room, [`try_update`]
//!   rejects with [`TryUpdateError::QueueFull`] instead of growing
//!   without bound — overload sheds load, it does not OOM.
//! * Every group commit runs under `catch_unwind`. A panicking commit
//!   (an engine bug, or the test-only fault hook) **quarantines** the
//!   shard: its deltas stay queued, reads still see them through the
//!   read-through path, and retries are paced by an exponential backoff
//!   of skipped flush triggers. A commit that succeeds ends the
//!   quarantine and counts a restart; [`ShardConfig::max_restarts`]
//!   consecutive panics fail the shard permanently
//!   ([`TryUpdateError::ShardFailed`]).
//! * Lock poisoning never panics a public entry point: the queue mutex
//!   cannot be poisoned by a supervised commit (the panic is caught
//!   inside the lock scope), and a poisoned engine lock is recovered —
//!   the shard is already quarantined at that point, and *exact* repair
//!   of a half-applied batch is the write-ahead log's job
//!   ([`crate::wal`]), not the lock's.
//!
//! [`try_update`]: ShardedCube::try_update

use std::collections::HashMap;
use std::time::Instant;

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use ddc_array::{AbelianGroup, OpCounter, OpSnapshot, RangeSumEngine, Region, Shape};

use crate::config::DdcConfig;
use crate::engine::DdcEngine;
use crate::obs;

/// Cube-wide observability handles (queue-wait vs. commit latency — the
/// two halves of a sharded write's life), cached off the registry lock.
struct ShardObs {
    queue_wait_ns: Arc<obs::Histogram>,
    commit_ns: Arc<obs::Histogram>,
    shed: Arc<obs::Counter>,
}

fn shard_obs() -> &'static ShardObs {
    static OBS: OnceLock<ShardObs> = OnceLock::new();
    OBS.get_or_init(|| ShardObs {
        queue_wait_ns: obs::histogram("shard.queue_wait"),
        commit_ns: obs::histogram("shard.commit"),
        shed: obs::counter("shard.shed"),
    })
}

/// The shedding contract of the infallible update facades, in one
/// place: a rejection (already in its shard's `ops_rejected`) is dropped
/// here and counted in `shard.shed`, so writes lost without the caller
/// hearing of it show up next to the rejections callers were handed.
fn shed(outcome: Result<(), TryUpdateError>) {
    if outcome.is_err() {
        shard_obs().shed.inc();
    }
}

/// Tuning knobs for a [`ShardedCube`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Requested shard count. Clamped to `1..=n_0` (a slab needs at
    /// least one row of dimension 0).
    pub shards: usize,
    /// Queue length that triggers a group commit. `1` degenerates to
    /// write-through locking.
    pub batch_capacity: usize,
    /// Hard bound on a shard's write queue. A healthy shard commits
    /// inline before ever hitting it; a quarantined or failed shard
    /// rejects once full ([`TryUpdateError::QueueFull`]) instead of
    /// growing without bound.
    pub queue_capacity: usize,
    /// Consecutive panicking commits a shard survives (quarantined,
    /// retried with backoff) before it is failed permanently.
    pub max_restarts: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            batch_capacity: 128,
            queue_capacity: 4096,
            max_restarts: 5,
        }
    }
}

impl ShardConfig {
    /// `shards` shards with default batching.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// Why a bounded-queue update was not accepted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TryUpdateError {
    /// The owning shard's queue is at capacity and a commit could not
    /// make room (the shard is quarantined or mid-backoff).
    QueueFull {
        /// Index of the rejecting shard.
        shard: usize,
        /// The queue bound in effect.
        capacity: usize,
    },
    /// The owning shard exhausted its restart budget and no longer
    /// accepts writes.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
    },
}

impl std::fmt::Display for TryUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryUpdateError::QueueFull { shard, capacity } => {
                write!(f, "shard {shard} write queue full ({capacity} deltas)")
            }
            TryUpdateError::ShardFailed { shard } => {
                write!(f, "shard {shard} failed (restart budget exhausted)")
            }
        }
    }
}

impl std::error::Error for TryUpdateError {}

/// Point-in-time metrics for one shard (the S3 relaxed-atomic op
/// counters, extended per shard).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Shard index in `0..S`.
    pub shard: usize,
    /// First dimension-0 row owned by the shard.
    pub rows_lo: usize,
    /// One past the last dimension-0 row owned by the shard.
    pub rows_hi: usize,
    /// Deltas pushed onto the write queue.
    pub ops_enqueued: u64,
    /// Deltas applied to the engine (equals enqueued after a flush).
    pub ops_applied: u64,
    /// Group commits performed.
    pub batches_flushed: u64,
    /// Slab visits: one per range, prefix or cell read that reached this
    /// shard (each is one engine read under one read-lock acquisition,
    /// however many Figure-4 terms the engine forms for it).
    pub queries: u64,
    /// Estimated nanoseconds the exclusive engine lock was held for
    /// flushes — the contention budget readers compete against.
    pub lock_hold_nanos: u64,
    /// High-water mark of the write queue depth.
    pub queue_depth_max: u64,
    /// Update attempts rejected by backpressure or a failed shard.
    pub ops_rejected: u64,
    /// Commits that panicked and were contained by the supervisor.
    pub worker_panics: u64,
    /// Successful commits that ended a quarantine.
    pub worker_restarts: u64,
}

/// Per-shard counters. *Untracked* atomics on purpose: metrics never
/// gate control flow, and some hold wall-clock values that would
/// otherwise pollute the model checker's state fingerprints.
#[derive(Debug, Default)]
struct ShardMetrics {
    ops_enqueued: crate::sync::untracked::AtomicU64,
    ops_applied: crate::sync::untracked::AtomicU64,
    batches_flushed: crate::sync::untracked::AtomicU64,
    queries: crate::sync::untracked::AtomicU64,
    lock_hold_nanos: crate::sync::untracked::AtomicU64,
    queue_depth_max: crate::sync::untracked::AtomicU64,
    ops_rejected: crate::sync::untracked::AtomicU64,
    worker_panics: crate::sync::untracked::AtomicU64,
    worker_restarts: crate::sync::untracked::AtomicU64,
}

/// Supervisor state of one shard, kept under the queue lock so health
/// transitions serialize with enqueues and commits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Health {
    /// Commits are attempted normally.
    Healthy,
    /// The last `consecutive` commits panicked; the next `backoff` flush
    /// triggers are skipped before retrying.
    Quarantined { consecutive: u32, backoff: u32 },
    /// Restart budget exhausted: the shard accepts no more writes.
    Failed,
}

#[derive(Debug)]
struct ShardQueue<G: AbelianGroup> {
    /// Pending deltas in *local* coordinates.
    deltas: Vec<(Vec<usize>, G)>,
    health: Health,
}

#[derive(Debug)]
struct Shard<G: AbelianGroup> {
    /// Owned dimension-0 rows: `rows_lo..rows_hi` of the logical cube.
    rows_lo: usize,
    rows_hi: usize,
    engine: RwLock<DdcEngine<G>>,
    /// Queue + supervisor state. Lock order: `queue` before `engine` —
    /// commits hold the queue while applying so a concurrent reader that
    /// drains the queue cannot miss deltas enqueued behind it.
    queue: Mutex<ShardQueue<G>>,
    /// Fast-path mirror of the queue length so readers skip the mutex
    /// when nothing is pending.
    pending: AtomicUsize,
    /// Test-only fault hook: this many upcoming commits panic before
    /// touching the engine.
    fail_flushes: AtomicU64,
    metrics: ShardMetrics,
    /// Engine-counter totals already absorbed into the facade counter
    /// (bookkeeping for `sync_counter`; untracked like the metrics).
    seen_reads: crate::sync::untracked::AtomicU64,
    seen_writes: crate::sync::untracked::AtomicU64,
}

/// Locks a shard's queue, recovering from poisoning. A supervised commit
/// catches its panic *inside* the lock scope, so the mutex is only ever
/// poisoned by a panic in trivially transactional code (push/drain);
/// recovering is sound and keeps poisoning off the public API.
fn lock_queue<G: AbelianGroup>(shard: &Shard<G>) -> MutexGuard<'_, ShardQueue<G>> {
    shard.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a shard's engine, recovering from poisoning. A poisoned
/// engine means a commit panicked mid-apply; the shard is quarantined by
/// then, and exact repair belongs to WAL recovery, not to refusing reads.
fn read_engine<G: AbelianGroup>(shard: &Shard<G>) -> RwLockReadGuard<'_, DdcEngine<G>> {
    shard.engine.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a shard's engine, recovering from poisoning (see
/// [`read_engine`]).
fn write_engine<G: AbelianGroup>(shard: &Shard<G>) -> RwLockWriteGuard<'_, DdcEngine<G>> {
    shard.engine.write().unwrap_or_else(PoisonError::into_inner)
}

/// A concurrent cube sharded along dimension 0 with per-shard write
/// batching. The protocol — slabs, group commit, read-through,
/// supervision — is laid out in the `shard` module's source docs.
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
/// ```
#[derive(Debug)]
pub struct ShardedCube<G: AbelianGroup> {
    shape: Shape,
    shard_config: ShardConfig,
    shards: Vec<Shard<G>>,
    counter: OpCounter,
}

impl<G: AbelianGroup> ShardedCube<G> {
    /// An all-zero sharded cube. The shard count is clamped to the
    /// number of dimension-0 rows.
    pub fn new(shape: Shape, config: DdcConfig, shard_config: ShardConfig) -> Self {
        let n0 = shape.dim(0);
        let s = shard_config.shards.clamp(1, n0);
        let shards = (0..s)
            .map(|i| {
                let rows_lo = i * n0 / s;
                let rows_hi = (i + 1) * n0 / s;
                let mut dims = shape.dims().to_vec();
                dims[0] = rows_hi - rows_lo;
                Shard {
                    rows_lo,
                    rows_hi,
                    engine: RwLock::new(DdcEngine::with_config(Shape::new(&dims), config)),
                    queue: Mutex::new(ShardQueue {
                        deltas: Vec::new(),
                        health: Health::Healthy,
                    }),
                    pending: AtomicUsize::new(0),
                    fail_flushes: AtomicU64::new(0),
                    metrics: ShardMetrics::default(),
                    seen_reads: crate::sync::untracked::AtomicU64::new(0),
                    seen_writes: crate::sync::untracked::AtomicU64::new(0),
                }
            })
            .collect();
        Self {
            shape,
            shard_config,
            shards,
            counter: OpCounter::new(),
        }
    }

    /// Index of the shard owning dimension-0 row `row`.
    fn owner_index(&self, row: usize) -> usize {
        debug_assert!(row < self.shape.dim(0), "row {row} out of bounds");
        // Slab cuts are i·n0/S, so the inverse is (row·S)/n0 — possibly
        // one off under integer division; fix up locally.
        let n0 = self.shape.dim(0);
        let s = self.shards.len();
        let mut i = (row * s / n0).min(s - 1);
        while row < self.shards[i].rows_lo {
            i -= 1;
        }
        while row >= self.shards[i].rows_hi {
            i += 1;
        }
        i
    }

    /// Adds `delta` at `point`: routed to the owning shard's queue, with
    /// a group commit once the queue reaches `batch_capacity`.
    ///
    /// This is the infallible facade over [`ShardedCube::try_update`]: a
    /// rejected delta (full queue on a quarantined shard, or a failed
    /// shard) is *shed* after being counted in `ops_rejected`. Callers
    /// that must not lose writes use `try_update` and handle the error.
    pub fn update(&self, point: &[usize], delta: G) {
        shed(self.try_update(point, delta));
    }

    /// [`ShardedCube::update`] for each of `updates`, in order.
    pub fn update_batch(&self, updates: &[(Vec<usize>, G)]) {
        for (point, delta) in updates {
            self.update(point, *delta);
        }
    }

    /// Adds `delta` at `point` if the owning shard can accept it,
    /// rejecting with [`TryUpdateError`] under overload or failure. A
    /// healthy shard never rejects — it commits inline to make room.
    pub fn try_update(&self, point: &[usize], delta: G) -> Result<(), TryUpdateError> {
        self.shape.check_point(point);
        let idx = self.owner_index(point[0]);
        let shard = &self.shards[idx];
        let mut local = point.to_vec();
        local[0] -= shard.rows_lo;
        let wait = obs::timer();
        let mut queue = lock_queue(shard);
        wait.observe("shard.queue_wait", &shard_obs().queue_wait_ns);
        let capacity = self.shard_config.queue_capacity.max(1);
        if queue.deltas.len() >= capacity {
            // Full: the only way to make room is to land the batch now
            // (a failed shard lands nothing and rejects below).
            self.attempt_commit(shard, &mut queue);
        }
        if queue.health == Health::Failed || queue.deltas.len() >= capacity {
            shard.metrics.ops_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(match queue.health {
                Health::Failed => TryUpdateError::ShardFailed { shard: idx },
                _ => TryUpdateError::QueueFull {
                    shard: idx,
                    capacity,
                },
            });
        }
        queue.deltas.push((local, delta));
        shard.metrics.ops_enqueued.fetch_add(1, Ordering::Relaxed);
        shard
            .metrics
            .queue_depth_max
            .fetch_max(queue.deltas.len() as u64, Ordering::Relaxed);
        if queue.deltas.len() >= self.shard_config.batch_capacity.max(1) {
            self.attempt_commit(shard, &mut queue);
        }
        shard.pending.store(queue.deltas.len(), Ordering::Release);
        Ok(())
    }

    /// Flush trigger that respects the supervisor: failed shards are
    /// skipped, quarantined shards burn down their backoff before the
    /// commit is retried.
    fn attempt_commit(&self, shard: &Shard<G>, queue: &mut ShardQueue<G>) -> bool {
        match queue.health {
            Health::Failed => false,
            Health::Quarantined {
                consecutive,
                backoff,
            } if backoff > 0 => {
                queue.health = Health::Quarantined {
                    consecutive,
                    backoff: backoff - 1,
                };
                false
            }
            _ => self.commit(shard, queue),
        }
    }

    /// Supervised group commit: coalesce the queued deltas per cell and
    /// apply them under one exclusive engine acquisition, the whole apply
    /// wrapped in `catch_unwind`. Called with the queue lock held so no
    /// concurrent enqueue can slip between coalesce and apply.
    ///
    /// The queue is drained only *after* a successful apply — a panicking
    /// commit (fault hook, or an engine bug before it mutates state)
    /// leaves every delta queued for the retry. A panic *mid-apply* can
    /// leave the engine half-updated; the shard is quarantined either
    /// way, and exact repair is WAL recovery's job.
    fn commit(&self, shard: &Shard<G>, queue: &mut ShardQueue<G>) -> bool {
        if queue.deltas.is_empty() {
            shard.pending.store(0, Ordering::Release);
            return true;
        }
        let span = obs::timer();
        let mut coalesced: HashMap<&[usize], G> = HashMap::with_capacity(queue.deltas.len());
        for (point, delta) in &queue.deltas {
            let slot = coalesced.entry(point.as_slice()).or_insert(G::ZERO);
            *slot = slot.add(*delta);
        }
        let batch: Vec<(Vec<usize>, G)> = coalesced
            .into_iter()
            .filter(|(_, d)| !d.is_zero())
            .map(|(p, d)| (p.to_vec(), d))
            .collect();
        let held = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if shard.fail_flushes.load(Ordering::SeqCst) > 0 {
                shard.fail_flushes.fetch_sub(1, Ordering::SeqCst);
                panic!("injected flush failure");
            }
            if !batch.is_empty() {
                write_engine(shard).apply_batch(&batch);
            }
        }));
        shard
            .metrics
            .lock_hold_nanos
            .fetch_add(held.elapsed().as_nanos() as u64, Ordering::Relaxed);
        span.observe("shard.commit", &shard_obs().commit_ns);
        match outcome {
            Ok(()) => {
                let raw = queue.deltas.len() as u64;
                queue.deltas.clear();
                // Cleared only after the apply: a reader that saw
                // `pending == 0` on its fast path must find every drained
                // delta already in the engine.
                shard.pending.store(0, Ordering::Release);
                shard.metrics.ops_applied.fetch_add(raw, Ordering::Relaxed);
                shard
                    .metrics
                    .batches_flushed
                    .fetch_add(1, Ordering::Relaxed);
                if matches!(queue.health, Health::Quarantined { .. }) {
                    shard
                        .metrics
                        .worker_restarts
                        .fetch_add(1, Ordering::Relaxed);
                }
                queue.health = Health::Healthy;
                true
            }
            Err(_) => {
                shard.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                let consecutive = match queue.health {
                    Health::Quarantined { consecutive, .. } => consecutive + 1,
                    _ => 1,
                };
                queue.health = if consecutive > self.shard_config.max_restarts {
                    Health::Failed
                } else {
                    Health::Quarantined {
                        consecutive,
                        backoff: 1u32 << (consecutive - 1).min(6),
                    }
                };
                false
            }
        }
    }

    /// Forces a group commit on every live shard (e.g. before `entries`,
    /// or to bound queue staleness from a maintenance thread). Bypasses
    /// quarantine backoff — an explicit flush *is* the retry — and skips
    /// failed shards, so it always terminates and never deadlocks; a
    /// failed shard's queued deltas stay shed (degraded mode, visible in
    /// the metrics).
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut queue = lock_queue(shard);
            if queue.health != Health::Failed {
                self.commit(shard, &mut queue);
            }
        }
    }

    /// Arms the fault hook: the next `n` group commits on shard `shard`
    /// panic before touching the engine. Test-only — exists so the
    /// supervisor's quarantine/restart path is exercisable from
    /// integration tests without an engine bug to trigger it.
    #[doc(hidden)]
    pub fn fail_next_flushes(&self, shard: usize, n: u64) {
        self.shards[shard].fail_flushes.store(n, Ordering::SeqCst);
    }

    /// One read of a shard, *through* its write queue: `read` against
    /// the engine plus the still-queued deltas whose point lies in the
    /// slab-local region `local`. The queue mutex is held only until the
    /// engine read lock is acquired — the same queue→engine order a
    /// group commit uses — so a concurrent flush can neither apply a
    /// delta we already counted nor sneak one past us. Quarantined
    /// shards stay fully readable: their deltas are simply all queued.
    fn read_through(shard: &Shard<G>, local: &Region, read: impl FnOnce(&DdcEngine<G>) -> G) -> G {
        shard.metrics.queries.fetch_add(1, Ordering::Relaxed);
        if shard.pending.load(Ordering::Acquire) == 0 {
            return read(&read_engine(shard));
        }
        let queue = lock_queue(shard);
        let queued = queue
            .deltas
            .iter()
            .filter(|(p, _)| local.contains(p))
            .fold(G::ZERO, |acc, (_, d)| acc.add(*d));
        let engine = read_engine(shard);
        drop(queue);
        read(&engine).add(queued)
    }

    /// `SUM(A[0,…,0] : A[point])`: the range sum over `[0, point]`.
    pub fn query_prefix(&self, point: &[usize]) -> G {
        self.query(&Region::prefix(point))
    }

    /// Sum over `region`: each slab whose rows overlap it answers the
    /// region clamped into the slab (Figure 4 happens in its engine).
    pub fn query(&self, region: &Region) -> G {
        region.check_within(&self.shape);
        let (lo, hi) = (region.lo(), region.hi());
        let mut acc = G::ZERO;
        for shard in &self.shards[self.owner_index(lo[0])..=self.owner_index(hi[0])] {
            let (mut l, mut h) = (lo.to_vec(), hi.to_vec());
            l[0] = lo[0].max(shard.rows_lo) - shard.rows_lo;
            h[0] = hi[0].min(shard.rows_hi - 1) - shard.rows_lo;
            let local = Region::new(&l, &h);
            acc = acc.add(Self::read_through(shard, &local, |e| e.range_sum(&local)));
        }
        acc
    }

    /// One cell's value: served entirely by the owning shard.
    pub fn cell_value(&self, point: &[usize]) -> G {
        self.shape.check_point(point);
        let shard = &self.shards[self.owner_index(point[0])];
        let mut local = point.to_vec();
        local[0] -= shard.rows_lo;
        Self::read_through(shard, &Region::cell(&local), |e| e.cell(&local))
    }

    /// Populated cells in global coordinates (flushes first).
    pub fn entries(&self) -> Vec<(Vec<usize>, G)> {
        self.flush();
        let mut out = Vec::new();
        for shard in &self.shards {
            let engine = read_engine(shard);
            for (mut p, v) in engine.entries() {
                p[0] += shard.rows_lo;
                out.push((p, v));
            }
        }
        out
    }

    /// Per-shard metrics, in shard order.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| MetricsSnapshot {
                shard: i,
                rows_lo: shard.rows_lo,
                rows_hi: shard.rows_hi,
                ops_enqueued: shard.metrics.ops_enqueued.load(Ordering::Relaxed),
                ops_applied: shard.metrics.ops_applied.load(Ordering::Relaxed),
                batches_flushed: shard.metrics.batches_flushed.load(Ordering::Relaxed),
                queries: shard.metrics.queries.load(Ordering::Relaxed),
                lock_hold_nanos: shard.metrics.lock_hold_nanos.load(Ordering::Relaxed),
                queue_depth_max: shard.metrics.queue_depth_max.load(Ordering::Relaxed),
                ops_rejected: shard.metrics.ops_rejected.load(Ordering::Relaxed),
                worker_panics: shard.metrics.worker_panics.load(Ordering::Relaxed),
                worker_restarts: shard.metrics.worker_restarts.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Folds the shard engines' op counters into the facade counter,
    /// tracking what was already absorbed so deltas are counted once.
    fn sync_counter(&self) {
        for shard in &self.shards {
            let snap = read_engine(shard).ops();
            let prev_r = shard.seen_reads.swap(snap.reads, Ordering::Relaxed);
            let prev_w = shard.seen_writes.swap(snap.writes, Ordering::Relaxed);
            self.counter.read(snap.reads.saturating_sub(prev_r));
            self.counter.write(snap.writes.saturating_sub(prev_w));
        }
    }
}

impl<G: AbelianGroup> RangeSumEngine<G> for ShardedCube<G> {
    fn name(&self) -> &'static str {
        "sharded-ddc"
    }

    fn shape(&self) -> &Shape {
        &self.shape
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

    fn ops(&self) -> OpSnapshot {
        self.sync_counter();
        self.counter.snapshot()
    }

    fn reset_ops(&self) {
        for shard in &self.shards {
            read_engine(shard).reset_ops();
            shard.seen_reads.store(0, Ordering::Relaxed);
            shard.seen_writes.store(0, Ordering::Relaxed);
        }
        self.counter.reset();
    }

    fn heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                // Queue capacity is read (and its guard dropped) before
                // the engine lock: holding engine while taking queue
                // inverts the documented queue→engine order and can
                // deadlock against a group commit.
                let queued = lock_queue(shard).deltas.capacity()
                    * (std::mem::size_of::<(Vec<usize>, G)>()
                        + self.shape.ndim() * std::mem::size_of::<usize>());
                read_engine(shard).heap_bytes() + queued
            })
            .sum()
    }

    fn metrics_text(&self) -> Option<String> {
        let mut out = String::from(
            "shard  rows          enqueued   applied  batches   queries  rejected  depth^  \
             panics  restarts  lock-held\n",
        );
        for m in self.metrics() {
            out.push_str(&format!(
                "{:>5}  [{:>4},{:>4})  {:>8}  {:>8}  {:>7}  {:>8}  {:>8}  {:>6}  {:>6}  {:>8}  {:>7.3}ms\n",
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
                m.worker_restarts,
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

    fn cube(shards: usize, batch: usize) -> ShardedCube<i64> {
        ShardedCube::new(
            Shape::new(&[32, 16]),
            DdcConfig::dynamic(),
            ShardConfig {
                shards,
                batch_capacity: batch,
                ..ShardConfig::default()
            },
        )
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
                assert!(shard.rows_hi > shard.rows_lo);
                next = shard.rows_hi;
            }
            assert_eq!(next, n0);
            for row in 0..n0 {
                let o = &c.shards[c.owner_index(row)];
                assert!(o.rows_lo <= row && row < o.rows_hi);
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
        // Both raw ops count as applied, but the engine saw a no-op batch.
        let m = c.metrics();
        assert_eq!(m[0].ops_applied, 2);
        assert_eq!(c.entries().len(), 0);
    }

    #[test]
    fn healthy_shard_never_rejects_at_queue_capacity() {
        // batch_capacity > queue_capacity: the queue bound, not the batch
        // trigger, forces the commit — and it succeeds, so no rejection.
        let c = ShardedCube::<i64>::new(
            Shape::new(&[32, 16]),
            DdcConfig::dynamic(),
            ShardConfig {
                shards: 1,
                batch_capacity: 1_000_000,
                queue_capacity: 8,
                ..ShardConfig::default()
            },
        );
        for i in 0..100 {
            c.try_update(&[i % 32, 0], 1).unwrap();
        }
        let m = c.metrics();
        assert_eq!(m[0].ops_rejected, 0);
        assert!(m[0].queue_depth_max <= 8);
        assert_eq!(c.query_prefix(&[31, 15]), 100);
    }

    #[test]
    fn quarantined_shard_rejects_when_full_then_recovers() {
        let c = ShardedCube::<i64>::new(
            Shape::new(&[8, 4]),
            DdcConfig::dynamic(),
            ShardConfig {
                shards: 1,
                batch_capacity: 2,
                queue_capacity: 4,
                max_restarts: 10,
            },
        );
        c.fail_next_flushes(0, 2);
        // Each pair of updates triggers a commit; the first two commits
        // panic, quarantining the shard with its deltas intact.
        for i in 0..4 {
            c.try_update(&[i, 0], 1).unwrap();
        }
        let m = c.metrics();
        assert!(m[0].worker_panics >= 1, "{m:?}");
        // Queue is at capacity and the shard is backing off: reject.
        let err = c.try_update(&[4, 0], 1).unwrap_err();
        assert!(matches!(
            err,
            TryUpdateError::QueueFull {
                shard: 0,
                capacity: 4
            }
        ));
        assert_eq!(c.metrics()[0].ops_rejected, 1);
        // Reads still see every queued delta.
        assert_eq!(c.query_prefix(&[7, 3]), 4);
        // Explicit flush bypasses backoff; the hook is exhausted, so the
        // commit lands and ends the quarantine.
        c.flush();
        let m = c.metrics();
        assert_eq!(m[0].worker_restarts, 1, "{m:?}");
        assert_eq!(m[0].ops_applied, 4);
        c.try_update(&[4, 0], 1).unwrap();
        assert_eq!(c.query_prefix(&[7, 3]), 5);
    }

    #[test]
    fn exhausted_restart_budget_fails_the_shard() {
        let c = ShardedCube::<i64>::new(
            Shape::new(&[8, 4]),
            DdcConfig::dynamic(),
            ShardConfig {
                shards: 2,
                batch_capacity: 1,
                queue_capacity: 2,
                max_restarts: 0,
            },
        );
        c.fail_next_flushes(0, 1);
        c.update(&[0, 0], 1); // commit panics; budget 0 → Failed
        let err = c.try_update(&[1, 0], 1).unwrap_err();
        assert_eq!(err, TryUpdateError::ShardFailed { shard: 0 });
        assert!(err.to_string().contains("shard 0"));
        // The infallible facades shed the same rejection, and say so.
        let shed_before = shard_obs().shed.get();
        c.update(&[1, 0], 1);
        c.update_batch(&[(vec![2, 0], 1)]);
        assert!(shard_obs().shed.get() >= shed_before + 2);
        assert_eq!(c.metrics()[0].ops_rejected, 3);
        // The sibling shard is unaffected, and flush() skips the corpse
        // instead of deadlocking.
        c.try_update(&[7, 0], 3).unwrap();
        c.flush();
        assert_eq!(c.metrics()[1].ops_applied, 1);
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
        assert!(text.contains("restarts"), "{text}");
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
