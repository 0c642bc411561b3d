//! Cube + log wired together: [`recover`], [`DurableCube`],
//! [`recover_vfs`], the checkpoint's snapshot half ([`write_snapshot`])
//! and the thread-shared [`SharedDurableCube`] (the commit pipeline of
//! [`crate::ShardedCube`] over a `DurableCube`).

use std::io::{self, Read};

use ddc_array::AbelianGroup;

use super::log::{repair_tail, rotate_wal, scan_wal, WalScan, WalWriter};
use super::wal_obs;
use crate::config::DdcConfig;
use crate::growth::GrowableCube;
use crate::persist::ValueCodec;
use crate::shard::{CommitTarget, ShardedCube, PANICKED_AFTER_APPEND};
use crate::store::{self, SpillFile};
use crate::sync::Arc;
use crate::vfs::{is_no_space, IoError, RetryPolicy, VerifiedReader, Vfs, VfsFile};

/// What [`recover`] did, for operators and metrics.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// True when a snapshot was loaded (vs starting from an empty cube).
    pub snapshot_loaded: bool,
    /// Records replayed from the log.
    pub replayed: usize,
    /// Valid log prefix in bytes.
    pub valid_bytes: u64,
    /// Why the log was truncated, if it was.
    pub truncated: Option<String>,
}

impl RecoveryReport {
    fn new(snapshot_loaded: bool, scan: WalScan) -> Self {
        Self {
            snapshot_loaded,
            replayed: scan.records as usize,
            valid_bytes: scan.valid_bytes,
            truncated: scan.truncated,
        }
    }
}

/// Rebuilds a cube after a crash: load the last good snapshot (if any),
/// then replay the WAL, truncating at the first corrupt or partial
/// record. `d` fixes the dimensionality when no snapshot exists. Both
/// are streamed — byte slices, or [`VerifiedReader`]s off a disk.
pub fn recover<G: AbelianGroup + ValueCodec>(
    d: usize,
    snapshot: Option<&mut dyn Read>,
    wal: impl Read,
    config: DdcConfig,
) -> io::Result<(GrowableCube<G>, RecoveryReport)> {
    let loaded = snapshot.is_some();
    let (cube, scan) = recover_spilling(d, snapshot, Some(wal), config, None)?;
    Ok((cube, RecoveryReport::new(loaded, scan)))
}

/// [`recover`], paging the leaves onto `spill` when the caller opened
/// one; returns the cube and the log's scan. No log at all reads as an
/// empty one: a torn header.
fn recover_spilling<G: AbelianGroup + ValueCodec>(
    d: usize,
    snapshot: Option<&mut dyn Read>,
    wal: Option<impl Read>,
    config: DdcConfig,
    spill: Option<SpillFile>,
) -> io::Result<(GrowableCube<G>, WalScan)> {
    let site = wal_obs();
    let span = site.recover_ns.span("wal.recover");
    // Paging (when configured) activates before any cell lands — inside
    // `load_spilling`, or right here without a snapshot — so recovery
    // literally replays the WAL onto pages and a cube too big for the
    // memory cap can still be rebuilt.
    let mut cube = match snapshot {
        Some(mut bytes) => GrowableCube::<G>::load_spilling(&mut bytes, config, spill)?,
        None => {
            let mut cube = GrowableCube::new(d, config);
            cube.tree.page_leaves(spill)?;
            cube
        }
    };
    if cube.ndim() != d {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot is {}-dimensional, expected {d}", cube.ndim()),
        ));
    }
    // Arity mismatches (a record from a different cube) and points the
    // cube cannot grow to are errors; growth is organic.
    let visit = |point: &[i64], delta: G, _| {
        if point.len() != d {
            return Err(format!("update arity {} != {d}", point.len()));
        }
        cube.check_cover(point).map_err(|e| e.to_string())?;
        cube.replay_add(point, delta);
        Ok(())
    };
    let scan = match wal {
        Some(log) => scan_wal(log, visit),
        None => scan_wal(io::empty(), visit),
    }?;
    site.recover_runs.inc();
    site.recover_records.add(scan.records);
    span.end();
    Ok((cube, scan))
}

/// A [`GrowableCube`] whose every mutation is write-ahead logged: the
/// record is appended and flushed *before* the in-memory apply, so an
/// acknowledged mutation survives any subsequent kill.
///
/// # Examples
///
/// ```
/// use ddc_core::{wal, DdcConfig, DurableCube};
///
/// let mut cube = DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::sparse(), Vec::new()).unwrap();
/// cube.add(&[3, -5], 7).unwrap();
/// cube.add(&[100, 2], 1).unwrap();
///
/// // Simulate a kill: all that survives is the log bytes.
/// let log = cube.into_wal().into_inner();
/// let (recovered, report) = wal::recover::<i64>(2, None, &log[..], DdcConfig::sparse()).unwrap();
/// assert_eq!(report.replayed, 2);
/// assert_eq!(recovered.cell(&[3, -5]), 7);
/// assert_eq!(recovered.total(), 8);
/// ```
#[derive(Debug)]
pub struct DurableCube<G: AbelianGroup + ValueCodec, F: VfsFile> {
    cube: GrowableCube<G>,
    wal: WalWriter<F>,
    policy: RetryPolicy,
    degraded: Option<String>,
}

impl<G: AbelianGroup + ValueCodec, F: VfsFile> DurableCube<G, F> {
    /// An empty durable cube logging to `sink` (starts a fresh log).
    pub fn new(d: usize, config: DdcConfig, sink: F) -> io::Result<Self> {
        let mut cube = GrowableCube::new(d, config);
        cube.enable_paging()?;
        Self::from_recovered(cube, sink)
    }

    /// Wraps an already-recovered cube, starting a fresh log on `sink`
    /// (the caller checkpoints the recovered state separately).
    pub fn from_recovered(cube: GrowableCube<G>, sink: F) -> io::Result<Self> {
        Ok(Self::from_parts(
            cube,
            WalWriter::create(sink)?,
            RetryPolicy::default(),
        ))
    }

    fn from_parts(cube: GrowableCube<G>, wal: WalWriter<F>, policy: RetryPolicy) -> Self {
        Self {
            cube,
            wal,
            policy,
            degraded: None,
        }
    }

    /// Why the cube is read-only, when it is. Queries keep serving in
    /// degraded mode; mutations return [`IoError::ReadOnly`].
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    fn enter_degraded(&mut self, reason: String) {
        if self.degraded.is_none() {
            wal_obs().degraded_mode.set(1);
            self.degraded = Some(reason);
        }
    }

    fn guard_writable(&self) -> Result<(), IoError> {
        match &self.degraded {
            Some(reason) => Err(IoError::ReadOnly {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Classifies an append failure and flips into degraded mode when
    /// the failure is terminal for the log.
    fn note_failure(&mut self, e: IoError) -> IoError {
        match &e {
            IoError::ReadOnly { reason } => self.enter_degraded(reason.clone()),
            IoError::Exhausted {
                detail, retries, ..
            } => self.enter_degraded(format!(
                "append retry budget exhausted after {retries} retries: {detail}"
            )),
            IoError::Transient { .. } | IoError::OutOfRange(_) => {}
        }
        e
    }

    /// Logs, then applies, a point delta: [`DurableCube::add_group`] of
    /// one.
    pub fn add(&mut self, point: &[i64], delta: G) -> Result<(), IoError> {
        self.add_group(&[(point, delta)])
    }

    /// Logs, then applies, a group of point deltas in order: one record
    /// each, all in one write under one sync. `Err` means *none of them
    /// acknowledged*: the in-memory cube was left untouched (and, except
    /// for the documented [`IoError::Exhausted`] indeterminate window,
    /// neither was the durable log). A point the cube cannot grow to —
    /// from the box the points before it leave — refuses the group
    /// before the append, so the log never holds a record that replay
    /// could not apply.
    pub fn add_group<P: AsRef<[i64]>>(&mut self, updates: &[(P, G)]) -> Result<(), IoError> {
        self.guard_writable()?;
        let points = updates.iter().map(|(point, _)| point.as_ref());
        (self.cube.check_cover_all(points)).map_err(IoError::OutOfRange)?;
        if let Err(e) = self.wal.append_updates(updates, &self.policy) {
            return Err(self.note_failure(e));
        }
        for (point, delta) in updates {
            self.cube.add(point.as_ref(), *delta);
        }
        Ok(())
    }

    /// The wrapped cube (reads need no logging).
    pub fn cube(&self) -> &GrowableCube<G> {
        &self.cube
    }

    /// Buffer-pool counters of the paged leaf arena (`None` on the
    /// slab backend).
    pub fn pool_stats(&self) -> Option<crate::pager::PoolStats> {
        self.cube.pool_stats()
    }

    /// Checkpoints through a [`Vfs`]: [`write_snapshot`] (tmp + sync +
    /// rename), then [`rotate_wal`] — a fresh log at `wal_path`.
    /// Ordering guarantees:
    ///
    /// 1. Any failure *before* the snapshot rename is
    ///    [`IoError::Transient`] — the previous snapshot and the full
    ///    log are untouched, recovery is unaffected, and the call may
    ///    simply be retried later (ENOSPC degrades instead).
    /// 2. Once the rename lands, the snapshot is the authoritative
    ///    base. `open(Create)` truncates the old log before the new
    ///    header is written, so a crash after that open leaves an empty
    ///    or torn-header log — a valid empty replay. If the open or the
    ///    header write fails, the stale log is removed and the cube
    ///    degrades rather than append to a log it no longer holds.
    /// 3. **Not covered:** a kill *between* the rename and the open
    ///    leaves the new snapshot beside the old, full log, and the next
    ///    boot replays every record of it a second time. Nothing in the
    ///    two files tells them apart yet (ROADMAP item 1).
    pub fn checkpoint_vfs<V: Vfs<File = F>>(
        &mut self,
        vfs: &V,
        snapshot_path: &str,
        wal_path: &str,
    ) -> Result<u64, IoError> {
        self.guard_writable()?;
        let bytes =
            write_snapshot(vfs, snapshot_path, &self.cube).map_err(|e| self.note_failure(e))?;
        self.wal = rotate_wal(vfs, wal_path).map_err(|e| {
            let reason = format!("log rotation failed after checkpoint: {e}");
            self.enter_degraded(reason.clone());
            IoError::Exhausted {
                detail: reason,
                retries: 0,
                indeterminate: false,
            }
        })?;
        Ok(bytes)
    }

    /// Log statistics: `(bytes, records)` acknowledged so far.
    pub fn wal_stats(&self) -> (u64, u64) {
        (self.wal.bytes(), self.wal.records())
    }

    /// Consumes the cube, returning the log writer.
    pub fn into_wal(self) -> WalWriter<F> {
        self.wal
    }
}

/// The checkpoint's first half: streams `cube`'s snapshot to `path`
/// atomically ([`Vfs::write_atomic`]: tmp + sync + rename) and returns
/// its size; no image of it is built on the heap. A failure leaves the
/// previous snapshot at `path` untouched: ENOSPC is
/// [`IoError::ReadOnly`], anything else [`IoError::Transient`].
pub fn write_snapshot<G: AbelianGroup + ValueCodec, V: Vfs>(
    vfs: &V,
    path: &str,
    cube: &GrowableCube<G>,
) -> Result<u64, IoError> {
    vfs.write_atomic(path, |mut w| cube.save(&mut w))
        .map_err(|e| {
            wal_obs().io_faults.inc();
            if is_no_space(&e) {
                IoError::ReadOnly {
                    reason: format!("out of disk space during checkpoint: {e}"),
                }
            } else {
                IoError::Transient {
                    detail: format!("snapshot write: {e}"),
                    retries: 0,
                }
            }
        })
}

/// Boots a durable cube through a [`Vfs`]: loads the snapshot (when
/// `snapshot_path` names an existing file), replays the log with the
/// usual torn-tail truncation, repairs the log file back to its valid
/// prefix ([`repair_tail`]; a missing log is a torn header), and resumes
/// appending to it. Both files stream through a [`VerifiedReader`], so a
/// transient read-back bit flip cannot corrupt recovery and neither file
/// is ever whole on the heap; a read that never verifies fails the boot
/// and leaves the log as it was. A [`crate::PagerConfig::disk`] pager
/// spills to a scratch file next to the log in the same namespace, so
/// an eviction write-back or a page fault-in fails (and is injected)
/// like any other op on that disk.
pub fn recover_vfs<G: AbelianGroup + ValueCodec, V: Vfs>(
    vfs: &V,
    wal_path: &str,
    snapshot_path: Option<&str>,
    d: usize,
    config: DdcConfig,
    policy: RetryPolicy,
) -> io::Result<(DurableCube<G, V::File>, RecoveryReport)>
where
    V::File: 'static,
{
    let mut snapshot = match snapshot_path {
        Some(p) if vfs.exists(p)? => Some(VerifiedReader::open(vfs, p)?),
        _ => None,
    };
    let spill = store::spill_through(vfs, wal_path, &config)?;
    let snapshot_read = snapshot.as_mut().map(|s| s as &mut dyn Read);
    let log = (vfs.exists(wal_path)?).then(|| VerifiedReader::open(vfs, wal_path));
    let (cube, scan) = recover_spilling(d, snapshot_read, log.transpose()?, config, spill)?;
    let wal = repair_tail(vfs, wal_path, &scan)?;
    let report = RecoveryReport::new(snapshot.is_some(), scan);
    Ok((DurableCube::from_parts(cube, wal, policy), report))
}

/// The pipeline's logged target: a batch is one
/// [`DurableCube::add_group`] — append every record, sync once, apply —
/// so an `Ok` covers every record of it and an `Err` none.
impl<G: AbelianGroup + ValueCodec, F: VfsFile + Sync> CommitTarget<G> for DurableCube<G, F> {
    const PANIC_CAUSE: &'static str = PANICKED_AFTER_APPEND;

    fn cube(&self) -> &GrowableCube<G> {
        &self.cube
    }

    fn commit<P: AsRef<[i64]>>(&mut self, batch: &[(P, G)]) -> Result<(), IoError> {
        self.add_group(batch)
    }

    fn degraded(&self) -> Option<&str> {
        self.degraded()
    }
}

/// A [`DurableCube`] shared between threads: an `Arc` of the commit
/// pipeline ([`ShardedCube`]) over a logged cube, which it derefs to
/// (clone that to share it).
/// "Acknowledged" ([`ShardedCube::try_add`] returning `Ok`) means the
/// WAL record was appended and synced *and* the in-memory cube reflects
/// it, as one atomic step with respect to every other thread: the
/// pipeline appends, syncs and applies under one exclusive hold of the
/// cube's one lock, which readers wait on.
///
/// This is the structure the `ddc-model` durability scenario
/// (`ddc_core::models`, behind the `ddc_model` feature) checks: no
/// schedule may return an ack before the record count in the log has
/// grown, and concurrent adds must be linearizable against the
/// sequential oracle.
#[derive(Debug)]
pub struct SharedDurableCube<G: AbelianGroup + ValueCodec, F: VfsFile> {
    pipeline: Arc<ShardedCube<G, DurableCube<G, F>>>,
}

impl<G: AbelianGroup + ValueCodec, F: VfsFile> std::ops::Deref for SharedDurableCube<G, F> {
    type Target = Arc<ShardedCube<G, DurableCube<G, F>>>;

    fn deref(&self) -> &Self::Target {
        &self.pipeline
    }
}

impl<G: AbelianGroup + ValueCodec, F: VfsFile + Sync> SharedDurableCube<G, F> {
    /// Shares `cube` behind the pipeline, with no bounds.
    pub fn from_cube(cube: DurableCube<G, F>) -> Self {
        Self {
            pipeline: Arc::new(ShardedCube::unbounded(cube)),
        }
    }
}
