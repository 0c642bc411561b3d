//! The storage backend a server fronts.
//!
//! The wire layer never touches an engine directly: every request is
//! executed through [`ServeBackend`], and there is one implementation —
//! [`Backend`], a handle on the commit pipeline
//! ([`ddc_core::ShardedCube`]: door → \[log\] → apply → ack).
//! `ddc serve` and `ddc serve --durable` differ only in what the
//! pipeline was built over ([`ShardedBackend`]: bounds, no log;
//! [`DurableBackend`]: a log, no bounds), so there is one coordinate
//! check (the pipeline's door, which *refuses* untrusted coordinates
//! where engine APIs assert), one mapping from a refused update to an
//! HTTP status ([`BackendError`]'s `From<TryUpdateError>`: `OutOfBounds`
//! → 400, `ReadOnly` → 503, `Io` → 500 — never 429, which is the
//! server's admission control alone), and one health report (a failed
//! commit or a degraded log, in the words the 503 bodies use).
//!
//! Updates arrive in runs — [`ServeBackend::ingest`], which is
//! [`ddc_core::ShardedCube::try_add_batch`]: the server hands over each
//! run of consecutive updates a client pipelined, and behind a log the
//! stretch of it the cube already covers costs one write and one
//! `sync_data` however long it is. [`ServeBackend::update`] is the run
//! of one.
//!
//! Points cross this layer borrowed (`&[i64]`) or inline (a run of
//! fixed-width [`Point`]s), and a sum goes back as an `i64`: a request
//! that the cube answers allocates nothing here or below.

use ddc_array::{Point, MAX_RANK};
use ddc_core::sync::Arc;
use ddc_core::wal::IoError;
use ddc_core::{
    CommitTarget, DurableCube, GrowableCube, OutOfBounds, ShardedCube, SharedDurableCube,
    TryUpdateError, VfsFile,
};

/// Why a backend refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// A coordinate was outside the cube, had the wrong rank, or the
    /// box corners were inverted. Maps to 400.
    OutOfBounds(String),
    /// The pipeline is read-only — a commit failed (a logged one:
    /// panicked), or a log degraded by a disk fault; queries
    /// keep serving, mutations map to 503 whose body carries the reason
    /// `/healthz` reports after `degraded: `.
    ReadOnly(String),
    /// The durable log could not be appended (a transient, healthy
    /// failure — not degraded). Maps to 500.
    Io(String),
}

impl BackendError {
    /// The HTTP status the server answers with.
    pub fn status(&self) -> u16 {
        match self {
            BackendError::OutOfBounds(_) => 400,
            BackendError::ReadOnly(_) => 503,
            BackendError::Io(_) => 500,
        }
    }

    /// One-line detail for the response body.
    pub fn detail(&self) -> &str {
        match self {
            BackendError::OutOfBounds(d) | BackendError::ReadOnly(d) | BackendError::Io(d) => d,
        }
    }
}

impl From<OutOfBounds> for BackendError {
    fn from(e: OutOfBounds) -> Self {
        BackendError::OutOfBounds(e.0)
    }
}

impl From<TryUpdateError> for BackendError {
    fn from(e: TryUpdateError) -> Self {
        let detail = e.to_string();
        match e {
            TryUpdateError::OutOfBounds(_) | TryUpdateError::Refused(IoError::OutOfRange(_)) => {
                BackendError::OutOfBounds(detail)
            }
            TryUpdateError::ShardFailed { .. }
            | TryUpdateError::Refused(IoError::ReadOnly { .. } | IoError::Exhausted { .. }) => {
                BackendError::ReadOnly(detail)
            }
            TryUpdateError::Refused(IoError::Transient { .. }) => BackendError::Io(detail),
        }
    }
}

/// What a backend reports on `/healthz`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendHealth {
    /// Fully serving.
    Ok,
    /// Serving reads only; mutations are rejected. The string says why.
    Degraded(String),
}

/// Outcome of a batched ingest: how many leading updates were
/// acknowledged, and the error that stopped the batch (if any).
/// Acknowledged updates are durable per the backend's own contract —
/// they are never rolled back by a later rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Updates applied, in order, before the first rejection.
    pub applied: usize,
    /// The rejection that ended the batch, or `None` if all applied.
    pub error: Option<BackendError>,
}

/// The request-execution surface the server drives. Signed `i64`
/// coordinates are the wire type; the backend validates them against
/// its coordinate space.
pub trait ServeBackend: Send + Sync + 'static {
    /// Dimensionality served (`d` in the paper).
    fn ndim(&self) -> usize;

    /// Applies one point delta. `Ok` is the acknowledgement: the
    /// update is owned by the backend and will not be lost.
    fn update(&self, point: &[i64], delta: i64) -> Result<(), BackendError>;

    /// Range sum over the closed box `[lo, hi]`.
    fn query(&self, lo: &[i64], hi: &[i64]) -> Result<i64, BackendError>;

    /// Prefix sum `SUM(origin : point)`.
    fn prefix(&self, point: &[i64]) -> Result<i64, BackendError>;

    /// Liveness/served-capability report for `/healthz`.
    fn health(&self) -> BackendHealth;

    /// Applies a run of updates in order, stopping at the first
    /// rejection. A backend whose ack is a synced log record covers the
    /// run with as few syncs as it can: this is the group-commit door.
    fn ingest(&self, updates: &[(Point, i64)]) -> IngestOutcome;
}

/// The one [`ServeBackend`]: a handle on a commit pipeline over `T`.
pub struct Backend<T> {
    cube: Arc<ShardedCube<i64, T>>,
}

/// The backend of `ddc serve`: bounded coordinate space, an ack is an
/// update applied to the cube (one commit may cover a whole
/// [`ServeBackend::ingest`] stretch); a commit that panics turns the
/// pipeline `ReadOnly` (503).
pub type ShardedBackend = Backend<GrowableCube<i64>>;

/// The backend of `ddc serve --durable`: growable signed coordinate
/// space, an ack is a synced WAL record (one sync may cover a whole
/// [`ServeBackend::ingest`]). A point too far out to grow to
/// is `OutOfBounds` (400, nothing logged), a transient log failure is
/// `Io`; ENOSPC / retry exhaustion degrade the log and a commit that
/// panics fails the pipeline — both `ReadOnly` (503), both flip
/// `/healthz` to `degraded` and leave reads serving.
pub type DurableBackend<F> = Backend<DurableCube<i64, F>>;

impl ShardedBackend {
    /// Serves `cube` (callers keep a handle via [`Backend::cube`] —
    /// useful for tests that audit totals out of band).
    pub fn new(cube: ShardedCube<i64>) -> Self {
        Self::over(Arc::new(cube))
    }
}

impl<F: VfsFile + Sync> DurableBackend<F> {
    /// Serves `cube` (callers keep a handle by cloning the `Arc` it
    /// derefs to).
    pub fn new(cube: SharedDurableCube<i64, F>) -> Self {
        Self::over(Arc::clone(&cube))
    }
}

impl<T: CommitTarget<i64>> Backend<T> {
    /// Serves an already shared pipeline.
    pub fn over(cube: Arc<ShardedCube<i64, T>>) -> Self {
        Self { cube }
    }

    /// The pipeline behind the backend.
    pub fn cube(&self) -> &ShardedCube<i64, T> {
        &self.cube
    }
}

impl<T: CommitTarget<i64> + 'static> ServeBackend for Backend<T> {
    fn ndim(&self) -> usize {
        self.cube.ndim()
    }

    fn update(&self, point: &[i64], delta: i64) -> Result<(), BackendError> {
        Ok(self.cube.try_add(point, delta)?)
    }

    fn query(&self, lo: &[i64], hi: &[i64]) -> Result<i64, BackendError> {
        Ok(self.cube.query_box(lo, hi)?)
    }

    fn prefix(&self, point: &[i64]) -> Result<i64, BackendError> {
        // A bounded cube's prefix starts at its origin; a growable
        // cube's at its (possibly negative) low corner, wherever that
        // is — the box is clipped to what the cube covers.
        let lo = [self.cube.bounds().map_or(i64::MIN / 2, |_| 0); MAX_RANK];
        // A point past `MAX_RANK` has no low corner of its rank: it is
        // its own, and the door refuses its rank.
        self.query(lo.get(..point.len()).unwrap_or(point), point)
    }

    fn ingest(&self, updates: &[(Point, i64)]) -> IngestOutcome {
        let (applied, refused) = self.cube.try_add_batch(updates);
        IngestOutcome {
            applied,
            error: refused.map(BackendError::from),
        }
    }

    fn health(&self) -> BackendHealth {
        let health = self.cube.health();
        health.map_or(BackendHealth::Ok, BackendHealth::Degraded)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ddc_array::Shape;
    use ddc_core::wal::{self, RetryPolicy};
    use ddc_core::{DdcConfig, FaultKind, FaultVfs, PlannedFault, ShardConfig, Vfs};

    const LOG: &str = "wal.log";

    fn sharded(dims: &[usize]) -> ShardedBackend {
        ShardedBackend::new(ShardedCube::new(
            Shape::new(dims),
            DdcConfig::default(),
            ShardConfig::default(),
        ))
    }

    /// A durable cube on a disk that takes one append and is full for
    /// the second: ENOSPC, the fault that degrades the log.
    pub(crate) fn on_a_disk_that_fills(
    ) -> (FaultVfs, SharedDurableCube<i64, <FaultVfs as Vfs>::File>) {
        let boot = |vfs: &FaultVfs| {
            let policy = RetryPolicy::instant();
            wal::recover_vfs::<i64, _>(vfs, LOG, None, 2, DdcConfig::default(), policy)
                .expect("boot")
                .0
        };
        // A disarmed boot still counts file ops: probe how many, then
        // plant the fault on the write of the second append (each clean
        // append is one write + one sync).
        let probe = FaultVfs::explicit_mem(Vec::new());
        drop(boot(&probe));
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: probe.ops() + 2,
            kind: FaultKind::NoSpace,
        }]);
        let cube = SharedDurableCube::from_cube(boot(&vfs));
        vfs.arm(true);
        (vfs, cube)
    }

    #[test]
    fn sharded_backend_round_trips_updates_and_queries() {
        let b = sharded(&[8, 8]);
        b.update(&[1, 2], 5).expect("in bounds");
        b.update(&[7, 7], 3).expect("in bounds");
        assert_eq!(b.query(&[0, 0], &[7, 7]).expect("full box"), 8);
        assert_eq!(b.prefix(&[1, 2]).expect("prefix"), 5);
        assert_eq!(b.query(&[7, 7], &[7, 7]).expect("cell"), 3);
        assert_eq!(b.health(), BackendHealth::Ok);
    }

    #[test]
    fn sharded_backend_rejects_untrusted_coordinates_without_panicking() {
        let b = sharded(&[4, 4]);
        for bad in [
            b.update(&[4, 0], 1),
            b.update(&[-1, 0], 1),
            b.update(&[0], 1),
            b.update(&[0, i64::MAX], 1),
        ] {
            let e = bad.expect_err("out of bounds");
            assert_eq!(e.status(), 400, "{e:?}");
        }
        assert_eq!(
            b.query(&[2, 2], &[1, 1]).expect_err("inverted").status(),
            400
        );
        assert_eq!(b.prefix(&[9, 9]).expect_err("oob").status(), 400);
        let past = b.prefix(&[0; MAX_RANK + 1]).expect_err("rank");
        assert_eq!(past.detail(), "point rank 9 does not match cube rank 2");
    }

    #[test]
    fn ingest_stops_at_first_rejection_and_reports_applied_count() {
        let b = sharded(&[4, 4]);
        let at = |c: &[i64]| Point::from_slice(c).expect("rank 2");
        let out = b.ingest(&[
            (at(&[0, 0]), 1),
            (at(&[1, 1]), 2),
            (at(&[9, 9]), 3),
            (at(&[2, 2]), 4),
        ]);
        assert_eq!(out.applied, 2);
        assert_eq!(out.error.as_ref().map(|e| e.status()), Some(400));
        assert_eq!(b.query(&[0, 0], &[3, 3]).expect("sum"), 3);
    }

    #[test]
    fn durable_backend_serves_growable_coordinates() {
        let cube = DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::default(), Vec::new());
        let b = DurableBackend::new(SharedDurableCube::from_cube(cube.expect("wal")));
        b.update(&[-3, 10], 7).expect("growable");
        b.update(&[5, -2], 2).expect("growable");
        assert_eq!(b.query(&[-10, -10], &[20, 20]).expect("box"), 9);
        assert_eq!(b.prefix(&[-3, 10]).expect("prefix"), 7);
        assert_eq!(b.update(&[0], 1).expect_err("rank").status(), 400);
        assert_eq!(
            b.query(&[2, 2], &[1, 1]).expect_err("inverted").status(),
            400
        );
        let far = b.update(&[1 << 40, 0], 1).expect_err("past the side cap");
        assert_eq!(far.status(), 400, "{far:?}");
        // The wire takes any `i64`, the ends of dimension 0 included:
        // refused or clipped, never an index past the cube.
        for edge in [i64::MIN, i64::MAX] {
            let far = b.update(&[edge, 0], 1).expect_err("past the side cap");
            assert_eq!(far.status(), 400, "{far:?}");
            assert_eq!(b.query(&[edge, 0], &[edge, 0]), Ok(0));
        }
        assert_eq!(b.query(&[i64::MIN, i64::MIN], &[i64::MAX, i64::MAX]), Ok(9));
        assert_eq!(b.prefix(&[i64::MAX, i64::MAX]), Ok(9));
        assert_eq!(
            b.prefix(&[i64::MIN, 0]).expect_err("inverted").status(),
            400
        );
    }

    /// ENOSPC on an append: the 503 says why (the reason `/healthz`
    /// shows), reads keep serving the acked prefix, and later writes are
    /// refused without touching the log.
    #[test]
    fn degraded_durable_backend_says_why_and_keeps_serving_reads() {
        let (vfs, shared) = on_a_disk_that_fills();
        let cube = Arc::clone(&shared);
        let b = DurableBackend::new(shared);
        let wal_stats = || cube.read_target(|durable| durable.wal_stats());
        b.update(&[1, 2], 7).expect("acked before the disk fills");
        assert_eq!(b.health(), BackendHealth::Ok);
        let acked = wal_stats();

        let e = b.update(&[3, 4], 5).expect_err("ENOSPC");
        assert_eq!(e.status(), 503, "{e:?}");
        let BackendHealth::Degraded(reason) = b.health() else {
            panic!("an ENOSPC append must degrade the backend");
        };
        assert!(reason.contains("out of disk space"), "{reason}");
        assert!(e.detail().contains(&reason), "{e:?} vs {reason}");

        assert_eq!(b.query(&[0, 0], &[9, 9]).expect("query"), 7);
        assert_eq!(b.prefix(&[1, 2]).expect("prefix"), 7);
        let again = b.update(&[3, 4], 5).expect_err("read-only");
        assert_eq!(again.status(), 503);
        assert!(again.detail().contains(&reason), "{again:?}");
        assert_eq!(wal_stats(), acked);
        let on_disk = vfs.inner().contents(LOG).expect("log exists").len();
        assert_eq!(on_disk as u64, acked.0);
    }
}
