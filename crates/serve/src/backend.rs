//! Storage backends a server can front.
//!
//! The wire layer never touches an engine directly: every request is
//! executed through [`ServeBackend`], which validates untrusted
//! coordinates *before* they reach engine APIs (whose bounds checks are
//! assertions, i.e. programming-error panics) and maps engine
//! backpressure into typed [`BackendError`]s the server turns into
//! HTTP statuses (`Busy` → 429, `Failed` → 503).

use ddc_array::{Region, Shape};
use ddc_core::wal::IoError;
use ddc_core::{ShardedCube, SharedDurableCube, TryUpdateError, VfsFile};

/// Why a backend refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// A coordinate was outside the cube, had the wrong rank, or the
    /// box corners were inverted. Maps to 400.
    OutOfBounds(String),
    /// Transient overload: the owning shard's write queue is full.
    /// Maps to 429 — the client should back off and retry.
    Busy(String),
    /// Permanent refusal: a shard exhausted its restart budget. Maps
    /// to 503.
    Failed(String),
    /// The durable store is in degraded read-only mode after a disk
    /// fault; queries keep serving, mutations map to 503 whose body
    /// carries the reason `/healthz` reports after `degraded: `.
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
            BackendError::Busy(_) => 429,
            BackendError::Failed(_) | BackendError::ReadOnly(_) => 503,
            BackendError::Io(_) => 500,
        }
    }

    /// One-line detail for the response body.
    pub fn detail(&self) -> &str {
        match self {
            BackendError::OutOfBounds(d)
            | BackendError::Busy(d)
            | BackendError::Failed(d)
            | BackendError::ReadOnly(d)
            | BackendError::Io(d) => d,
        }
    }
}

impl From<TryUpdateError> for BackendError {
    fn from(e: TryUpdateError) -> Self {
        match e {
            TryUpdateError::QueueFull { .. } => BackendError::Busy(e.to_string()),
            TryUpdateError::ShardFailed { .. } => BackendError::Failed(e.to_string()),
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
/// coordinates are the wire type; each backend validates them against
/// its own coordinate space.
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

    /// Forces queued writes into the engine (used by tests and
    /// shutdown; serving reads are already read-through).
    fn flush(&self);

    /// Liveness/served-capability report for `/healthz`. Default: a
    /// backend with no degraded mode is always [`BackendHealth::Ok`].
    fn health(&self) -> BackendHealth {
        BackendHealth::Ok
    }

    /// Applies a batch in order, stopping at the first rejection.
    fn ingest(&self, updates: &[(Vec<i64>, i64)]) -> IngestOutcome {
        for (i, (point, delta)) in updates.iter().enumerate() {
            if let Err(e) = self.update(point, *delta) {
                return IngestOutcome {
                    applied: i,
                    error: Some(e),
                };
            }
        }
        IngestOutcome {
            applied: updates.len(),
            error: None,
        }
    }
}

/// [`ShardedCube`] backend: bounded coordinate space, per-shard
/// group-commit queues, real backpressure.
pub struct ShardedBackend {
    cube: ShardedCube<i64>,
}

impl ShardedBackend {
    /// Serves `cube` (callers keep their own handle via
    /// [`ShardedBackend::cube`] — useful for tests that flush and
    /// audit totals out of band).
    pub fn new(cube: ShardedCube<i64>) -> Self {
        Self { cube }
    }

    /// The underlying cube.
    pub fn cube(&self) -> &ShardedCube<i64> {
        &self.cube
    }

    fn shape(&self) -> &Shape {
        use ddc_array::RangeSumEngine as _;
        self.cube.shape()
    }

    /// Converts wire coordinates into a checked in-bounds point.
    fn checked_point(&self, point: &[i64]) -> Result<Vec<usize>, BackendError> {
        let shape = self.shape();
        if point.len() != shape.ndim() {
            return Err(BackendError::OutOfBounds(format!(
                "point rank {} does not match cube rank {}",
                point.len(),
                shape.ndim()
            )));
        }
        point
            .iter()
            .zip(shape.dims().iter())
            .enumerate()
            .map(|(axis, (&p, &n))| {
                if p < 0 || p as u64 >= n as u64 {
                    Err(BackendError::OutOfBounds(format!(
                        "coordinate {p} outside dimension {axis} of size {n}"
                    )))
                } else {
                    Ok(p as usize)
                }
            })
            .collect()
    }
}

impl ServeBackend for ShardedBackend {
    fn ndim(&self) -> usize {
        self.shape().ndim()
    }

    fn update(&self, point: &[i64], delta: i64) -> Result<(), BackendError> {
        let point = self.checked_point(point)?;
        self.cube.try_update(&point, delta).map_err(Into::into)
    }

    fn query(&self, lo: &[i64], hi: &[i64]) -> Result<i64, BackendError> {
        let (lo, hi) = (self.checked_point(lo)?, self.checked_point(hi)?);
        if lo.iter().zip(hi.iter()).any(|(l, h)| l > h) {
            return Err(BackendError::OutOfBounds(format!(
                "inverted box {lo:?}..{hi:?}"
            )));
        }
        Ok(self.cube.query(&Region::new(&lo, &hi)))
    }

    fn prefix(&self, point: &[i64]) -> Result<i64, BackendError> {
        let point = self.checked_point(point)?;
        Ok(self.cube.query_prefix(&point))
    }

    fn flush(&self) {
        self.cube.flush();
    }
}

/// [`SharedDurableCube`] backend: growable signed coordinate space,
/// WAL-acknowledged writes. `Busy` never occurs; a point too far out
/// to grow to is `OutOfBounds` (400, nothing logged), a transient log
/// failure is `Io`, while ENOSPC/retry-exhaustion degradation surfaces
/// as `ReadOnly` (503) and flips `/healthz` to `degraded`.
pub struct DurableBackend<F: VfsFile + 'static> {
    cube: SharedDurableCube<i64, F>,
}

impl<F: VfsFile + 'static> DurableBackend<F> {
    /// Serves `cube` (cheaply cloneable; callers keep a handle).
    pub fn new(cube: SharedDurableCube<i64, F>) -> Self {
        Self { cube }
    }

    fn check_rank(&self, point: &[i64]) -> Result<(), BackendError> {
        if point.len() != self.cube.ndim() {
            return Err(BackendError::OutOfBounds(format!(
                "point rank {} does not match cube rank {}",
                point.len(),
                self.cube.ndim()
            )));
        }
        Ok(())
    }
}

impl<F: VfsFile + 'static> ServeBackend for DurableBackend<F> {
    fn ndim(&self) -> usize {
        self.cube.ndim()
    }

    fn update(&self, point: &[i64], delta: i64) -> Result<(), BackendError> {
        self.check_rank(point)?;
        self.cube.add(point, delta).map_err(|e| match e {
            IoError::ReadOnly { .. } | IoError::Exhausted { .. } => {
                BackendError::ReadOnly(e.to_string())
            }
            IoError::Transient { .. } => BackendError::Io(e.to_string()),
            IoError::OutOfRange(_) => BackendError::OutOfBounds(e.to_string()),
        })
    }

    fn query(&self, lo: &[i64], hi: &[i64]) -> Result<i64, BackendError> {
        self.check_rank(lo)?;
        self.check_rank(hi)?;
        if lo.iter().zip(hi.iter()).any(|(l, h)| l > h) {
            return Err(BackendError::OutOfBounds(format!(
                "inverted box {lo:?}..{hi:?}"
            )));
        }
        Ok(self.cube.range_sum(lo, hi))
    }

    fn prefix(&self, point: &[i64]) -> Result<i64, BackendError> {
        self.check_rank(point)?;
        // A growable cube's prefix starts at its (possibly negative)
        // low corner, clipped inside range_sum.
        let lo: Vec<i64> = point.iter().map(|_| i64::MIN / 2).collect();
        if point.iter().any(|&p| p < lo[0]) {
            return Err(BackendError::OutOfBounds(format!(
                "prefix corner {point:?} below representable range"
            )));
        }
        Ok(self.cube.range_sum(&lo, point))
    }

    fn flush(&self) {
        // Log-then-apply acknowledges synchronously; nothing queued.
    }

    fn health(&self) -> BackendHealth {
        match self.cube.degraded() {
            Some(reason) => BackendHealth::Degraded(reason),
            None => BackendHealth::Ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::{DdcConfig, ShardConfig};

    fn sharded(dims: &[usize]) -> ShardedBackend {
        ShardedBackend::new(ShardedCube::new(
            Shape::new(dims),
            DdcConfig::default(),
            ShardConfig::with_shards(2),
        ))
    }

    #[test]
    fn sharded_backend_round_trips_updates_and_queries() {
        let b = sharded(&[8, 8]);
        b.update(&[1, 2], 5).expect("in bounds");
        b.update(&[7, 7], 3).expect("in bounds");
        b.flush();
        assert_eq!(b.query(&[0, 0], &[7, 7]).expect("full box"), 8);
        assert_eq!(b.prefix(&[1, 2]).expect("prefix"), 5);
        assert_eq!(b.query(&[7, 7], &[7, 7]).expect("cell"), 3);
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
    }

    #[test]
    fn ingest_stops_at_first_rejection_and_reports_applied_count() {
        let b = sharded(&[4, 4]);
        let out = b.ingest(&[
            (vec![0, 0], 1),
            (vec![1, 1], 2),
            (vec![9, 9], 3),
            (vec![2, 2], 4),
        ]);
        assert_eq!(out.applied, 2);
        assert_eq!(out.error.as_ref().map(|e| e.status()), Some(400));
        b.flush();
        assert_eq!(b.query(&[0, 0], &[3, 3]).expect("sum"), 3);
    }

    #[test]
    fn durable_backend_serves_growable_coordinates() {
        let b = DurableBackend::new(
            SharedDurableCube::<i64, Vec<u8>>::new(2, DdcConfig::default(), Vec::new())
                .expect("wal"),
        );
        b.update(&[-3, 10], 7).expect("growable");
        b.update(&[5, -2], 2).expect("growable");
        assert_eq!(b.query(&[-10, -10], &[20, 20]).expect("box"), 9);
        assert_eq!(b.prefix(&[-3, 10]).expect("prefix"), 7);
        assert_eq!(b.update(&[0], 1).expect_err("rank").status(), 400);
    }

    /// ENOSPC on an append: the 503 says why (the reason `/healthz`
    /// shows), reads keep serving the acked prefix, and later writes are
    /// refused without touching the log.
    #[test]
    fn degraded_durable_backend_says_why_and_keeps_serving_reads() {
        use ddc_core::wal::{self, RetryPolicy};
        use ddc_core::{FaultKind, FaultVfs, PlannedFault};
        const LOG: &str = "wal.log";
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
        let b = DurableBackend::new(cube.clone());
        vfs.arm(true);
        b.update(&[1, 2], 7).expect("acked before the disk fills");
        assert_eq!(b.health(), BackendHealth::Ok);
        let acked = cube.wal_stats();

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
        assert_eq!(cube.wal_stats(), acked);
        let on_disk = vfs.inner().contents(LOG).expect("log exists").len();
        assert_eq!(on_disk as u64, acked.0);
    }
}
