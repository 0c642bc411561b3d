//! A shared, thread-safe data cube handle.
//!
//! The paper's deployment picture is many analysts reading one cube while
//! a feed applies updates (§1's interactive commerce). Engines here are
//! already `Sync` for reads; [`SharedCube`] adds the write coordination:
//! an `Arc<RwLock<…>>` with a read-mostly discipline — queries take the
//! shared lock (concurrent), updates the exclusive lock (brief, because
//! DDC updates are `O(log^d n)`).
//!
//! The interesting property versus a locked *prefix-sum* cube is not the
//! lock, it is the hold time: an exclusive `O(n^d)` cascade starves
//! readers for the whole rewrite, while the DDC's polylog updates keep
//! the write lock in the microsecond range (see the
//! `shared_cube_throughput` test).

use crate::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ddc_array::{AbelianGroup, Region, Shape};

use crate::config::DdcConfig;
use crate::engine::DdcEngine;

use ddc_array::RangeSumEngine as _;

/// Cloneable handle to one cube shared across threads.
#[derive(Debug)]
pub struct SharedCube<G: AbelianGroup> {
    inner: Arc<RwLock<DdcEngine<G>>>,
}

impl<G: AbelianGroup> Clone for SharedCube<G> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<G: AbelianGroup> SharedCube<G> {
    /// An all-zero shared cube.
    pub fn new(shape: Shape, config: DdcConfig) -> Self {
        Self {
            inner: Arc::new(RwLock::new(DdcEngine::with_config(shape, config))),
        }
    }

    /// Wraps an existing engine.
    pub fn from_engine(engine: DdcEngine<G>) -> Self {
        Self {
            inner: Arc::new(RwLock::new(engine)),
        }
    }

    /// Poison-tolerant read lock: a panicked writer left the engine in
    /// a state `catch_unwind` already saw; readers may still query it
    /// (as the commit pipeline's readers do — see `core::shard`).
    fn read_lock(&self) -> RwLockReadGuard<'_, DdcEngine<G>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison-tolerant write lock (same rationale as [`Self::read_lock`]).
    fn write_lock(&self) -> RwLockWriteGuard<'_, DdcEngine<G>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Range sum under the shared (read) lock.
    pub fn range_sum(&self, region: &Region) -> G {
        self.read_lock().range_sum(region)
    }

    /// Prefix sum under the shared (read) lock.
    pub fn prefix_sum(&self, point: &[usize]) -> G {
        self.read_lock().prefix_sum(point)
    }

    /// One cell under the shared (read) lock.
    pub fn cell(&self, point: &[usize]) -> G {
        self.read_lock().cell(point)
    }

    /// Applies one delta under the exclusive (write) lock.
    pub fn apply_delta(&self, point: &[usize], delta: G) {
        self.write_lock().apply_delta(point, delta);
    }

    /// Applies a batch under one exclusive lock acquisition.
    pub fn apply_batch(&self, updates: &[(Vec<usize>, G)]) {
        self.write_lock().apply_batch(updates);
    }

    /// Heap bytes of the underlying structure.
    pub fn heap_bytes(&self) -> usize {
        self.read_lock().heap_bytes()
    }

    /// Runs `f` with the engine under the read lock (compound queries
    /// against one consistent version).
    pub fn with_read<R>(&self, f: impl FnOnce(&DdcEngine<G>) -> R) -> R {
        f(&self.read_lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_and_writer_interleave_consistently() {
        let cube = SharedCube::<i64>::new(Shape::cube(2, 64), DdcConfig::dynamic());
        let writer = cube.clone();
        let full = Region::full(&Shape::cube(2, 64));
        std::thread::scope(|s| {
            // Writer: 64 deltas of +1 along the diagonal.
            let w = s.spawn(move || {
                for i in 0..64usize {
                    writer.apply_delta(&[i, i], 1);
                }
            });
            // Readers: totals must only ever be in 0..=64 and
            // monotonically consistent with *some* serial order.
            for _ in 0..4 {
                let reader = cube.clone();
                let full = full.clone();
                s.spawn(move || {
                    let mut last = 0i64;
                    for _ in 0..200 {
                        let t = reader.range_sum(&full);
                        assert!((0..=64).contains(&t), "torn read {t}");
                        assert!(t >= last, "total went backwards: {last} → {t}");
                        last = t;
                    }
                });
            }
            w.join().expect("writer");
        });
        assert_eq!(cube.range_sum(&full), 64);
    }

    #[test]
    fn batch_takes_one_lock() {
        let cube = SharedCube::<i64>::new(Shape::cube(2, 8), DdcConfig::dynamic());
        let updates: Vec<(Vec<usize>, i64)> = (0..8).map(|i| (vec![i, i], i as i64)).collect();
        cube.apply_batch(&updates);
        assert_eq!(cube.prefix_sum(&[7, 7]), (0..8).sum::<i64>());
    }
}
