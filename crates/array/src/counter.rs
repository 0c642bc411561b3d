//! Machine-independent operation accounting.
//!
//! Table 1 of the paper compares methods by "number of operations" — cells
//! that must be touched per update — rather than wall-clock time. Every
//! engine threads an [`OpCounter`] through its hot paths so the benchmark
//! harness can regenerate that table deterministically; criterion benches
//! provide the wall-clock complement.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for value reads/writes performed by an engine.
///
/// Relaxed atomics so `&self` query paths can record reads and engines
/// remain `Sync` — concurrent readers may share a structure (see the
/// `concurrency_and_snapshots` integration tests). Counts are exact
/// under a single writer, which is the measurement regime of the paper.
#[derive(Debug, Default)]
pub struct OpCounter {
    reads: AtomicU64,
    writes: AtomicU64,
}

/// An immutable snapshot of an [`OpCounter`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct OpSnapshot {
    /// Stored values read (array cells, row sums, subtree sums, …).
    pub reads: u64,
    /// Stored values written.
    pub writes: u64,
}

impl OpSnapshot {
    /// Total values touched — the paper's "number of operations" proxy.
    pub fn touched(&self) -> u64 {
        self.reads + self.writes
    }
}

impl std::ops::Sub for OpSnapshot {
    type Output = OpSnapshot;

    fn sub(self, rhs: OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
        }
    }
}

impl OpCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` value reads.
    #[inline]
    pub fn read(&self, n: u64) {
        self.reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` value writes.
    #[inline]
    pub fn write(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Adds another counter's totals into this one (used when an engine
    /// aggregates sub-structure counters).
    pub fn absorb(&self, snap: OpSnapshot) {
        self.read(snap.reads);
        self.write(snap.writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let c = OpCounter::new();
        c.read(3);
        c.write(2);
        c.read(1);
        assert_eq!(
            c.snapshot(),
            OpSnapshot {
                reads: 4,
                writes: 2
            }
        );
        assert_eq!(c.snapshot().touched(), 6);
        c.reset();
        assert_eq!(c.snapshot(), OpSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let c = OpCounter::new();
        c.read(10);
        let before = c.snapshot();
        c.read(5);
        c.write(7);
        let delta = c.snapshot() - before;
        assert_eq!(
            delta,
            OpSnapshot {
                reads: 5,
                writes: 7
            }
        );
    }

    #[test]
    fn absorb_merges() {
        let a = OpCounter::new();
        a.read(1);
        let b = OpCounter::new();
        b.write(4);
        a.absorb(b.snapshot());
        assert_eq!(
            a.snapshot(),
            OpSnapshot {
                reads: 1,
                writes: 4
            }
        );
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let c = OpCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.read(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().reads, 4000);
    }
}
