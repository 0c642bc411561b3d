//! The common interface of every range-sum method in the workspace.
//!
//! The paper compares five methods — naive, prefix sum, relative prefix
//! sum, Basic DDC and the Dynamic Data Cube — all of which answer the same
//! two requests: a *prefix sum* (region beginning at `A[0,…,0]`) and a
//! *cell update*. [`RangeSumEngine`] captures exactly that contract; range
//! queries over arbitrary hyper-rectangles are derived generically through
//! the inclusion–exclusion identity of Figure 4.

use crate::counter::{OpCounter, OpSnapshot};
use crate::group::AbelianGroup;
use crate::region::{with_coord_bufs, Region};
use crate::shape::Shape;

/// A structure that answers prefix-sum queries and accepts point updates
/// over a logical `d`-dimensional array `A`.
///
/// # Examples
///
/// Every method in the paper implements this trait, so engines are
/// interchangeable (here via `ddc-olap`'s builder; see that crate):
///
/// ```
/// use ddc_array::{RangeSumEngine, Region, Shape};
///
/// fn report(engine: &dyn RangeSumEngine<i64>) -> i64 {
///     engine.range_sum(&Region::new(&[1, 1], &[2, 2]))
/// }
/// ```
pub trait RangeSumEngine<G: AbelianGroup> {
    /// Human-readable method name (used by the benchmark tables).
    fn name(&self) -> &'static str;

    /// The logical shape of the underlying array `A`.
    fn shape(&self) -> &Shape;

    /// `SUM(A[0,…,0] : A[p_1,…,p_d])` — the fundamental query.
    fn prefix_sum(&self, point: &[usize]) -> G;

    /// Adds `delta` to cell `point` of `A`.
    fn apply_delta(&mut self, point: &[usize], delta: G);

    /// Applies a batch of deltas. The default applies them one by one;
    /// engines whose single-update cost is super-logarithmic should
    /// override with a batched path (the prefix-sum engine folds the whole
    /// batch into one `O(d·n^d)` rebuild — the paper's §1 "batch
    /// updating paradigm" made concrete).
    fn apply_batch(&mut self, updates: &[(Vec<usize>, G)]) {
        for (p, delta) in updates {
            self.apply_delta(p, *delta);
        }
    }

    /// Sum of all cells within `region`, derived from at most `2^d` prefix
    /// sums (Figure 4). Engines with a cheaper native path may override.
    fn range_sum(&self, region: &Region) -> G {
        region.check_within(self.shape());
        with_coord_bufs(region.ndim(), |corner, _| {
            let mut acc = G::ZERO;
            region.for_each_prefix_term(corner, |sign, corner| {
                let p = self.prefix_sum(corner);
                acc = if sign > 0 { acc.add(p) } else { acc.sub(p) };
            });
            acc
        })
    }

    /// Current value of one cell of `A`, recovered as the degenerate range
    /// sum over `[point, point]`. Engines that store `A` directly override
    /// this with a single read.
    fn cell(&self, point: &[usize]) -> G {
        self.range_sum(&Region::cell(point))
    }

    /// Sets cell `point` to `value` (the paper's `UpdateCell`), returning
    /// the previous value. Implemented as read-then-delta, mirroring the
    /// difference-propagation update of Figure 12.
    fn set(&mut self, point: &[usize], value: G) -> G {
        let old = self.cell(point);
        let delta = value.sub(old);
        if !delta.is_zero() {
            self.apply_delta(point, delta);
        }
        old
    }

    /// The engine's operation counter (Table 1 accounting).
    fn counter(&self) -> &OpCounter;

    /// Convenience: snapshot of the operation counter.
    fn ops(&self) -> OpSnapshot {
        self.counter().snapshot()
    }

    /// Convenience: reset the operation counter.
    fn reset_ops(&self) {
        self.counter().reset();
    }

    /// Approximate heap bytes consumed by the structure (Table 2 and the
    /// §5 clustered-storage experiments).
    fn heap_bytes(&self) -> usize;

    /// Human-readable internal metrics, if the engine keeps any beyond
    /// the [`OpCounter`] (e.g. per-shard commit statistics). `None` — the
    /// default — means the engine has nothing extra to report.
    fn metrics_text(&self) -> Option<String> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::NdArray;

    /// A deliberately minimal engine used to exercise the trait's default
    /// methods: it stores `A` and answers prefix sums by brute force.
    struct Brute {
        a: NdArray<i64>,
        counter: OpCounter,
    }

    impl RangeSumEngine<i64> for Brute {
        fn name(&self) -> &'static str {
            "brute"
        }

        fn shape(&self) -> &Shape {
            self.a.shape()
        }

        fn prefix_sum(&self, point: &[usize]) -> i64 {
            self.a.prefix_sum(point)
        }

        fn apply_delta(&mut self, point: &[usize], delta: i64) {
            self.a.add_assign(point, delta);
        }

        fn counter(&self) -> &OpCounter {
            &self.counter
        }

        fn heap_bytes(&self) -> usize {
            self.a.heap_bytes()
        }
    }

    fn brute() -> Brute {
        Brute {
            a: NdArray::from_rows(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]),
            counter: OpCounter::new(),
        }
    }

    #[test]
    fn default_range_sum_uses_inclusion_exclusion() {
        let e = brute();
        assert_eq!(e.range_sum(&Region::new(&[1, 1], &[2, 2])), 28);
        assert_eq!(e.range_sum(&Region::new(&[0, 0], &[2, 2])), 45);
        assert_eq!(e.range_sum(&Region::new(&[2, 0], &[2, 2])), 24);
    }

    #[test]
    fn default_cell_reads_through_range_sum() {
        let e = brute();
        assert_eq!(e.cell(&[1, 1]), 5);
        assert_eq!(e.cell(&[0, 2]), 3);
    }

    #[test]
    fn default_set_returns_old_and_applies_delta() {
        let mut e = brute();
        let old = e.set(&[1, 1], 50);
        assert_eq!(old, 5);
        assert_eq!(e.cell(&[1, 1]), 50);
        let full = Region::full(e.shape());
        assert_eq!(e.range_sum(&full), 45 - 5 + 50);
    }

    #[test]
    fn set_with_identical_value_is_noop() {
        let mut e = brute();
        assert_eq!(e.set(&[2, 2], 9), 9);
        assert_eq!(e.cell(&[2, 2]), 9);
    }
}
