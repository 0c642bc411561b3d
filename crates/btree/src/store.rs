//! The contract shared by one-dimensional cumulative stores.
//!
//! Section 4.1 of the paper replaces the flat row-sum arrays of the Basic
//! DDC with the Cumulative B-Tree (B^c tree). Any structure that maintains
//! a sequence of values under point updates while answering *cumulative*
//! (prefix) sums can play that role; [`CumulativeStore`] abstracts it so
//! the paper's B^c tree, its blocked layout and the Fenwick-tree
//! ablation can be compared on identical inputs.

use ddc_array::{AbelianGroup, OpCounter, OpSnapshot};

/// A sequence of group values supporting prefix sums and point updates.
///
/// Indices are zero-based positions in the row-sum sequence; the paper's
/// 1-based "keys" map to `index + 1`.
///
/// # Examples
///
/// All three stores are interchangeable behind this trait:
///
/// ```
/// use ddc_btree::{BcTree, BlockedBc, CumulativeStore, Fenwick};
///
/// let values = [3i64, -1, 4, 1, 5];
/// let stores: Vec<Box<dyn CumulativeStore<i64>>> = vec![
///     Box::new(BcTree::from_values(4, &values)),
///     Box::new(Fenwick::from_values(&values)),
///     Box::new(BlockedBc::from_values(&values)),
/// ];
/// for s in &stores {
///     assert_eq!(s.prefix(2), 6);
///     assert_eq!(s.range(1, 3), 4);
///     assert_eq!(s.total(), 12);
/// }
/// ```
pub trait CumulativeStore<G: AbelianGroup> {
    /// Human-readable structure name (benchmark labels).
    fn name(&self) -> &'static str;

    /// Number of stored positions.
    fn len(&self) -> usize;

    /// True if the store holds no positions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative sum of positions `0..=index`.
    fn prefix(&self, index: usize) -> G;

    /// The individual value at `index` (not cumulative).
    fn value(&self, index: usize) -> G;

    /// Adds `delta` to the value at `index`.
    fn add(&mut self, index: usize, delta: G);

    /// Replaces the value at `index`, returning the old value.
    fn set(&mut self, index: usize, value: G) -> G {
        let old = self.value(index);
        let delta = value.sub(old);
        if !delta.is_zero() {
            self.add(index, delta);
        }
        old
    }

    /// Sum of every stored value.
    fn total(&self) -> G {
        if self.is_empty() {
            G::ZERO
        } else {
            self.prefix(self.len() - 1)
        }
    }

    /// Sum of positions `lo..=hi`.
    fn range(&self, lo: usize, hi: usize) -> G {
        assert!(
            lo <= hi && hi < self.len(),
            "range {lo}..={hi} out of bounds"
        );
        let high = self.prefix(hi);
        if lo == 0 {
            high
        } else {
            high.sub(self.prefix(lo - 1))
        }
    }

    /// Operation counter for Table-1 style accounting.
    fn counter(&self) -> &OpCounter;

    /// Materializes every stored value in positional order (diagnostics,
    /// rebuilds, migrations between store kinds).
    fn to_values(&self) -> Vec<G> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Convenience: snapshot of the operation counter.
    fn ops(&self) -> OpSnapshot {
        self.counter().snapshot()
    }

    /// Convenience: reset the operation counter.
    fn reset_ops(&self) {
        self.counter().reset();
    }

    /// Approximate heap bytes used.
    fn heap_bytes(&self) -> usize;
}
