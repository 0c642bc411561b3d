//! Lazily materialized 1-D segment tree — the sparse cumulative store.
//!
//! The B^c tree of §4.1 allocates one leaf per row-sum position, so a
//! secondary structure over a mostly-empty overlay face still pays for the
//! whole face. Section 5 of the paper promises graceful handling of
//! "large regions of empty space"; [`SparseSegTree`] delivers that for the
//! one-dimensional base case by allocating nodes only along update paths —
//! untouched ranges are implicit zeros and occupy no memory. It is the
//! one-dimensional specialization of the Dynamic Data Cube itself (a
//! bisection tree carrying subtotals), which is why it slots in as an
//! alternative base store.

use crate::store::CumulativeStore;
use ddc_array::{AbelianGroup, OpCounter};

#[derive(Clone, Debug)]
struct SegNode<G> {
    /// Sum of the node's whole range.
    sum: G,
    left: Option<Box<SegNode<G>>>,
    right: Option<Box<SegNode<G>>>,
}

impl<G: AbelianGroup> SegNode<G> {
    fn new() -> Self {
        Self {
            sum: G::ZERO,
            left: None,
            right: None,
        }
    }

    fn heap_bytes(&self) -> usize {
        let mut bytes = 0;
        if let Some(l) = &self.left {
            bytes += std::mem::size_of::<SegNode<G>>() + l.heap_bytes();
        }
        if let Some(r) = &self.right {
            bytes += std::mem::size_of::<SegNode<G>>() + r.heap_bytes();
        }
        bytes
    }

    fn node_count(&self) -> usize {
        1 + self.left.as_ref().map_or(0, |n| n.node_count())
            + self.right.as_ref().map_or(0, |n| n.node_count())
    }
}

/// A fixed-capacity sparse segment tree over `len` positions.
///
/// # Examples
///
/// A million implicit zeros cost nothing until touched:
///
/// ```
/// use ddc_btree::{CumulativeStore, SparseSegTree};
///
/// let mut t = SparseSegTree::<i64>::zeroed(1_000_000);
/// assert_eq!(t.node_count(), 0);
/// t.add(123_456, 7);
/// assert_eq!(t.prefix(999_999), 7);
/// assert!(t.node_count() <= 21); // one root-to-leaf path
/// ```
#[derive(Debug)]
pub struct SparseSegTree<G: AbelianGroup> {
    root: Option<Box<SegNode<G>>>,
    /// Power-of-two internal span covering `len`.
    span: usize,
    len: usize,
    counter: OpCounter,
}

impl<G: AbelianGroup> Clone for SparseSegTree<G> {
    fn clone(&self) -> Self {
        Self {
            root: self.root.clone(),
            span: self.span,
            len: self.len,
            counter: OpCounter::new(),
        }
    }
}

impl<G: AbelianGroup> SparseSegTree<G> {
    /// A store of `len` implicit zeros occupying `O(1)` memory.
    pub fn zeroed(len: usize) -> Self {
        let span = len.next_power_of_two().max(1);
        Self {
            root: None,
            span,
            len,
            counter: OpCounter::new(),
        }
    }

    /// Builds from raw values; zero values allocate nothing.
    pub fn from_values(values: &[G]) -> Self {
        let mut t = Self::zeroed(values.len());
        for (i, &v) in values.iter().enumerate() {
            if !v.is_zero() {
                t.add(i, v);
            }
        }
        t
    }

    /// Number of materialized nodes (storage diagnostics for §5).
    pub fn node_count(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.node_count())
    }

    /// Returns the number of node sums written.
    fn add_rec(node: &mut SegNode<G>, span: usize, index: usize, delta: G) -> u64 {
        node.sum = node.sum.add(delta);
        if span == 1 {
            return 1;
        }
        let half = span / 2;
        let (slot, rel) = if index < half {
            (&mut node.left, index)
        } else {
            (&mut node.right, index - half)
        };
        let child = slot.get_or_insert_with(|| Box::new(SegNode::new()));
        1 + Self::add_rec(child, half, rel, delta)
    }

    fn prefix_rec(node: &SegNode<G>, span: usize, index: usize, reads: &mut u64) -> G {
        if span == 1 || index == span - 1 {
            *reads += 1;
            return node.sum;
        }
        let half = span / 2;
        if index < half {
            node.left
                .as_ref()
                .map_or(G::ZERO, |l| Self::prefix_rec(l, half, index, reads))
        } else {
            let left = node.left.as_ref().map_or(G::ZERO, |l| {
                *reads += 1;
                l.sum
            });
            let right = node
                .right
                .as_ref()
                .map_or(G::ZERO, |r| Self::prefix_rec(r, half, index - half, reads));
            left.add(right)
        }
    }

    /// [`CumulativeStore::prefix`] returning the node sums read instead
    /// of bumping the store's own counter — for owners that account a
    /// whole operation at once (as the `blocked` kernels do).
    pub fn prefix_counted(&self, index: usize) -> (G, u64) {
        assert!(
            index < self.len,
            "prefix index {index} beyond length {}",
            self.len
        );
        let mut reads = 0;
        let v = self.root.as_ref().map_or(G::ZERO, |r| {
            Self::prefix_rec(r, self.span, index, &mut reads)
        });
        (v, reads)
    }

    /// [`CumulativeStore::add`] returning the node sums written instead
    /// of bumping the store's own counter.
    pub fn add_counted(&mut self, index: usize, delta: G) -> u64 {
        assert!(index < self.len, "index {index} beyond length {}", self.len);
        if delta.is_zero() {
            return 0;
        }
        let root = self.root.get_or_insert_with(|| Box::new(SegNode::new()));
        Self::add_rec(root, self.span, index, delta)
    }
}

impl<G: AbelianGroup> CumulativeStore<G> for SparseSegTree<G> {
    fn name(&self) -> &'static str {
        "sparse-seg"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn prefix(&self, index: usize) -> G {
        let (v, reads) = self.prefix_counted(index);
        self.counter.read(reads);
        v
    }

    fn value(&self, index: usize) -> G {
        if index == 0 {
            self.prefix(0)
        } else {
            self.prefix(index).sub(self.prefix(index - 1))
        }
    }

    fn add(&mut self, index: usize, delta: G) {
        let writes = self.add_counted(index, delta);
        self.counter.write(writes);
    }

    fn counter(&self) -> &OpCounter {
        &self.counter
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .root
                .as_ref()
                .map_or(0, |r| std::mem::size_of::<SegNode<G>>() + r.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_is_all_zeros() {
        let t = SparseSegTree::<i64>::zeroed(100);
        assert_eq!(t.prefix(99), 0);
        assert_eq!(t.value(50), 0);
        assert_eq!(t.node_count(), 0);
    }

    #[test]
    fn matches_scan() {
        let values: Vec<i64> = (0..133).map(|i| (i * 29 % 41) - 20).collect();
        let t = SparseSegTree::from_values(&values);
        let mut acc = 0;
        for (i, &v) in values.iter().enumerate() {
            acc += v;
            assert_eq!(t.prefix(i), acc, "prefix({i})");
            assert_eq!(t.value(i), v, "value({i})");
        }
    }

    #[test]
    fn sparse_population_allocates_proportionally() {
        let mut t = SparseSegTree::<i64>::zeroed(1 << 20);
        t.add(12_345, 7);
        t.add(1_000_000, -2);
        // Two paths of ≤ 21 nodes each.
        assert!(t.node_count() <= 42, "allocated {} nodes", t.node_count());
        assert_eq!(t.prefix(12_344), 0);
        assert_eq!(t.prefix(12_345), 7);
        assert_eq!(t.prefix(999_999), 7);
        assert_eq!(t.prefix(1_048_575), 5);
    }

    #[test]
    fn updates_match_scan() {
        let mut reference = vec![0i64; 77];
        let mut t = SparseSegTree::<i64>::zeroed(77);
        for step in 0..400 {
            let idx = (step * 31) % 77;
            let delta = (step as i64 % 13) - 6;
            reference[idx] += delta;
            t.add(idx, delta);
        }
        for i in 0..77 {
            let expect: i64 = reference[..=i].iter().sum();
            assert_eq!(t.prefix(i), expect);
        }
    }

    #[test]
    fn set_and_total() {
        let mut t = SparseSegTree::<i64>::zeroed(8);
        assert_eq!(t.set(3, 10), 0);
        assert_eq!(t.set(3, 4), 10);
        assert_eq!(t.total(), 4);
        assert_eq!(t.range(2, 4), 4);
    }

    #[test]
    fn logarithmic_ops() {
        let mut t = SparseSegTree::<i64>::zeroed(1 << 16);
        t.add(40_000, 5);
        t.reset_ops();
        let _ = t.prefix(50_000);
        assert!(t.ops().reads <= 17);
        t.reset_ops();
        t.add(40_001, 2);
        assert!(t.ops().writes <= 17);
    }
}
