//! Hyper-rectangular regions and the prefix-sum decomposition of Figure 4.
//!
//! Every range-sum method in the paper reduces an arbitrary range query to
//! a signed combination of at most `2^d` *prefix* region sums — regions that
//! begin at `A[0,…,0]` (§2, Figure 4):
//!
//! ```text
//! Sum(Area_E) = Sum(Area_A) − Sum(Area_B) − Sum(Area_C) + Sum(Area_D)
//! ```
//!
//! [`Region::prefix_decomposition`] produces that combination for any
//! dimensionality; engines then only have to implement prefix sums.

use crate::shape::{PointIter, Shape};

/// A closed (inclusive) hyper-rectangle `[lo_1..=hi_1] × … × [lo_d..=hi_d]`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Region {
    lo: Box<[usize]>,
    hi: Box<[usize]>,
}

/// One term of a prefix decomposition: a signed prefix region ending at
/// `corner` (or an empty region when any bound underflows, contributing
/// nothing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixTerm {
    /// `+1` or `-1`.
    pub sign: i8,
    /// The inclusive endpoint of the prefix region `A[0,…,0] : corner`.
    pub corner: Vec<usize>,
}

impl Region {
    /// Creates the region `[lo..=hi]` (per-dimension inclusive bounds).
    ///
    /// # Panics
    ///
    /// Panics if the bounds have mismatched dimensionality or `lo_i > hi_i`
    /// for any `i` — empty regions are represented by not asking.
    pub fn new(lo: &[usize], hi: &[usize]) -> Self {
        assert_eq!(lo.len(), hi.len(), "region bounds must have equal rank");
        assert!(!lo.is_empty(), "region must have at least one dimension");
        for (axis, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            assert!(l <= h, "inverted bounds {l}..={h} in dimension {axis}");
        }
        Self {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// The prefix region `A[0,…,0] : A[p_1,…,p_d]`.
    pub fn prefix(point: &[usize]) -> Self {
        Self::new(&vec![0; point.len()], point)
    }

    /// The degenerate single-cell region at `point`.
    pub fn cell(point: &[usize]) -> Self {
        Self::new(point, point)
    }

    /// The full extent of `shape`.
    pub fn full(shape: &Shape) -> Self {
        let hi: Vec<usize> = shape.dims().iter().map(|&n| n - 1).collect();
        Self::new(&vec![0; shape.ndim()], &hi)
    }

    /// Lower (inclusive) corner.
    #[inline]
    pub fn lo(&self) -> &[usize] {
        &self.lo
    }

    /// Upper (inclusive) corner.
    #[inline]
    pub fn hi(&self) -> &[usize] {
        &self.hi
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.lo.len()
    }

    /// Extent (`hi - lo + 1`) along `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> usize {
        self.hi[axis] - self.lo[axis] + 1
    }

    /// Number of cells in the region.
    pub fn cells(&self) -> usize {
        (0..self.ndim()).map(|a| self.extent(a)).product()
    }

    /// True if `point` lies inside the region.
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.ndim()
            && point
                .iter()
                .zip(self.lo.iter().zip(self.hi.iter()))
                .all(|(&p, (&l, &h))| l <= p && p <= h)
    }

    /// True if `other` is entirely inside `self`.
    pub fn contains_region(&self, other: &Region) -> bool {
        other.ndim() == self.ndim() && self.contains(other.lo()) && self.contains(other.hi())
    }

    /// The intersection of two regions, if non-empty.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.ndim(), other.ndim());
        let mut lo = Vec::with_capacity(self.ndim());
        let mut hi = Vec::with_capacity(self.ndim());
        for axis in 0..self.ndim() {
            let l = self.lo[axis].max(other.lo[axis]);
            let h = self.hi[axis].min(other.hi[axis]);
            if l > h {
                return None;
            }
            lo.push(l);
            hi.push(h);
        }
        Some(Region::new(&lo, &hi))
    }

    /// Asserts the region fits within `shape`.
    pub fn check_within(&self, shape: &Shape) {
        assert_eq!(
            self.ndim(),
            shape.ndim(),
            "region rank {} does not match shape {shape}",
            self.ndim()
        );
        for axis in 0..self.ndim() {
            assert!(
                self.hi[axis] < shape.dim(axis),
                "region upper bound {} exceeds dimension {axis} of size {}",
                self.hi[axis],
                shape.dim(axis)
            );
        }
    }

    /// Iterates over all points in the region in row-major order.
    pub fn iter_points(&self) -> RegionPointIter {
        let extents: Vec<usize> = (0..self.ndim()).map(|a| self.extent(a)).collect();
        RegionPointIter {
            offsets: PointIter::new_for_extents(extents),
            lo: self.lo.clone(),
        }
    }

    /// The inclusion–exclusion decomposition of this region into signed
    /// prefix sums (paper Figure 4, generalized to `d` dimensions).
    ///
    /// Each corner chooses, per dimension, either `hi_i` (in-term) or
    /// `lo_i − 1` (subtracted slab). Corners requiring `lo_i − 1` with
    /// `lo_i = 0` denote empty regions and are omitted, so the result has
    /// between 1 and `2^d` terms. The sign is `(−1)^{#dimensions using lo−1}`.
    ///
    /// # Examples
    ///
    /// Figure 4's identity, `Sum(E) = Sum(A) − Sum(B) − Sum(C) + Sum(D)`:
    ///
    /// ```
    /// use ddc_array::Region;
    ///
    /// let e = Region::new(&[2, 3], &[4, 5]);
    /// let terms = e.prefix_decomposition();
    /// assert_eq!(terms.len(), 4);
    /// assert_eq!(terms.iter().map(|t| t.sign as i32).sum::<i32>(), 0);
    /// assert!(terms.iter().any(|t| t.sign == 1 && t.corner == vec![4, 5]));
    /// assert!(terms.iter().any(|t| t.sign == -1 && t.corner == vec![1, 5]));
    /// ```
    pub fn prefix_decomposition(&self) -> Vec<PrefixTerm> {
        let mut terms = Vec::with_capacity(1 << self.ndim());
        self.for_each_prefix_term(&mut vec![0; self.ndim()], |sign, corner| {
            terms.push(PrefixTerm {
                sign,
                corner: corner.to_vec(),
            })
        });
        terms
    }

    /// [`Region::prefix_decomposition`] without the allocations: calls
    /// `f(sign, corner)` for each term in the same order, writing every
    /// corner into the caller's `corner` buffer (`d` long) — what a
    /// query path uses, once per range sum.
    pub fn for_each_prefix_term(&self, corner: &mut [usize], mut f: impl FnMut(i8, &[usize])) {
        let d = self.ndim();
        assert_eq!(corner.len(), d, "corner buffer must have the region's rank");
        // Dimensions whose `lo − 1` slab is empty: masks selecting one
        // of them contribute nothing.
        let at_origin = self
            .lo
            .iter()
            .enumerate()
            .fold(0usize, |m, (axis, &l)| m | usize::from(l == 0) << axis);
        for mask in (0usize..1 << d).filter(|mask| mask & at_origin == 0) {
            for (axis, c) in corner.iter_mut().enumerate() {
                *c = if mask >> axis & 1 != 0 {
                    self.lo[axis] - 1
                } else {
                    self.hi[axis]
                };
            }
            let sign = if mask.count_ones() % 2 == 0 { 1 } else { -1 };
            f(sign, corner);
        }
    }
}

/// Coordinate scratch for this many dimensions lives on the stack;
/// wider cubes fall back to one heap buffer per operation.
const INLINE_DIMS: usize = 8;

/// Runs `f` with two zeroed `d`-long coordinate buffers.
#[inline]
pub fn with_coord_bufs<R>(d: usize, f: impl FnOnce(&mut [usize], &mut [usize]) -> R) -> R {
    let mut stack = [0usize; 2 * INLINE_DIMS];
    let mut heap = Vec::new();
    let buf = if d <= INLINE_DIMS {
        &mut stack[..2 * d]
    } else {
        heap.resize(2 * d, 0);
        &mut heap[..]
    };
    let (a, b) = buf.split_at_mut(d);
    f(a, b)
}

/// Iterator over the points of a [`Region`].
#[derive(Clone, Debug)]
pub struct RegionPointIter {
    offsets: PointIter,
    lo: Box<[usize]>,
}

impl PointIter {
    pub(crate) fn new_for_extents(extents: Vec<usize>) -> Self {
        // Reuse the shape iterator machinery over the extent vector.
        Shape::new(&extents).iter_points()
    }
}

impl RegionPointIter {
    /// Advances in place; `out` receives absolute coordinates.
    pub fn next_into(&mut self, out: &mut [usize]) -> bool {
        if !self.offsets.next_into(out) {
            return false;
        }
        for (o, &l) in out.iter_mut().zip(self.lo.iter()) {
            *o += l;
        }
        true
    }
}

impl Iterator for RegionPointIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let mut p = self.offsets.next()?;
        for (o, &l) in p.iter_mut().zip(self.lo.iter()) {
            *o += l;
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let r = Region::new(&[1, 2], &[3, 4]);
        assert_eq!(r.cells(), 9);
        assert_eq!(r.extent(0), 3);
        assert!(r.contains(&[2, 3]));
        assert!(!r.contains(&[0, 3]));
        assert!(r.contains_region(&Region::new(&[2, 2], &[3, 3])));
        assert!(!r.contains_region(&Region::new(&[0, 2], &[3, 3])));
    }

    #[test]
    fn intersection() {
        let a = Region::new(&[0, 0], &[4, 4]);
        let b = Region::new(&[3, 2], &[8, 3]);
        assert_eq!(a.intersect(&b), Some(Region::new(&[3, 2], &[4, 3])));
        let c = Region::new(&[5, 5], &[6, 6]);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn figure4_two_dimensional_decomposition() {
        // Area_E = [2..=4] × [3..=5]:
        // Sum(E) = P(4,5) − P(1,5) − P(4,2) + P(1,2)   (paper Figure 4)
        let r = Region::new(&[2, 3], &[4, 5]);
        let mut terms = r.prefix_decomposition();
        terms.sort_by_key(|t| t.corner.clone());
        assert_eq!(
            terms,
            vec![
                PrefixTerm {
                    sign: 1,
                    corner: vec![1, 2]
                },
                PrefixTerm {
                    sign: -1,
                    corner: vec![1, 5]
                },
                PrefixTerm {
                    sign: -1,
                    corner: vec![4, 2]
                },
                PrefixTerm {
                    sign: 1,
                    corner: vec![4, 5]
                },
            ]
        );
    }

    #[test]
    fn decomposition_at_origin_is_single_term() {
        let r = Region::new(&[0, 0, 0], &[5, 6, 7]);
        let terms = r.prefix_decomposition();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].sign, 1);
        assert_eq!(terms[0].corner, vec![5, 6, 7]);
    }

    #[test]
    fn decomposition_mixed_origin() {
        // lo = [0, 2]: only the second dimension produces subtracted slabs.
        let r = Region::new(&[0, 2], &[3, 4]);
        let mut terms = r.prefix_decomposition();
        terms.sort_by_key(|t| t.corner.clone());
        assert_eq!(
            terms,
            vec![
                PrefixTerm {
                    sign: -1,
                    corner: vec![3, 1]
                },
                PrefixTerm {
                    sign: 1,
                    corner: vec![3, 4]
                },
            ]
        );
    }

    #[test]
    fn decomposition_term_count_bound() {
        let r = Region::new(&[1, 1, 1, 1], &[2, 2, 2, 2]);
        assert_eq!(r.prefix_decomposition().len(), 16); // 2^4
    }

    #[test]
    fn iter_points_covers_region() {
        let r = Region::new(&[1, 1], &[2, 3]);
        let pts: Vec<Vec<usize>> = r.iter_points().collect();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], vec![1, 1]);
        assert_eq!(pts[5], vec![2, 3]);
    }

    #[test]
    fn full_and_cell_constructors() {
        let s = Shape::new(&[3, 4]);
        let f = Region::full(&s);
        assert_eq!(f, Region::new(&[0, 0], &[2, 3]));
        assert_eq!(Region::cell(&[1, 2]).cells(), 1);
        f.check_within(&s);
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_rejected() {
        Region::new(&[2], &[1]);
    }

    #[test]
    #[should_panic(expected = "exceeds dimension")]
    fn check_within_rejects_oversized() {
        Region::new(&[0, 0], &[3, 3]).check_within(&Shape::new(&[3, 3]));
    }
}
