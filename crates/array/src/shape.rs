//! Shapes of `d`-dimensional arrays and row-major index arithmetic.
//!
//! The paper models the data cube as a `d`-dimensional array `A` of size
//! `n_1 × n_2 × … × n_d` with zero-based indices (§2). [`Shape`] owns that
//! size vector and provides the linearization used by every dense structure
//! in the workspace (array `A` itself, the prefix-sum array `P`, block-local
//! relative-prefix arrays, and overlay faces).

use std::fmt;

/// Why a dimension list cannot form a [`Shape`].
///
/// Returned by [`Shape::try_new`], the checked constructor used wherever
/// the dimension list comes from untrusted input (snapshot headers, trace
/// files, shell commands).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// The dimension list was empty.
    NoDimensions,
    /// A dimension had size zero (the offending axis).
    EmptyDimension(usize),
    /// The total cell count `n_1 · … · n_d` overflows `usize`.
    CellOverflow,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoDimensions => write!(f, "a data cube needs at least one dimension"),
            Self::EmptyDimension(axis) => {
                write!(
                    f,
                    "dimension {axis} is empty (every dimension must be non-empty)"
                )
            }
            Self::CellOverflow => write!(f, "total cell count overflows usize"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// The extent of a `d`-dimensional array: one size per dimension.
///
/// Row-major order: the *last* dimension is contiguous in memory.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Box<[usize]>,
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", &self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for d in self.dims.iter() {
            if !first {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        Ok(())
    }
}

impl Shape {
    /// Creates a shape from per-dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any dimension is zero, or the total cell
    /// count overflows `usize` — all programming errors for the structures
    /// built here.
    pub fn new(dims: &[usize]) -> Self {
        match Self::try_new(dims) {
            Ok(shape) => shape,
            Err(e) => panic!("invalid shape {dims:?}: {e}"),
        }
    }

    /// Checked variant of [`Shape::new`]: rejects empty dimension lists,
    /// zero-sized dimensions, and cell counts that overflow `usize`
    /// instead of panicking. Use this wherever the dimension list comes
    /// from outside the program (snapshot files, traces, user commands).
    pub fn try_new(dims: &[usize]) -> Result<Self, ShapeError> {
        if dims.is_empty() {
            return Err(ShapeError::NoDimensions);
        }
        if let Some(axis) = dims.iter().position(|&n| n == 0) {
            return Err(ShapeError::EmptyDimension(axis));
        }
        let mut cells: usize = 1;
        for &n in dims {
            cells = cells.checked_mul(n).ok_or(ShapeError::CellOverflow)?;
        }
        Ok(Self { dims: dims.into() })
    }

    /// A `d`-dimensional hyper-cube shape with side `n` — the paper's cost
    /// model (`n = n_1 = … = n_d`, §2).
    pub fn cube(d: usize, n: usize) -> Self {
        Self::new(&vec![n; d])
    }

    /// Number of dimensions (`d` in the paper).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Size of dimension `axis`.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// The largest per-dimension size, `max n_i` (at least 1: a shape
    /// has a dimension and no dimension is empty).
    #[inline]
    pub fn max_dim(&self) -> usize {
        self.dims.iter().fold(1, |m, &n| m.max(n))
    }

    /// Total number of cells, `n_1 · n_2 · … · n_d`.
    #[inline]
    pub fn cells(&self) -> usize {
        self.dims.iter().product()
    }

    /// True if `point` lies inside the array bounds.
    #[inline]
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.ndim() && point.iter().zip(self.dims.iter()).all(|(&p, &n)| p < n)
    }

    /// Asserts that `point` is a valid cell index.
    #[inline]
    pub fn check_point(&self, point: &[usize]) {
        assert_eq!(
            point.len(),
            self.ndim(),
            "point dimensionality {} does not match shape {self}",
            point.len()
        );
        for (axis, (&p, &n)) in point.iter().zip(self.dims.iter()).enumerate() {
            assert!(
                p < n,
                "index {p} out of bounds for dimension {axis} of size {n}"
            );
        }
    }

    /// Row-major linear offset of `point`.
    #[inline]
    pub fn linear(&self, point: &[usize]) -> usize {
        debug_assert!(self.contains(point), "{point:?} outside {self}");
        let mut idx = 0usize;
        for (&p, &n) in point.iter().zip(self.dims.iter()) {
            idx = idx * n + p;
        }
        idx
    }

    /// Inverse of [`Shape::linear`]: writes the coordinates of `linear` into
    /// `out`.
    pub fn delinearize_into(&self, mut linear: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.ndim());
        for axis in (0..self.ndim()).rev() {
            let n = self.dims[axis];
            out[axis] = linear % n;
            linear /= n;
        }
        debug_assert_eq!(linear, 0, "linear index out of range");
    }

    /// Inverse of [`Shape::linear`], allocating the coordinate vector.
    pub fn delinearize(&self, linear: usize) -> Vec<usize> {
        let mut out = vec![0; self.ndim()];
        self.delinearize_into(linear, &mut out);
        out
    }

    /// The shape with dimension `axis` removed — the cross-section shape of
    /// an overlay face (paper §3.1: each of the `d` row-sum groups is
    /// `(d-1)`-dimensional). For a 1-D shape this would be empty, so callers
    /// must only use it when `ndim() >= 2`.
    pub fn drop_axis(&self, axis: usize) -> Shape {
        assert!(self.ndim() >= 2, "cannot drop an axis from a 1-D shape");
        assert!(axis < self.ndim());
        let dims: Vec<usize> = self
            .dims
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != axis)
            .map(|(_, &n)| n)
            .collect();
        Shape::new(&dims)
    }

    /// Iterates over every cell index in row-major order.
    pub fn iter_points(&self) -> PointIter {
        PointIter::new(self.dims.to_vec())
    }
}

/// Row-major iterator over all coordinate vectors of a shape (or region
/// extent). Yields a reference-free owned `Vec<usize>` per step; hot loops
/// should prefer [`PointIter::next_into`] to reuse a buffer.
#[derive(Clone, Debug)]
pub struct PointIter {
    dims: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl PointIter {
    fn new(dims: Vec<usize>) -> Self {
        let done = dims.contains(&0);
        let current = vec![0; dims.len()];
        Self {
            dims,
            current,
            done,
        }
    }

    /// Advances in place; returns `false` when exhausted. The buffer holds
    /// the *next* point after a `true` return.
    pub fn next_into(&mut self, out: &mut [usize]) -> bool {
        if self.done {
            return false;
        }
        out.copy_from_slice(&self.current);
        self.advance();
        true
    }

    fn advance(&mut self) {
        for axis in (0..self.dims.len()).rev() {
            self.current[axis] += 1;
            if self.current[axis] < self.dims[axis] {
                return;
            }
            self.current[axis] = 0;
        }
        self.done = true;
    }
}

impl Iterator for PointIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        self.advance();
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        // Remaining = total - linear(current); cheap and exact.
        let total: usize = self.dims.iter().product();
        let mut idx = 0usize;
        for (&p, &n) in self.current.iter().zip(self.dims.iter()) {
            idx = idx * n + p;
        }
        let rem = total - idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PointIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_shape() {
        let s = Shape::cube(3, 4);
        assert_eq!(s.ndim(), 3);
        assert_eq!(s.dims(), &[4, 4, 4]);
        assert_eq!(s.cells(), 64);
        assert_eq!(s.to_string(), "4×4×4");
        assert_eq!(s.max_dim(), 4);
        assert_eq!(Shape::new(&[3, 9, 1]).max_dim(), 9);
    }

    #[test]
    fn linear_roundtrip() {
        let s = Shape::new(&[3, 5, 2]);
        for (i, p) in s.iter_points().enumerate() {
            assert_eq!(s.linear(&p), i);
            assert_eq!(s.delinearize(i), p);
        }
    }

    #[test]
    fn row_major_order_last_dim_contiguous() {
        let s = Shape::new(&[2, 3]);
        let pts: Vec<Vec<usize>> = s.iter_points().collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn contains_and_check() {
        let s = Shape::new(&[4, 4]);
        assert!(s.contains(&[3, 3]));
        assert!(!s.contains(&[4, 0]));
        assert!(!s.contains(&[0]));
        s.check_point(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn check_point_panics_out_of_bounds() {
        Shape::new(&[2, 2]).check_point(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dim_rejected() {
        Shape::new(&[3, 0]);
    }

    #[test]
    fn try_new_rejects_bad_dimension_lists() {
        assert_eq!(Shape::try_new(&[]), Err(ShapeError::NoDimensions));
        assert_eq!(
            Shape::try_new(&[4, 0, 2]),
            Err(ShapeError::EmptyDimension(1))
        );
        // Product overflows usize: 2^40 · 2^40 > 2^64.
        let huge = 1usize << 40;
        assert_eq!(Shape::try_new(&[huge, huge]), Err(ShapeError::CellOverflow));
        // usize::MAX alone is a valid (if impractical) cell count.
        assert!(Shape::try_new(&[usize::MAX]).is_ok());
        assert_eq!(Shape::try_new(&[3, 5]).unwrap().cells(), 15);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn new_panics_on_cell_overflow() {
        Shape::new(&[usize::MAX, 2]);
    }

    #[test]
    fn drop_axis_gives_face_shape() {
        let s = Shape::new(&[4, 5, 6]);
        assert_eq!(s.drop_axis(0).dims(), &[5, 6]);
        assert_eq!(s.drop_axis(1).dims(), &[4, 6]);
        assert_eq!(s.drop_axis(2).dims(), &[4, 5]);
    }

    #[test]
    fn point_iter_exact_size() {
        let s = Shape::new(&[3, 3]);
        let mut it = s.iter_points();
        assert_eq!(it.len(), 9);
        it.next();
        assert_eq!(it.len(), 8);
    }

    #[test]
    fn next_into_reuses_buffer() {
        let s = Shape::new(&[2, 2]);
        let mut it = s.iter_points();
        let mut buf = [0usize; 2];
        let mut seen = Vec::new();
        while it.next_into(&mut buf) {
            seen.push(buf.to_vec());
        }
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[3], vec![1, 1]);
    }

    #[test]
    fn one_dimensional_shape() {
        let s = Shape::new(&[7]);
        assert_eq!(s.cells(), 7);
        assert_eq!(s.linear(&[4]), 4);
    }
}
