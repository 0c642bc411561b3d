//! Signed logical coordinates for cubes that grow in any direction.
//!
//! Section 5 of the paper argues that the direction of data-cube growth
//! "should be determined by the data, and not a priori": astronomers
//! discover stars in every direction, so the cube must accept cells at
//! indices below the current origin as well as above the current maximum.
//!
//! Internal structures index from `0` (overlay anchors are defined relative
//! to `A[0,…,0]`), so growth toward negative coordinates is realized by
//! shifting a per-dimension *origin*: [`CoordMap`] translates user-facing
//! signed coordinates into internal unsigned indices and records how far
//! the origin has moved.

use crate::point::{Point, MAX_RANK};
use crate::shape::Shape;

/// Maps logical signed coordinates to internal zero-based indices.
///
/// `internal[i] = logical[i] - origin[i]`, where `origin` only ever moves
/// downward (growth toward negative coordinates doubles the internal extent
/// and shifts the origin by the old extent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoordMap {
    origin: Vec<i64>,
    extent: Vec<usize>,
}

impl CoordMap {
    /// A map whose internal box is `[origin, origin + extent)` in logical
    /// space, of rank `1..=MAX_RANK`.
    pub fn new(origin: Vec<i64>, extent: Vec<usize>) -> Self {
        assert_eq!(origin.len(), extent.len());
        let d = origin.len();
        assert!(
            (1..=MAX_RANK).contains(&d),
            "rank {d} outside 1..={MAX_RANK}"
        );
        assert!(extent.iter().all(|&e| e > 0));
        Self { origin, extent }
    }

    /// A map anchored at the logical origin with the given extent.
    pub fn at_zero(extent: Vec<usize>) -> Self {
        let origin = vec![0; extent.len()];
        Self::new(origin, extent)
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.origin.len()
    }

    /// The logical coordinate of internal index `0` in each dimension.
    pub fn origin(&self) -> &[i64] {
        &self.origin
    }

    /// Current internal extent per dimension.
    pub fn extent(&self) -> &[usize] {
        &self.extent
    }

    /// The internal shape covering the mapped box.
    pub fn shape(&self) -> Shape {
        Shape::new(&self.extent)
    }

    /// Translates a logical point into internal indices, or `None` if it
    /// falls outside the current box (the caller must grow first).
    pub fn to_internal(&self, logical: &[i64]) -> Option<Point<usize>> {
        assert_eq!(logical.len(), self.ndim(), "coordinate rank mismatch");
        let mut out = Point::new();
        for ((&c, &o), &e) in logical
            .iter()
            .zip(self.origin.iter())
            .zip(self.extent.iter())
        {
            let rel = c.checked_sub(o)?;
            if rel < 0 || rel as usize >= e {
                return None;
            }
            // The rank is at most `MAX_RANK` (checked in `new`).
            let _ = out.push(rel as usize);
        }
        Some(out)
    }

    /// Translates internal indices back to logical coordinates.
    pub fn to_logical(&self, internal: &[usize]) -> Vec<i64> {
        assert_eq!(internal.len(), self.ndim());
        internal
            .iter()
            .zip(self.origin.iter())
            .map(|(&i, &o)| o + i as i64)
            .collect()
    }

    /// The growth needed (per dimension) for the box to cover `logical`:
    /// `Low` growth shifts the origin, `High` growth extends the maximum,
    /// `None` means the dimension already covers the coordinate.
    pub fn growth_needed(&self, logical: &[i64]) -> Vec<Option<GrowthDirection>> {
        assert_eq!(logical.len(), self.ndim());
        (0..self.ndim())
            .map(|axis| {
                let c = logical[axis];
                if c < self.origin[axis] {
                    Some(GrowthDirection::Low)
                } else if c >= self.origin[axis] + self.extent[axis] as i64 {
                    Some(GrowthDirection::High)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Doubles the extent of `axis`. Growing `Low` shifts the origin down
    /// by the old extent so existing internal indices move up by that
    /// amount; growing `High` leaves existing indices unchanged.
    ///
    /// Returns the number of internal index units existing cells shift by
    /// in that dimension (0 for `High`, old extent for `Low`).
    pub fn grow(&mut self, axis: usize, dir: GrowthDirection) -> usize {
        let old = self.extent[axis];
        self.extent[axis] = old.checked_mul(2).expect("extent overflow");
        match dir {
            GrowthDirection::High => 0,
            GrowthDirection::Low => {
                self.origin[axis] -= old as i64;
                old
            }
        }
    }
}

/// Which side of a dimension a cube grows toward.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum GrowthDirection {
    /// Growth toward smaller logical coordinates (shifts the origin).
    Low,
    /// Growth toward larger logical coordinates (append-style).
    High,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_at_zero() {
        let m = CoordMap::at_zero(vec![8, 8]);
        assert_eq!(m.to_internal(&[3, 7]).as_deref(), Some(&[3, 7][..]));
        assert_eq!(m.to_logical(&[3, 7]), vec![3, 7]);
        assert_eq!(m.to_internal(&[8, 0]), None);
        assert_eq!(m.to_internal(&[-1, 0]), None);
    }

    #[test]
    fn growth_high_keeps_indices() {
        let mut m = CoordMap::at_zero(vec![4]);
        let shift = m.grow(0, GrowthDirection::High);
        assert_eq!(shift, 0);
        assert_eq!(m.extent(), &[8]);
        assert_eq!(m.to_internal(&[7]).as_deref(), Some(&[7][..]));
        assert_eq!(m.origin(), &[0]);
    }

    #[test]
    fn growth_low_shifts_origin() {
        let mut m = CoordMap::at_zero(vec![4]);
        let shift = m.grow(0, GrowthDirection::Low);
        assert_eq!(shift, 4);
        assert_eq!(m.origin(), &[-4]);
        assert_eq!(m.extent(), &[8]);
        // Logical 0 is now internal 4.
        assert_eq!(m.to_internal(&[0]).as_deref(), Some(&[4][..]));
        assert_eq!(m.to_internal(&[-4]).as_deref(), Some(&[0][..]));
        assert_eq!(m.to_logical(&[0]), vec![-4]);
    }

    #[test]
    fn growth_needed_reports_direction() {
        let m = CoordMap::new(vec![-2, 0], vec![4, 4]);
        assert_eq!(
            m.growth_needed(&[-3, 0]),
            vec![Some(GrowthDirection::Low), None]
        );
        assert_eq!(
            m.growth_needed(&[1, 4]),
            vec![None, Some(GrowthDirection::High)]
        );
        assert_eq!(m.growth_needed(&[1, 3]), vec![None, None]);
    }

    #[test]
    fn repeated_low_growth() {
        let mut m = CoordMap::at_zero(vec![2]);
        m.grow(0, GrowthDirection::Low); // origin -2, extent 4
        m.grow(0, GrowthDirection::Low); // origin -6, extent 8
        assert_eq!(m.origin(), &[-6]);
        assert_eq!(m.extent(), &[8]);
        assert_eq!(m.to_internal(&[-6]).as_deref(), Some(&[0][..]));
        assert_eq!(m.to_internal(&[1]).as_deref(), Some(&[7][..]));
        assert_eq!(m.to_internal(&[2]), None);
    }

    #[test]
    fn shape_matches_extent() {
        let m = CoordMap::at_zero(vec![4, 2]);
        assert_eq!(m.shape().dims(), &[4, 2]);
    }
}
