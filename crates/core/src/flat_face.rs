//! Row-sum groups stored directly in flat arrays — the Basic DDC (§3).
//!
//! In the Basic Dynamic Data Cube every overlay box keeps its row-sum
//! group `j` as a `(d−1)`-dimensional array of *cumulative* values, "the
//! same internal structure as array `P`" (§4.2). A query reads a single
//! cell; an update must add the difference to every cumulative value whose
//! region contains the changed cell — the Figure 13 dependency cascade
//! that makes Basic-DDC updates `O(n^{d-1})` (§3.3) and motivates §4.

use ddc_array::{AbelianGroup, NdArray, OpSnapshot, Region, Shape};

/// A cumulative `(d−1)`-dimensional row-sum group with direct storage.
#[derive(Clone, Debug)]
pub(crate) struct FlatFace<G: AbelianGroup> {
    /// `cum[c] = Σ_{c' ≤ c} raw[c']` over the face coordinates.
    cum: NdArray<G>,
}

impl<G: AbelianGroup> FlatFace<G> {
    /// An all-zero face of the given shape.
    pub(crate) fn zeroed(shape: Shape) -> Self {
        Self {
            cum: NdArray::zeroed(shape),
        }
    }

    /// Cumulative row-sum value at `idx` — one read (§3 query path).
    pub(crate) fn prefix(&self, idx: &[usize], ops: &mut OpSnapshot) -> G {
        ops.reads += 1;
        self.cum.get(idx)
    }

    /// Adds `delta` to the raw slab at `idx`: every cumulative cell
    /// dominating `idx` absorbs the difference (the §3.3 cascade).
    pub(crate) fn add(&mut self, idx: &[usize], delta: G, ops: &mut OpSnapshot) {
        let hi: Vec<usize> = self.cum.shape().dims().iter().map(|&n| n - 1).collect();
        let dominated = Region::new(idx, &hi);
        let mut buf = vec![0usize; idx.len()];
        let mut iter = dominated.iter_points();
        while iter.next_into(&mut buf) {
            self.cum.add_assign(&buf, delta);
            ops.writes += 1;
        }
    }

    /// Bulk-fills from a raw (non-cumulative) array by one running-sum
    /// sweep per axis.
    pub(crate) fn fill_cumulative(&mut self, raw: &NdArray<G>) {
        assert_eq!(self.cum.shape(), raw.shape());
        self.cum = raw.clone();
        let shape = self.cum.shape().clone();
        let d = shape.ndim();
        let mut point = vec![0usize; d];
        for axis in 0..d {
            let mut iter = shape.iter_points();
            while iter.next_into(&mut point) {
                if point[axis] == 0 {
                    continue;
                }
                point[axis] -= 1;
                let prev = self.cum.get_linear(shape.linear(&point));
                point[axis] += 1;
                let idx = shape.linear(&point);
                self.cum.set_linear(idx, self.cum.get_linear(idx).add(prev));
            }
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.cum.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dimensional_face_cascade() {
        // A 2-D cube's row-sum group: Figure 13's X_1..X_6 dependencies.
        let mut c = OpSnapshot::default();
        let mut f = FlatFace::<i64>::zeroed(Shape::new(&[6]));
        f.add(&[0], 14, &mut c); // row 1 sum becomes 14 → all X values shift
        assert_eq!(c.writes, 6);
        for i in 0..6 {
            assert_eq!(f.prefix(&[i], &mut c), 14);
        }
        f.add(&[2], 10, &mut c);
        assert_eq!(f.prefix(&[1], &mut c), 14);
        assert_eq!(f.prefix(&[2], &mut c), 24);
        assert_eq!(f.prefix(&[5], &mut c), 24);
    }

    #[test]
    fn two_dimensional_face_matches_prefix_sums() {
        let mut c = OpSnapshot::default();
        let mut f = FlatFace::<i64>::zeroed(Shape::new(&[4, 4]));
        let mut raw = NdArray::<i64>::zeroed(Shape::new(&[4, 4]));
        let updates = [
            ([0usize, 0usize], 5i64),
            ([3, 3], 2),
            ([1, 2], -7),
            ([0, 3], 4),
        ];
        for (p, v) in updates {
            f.add(&p, v, &mut c);
            raw.add_assign(&p, v);
        }
        for point in raw.shape().iter_points() {
            assert_eq!(
                f.prefix(&point, &mut c),
                raw.prefix_sum(&point),
                "{point:?}"
            );
        }
    }

    #[test]
    fn update_cost_is_dominated_region_size() {
        let mut c = OpSnapshot::default();
        let mut f = FlatFace::<i64>::zeroed(Shape::new(&[8, 8]));
        f.add(&[0, 0], 1, &mut c);
        assert_eq!(c.writes, 64); // worst case rewrites the face
        c = OpSnapshot::default();
        f.add(&[7, 7], 1, &mut c);
        assert_eq!(c.writes, 1); // best case touches one value
    }
}
