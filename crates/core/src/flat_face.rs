//! Row-sum groups stored directly in flat arrays — the Basic DDC (§3).
//!
//! In the Basic Dynamic Data Cube every overlay box keeps its row-sum
//! group `j` as a `(d−1)`-dimensional array of *cumulative* values, "the
//! same internal structure as array `P`" (§4.2). A query reads a single
//! cell; an update must add the difference to every cumulative value whose
//! region contains the changed cell — the Figure 13 dependency cascade
//! that makes Basic-DDC updates `O(n^{d-1})` (§3.3) and motivates §4.
//!
//! Like `ddc_btree::blocked`, the arithmetic is slice kernels — [`prefix`]
//! and [`add`] — over a run written in place in a level's box record:
//! `cum[c] = Σ_{c' ≤ c} raw[c']`, row-major, every dimension of extent
//! `k`. Each returns the number of stored values it read or wrote.

use ddc_array::AbelianGroup;

/// Cumulative row-sum value at `idx` — one read (§3 query path).
#[inline]
pub(crate) fn prefix<G: AbelianGroup>(cum: &[G], k: usize, idx: &[usize]) -> (G, u64) {
    (cum[idx.iter().fold(0, |at, &i| at * k + i)], 1)
}

/// Adds `delta` to the raw slab at `idx`: every cumulative cell
/// dominating `idx` absorbs the difference (the §3.3 cascade).
pub(crate) fn add<G: AbelianGroup>(cum: &mut [G], k: usize, idx: &[usize], delta: G) -> u64 {
    match *idx {
        [] => 0,
        [i] => {
            for v in &mut cum[i..] {
                *v = v.add(delta);
            }
            (k - i) as u64
        }
        [i, ref rest @ ..] => cum
            .chunks_exact_mut(cum.len() / k)
            .skip(i)
            .map(|plane| add(plane, k, rest, delta))
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_array::{NdArray, Shape};

    #[test]
    fn one_dimensional_face_cascade() {
        // A 2-D cube's row-sum group: Figure 13's X_1..X_6 dependencies.
        let mut f = [0i64; 6];
        // Row 1 sum becomes 14 → all X values shift.
        assert_eq!(add(&mut f, 6, &[0], 14), 6);
        for i in 0..6 {
            assert_eq!(prefix(&f, 6, &[i]), (14, 1));
        }
        add(&mut f, 6, &[2], 10);
        assert_eq!(prefix(&f, 6, &[1]).0, 14);
        assert_eq!(prefix(&f, 6, &[2]).0, 24);
        assert_eq!(prefix(&f, 6, &[5]).0, 24);
    }

    #[test]
    fn two_dimensional_face_matches_prefix_sums() {
        let mut f = [0i64; 16];
        let mut raw = NdArray::<i64>::zeroed(Shape::new(&[4, 4]));
        let updates = [
            ([0usize, 0usize], 5i64),
            ([3, 3], 2),
            ([1, 2], -7),
            ([0, 3], 4),
        ];
        for (p, v) in updates {
            add(&mut f, 4, &p, v);
            raw.add_assign(&p, v);
        }
        for point in raw.shape().iter_points() {
            assert_eq!(prefix(&f, 4, &point).0, raw.prefix_sum(&point), "{point:?}");
        }
    }

    #[test]
    fn update_cost_is_dominated_region_size() {
        let mut f = [0i64; 64];
        assert_eq!(add(&mut f, 8, &[0, 0], 1), 64); // worst case rewrites the face
        assert_eq!(add(&mut f, 8, &[7, 7], 1), 1); // best case touches one value
    }
}
