//! The benchmark's own d-dimensional Fenwick tree.
//!
//! It checks every query result (in process and on the wire) and is the
//! frozen yardstick behind `engine.over_yardstick`. It lives here, not
//! in the repo's crates, so that no change to the program under test can
//! move the reference.

use crate::ops::{Kind, Op, MAX_DIMS};

/// A dense Fenwick tree over `side^dims` cells of `i64`.
#[derive(Clone, Debug)]
pub struct Fenwick {
    /// Side per axis; 1 for axes beyond `dims`, which makes the three
    /// nested loops below degenerate to the right rank.
    sides: [usize; MAX_DIMS],
    data: Vec<i64>,
}

impl Fenwick {
    /// An all-zero tree.
    pub fn new(dims: usize, side: usize) -> Self {
        assert!((1..=MAX_DIMS).contains(&dims), "1 to {MAX_DIMS} dimensions");
        let mut sides = [1; MAX_DIMS];
        sides[..dims].fill(side);
        Self {
            sides,
            data: vec![0; sides.iter().product()],
        }
    }

    /// Adds `delta` to the cell at `point`.
    pub fn add(&mut self, point: &[u32; MAX_DIMS], delta: i64) {
        let [s0, s1, s2] = self.sides;
        let mut i = point[0] as usize + 1;
        while i <= s0 {
            let mut j = point[1] as usize + 1;
            while j <= s1 {
                let mut k = point[2] as usize + 1;
                while k <= s2 {
                    self.data[((i - 1) * s1 + (j - 1)) * s2 + (k - 1)] += delta;
                    k += k & k.wrapping_neg();
                }
                j += j & j.wrapping_neg();
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of `[0, point]`.
    pub fn prefix(&self, point: &[u32; MAX_DIMS]) -> i64 {
        let [_, s1, s2] = self.sides;
        let mut sum = 0;
        let mut i = point[0] as usize + 1;
        while i > 0 {
            let mut j = point[1] as usize + 1;
            while j > 0 {
                let mut k = point[2] as usize + 1;
                while k > 0 {
                    sum += self.data[((i - 1) * s1 + (j - 1)) * s2 + (k - 1)];
                    k &= k - 1;
                }
                j &= j - 1;
            }
            i &= i - 1;
        }
        sum
    }

    /// Sum of `[lo, hi]` by inclusion–exclusion over prefix sums.
    pub fn range(&self, lo: &[u32; MAX_DIMS], hi: &[u32; MAX_DIMS]) -> i64 {
        let mut sum = 0;
        'corners: for mask in 0u32..(1 << MAX_DIMS) {
            let mut corner = *hi;
            for axis in 0..MAX_DIMS {
                if mask & (1 << axis) != 0 {
                    if lo[axis] == 0 {
                        continue 'corners;
                    }
                    corner[axis] = lo[axis] - 1;
                }
            }
            let term = self.prefix(&corner);
            sum += if mask.count_ones() % 2 == 0 {
                term
            } else {
                -term
            };
        }
        sum
    }

    /// Sum of every cell.
    pub fn total(&self) -> i64 {
        self.prefix(&self.sides.map(|s| s as u32 - 1))
    }

    /// Applies an update, or answers a query with the expected result.
    pub fn apply(&mut self, op: &Op) -> Option<i64> {
        match op.kind {
            Kind::Update => {
                self.add(&op.hi, i64::from(op.delta));
                None
            }
            Kind::Prefix => Some(self.prefix(&op.hi)),
            Kind::Range => Some(self.range(&op.lo, &op.hi)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_workload::DdcRng;

    /// Brute force over a dense array, on a 16^d cube.
    #[test]
    fn matches_brute_force_on_a_16_cube_in_every_rank() {
        const SIDE: usize = 16;
        for dims in 1..=MAX_DIMS {
            let mut rng = DdcRng::seed_from_u64(dims as u64);
            let mut fenwick = Fenwick::new(dims, SIDE);
            let mut dense = vec![0i64; SIDE.pow(MAX_DIMS as u32)];
            let at = |p: [u32; 3]| (p[0] as usize * SIDE + p[1] as usize) * SIDE + p[2] as usize;
            let point = |rng: &mut DdcRng| {
                let mut p = [0u32; MAX_DIMS];
                for c in p.iter_mut().take(dims) {
                    *c = rng.gen_range(0usize..SIDE) as u32;
                }
                p
            };
            for _ in 0..400 {
                let p = point(&mut rng);
                let delta = rng.gen_range(0usize..19) as i64 - 9;
                fenwick.add(&p, delta);
                dense[at(p)] += delta;

                let (a, b) = (point(&mut rng), point(&mut rng));
                let lo = [a[0].min(b[0]), a[1].min(b[1]), a[2].min(b[2])];
                let hi = [a[0].max(b[0]), a[1].max(b[1]), a[2].max(b[2])];
                let mut expected = 0;
                for x in lo[0]..=hi[0] {
                    for y in lo[1]..=hi[1] {
                        for z in lo[2]..=hi[2] {
                            expected += dense[at([x, y, z])];
                        }
                    }
                }
                assert_eq!(fenwick.range(&lo, &hi), expected, "d={dims} {lo:?}..{hi:?}");
                assert_eq!(fenwick.prefix(&hi), fenwick.range(&[0; 3], &hi));
            }
            assert_eq!(fenwick.total(), dense.iter().sum::<i64>());
        }
    }

    #[test]
    fn apply_answers_queries_and_absorbs_updates() {
        let mut f = Fenwick::new(2, 8);
        let op = |kind, lo, hi, delta| Op {
            kind,
            lo,
            hi,
            delta,
        };
        assert_eq!(f.apply(&op(Kind::Update, [0; 3], [1, 2, 0], 5)), None);
        assert_eq!(f.apply(&op(Kind::Update, [0; 3], [7, 7, 0], 3)), None);
        assert_eq!(f.apply(&op(Kind::Prefix, [0; 3], [1, 2, 0], 0)), Some(5));
        assert_eq!(f.apply(&op(Kind::Range, [2, 0, 0], [7, 7, 0], 0)), Some(3));
        assert_eq!(f.total(), 8);
    }
}
