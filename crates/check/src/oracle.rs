//! The reference model every engine is compared against: a sparse map
//! from signed logical coordinates to values, with O(population) range
//! sums. Too slow to ship, too simple to be wrong. Its arithmetic wraps,
//! as `AbelianGroup for i64` does in every engine it checks.

use std::collections::HashMap;

/// Ground-truth cube: a hash map of populated cells.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    d: usize,
    cells: HashMap<Vec<i64>, i64>,
}

impl Oracle {
    /// An empty oracle of `d` dimensions.
    pub fn new(d: usize) -> Self {
        Self {
            d,
            cells: HashMap::new(),
        }
    }

    /// Dimensionality.
    pub fn ndim(&self) -> usize {
        self.d
    }

    /// Adds `delta` at `point`, dropping the cell if it returns to zero.
    pub fn add(&mut self, point: &[i64], delta: i64) {
        debug_assert_eq!(point.len(), self.d);
        let v = self.cells.entry(point.to_vec()).or_insert(0);
        *v = v.wrapping_add(delta);
        if *v == 0 {
            self.cells.remove(point);
        }
    }

    /// Sets the cell to `value`, returning the previous value.
    pub fn set(&mut self, point: &[i64], value: i64) -> i64 {
        let old = self.cell(point);
        self.add(point, value.wrapping_sub(old));
        old
    }

    /// Reads one cell.
    pub fn cell(&self, point: &[i64]) -> i64 {
        debug_assert_eq!(point.len(), self.d);
        self.cells.get(point).copied().unwrap_or(0)
    }

    /// Range sum over the closed box `[lo, hi]` by scanning the
    /// population — O(populated cells), independent of box volume.
    pub fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        debug_assert_eq!(lo.len(), self.d);
        debug_assert_eq!(hi.len(), self.d);
        self.cells
            .iter()
            .filter(|(p, _)| {
                p.iter()
                    .zip(lo.iter().zip(hi))
                    .all(|(&c, (&l, &h))| c >= l && c <= h)
            })
            .fold(0, |sum, (_, &v)| sum.wrapping_add(v))
    }

    /// Sum of every populated cell.
    pub fn total(&self) -> i64 {
        self.cells.values().fold(0, |sum, &v| sum.wrapping_add(v))
    }

    /// Populated cells, sorted.
    pub fn entries(&self) -> Vec<(Vec<i64>, i64)> {
        let mut cells: Vec<_> = self.cells.iter().map(|(p, &v)| (p.clone(), v)).collect();
        cells.sort();
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_set_query_agree_with_hand_math() {
        let mut o = Oracle::new(2);
        o.add(&[0, 0], 5);
        o.add(&[2, -1], 3);
        assert_eq!(o.set(&[0, 0], 7), 5);
        assert_eq!(o.cell(&[0, 0]), 7);
        assert_eq!(o.range_sum(&[-1, -1], &[2, 0]), 10);
        assert_eq!(o.range_sum(&[1, 0], &[3, 3]), 0);
        assert_eq!(o.total(), 10);
        // Cells cancelling back to zero leave the population.
        o.add(&[2, -1], -3);
        assert_eq!(o.entries().len(), 1);
    }

    #[test]
    fn extreme_values_wrap_like_the_engines() {
        let mut o = Oracle::new(2);
        o.add(&[0, 0], i64::MAX);
        o.add(&[0, 0], i64::MAX);
        o.add(&[7, 7], i64::MIN);
        assert_eq!(o.cell(&[0, 0]), -2);
        assert_eq!(o.range_sum(&[0, 0], &[7, 7]), i64::MAX - 1);
        assert_eq!(o.total(), i64::MAX - 1);
        assert_eq!(o.set(&[7, 7], 1), i64::MIN);
        assert_eq!(o.total(), -1);
    }
}
