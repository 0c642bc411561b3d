//! Two-dimensional row-sum groups as row-cumulative runs — the inline
//! layout of the small groups of a three-dimensional level (§4.2 stores
//! them as two-dimensional cubes; at side ≤ 32 a flat run beats a tree).
//!
//! A group of side `k` is a run of `k²` words written in place in its
//! box record, row-major over the two cross coordinates `(c0, c1)`; row
//! `r` holds the cumulative sums of that row along `c1`:
//! `W[r·k + c] = Σ_{c' ≤ c} raw[r][c']`. Every operation is a short
//! loop over it, no pointer to follow:
//!
//! * the prefix at `(c0, c1)` adds column `c1` of rows `0..=c0` —
//!   `c0 + 1` reads;
//! * the range over `[a, b]` adds `W[r·k + b1] − W[r·k + a1 − 1]` for
//!   the rows `a0..=b0` — two reads a row, one when `a1 = 0`;
//! * an add at `(a, b)` adds to the `k − b` words `W[a·k + b ..]` of
//!   row `a`.
//!
//! Each kernel returns the number of stored values it read or wrote.

use ddc_array::AbelianGroup;

/// Group value over the cross prefix `[0, (c0, c1)]`: `c0 + 1` reads.
#[inline]
pub(crate) fn prefix<G: AbelianGroup>(run: &[G], k: usize, c0: usize, c1: usize) -> (G, u64) {
    let v = (run.chunks_exact(k).take(c0 + 1)).fold(G::ZERO, |acc, row| acc.add(row[c1]));
    (v, c0 as u64 + 1)
}

/// Group value over the cross box `[lo, hi]`: two reads per row of
/// `lo[0]..=hi[0]`, one when the box starts at column 0.
#[inline]
pub(crate) fn range<G: AbelianGroup>(
    run: &[G],
    k: usize,
    lo: [usize; 2],
    hi: [usize; 2],
) -> (G, u64) {
    let rows = run[lo[0] * k..(hi[0] + 1) * k].chunks_exact(k);
    let n = (hi[0] - lo[0] + 1) as u64;
    match lo[1] {
        0 => (rows.fold(G::ZERO, |acc, row| acc.add(row[hi[1]])), n),
        a => (
            rows.fold(G::ZERO, |acc, row| acc.add(row[hi[1]]).sub(row[a - 1])),
            2 * n,
        ),
    }
}

/// Adds `delta` to the raw group value at `(a, b)`: the `k − b`
/// cumulative words of row `a` from column `b` on absorb it.
#[inline]
pub(crate) fn add<G: AbelianGroup>(run: &mut [G], k: usize, a: usize, b: usize, delta: G) -> u64 {
    for v in &mut run[a * k + b..(a + 1) * k] {
        *v = v.add(delta);
    }
    (k - b) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_tests::for_cases;

    /// The `k × k` raw group the run encodes, summed naively.
    fn naive(raw: &[i64], k: usize, lo: [usize; 2], hi: [usize; 2]) -> i64 {
        (lo[0]..=hi[0])
            .flat_map(|r| (lo[1]..=hi[1]).map(move |c| raw[r * k + c]))
            .sum()
    }

    for_cases! {
        /// Random adds, then every prefix and random ranges, against the
        /// raw group kept beside the run, at every side the layout takes.
        fn kernels_match_a_naive_group(rng, cases = 24) {
            for k in [1usize, 2, 4, 8, 16, 32] {
                let (mut run, mut raw) = (vec![0i64; k * k], vec![0i64; k * k]);
                for _ in 0..rng.gen_range(1usize..=3 * k) {
                    let (a, b) = (rng.gen_range(0..k), rng.gen_range(0..k));
                    let delta = rng.gen_range(-1000i64..=1000);
                    assert_eq!(add(&mut run, k, a, b, delta), (k - b) as u64);
                    raw[a * k + b] += delta;
                }
                for c0 in 0..k {
                    for c1 in 0..k {
                        let want = naive(&raw, k, [0, 0], [c0, c1]);
                        assert_eq!(prefix(&run, k, c0, c1), (want, c0 as u64 + 1), "k {k}");
                    }
                }
                for _ in 0..4 * k {
                    let (x, y) = ([rng.gen_range(0..k), rng.gen_range(0..k)], [rng.gen_range(0..k), rng.gen_range(0..k)]);
                    let (lo, hi) = ([x[0].min(y[0]), x[1].min(y[1])], [x[0].max(y[0]), x[1].max(y[1])]);
                    let (v, reads) = range(&run, k, lo, hi);
                    assert_eq!(v, naive(&raw, k, lo, hi), "k {k}: {lo:?}..={hi:?}");
                    let per_row = if lo[1] == 0 { 1 } else { 2 };
                    assert_eq!(reads, per_row * (hi[0] - lo[0] + 1) as u64);
                }
            }
        }
    }

    #[test]
    fn update_cost_is_the_rest_of_one_row() {
        let mut run = [0i64; 64];
        assert_eq!(add(&mut run, 8, 0, 0, 1), 8); // worst case rewrites one row
        assert_eq!(add(&mut run, 8, 7, 7, 1), 1); // best case touches one value
        assert_eq!(run.iter().filter(|&&v| v != 0).count(), 9);
    }

    #[test]
    fn a_prefix_reads_one_word_per_row() {
        let run = [1i64; 64];
        assert_eq!(prefix(&run, 8, 0, 5), (1, 1));
        assert_eq!(prefix(&run, 8, 7, 0), (8, 8));
        assert_eq!(range(&run, 8, [2, 0], [4, 7]), (3, 3));
        assert_eq!(range(&run, 8, [2, 3], [4, 7]), (0, 6));
    }
}
