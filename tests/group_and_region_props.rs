//! Property tests for the algebraic substrate: group laws (the paper's
//! §2 invertible-operator requirement) and the Figure-4 prefix
//! decomposition identity on arbitrary regions.

use ddc_array::{AbelianGroup, NdArray, Pair, PrefixTerm, Region, Shape};
use ddc_tests::for_cases;

for_cases! {
    fn i64_group_laws(rng, cases = 128) {
        let a = rng.next_u64() as i64;
        let b = rng.next_u64() as i64;
        let c = rng.next_u64() as i64;
        assert_eq!(a.add(b), b.add(a));
        assert_eq!(a.add(b.add(c)), a.add(b).add(c));
        assert_eq!(a.add(i64::ZERO), a);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.add(a.neg()), 0);
    }

    fn pair_group_laws(rng, cases = 128) {
        let x = Pair::new(rng.next_u64() as i32 as i64, rng.next_u64() as i32 as i64);
        let y = Pair::new(rng.next_u64() as i32 as i64, rng.next_u64() as i32 as i64);
        assert_eq!(x.add(y), y.add(x));
        assert_eq!(x.add(y).sub(y), x);
        assert_eq!(x.add(Pair::ZERO), x);
    }

    /// Figure 4: for any region R and any array A,
    /// Sum(R) = Σ ± prefix-sums of the decomposition corners.
    fn prefix_decomposition_identity(rng, cases = 128) {
        let d = rng.gen_range(1usize..4);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(1usize..8)).collect();
        let seed = rng.next_u64();
        let fracs: Vec<(f64, f64)> = (0..4).map(|_| (rng.next_f64(), rng.next_f64())).collect();

        let shape = Shape::new(&dims);
        let a = ddc_workload::uniform_array(&shape, -50, 50, &mut ddc_workload::rng(seed));
        let lo: Vec<usize> = dims.iter().enumerate()
            .map(|(i, &n)| ((fracs[i % 4].0 * n as f64) as usize).min(n - 1)).collect();
        let hi: Vec<usize> = dims.iter().enumerate()
            .map(|(i, &n)| ((fracs[i % 4].1 * n as f64) as usize).min(n - 1)).collect();
        let (lo, hi): (Vec<usize>, Vec<usize>) = lo.iter().zip(hi.iter())
            .map(|(&l, &h)| (l.min(h), l.max(h))).unzip();
        let region = Region::new(&lo, &hi);

        let direct = a.region_sum(&region);
        let mut via_prefix = 0i64;
        for term in region.prefix_decomposition() {
            let p = a.prefix_sum(&term.corner);
            via_prefix = if term.sign > 0 { via_prefix + p } else { via_prefix - p };
        }
        assert_eq!(direct, via_prefix);
    }

    /// The allocation-free corner walk yields the terms of
    /// `prefix_decomposition` one for one — same signs, same corners,
    /// same order, same `lo = 0` skips — and sums to the region.
    fn corner_walk_matches_decomposition_term_for_term(rng, cases = 128) {
        let d = rng.gen_range(1usize..5);
        // Low bounds hit 0 often, so slabs get skipped in most cases.
        let lo: Vec<usize> = (0..d).map(|_| rng.gen_range(0usize..3)).collect();
        let hi: Vec<usize> = lo.iter().map(|&l| l + rng.gen_range(0usize..4)).collect();
        let region = Region::new(&lo, &hi);
        let shape = Shape::new(&hi.iter().map(|&h| h + 1).collect::<Vec<_>>());
        let a = ddc_workload::uniform_array(&shape, -50, 50, &mut ddc_workload::rng(rng.next_u64()));

        let mut walked = Vec::new();
        let mut sum = 0i64;
        let mut corner = vec![usize::MAX; d];
        region.for_each_prefix_term(&mut corner, |sign, c| {
            walked.push(PrefixTerm { sign, corner: c.to_vec() });
            sum += i64::from(sign) * a.prefix_sum(c);
        });
        assert_eq!(walked, region.prefix_decomposition());
        assert_eq!(sum, a.region_sum(&region));
    }

    /// Decomposition terms are unique corners with correct sign parity.
    fn decomposition_structure(rng, cases = 128) {
        let d = rng.gen_range(1usize..4);
        let lo: Vec<usize> = (0..d).map(|_| rng.gen_range(0usize..6)).collect();
        let extent: Vec<usize> = (0..d).map(|_| rng.gen_range(1usize..5)).collect();
        let hi: Vec<usize> = lo.iter().zip(&extent).map(|(&l, &e)| l + e).collect();
        let region = Region::new(&lo, &hi);
        let terms = region.prefix_decomposition();
        assert!(terms.len() <= 1 << d);
        assert!(!terms.is_empty());
        // Corners are pairwise distinct.
        let mut corners: Vec<&Vec<usize>> = terms.iter().map(|t| &t.corner).collect();
        corners.sort();
        corners.dedup();
        assert_eq!(corners.len(), terms.len());
        // Signs sum to the inclusion–exclusion invariant: exactly one net
        // positive region (the query region itself) for an indicator test
        // array of all-ones restricted to the region's upper corner.
        let shape = Shape::new(&hi.iter().map(|&h| h + 1).collect::<Vec<_>>());
        let mut ones = NdArray::<i64>::zeroed(shape);
        ones.set(&hi, 1); // only the region's top corner is populated
        let mut total = 0i64;
        for t in &terms {
            let p = ones.prefix_sum(&t.corner);
            total = if t.sign > 0 { total + p } else { total - p };
        }
        assert_eq!(total, 1);
    }

    fn linearize_roundtrip(rng, cases = 128) {
        let d = rng.gen_range(1usize..5);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(1usize..9)).collect();
        let frac = rng.next_f64();
        let shape = Shape::new(&dims);
        let idx = ((frac * shape.cells() as f64) as usize).min(shape.cells() - 1);
        let p = shape.delinearize(idx);
        assert_eq!(shape.linear(&p), idx);
        assert!(shape.contains(&p));
    }
}
