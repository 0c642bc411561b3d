//! Property tests for §5 dynamic growth: a [`GrowableCube`] fed arbitrary
//! signed points agrees with a hash-map reference on every range query,
//! across every configuration, and its invariants hold after any growth
//! sequence.

use ddc_core::{DdcConfig, GrowableCube};
use ddc_tests::for_cases;
use std::collections::HashMap;

fn configs() -> Vec<DdcConfig> {
    vec![
        DdcConfig::dynamic(),
        DdcConfig::dynamic().with_elision(0),
        DdcConfig::sparse().with_elision(0),
        DdcConfig::basic().with_elision(0),
        DdcConfig::dynamic().with_elision(2),
        DdcConfig::sparse().with_elision(1),
    ]
}

fn reference_sum(cells: &HashMap<Vec<i64>, i64>, lo: &[i64], hi: &[i64]) -> i64 {
    cells
        .iter()
        .filter(|(p, _)| {
            p.iter()
                .zip(lo.iter().zip(hi.iter()))
                .all(|(&c, (&l, &h))| l <= c && c <= h)
        })
        .map(|(_, &v)| v)
        .sum()
}

for_cases! {
    fn growable_cube_matches_reference(rng, cases = 40) {
        let d = rng.gen_range(1usize..=3);
        // Keep the grown extent manageable for the dense configs: the cube
        // doubles toward each touched coordinate, so the span must shrink
        // with dimensionality (512 cells in 1d, ~128² in 2d, ~32³ in 3d).
        let span = [200i64, 60, 12][d - 1];
        let qspan = span + span / 4;
        let points: Vec<(Vec<i64>, i64)> = (0..rng.gen_range(1usize..30))
            .map(|_| {
                let p: Vec<i64> = (0..3).map(|_| rng.gen_range(-span..span)).collect();
                (p, rng.gen_range(-100i64..100))
            })
            .collect();
        let queries: Vec<(Vec<i64>, Vec<i64>)> = (0..rng.gen_range(1usize..8))
            .map(|_| {
                let a: Vec<i64> = (0..3).map(|_| rng.gen_range(-qspan..qspan)).collect();
                let b: Vec<i64> = (0..3).map(|_| rng.gen_range(-qspan..qspan)).collect();
                (a, b)
            })
            .collect();
        for config in configs() {
            let mut cube = GrowableCube::<i64>::new(d, config);
            let mut reference: HashMap<Vec<i64>, i64> = HashMap::new();
            for (p, v) in &points {
                let p = p[..d].to_vec();
                cube.add(&p, *v);
                *reference.entry(p).or_insert(0) += *v;
            }
            reference.retain(|_, v| *v != 0);

            assert_eq!(cube.total(), reference.values().sum::<i64>());
            assert_eq!(cube.populated_cells(), reference.len());

            for (a, b) in &queries {
                let lo: Vec<i64> =
                    a[..d].iter().zip(b[..d].iter()).map(|(&x, &y)| x.min(y)).collect();
                let hi: Vec<i64> =
                    a[..d].iter().zip(b[..d].iter()).map(|(&x, &y)| x.max(y)).collect();
                assert_eq!(
                    cube.range_sum(&lo, &hi),
                    reference_sum(&reference, &lo, &hi),
                    "config {:?} query {:?}..{:?}", config, lo, hi
                );
            }
            cube.check_invariants();
        }
    }

    fn growth_then_update_is_consistent(rng, cases = 40) {
        let first: Vec<i64> = (0..2).map(|_| rng.gen_range(-50i64..50)).collect();
        let far: Vec<i64> = (0..2).map(|_| rng.gen_range(-5000i64..5000)).collect();
        let v1 = rng.gen_range(1i64..100);
        let v2 = rng.gen_range(1i64..100);
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        cube.add(&first, v1);
        cube.add(&far, v2); // may trigger several doublings
        // Re-touch the first point after growth.
        cube.add(&first, v1);
        assert_eq!(cube.cell(&first), if first == far { 2 * v1 + v2 } else { 2 * v1 });
        assert_eq!(cube.total(), 2 * v1 + v2);
        assert_eq!(
            cube.range_sum(&[-10_000, -10_000], &[10_000, 10_000]),
            2 * v1 + v2
        );
        cube.check_invariants();
    }

    fn set_is_idempotent_across_growth(rng, cases = 40) {
        let points: Vec<(Vec<i64>, i64)> = (0..rng.gen_range(1usize..15))
            .map(|_| {
                let p: Vec<i64> = (0..2).map(|_| rng.gen_range(-100i64..100)).collect();
                (p, rng.gen_range(-50i64..50))
            })
            .collect();
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
        let mut reference: HashMap<Vec<i64>, i64> = HashMap::new();
        for (p, v) in &points {
            let old = cube.set(p, *v);
            let expect_old = reference.insert(p.clone(), *v).unwrap_or(0);
            assert_eq!(old, expect_old, "{:?}", p);
        }
        reference.retain(|_, v| *v != 0);
        assert_eq!(cube.total(), reference.values().sum::<i64>());
    }
}

/// Why `BaseStore::Lazy` survives next to the blocked default: in a
/// wide, sparsely populated space every blocked face near the root
/// claims its full `k` words, while a lazy face — a one-dimensional
/// tree in its level's forest — costs one path per point. 500 isolated
/// points in 131072² measure 4.4 MiB lazy against 133 MiB blocked
/// (`clustered_storage` prints both).
#[test]
fn lazy_base_store_keeps_isolated_points_in_a_wide_space_small() {
    let side = 1i64 << 17;
    let mut rng = ddc_workload::DdcRng::seed_from_u64(17);
    let points: Vec<[i64; 2]> = (0..500)
        .map(|_| [rng.gen_range(0..side), rng.gen_range(0..side)])
        .collect();
    let heap = |config: DdcConfig| {
        let mut cube = GrowableCube::<i64>::new(2, config);
        for p in &points {
            cube.add(p, 1);
        }
        assert_eq!(cube.total(), 500);
        cube.heap_bytes()
    };
    let (lazy, blocked) = (heap(DdcConfig::sparse()), heap(DdcConfig::dynamic()));
    assert!(lazy <= 6 << 20, "sparse() holds {lazy} bytes");
    assert!(
        blocked >= 10 * lazy,
        "blocked {blocked} vs lazy {lazy} bytes"
    );
}

/// The other side of that trade: on dense data a lazy face is a full
/// one-dimensional tree — 16-cell leaf runs under a few subtotals —
/// and must stay close to the blocked run it replaces. A fully
/// populated 256² cube measures 1 312 KiB lazy against 1 105 KiB
/// blocked.
#[test]
fn lazy_base_store_stays_close_to_blocked_on_dense_data() {
    let heap = |config: DdcConfig| {
        let mut cube = GrowableCube::<i64>::new(2, config);
        for x in 0..256 {
            for y in 0..256 {
                cube.add(&[x, y], 1 + (x * 31 + y) % 7);
            }
        }
        cube.check_invariants();
        cube.heap_bytes()
    };
    let (lazy, blocked) = (heap(DdcConfig::sparse()), heap(DdcConfig::dynamic()));
    assert!(
        2 * lazy <= 3 * blocked,
        "sparse() holds {lazy} bytes, dynamic() {blocked}"
    );
}
