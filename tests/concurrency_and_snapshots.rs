//! Concurrent read sharing and sparse snapshot round-trips.
//!
//! The paper's motivating deployment is interactive analysis: many
//! analysts querying one cube. All engines are `Sync` for reads (operation
//! counters are relaxed atomics), so a cube can be shared across threads
//! without locks; writers take `&mut` exclusivity as usual.

use ddc_array::{RangeSumEngine, Shape};
use ddc_core::{DdcConfig, DdcEngine, GrowableCube};
use ddc_workload::{rng, uniform_array, uniform_regions};

#[test]
fn concurrent_readers_share_one_cube() {
    let shape = Shape::cube(2, 128);
    let base = uniform_array(&shape, -100, 100, &mut rng(55));
    let engine = DdcEngine::from_array(&base);
    let queries = uniform_regions(&shape, 64, &mut rng(56));

    // Sequential ground truth.
    let expected: Vec<i64> = queries.iter().map(|q| base.region_sum(q)).collect();

    // Eight threads hammer the same engine concurrently.
    let results: Vec<Vec<i64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    queries
                        .iter()
                        .map(|q| engine.range_sum(q))
                        .collect::<Vec<i64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for r in &results {
        assert_eq!(r, &expected);
    }
}

#[test]
fn engine_snapshot_roundtrip() {
    let shape = Shape::new(&[37, 22]);
    let base = uniform_array(&shape, -5, 5, &mut rng(60));
    let original = DdcEngine::from_array_with(&base, DdcConfig::dynamic().with_elision(1));
    let entries = original.entries();
    assert_eq!(entries.len(), base.populated_cells());

    // Restore into a *different* configuration; answers must match.
    let restored = DdcEngine::from_entries(shape.clone(), DdcConfig::sparse(), &entries);
    for q in uniform_regions(&shape, 32, &mut rng(61)) {
        assert_eq!(restored.range_sum(&q), original.range_sum(&q), "{q:?}");
    }
    restored.check_invariants();
}

#[test]
fn growable_snapshot_roundtrip_preserves_logical_coords() {
    let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
    let points: [([i64; 2], i64); 5] = [
        ([0, 0], 1),
        ([-40, 3], 7),
        ([99, -250], -4),
        ([-1, -1], 9),
        ([500, 500], 2),
    ];
    for (p, v) in points {
        cube.add(&p, v);
    }
    let entries = cube.entries();
    assert_eq!(entries.len(), 5);

    let restored = GrowableCube::from_entries(2, DdcConfig::dynamic(), &entries);
    assert_eq!(restored.total(), cube.total());
    for (p, v) in points {
        assert_eq!(restored.cell(&p), v, "{p:?}");
    }
    assert_eq!(
        restored.range_sum(&[-300, -300], &[100, 100]),
        cube.range_sum(&[-300, -300], &[100, 100])
    );
}

#[test]
fn snapshot_of_empty_cube_is_empty() {
    let e = DdcEngine::<i64>::dynamic(Shape::cube(3, 8));
    assert!(e.entries().is_empty());
    let g = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
    assert!(g.entries().is_empty());
}
