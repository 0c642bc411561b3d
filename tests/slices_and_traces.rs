//! Integration: slice views and prefix-query traces over the real
//! engines, and the fixed-shape op traces the differential suites
//! replay, under the seeded property harness.

use ddc_array::{NdArray, RangeSumEngine, Region, Shape, SliceView};
use ddc_core::{DdcConfig, DdcEngine};
use ddc_tests::{fixed_shape_trace, for_cases};
use ddc_workload::{rng, uniform_array, BoxState, CheckTrace};

#[test]
fn slices_over_the_ddc_match_manual_plane_sums() {
    let shape = Shape::cube(3, 8);
    let a = uniform_array(&shape, -9, 9, &mut rng(31));
    let e = DdcEngine::from_array(&a);
    for axis in 0..3 {
        for index in [0usize, 3, 7] {
            let v = SliceView::new(&e, axis, index);
            // Compare against a naive slice of the raw array.
            let mut manual = NdArray::<i64>::zeroed(shape.drop_axis(axis));
            for p in shape.iter_points() {
                if p[axis] == index {
                    let rest: Vec<usize> = p
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != axis)
                        .map(|(_, &c)| c)
                        .collect();
                    manual.add_assign(&rest, a.get(&p));
                }
            }
            for q in manual.shape().iter_points() {
                assert_eq!(
                    v.prefix_sum(&q),
                    manual.prefix_sum(&q),
                    "axis {axis} index {index} {q:?}"
                );
            }
        }
    }
}

#[test]
fn trace_of_every_query_sums_to_the_prefix() {
    let shape = Shape::new(&[16, 16]);
    let a = uniform_array(&shape, -20, 20, &mut rng(32));
    for config in [
        DdcConfig::dynamic(),
        DdcConfig::dynamic().with_elision(0),
        DdcConfig::sparse().with_elision(0),
        DdcConfig::dynamic().with_elision(2),
    ] {
        let e = DdcEngine::from_array_with(&a, config);
        for p in shape.iter_points() {
            let steps = e.tree().trace_prefix(&p);
            let total: i64 = steps.iter().map(|s| s.value).sum();
            assert_eq!(total, a.prefix_sum(&p), "{config:?} {p:?}");
        }
    }
}

#[test]
fn trace_visits_at_most_constant_boxes_per_level() {
    let shape = Shape::cube(2, 256);
    let a = uniform_array(&shape, 1, 5, &mut rng(33));
    let e = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(0));
    let steps = e.tree().trace_prefix(&[201, 77]);
    // ≤ 2^d contributions at each level (paper Theorem 1).
    let max_level = steps.iter().map(|s| s.level).max().unwrap_or(0);
    for level in 0..=max_level {
        let at_level = steps.iter().filter(|s| s.level == level).count();
        assert!(at_level <= 4, "level {level} had {at_level} contributions");
    }
}

for_cases! {
    /// A fixed-shape trace's text (the repro a failing differential
    /// suite prints) parses back to the same ops, so it replays the same.
    fn trace_text_roundtrip_preserves_replay(rng_, cases = 24) {
        let trace = fixed_shape_trace(&[12, 12], 40, rng_);
        let reparsed = CheckTrace::parse(&trace.to_text()).expect("own output parses");
        assert_eq!(reparsed, trace);
    }

    /// Slicing commutes with updating: update-then-slice equals
    /// slice-of-updated for arbitrary cells.
    fn slice_reflects_updates(rng_, cases = 24) {
        let axis = rng_.gen_range(0usize..3);
        let index = rng_.gen_range(0usize..6);
        let cell: Vec<usize> = (0..3).map(|_| rng_.gen_range(0usize..6)).collect();
        let delta = rng_.gen_range(-100i64..100);
        let shape = Shape::cube(3, 6);
        let mut e = DdcEngine::<i64>::dynamic(shape.clone());
        e.apply_delta(&cell, delta);
        let v = SliceView::new(&e, axis, index);
        let rest: Vec<usize> = cell
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != axis)
            .map(|(_, &c)| c)
            .collect();
        let expected = if cell[axis] == index { delta } else { 0 };
        assert_eq!(v.cell(&rest), expected);
        let full = Region::full(v.shape());
        assert_eq!(v.range_sum(&full), expected);
    }

    /// Fixed-shape traces stay inside their box, whatever its shape.
    fn generated_traces_are_well_formed(rng_, cases = 24) {
        let dims = [rng_.gen_range(1usize..8), rng_.gen_range(1usize..14)];
        let trace = fixed_shape_trace(&dims, 50, rng_);
        trace.validate().unwrap_or_else(|e| panic!("{dims:?}: {e}"));
        assert_eq!(trace.final_box(), BoxState::initial(&trace));
    }
}
