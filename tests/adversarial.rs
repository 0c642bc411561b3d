//! Adversarial and fault-detection tests: lockstep shadow runs against
//! the naive ground truth under pathological update patterns, numeric
//! extremes, and configuration corners.

use ddc_array::{RangeSumEngine, Region, ShadowEngine, Shape};
use ddc_baselines::NaiveEngine;
use ddc_core::{DdcConfig, DdcEngine};
use ddc_workload::{rng, skewed_updates, uniform_regions};

fn shadowed(
    shape: &Shape,
    config: DdcConfig,
) -> ShadowEngine<i64, DdcEngine<i64>, NaiveEngine<i64>> {
    ShadowEngine::new(
        DdcEngine::with_config(shape.clone(), config),
        NaiveEngine::zeroed(shape.clone()),
    )
}

/// Every query here goes through both engines and asserts equality, so a
/// silent divergence in any structure fails loudly at the exact query.
fn stress(shape: Shape, config: DdcConfig, pattern: impl Fn(usize, &Shape) -> Vec<usize>) {
    let mut engine = shadowed(&shape, config);
    let mut r = rng(13);
    let queries = uniform_regions(&shape, 8, &mut r);
    for step in 0..200 {
        let p = pattern(step, &shape);
        let delta = (step as i64 % 19) - 9;
        engine.apply_delta(&p, delta);
        if step % 20 == 0 {
            for q in &queries {
                let _ = engine.range_sum(q);
            }
            let _ = engine.cell(&p);
        }
    }
    engine.into_primary().check_invariants();
}

#[test]
fn diagonal_updates() {
    // Diagonal cells share no rows/columns — every overlay box on the
    // path sees a fresh cross-position.
    stress(Shape::cube(2, 64), DdcConfig::dynamic(), |i, s| {
        let n = s.dim(0);
        vec![i % n, i % n]
    });
}

#[test]
fn corner_hammering() {
    // All 2^d corners in rotation: maximal cascade targets for every
    // engine family.
    stress(Shape::cube(3, 16), DdcConfig::dynamic(), |i, s| {
        (0..3)
            .map(|axis| {
                if (i >> axis) & 1 == 1 {
                    s.dim(axis) - 1
                } else {
                    0
                }
            })
            .collect()
    });
}

#[test]
fn single_cell_oscillation() {
    // One cell takes alternating ±deltas; intermediate states pass
    // through zero (exercising is_zero short-circuits).
    stress(Shape::cube(2, 32), DdcConfig::sparse(), |_, _| vec![17, 3]);
}

#[test]
fn zipf_hotspots_under_every_config() {
    let shape = Shape::cube(2, 32);
    for config in [
        DdcConfig::dynamic(),
        DdcConfig::dynamic().with_elision(0),
        DdcConfig::basic().with_elision(0),
        DdcConfig::sparse().with_elision(0),
        DdcConfig::dynamic().with_elision(2),
        DdcConfig::sparse().with_elision(1),
    ] {
        let mut engine = shadowed(&shape, config);
        let mut r = rng(77);
        let stream = skewed_updates(&shape, 150, 1.2, &mut r);
        let queries = uniform_regions(&shape, 6, &mut r);
        for (i, (p, delta)) in stream.updates.iter().enumerate() {
            engine.apply_delta(p, *delta);
            if i % 25 == 0 {
                for q in &queries {
                    let _ = engine.range_sum(q);
                }
            }
        }
        engine.into_primary().check_invariants();
    }
}

#[test]
fn extreme_magnitudes_wrap_consistently() {
    // Wrapping arithmetic must wrap the same way in every structure.
    let shape = Shape::cube(2, 8);
    let mut engine = shadowed(&shape, DdcConfig::dynamic());
    engine.apply_delta(&[0, 0], i64::MAX);
    engine.apply_delta(&[0, 0], i64::MAX);
    engine.apply_delta(&[7, 7], i64::MIN);
    let full = Region::full(&shape);
    let _ = engine.range_sum(&full);
    let _ = engine.prefix_sum(&[3, 3]);
}

#[test]
fn narrow_shapes() {
    // 1×n and n×1 cubes: every box is degenerate in one dimension.
    for dims in [[1usize, 64], [64, 1], [1, 1]] {
        let shape = Shape::new(&dims);
        let mut engine = shadowed(&shape, DdcConfig::dynamic());
        for i in 0..40 {
            let p = vec![i % dims[0], i % dims[1]];
            engine.apply_delta(&p, i as i64 + 1);
        }
        let full = Region::full(&shape);
        let _ = engine.range_sum(&full);
        engine.into_primary().check_invariants();
    }
}

#[test]
fn set_after_heavy_churn() {
    let shape = Shape::cube(2, 32);
    let mut engine = shadowed(&shape, DdcConfig::dynamic());
    let mut r = rng(5);
    let stream = skewed_updates(&shape, 100, 0.5, &mut r);
    for (p, delta) in &stream.updates {
        engine.apply_delta(p, *delta);
    }
    // set() must return identical old values from both engines (checked
    // inside ShadowEngine::set).
    for (p, _) in stream.updates.iter().take(30) {
        let _ = engine.set(p, 42);
    }
    let _ = engine.range_sum(&Region::full(&shape));
}
