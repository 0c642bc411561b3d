//! Adversarial and fault-detection tests: a `DdcEngine` checked against
//! the oracle after every op under pathological update patterns,
//! numeric extremes, and configuration corners.

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_check::Oracle;
use ddc_core::{DdcConfig, DdcEngine};
use ddc_workload::{rng, skewed_updates, uniform_regions};

/// A `DdcEngine` beside the oracle. Every op goes to both, and every
/// answer the engine gives is asserted equal to the oracle's; an update
/// is followed by a read of its cell and of the whole cube.
struct Checked {
    engine: DdcEngine<i64>,
    oracle: Oracle,
}

fn signed(p: &[usize]) -> Vec<i64> {
    p.iter().map(|&c| c as i64).collect()
}

impl Checked {
    fn new(shape: &Shape, config: DdcConfig) -> Self {
        Self {
            engine: DdcEngine::with_config(shape.clone(), config),
            oracle: Oracle::new(shape.ndim()),
        }
    }

    fn apply_delta(&mut self, p: &[usize], delta: i64) {
        self.engine.apply_delta(p, delta);
        self.oracle.add(&signed(p), delta);
        self.cell(p);
        self.range_sum(&Region::full(self.engine.shape()));
    }

    fn set(&mut self, p: &[usize], value: i64) {
        let old = self.engine.set(p, value);
        assert_eq!(
            old,
            self.oracle.set(&signed(p), value),
            "set({p:?}) old value"
        );
        self.cell(p);
    }

    fn cell(&self, p: &[usize]) {
        assert_eq!(
            self.engine.cell(p),
            self.oracle.cell(&signed(p)),
            "cell({p:?})"
        );
    }

    fn range_sum(&self, q: &Region) {
        let expected = self.oracle.range_sum(&signed(q.lo()), &signed(q.hi()));
        assert_eq!(self.engine.range_sum(q), expected, "range_sum({q:?})");
    }

    fn prefix_sum(&self, p: &[usize]) {
        let expected = self.oracle.range_sum(&vec![0; p.len()], &signed(p));
        assert_eq!(self.engine.prefix_sum(p), expected, "prefix_sum({p:?})");
    }

    fn check_invariants(self) {
        self.engine.check_invariants();
    }
}

/// Every op here is checked against the oracle, so a silent divergence
/// in any structure fails loudly at the exact op.
fn stress(shape: Shape, config: DdcConfig, pattern: impl Fn(usize, &Shape) -> Vec<usize>) {
    let mut engine = Checked::new(&shape, config);
    let mut r = rng(13);
    let queries = uniform_regions(&shape, 8, &mut r);
    for step in 0..200 {
        let p = pattern(step, &shape);
        let delta = (step as i64 % 19) - 9;
        engine.apply_delta(&p, delta);
        if step % 20 == 0 {
            for q in &queries {
                engine.range_sum(q);
            }
            engine.cell(&p);
        }
    }
    engine.check_invariants();
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
        let mut engine = Checked::new(&shape, config);
        let mut r = rng(77);
        let stream = skewed_updates(&shape, 150, 1.2, &mut r);
        let queries = uniform_regions(&shape, 6, &mut r);
        for (i, (p, delta)) in stream.updates.iter().enumerate() {
            engine.apply_delta(p, *delta);
            if i % 25 == 0 {
                for q in &queries {
                    engine.range_sum(q);
                }
            }
        }
        engine.check_invariants();
    }
}

#[test]
fn extreme_magnitudes_wrap_consistently() {
    // Wrapping arithmetic must wrap the same way in every structure.
    let shape = Shape::cube(2, 8);
    let mut engine = Checked::new(&shape, DdcConfig::dynamic());
    engine.apply_delta(&[0, 0], i64::MAX);
    engine.apply_delta(&[0, 0], i64::MAX);
    engine.apply_delta(&[7, 7], i64::MIN);
    let full = Region::full(&shape);
    engine.range_sum(&full);
    engine.prefix_sum(&[3, 3]);
}

#[test]
fn narrow_shapes() {
    // 1×n and n×1 cubes: every box is degenerate in one dimension.
    for dims in [[1usize, 64], [64, 1], [1, 1]] {
        let shape = Shape::new(&dims);
        let mut engine = Checked::new(&shape, DdcConfig::dynamic());
        for i in 0..40 {
            let p = vec![i % dims[0], i % dims[1]];
            engine.apply_delta(&p, i as i64 + 1);
        }
        let full = Region::full(&shape);
        engine.range_sum(&full);
        engine.check_invariants();
    }
}

#[test]
fn set_after_heavy_churn() {
    let shape = Shape::cube(2, 32);
    let mut engine = Checked::new(&shape, DdcConfig::dynamic());
    let mut r = rng(5);
    let stream = skewed_updates(&shape, 100, 0.5, &mut r);
    for (p, delta) in &stream.updates {
        engine.apply_delta(p, *delta);
    }
    // set() must return the oracle's old value (checked inside
    // Checked::set).
    for (p, _) in stream.updates.iter().take(30) {
        engine.set(p, 42);
    }
    engine.range_sum(&Region::full(&shape));
}
