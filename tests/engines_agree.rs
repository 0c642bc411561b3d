//! Property tests: every range-sum method in the paper answers every
//! query identically to the naive ground truth, under arbitrary
//! interleavings of updates and queries, for d ∈ 1..=4.

use ddc_array::{NdArray, RangeSumEngine, Region, Shape};
use ddc_core::DdcConfig;
use ddc_olap::EngineKind;
use ddc_tests::{for_cases, DdcRng};

/// A random cube shape with at most ~4k cells to keep PS updates fast.
fn gen_shape(rng: &mut DdcRng) -> Vec<usize> {
    match rng.gen_range(0usize..4) {
        0 => vec![rng.gen_range(1usize..=48)],
        1 => (0..2).map(|_| rng.gen_range(1usize..=16)).collect(),
        2 => (0..3).map(|_| rng.gen_range(1usize..=8)).collect(),
        _ => (0..4).map(|_| rng.gen_range(1usize..=5)).collect(),
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Fractional coordinates scaled into the shape at runtime.
    Update(Vec<f64>, i64),
    Set(Vec<f64>, i64),
    Query(Vec<f64>, Vec<f64>),
}

fn gen_coord(rng: &mut DdcRng) -> Vec<f64> {
    let len = rng.gen_range(1usize..=4);
    (0..len).map(|_| rng.next_f64()).collect()
}

fn gen_ops(rng: &mut DdcRng) -> Vec<Op> {
    let count = rng.gen_range(1usize..24);
    (0..count)
        .map(|_| match rng.gen_range(0usize..3) {
            0 => Op::Update(gen_coord(rng), rng.gen_range(-1000i64..1000)),
            1 => Op::Set(gen_coord(rng), rng.gen_range(-1000i64..1000)),
            _ => Op::Query(gen_coord(rng), gen_coord(rng)),
        })
        .collect()
}

fn scale(frac: &[f64], dims: &[usize]) -> Vec<usize> {
    dims.iter()
        .enumerate()
        .map(|(i, &n)| {
            let f = frac.get(i).copied().unwrap_or(0.0);
            ((f * n as f64) as usize).min(n - 1)
        })
        .collect()
}

fn all_kinds() -> Vec<EngineKind> {
    let mut v = EngineKind::ALL.to_vec();
    // `ALL` holds the paper's full trees; this is the production layout.
    v.push(EngineKind::CustomDdc(DdcConfig::dynamic()));
    v.push(EngineKind::CustomDdc(DdcConfig::sparse().with_elision(0)));
    v.push(EngineKind::CustomDdc(DdcConfig::dynamic().with_elision(2)));
    v.push(EngineKind::CustomDdc(DdcConfig::sparse().with_elision(1)));
    v.push(EngineKind::CustomDdc(DdcConfig::basic().with_elision(1)));
    v
}

for_cases! {
    fn all_engines_match_ground_truth(rng, cases = 48) {
        let dims = gen_shape(rng);
        let ops = gen_ops(rng);
        let shape = Shape::new(&dims);
        let mut truth = NdArray::<i64>::zeroed(shape.clone());
        let mut engines: Vec<Box<dyn RangeSumEngine<i64>>> =
            all_kinds().iter().map(|k| k.build(shape.clone())).collect();

        for op in &ops {
            match op {
                Op::Update(c, v) => {
                    let p = scale(c, &dims);
                    truth.add_assign(&p, *v);
                    for e in engines.iter_mut() {
                        e.apply_delta(&p, *v);
                    }
                }
                Op::Set(c, v) => {
                    let p = scale(c, &dims);
                    let expect_old = truth.get(&p);
                    truth.set(&p, *v);
                    for e in engines.iter_mut() {
                        // All engines must agree on the previous value too.
                        assert_eq!(e.set(&p, *v), expect_old, "{} old value", e.name());
                    }
                }
                Op::Query(a, b) => {
                    let pa = scale(a, &dims);
                    let pb = scale(b, &dims);
                    let lo: Vec<usize> =
                        pa.iter().zip(pb.iter()).map(|(&x, &y)| x.min(y)).collect();
                    let hi: Vec<usize> =
                        pa.iter().zip(pb.iter()).map(|(&x, &y)| x.max(y)).collect();
                    let q = Region::new(&lo, &hi);
                    let expect = truth.region_sum(&q);
                    for e in engines.iter() {
                        assert_eq!(
                            e.range_sum(&q), expect,
                            "{} on {:?}", e.name(), q
                        );
                    }
                }
            }
        }

        // Terminal check: every prefix and every cell agrees.
        let corner: Vec<usize> = dims.iter().map(|&n| n - 1).collect();
        let expect = truth.prefix_sum(&corner);
        for e in engines.iter() {
            assert_eq!(e.prefix_sum(&corner), expect, "{}", e.name());
            let p = scale(&[0.5, 0.5, 0.5, 0.5], &dims);
            assert_eq!(e.cell(&p), truth.get(&p), "{} cell", e.name());
        }
    }
}
