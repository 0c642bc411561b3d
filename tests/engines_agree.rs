//! Property tests: every range-sum method in the paper answers every
//! query identically to the oracle, under arbitrary interleavings of
//! updates, sets, queries and cell reads, for d ∈ 1..=4.

use ddc_check::{ddc_adapter, engine_roster, run_trace_on};
use ddc_core::DdcConfig;
use ddc_tests::{fixed_shape_trace, for_cases, DdcRng};
use ddc_workload::{BoxState, CheckOp};

/// A random cube shape with at most ~4k cells to keep PS updates fast.
fn gen_shape(rng: &mut DdcRng) -> Vec<usize> {
    match rng.gen_range(0usize..4) {
        0 => vec![rng.gen_range(1usize..=48)],
        1 => (0..2).map(|_| rng.gen_range(1usize..=16)).collect(),
        2 => (0..3).map(|_| rng.gen_range(1usize..=8)).collect(),
        _ => (0..4).map(|_| rng.gen_range(1usize..=5)).collect(),
    }
}

for_cases! {
    fn all_engines_match_ground_truth(rng, cases = 48) {
        let dims = gen_shape(rng);
        let mut trace = fixed_shape_trace(&dims, rng.gen_range(1usize..24), rng);
        // Closing reads: the middle cell here, the whole box (the prefix
        // at the far corner) in `run_trace_on` itself.
        let middle = dims.iter().map(|&n| (n / 2) as i64).collect();
        trace.ops.push(CheckOp::Cell { point: middle });

        let init = BoxState::initial(&trace);
        let mut engines = engine_roster(&init);
        // The elided trees the roster does not carry.
        for (label, config) in [
            ("ddc-elide2", DdcConfig::dynamic().with_elision(2)),
            ("ddc-sparse-elide1", DdcConfig::sparse().with_elision(1)),
            ("ddc-basic-elide1", DdcConfig::basic().with_elision(1)),
        ] {
            engines.push(Box::new(ddc_adapter(label, &init, config)));
        }
        if let Err(divergence) = run_trace_on(&trace, engines) {
            panic!("{divergence}\n{}", trace.to_text());
        }
    }
}

/// The roster on a 64³ box, where the default `ddc-dynamic` keeps the
/// row-sum groups of every level as row-cumulative runs (side 32, 16
/// and 8): the fuzzed shapes above are one or two leaf blocks a side.
#[test]
fn all_engines_agree_on_a_64_cube() {
    let mut rng = DdcRng::seed_from_u64(0x64_0003);
    let trace = fixed_shape_trace(&[64, 64, 64], 120, &mut rng);
    let init = BoxState::initial(&trace);
    if let Err(divergence) = run_trace_on(&trace, engine_roster(&init)) {
        panic!("{divergence}\n{}", trace.to_text());
    }
}
