//! Acceptance tests for the `ddc-check` differential harness (the
//! tentpole of this change): a fixed-seed fuzz run of ≥10k mixed ops
//! over every engine with zero divergences, proof that an intentionally
//! buggy engine is caught and shrunk to a tiny replayable repro, and a
//! byte-offset fault-injection sweep over the checkpoint.

use ddc_check::{
    ddc_adapter, fuzz, fuzz_with, roster_with_bug, run_trace, run_trace_on, snapshot_sweep,
    CheckEngine,
};
use ddc_core::{DdcConfig, GrowableCube};
use ddc_tests::for_cases;
use ddc_workload::{BoxState, CheckTrace, CheckTraceConfig};

/// The headline guarantee: with a fixed seed, ≥10,000 mixed operations
/// (updates, sets, range queries, cell reads, growth in any direction,
/// save/load round-trips, kills) replay across the entire
/// engine roster with every answer equal to the oracle's.
#[test]
fn fixed_seed_fuzz_runs_ten_thousand_ops_with_zero_divergences() {
    let outcome = fuzz(
        0xDDC_C4EC,
        60,
        CheckTraceConfig {
            ops: 180,
            max_cells: 768,
        },
    );
    assert!(
        outcome.failure.is_none(),
        "divergence: {}\nshrunk repro:\n{}",
        outcome.failure.as_ref().unwrap().divergence,
        outcome.failure.as_ref().unwrap().shrunk.to_text()
    );
    assert!(
        outcome.ops_run >= 10_000,
        "only {} ops replayed",
        outcome.ops_run
    );
    assert!(outcome.comparisons >= 10_000);
}

/// The harness is not vacuous: an engine with a deliberate off-by-one
/// in its range query (last slab along axis 0 dropped) is caught, the
/// repro shrinks to ≤10 ops, and the shrunk trace replays to the same
/// divergence through the CLI's replay path.
#[test]
fn injected_off_by_one_is_caught_shrunk_and_replayable() {
    let outcome = fuzz_with(
        0xB00,
        20,
        CheckTraceConfig {
            ops: 150,
            max_cells: 512,
        },
        roster_with_bug,
    );
    let failure = outcome.failure.expect("buggy engine must be caught");
    assert_eq!(failure.divergence.engine, "off-by-one (intentional)");
    // The TraceDump hook replayed the shrunk repro with tracing forced
    // on: the failure carries engine spans from the observability layer.
    assert!(
        failure.trace_dump.contains("engine."),
        "trace dump missing engine spans:\n{}",
        failure.trace_dump
    );
    assert!(
        failure.shrunk.ops.len() <= 10,
        "repro did not shrink: {} ops\n{}",
        failure.shrunk.ops.len(),
        failure.shrunk.to_text()
    );

    // The shrunk trace is self-contained: it parses back from its text
    // form and still reproduces against the buggy roster…
    let reparsed = CheckTrace::parse(&failure.shrunk.to_text()).unwrap();
    assert!(
        ddc_check::run_trace_on(
            &reparsed,
            roster_with_bug(&ddc_workload::BoxState::initial(&reparsed))
        )
        .is_err(),
        "shrunk repro lost the failure"
    );
    // …while the healthy roster replays it clean (the bug is in the
    // engine, not the trace).
    assert!(run_trace(&reparsed).is_ok());

    // End to end through `ddc check replay`: write the repro, replay it
    // via the CLI entry point, and expect a clean pass (healthy roster)
    // plus an error report when pointed at a missing file.
    let path = std::env::temp_dir().join("ddc_check_harness_repro.trace");
    std::fs::write(&path, failure.shrunk.to_text()).unwrap();
    let args = vec!["replay".to_string(), path.display().to_string()];
    let report = ddc_cli::check::run(&args).expect("healthy roster replays clean");
    assert!(report.contains("0 divergences"), "{report}");
    std::fs::remove_file(&path).ok();
    assert!(ddc_cli::check::run(&["replay".to_string(), path.display().to_string()]).is_err());
}

/// Committed seeded traces (satellite of the arena rewrite): three
/// checked-in op streams — one per dimensionality — replay with zero
/// divergences across the full roster, which includes both base stores
/// and both ends of §4.4 (`ddc-dynamic`, `ddc-sparse`, `ddc-elide0`).
/// The arena-only roster — explicit `h`, so these boxes of a few cells
/// a side are trees and not one leaf block — additionally reproduces
/// its pinned replay checksums exactly, a determinism anchor for the
/// flat-arena hot path:
/// any change to descent order, box materialization, or free-list reuse
/// that alters an answer shows up here as a checksum drift with the
/// trace file as the ready-made repro.
#[test]
fn committed_traces_replay_clean_and_pin_arena_checksums() {
    let arena_roster = |init: &BoxState| -> Vec<Box<dyn CheckEngine>> {
        vec![
            Box::new(ddc_adapter(
                "ddc-elide0",
                init,
                DdcConfig::dynamic().with_elision(0),
            )),
            Box::new(ddc_adapter(
                "ddc-sparse",
                init,
                DdcConfig::sparse().with_elision(0),
            )),
            Box::new(ddc_adapter(
                "ddc-elide1",
                init,
                DdcConfig::dynamic().with_elision(1),
            )),
        ]
    };
    // (file, ops, arena comparisons, arena checksum)
    let pinned: [(&str, &str, usize, usize, i64); 3] = [
        (
            "seed_d1",
            include_str!("traces/seed_d1.trace"),
            114,
            147,
            2013,
        ),
        (
            "seed_d2",
            include_str!("traces/seed_d2.trace"),
            146,
            168,
            -6099,
        ),
        (
            "seed_d3",
            include_str!("traces/seed_d3.trace"),
            127,
            162,
            -2769,
        ),
    ];
    for (name, text, ops, comparisons, checksum) in pinned {
        let trace = CheckTrace::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trace.ops.len(), ops, "{name} op count");
        let full =
            run_trace(&trace).unwrap_or_else(|d| panic!("{name} diverged on the full roster: {d}"));
        assert_eq!(full.ops, ops, "{name} full-roster ops replayed");
        let arena = run_trace_on(&trace, arena_roster(&BoxState::initial(&trace)))
            .unwrap_or_else(|d| panic!("{name} diverged on the arena roster: {d}"));
        assert_eq!(arena.comparisons, comparisons, "{name} arena comparisons");
        assert_eq!(arena.checksum, checksum, "{name} arena replay checksum");
    }
}

/// The CLI fuzz entry point reports a clean run (exercises flag
/// parsing, the default output path logic, and the report format).
#[test]
fn cli_check_run_reports_clean() {
    let args: Vec<String> = ["run", "--seed", "11", "--cases", "4", "--ops", "80"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let report = ddc_cli::check::run(&args).unwrap();
    assert!(report.contains("0 divergences"), "{report}");
}

for_cases! {
    /// Fault-injection sweep over the checkpoint: for randomized traces,
    /// a write torn at *every* byte offset of the snapshot, the snapshot
    /// cut at every offset, and a failed or bit-flipped read of it at
    /// boot must each end in a refused checkpoint, a refused boot or an
    /// exact recovery — no panics, no silently accepted corruption.
    fn persistence_fault_sweep_is_clean(rng, cases = 6) {
        let d = rng.gen_range(1usize..=3);
        let config = CheckTraceConfig {
            ops: rng.gen_range(10usize..40),
            max_cells: 512,
        };
        let trace = CheckTrace::generate(d, config, rng);
        let offsets = snapshot_sweep(&trace, DdcConfig::dynamic()).unwrap();
        assert!(offsets > 0);
    }

    /// Growth × persistence (satellite): grow a cube in two different
    /// directions mid-stream, save, load, and differential-check the
    /// restored cube cell by cell against the oracle.
    fn growth_then_snapshot_roundtrips_against_oracle(rng, cases = 12) {
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
        let mut oracle = ddc_check::Oracle::new(2);
        // Phase 1: populate a small box around the origin.
        for _ in 0..rng.gen_range(5usize..25) {
            let p = [rng.gen_range(0i64..4), rng.gen_range(0i64..4)];
            let v = rng.gen_range(-50i64..=50);
            cube.add(&p, v);
            oracle.add(&p, v);
        }
        // Phase 2: grow low on axis 0 and high on axis 1 by touching
        // cells beyond the current extent (§5 growth in any direction).
        for _ in 0..rng.gen_range(5usize..25) {
            let p = [rng.gen_range(-6i64..0), rng.gen_range(4i64..10)];
            let v = rng.gen_range(-50i64..=50);
            cube.add(&p, v);
            oracle.add(&p, v);
        }
        let mut buf = Vec::new();
        cube.save(&mut buf).unwrap();
        let restored = GrowableCube::<i64>::load(&mut buf.as_slice(), DdcConfig::sparse()).unwrap();
        for (p, v) in oracle.entries() {
            assert_eq!(restored.cell(&p), v, "cell {p:?} after grow+save+load");
        }
        assert_eq!(restored.total(), oracle.total());
        assert_eq!(
            restored.range_sum(&[-6, 0], &[3, 9]),
            oracle.range_sum(&[-6, 0], &[3, 9])
        );
    }
}
