//! Trace execution: replay a [`CheckTrace`] against the oracle and every
//! engine in lockstep, reporting the first divergence — and the seeded
//! fuzz loop that generates, runs, and shrinks traces.

use std::fmt;

use ddc_core::obs;
use ddc_core::wal::IoError;
use ddc_workload::{shrink_trace, BoxState, CheckOp, CheckTrace, CheckTraceConfig, DdcRng};

use crate::adapters::{engine_roster, CheckEngine};
use crate::oracle::Oracle;

/// One engine disagreeing with the oracle.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Name of the diverging engine.
    pub engine: String,
    /// Index of the operation that exposed it.
    pub op_index: usize,
    /// The operation itself.
    pub op: CheckOp,
    /// What the oracle answered.
    pub expected: i64,
    /// What the engine answered.
    pub actual: i64,
    /// Which answer diverged (`range_sum`, `cell`, `set-old`,
    /// `final-total`), or which op the engine could not carry out
    /// (`save/load: …`, `crash-recovery: …`, `durable: …` for a mutation
    /// its log refused).
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine '{}' diverged at op {} ({:?}): {} expected {}, got {}",
            self.engine, self.op_index, self.op, self.what, self.expected, self.actual
        )
    }
}

/// Tallies from a clean trace run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Operations executed.
    pub ops: usize,
    /// Answers compared against the oracle (per engine).
    pub comparisons: usize,
    /// Wrapping sum of every compared answer — a replay checksum.
    pub checksum: i64,
}

/// Replays `trace` against the full [`engine_roster`].
pub fn run_trace(trace: &CheckTrace) -> Result<RunStats, Box<Divergence>> {
    run_trace_on(trace, engine_roster(&BoxState::initial(trace)))
}

/// Replays `trace` against a caller-supplied set of engines (used to
/// inject deliberately buggy ones in the harness's own tests).
pub fn run_trace_on(
    trace: &CheckTrace,
    mut engines: Vec<Box<dyn CheckEngine>>,
) -> Result<RunStats, Box<Divergence>> {
    let mut oracle = Oracle::new(trace.dims.len());
    let mut state = BoxState::initial(trace);
    let mut stats = RunStats::default();

    // An answer that differs from the oracle's, or (`expected` ==
    // `actual`) an op the engine could not carry out at all.
    let diverged = |engine: &dyn CheckEngine,
                    i: usize,
                    op: &CheckOp,
                    what: String,
                    expected: i64,
                    actual: i64| {
        Box::new(Divergence {
            engine: engine.name().to_string(),
            op_index: i,
            op: op.clone(),
            expected,
            actual,
            what,
        })
    };
    let check = |e: &dyn CheckEngine, i, op: &CheckOp, what: &str, expected, actual| {
        if expected == actual {
            Ok(())
        } else {
            Err(diverged(e, i, op, what.to_string(), expected, actual))
        }
    };

    for (i, op) in trace.ops.iter().enumerate() {
        stats.ops += 1;
        // Only a logged engine can refuse a mutation: a typed error of
        // its durable path, reported instead of unwound through.
        let refused =
            |e: &dyn CheckEngine, why: IoError| diverged(e, i, op, format!("durable: {why}"), 0, 0);
        match op {
            CheckOp::Update { point, delta } => {
                oracle.add(point, *delta);
                for e in engines.iter_mut() {
                    e.add(point, *delta).map_err(|why| refused(&**e, why))?;
                }
            }
            CheckOp::Set { point, value } => {
                let expected_old = oracle.set(point, *value);
                for e in engines.iter_mut() {
                    let actual_old = e.set(point, *value).map_err(|why| refused(&**e, why))?;
                    stats.comparisons += 1;
                    stats.checksum = stats.checksum.wrapping_add(actual_old);
                    check(&**e, i, op, "set-old", expected_old, actual_old)?;
                }
            }
            CheckOp::Query { lo, hi } => {
                let expected = oracle.range_sum(lo, hi);
                for e in engines.iter() {
                    let actual = e.range_sum(lo, hi);
                    stats.comparisons += 1;
                    stats.checksum = stats.checksum.wrapping_add(actual);
                    check(&**e, i, op, "range_sum", expected, actual)?;
                }
            }
            CheckOp::Cell { point } => {
                let expected = oracle.cell(point);
                for e in engines.iter() {
                    let actual = e.cell(point);
                    stats.comparisons += 1;
                    stats.checksum = stats.checksum.wrapping_add(actual);
                    check(&**e, i, op, "cell", expected, actual)?;
                }
            }
            CheckOp::Grow { axis, amount, low } => {
                state.grow(*axis, *amount, *low);
                for e in engines.iter_mut() {
                    e.grow(&state, *axis, *amount, *low)
                        .map_err(|why| refused(&**e, why))?;
                }
            }
            CheckOp::SaveLoad => {
                for e in engines.iter_mut() {
                    e.save_load()
                        .map_err(|msg| diverged(&**e, i, op, format!("save/load: {msg}"), 0, 0))?;
                }
            }
            CheckOp::Flush => {
                for e in engines.iter_mut() {
                    e.flush();
                }
            }
            CheckOp::Crash => {
                for e in engines.iter_mut() {
                    e.crash().map_err(|msg| {
                        diverged(&**e, i, op, format!("crash-recovery: {msg}"), 0, 0)
                    })?;
                }
            }
        }
    }

    // Closing invariant: every engine agrees on the whole-box total.
    let lo = state.origin.clone();
    let hi: Vec<i64> = state
        .origin
        .iter()
        .zip(&state.dims)
        .map(|(&o, &n)| o + n as i64 - 1)
        .collect();
    let expected = oracle.range_sum(&lo, &hi);
    let closing = CheckOp::Query {
        lo: lo.clone(),
        hi: hi.clone(),
    };
    for e in engines.iter() {
        let actual = e.range_sum(&lo, &hi);
        stats.comparisons += 1;
        check(
            &**e,
            trace.ops.len(),
            &closing,
            "final-total",
            expected,
            actual,
        )?;
    }
    Ok(stats)
}

/// One fuzz case that diverged, with its shrunk reproduction.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Case number within the run.
    pub case: usize,
    /// Seed that generated the failing trace.
    pub seed: u64,
    /// Divergence re-observed on the shrunk trace.
    pub divergence: Divergence,
    /// Trace as generated.
    pub original: CheckTrace,
    /// Minimized reproduction.
    pub shrunk: CheckTrace,
    /// Rendered observability spans from replaying the shrunk trace with
    /// tracing forced on — the timing context of the failing ops.
    pub trace_dump: String,
}

/// Summary of a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Cases executed (stops early on the first failure).
    pub cases: usize,
    /// Total operations replayed across all cases.
    pub ops_run: usize,
    /// Answers compared across all cases and engines.
    pub comparisons: usize,
    /// First failure, if any, already shrunk.
    pub failure: Option<FuzzFailure>,
}

/// Runs `cases` seeded differential cases over the full roster,
/// shrinking the first divergence found.
pub fn fuzz(seed: u64, cases: usize, config: CheckTraceConfig) -> FuzzOutcome {
    fuzz_with(seed, cases, config, engine_roster)
}

/// [`fuzz`] with a custom roster factory (e.g. one that includes an
/// intentionally buggy engine).
pub fn fuzz_with(
    seed: u64,
    cases: usize,
    config: CheckTraceConfig,
    roster: impl Fn(&BoxState) -> Vec<Box<dyn CheckEngine>>,
) -> FuzzOutcome {
    let mut outcome = FuzzOutcome {
        cases: 0,
        ops_run: 0,
        comparisons: 0,
        failure: None,
    };
    for case in 0..cases {
        // Distinct, reproducible stream per case.
        let case_seed = seed ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = DdcRng::seed_from_u64(case_seed);
        let d = 1 + case % 3;
        let trace = CheckTrace::generate(d, config, &mut rng);
        outcome.cases += 1;
        match run_trace_on(&trace, roster(&BoxState::initial(&trace))) {
            Ok(stats) => {
                outcome.ops_run += stats.ops;
                outcome.comparisons += stats.comparisons;
            }
            Err(divergence) => {
                let fails =
                    |t: &CheckTrace| run_trace_on(t, roster(&BoxState::initial(t))).is_err();
                let shrunk = shrink_trace(&trace, fails);
                // TraceDump hook: the confirming replay of the shrunk
                // repro runs with span tracing forced on, so the failure
                // carries the observability context of exactly the ops
                // that diverge (no `DDC_TRACE` needed).
                let was_tracing = obs::set_trace_enabled(true);
                obs::clear_trace();
                let shrunk_divergence = run_trace_on(&shrunk, roster(&BoxState::initial(&shrunk)))
                    .err()
                    .map(|b| *b)
                    .unwrap_or(*divergence);
                let trace_dump = obs::trace_dump();
                obs::set_trace_enabled(was_tracing);
                outcome.ops_run += shrunk.ops.len();
                outcome.failure = Some(FuzzFailure {
                    case,
                    seed: case_seed,
                    divergence: shrunk_divergence,
                    original: trace,
                    shrunk,
                    trace_dump,
                });
                return outcome;
            }
        }
    }
    outcome
}
