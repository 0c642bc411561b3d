//! CI perf-smoke gate: compare a fresh `BENCH_<name>.json` against the
//! one committed at the repo root.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin bench_gate -- BASELINE CURRENT
//! ```
//!
//! Deterministic `count` metrics must match the baseline exactly.
//! `ratio` metrics — in-run quotients such as ddc ÷ fenwick-nd, which
//! travel across machines — fail above `baseline × tol`, so tightening
//! the committed value ratchets the gate. `latency_ns` metrics are
//! printed, never gated: wall-clock claims are `benchmark/`'s. Any
//! metric present on one side only, a kind or `tol` mismatch, or a
//! schema-version/bench-name mismatch, fails the gate.

use ddc_bench::json::{gate, BenchReport, SCHEMA_VERSION};

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let [baseline_path, current_path] = args else {
        return Err("usage: bench_gate BASELINE CURRENT".to_string());
    };
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    // On failure, name the exact baseline file and schema version the
    // comparison ran against — "regenerate which file?" should never
    // require reading the CI step definition.
    let detail = gate(&baseline, &current).map_err(|e| {
        format!(
            "{e}\ncompared against baseline {baseline_path} \
             (bench {:?}, schema v{SCHEMA_VERSION}); \
             current run: {current_path}",
            baseline.bench
        )
    })?;
    Ok(format!(
        "{detail}\nperf-smoke ok: {} metrics vs {baseline_path} (schema v{SCHEMA_VERSION})",
        baseline.metrics.len()
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(1);
        }
    }
}
