//! CI perf-smoke gate: compare a fresh `BENCH_<name>.json` against the
//! committed baseline in `bench/baselines/`.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin bench_gate -- BASELINE CURRENT \
//!     [--tolerance X] [--latency-tolerance Y]
//! ```
//!
//! Deterministic `count` metrics must match the baseline exactly;
//! machine-dependent `throughput` metrics must stay above
//! `baseline / tolerance` (default 3× — generous on purpose: the gate
//! exists to catch order-of-magnitude regressions and schema drift, not
//! to flake on shared CI runners). `latency_ns` metrics carrying a
//! per-metric `tol` (schema v2) are gated against `baseline × tol`;
//! the rest are printed but not gated unless `--latency-tolerance Y` is
//! given, in which case each must stay below `baseline × Y` (the
//! serve-latency p99 gate). `ratio` metrics — in-run quotients such as
//! ddc ÷ fenwick-nd, which travel across machines — fail above
//! `baseline × tol`, so tightening the committed value ratchets the
//! gate. A `throughput` metric's own `tol` overrides the global
//! divisor. Any metric present on one side only, a `tol` mismatch, or a
//! schema-version/bench-name mismatch, fails the gate.

use ddc_bench::json::{gate_with_latency, BenchReport, SCHEMA_VERSION};

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn flag_value(args: &[String], name: &str) -> Result<Option<f64>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{name} needs a value"))?
            .parse::<f64>()
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let value_flags = ["--tolerance", "--latency-tolerance"];
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || !value_flags.contains(&args[*i - 1].as_str()))
        })
        .map(|(_, a)| a)
        .collect();
    let [baseline_path, current_path] = positional.as_slice() else {
        return Err(
            "usage: bench_gate BASELINE CURRENT [--tolerance X] [--latency-tolerance Y]"
                .to_string(),
        );
    };
    let tolerance = flag_value(args, "--tolerance")?.unwrap_or(3.0);
    let latency_tolerance = flag_value(args, "--latency-tolerance")?;
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    // On failure, name the exact baseline file and schema version the
    // comparison ran against — "regenerate which file?" should never
    // require reading the CI step definition.
    let detail =
        gate_with_latency(&baseline, &current, tolerance, latency_tolerance).map_err(|e| {
            format!(
                "{e}\ncompared against baseline {baseline_path} \
                 (bench {:?}, schema v{SCHEMA_VERSION}); \
                 current run: {current_path}",
                baseline.bench
            )
        })?;
    Ok(format!(
        "{detail}\nperf-smoke ok: {} metrics vs {baseline_path} (schema v{SCHEMA_VERSION}, \
         tolerance {tolerance}x)",
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
