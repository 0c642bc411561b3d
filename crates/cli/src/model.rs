//! `ddc model` — run the deterministic concurrency model checker over
//! the core's shard/WAL scenarios (built with `--features model`).
//!
//! ```text
//! ddc model                      # full sweep: green scenarios + buggy fixtures
//! ddc model --iterations 5000    # cap DFS iterations per scenario
//! ddc model --preemptions 3      # raise the preemption bound
//! ddc model --skip-buggy         # only the green ported models
//! ```
//!
//! Exit is non-zero (an `Err`) if any ported model fails or a seeded
//! buggy fixture goes undetected.

use std::fmt::Write as _;
use std::time::Instant;

use ddc_core::models;
use ddc_model::CheckerConfig;

use crate::flags::Flags;

/// Entry point for `ddc model`.
pub fn run(args: &[String]) -> Result<String, String> {
    // The CLI sweep digs one preemption deeper than the library
    // default: ~27k interleavings in seconds, still exhaustive on two
    // of the three ported models.
    let mut cfg = CheckerConfig {
        preemption_bound: 3,
        ..CheckerConfig::default()
    };
    let flags = Flags::parse(args, &["--iterations", "--preemptions"], &["--skip-buggy"])?;
    if let Some(n) = flags.num("--iterations")? {
        cfg.max_iterations = n;
    }
    if let Some(n) = flags.num("--preemptions")? {
        cfg.preemption_bound = n;
    }
    let skip_buggy = flags.has("--skip-buggy");

    let mut out = String::new();
    let mut failed = false;
    let mut total_iterations = 0u64;
    let started = Instant::now();

    let _ = writeln!(
        out,
        "model checker: preemption bound {}, iteration cap {} per scenario",
        cfg.preemption_bound, cfg.max_iterations
    );
    let _ = writeln!(out, "\nported models (must pass):");
    for (name, scenario) in models::GREEN {
        let t = Instant::now();
        let report = scenario(cfg.clone());
        total_iterations += report.iterations;
        let status = if report.passed() {
            if report.capped {
                "pass (capped)"
            } else {
                "pass (exhausted)"
            }
        } else {
            failed = true;
            "FAIL"
        };
        let _ = writeln!(
            out,
            "  {name:<28} {status:<16} {:>6} interleavings, {:>6} distinct states, {:>5} pruned, {:?}",
            report.iterations,
            report.distinct_states,
            report.pruned,
            t.elapsed()
        );
        if let Some(failure) = &report.failure {
            let _ = writeln!(out, "{failure}");
        }
    }

    if !skip_buggy {
        let _ = writeln!(out, "\nseeded buggy fixtures (must be detected):");
        for (name, scenario) in models::BUGGY {
            let t = Instant::now();
            let report = scenario(cfg.clone());
            total_iterations += report.iterations;
            match &report.failure {
                Some(failure) => {
                    let _ = writeln!(
                        out,
                        "  {name:<28} detected ({:?}) after {} interleavings in {:?}, minimal trace {} events / {} preemptions",
                        failure.kind,
                        failure.found_after,
                        t.elapsed(),
                        failure.trace.len(),
                        failure.preemptions,
                    );
                    let _ = writeln!(out, "{failure}");
                }
                None => {
                    failed = true;
                    let _ = writeln!(
                        out,
                        "  {name:<28} NOT DETECTED after {} interleavings",
                        report.iterations
                    );
                }
            }
        }
    }

    let _ = writeln!(
        out,
        "\ntotal: {total_iterations} interleavings in {:?}",
        started.elapsed()
    );
    if failed {
        Err(format!("model checking failed\n{out}"))
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_refuses_a_misspelt_flag() {
        let args = ["--iterations", "10", "--skip-bugy"].map(String::from);
        let err = run(&args).expect_err("unknown argument");
        assert!(err.starts_with("unknown argument --skip-bugy;"), "{err}");
    }
}
