//! Orchestrator: runs every paper-reproduction binary in sequence,
//! mirroring the DESIGN.md experiment index — one command to regenerate
//! everything EXPERIMENTS.md reports.
//!
//! ```text
//! cargo build --release -p ddc-bench --bins
//! cargo run --release -p ddc-bench --bin experiments
//! ```
//!
//! Each experiment is a sibling binary in this binary's own directory,
//! run as a child process that inherits stdout and stderr under a
//! banner. A binary that fails or cannot start is reported on stderr and
//! the run goes on to the next one; at the end the orchestrator prints
//! the list of failures and exits 1, or says that all completed. Every
//! experiment prints counts, not timings, so two runs print the same.

use std::process::Command;

const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "table1",
        "Table 1 / Figure 1 — update cost functions, d = 8",
    ),
    ("table2", "Table 2 — overlay storage vs covered region"),
    ("update_cost", "Table 1 empirical — measured update costs"),
    ("basic_vs_dynamic", "§3.3 — Basic O(n^{d-1}) vs Dynamic"),
    ("polylog_scaling", "§4.3 Theorem 2 — O(log^d n) scaling"),
    ("space_opt", "§4.4 — level elision sweep"),
    ("rps_blocks", "[GAES99] — RPS block-size ablation"),
    ("selectivity", "§2/Figure 4 — query cost vs selectivity"),
    (
        "growth",
        "§5 — growth in any direction + forced materialization",
    ),
    ("clustered_storage", "§5 — sparse and clustered storage"),
    (
        "fenwick_nd",
        "novelty ablation — DDC vs d-dimensional Fenwick tree",
    ),
];

fn main() {
    // Re-exec the sibling binaries from the same target directory.
    let this = std::env::current_exe().expect("current exe path");
    let dir = this.parent().expect("target dir").to_path_buf();
    let mut failed = Vec::new();
    for (bin, title) in EXPERIMENTS {
        println!("\n{}\n=== {title} ===\n{}", "=".repeat(72), "=".repeat(72));
        let status = Command::new(dir.join(bin)).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("experiment '{bin}' exited with {s}");
                failed.push(*bin);
            }
            Err(e) => {
                eprintln!(
                    "experiment '{bin}' could not start ({e}); build it with\n  \
                     cargo build --release -p ddc-bench --bins"
                );
                failed.push(*bin);
            }
        }
    }
    println!("\n{}", "=".repeat(72));
    if failed.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("failed: {failed:?}");
        std::process::exit(1);
    }
}
