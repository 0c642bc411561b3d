//! **Table 1, empirical counterpart** (experiment T1e in DESIGN.md):
//! measured stored-values touched per update for every method, at sizes a
//! laptop can hold. The paper's Table 1 is analytic; this binary verifies
//! the *shape* — who wins and by how much — on the real structures.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin update_cost
//! cargo run --release -p ddc-bench --bin update_cost -- --json
//! ```
//!
//! `--json` additionally writes `BENCH_update_cost.json` (schema in
//! `ddc_bench::json`) into the current directory — op counts are seeded
//! and deterministic, so the report is byte-identical run to run and
//! the CI perf-smoke gate compares it exactly against the committed
//! copy at the repo root.

use ddc_bench::json::{BenchReport, MetricKind};
use ddc_bench::{measure_engine, measure_worst_case_update, print_row};
use ddc_olap::EngineKind;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut report = BenchReport::new("update_cost");
    for (d, sizes) in [(2usize, vec![16usize, 32, 64, 128]), (3, vec![8, 16, 32])] {
        println!("\n== d = {d}: mean values touched per update (uniform updates) ==\n");
        let widths = [6usize, 12, 12, 12, 12, 12];
        print_row(
            &[
                "n".into(),
                "naive".into(),
                "prefix-sum".into(),
                "rel-prefix".into(),
                "basic-ddc".into(),
                "dyn-ddc".into(),
            ],
            &widths,
        );
        for &n in &sizes {
            let mut cells = vec![format!("{n}")];
            for kind in EngineKind::ALL {
                let m = measure_engine(kind, d, n, 64, 0);
                cells.push(format!("{:.1}", m.update_touched));
                report.push(
                    format!("update_touched.d{d}.n{n}.{}", kind.label()),
                    MetricKind::Count,
                    m.update_touched,
                );
            }
            print_row(&cells, &widths);
        }

        println!("\n== d = {d}: worst-case update (cell A[0,…,0], Figure 5 corner) ==\n");
        print_row(
            &[
                "n".into(),
                "naive".into(),
                "prefix-sum".into(),
                "rel-prefix".into(),
                "basic-ddc".into(),
                "dyn-ddc".into(),
            ],
            &widths,
        );
        for &n in &sizes {
            let mut cells = vec![format!("{n}")];
            for kind in EngineKind::ALL {
                let worst = measure_worst_case_update(kind, d, n);
                cells.push(format!("{worst}"));
                report.push(
                    format!("worst_case_update.d{d}.n{n}.{}", kind.label()),
                    MetricKind::Count,
                    worst as f64,
                );
            }
            print_row(&cells, &widths);
        }
    }
    println!(
        "\nExpected shape (paper Table 1): naive O(1) < DDC polylog < Basic \
         O(n^(d-1))\n≈ RPS O(n^(d/2)) [d=2] < PS O(n^d); gaps widen with n."
    );
    if json {
        let path = report
            .write(std::path::Path::new("."))
            .expect("write BENCH_update_cost.json");
        println!("\nwrote {}", path.display());
    }
}
