//! **Theorem 2 reproduction (§4.3)**: Dynamic Data Cube queries and
//! updates cost `O(log^d n)`. This binary doubles `n` and reports measured
//! operation counts next to `log2^d n`; the ratio column should stay
//! bounded (no polynomial growth).
//!
//! ```text
//! cargo run --release -p ddc-bench --bin polylog_scaling
//! ```

use ddc_bench::{measure_prefix_query, measure_worst_case_update, print_row};
use ddc_olap::EngineKind;

fn main() {
    for (d, sizes) in [
        (2usize, vec![16usize, 32, 64, 128, 256, 512]),
        (3, vec![8, 16, 32, 64]),
        (4, vec![4, 8, 16]),
    ] {
        println!("\n== d = {d}: Dynamic DDC cost vs log2^d n ==\n");
        let widths = [6usize, 12, 12, 12, 14, 14];
        print_row(
            &[
                "n".into(),
                "upd ops".into(),
                "qry reads".into(),
                "log2^d n".into(),
                "upd/log^d".into(),
                "qry/log^d".into(),
            ],
            &widths,
        );
        for &n in &sizes {
            let upd = measure_worst_case_update(EngineKind::DynamicDdc, d, n);
            let qry = measure_prefix_query(EngineKind::DynamicDdc, d, n);
            let logd = (n as f64).log2().powi(d as i32);
            print_row(
                &[
                    format!("{n}"),
                    format!("{upd}"),
                    format!("{qry}"),
                    format!("{logd:.0}"),
                    format!("{:.2}", upd as f64 / logd),
                    format!("{:.2}", qry as f64 / logd),
                ],
                &widths,
            );
        }
    }
    println!(
        "\nBounded ratio columns confirm Theorem 2: both operations scale\n\
         with log^d n, not with any power of n."
    );
}
