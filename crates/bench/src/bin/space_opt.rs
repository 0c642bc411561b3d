//! **§4.4 reproduction**: the level-elision space optimization. Sweeping
//! `h` shows storage shrinking toward `|A|` while queries pay at most
//! `2^{(h+1)d}` extra leaf-cell additions. The row whose leaf side is the
//! one `DdcConfig::dynamic()` derives for this `d` is starred; why that
//! row and not the smallest one is a question of time, not counts
//! (EXPERIMENTS "§4.4, timed").
//!
//! ```text
//! cargo run --release -p ddc-bench --bin space_opt
//! ```

use ddc_array::{RangeSumEngine, Shape};
use ddc_bench::print_row;
use ddc_core::{DdcConfig, DdcEngine};
use ddc_workload::{rng, uniform_array, uniform_regions};

fn main() {
    let d = 2usize;
    let n = 256usize;
    let shape = Shape::cube(d, n);
    let mut r = rng(1234);
    let base = uniform_array(&shape, -20, 20, &mut r);
    let raw_bytes = base.heap_bytes();
    let queries = uniform_regions(&shape, 64, &mut r);

    println!("§4.4 space optimization sweep: d={d}, n={n}, |A| = {raw_bytes} bytes\n");
    let widths = [4usize, 14, 12, 14, 16, 14];
    print_row(
        &[
            "h".into(),
            "heap bytes".into(),
            "vs |A|".into(),
            "qry reads".into(),
            "upd ops".into(),
            "2^((h+1)d)".into(),
        ],
        &widths,
    );

    let derived_side = DdcConfig::dynamic().leaf_block_side(d);
    for h in 0..=4usize {
        let config = DdcConfig::dynamic().with_elision(h);
        let star = if config.leaf_block_side(d) == derived_side {
            "*"
        } else {
            ""
        };
        let mut e = DdcEngine::from_array_with(&base, config);
        // Mean query cost over the workload.
        e.reset_ops();
        let mut sink = 0i64;
        for q in &queries {
            sink = sink.wrapping_add(e.range_sum(q));
        }
        std::hint::black_box(sink);
        let qreads = e.ops().reads as f64 / queries.len() as f64;
        // Worst-case-ish update cost.
        e.reset_ops();
        e.apply_delta(&[0, 0], 1);
        let upd = e.ops().touched();
        let bytes = e.heap_bytes();
        print_row(
            &[
                format!("{h}{star}"),
                format!("{bytes}"),
                format!("{:.2}x", bytes as f64 / raw_bytes as f64),
                format!("{qreads:.1}"),
                format!("{upd}"),
                format!("{}", 1u64 << ((h + 1) * d)),
            ],
            &widths,
        );
    }
    println!(
        "\nStorage falls toward |A| as h grows; query reads rise by at most\n\
         the final column (the worst-case leaf-cell additions of §4.4).\n\
         * = the default: DdcConfig::dynamic() derives leaf side {derived_side} at d = {d}."
    );

    // The two base stores on this dense cube, at two elision levels:
    // blocked faces inline in the level slab versus lazy
    // one-dimensional trees in the level's forest.
    println!("\nBase-store memory (same cube):\n");
    let widths = [6usize, 14, 14];
    print_row(&["h".into(), "blocked".into(), "lazy".into()], &widths);
    for h in [0usize, 2] {
        let mut cells = vec![format!("{h}")];
        for config in [DdcConfig::dynamic(), DdcConfig::sparse()] {
            let e = DdcEngine::from_array_with(&base, config.with_elision(h));
            cells.push(format!("{} KiB", e.heap_bytes() / 1024));
        }
        print_row(&cells, &widths);
    }
    println!(
        "\nDense data is the blocked store's side of the trade; the lazy\n\
         store earns its place on wide, sparsely populated spaces\n\
         (clustered_storage)."
    );
}
