//! Trace replay: run one seeded update/query trace through every
//! engine, timing each and cross-checking the query checksums — the
//! harness for comparing methods on *identical* mixed workloads (the
//! paper's interactive-commerce regime, §1).
//!
//! ```text
//! cargo run --release -p ddc-bench --bin replay
//! ```
//!
//! The trace is a seeded 256×256 stream of 5 000 operations (50 %
//! updates), generated in process; the binary takes no arguments.

use std::time::Instant;

use ddc_bench::print_row;
use ddc_olap::EngineKind;
use ddc_workload::{rng, Trace};

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: replay (no arguments; the trace is generated in process)");
        std::process::exit(1);
    }
    let trace = Trace::generate(&ddc_array::Shape::cube(2, 256), 5_000, 0.5, &mut rng(0xDDC));

    println!("trace: shape {:?}, {} ops\n", trace.dims, trace.ops.len());
    let widths = [14usize, 12, 12, 14, 20];
    print_row(
        &[
            "engine".into(),
            "updates".into(),
            "queries".into(),
            "wall time".into(),
            "checksum".into(),
        ],
        &widths,
    );
    let mut checksums = Vec::new();
    for kind in EngineKind::ALL {
        let mut engine = kind.build::<i64>(trace.shape());
        let start = Instant::now();
        let r = trace.replay(engine.as_mut());
        let elapsed = start.elapsed();
        print_row(
            &[
                kind.label().into(),
                format!("{}", r.updates),
                format!("{}", r.queries),
                format!("{elapsed:?}"),
                format!("{}", r.checksum),
            ],
            &widths,
        );
        checksums.push(r.checksum);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "engines disagreed on the trace checksum: {checksums:?}"
    );
    println!("\nall engines agree on the checksum ✓");
}
