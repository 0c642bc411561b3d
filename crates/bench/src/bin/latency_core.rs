//! Per-operation core latency: p50/p99 wall-clock nanoseconds for point
//! updates, prefix-sum queries and range-sum queries across engines, on
//! the d=2 hot path (256²) and on the 64³ cube of `benchmark/`'s
//! `core_d3_query`, where every row-sum group is a secondary tree
//! (experiment L1 in DESIGN.md §43). A range is a random box: Figure 4's
//! `2^d` prefix sums for the Fenwick tree, one walk for the DDC.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin latency_core
//! cargo run --release -p ddc-bench --bin latency_core -- --json
//! ```
//!
//! Each op is timed individually with `Instant`; quantiles come from the
//! sorted sample. `--json` writes `BENCH_latency_core.json` into the
//! current directory: the in-run `dyn-ddc ÷ fenwick-nd` p50 ratios (update,
//! prefix, range) are
//! gated at their committed value × 1.5 (machine speed cancels, so this
//! catches a 2× regression and is ratcheted down with every step toward
//! ROADMAP's ≤ 1.5), the seeded stored-values-touched counts are
//! exact-match `count` metrics — machine-independent evidence of the
//! algorithmic shape — and the p50/p99 nanoseconds ride along ungated
//! (wall-clock claims are `benchmark/`'s). `dyn-ddc` is the production
//! default, `DdcConfig::dynamic()`, not the paper's full tree: the leaf
//! side it derives for each cube is written as a `count` row too, so a
//! silent change of the rule fails the gate as drift instead of moving
//! the ratios. The d = 2 cube has a third row, `lazy-ddc`
//! (`DdcConfig::sparse()`, whose row-sum groups are one-dimensional
//! trees in the level's forest): its counts are gated exactly like the
//! others — nothing else pins that configuration's shape — and it has no
//! ratio.
//!
//! A last line reports the growth-phase tail: every update that
//! populates a fresh 1024² cube with 2^18 distinct cells is timed, so
//! the operations during which a level slab reallocates (`Vec`
//! doubling, multi-megabyte at this size) are in the sample. It is
//! printed, not written to the report: one run's maximum is scheduler
//! noise as much as engine work, too loose to gate.

use std::time::Instant;

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_bench::json::{BenchReport, MetricKind};
use ddc_bench::print_row;
use ddc_core::DdcConfig;
use ddc_olap::EngineKind;
use ddc_workload::rng;

/// The cubes under test, as `(d, side)`.
const CUBES: [(usize, usize); 2] = [(2, 256), (3, 64)];
/// Updates applied before measurement starts (structure warm-up).
const POPULATE: usize = 40_000;
/// Timed operations per op-kind per engine.
const OPS: usize = 30_000;

/// The engine behind every `dyn-ddc` row.
fn dyn_ddc() -> EngineKind {
    EngineKind::CustomDdc(DdcConfig::dynamic())
}

/// Ceiling on the in-run `dyn-ddc ÷ fenwick-nd` p50 ratios, as a
/// multiple of the committed value.
const RATIO_TOL: f64 = 1.5;

/// Side and distinct populated cells of the growth-phase cube (the
/// `core_d2_mixed` population of `benchmark/`).
const GROWTH_SIDE: usize = 1024;
const GROWTH_CELLS: usize = 1 << 18;

struct Quantiles {
    p50: u64,
    p99: u64,
    p999: u64,
    max: u64,
}

fn quantiles(mut samples: Vec<u64>) -> Quantiles {
    samples.sort_unstable();
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    Quantiles {
        p50: at(0.50),
        p99: at(0.99),
        p999: at(0.999),
        max: at(1.0),
    }
}

/// Times every update that populates a fresh dynamic cube: the ops that
/// materialize nodes, box records and leaf blocks, including the ones
/// that grow a slab.
fn growth_phase() -> Quantiles {
    let mut r = rng(0xDDC_6120);
    let mut engine = dyn_ddc().build(Shape::cube(2, GROWTH_SIDE));
    let mut seen = std::collections::HashSet::with_capacity(GROWTH_CELLS);
    let mut ns = Vec::with_capacity(GROWTH_CELLS);
    while seen.len() < GROWTH_CELLS {
        let p = [r.gen_range(0..GROWTH_SIDE), r.gen_range(0..GROWTH_SIDE)];
        if seen.insert(p) {
            let t = Instant::now();
            engine.apply_delta(&p, 1);
            ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    quantiles(ns)
}

struct EngineRow {
    label: &'static str,
    update: Quantiles,
    prefix: Quantiles,
    range: Quantiles,
    touched_per_update: f64,
    reads_per_prefix: f64,
    reads_per_range: f64,
}

fn measure(label: &'static str, kind: EngineKind, d: usize, side: usize) -> EngineRow {
    let mut r = rng(0xDDC_1A7E);
    let mut engine: Box<dyn RangeSumEngine<i64>> = kind.build(Shape::cube(d, side));

    let point = |r: &mut ddc_workload::DdcRng| -> Vec<usize> {
        (0..d).map(|_| r.gen_range(0..side)).collect()
    };

    for _ in 0..POPULATE {
        let p = point(&mut r);
        engine.apply_delta(&p, r.gen_range(-50i64..50));
    }

    // Pre-draw the op streams so RNG time is not billed to the engine.
    let updates: Vec<(Vec<usize>, i64)> = (0..OPS)
        .map(|_| (point(&mut r), r.gen_range(-50i64..50)))
        .collect();
    let queries: Vec<Vec<usize>> = (0..OPS).map(|_| point(&mut r)).collect();
    // Drawn last, so the update and prefix streams are the ones every
    // report before the range rows measured.
    let ranges: Vec<Region> = (0..OPS)
        .map(|_| {
            let (p, q) = (point(&mut r), point(&mut r));
            let lo: Vec<usize> = p.iter().zip(&q).map(|(a, b)| *a.min(b)).collect();
            let hi: Vec<usize> = p.iter().zip(&q).map(|(a, b)| *a.max(b)).collect();
            Region::new(&lo, &hi)
        })
        .collect();

    engine.reset_ops();
    let mut update_ns = Vec::with_capacity(OPS);
    for (p, delta) in &updates {
        let t = Instant::now();
        engine.apply_delta(p, *delta);
        update_ns.push(t.elapsed().as_nanos() as u64);
    }
    let touched_per_update = engine.ops().touched() as f64 / OPS as f64;

    engine.reset_ops();
    let mut prefix_ns = Vec::with_capacity(OPS);
    let mut sink = 0i64;
    for p in &queries {
        let t = Instant::now();
        let v = engine.prefix_sum(p);
        prefix_ns.push(t.elapsed().as_nanos() as u64);
        sink = sink.wrapping_add(v);
    }
    let reads_per_prefix = engine.ops().reads as f64 / OPS as f64;

    engine.reset_ops();
    let mut range_ns = Vec::with_capacity(OPS);
    for q in &ranges {
        let t = Instant::now();
        let v = engine.range_sum(q);
        range_ns.push(t.elapsed().as_nanos() as u64);
        sink = sink.wrapping_add(v);
    }
    std::hint::black_box(sink);
    let reads_per_range = engine.ops().reads as f64 / OPS as f64;

    EngineRow {
        label,
        update: quantiles(update_ns),
        prefix: quantiles(prefix_ns),
        range: quantiles(range_ns),
        touched_per_update,
        reads_per_prefix,
        reads_per_range,
    }
}

/// Measures the engines on one cube, prints its table and pushes its
/// metrics as `<what>.d<d>.<engine>`.
fn run_cube(d: usize, side: usize, report: &mut BenchReport) {
    println!(
        "== d={d}, side {side}: per-op latency over {OPS} timed ops \
         ({POPULATE} warm-up updates) ==\n"
    );
    let widths = [12usize, 10, 10, 10, 10, 10, 10, 12, 12, 12];
    print_row(
        &[
            "engine".into(),
            "upd p50".into(),
            "upd p99".into(),
            "pfx p50".into(),
            "pfx p99".into(),
            "rng p50".into(),
            "rng p99".into(),
            "touched/upd".into(),
            "reads/pfx".into(),
            "reads/rng".into(),
        ],
        &widths,
    );
    let ddc = measure("dyn-ddc", dyn_ddc(), d, side);
    let fenwick = measure("fenwick-nd", EngineKind::FenwickNd, d, side);
    let lazy = (d == 2).then(|| {
        let kind = EngineKind::CustomDdc(DdcConfig::sparse());
        measure("lazy-ddc", kind, d, side)
    });
    for row in [&ddc, &fenwick].into_iter().chain(&lazy) {
        print_row(
            &[
                row.label.into(),
                format!("{}ns", row.update.p50),
                format!("{}ns", row.update.p99),
                format!("{}ns", row.prefix.p50),
                format!("{}ns", row.prefix.p99),
                format!("{}ns", row.range.p50),
                format!("{}ns", row.range.p99),
                format!("{:.1}", row.touched_per_update),
                format!("{:.1}", row.reads_per_prefix),
                format!("{:.1}", row.reads_per_range),
            ],
            &widths,
        );
        let ops = [
            ("update", &row.update),
            ("prefix", &row.prefix),
            ("range", &row.range),
        ];
        for (op, q) in ops {
            for (quantile, ns) in [("p50", q.p50), ("p99", q.p99)] {
                report.push(
                    format!("{op}.d{d}.{}.{quantile}_ns", row.label),
                    MetricKind::LatencyNs,
                    ns as f64,
                );
            }
        }
        report.push(
            format!("touched_per_update.d{d}.{}", row.label),
            MetricKind::Count,
            row.touched_per_update,
        );
        report.push(
            format!("reads_per_prefix.d{d}.{}", row.label),
            MetricKind::Count,
            row.reads_per_prefix,
        );
        report.push(
            format!("reads_per_range.d{d}.{}", row.label),
            MetricKind::Count,
            row.reads_per_range,
        );
    }
    println!();
    for (op, ours, theirs) in [
        ("update", &ddc.update, &fenwick.update),
        ("prefix", &ddc.prefix, &fenwick.prefix),
        ("range", &ddc.range, &fenwick.range),
    ] {
        let ratio = ours.p50 as f64 / theirs.p50 as f64;
        println!("{op} p50, dyn-ddc ÷ fenwick-nd: {ratio:.2}");
        report.push(
            format!("{op}.d{d}.dyn-ddc_over_fenwick-nd"),
            MetricKind::Ratio { tol: RATIO_TOL },
            ratio,
        );
    }
    println!();
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut report = BenchReport::new("latency_core");
    for (d, side) in CUBES {
        run_cube(d, side, &mut report);
    }
    let growth = growth_phase();
    println!(
        "dyn-ddc update while populating {GROWTH_SIDE}² with {GROWTH_CELLS} cells: \
         p50 {}ns  p99 {}ns  p99.9 {}ns  max {}ns",
        growth.p50, growth.p99, growth.p999, growth.max
    );
    for (d, side) in CUBES {
        report.push(format!("config.d{d}.side"), MetricKind::Count, side as f64);
        report.push(
            format!("config.d{d}.leaf_side"),
            MetricKind::Count,
            DdcConfig::dynamic().leaf_block_side(d) as f64,
        );
    }
    report.push("config.ops", MetricKind::Count, OPS as f64);
    report.push("config.populate", MetricKind::Count, POPULATE as f64);

    if json {
        let path = report
            .write(std::path::Path::new("."))
            .expect("write BENCH_latency_core.json");
        println!("\nwrote {}", path.display());
    }
}
