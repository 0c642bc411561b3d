//! # ddc-bench
//!
//! Shared measurement harness for the paper-reproduction binaries (one per
//! table/figure, see DESIGN.md §3) and the two machine-portable CI gates
//! (`update_cost`, `latency_core` → [`json`]). Wall-clock claims are made
//! in `benchmark/`, not here.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod json;

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_olap::EngineKind;
use ddc_workload::{rng, uniform_array, uniform_updates};

/// Average operation counts measured over a workload.
#[derive(Copy, Clone, Debug, Default)]
pub struct Measured {
    /// Mean stored-values touched per update.
    pub update_touched: f64,
    /// Mean stored-values read per range query.
    pub query_reads: f64,
    /// Heap bytes after the workload.
    pub heap_bytes: usize,
}

/// Builds an engine of `kind` over a dense uniform `d`-cube of side `n`,
/// then measures per-operation costs: `updates` point updates followed by
/// `queries` random range queries (seeded, deterministic).
pub fn measure_engine(
    kind: EngineKind,
    d: usize,
    n: usize,
    updates: usize,
    queries: usize,
) -> Measured {
    let shape = Shape::cube(d, n);
    let mut r = rng(0xDDC0 + d as u64 * 1000 + n as u64);
    let base = uniform_array(&shape, -50, 50, &mut r);
    let mut engine: Box<dyn RangeSumEngine<i64>> = kind.build(shape.clone());
    // Load phase (excluded from measurement).
    for p in shape.iter_points() {
        let v = base.get(&p);
        if v != 0 {
            engine.apply_delta(&p, v);
        }
    }

    // Update phase.
    let stream = uniform_updates(&shape, updates, &mut r);
    engine.reset_ops();
    for (p, delta) in &stream.updates {
        engine.apply_delta(p, *delta);
    }
    let upd = engine.ops();
    let update_touched = upd.touched() as f64 / updates.max(1) as f64;

    // Query phase.
    let regions = ddc_workload::uniform_regions(&shape, queries, &mut r);
    engine.reset_ops();
    let mut sink = 0i64;
    for q in &regions {
        sink = sink.wrapping_add(engine.range_sum(q));
    }
    std::hint::black_box(sink);
    let qr = engine.ops();
    let query_reads = qr.reads as f64 / queries.max(1) as f64;

    Measured {
        update_touched,
        query_reads,
        heap_bytes: engine.heap_bytes(),
    }
}

/// Worst-case single-update cost (cell `A[0,…,0]`, the Figure 5 corner).
pub fn measure_worst_case_update(kind: EngineKind, d: usize, n: usize) -> u64 {
    let shape = Shape::cube(d, n);
    let mut engine: Box<dyn RangeSumEngine<i64>> = kind.build(shape);
    let origin = vec![0usize; d];
    // Materialize the structure along this path first so lazy allocation
    // is not billed to the measured update.
    engine.apply_delta(&origin, 1);
    engine.reset_ops();
    engine.apply_delta(&origin, 1);
    engine.ops().touched()
}

/// Cost of a full-extent prefix query after dense population.
pub fn measure_prefix_query(kind: EngineKind, d: usize, n: usize) -> u64 {
    let shape = Shape::cube(d, n);
    let mut r = rng(99);
    let base = uniform_array(&shape, 0, 9, &mut r);
    let mut engine: Box<dyn RangeSumEngine<i64>> = kind.build(shape.clone());
    for p in shape.iter_points() {
        let v = base.get(&p);
        if v != 0 {
            engine.apply_delta(&p, v);
        }
    }
    let corner: Vec<usize> = shape.dims().iter().map(|&m| m - 1).collect();
    engine.reset_ops();
    std::hint::black_box(engine.prefix_sum(&corner));
    engine.ops().reads
}

/// Formats a cell count the way Table 1 does: `1E+NN`.
pub fn pow10(v: f64) -> String {
    if v <= 0.0 {
        return "0".to_string();
    }
    format!("1E{:+03}", v.log10().round() as i32)
}

/// Simple fixed-width table printer.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Ground-truth check helper used by several binaries: engine vs naive on
/// a handful of random regions. Returns the number of regions checked.
pub fn sanity_check(engine: &dyn RangeSumEngine<i64>, truth: &ddc_array::NdArray<i64>) -> usize {
    let mut r = rng(7);
    let regions = ddc_workload::uniform_regions(truth.shape(), 16, &mut r);
    for q in &regions {
        assert_eq!(
            engine.range_sum(q),
            truth.region_sum(q),
            "{} disagrees with ground truth on {q:?}",
            engine.name()
        );
    }
    regions.len()
}

/// Re-export for binaries.
pub use ddc_array::OpSnapshot;

/// Convenience: a dense region covering everything.
pub fn full_region(shape: &Shape) -> Region {
    Region::full(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_engine_smoke() {
        let m = measure_engine(EngineKind::DynamicDdc, 2, 16, 10, 10);
        assert!(m.update_touched > 0.0);
        assert!(m.query_reads > 0.0);
        assert!(m.heap_bytes > 0);
    }

    #[test]
    fn worst_case_ordering_matches_paper() {
        let n = 32;
        let ps = measure_worst_case_update(EngineKind::PrefixSum, 2, n);
        let rps = measure_worst_case_update(EngineKind::RelativePrefix, 2, n);
        let basic = measure_worst_case_update(EngineKind::BasicDdc, 2, n);
        let ddc = measure_worst_case_update(EngineKind::DynamicDdc, 2, n);
        assert_eq!(ps, (n * n) as u64, "PS rewrites the whole cube");
        assert!(rps < ps, "RPS {rps} < PS {ps}");
        assert!(basic < ps, "Basic {basic} < PS {ps}");
        assert!(ddc < basic, "DDC {ddc} < Basic {basic}");
    }

    #[test]
    fn pow10_formatting() {
        assert_eq!(pow10(1e16), "1E+16");
        assert_eq!(pow10(9.6e3), "1E+04");
        assert_eq!(pow10(0.0), "0");
    }
}
