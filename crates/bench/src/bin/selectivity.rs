//! Query cost versus selectivity: a range-sum structure's defining
//! property (§2, Figure 4) is that query cost is bounded *independently
//! of the region's size* — the naive method degrades linearly with
//! selectivity, the prefix-based methods stay flat at their `2^d` prefix
//! sums, and the Data Cubes, which walk the region once instead, stay
//! below that bound and fall with the region.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin selectivity
//! ```

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_bench::print_row;
use ddc_olap::EngineKind;
use ddc_workload::{rng, uniform_array};

fn main() {
    let n = 256usize;
    let shape = Shape::cube(2, n);
    let mut r = rng(8);
    let base = uniform_array(&shape, -10, 10, &mut r);

    let mut engines: Vec<Box<dyn RangeSumEngine<i64>>> = EngineKind::ALL
        .iter()
        .map(|k| {
            let mut e = k.build(shape.clone());
            for p in shape.iter_points() {
                let v = base.get(&p);
                if v != 0 {
                    e.apply_delta(&p, v);
                }
            }
            e
        })
        .collect();

    println!("Values read per centered range query, 256² cube:\n");
    let widths = [10usize, 12, 12, 12, 12, 12];
    print_row(
        &[
            "extent".into(),
            "naive".into(),
            "prefix-sum".into(),
            "rel-prefix".into(),
            "basic-ddc".into(),
            "dyn-ddc".into(),
        ],
        &widths,
    );
    for extent in [1usize, 4, 16, 64, 128, 256] {
        let lo = (n - extent) / 2;
        let hi = lo + extent - 1;
        let q = Region::new(&[lo, lo], &[hi, hi]);
        let mut cells = vec![format!("{extent}²")];
        for e in engines.iter_mut() {
            e.reset_ops();
            std::hint::black_box(e.range_sum(&q));
            cells.push(format!("{}", e.ops().reads));
        }
        print_row(&cells, &widths);
    }
    println!(
        "\nNaive cost is the region size; the prefix-based methods are flat\n\
         in selectivity — the Figure 4 inclusion–exclusion at work — and\n\
         the Data Cubes' one walk is bounded by it and falls with the region."
    );
}
