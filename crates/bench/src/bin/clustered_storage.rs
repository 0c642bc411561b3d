//! **§5b reproduction**: clustered and sparse data. The paper's EOSDIS
//! narrative — measurements concentrated around point sources with vast
//! unpopulated oceans — is generated synthetically; we compare the storage
//! each method needs for the same logical cube across a sparsity sweep.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin clustered_storage
//! ```

use ddc_array::{RangeSumEngine, Shape};
use ddc_baselines::{PrefixSumEngine, RelativePrefixEngine};
use ddc_bench::print_row;
use ddc_core::{DdcConfig, DdcEngine, GrowableCube};
use ddc_workload::{clustered_points, random_clusters, rng, sparse_array};

fn main() {
    let n = 256usize;
    let shape = Shape::cube(2, n);

    println!("== Sparsity sweep: 256×256 cube, storage by method (KiB) ==\n");
    let widths = [10usize, 10, 12, 12, 12, 12];
    print_row(
        &[
            "density".into(),
            "cells".into(),
            "prefix-sum".into(),
            "rel-prefix".into(),
            "ddc(blocked)".into(),
            "ddc(lazy)".into(),
        ],
        &widths,
    );
    for density in [0.001f64, 0.01, 0.05, 0.25, 1.0] {
        let mut r = rng((density * 1e6) as u64);
        let a = sparse_array(&shape, density, 100, &mut r);
        let ps = PrefixSumEngine::from_array(&a);
        let rps = RelativePrefixEngine::from_array(&a);
        let ddc_blocked = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(1));
        let ddc_lazy = DdcEngine::from_array_with(&a, DdcConfig::sparse().with_elision(1));
        print_row(
            &[
                format!("{density}"),
                format!("{}", a.populated_cells()),
                format!("{}", ps.heap_bytes() / 1024),
                format!("{}", rps.heap_bytes() / 1024),
                format!("{}", ddc_blocked.heap_bytes() / 1024),
                format!("{}", ddc_lazy.heap_bytes() / 1024),
            ],
            &widths,
        );
    }

    println!("\n== Clustered data (EOSDIS-style): 4 clusters in a 4096² space ==\n");
    let mut r = rng(777);
    let clusters = random_clusters(2, 4, 1800, 25.0, &mut r);
    let pts = clustered_points(&clusters, 4000, 100, &mut r);
    let grown = |config: DdcConfig, pts: &[(Vec<i64>, i64)]| {
        let mut cube = GrowableCube::<i64>::new(2, config);
        for (p, v) in pts {
            cube.add(p, *v);
        }
        cube
    };
    let cube = grown(DdcConfig::sparse(), &pts);
    let bbox: f64 = cube.extent().iter().map(|&e| e as f64).product();
    println!("populated cells : {}", cube.populated_cells());
    println!("covered space   : {:.2e} cells", bbox);
    println!("DDC heap        : {} KiB", cube.heap_bytes() / 1024);
    println!(
        "  blocked faces : {} KiB (the default; smaller while data clusters)",
        grown(DdcConfig::dynamic(), &pts).heap_bytes() / 1024
    );
    println!(
        "prefix-sum array over the same space: {:.0} KiB (dense, plus full\n\
         rebuild whenever a new point source appears outside the box)",
        bbox * 8.0 / 1024.0
    );
    println!(
        "\nThe DDC's storage tracks the populated region (§5); the prefix \
         sum\nmethods must materialize every cell of the bounding box."
    );

    // Where the lazy base store earns its place: isolated points in a
    // wide space, each claiming `k` words per blocked face next to the
    // root but one root-to-leaf path per lazy face.
    println!("\n== Isolated points in a wide space: heap by base store (KiB) ==\n");
    let widths = [10usize, 10, 14, 14];
    print_row(
        &[
            "side".into(),
            "points".into(),
            "ddc(blocked)".into(),
            "ddc(lazy)".into(),
        ],
        &widths,
    );
    for (bits, points) in [(17u32, 500usize), (20, 200)] {
        let side = 1i64 << bits;
        let mut r = rng(u64::from(bits));
        let pts: Vec<(Vec<i64>, i64)> = (0..points)
            .map(|_| (vec![r.gen_range(0..side), r.gen_range(0..side)], 1))
            .collect();
        print_row(
            &[
                format!("2^{bits}"),
                format!("{points}"),
                format!("{}", grown(DdcConfig::dynamic(), &pts).heap_bytes() / 1024),
                format!("{}", grown(DdcConfig::sparse(), &pts).heap_bytes() / 1024),
            ],
            &widths,
        );
    }
}
