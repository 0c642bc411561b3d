//! A guided tour of the paper, section by section, with live numbers.
//!
//! ```text
//! cargo run --release -p ddc-examples --example paper_tour
//! ```
//!
//! §2 — the problem and the prefix-sum family; §3 — the Basic tree and
//! its update pathology; §4 — the Dynamic Data Cube and Theorem 2;
//! §4.4 — the space optimization; §5 — growth and sparsity. Every claim
//! printed is computed on the spot.

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_baselines::{NaiveEngine, PrefixSumEngine, RelativePrefixEngine};
use ddc_core::{DdcConfig, DdcEngine, GrowableCube};
use ddc_workload::{rng, uniform_array};

fn section(title: &str) {
    println!("\n──── {title} ────");
}

fn main() {
    let n = 128usize;
    let shape = Shape::cube(2, n);
    let base = uniform_array(&shape, -50, 50, &mut rng(1));

    section("§2  Range sums over array A");
    let naive = NaiveEngine::from_array(&base);
    let q = Region::new(&[27, 40], &[45, 90]);
    naive.reset_ops();
    let answer = naive.range_sum(&q);
    println!(
        "naive scan answers {answer} by reading {} cells",
        naive.ops().reads
    );

    let ps = PrefixSumEngine::from_array(&base);
    ps.reset_ops();
    assert_eq!(ps.range_sum(&q), answer);
    println!(
        "prefix sum [HAMS97] answers the same with {} reads (Figure 4)",
        ps.ops().reads
    );

    let mut ps = ps;
    ps.reset_ops();
    ps.apply_delta(&[0, 0], 1);
    println!(
        "…but updating A[0,0] rewrote {} cells of P (Figure 5)",
        ps.ops().writes
    );

    let mut rps = RelativePrefixEngine::from_array(&base);
    rps.apply_delta(&[0, 0], -1); // keep the cubes identical
    rps.reset_ops();
    rps.apply_delta(&[0, 0], 1);
    println!(
        "relative prefix sum [GAES99] bounds that to {} cells",
        rps.ops().writes
    );

    section("§3  The Basic Dynamic Data Cube");
    let mut basic = DdcEngine::from_array_with(&base, DdcConfig::basic().with_elision(0));
    basic.apply_delta(&[0, 0], 1);
    basic.reset_ops();
    basic.apply_delta(&[0, 0], 1);
    println!(
        "overlay boxes + direct row sums: worst update now {} values (≈ 2n = {})",
        basic.ops().touched(),
        2 * n
    );

    section("§4  The Dynamic Data Cube (Theorem 2)");
    let mut ddc = DdcEngine::from_array_with(&base, DdcConfig::dynamic().with_elision(0));
    ddc.apply_delta(&[0, 0], 2); // match the two deltas applied above
    ddc.reset_ops();
    ddc.apply_delta(&[0, 0], 1);
    let upd = ddc.ops().touched();
    ddc.reset_ops();
    let _ = ddc.prefix_sum(&[n - 1, n - 1]);
    let qry = ddc.ops().reads;
    let logd = (n as f64).log2().powi(2);
    println!("row sums in B^c trees, recursively: update {upd} values, query {qry} reads");
    println!("log²(n) = {logd:.0} — both are O(log² n), balanced (Theorem 2)");

    section("§4.4  The space optimization");
    for h in [0usize, 2, 4] {
        let e = DdcEngine::from_array_with(&base, DdcConfig::dynamic().with_elision(h));
        println!(
            "h = {h}: {:>8} bytes ({:.2}× |A|)",
            e.heap_bytes(),
            e.heap_bytes() as f64 / base.heap_bytes() as f64
        );
    }

    section("§5  Growth in any direction, sparse data");
    let mut sky = GrowableCube::<i64>::new(2, DdcConfig::sparse());
    sky.add(&[0, 0], 1);
    sky.add(&[-40_000, 25_000], 1);
    sky.add(&[90_000, -3], 1);
    println!(
        "3 stars spanning a {:.1e}-cell box cost {} KiB; growth was re-rooting,",
        sky.extent().iter().map(|&e| e as f64).product::<f64>(),
        sky.heap_bytes() / 1024
    );
    println!("not materialization — the §5 contrast with Figure 16.");
    assert_eq!(sky.total(), 3);
}
