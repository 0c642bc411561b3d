//! Consolidated regression suite for the paper's *quantitative textual
//! claims* — every number the prose states, asserted in one place so
//! EXPERIMENTS.md stays honest.

use ddc_costmodel::{complexity, table1, table2};

/// §1: "with d = 8 … when n = 10², the size of each dimension is only
/// 100 elements; yet the full data cube is [10^16] cells."
#[test]
fn intro_cube_size() {
    assert_eq!(
        table1::nearest_power_of_ten(table1::full_cube_size(1e2, 8)),
        16
    );
}

/// §1: "the prefix sum method requires on the order of [10^9] times more
/// instructions than the Dynamic Data Cube" at n = 10², d = 8.
#[test]
fn intro_instruction_ratio() {
    let ratio = table1::prefix_sum_update(1e2, 8) / table1::ddc_update(1e2, 8);
    let order = ratio.log10().round() as i32;
    assert!((8..=10).contains(&order), "ratio 10^{order}");
}

/// §1: "the prefix sum method may require more than 6 months of
/// processing to update a single cell … The Dynamic Data Cube can update
/// that same cell in under [two] seconds" (500 MIPS).
#[test]
fn intro_processing_times() {
    let ps = table1::seconds_at_mips(table1::prefix_sum_update(1e2, 8), 500.0);
    assert!(ps > 0.5 * 365.25 * 86_400.0, "PS took only {ps} s");
    let ddc = table1::seconds_at_mips(table1::ddc_update(1e2, 8), 500.0);
    assert!(ddc < 2.0, "DDC took {ddc} s");
}

/// §1: "When n = 10⁴, the relative prefix sum method requires 231 days to
/// update a single cell … whereas the Dynamic Data Cube requires under 2
/// seconds."
#[test]
fn intro_rps_231_days() {
    let rps = table1::seconds_at_mips(table1::relative_prefix_update(1e4, 8), 500.0);
    let days = rps / 86_400.0;
    assert!((230.0..233.0).contains(&days), "{days} days");
    let ddc = table1::seconds_at_mips(table1::ddc_update(1e4, 8), 500.0);
    assert!(ddc < 2.0, "{ddc} s");
}

/// §3.1: "each box stores exactly (k^d − (k−1)^d) values" — at k = 4,
/// d = 2 that is 7 values for a 16-cell region (the Figure 6 overlay).
#[test]
fn overlay_value_counts() {
    assert_eq!(table2::overlay_cells(4.0, 2), 7.0);
    assert_eq!(table2::covered_cells(4.0, 2), 16.0);
    // …and the 2-D identity d(k−1)+1 from §3.3's discussion.
    for k in [2.0f64, 4.0, 8.0, 32.0] {
        assert_eq!(table2::overlay_cells(k, 2), 2.0 * (k - 1.0) + 1.0);
    }
}

/// §3.3: the Basic tree's series sums to d[(n^{d-1} − 1)/(2^{d-1} − 1)],
/// which is O(n) in two dimensions — "the worst-case update cost of the
/// Basic Dynamic Data Cube becomes O(n) in the two-dimensional case."
#[test]
fn basic_two_dimensional_cost_is_linear() {
    for n in [64.0, 256.0, 1024.0] {
        let c = complexity::basic_update_cost(n, 2);
        assert_eq!(c, 2.0 * (n - 1.0));
    }
}

/// §4.3 base case: the B^c-tree query series evaluates to
/// 3·[log(n/2) + … + 1] = 3·½·log(n/2)(log(n/2)+1).
#[test]
fn two_dimensional_series_closed_form() {
    for n in [8.0f64, 64.0, 4096.0] {
        let l = (n / 2.0).log2();
        let direct: f64 = (1..=(l as u32)).map(|i| 3.0 * i as f64).sum();
        assert!((complexity::ddc_2d_cost(n) - direct).abs() < 1e-9, "n={n}");
    }
}

/// Table 2's printed percentages for d = 2.
#[test]
fn table2_rows() {
    let expect = [
        (2.0, 75.0),
        (4.0, 43.75),
        (8.0, 23.4375),
        (16.0, 12.109375),
        (32.0, 6.15234375),
    ];
    for (k, pct) in expect {
        assert!((table2::percentage(k, 2) - pct).abs() < 1e-9, "k={k}");
    }
}

/// §4.4: "By setting the appropriate value of h, one can reduce the
/// storage … to within ε of the size of array A" — measured on the real
/// structure: h = 4 must bring a 256² cube under 1.5× |A|. The byte and
/// structure counts of both trees are pinned exactly: the full cube
/// materializes every node, `4^l` at level `l`, each with four boxes.
#[test]
fn elision_brings_storage_near_array_size() {
    use ddc_array::{RangeSumEngine, Shape};
    use ddc_core::{DdcConfig, DdcEngine, LevelStats, TreeStats};
    use ddc_workload::{rng, uniform_array};
    let shape = Shape::cube(2, 256);
    let a = uniform_array(&shape, -20, 20, &mut rng(3));
    let raw = a.heap_bytes();
    let full = |depth: usize, leaf_side: usize, secondary_bytes, total_bytes| {
        let mut per_level: Vec<LevelStats> = (0..depth)
            .map(|l| LevelStats {
                side: 256 >> l,
                nodes: 1 << (2 * l),
                boxes: 4 << (2 * l),
                leaf_blocks: 0,
            })
            .collect();
        let (nodes, leaf_blocks) = ((1 << (2 * depth)) / 3, 1 << (2 * depth));
        per_level.push(LevelStats {
            side: leaf_side,
            nodes: 0,
            boxes: 0,
            leaf_blocks,
        });
        TreeStats {
            nodes,
            boxes: 4 * nodes,
            leaf_blocks,
            leaf_cells: 256 * 256,
            leaf_side,
            secondary_bytes,
            total_bytes,
            depth,
            per_level,
        }
    };
    let e = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(4));
    assert_eq!(e.heap_bytes(), 585_864);
    assert_eq!(e.tree().stats(), full(3, 32, 59_584, 585_848));
    let ratio = e.heap_bytes() as f64 / raw as f64;
    assert!(ratio < 1.5, "h=4 ratio {ratio}");
    // And h = 0 is strictly larger — the optimization does something.
    let e0 = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(0));
    assert_eq!(e0.heap_bytes(), 1_917_544);
    assert_eq!(e0.tree().stats(), full(7, 2, 1_042_624, 1_917_528));
    assert!(e0.heap_bytes() > e.heap_bytes());
}

/// §4.4: "the maximum size of the union of these deleted regions is
/// 2^{(h+1)d} leaf cells" — measured: the worst-case extra reads of an
/// elided tree versus h = 0 stay within that bound.
#[test]
fn elision_query_penalty_is_bounded() {
    use ddc_array::{RangeSumEngine, Shape};
    use ddc_core::{DdcConfig, DdcEngine};
    use ddc_workload::{rng, uniform_array};
    let shape = Shape::cube(2, 64);
    let a = uniform_array(&shape, 1, 9, &mut rng(4));
    for h in 1..=3usize {
        let base = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(0));
        let elided = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(h));
        let bound = 1u64 << ((h + 1) * 2);
        for p in [[0usize, 0], [63, 63], [31, 32], [17, 55]] {
            base.reset_ops();
            let _ = base.prefix_sum(&p);
            let b = base.ops().reads;
            elided.reset_ops();
            let _ = elided.prefix_sum(&p);
            let e = elided.ops().reads;
            assert!(
                e <= b + bound,
                "h={h} point {p:?}: {e} reads vs base {b} + bound {bound}"
            );
        }
    }
}
