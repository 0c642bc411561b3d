//! Figure 11, narrated by the implementation: build the paper's 8×8
//! example cube, trace the range-sum query, and print each overlay box's
//! contribution — the same walkthrough as the paper's §3.2, produced by
//! [`ddc_core::DdcTree::trace_prefix`].
//!
//! ```text
//! cargo run -p ddc-examples --example figure11_walkthrough
//! ```

use ddc_array::{NdArray, Shape};
use ddc_core::{Contribution, DdcConfig, DdcEngine};

fn main() {
    // An 8×8 array whose regional sums match the figure's components:
    // Q = 51, R = 48, S = 24, U = 16, L = 7, N = 5 (+ decoys outside the
    // target region).
    let mut a = NdArray::<i64>::zeroed(Shape::new(&[8, 8]));
    a.set(&[0, 0], 51);
    a.set(&[0, 4], 48);
    a.set(&[4, 0], 24);
    a.set(&[4, 4], 16);
    a.set(&[6, 6], 7);
    a.set(&[7, 6], 5);
    a.set(&[3, 7], 8);
    a.set(&[6, 7], 2);
    a.set(&[7, 7], 9);

    // The full tree as the paper draws it; the default leaf side would
    // store this 8 × 8 cube as a single block.
    let cube = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(0));
    let target = [7usize, 6usize];
    println!("query: SUM(A[0,0] : A[{},{}])\n", target[0], target[1]);

    let steps = cube.tree().trace_prefix(&target);
    let mut total = 0i64;
    for s in &steps {
        let what = match s.kind {
            Contribution::Subtotal => "subtotal (region fully covered)".to_string(),
            Contribution::RowSum { axis } => {
                format!("row-sum value, group axis {axis} (region cuts the box)")
            }
            Contribution::Descend => "← target cell inside: descend".to_string(),
            Contribution::LeafCells { cells } => {
                format!("sum of {cells} leaf cell(s)")
            }
        };
        total += s.value;
        println!(
            "level {}  box@{:?} side {}  {:<52} +{:<4} (running {total})",
            s.level, s.box_anchor, s.box_side, what, s.value
        );
    }
    println!("\ntotal: {total}");
    assert_eq!(total, 151, "the paper's 51+48+24+16+7+5");
    println!("matches the paper's 51 + 48 + 24 + 16 + 7 + 5 = 151 ✓");
}
