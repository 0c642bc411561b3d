//! [`DdcEngine`]: the Dynamic Data Cube as a [`RangeSumEngine`].
//!
//! Wraps a [`DdcTree`] behind the engine interface shared with the §2
//! baselines. The logical shape may be arbitrary; internally the tree
//! covers the next power-of-two hyper-cube (the paper's §3.1 assumption),
//! and the lazy materialization of §5 makes the padding free.

use crate::sync::{Arc, OnceLock};

use ddc_array::{AbelianGroup, NdArray, OpCounter, RangeSumEngine, Region, Shape};

use crate::config::{DdcConfig, Mode};
use crate::obs;
use crate::tree::DdcTree;

/// Per-mode latency histograms, resolved once and cached so the hot
/// paths never touch the registry lock. [`DdcEngine`] and
/// [`GrowableCube`](crate::GrowableCube) report into the same ones:
/// each times one tree update, one tree prefix sum (the engine only) or
/// one tree range sum as one observation.
pub(crate) struct EngineObs {
    pub(crate) update_ns: Arc<obs::Histogram>,
    pub(crate) update_name: &'static str,
    pub(crate) prefix_ns: Arc<obs::Histogram>,
    pub(crate) prefix_name: &'static str,
    pub(crate) range_ns: Arc<obs::Histogram>,
    pub(crate) range_name: &'static str,
}

pub(crate) fn engine_obs(mode: Mode) -> &'static EngineObs {
    static BASIC: OnceLock<EngineObs> = OnceLock::new();
    static DYNAMIC: OnceLock<EngineObs> = OnceLock::new();
    let (cell, update_name, prefix_name, range_name) = match mode {
        Mode::Basic => (
            &BASIC,
            "engine.update.basic_ddc",
            "engine.prefix_sum.basic_ddc",
            "engine.range_sum.basic_ddc",
        ),
        Mode::Dynamic => (
            &DYNAMIC,
            "engine.update.dynamic_ddc",
            "engine.prefix_sum.dynamic_ddc",
            "engine.range_sum.dynamic_ddc",
        ),
    };
    cell.get_or_init(|| EngineObs {
        update_ns: obs::histogram(update_name),
        update_name,
        prefix_ns: obs::histogram(prefix_name),
        prefix_name,
        range_ns: obs::histogram(range_name),
        range_name,
    })
}

/// The paper's data-cube structure (Basic §3 or Dynamic §4, per config).
///
/// # Examples
///
/// ```
/// use ddc_array::{RangeSumEngine, Region, Shape};
/// use ddc_core::DdcEngine;
///
/// // A 1000×1000 SALES cube: both queries and updates are O(log² n).
/// let mut cube = DdcEngine::<i64>::dynamic(Shape::new(&[1000, 1000]));
/// cube.apply_delta(&[37, 220], 120);   // a sale: age 37, day 220
/// cube.apply_delta(&[45, 341], 310);
///
/// let window = Region::new(&[27, 200], &[45, 365]);
/// assert_eq!(cube.range_sum(&window), 430);
///
/// cube.set(&[37, 220], 0);             // retract the first sale
/// assert_eq!(cube.range_sum(&window), 310);
/// ```
#[derive(Debug)]
pub struct DdcEngine<G: AbelianGroup> {
    shape: Shape,
    tree: DdcTree<G>,
}

impl<G: AbelianGroup> DdcEngine<G> {
    /// An all-zero cube of `shape` with the given configuration.
    pub fn with_config(shape: Shape, config: DdcConfig) -> Self {
        let side = shape.max_dim().next_power_of_two();
        let mut tree = DdcTree::new(shape.ndim(), side, config);
        tree.reserve_bounded_leaves();
        Self { shape, tree }
    }

    /// The §4 Dynamic Data Cube with default configuration.
    pub fn dynamic(shape: Shape) -> Self {
        Self::with_config(shape, DdcConfig::dynamic())
    }

    /// The §3 Basic Dynamic Data Cube.
    pub fn basic(shape: Shape) -> Self {
        Self::with_config(shape, DdcConfig::basic())
    }

    /// Builds from an existing array with the default configuration.
    pub fn from_array(a: &NdArray<G>) -> Self {
        Self::from_array_with(a, DdcConfig::dynamic())
    }

    /// Builds from an array under an explicit configuration: one point
    /// update per non-zero cell, in row-major order — the one way the
    /// tree receives content. The returned engine's
    /// [`RangeSumEngine::ops`] read zero.
    pub fn from_array_with(a: &NdArray<G>, config: DdcConfig) -> Self {
        let mut e = Self::with_config(a.shape().clone(), config);
        let mut iter = a.shape().iter_points();
        let mut buf = vec![0usize; a.shape().ndim()];
        while iter.next_into(&mut buf) {
            let v = a.get(&buf);
            if !v.is_zero() {
                e.tree.apply_delta(&buf, v);
            }
        }
        e.reset_ops();
        e
    }

    /// The construction configuration.
    pub fn config(&self) -> &DdcConfig {
        self.tree.config()
    }

    /// Activates the paged leaf backend if the config requests it; see
    /// [`DdcTree::enable_paging`]. No-op (`Ok(false)`) otherwise.
    pub fn enable_paging(&mut self) -> std::io::Result<bool>
    where
        G: crate::ValueCodec,
    {
        self.tree.enable_paging()
    }

    /// Access to the underlying primary tree (diagnostics, experiments).
    pub fn tree(&self) -> &DdcTree<G> {
        &self.tree
    }

    /// Validates the structural invariants of the whole tree of trees.
    pub fn check_invariants(&self) -> G {
        self.tree.check_invariants()
    }

    /// Number of non-zero raw cells (§5 storage experiments).
    pub fn populated_cells(&self) -> usize {
        self.tree.populated_cells()
    }

    /// Extracts a sparse snapshot: every non-zero cell with its value, in
    /// tree order. Suitable for persistence or engine migration; restore
    /// with [`DdcEngine::from_entries`].
    pub fn entries(&self) -> Vec<(Vec<usize>, G)> {
        let mut out = Vec::new();
        self.tree
            .for_each_nonzero(&mut |p, v| out.push((p.to_vec(), v)));
        out
    }

    /// Rebuilds a cube from a sparse snapshot produced by
    /// [`DdcEngine::entries`] (or any coordinate/value list).
    pub fn from_entries(shape: Shape, config: DdcConfig, entries: &[(Vec<usize>, G)]) -> Self {
        let mut e = Self::with_config(shape, config);
        for (p, v) in entries {
            if !v.is_zero() {
                e.apply_delta(p, *v);
            }
        }
        e
    }
}

impl<G: AbelianGroup> RangeSumEngine<G> for DdcEngine<G> {
    fn name(&self) -> &'static str {
        match self.tree.config().mode {
            Mode::Basic => "basic-ddc",
            Mode::Dynamic => "dynamic-ddc",
        }
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn prefix_sum(&self, point: &[usize]) -> G {
        self.shape.check_point(point);
        let site = engine_obs(self.tree.config().mode);
        let span = site.prefix_ns.span(site.prefix_name);
        let v = self.tree.prefix_sum(point);
        span.end();
        v
    }

    /// One walk of the tree ([`DdcTree::range_sum`]), not the trait's
    /// `2^d` prefix sums.
    fn range_sum(&self, region: &Region) -> G {
        region.check_within(&self.shape);
        let site = engine_obs(self.tree.config().mode);
        let span = site.range_ns.span(site.range_name);
        let v = self.tree.range_sum(region.lo(), region.hi());
        span.end();
        v
    }

    fn apply_delta(&mut self, point: &[usize], delta: G) {
        self.shape.check_point(point);
        let site = engine_obs(self.tree.config().mode);
        let span = site.update_ns.span(site.update_name);
        self.tree.apply_delta(point, delta);
        span.end();
    }

    fn cell(&self, point: &[usize]) -> G {
        self.shape.check_point(point);
        self.tree.cell(point)
    }

    fn counter(&self) -> &OpCounter {
        self.tree.counter()
    }

    fn heap_bytes(&self) -> usize {
        // The tree counts its own inline bytes; add only the wrapper's.
        std::mem::size_of::<Self>() - std::mem::size_of::<DdcTree<G>>() + self.tree.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrapper holds its tree inline, so the tree's own bytes are in
    /// `size_of::<DdcTree>` once: the wrapper adds only its other fields.
    #[test]
    fn wrappers_count_their_inline_tree_once() {
        use crate::GrowableCube;
        use std::mem::size_of;
        let mut engine = DdcEngine::<i64>::dynamic(Shape::cube(2, 64));
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
        for i in 0..40 {
            engine.apply_delta(&[i, 63 - i], 1);
            cube.add(&[i as i64 * 3, -(i as i64)], 1);
        }
        let tree = size_of::<DdcTree<i64>>();
        assert_eq!(
            engine.heap_bytes() - engine.tree().heap_bytes(),
            size_of::<DdcEngine<i64>>() - tree
        );
        assert_eq!(
            cube.heap_bytes() - cube.tree.heap_bytes(),
            size_of::<GrowableCube<i64>>() - tree
        );
    }

    /// The worked example of Figures 9 and 11: an 8×8 cube whose query
    /// decomposes into the paper's six components — box Q contributes its
    /// subtotal 51, R and S row sums 48 and 24, U a subtotal 16, and the
    /// leaf boxes L and N contribute 7 and 5, totalling 151. The paper's
    /// full array is not reproduced in the text, so we build one whose
    /// regional sums match those components exactly (the target cell is
    /// the one the leaf box `N` covers, with `L` fully covered beside it)
    /// and add decoy values in every excluded region.
    #[test]
    fn paper_figure11_query_total() {
        let shape = Shape::new(&[8, 8]);
        let mut a = NdArray::<i64>::zeroed(shape.clone());
        let target = [7usize, 6usize];
        a.set(&[0, 0], 51); // Q = [0,4)²: subtotal 51
        a.set(&[0, 4], 48); // R strip [0,4)×[4..=6]: row sum 48
        a.set(&[4, 0], 24); // S strip [4..=7]×[0,4): row sum 24
        a.set(&[4, 4], 16); // U = [4,6)²: subtotal 16
        a.set(&[6, 6], 7); //  L leaf box, fully covered: 7
        a.set(&[7, 6], 5); //  N leaf box covering the target cell: 5
                           // Decoys outside the target region must not count.
        a.set(&[3, 7], 8); //  R's excluded column
        a.set(&[6, 7], 2); //  M leaf box
        a.set(&[7, 7], 9); //  O leaf box
        let e = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(0));
        let expect = a.prefix_sum(&target);
        assert_eq!(expect, 51 + 48 + 24 + 16 + 7 + 5);
        assert_eq!(e.prefix_sum(&target), 151);
    }

    /// Figure 12's update walk: changing the target cell from 5 to 6
    /// propagates the difference +1 through the path's subtotals and row
    /// sums, leaving every other region untouched.
    #[test]
    fn paper_figure12_update() {
        let shape = Shape::new(&[8, 8]);
        let mut a = NdArray::<i64>::zeroed(shape);
        a.set(&[7, 6], 5);
        a.set(&[0, 0], 51);
        let mut e = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(0));
        let old = e.set(&[7, 6], 6);
        assert_eq!(old, 5);
        assert_eq!(e.prefix_sum(&[7, 6]), 51 + 6);
        assert_eq!(e.prefix_sum(&[7, 7]), 51 + 6);
        assert_eq!(e.prefix_sum(&[7, 5]), 51); // untouched region
        assert_eq!(e.prefix_sum(&[6, 7]), 51);
        e.check_invariants();
    }

    /// The same Figure 11 cube, traced: the walkthrough's component
    /// values appear in visit order — Q's subtotal 51, R's row sum 48,
    /// S's row sum 24, the descent into T, U's subtotal 16, and the leaf
    /// cells L + N = 7 + 5 (our flat side-2 leaf blocks merge the paper's
    /// `k = 1` boxes into one step of value 12). Total 151.
    #[test]
    fn paper_figure11_trace_components() {
        use crate::{Contribution, DdcConfig};
        let shape = Shape::new(&[8, 8]);
        let mut a = NdArray::<i64>::zeroed(shape);
        a.set(&[0, 0], 51);
        a.set(&[0, 4], 48);
        a.set(&[4, 0], 24);
        a.set(&[4, 4], 16);
        a.set(&[6, 6], 7);
        a.set(&[7, 6], 5);
        a.set(&[3, 7], 8); // decoys outside the target region
        a.set(&[6, 7], 2);
        a.set(&[7, 7], 9);
        let e = DdcEngine::from_array_with(&a, DdcConfig::dynamic().with_elision(0));
        let steps = e.tree().trace_prefix(&[7, 6]);

        // Boxes are visited in index order (dimension-0 high bit first),
        // so S appears before R; the component multiset is the figure's.
        let values: Vec<i64> = steps
            .iter()
            .filter(|s| s.value != 0)
            .map(|s| s.value)
            .collect();
        assert_eq!(values, vec![51, 24, 48, 16, 12]);
        let total: i64 = steps.iter().map(|s| s.value).sum();
        assert_eq!(total, 151);

        // Kinds along the walkthrough match the paper's narration.
        assert!(matches!(steps[0].kind, Contribution::Subtotal)); // Q
        assert!(matches!(steps[1].kind, Contribution::RowSum { axis: 1 })); // S: cols full
        assert!(matches!(steps[2].kind, Contribution::RowSum { axis: 0 })); // R: rows full
        assert!(matches!(steps[3].kind, Contribution::Descend)); // into T
        assert_eq!(steps[3].box_anchor, vec![4, 4]);
        assert!(steps
            .iter()
            .any(|s| matches!(s.kind, Contribution::LeafCells { cells: 2 })));
    }

    #[test]
    fn matches_reference_on_non_power_shapes() {
        let a = NdArray::from_fn(Shape::new(&[5, 9]), |p| (p[0] * 9 + p[1]) as i64 % 7 - 3);
        let e = DdcEngine::from_array(&a);
        for p in a.shape().iter_points() {
            assert_eq!(e.prefix_sum(&p), a.prefix_sum(&p), "{p:?}");
        }
        let r = Region::new(&[1, 2], &[4, 7]);
        assert_eq!(e.range_sum(&r), a.region_sum(&r));
    }

    #[test]
    fn basic_and_dynamic_agree() {
        let a = NdArray::from_fn(Shape::new(&[8, 8]), |p| (p[0] ^ p[1]) as i64);
        let dynamic = DdcEngine::from_array_with(&a, DdcConfig::dynamic());
        let basic = DdcEngine::from_array_with(&a, DdcConfig::basic());
        for p in a.shape().iter_points() {
            assert_eq!(dynamic.prefix_sum(&p), basic.prefix_sum(&p));
        }
    }

    #[test]
    fn float_cube() {
        let a = NdArray::from_fn(Shape::new(&[4, 4]), |p| (p[0] as f64) * 0.5 + p[1] as f64);
        let e = DdcEngine::from_array(&a);
        assert_eq!(e.prefix_sum(&[3, 3]), a.prefix_sum(&[3, 3]));
    }

    #[test]
    fn engine_name_reflects_mode() {
        let d = DdcEngine::<i64>::dynamic(Shape::new(&[4, 4]));
        let b = DdcEngine::<i64>::basic(Shape::new(&[4, 4]));
        assert_eq!(d.name(), "dynamic-ddc");
        assert_eq!(b.name(), "basic-ddc");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_shape_queries() {
        let e = DdcEngine::<i64>::dynamic(Shape::new(&[4, 6]));
        let _ = e.prefix_sum(&[0, 6]);
    }
}
