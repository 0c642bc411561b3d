//! The primary tree of the Dynamic Data Cube (§3.2, §4.2), packed into
//! per-level slabs.
//!
//! A [`DdcTree`] recursively bisects the (power-of-two) data space. Each
//! node holds `2^d` **overlay boxes** of side `k` (half the node's side);
//! a box stores the **subtotal** of its region and `d` row-sum groups,
//! each `(d−1)`-dimensional (§3.1).
//!
//! Queries ([`DdcTree::prefix_sum`]) implement Figure 10: at each node,
//! every overlay box contributes at most one value —
//!
//! * nothing, if the target cell precedes the box in some dimension;
//! * its subtotal, if the target region covers the box entirely;
//! * one row-sum group value, if the target region cuts the box; or
//! * a recursive descent, for the single box that covers the target cell.
//!
//! A range sum ([`DdcTree::range_sum`]) is one walk, not Figure 4's
//! `2^d` signed prefix sums, whose upper-level reads almost all cancel.
//! At each node every box the region reaches is clipped to it and adds
//!
//! * its subtotal, if the region covers it;
//! * a range of one row-sum group over the other `d − 1` dimensions, if
//!   the region covers it in some but not all dimensions (a range walk
//!   in the level's forest, two words a row of a row-cumulative run, or
//!   Figure 4 over another inline run's own prefixes, whose far corner
//!   is the box's subtotal); or
//! * a recursive descent, if the region cuts it in every dimension — a
//!   leaf block then sums only the clipped cells.
//!
//! A region anchored at a node's origin is a prefix from there down and
//! finishes on the prefix walk, so `[0, x]` costs what `prefix_sum(x)`
//! does.
//!
//! Updates ([`DdcTree::apply_delta`]) implement Figure 12 bottom-up with
//! the difference value: one box per level absorbs the delta into its
//! subtotal and its `d` row-sum groups.
//!
//! ## Level slabs (DESIGN §43)
//!
//! Nodes, boxes and leaf blocks are not heap objects. Every record at
//! one depth has the same size — level `ℓ` holds the nodes of half-side
//! `k = side >> (ℓ+1)` — so each level owns two flat arrays (`arena`):
//!
//! ```text
//! slots: [ Slot{child, obox} × 2^d ]  per node   node n owns [n·2^d, (n+1)·2^d)
//! words: [ subtotal | face_0 | … | face_{d−1} ]  per box record `obox`
//!                     └ blocked: k raw values, then the Fenwick summary
//!                       over 16-value blocks (only when k > 16)
//!                     └ flat: k^(d−1) cumulative values
//!                     └ row-cumulative: k² values, row r cumulative
//!                       along the second cross coordinate (k ≤ 32)
//! ```
//!
//! A `Slot` is 8 bytes: a packed `ChildRef` (node id in the next level,
//! or leaf-block id) and the id of the box record covering that child.
//! A row-sum group is stored in one of two ways, decided once per level
//! (`Level::new`) from its rank and side. It is a **face run written in
//! place** in `words` when a slice kernel can drive it — the
//! one-dimensional groups of the default blocked B^c layout (d = 2,
//! Dynamic mode, `BaseStore::Blocked`; `ddc_btree::blocked`), the Basic
//! mode's flat cumulative arrays at any rank (`flat_face`), and, under
//! the blocked base with the derived leaf side, the two-dimensional
//! groups of side ≤ 32 of a three-dimensional level (`row_cum`: a
//! prefix reads one word a row, a range two, an add writes the rest of
//! one row) — so one update or query touches one contiguous record per
//! level, with no pointer to follow. Every other group is a **tree in
//! the level's forest** (next section). Runs and trees both stay
//! because each wins on its own input. A one-dimensional inline blocked
//! run measured 2.5–2.8× faster updates, 1.2–2× faster prefix sums and
//! 2.4–3× less heap on clustered data than a pointer B^c tree or a
//! Fenwick array kept out of line, while on a wide, sparsely populated
//! space it pays `k` words per face next to the root (500 isolated
//! points in 131072²: 133 MiB against 4.4 MiB for the lazy trees of
//! `BaseStore::Lazy`; EXPERIMENTS §4.4 and §5). A row-cumulative run
//! cut the values a prefix sum reads at 64³ from 594 to 164 and its
//! time by ~45 %, for 92 values written per update instead of 22; past
//! side 32 its `k²` words stop paying (EXPERIMENTS "Row-cumulative
//! groups").
//! Dense leaf blocks are `leaf_side^d`-cell runs of one flat `Vec` (the
//! same runs on pages once [`DdcTree::enable_paging`] has run).
//!
//! ## One forest per level
//!
//! §4.2 stores the row-sum groups of a d-dimensional box "as
//! (d−1)-dimensional data cubes, recursively". Every group of one level
//! has the same shape — `d − 1` dimensions of side `k` — so the
//! secondary trees of a level are not objects either: the slabs of a
//! tree (`Slabs`: its levels and leaf arena) hold **any number of trees
//! of one shape**, a tree is nothing but a root `ChildRef` into them,
//! and every walk (`prefix_counted`, `add_counted`, `mark_reachable`)
//! starts from a root its caller supplies. A [`DdcTree`] is slabs plus
//! one root; a level whose groups are not inline runs owns, beside
//! `slots` and `words`,
//!
//! ```text
//! roots: [ root_0 | … | root_{d−1} ]  per box record     4 bytes each,
//!          │                          `EMPTY` until the group's first
//!          ▼                          non-zero value
//! forest: Slabs { d − 1, side k }     one per level, created with the
//!   levels[0]  slots | words          level's first root; holds the
//!   levels[1]  slots | words          nodes, box records and leaf
//!   …                                 blocks of all boxes · d secondary
//!   leaves     k_leaf^{d−1}-cell runs trees of this level
//! ```
//!
//! so the 98 304 bottom-level groups of a full (`h = 0`) 64³ tree are
//! 98 304 four-cell runs of one array instead of as many heap-allocated
//! trees. Under the derived leaf side that cube has no forest at all:
//! its side-8, -16 and -32 groups are row-cumulative runs, and at 128³
//! only the root level's side-64 groups are trees (one node above four
//! 16 × 16 leaf runs each). The forest of a d = 3 level is
//! two-dimensional, i.e. its faces are the one-dimensional inline runs
//! above; at d ≥ 4 a forest's levels own forests of their own — or, at
//! rank 3 and side ≤ 32, row-cumulative runs — and the recursion of
//! §4.2 falls out. Under `BaseStore::Lazy` it runs one
//! step further, to where it ends by itself: the groups of a
//! two-dimensional level are one-dimensional trees of side `k`, and a
//! one-dimensional tree has no row-sum groups — its box records are
//! one subtotal each above 16-cell leaf runs, a prefix adds one
//! subtotal per level where the target is in the high half, and there
//! are nodes only along update paths. Nothing else is out of line.
//!
//! Box records are allocated **per box**, not per node: a node's slots
//! exist as soon as the node does (8 bytes each), but a box's words are
//! claimed only when the first non-zero value lands in its region, so an
//! empty quadrant of a populated node still costs nothing — §5's
//! sparsity guarantee is unchanged by the packing. [`DdcTree::grow`]
//! inserts a fresh level at the front; ids in every other level stay
//! valid.
//!
//! Descent (`descent`) is an index walk over those arrays, and box
//! classification is branchless: the boxes contributing to a prefix
//! query at a node are exactly the submasks of the "high-half" bitmask
//! of the target coordinates, so the query enumerates submasks and
//! mask-selects the cross coordinates instead of testing per-dimension
//! statuses. The prefix, range and update walks are compiled once per
//! rank up to [`MAX_RANK`], with their coordinates in `[usize; D]`
//! locals: every tree fixes its rank at construction, and a call picks
//! its walk once, where it enters the slabs. Costs are accumulated in
//! locals and the [`OpCounter`] is bumped once per operation.
//!
//! The slabs are append-only: a record, once allocated, stays for the
//! tree's lifetime, even when cancelling updates bring its region back
//! to zero. A snapshot holds only the populated cells, so saving and
//! reloading is what reclaims that storage.
//! [`DdcTree::check_arena`] audits this bookkeeping (every allocated
//! record reached exactly once, no dangling references). A tree
//! receives content one way, the point update
//! ([`DdcTree::apply_delta`]); growth (in `grow`) re-roots it. Slabs are
//! only ever filled in place, so there is no operation that appends one
//! tree's slabs to another's.
//!
//! Additional paper features carried by this type:
//!
//! * **Level elision (§4.4)** — the `h` lowest levels are replaced by
//!   dense leaf blocks of side `2^{h+1}`, shrinking storage toward
//!   `|A|` at the cost of summing at most `2^{(h+1)d}` leaf cells per
//!   query. It is on by default, sized from the tree's own rank rather
//!   than by an `h` ([`DdcConfig::leaf_block_side`]: at most 512 cells a
//!   block, rows of at most 16) — a short contiguous scan is cheaper
//!   than the levels it replaces — so a 3-d tree has side-8 blocks and
//!   the 2-d trees of its forests side-16 ones; `with_elision(0)` is the
//!   full tree the paper counts.
//! * **Sparsity (§5)** — nodes, boxes, and secondary trees
//!   materialize lazily; an all-zero region costs nothing.
//! * **Growth (§5)** — [`DdcTree::grow`] doubles the space in one step by
//!   re-rooting: the old root becomes one child of a fresh root, and only
//!   the new root-level overlay box is rebuilt (cost proportional to the
//!   populated cells, not the space).

pub use ddc_array::MAX_RANK;

/// Evaluates `$body` with the constant `$D` bound to the rank `$d`
/// (`1..=MAX_RANK`): the one place a walk's rank turns from a runtime
/// value into a compile-time one.
macro_rules! with_rank {
    ($d:expr, $D:ident => $body:expr) => {
        with_rank!(@arms $d, $D, $body, 1 2 3 4 5 6 7 8)
    };
    (@arms $d:expr, $D:ident, $body:expr, $($rank:literal)*) => {
        match $d {
            $($rank => {
                const $D: usize = $rank;
                $body
            })*
            d => unreachable!("rank {d} outside 1..=MAX_RANK"),
        }
    };
}
const _: () = assert!(MAX_RANK == 8, "with_rank! has one arm per rank");

mod arena;
mod descent;
mod grow;

use ddc_array::{AbelianGroup, OpCounter, OpSnapshot};

use crate::config::DdcConfig;
use crate::store::LeafArena;
use arena::Level;
pub use grow::MAX_SIDE;

/// Tag bit distinguishing leaf-arena from node-slab references.
const LEAF_BIT: u32 = 1 << 31;

/// Packed reference to a child: empty, a node id in the next level's
/// slab, or a leaf-arena id (tagged with [`LEAF_BIT`]). `u32::MAX` is
/// the empty sentinel — it has the leaf bit set, so emptiness must be
/// checked before the leaf tag.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct ChildRef(u32);

impl ChildRef {
    const EMPTY: ChildRef = ChildRef(u32::MAX);

    fn node(ix: u32) -> Self {
        assert!(ix < LEAF_BIT, "node arena overflow");
        ChildRef(ix)
    }

    fn leaf(ix: u32) -> Self {
        assert!(ix < LEAF_BIT - 1, "leaf arena overflow");
        ChildRef(ix | LEAF_BIT)
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.0 == u32::MAX
    }

    #[inline]
    fn is_leaf(self) -> bool {
        !self.is_empty() && self.0 & LEAF_BIT != 0
    }

    /// Arena index, valid for non-empty references only.
    #[inline]
    fn index(self) -> usize {
        (self.0 & !LEAF_BIT) as usize
    }
}

/// How one overlay box contributed to a traced query (Figure 11's
/// per-box walkthrough, machine-readable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Contribution {
    /// Target region covers the box entirely: its subtotal was added.
    Subtotal,
    /// Target region cuts the box: a row-sum group value was added
    /// (the group's axis is recorded).
    RowSum {
        /// The dimension whose group answered.
        axis: usize,
    },
    /// The box covers the target cell: the query descended into it.
    Descend,
    /// Cells summed directly from a leaf block (§4.4 elided levels).
    LeafCells {
        /// Number of raw cells added.
        cells: usize,
    },
}

/// One step of a traced prefix query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep<G> {
    /// Tree depth (0 = root node).
    pub level: usize,
    /// Anchor of the overlay box (or leaf block) that contributed.
    pub box_anchor: Vec<usize>,
    /// Side `k` of the box.
    pub box_side: usize,
    /// What the box contributed.
    pub kind: Contribution,
    /// The value added to the running total (zero for `Descend`).
    pub value: G,
}

/// Structural statistics of one tree (see [`DdcTree::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Materialized interior nodes.
    pub nodes: usize,
    /// Materialized overlay boxes.
    pub boxes: usize,
    /// Materialized dense leaf blocks.
    pub leaf_blocks: usize,
    /// Raw cells held by leaf blocks.
    pub leaf_cells: usize,
    /// Side of the primary tree's dense leaf blocks — what
    /// [`DdcConfig::leaf_block_side`] resolved to for this rank, or the
    /// whole space while that is smaller.
    pub leaf_side: usize,
    /// Heap bytes attributable to secondary (row-sum) structures.
    pub secondary_bytes: usize,
    /// Total heap bytes of the tree.
    pub total_bytes: usize,
    /// Deepest materialized level (root node = 0).
    pub depth: usize,
    /// Per-level breakdown, index = level.
    pub per_level: Vec<LevelStats>,
}

/// One level's slice of [`TreeStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Region side covered by children at this level.
    pub side: usize,
    /// Interior nodes at this level.
    pub nodes: usize,
    /// Overlay boxes at this level.
    pub boxes: usize,
    /// Dense leaf blocks at this level.
    pub leaf_blocks: usize,
}

/// The slabs of one tree shape: the nodes, box records and leaf blocks
/// of any number of trees over `[0, side)^d`. A tree is a root
/// [`ChildRef`] into them, held by whoever owns the tree — a
/// [`DdcTree`] for the primary tree, the `roots` of a level for the
/// secondary trees of its boxes — and passed to every walk.
#[derive(Debug)]
pub(crate) struct Slabs<G: AbelianGroup> {
    d: usize,
    side: usize,
    config: DdcConfig,
    /// One slab per interior depth, root level first: `levels[ℓ]` holds
    /// the nodes of half-side `side >> (ℓ+1)`; the last level's children
    /// are leaf blocks. Empty while the whole space is one leaf block.
    levels: Vec<Level<G>>,
    /// Leaf-block arena, indexed by [`ChildRef::leaf`] ids — flat
    /// in-memory slab by default; the primary tree's is paged once
    /// `enable_paging` has run.
    leaves: LeafArena<G>,
}

impl<G: AbelianGroup> Slabs<G> {
    /// Empty slabs for trees covering `[0, side)^d`. Costs one empty
    /// [`Level`] per depth: a level's forest is created with its first
    /// root, not here.
    fn new(d: usize, side: usize, config: DdcConfig) -> Self {
        assert!(matches!(d, 1..=MAX_RANK), "rank {d} outside 1..={MAX_RANK}");
        assert!(side.is_power_of_two(), "side {side} must be a power of two");
        let leaf_side = config.leaf_block_side(d).min(side);
        let mut levels = Vec::new();
        let mut k = side >> 1;
        while k >= leaf_side {
            levels.push(Level::new(d, k, &config));
            k >>= 1;
        }
        Self {
            d,
            side,
            config,
            levels,
            leaves: LeafArena::new(leaf_side.pow(d as u32)),
        }
    }

    /// Box slots per node.
    #[inline]
    fn stride(&self) -> usize {
        1 << self.d
    }

    /// Side of the dense leaf blocks: boxes of this side hold raw cells
    /// instead of child nodes (§4.4); the whole space while it is
    /// smaller than one configured block.
    fn leaf_side(&self) -> usize {
        self.config.leaf_block_side(self.d).min(self.side)
    }
}

/// The Dynamic Data Cube's primary tree over a `d`-dimensional space of
/// power-of-two side.
#[derive(Debug)]
pub struct DdcTree<G: AbelianGroup> {
    slabs: Slabs<G>,
    root: ChildRef,
    counter: OpCounter,
}

impl<G: AbelianGroup> DdcTree<G> {
    /// An empty (all-zero) tree covering `[0, side)^d`.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not a power of two, `d == 0` or
    /// `d > MAX_RANK`.
    pub fn new(d: usize, side: usize, config: DdcConfig) -> Self {
        Self {
            slabs: Slabs::new(d, side, config),
            root: ChildRef::EMPTY,
            counter: OpCounter::new(),
        }
    }

    /// Dimensionality `d`.
    pub fn ndim(&self) -> usize {
        self.slabs.d
    }

    /// Covered side length (power of two).
    pub fn side(&self) -> usize {
        self.slabs.side
    }

    /// The construction configuration.
    pub fn config(&self) -> &DdcConfig {
        &self.slabs.config
    }

    /// The tree's operation counter.
    pub fn counter(&self) -> &OpCounter {
        &self.counter
    }

    /// Snapshot of the operation counter.
    pub fn ops(&self) -> OpSnapshot {
        self.counter.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DdcConfig;
    use ddc_array::{NdArray, Shape};

    // These tests pin the shape and the walks of the full tree on cubes
    // of side 4 to 256, most of which the derived leaf side would store
    // as one or two blocks: every configuration states `h = 0` unless
    // the test is about elision.
    fn dynamic() -> DdcConfig {
        DdcConfig::dynamic().with_elision(0)
    }
    fn basic() -> DdcConfig {
        DdcConfig::basic().with_elision(0)
    }
    fn sparse() -> DdcConfig {
        DdcConfig::sparse().with_elision(0)
    }

    fn reference_and_tree(
        side: usize,
        d: usize,
        config: DdcConfig,
        updates: &[(Vec<usize>, i64)],
    ) -> (NdArray<i64>, DdcTree<i64>) {
        let mut a = NdArray::<i64>::zeroed(Shape::cube(d, side));
        let mut t = DdcTree::<i64>::new(d, side, config);
        for (p, delta) in updates {
            a.add_assign(p, *delta);
            t.apply_delta(p, *delta);
        }
        (a, t)
    }

    fn assert_all_prefixes(a: &NdArray<i64>, t: &DdcTree<i64>) {
        for p in a.shape().iter_points() {
            assert_eq!(t.prefix_sum(&p), a.prefix_sum(&p), "prefix {p:?}");
        }
    }

    fn dense_updates(side: usize, d: usize) -> Vec<(Vec<usize>, i64)> {
        Shape::cube(d, side)
            .iter_points()
            .enumerate()
            .map(|(i, p)| (p, (i as i64 * 31 % 17) - 8))
            .collect()
    }

    #[test]
    fn dense_2d_dynamic_matches_reference() {
        let (a, t) = reference_and_tree(8, 2, dynamic(), &dense_updates(8, 2));
        assert_all_prefixes(&a, &t);
        assert_eq!(t.check_invariants(), a.total());
    }

    #[test]
    fn dense_2d_basic_matches_reference() {
        let (a, t) = reference_and_tree(8, 2, basic(), &dense_updates(8, 2));
        assert_all_prefixes(&a, &t);
    }

    #[test]
    fn dense_3d_matches_reference() {
        for config in [dynamic(), basic(), sparse()] {
            let (a, t) = reference_and_tree(8, 3, config, &dense_updates(8, 3));
            assert_all_prefixes(&a, &t);
            assert_eq!(t.check_invariants(), a.total());
        }
    }

    #[test]
    fn dense_4d_matches_reference() {
        let (a, t) = reference_and_tree(4, 4, dynamic(), &dense_updates(4, 4));
        assert_all_prefixes(&a, &t);
    }

    #[test]
    fn stats_profile_matches_structure() {
        let (a, t) = reference_and_tree(16, 2, dynamic(), &dense_updates(16, 2));
        let s = t.stats();
        // Dense 16² tree, h = 0: nodes at sides 16, 8, 4; leaf blocks of
        // side 2 under the side-4 nodes.
        assert_eq!(s.per_level[0].nodes, 1);
        assert_eq!(s.per_level[0].side, 16);
        assert_eq!(s.per_level[1].nodes, 4);
        assert_eq!(s.per_level[2].nodes, 16);
        assert_eq!(s.per_level[3].leaf_blocks, 64);
        assert_eq!(s.leaf_cells, 256);
        assert_eq!(s.leaf_side, 2);
        assert_eq!(s.nodes, 21);
        assert_eq!(s.boxes, 21 * 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.total_bytes, t.heap_bytes());
        assert!(s.secondary_bytes > 0 && s.secondary_bytes < s.total_bytes);
        let _ = a;
        // Sparse tree: statistics shrink to the populated paths.
        let mut sparse = DdcTree::<i64>::new(2, 16, sparse());
        sparse.apply_delta(&[0, 0], 1);
        let ss = sparse.stats();
        assert_eq!(ss.nodes, 3);
        assert_eq!(ss.boxes, 3);
        assert_eq!(ss.leaf_blocks, 1);
    }

    #[test]
    fn five_dimensional_recursion() {
        // d = 5 exercises four levels of secondary-tree recursion
        // (4-D → 3-D → 2-D → 1-D B^c trees).
        let (a, t) = reference_and_tree(4, 5, dynamic(), &dense_updates(4, 5));
        for p in [[0usize; 5], [3; 5], [1, 2, 3, 0, 2], [3, 0, 3, 0, 3]] {
            assert_eq!(t.prefix_sum(&p), a.prefix_sum(&p), "{p:?}");
        }
        assert_eq!(t.check_invariants(), a.total());
    }

    #[test]
    fn one_dimensional_tree() {
        let (a, t) = reference_and_tree(16, 1, dynamic(), &dense_updates(16, 1));
        assert_all_prefixes(&a, &t);
        assert_eq!(t.total(), a.total());
    }

    #[test]
    fn elided_levels_match_reference() {
        let explicit = (0..=3).map(|h| (DdcConfig::dynamic().with_elision(h), 2 << h));
        // The derived default: side-16 blocks at d = 2, so a 32² tree
        // keeps one level above them.
        for (config, leaf_side) in explicit.chain([(DdcConfig::dynamic(), 16)]) {
            let (a, t) = reference_and_tree(32, 2, config, &dense_updates(32, 2));
            assert_eq!(t.stats().leaf_side, leaf_side);
            assert_eq!(t.stats().depth, 5 - leaf_side.ilog2() as usize);
            assert_all_prefixes(&a, &t);
            assert_eq!(t.check_invariants(), a.total());
        }
    }

    #[test]
    fn elision_shrinks_storage() {
        let updates = dense_updates(32, 2);
        let sizes: Vec<usize> = (0..=3)
            .map(|h| {
                let config = DdcConfig::dynamic().with_elision(h);
                let (_, t) = reference_and_tree(32, 2, config, &updates);
                t.heap_bytes()
            })
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[1] < w[0]),
            "heap bytes should fall as h grows: {sizes:?}"
        );
    }

    #[test]
    fn blocked_and_seg_bases_match() {
        for config in [dynamic(), sparse()] {
            let (a, t) = reference_and_tree(16, 2, config, &dense_updates(16, 2));
            assert_all_prefixes(&a, &t);
        }
    }

    #[test]
    fn slot_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<arena::Slot>(), 8);
    }

    /// Slab index arithmetic would turn an out-of-range coordinate into
    /// a wrong sum, so the guard must hold in release builds too.
    #[test]
    #[should_panic(expected = "outside side 8")]
    fn prefix_sum_rejects_out_of_range_coordinates() {
        let mut t = DdcTree::<i64>::new(2, 8, dynamic());
        t.apply_delta(&[7, 7], 1);
        let _ = t.prefix_sum(&[8, 0]);
    }

    #[test]
    fn empty_tree_reads_zero_everywhere() {
        let t = DdcTree::<i64>::new(3, 16, dynamic());
        assert_eq!(t.prefix_sum(&[15, 15, 15]), 0);
        assert_eq!(t.cell(&[3, 4, 5]), 0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.populated_cells(), 0);
    }

    #[test]
    fn cell_reads_match_updates() {
        let updates = dense_updates(8, 2);
        let (a, t) = reference_and_tree(8, 2, dynamic(), &updates);
        for p in a.shape().iter_points() {
            assert_eq!(t.cell(&p), a.get(&p), "cell {p:?}");
        }
    }

    #[test]
    fn sparse_population_costs_little_memory() {
        let mut dense = DdcTree::<i64>::new(2, 1024, sparse());
        dense.apply_delta(&[3, 900], 5);
        dense.apply_delta(&[800, 2], -9);
        let sparse_bytes = dense.heap_bytes();
        // The dense space would be 1024² cells = 8 MiB of i64 alone.
        assert!(
            sparse_bytes < 200_000,
            "sparse cube used {sparse_bytes} bytes"
        );
        assert_eq!(dense.prefix_sum(&[1023, 1023]), -4);
        assert_eq!(dense.populated_cells(), 2);
    }

    #[test]
    fn growth_high_preserves_content() {
        let mut t = DdcTree::<i64>::new(2, 8, dynamic());
        let updates = dense_updates(8, 2);
        let mut a = NdArray::<i64>::zeroed(Shape::cube(2, 16));
        for (p, delta) in &updates {
            t.apply_delta(p, *delta);
            a.add_assign(p, *delta);
        }
        t.grow(&[false, false]);
        assert_eq!(t.side(), 16);
        t.apply_delta(&[12, 15], 100);
        a.add_assign(&[12, 15], 100);
        assert_all_prefixes(&a, &t);
        assert_eq!(t.check_invariants(), a.total());
    }

    #[test]
    fn growth_low_shifts_content() {
        let mut t = DdcTree::<i64>::new(2, 4, dynamic());
        t.apply_delta(&[0, 0], 7);
        t.apply_delta(&[3, 3], 2);
        t.grow(&[true, false]); // dim 0 grows low: content shifts up by 4
        assert_eq!(t.cell(&[4, 0]), 7);
        assert_eq!(t.cell(&[7, 3]), 2);
        assert_eq!(t.cell(&[0, 0]), 0);
        assert_eq!(t.prefix_sum(&[7, 7]), 9);
        assert_eq!(t.check_invariants(), 9);
    }

    #[test]
    fn growth_of_empty_tree_is_free() {
        let mut t = DdcTree::<i64>::new(3, 4, dynamic());
        t.grow(&[true, true, true]);
        assert_eq!(t.side(), 8);
        assert_eq!(t.total(), 0);
        t.apply_delta(&[7, 7, 7], 1);
        assert_eq!(t.prefix_sum(&[7, 7, 7]), 1);
    }

    #[test]
    fn repeated_growth_stays_consistent() {
        let mut t = DdcTree::<i64>::new(2, 4, sparse());
        t.apply_delta(&[1, 1], 10);
        for step in 0..4 {
            t.grow(&[step % 2 == 0, step % 2 == 1]);
        }
        assert_eq!(t.side(), 64);
        // Shifts: dim0 grew low at steps 0,2 (+4, +16); dim1 at 1,3 (+8, +32).
        assert_eq!(t.cell(&[1 + 4 + 16, 1 + 8 + 32]), 10);
        assert_eq!(t.total(), 10);
        assert_eq!(t.check_invariants(), 10);
    }

    #[test]
    fn for_each_nonzero_reports_cells() {
        let mut t = DdcTree::<i64>::new(2, 16, dynamic());
        t.apply_delta(&[2, 3], 5);
        t.apply_delta(&[10, 0], -1);
        let mut seen = Vec::new();
        t.for_each_nonzero(&mut |p, v| seen.push((p.to_vec(), v)));
        seen.sort();
        assert_eq!(seen, vec![(vec![2, 3], 5), (vec![10, 0], -1)]);
    }

    #[test]
    fn cancelling_update_keeps_queries_correct() {
        let mut t = DdcTree::<i64>::new(2, 8, dynamic());
        t.apply_delta(&[4, 4], 5);
        t.apply_delta(&[4, 4], -5);
        assert_eq!(t.prefix_sum(&[7, 7]), 0);
        assert_eq!(t.cell(&[4, 4]), 0);
    }

    #[test]
    fn update_cost_is_polylogarithmic() {
        let mut t = DdcTree::<i64>::new(2, 256, dynamic());
        // Warm the path so materialization costs are excluded.
        t.apply_delta(&[0, 0], 1);
        t.counter().reset();
        t.apply_delta(&[0, 0], 1);
        let w = t.ops().writes;
        // log2(256) = 8 levels × (1 subtotal + 2 B^c paths of ≤ ~2·log k).
        assert!(w <= 8 * 40, "update wrote {w} values");
        // …versus the Basic tree, which cascades O(n) at the root.
        let mut b = DdcTree::<i64>::new(2, 256, basic());
        b.apply_delta(&[0, 0], 1);
        b.counter().reset();
        b.apply_delta(&[0, 0], 1);
        assert!(
            b.ops().writes > w,
            "basic ({}) should exceed dynamic ({w})",
            b.ops().writes
        );
    }

    #[test]
    fn query_cost_is_polylogarithmic() {
        let mut t = DdcTree::<i64>::new(2, 256, dynamic());
        for (p, v) in dense_updates(16, 2) {
            t.apply_delta(&[p[0] * 16, p[1] * 16], v);
        }
        t.counter().reset();
        let _ = t.prefix_sum(&[255, 255]);
        let r = t.ops().reads;
        assert!(r <= 8 * 3 * 20, "query read {r} values");
    }

    #[test]
    fn arena_stays_sound_through_grow_and_update_cycles() {
        let mut t = DdcTree::<i64>::new(2, 8, dynamic());
        let mut a = NdArray::<i64>::zeroed(Shape::cube(2, 32));
        for (step, (p, v)) in dense_updates(8, 2).into_iter().enumerate() {
            t.apply_delta(&p, v);
            a.add_assign(&p, v);
            if step % 17 == 0 {
                t.check_arena();
            }
        }
        t.grow(&[false, false]);
        t.check_arena();
        t.grow(&[true, true]);
        t.check_arena();
        // One high grow then one low grow shifts content by 16 (the
        // side at the low grow) in both dims.
        for p in [[0usize, 0], [31, 31], [16, 16], [23, 8]] {
            let shifted = [p[0].wrapping_sub(16), p[1].wrapping_sub(16)];
            let expect = if shifted[0] < 32 && shifted[1] < 32 {
                a.get(&shifted)
            } else {
                0
            };
            assert_eq!(t.cell(&p), expect, "cell {p:?}");
        }
        assert_eq!(t.check_invariants(), a.total());
        // Cancel everything: the structure stays, reads zero, and the
        // arena stays consistent.
        let before = t.stats();
        let mut cells = Vec::new();
        t.for_each_nonzero(&mut |p, v| cells.push((p.to_vec(), v)));
        for (p, v) in cells {
            t.apply_delta(&p, -v);
        }
        t.check_arena();
        assert_eq!(t.total(), 0);
        assert_eq!(t.check_invariants(), 0);
        assert_eq!(t.stats(), before);
    }

    #[test]
    fn paged_tree_matches_slab_through_full_lifecycle() {
        use crate::config::PagerConfig;
        // Cap far below the leaf data so the walk below churns through
        // real evictions, with a tiny page size to multiply traffic.
        let pager = PagerConfig::in_mem(2048).with_page_bytes(128);
        let config = DdcConfig::dynamic()
            .with_elision(1)
            .with_paged_leaves(pager);
        let mut paged = DdcTree::<i64>::new(2, 32, config);
        assert!(paged.enable_paging().unwrap());
        assert!(paged.is_paged());
        assert!(paged.enable_paging().unwrap(), "must be idempotent");
        let mut slab = DdcTree::<i64>::new(2, 32, DdcConfig::dynamic().with_elision(1));
        let mut a = NdArray::<i64>::zeroed(Shape::cube(2, 32));
        for i in 0..600usize {
            let p = [(i * 7) % 32, (i * 13) % 32];
            let v = (i as i64 % 9) - 4;
            paged.apply_delta(&p, v);
            slab.apply_delta(&p, v);
            a.add_assign(&p, v);
        }
        for p in [[0usize, 0], [31, 31], [15, 16], [7, 29]] {
            assert_eq!(paged.prefix_sum(&p), a.prefix_sum(&p), "prefix {p:?}");
            assert_eq!(paged.cell(&p), slab.cell(&p), "cell {p:?}");
        }
        assert_eq!(paged.check_invariants(), a.total());
        paged.check_arena();
        let stats = paged.pool_stats().expect("paged tree has pool stats");
        assert!(
            stats.evictions > 0,
            "cap too generous to exercise eviction: {stats:?}"
        );
        // Growth re-roots in place, so the paged arena must survive it.
        paged.grow(&[false, false]);
        slab.grow(&[false, false]);
        assert!(paged.is_paged(), "growth must not drop the paged arena");
        paged.apply_delta(&[40, 40], 11);
        slab.apply_delta(&[40, 40], 11);
        assert_eq!(paged.total(), slab.total());
        assert_eq!(paged.prefix_sum(&[63, 63]), slab.prefix_sum(&[63, 63]));
        // Cancel everything: every block on pages reads zero again.
        let mut cells = Vec::new();
        paged.for_each_nonzero(&mut |p, v| cells.push((p.to_vec(), v)));
        for (p, v) in cells {
            paged.apply_delta(&p, -v);
        }
        paged.check_arena();
        assert_eq!(paged.total(), 0);
        assert_eq!(paged.check_invariants(), 0);
        assert_eq!(paged.populated_cells(), 0);
    }
}
