//! The hot path of a [`DdcTree`]: Figure 10's prefix query, the range
//! walk, Figure 12's update, and the read-only walks (cell reads,
//! traces, enumeration, the invariant check) — all index walks over the
//! level slabs.
//!
//! The walks that secondary trees share with the primary one are
//! methods of [`Slabs`] and start from a root the caller supplies; the
//! rest are [`DdcTree`]'s own. Costs are accumulated in a local
//! [`OpSnapshot`] and the tree's [`ddc_array::OpCounter`] is bumped once
//! per operation: the `_counted` walks only add to the snapshot they are
//! handed, which is how a level's forest reports into the operation of
//! the tree that owns it.

use ddc_array::{AbelianGroup, OpSnapshot};

use super::arena::NO_BOX;
use super::{ChildRef, Contribution, DdcTree, Slabs, TraceStep};

/// `x` as a point of rank `D`; the entry points check the rank first.
#[inline]
fn rank<const D: usize>(x: &[usize]) -> [usize; D] {
    std::array::from_fn(|i| x[i])
}

/// Row-major offset of the block-local point `rel` in a leaf block of
/// the given side.
#[inline]
fn leaf_offset(side: usize, rel: &[usize]) -> usize {
    rel.iter().fold(0, |at, &r| at * side + r)
}

/// Adds the cells of the block-local prefix region ending at `rel` onto
/// `acc`, in row-major order — the "sum the appropriate leaf cells" step
/// of §4.4 as nested loops. `rows` are the block's rows `0..=rel[0]`,
/// each a `plane`-cell block one rank down (what [`LeafArena::rows`]
/// hands out), so the scan reads only the rows it needs. Two dimensions
/// are a loop of their own rather than one more recursion step: that is
/// every leaf of a d = 2 tree and of a d = 3 level's forest, and most of
/// a prefix query's reads under the derived leaf side (traced
/// `tree.prefix_ns` moved with it on both core workloads; EXPERIMENTS
/// "§4.4, timed").
///
/// [`LeafArena::rows`]: crate::store::LeafArena::rows
fn add_leaf_prefix<G: AbelianGroup>(
    rows: &[G],
    plane: usize,
    side: usize,
    rel: &[usize],
    acc: G,
) -> G {
    match *rel {
        [] | [_] => rows.iter().fold(acc, |acc, &v| acc.add(v)), // `[]`: exhaustiveness only
        [_, r1] => rows.chunks_exact(side).fold(acc, |acc, row| {
            row[..=r1].iter().fold(acc, |acc, &v| acc.add(v))
        }),
        [_, ref rest @ ..] => {
            let sub = plane >> side.trailing_zeros();
            rows.chunks_exact(plane).fold(acc, |acc, block| {
                add_leaf_prefix(&block[..(rest[0] + 1) * sub], sub, side, rest, acc)
            })
        }
    }
}

/// [`add_leaf_prefix`] for the block-local box `[lo, hi]`: a range
/// walk's boundary leaf block, whose rows `lo[0]..=hi[0]` are `rows`.
/// The prefix scan keeps its own kernel: routed through this one,
/// traced `tree.prefix_ns` on `core_d3_query` rose by about a tenth.
fn add_leaf_region<G: AbelianGroup>(
    rows: &[G],
    plane: usize,
    side: usize,
    lo: &[usize],
    hi: &[usize],
    acc: G,
) -> G {
    match (lo, hi) {
        (&[_], &[_]) => rows.iter().fold(acc, |acc, &v| acc.add(v)),
        (&[_, a1], &[_, b1]) => rows.chunks_exact(side).fold(acc, |acc, row| {
            row[a1..=b1].iter().fold(acc, |acc, &v| acc.add(v))
        }),
        ([_, lo_rest @ ..], [_, hi_rest @ ..]) => {
            let sub = plane >> side.trailing_zeros();
            let cut = lo_rest[0] * sub..(hi_rest[0] + 1) * sub;
            rows.chunks_exact(plane).fold(acc, |acc, block| {
                add_leaf_region(&block[cut.clone()], sub, side, lo_rest, hi_rest, acc)
            })
        }
        _ => acc,
    }
}

impl<G: AbelianGroup> Slabs<G> {
    fn check_point(&self, x: &[usize]) {
        assert_eq!(x.len(), self.d, "point rank does not match the tree");
        assert!(
            x.iter().all(|&c| c < self.side),
            "{x:?} outside side {}",
            self.side
        );
    }

    /// The prefix sum at `x` of the tree rooted at `root`
    /// ([`DdcTree::prefix_sum`] documents the walk), with the cost added
    /// to `ops`.
    pub(super) fn prefix_counted(&self, root: ChildRef, x: &[usize], ops: &mut OpSnapshot) -> G {
        self.check_point(x);
        with_rank!(self.d, D => self.prefix_walk::<D>(root, 0, &rank(x), ops))
    }

    /// The prefix walk of [`Slabs::prefix_counted`] from `root`, a child
    /// at depth `l`, to the point `x` in its own coordinates — where the
    /// range walk hands over once its box starts at a node's origin.
    #[inline]
    fn prefix_walk<const D: usize>(
        &self,
        root: ChildRef,
        l: usize,
        x: &[usize; D],
        ops: &mut OpSnapshot,
    ) -> G {
        let all_mask = (1usize << D) - 1;
        let mut rel = *x;
        let mut cross = [0usize; D];
        let mut cur = root;
        let mut acc = G::ZERO;
        for level in &self.levels[l..] {
            if cur.is_empty() {
                return acc;
            }
            let k = level.k;
            let base = cur.index() << D;
            let mut h_mask = 0usize;
            for (i, r) in rel.iter().enumerate() {
                h_mask |= usize::from(*r >= k) << i;
            }
            // Ascending submask enumeration of h_mask; the final
            // submask (h_mask itself) is the descend box, handled
            // after the loop so its subtotal never contributes.
            let mut s = 0usize;
            while s != h_mask {
                let obox = level.slots[base + s].obox;
                if obox != NO_BOX {
                    let full = h_mask & !s;
                    if full == all_mask {
                        ops.reads += 1;
                        acc = acc.add(level.subtotal(obox));
                    } else {
                        let j = full.trailing_zeros() as usize;
                        let mut w = 0;
                        for (i, r) in rel.iter().enumerate() {
                            if i == j {
                                continue;
                            }
                            let f = ((full >> i) & 1).wrapping_neg();
                            cross[w] = ((k - 1) & f) | (*r & (k - 1) & !f);
                            w += 1;
                        }
                        acc = acc.add(level.face_prefix(obox, j, &cross[..D - 1], ops));
                    }
                }
                s = s.wrapping_sub(h_mask) & h_mask;
            }
            cur = level.slots[base + h_mask].child;
            for r in &mut rel {
                *r &= k - 1;
            }
        }
        if cur.is_empty() {
            return acc;
        }
        ops.reads += rel.iter().map(|&r| r as u64 + 1).product::<u64>();
        let side = self.leaf_side();
        let plane = self.leaves.run_len() >> side.trailing_zeros();
        acc.add(
            self.leaves
                .rows(cur.index() as u32, plane, 0, rel[0], |rows| {
                    add_leaf_prefix(rows, plane, side, &rel, G::ZERO)
                }),
        )
    }

    /// The sum over the closed box `[lo, hi]` of the tree rooted at
    /// `root` ([`DdcTree::range_sum`] documents the walk), with the cost
    /// added to `ops`.
    pub(super) fn range_counted(
        &self,
        root: ChildRef,
        lo: &[usize],
        hi: &[usize],
        ops: &mut OpSnapshot,
    ) -> G {
        self.check_point(hi);
        assert!(
            lo.len() == self.d && lo.iter().zip(hi).all(|(a, b)| a <= b),
            "bounds {lo:?}..={hi:?} inverted or of the wrong rank"
        );
        with_rank!(self.d, D => self.range_walk::<D>(root, 0, &rank(lo), &rank(hi), ops))
    }

    /// The range walk from `c`, a child at depth `l`, over the box
    /// `[lo, hi]` in its own coordinates.
    fn range_walk<const D: usize>(
        &self,
        c: ChildRef,
        l: usize,
        lo: &[usize; D],
        hi: &[usize; D],
        ops: &mut OpSnapshot,
    ) -> G {
        if c.is_empty() {
            return G::ZERO;
        }
        if lo.iter().all(|&a| a == 0) {
            return self.prefix_walk(c, l, hi, ops);
        }
        if c.is_leaf() {
            ops.reads += (lo.iter().zip(hi))
                .map(|(&a, &b)| (b - a + 1) as u64)
                .product::<u64>();
            let side = self.leaf_side();
            let plane = self.leaves.run_len() >> side.trailing_zeros();
            return self
                .leaves
                .rows(c.index() as u32, plane, lo[0], hi[0], |rows| {
                    add_leaf_region(rows, plane, side, lo, hi, G::ZERO)
                });
        }
        let all_mask = (1usize << D) - 1;
        let level = &self.levels[l];
        let k = level.k;
        let base = c.index() << D;
        // The boxes the region reaches: high half in the dimensions of
        // `must`, either half in those of `free`, low half elsewhere.
        let (mut must, mut may) = (0usize, 0usize);
        for (i, (&a, &b)) in lo.iter().zip(hi).enumerate() {
            must |= usize::from(a >= k) << i;
            may |= usize::from(b >= k) << i;
        }
        let free = may & !must;
        let (mut blo, mut bhi) = ([0usize; D], [0usize; D]);
        let mut acc = G::ZERO;
        // Ascending submask enumeration of `free`, last one included.
        let mut t = 0usize;
        loop {
            let slot = level.slots[base + (must | t)];
            if slot.obox != NO_BOX {
                // The region clipped to the box, box-local; `full`
                // marks the dimensions where it spans the box.
                let mut full = 0usize;
                for i in 0..D {
                    let off = k & ((must | t) >> i & 1).wrapping_neg();
                    blo[i] = lo[i].max(off) - off;
                    bhi[i] = hi[i].min(off + k - 1) - off;
                    full |= usize::from(blo[i] == 0 && bhi[i] == k - 1) << i;
                }
                let v = if full == all_mask {
                    ops.reads += 1;
                    level.subtotal(slot.obox)
                } else if full != 0 {
                    // Row-sum group `j` has summed dimension `j` out:
                    // a range over the other `d − 1`.
                    let j = full.trailing_zeros() as usize;
                    blo.copy_within(j + 1.., j);
                    bhi.copy_within(j + 1.., j);
                    level.face_range(slot.obox, j, &blo[..D - 1], &bhi[..D - 1], ops)
                } else {
                    self.range_walk(slot.child, l + 1, &blo, &bhi, ops)
                };
                acc = acc.add(v);
            }
            if t == free {
                return acc;
            }
            t = t.wrapping_sub(free) & free;
        }
    }

    /// Adds `delta` to cell `x` of the tree rooted at `root`
    /// ([`DdcTree::apply_delta`] documents the walk), creating the root
    /// if the tree was empty, with the cost added to `ops`.
    pub(super) fn add_counted(
        &mut self,
        root: &mut ChildRef,
        x: &[usize],
        delta: G,
        ops: &mut OpSnapshot,
    ) {
        self.check_point(x);
        if delta.is_zero() {
            return;
        }
        with_rank!(self.d, D => self.add_walk::<D>(root, &rank(x), delta, ops));
    }

    /// The update walk of [`Slabs::add_counted`].
    fn add_walk<const D: usize>(
        &mut self,
        root: &mut ChildRef,
        x: &[usize; D],
        delta: G,
        ops: &mut OpSnapshot,
    ) {
        let config = self.config;
        let mut rel = *x;
        let mut cross = [0usize; D];
        // The reference to fill in when `cur` has to be created: the
        // root, then the slot the walk came through.
        let mut cur = *root;
        let mut parent: Option<(usize, usize)> = None;
        for l in 0..self.levels.len() {
            let node = if cur.is_empty() {
                let id = self.levels[l].alloc_node();
                self.link(root, parent, ChildRef::node(id));
                id as usize
            } else {
                cur.index()
            };
            let level = &mut self.levels[l];
            let k = level.k;
            // Exactly one box covers the cell (§3.2): its index comes
            // from the coordinate high bits; rel becomes box-local.
            let mut bi = 0usize;
            for (i, r) in rel.iter_mut().enumerate() {
                bi |= usize::from(*r >= k) << i;
                *r &= k - 1;
            }
            let six = (node << D) + bi;
            if level.slots[six].obox == NO_BOX {
                level.slots[six].obox = level.alloc_box();
            }
            let slot = level.slots[six];
            level.box_add(slot.obox, &rel, &mut cross, delta, &config, ops);
            cur = slot.child;
            parent = Some((l, six));
        }
        let leaf = if cur.is_empty() {
            let id = self.alloc_leaf();
            self.link(root, parent, ChildRef::leaf(id));
            id
        } else {
            cur.index() as u32
        };
        let at = leaf_offset(self.leaf_side(), &rel);
        self.leaves.add_at(leaf, at, delta);
        ops.writes += 1;
    }

    /// Stores a freshly created child in the slot the update walk came
    /// through (`None`: the root).
    fn link(&mut self, root: &mut ChildRef, parent: Option<(usize, usize)>, child: ChildRef) {
        match parent {
            None => *root = child,
            Some((l, six)) => self.levels[l].slots[six].child = child,
        }
    }

    /// Enumerates the non-zero cells under `c`, a child at depth `l`
    /// anchored at `lo`.
    pub(super) fn walk_nonzero(
        &self,
        c: ChildRef,
        l: usize,
        lo: &[usize],
        f: &mut impl FnMut(&[usize], G),
    ) {
        if c.is_empty() {
            return;
        }
        let d = self.d;
        if c.is_leaf() {
            let side = self.leaf_side();
            let mut abs = lo.to_vec();
            self.leaves.with(c.index() as u32, |cells| {
                for (at, &v) in cells.iter().enumerate() {
                    if !v.is_zero() {
                        let mut rest = at;
                        for i in (0..d).rev() {
                            abs[i] = lo[i] + rest % side;
                            rest /= side;
                        }
                        f(&abs, v);
                    }
                }
            });
            return;
        }
        let level = &self.levels[l];
        let base = c.index() << d;
        let mut box_lo = vec![0usize; d];
        for bi in 0..self.stride() {
            for i in 0..d {
                box_lo[i] = lo[i] + if bi & (1 << i) != 0 { level.k } else { 0 };
            }
            self.walk_nonzero(level.slots[base + bi].child, l + 1, &box_lo, f);
        }
    }

    /// Checks the subtree under `c`, a child at depth `l`, returning its
    /// content sum ([`DdcTree::check_invariants`]).
    fn check_child(&self, c: ChildRef, l: usize, ops: &mut OpSnapshot) -> G {
        let d = self.d;
        if c.is_empty() {
            return G::ZERO;
        }
        if c.is_leaf() {
            return self.leaves.with(c.index() as u32, |cells| {
                assert_eq!(
                    cells.len(),
                    self.leaf_side().pow(d as u32),
                    "leaf block shape mismatch"
                );
                cells.iter().fold(G::ZERO, |acc, &v| acc.add(v))
            });
        }
        let level = &self.levels[l];
        let base = c.index() << d;
        let full = vec![level.k - 1; d - 1];
        let mut total = G::ZERO;
        for slot in &level.slots[base..base + self.stride()] {
            let child_total = self.check_child(slot.child, l + 1, ops);
            if slot.obox == NO_BOX {
                assert!(
                    child_total.is_zero(),
                    "missing box over non-empty child (sum {child_total:?})"
                );
                continue;
            }
            let subtotal = level.subtotal(slot.obox);
            assert_eq!(
                subtotal, child_total,
                "subtotal does not match child content"
            );
            let groups = if d >= 2 { d } else { 0 };
            for j in 0..groups {
                if level.face_is_unset(slot.obox, j) {
                    assert!(subtotal.is_zero(), "empty face under non-zero subtotal");
                    continue;
                }
                let fp = level.face_prefix(slot.obox, j, &full, ops);
                assert_eq!(fp, subtotal, "face {j} full prefix disagrees with subtotal");
            }
            total = total.add(subtotal);
        }
        total
    }
}

impl<G: AbelianGroup> DdcTree<G> {
    /// `SUM(A[0,…,0] : A[x])` — Figure 10's `CalculateRegionSum`, as an
    /// iterative slab walk. At a node of half-side `k`, let `h` be the
    /// bitmask of dimensions whose (node-local) target coordinate is in
    /// the high half; the contributing boxes are exactly the submasks
    /// `s ⊆ h` — the box covers the target region fully in the
    /// dimensions `h \ s`, so it contributes its subtotal when
    /// `h \ s` is every dimension, a row-sum value otherwise, and the
    /// query descends into the `s = h` box. Cross coordinates are
    /// mask-selected (full → `k−1`, cut → `x & (k−1)`) with no
    /// per-dimension branching.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong rank or a coordinate `≥ side`.
    pub fn prefix_sum(&self, x: &[usize]) -> G {
        let mut ops = OpSnapshot::default();
        let v = self.slabs.prefix_counted(self.root, x, &mut ops);
        self.counter.read(ops.reads);
        v
    }

    /// `SUM(A[lo] : A[hi])` over the closed box — one walk, not Figure
    /// 4's `2^d` signed prefix sums. At a node every box the region
    /// reaches is clipped to it: a box the region covers adds its
    /// subtotal; a box it covers in the dimensions `F ≠ ∅` adds a range
    /// of row-sum group `min F` over the other dimensions (a range walk
    /// in the level's forest, two words a row of a row-cumulative run,
    /// or Figure 4 over another inline run's own prefixes); only a box
    /// it cuts in every dimension is descended into, and a leaf block
    /// sums just the clipped cells. A region
    /// anchored at a node's origin is a prefix from there on and
    /// finishes on the [`DdcTree::prefix_sum`] walk, so `[0, x]` costs
    /// exactly one prefix sum. The reads are bounded by Figure 4's in
    /// total, not per region: a leaf block cut at its low end is scanned
    /// as a suffix, which can be more cells than the prefix Figure 4
    /// reads there.
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `hi` has the wrong rank, a coordinate of `hi`
    /// is `≥ side`, or `lo > hi` in some dimension.
    pub fn range_sum(&self, lo: &[usize], hi: &[usize]) -> G {
        let mut ops = OpSnapshot::default();
        let v = self.slabs.range_counted(self.root, lo, hi, &mut ops);
        self.counter.read(ops.reads);
        v
    }

    /// Like [`DdcTree::prefix_sum`], additionally recording which overlay
    /// box contributed what — the paper's Figure 11 walkthrough as data.
    /// Returns the steps in visit order (box index ascending, descent
    /// last at each node); the sum of their values is the prefix sum.
    pub fn trace_prefix(&self, x: &[usize]) -> Vec<TraceStep<G>> {
        let slabs = &self.slabs;
        slabs.check_point(x);
        let d = slabs.d;
        let all_mask = (1usize << d) - 1;
        let mut ops = OpSnapshot::default();
        let mut steps = Vec::new();
        let mut lo = vec![0usize; d];
        let mut cur = self.root;
        for (depth, level) in slabs.levels.iter().enumerate() {
            if cur.is_empty() {
                break;
            }
            let k = level.k;
            let base = cur.index() << d;
            let mut h_mask = 0usize;
            for i in 0..d {
                h_mask |= usize::from(x[i] >= lo[i] + k) << i;
            }
            let mut s = 0usize;
            loop {
                let box_lo: Vec<usize> = (0..d)
                    .map(|i| lo[i] + if s & (1 << i) != 0 { k } else { 0 })
                    .collect();
                if s == h_mask {
                    // The box covering the target cell: descend.
                    steps.push(TraceStep {
                        level: depth,
                        box_anchor: box_lo.clone(),
                        box_side: k,
                        kind: Contribution::Descend,
                        value: G::ZERO,
                    });
                    lo = box_lo;
                    cur = level.slots[base + s].child;
                    break;
                }
                let obox = level.slots[base + s].obox;
                if obox != NO_BOX {
                    let full = h_mask & !s;
                    let (kind, value) = if full == all_mask {
                        (Contribution::Subtotal, level.subtotal(obox))
                    } else {
                        let j = full.trailing_zeros() as usize;
                        let cross: Vec<usize> = (0..d)
                            .filter(|&i| i != j)
                            .map(|i| {
                                if (full >> i) & 1 != 0 {
                                    k - 1
                                } else {
                                    x[i] - box_lo[i]
                                }
                            })
                            .collect();
                        (
                            Contribution::RowSum { axis: j },
                            level.face_prefix(obox, j, &cross, &mut ops),
                        )
                    };
                    steps.push(TraceStep {
                        level: depth,
                        box_anchor: box_lo,
                        box_side: k,
                        kind,
                        value,
                    });
                }
                s = s.wrapping_sub(h_mask) & h_mask;
            }
        }
        if !cur.is_empty() {
            let side = slabs.leaf_side();
            let rel: Vec<usize> = x.iter().zip(&lo).map(|(&c, &l)| c - l).collect();
            let cells: usize = rel.iter().map(|&r| r + 1).product();
            ops.reads += cells as u64;
            steps.push(TraceStep {
                level: slabs.levels.len(),
                box_anchor: lo,
                box_side: side,
                kind: Contribution::LeafCells { cells },
                value: {
                    let plane = slabs.leaves.run_len() >> side.trailing_zeros();
                    slabs
                        .leaves
                        .rows(cur.index() as u32, plane, 0, rel[0], |rows| {
                            add_leaf_prefix(rows, plane, side, &rel, G::ZERO)
                        })
                },
            });
        }
        self.counter.read(ops.reads);
        steps
    }

    /// Adds `delta` to cell `x` — Figure 12's `UpdateCell`, expressed with
    /// the difference value directly. Iterative: one box per level
    /// absorbs the delta, then the walk reaches the leaf cell,
    /// materializing nodes, box records and the leaf block on demand.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong rank or a coordinate `≥ side`.
    pub fn apply_delta(&mut self, x: &[usize], delta: G) {
        let mut ops = OpSnapshot::default();
        self.slabs.add_counted(&mut self.root, x, delta, &mut ops);
        self.counter.absorb(ops);
    }

    /// Reads one raw cell by direct descent (`O(log n)`).
    pub fn cell(&self, x: &[usize]) -> G {
        let slabs = &self.slabs;
        slabs.check_point(x);
        let mut cur = self.root;
        // Nodes are aligned to their (power-of-two) side, so bit `k` of
        // each coordinate picks the half at the level of half-side `k`,
        // and the bits below the leaf side are the block-local offset.
        for level in &slabs.levels {
            if cur.is_empty() {
                return G::ZERO;
            }
            let mut bi = 0usize;
            for (i, &c) in x.iter().enumerate() {
                bi |= usize::from(c & level.k != 0) << i;
            }
            cur = level.slots[(cur.index() << slabs.d) + bi].child;
        }
        if cur.is_empty() {
            return G::ZERO;
        }
        let leaf_side = slabs.leaf_side();
        let at = x
            .iter()
            .fold(0, |at, &c| at * leaf_side + (c & (leaf_side - 1)));
        self.counter.read(1);
        slabs.leaves.cell(cur.index() as u32, at)
    }

    /// Sum of the whole space.
    pub fn total(&self) -> G {
        if self.root.is_empty() {
            return G::ZERO;
        }
        let slabs = &self.slabs;
        let Some(top) = slabs.levels.first() else {
            return slabs.leaves.with(self.root.index() as u32, |cells| {
                cells.iter().fold(G::ZERO, |acc, &v| acc.add(v))
            });
        };
        let base = self.root.index() << slabs.d;
        top.slots[base..base + slabs.stride()]
            .iter()
            .filter(|slot| slot.obox != NO_BOX)
            .fold(G::ZERO, |acc, slot| acc.add(top.subtotal(slot.obox)))
    }

    /// Invokes `f` for every non-zero raw cell with its coordinates.
    pub fn for_each_nonzero(&self, f: &mut impl FnMut(&[usize], G)) {
        let lo = vec![0usize; self.slabs.d];
        self.slabs.walk_nonzero(self.root, 0, &lo, f);
    }

    /// Number of non-zero raw cells.
    pub fn populated_cells(&self) -> usize {
        let mut n = 0;
        self.for_each_nonzero(&mut |_, _| n += 1);
        n
    }

    /// Validates structural invariants, returning the tree total:
    /// every overlay box's subtotal equals its child's content sum, and
    /// every row-sum group's full-prefix equals the subtotal.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn check_invariants(&self) -> G {
        let mut ops = OpSnapshot::default();
        let total = self.slabs.check_child(self.root, 0, &mut ops);
        self.counter.read(ops.reads);
        total
    }
}
