//! Whole-tree construction: the bottom-up bulk builder and §5's growth
//! by re-rooting.

use ddc_array::{with_coord_bufs, AbelianGroup, NdArray, OpSnapshot, Region, Shape};

use super::arena::{Level, Slot};
use super::{ChildRef, DdcTree, Slabs};
use crate::config::DdcConfig;

/// Largest side [`DdcTree::grow`] doubles to. Growth is driven by
/// coordinates that arrive from clients and log records, and the memory
/// one point can claim grows with the side: on the default d = 2 blocked
/// layout an update writes one box record per level,
/// `1 + 2·(k + k/16)` words at half-side `k`, which sums to ≈ 17·side
/// bytes of `i64` faces for a single isolated point (up to twice that
/// while a slab `Vec` doubles). At this cap that is 272 MiB; at the 2^40
/// a wire coordinate can name it would be 17 TiB, and a few doublings
/// further the side no longer fits a `usize`.
pub const MAX_SIDE: usize = 1 << 24;

/// One overlay box accumulated by a region scan: its subtotal and the
/// raw (non-cumulative) slab sums of each row-sum group.
struct ScannedBox<G> {
    subtotal: G,
    raws: Vec<NdArray<G>>,
}

/// Scans region `[box_lo, box_lo + k)` of `a`, accumulating one overlay
/// box; `None` when the region holds no non-zero cells.
fn scan_box<G: AbelianGroup>(a: &NdArray<G>, k: usize, box_lo: &[usize]) -> Option<ScannedBox<G>> {
    let d = box_lo.len();
    let mut hi = Vec::with_capacity(d);
    for (&l, &n) in box_lo.iter().zip(a.shape().dims()) {
        if l >= n {
            return None;
        }
        hi.push((l + k - 1).min(n - 1));
    }
    let box_region = Region::new(box_lo, &hi);
    let mut subtotal = G::ZERO;
    let mut any = false;
    let mut raws: Vec<NdArray<G>> = if d >= 2 {
        (0..d)
            .map(|_| NdArray::zeroed(Shape::cube(d - 1, k)))
            .collect()
    } else {
        Vec::new()
    };
    let mut buf = vec![0usize; d];
    let mut cross = vec![0usize; d.saturating_sub(1)];
    let mut iter = box_region.iter_points();
    while iter.next_into(&mut buf) {
        let v = a.get(&buf);
        if v.is_zero() {
            continue;
        }
        any = true;
        subtotal = subtotal.add(v);
        for (j, raw) in raws.iter_mut().enumerate() {
            let mut w = 0;
            for i in 0..d {
                if i != j {
                    cross[w] = buf[i] - box_lo[i];
                    w += 1;
                }
            }
            raw.add_assign(&cross, v);
        }
    }
    any.then_some(ScannedBox { subtotal, raws })
}

impl<G: AbelianGroup> DdcTree<G> {
    /// Bulk-builds a tree over `a` (padded with zeros up to `side`) in one
    /// bottom-up pass: each overlay box's subtotal and raw row-sum groups
    /// are accumulated by a single scan of its region and written as one
    /// box record (inline faces) or built into the level's forest by this
    /// same pass one dimension down — `O(d · N log n)` cell visits in
    /// total, with none of the per-cell structure descents the
    /// incremental path pays.
    pub fn from_array_sized(a: &NdArray<G>, side: usize, config: DdcConfig) -> Self {
        assert!(
            a.shape().dims().iter().all(|&n| n <= side),
            "array {} exceeds side {side}",
            a.shape()
        );
        let mut tree = Self::new(a.shape().ndim(), side, config);
        let lo = vec![0usize; tree.slabs.d];
        tree.root = tree.slabs.build_child(a, 0, &lo);
        tree
    }
}

impl<G: AbelianGroup> Slabs<G> {
    /// Builds the subtree at depth `l` covering `[lo, lo + side >> l)` of
    /// `a` into the slabs and returns its reference; `EMPTY` when the
    /// region holds no non-zero cells.
    pub(super) fn build_child(&mut self, a: &NdArray<G>, l: usize, lo: &[usize]) -> ChildRef {
        let d = self.d;
        for (&lo_i, &n) in lo.iter().zip(a.shape().dims()) {
            if lo_i >= n {
                return ChildRef::EMPTY; // fully in the zero padding
            }
        }
        if l == self.levels.len() {
            // Intersection of the covered region with the array's extent.
            let side = self.leaf_side();
            let hi: Vec<usize> = lo
                .iter()
                .zip(a.shape().dims())
                .map(|(&lo_i, &n)| (lo_i + side - 1).min(n - 1))
                .collect();
            let mut cells = vec![G::ZERO; side.pow(d as u32)];
            let mut any = false;
            let mut buf = vec![0usize; d];
            let mut iter = Region::new(lo, &hi).iter_points();
            while iter.next_into(&mut buf) {
                let v = a.get(&buf);
                if !v.is_zero() {
                    any = true;
                    let at = buf
                        .iter()
                        .zip(lo)
                        .fold(0, |at, (&c, &lo_i)| at * side + (c - lo_i));
                    cells[at] = v;
                }
            }
            if !any {
                return ChildRef::EMPTY;
            }
            let id = self.alloc_leaf();
            self.leaves
                .with_mut(id, |block| block.copy_from_slice(&cells));
            return ChildRef::leaf(id);
        }

        let k = self.levels[l].k;
        let id = self.levels[l].alloc_node();
        let mut any_box = false;
        let mut box_lo = vec![0usize; d];
        for bi in 0..self.stride() {
            for i in 0..d {
                box_lo[i] = lo[i] + if bi & (1 << i) != 0 { k } else { 0 };
            }
            if let Some(scanned) = scan_box(a, k, &box_lo) {
                any_box = true;
                let child = self.build_child(a, l + 1, &box_lo);
                let level = &mut self.levels[l];
                let obox = level.alloc_box();
                level.fill_box(obox, scanned.subtotal, &scanned.raws, &self.config);
                level.slots[((id as usize) << d) + bi] = Slot { child, obox };
            }
        }
        if any_box {
            ChildRef::node(id)
        } else {
            self.levels[l].free_node(id);
            ChildRef::EMPTY
        }
    }
}

impl<G: AbelianGroup> DdcTree<G> {
    /// Doubles the covered side. Dimensions flagged `true` in `low` grow
    /// toward smaller coordinates: existing content shifts up by the old
    /// side in those dimensions (callers track the logical origin with
    /// [`ddc_array::CoordMap`]). Other dimensions grow append-style.
    ///
    /// A fresh root level goes in front of the slabs and the old root
    /// becomes one child of the new root; only the new root-level
    /// overlay box is rebuilt, by replaying the populated cells into its
    /// subtotal and row-sum groups.
    ///
    /// # Panics
    ///
    /// Panics if `low` has the wrong rank or the side would pass
    /// [`MAX_SIDE`] ([`crate::GrowableCube::check_cover`] is the typed
    /// check for coordinates from outside the program).
    pub fn grow(&mut self, low: &[bool]) {
        let slabs = &mut self.slabs;
        let d = slabs.d;
        assert_eq!(low.len(), d);
        let old_side = slabs.side;
        assert!(
            old_side < MAX_SIDE,
            "side {old_side} cannot double past {MAX_SIDE}"
        );
        let new_side = old_side * 2;
        let old_root = std::mem::replace(&mut self.root, ChildRef::EMPTY);
        if new_side <= slabs.config.leaf_block_side(d) {
            // The grown space still fits in one dense leaf block: rebuild
            // it with the content shifted in the lowered dimensions.
            let mut cells = vec![G::ZERO; new_side.pow(d as u32)];
            slabs.walk_nonzero(old_root, 0, &vec![0usize; d], &mut |p, v| {
                let at = p.iter().zip(low).fold(0, |at, (&c, &shift)| {
                    at * new_side + c + if shift { old_side } else { 0 }
                });
                cells[at] = v;
            });
            slabs.free_subtree(old_root, 0);
            slabs.side = new_side;
            slabs.leaves.resize_blocks(new_side.pow(d as u32));
            if !old_root.is_empty() {
                let id = slabs.alloc_leaf();
                slabs
                    .leaves
                    .with_mut(id, |block| block.copy_from_slice(&cells));
                self.root = ChildRef::leaf(id);
            }
            return;
        }
        let mut top = Level::new(d, old_side, &slabs.config);
        if !old_root.is_empty() {
            // The old region lands in the high half of every lowered dim.
            let bi = low
                .iter()
                .enumerate()
                .fold(0usize, |bi, (i, &shift)| bi | usize::from(shift) << i);
            let id = top.alloc_node();
            let obox = top.alloc_box();
            // Rebuild this box's values from the populated cells of the
            // old space (coordinates are already box-local).
            let mut ops = OpSnapshot::default();
            with_coord_bufs(d, |cross, _| {
                slabs.walk_nonzero(old_root, 0, &vec![0usize; d], &mut |p, v| {
                    top.box_add(obox, p, cross, v, &slabs.config, &mut ops);
                });
            });
            self.counter.absorb(ops);
            top.slots[((id as usize) << d) + bi] = Slot {
                child: old_root,
                obox,
            };
            self.root = ChildRef::node(id);
        }
        slabs.levels.insert(0, top);
        slabs.side = new_side;
    }
}
