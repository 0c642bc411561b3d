//! §5's growth by re-rooting: the covered side doubles and the old
//! tree becomes one child of a fresh root level.

use ddc_array::{with_coord_bufs, AbelianGroup, OpSnapshot};

use super::arena::{Level, Slot};
use super::{ChildRef, DdcTree};

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
