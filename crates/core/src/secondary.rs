//! Secondary structures: how one out-of-line overlay row-sum group is
//! stored.
//!
//! Section 4.2: "the overlay box values of a d-dimensional data cube can
//! be stored as (d−1)-dimensional data cubes using Dynamic Data Cubes,
//! recursively; when d = 2, we use the B^c tree to store the row sum
//! values." [`Secondary`] is that recursion for every group that does
//! not live inline in the tree's level slab (the default d = 2 base
//! case — the B^c tree's blocked layout — does; see `tree::arena`),
//! with three extra arms:
//!
//! * `Flat` — the Basic DDC's direct arrays (§3), kept so the §3.3 cost
//!   analysis can be measured against §4 on identical trees;
//! * `Seg` — the lazy one-dimensional base store for wide, sparsely
//!   populated spaces (§5), where an eager `k`-value run per face would
//!   cost memory proportional to the side;
//! * `Empty` — nothing materialized yet: an all-zero group occupies no
//!   memory, which is how empty regions of a sparse cube stay free (§5).
//!
//! Costs are accumulated into the caller's [`OpSnapshot`] so a tree
//! operation bumps its [`ddc_array::OpCounter`] once.

use ddc_array::{AbelianGroup, OpSnapshot};
use ddc_btree::{CumulativeStore, SparseSegTree};

use crate::config::{BaseStore, DdcConfig, Mode};
use crate::flat_face::FlatFace;
use crate::tree::DdcTree;

/// Storage for one `(d−1)`-dimensional row-sum group of an overlay box of
/// side `k`.
#[derive(Debug)]
pub(crate) enum Secondary<G: AbelianGroup> {
    /// All-zero group; materialized on first update.
    Empty,
    /// Basic mode (§3): cumulative values stored directly.
    Flat(FlatFace<G>),
    /// One-dimensional group in a lazy segment tree (sparse workloads).
    Seg(SparseSegTree<G>),
    /// Dynamic mode, `d − 1 ≥ 2`: the group is itself a Dynamic Data Cube
    /// (§4.2's secondary trees).
    Tree(Box<DdcTree<G>>),
}

/// Invariant behind the `BaseStore::Blocked` arms below: the level slab
/// holds one-dimensional blocked groups as inline face runs, so no
/// [`Secondary`] is ever asked to be one.
const BLOCKED_IS_INLINE: &str = "blocked one-dimensional faces live inline in the level slab";

impl<G: AbelianGroup> Secondary<G> {
    /// Materializes the appropriate structure for a group with `face_dims`
    /// dimensions of extent `k` each.
    fn materialize(face_dims: usize, k: usize, config: &DdcConfig) -> Self {
        debug_assert!(face_dims >= 1);
        match config.mode {
            Mode::Basic => Secondary::Flat(FlatFace::zeroed(ddc_array::Shape::cube(face_dims, k))),
            Mode::Dynamic => {
                if face_dims == 1 {
                    match config.base {
                        BaseStore::Blocked => unreachable!("{BLOCKED_IS_INLINE}"),
                        BaseStore::SparseSeg => Secondary::Seg(SparseSegTree::zeroed(k)),
                    }
                } else {
                    Secondary::Tree(Box::new(DdcTree::new(face_dims, k, *config)))
                }
            }
        }
    }

    /// Bulk-builds a group from its raw slab-sum array (`raw[c]` is the
    /// sum of the full row along the group axis at cross-position `c`).
    /// Used by the bottom-up constructor; equivalent to applying
    /// [`Secondary::add`] per populated slab but without per-value
    /// structure descents.
    pub(crate) fn build_from_raw(raw: &ddc_array::NdArray<G>, config: &DdcConfig) -> Self {
        let k = raw.shape().dim(0);
        match config.mode {
            Mode::Basic => {
                let mut flat = FlatFace::zeroed(raw.shape().clone());
                flat.fill_cumulative(raw);
                Secondary::Flat(flat)
            }
            Mode::Dynamic => {
                if raw.shape().ndim() == 1 {
                    match config.base {
                        BaseStore::Blocked => unreachable!("{BLOCKED_IS_INLINE}"),
                        BaseStore::SparseSeg => {
                            Secondary::Seg(SparseSegTree::from_values(raw.as_slice()))
                        }
                    }
                } else {
                    Secondary::Tree(Box::new(DdcTree::from_array_sized(raw, k, *config)))
                }
            }
        }
    }

    /// Cumulative group value at `idx` (each coordinate `< k`); `Empty`
    /// groups are implicit zeros.
    pub(crate) fn prefix(&self, idx: &[usize], ops: &mut OpSnapshot) -> G {
        match self {
            Secondary::Empty => G::ZERO,
            Secondary::Flat(f) => f.prefix(idx, ops),
            Secondary::Seg(t) => {
                let (v, reads) = t.prefix_counted(idx[0]);
                ops.reads += reads;
                v
            }
            Secondary::Tree(t) => t.prefix_counted(idx, ops),
        }
    }

    /// Adds `delta` to the raw slab at `idx`, materializing first if
    /// needed. `k` and `config` describe the owning overlay box.
    pub(crate) fn add(
        &mut self,
        idx: &[usize],
        delta: G,
        k: usize,
        config: &DdcConfig,
        ops: &mut OpSnapshot,
    ) {
        if matches!(self, Secondary::Empty) {
            *self = Self::materialize(idx.len(), k, config);
        }
        match self {
            Secondary::Empty => unreachable!("materialized above"),
            Secondary::Flat(f) => f.add(idx, delta, ops),
            Secondary::Seg(t) => ops.writes += t.add_counted(idx[0], delta),
            Secondary::Tree(t) => t.add_counted(idx, delta, ops),
        }
    }

    /// Heap bytes attributable to this group.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Secondary::Empty => 0,
            Secondary::Flat(f) => f.heap_bytes(),
            Secondary::Seg(t) => t.heap_bytes(),
            Secondary::Tree(t) => t.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reads_zero_and_costs_nothing() {
        let mut c = OpSnapshot::default();
        let s = Secondary::<i64>::Empty;
        assert_eq!(s.prefix(&[3], &mut c), 0);
        assert_eq!(c.reads, 0);
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn one_dimensional_lazy_base_store() {
        let config = DdcConfig::sparse();
        let mut c = OpSnapshot::default();
        let mut s = Secondary::<i64>::Empty;
        s.add(&[2], 10, 8, &config, &mut c);
        s.add(&[0], 4, 8, &config, &mut c);
        s.add(&[7], -1, 8, &config, &mut c);
        assert!(matches!(s, Secondary::Seg(_)));
        assert_eq!(s.prefix(&[0], &mut c), 4);
        assert_eq!(s.prefix(&[1], &mut c), 4);
        assert_eq!(s.prefix(&[2], &mut c), 14);
        assert_eq!(s.prefix(&[7], &mut c), 13);
        assert!(s.heap_bytes() > 0);
    }

    #[test]
    fn basic_mode_materializes_flat() {
        let config = DdcConfig::basic();
        let mut c = OpSnapshot::default();
        let mut s = Secondary::<i64>::Empty;
        s.add(&[1, 1], 5, 4, &config, &mut c);
        assert!(matches!(s, Secondary::Flat(_)));
        assert_eq!(s.prefix(&[0, 0], &mut c), 0);
        assert_eq!(s.prefix(&[3, 3], &mut c), 5);
    }

    #[test]
    fn caller_absorbs_substore_costs() {
        let config = DdcConfig::sparse();
        let mut c = OpSnapshot::default();
        let mut s = Secondary::<i64>::Empty;
        s.add(&[5], 1, 16, &config, &mut c);
        assert!(c.writes > 0);
        let before = c;
        let _ = s.prefix(&[10], &mut c);
        assert!(c.reads > before.reads);
    }
}
