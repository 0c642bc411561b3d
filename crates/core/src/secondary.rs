//! Secondary structures: how one row-sum group is stored when it is
//! neither an inline run of its box record nor a tree in its level's
//! forest.
//!
//! Section 4.2: "the overlay box values of a d-dimensional data cube can
//! be stored as (d−1)-dimensional data cubes using Dynamic Data Cubes,
//! recursively; when d = 2, we use the B^c tree to store the row sum
//! values." Both halves of that sentence live in the level slabs
//! (`tree::arena`): the B^c tree's blocked layout as inline face runs,
//! the recursion as one shared forest per level. A [`Secondary`] is one
//! of the groups that remain:
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

use ddc_array::{AbelianGroup, NdArray, OpSnapshot, Shape};
use ddc_btree::{CumulativeStore, SparseSegTree};

use crate::config::{BaseStore, DdcConfig, Mode};
use crate::flat_face::FlatFace;

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
}

/// Invariant behind the `unreachable!` arms below: the level slab holds
/// one-dimensional blocked groups as inline face runs and
/// multi-dimensional Dynamic groups as trees in its forest, so no
/// [`Secondary`] is ever asked to be either.
const LIVES_IN_THE_SLAB: &str =
    "blocked one-dimensional faces and secondary trees live in the level slab";

impl<G: AbelianGroup> Secondary<G> {
    /// Bulk-builds a group from its raw slab-sum array (`raw[c]` is the
    /// sum of the full row along the group axis at cross-position `c`).
    /// Used by the bottom-up constructor; equivalent to applying
    /// [`Secondary::add`] per populated slab but without per-value
    /// structure descents.
    pub(crate) fn build_from_raw(raw: &NdArray<G>, config: &DdcConfig) -> Self {
        match (config.mode, config.base) {
            (Mode::Basic, _) => {
                let mut flat = FlatFace::zeroed(raw.shape().clone());
                flat.fill_cumulative(raw);
                Secondary::Flat(flat)
            }
            (Mode::Dynamic, BaseStore::SparseSeg) if raw.shape().ndim() == 1 => {
                Secondary::Seg(SparseSegTree::from_values(raw.as_slice()))
            }
            (Mode::Dynamic, _) => unreachable!("{LIVES_IN_THE_SLAB}"),
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
        }
    }

    /// Adds `delta` to the raw slab at `idx`, materializing the group
    /// (`idx.len()` dimensions of extent `k`, the side of the owning
    /// overlay box) first if needed.
    pub(crate) fn add(
        &mut self,
        idx: &[usize],
        delta: G,
        k: usize,
        config: &DdcConfig,
        ops: &mut OpSnapshot,
    ) {
        if matches!(self, Secondary::Empty) {
            *self = match (config.mode, config.base) {
                (Mode::Basic, _) => Secondary::Flat(FlatFace::zeroed(Shape::cube(idx.len(), k))),
                (Mode::Dynamic, BaseStore::SparseSeg) if idx.len() == 1 => {
                    Secondary::Seg(SparseSegTree::zeroed(k))
                }
                (Mode::Dynamic, _) => unreachable!("{LIVES_IN_THE_SLAB}"),
            };
        }
        match self {
            Secondary::Empty => unreachable!("materialized above"),
            Secondary::Flat(f) => f.add(idx, delta, ops),
            Secondary::Seg(t) => ops.writes += t.add_counted(idx[0], delta),
        }
    }

    /// Heap bytes attributable to this group.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Secondary::Empty => 0,
            Secondary::Flat(f) => f.heap_bytes(),
            Secondary::Seg(t) => t.heap_bytes(),
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
