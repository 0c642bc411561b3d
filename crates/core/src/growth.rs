//! Dynamic growth of the data cube in any direction (§5).
//!
//! "New star systems … can be found in any direction relative to existing
//! systems, therefore the data cube must be able to grow in any direction
//! relative to its existing cells. The direction of data cube growth
//! should be determined by the data, and not a priori."
//!
//! [`GrowableCube`] accepts cells at arbitrary *signed* logical
//! coordinates. When a cell lands outside the covered box, the cube
//! doubles: the old root becomes one child of a fresh root
//! ([`DdcTree::grow`]) and a [`CoordMap`] origin shift records growth
//! toward negative coordinates. Growth cost is proportional to the
//! populated cells (the new root-level overlay box is rebuilt from them),
//! never to the size of the empty space — the §5 contrast with the prefix
//! sum methods, which would materialize every cell of the enlarged
//! bounding box.

use crate::sync::{Arc, OnceLock};

use ddc_array::{with_coord_bufs, AbelianGroup, CoordMap, GrowthDirection, OpCounter};

use crate::config::DdcConfig;
use crate::engine::engine_obs;
use crate::obs;
use crate::tree::{DdcTree, MAX_SIDE};

struct GrowthObs {
    grow_ns: Arc<obs::Histogram>,
    doublings: Arc<obs::Counter>,
}

fn growth_obs() -> &'static GrowthObs {
    static OBS: OnceLock<GrowthObs> = OnceLock::new();
    OBS.get_or_init(|| GrowthObs {
        grow_ns: obs::histogram("growth.grow"),
        doublings: obs::counter("growth.doublings"),
    })
}

/// Covering the point would double the cube past [`MAX_SIDE`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrowthError {
    /// The logical point that cannot be covered.
    pub point: Vec<i64>,
}

impl std::fmt::Display for GrowthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "covering {:?} would grow the cube past side {MAX_SIDE}",
            self.point
        )
    }
}

impl std::error::Error for GrowthError {}

/// A data cube over signed logical coordinates that grows on demand.
///
/// # Examples
///
/// ```
/// use ddc_core::{DdcConfig, GrowableCube};
///
/// // Stars are discovered in any direction (§5): negative coordinates
/// // grow the cube too, at cost proportional to the populated cells.
/// let mut sky = GrowableCube::<i64>::new(2, DdcConfig::sparse());
/// sky.add(&[12, -7], 1);
/// sky.add(&[-40_000, 3], 1);
/// sky.add(&[5, 90_000], 1);
///
/// assert_eq!(sky.total(), 3);
/// assert_eq!(sky.range_sum(&[-50_000, -10], &[20, 10]), 2);
/// assert_eq!(sky.cell(&[-40_000, 3]), 1);
/// ```
#[derive(Debug)]
pub struct GrowableCube<G: AbelianGroup> {
    map: CoordMap,
    pub(crate) tree: DdcTree<G>,
}

impl<G: AbelianGroup> GrowableCube<G> {
    /// An empty `d`-dimensional cube anchored at the logical origin with a
    /// small initial extent.
    pub fn new(d: usize, config: DdcConfig) -> Self {
        Self::with_origin(&vec![0; d], config)
    }

    /// An empty cube whose initial box starts at `origin`.
    pub fn with_origin(origin: &[i64], config: DdcConfig) -> Self {
        let d = origin.len();
        let side = config.leaf_block_side(d);
        let map = CoordMap::new(origin.to_vec(), vec![side; d]);
        let tree = DdcTree::new(d, side, config);
        Self { map, tree }
    }

    /// Dimensionality of the cube.
    pub fn ndim(&self) -> usize {
        self.map.ndim()
    }

    /// The logical coordinate of the covered box's low corner.
    pub fn origin(&self) -> &[i64] {
        self.map.origin()
    }

    /// Covered extent per dimension (grows over time).
    pub fn extent(&self) -> &[usize] {
        self.map.extent()
    }

    /// Number of growth doublings performed so far.
    pub fn side(&self) -> usize {
        self.tree.side()
    }

    /// True when `logical` lies in the box the cube covers already: an
    /// add there grows nothing, so nothing can refuse it.
    pub fn covers(&self, logical: &[i64]) -> bool {
        let dims = self.origin().iter().zip(self.extent());
        logical.len() == self.ndim()
            && (logical.iter().zip(dims))
                .all(|(&c, (&o, &n))| c >= o && (c.wrapping_sub(o) as u64) < n as u64)
    }

    /// Checks that [`GrowableCube::add`]/[`GrowableCube::set`] at
    /// `logical` would keep the side within [`MAX_SIDE`], by running the
    /// doubling steps on a copy of the coordinate map. Callers taking
    /// coordinates from outside the program (a client, a log, a
    /// snapshot) check before they mutate or log anything.
    pub fn check_cover(&self, logical: &[i64]) -> Result<(), GrowthError> {
        self.check_cover_all([logical])
    }

    /// [`GrowableCube::check_cover`] for adds at every one of `points`
    /// in order — each checked against the box the ones before it leave
    /// behind, which is what applying them one by one (or replaying
    /// their log records) would do.
    pub fn check_cover_all<'a>(
        &self,
        points: impl IntoIterator<Item = &'a [i64]>,
    ) -> Result<(), GrowthError> {
        // Already covered, the case every logged update pays for: no copy.
        let mut grown: Option<CoordMap> = None;
        for logical in points {
            let covered = match &grown {
                None => self.covers(logical),
                Some(map) => map.to_internal(logical).is_some(),
            };
            if covered {
                continue;
            }
            let map = grown.get_or_insert_with(|| self.map.clone());
            while map.to_internal(logical).is_none() {
                if map.extent()[0] >= MAX_SIDE {
                    return Err(GrowthError {
                        point: logical.to_vec(),
                    });
                }
                for (axis, need) in map.growth_needed(logical).into_iter().enumerate() {
                    map.grow(axis, need.unwrap_or(GrowthDirection::High));
                }
            }
        }
        Ok(())
    }

    /// Grows until `logical` is covered, then returns its internal index.
    fn cover(&mut self, logical: &[i64]) -> Vec<usize> {
        // The common case — already covered — pays no timing overhead.
        if let Some(internal) = self.map.to_internal(logical) {
            return internal;
        }
        if let Err(e) = self.check_cover(logical) {
            panic!("{e}");
        }
        let site = growth_obs();
        let span = site.grow_ns.span("growth.grow");
        loop {
            if let Some(internal) = self.map.to_internal(logical) {
                span.end();
                return internal;
            }
            // One doubling step: dimensions that need to reach below the
            // origin grow low; everything else grows high.
            let needs = self.map.growth_needed(logical);
            let low: Vec<bool> = needs
                .iter()
                .map(|n| matches!(n, Some(GrowthDirection::Low)))
                .collect();
            self.tree.grow(&low);
            site.doublings.inc();
            for (axis, &l) in low.iter().enumerate() {
                self.map.grow(
                    axis,
                    if l {
                        GrowthDirection::Low
                    } else {
                        GrowthDirection::High
                    },
                );
            }
        }
    }

    /// Adds `delta` to the cell at signed `logical` coordinates, growing
    /// the cube as needed.
    ///
    /// # Panics
    ///
    /// Panics if [`GrowableCube::check_cover`] rejects the point.
    pub fn add(&mut self, logical: &[i64], delta: G) {
        if delta.is_zero() {
            return;
        }
        let internal = self.cover(logical);
        let site = engine_obs(self.tree.config().mode);
        let span = site.update_ns.span(site.update_name);
        self.tree.apply_delta(&internal, delta);
        span.end();
    }

    /// [`GrowableCube::add`] for log replay: a replay is one
    /// `wal.recover` span, not one more per record.
    pub(crate) fn replay_add(&mut self, logical: &[i64], delta: G) {
        if !delta.is_zero() {
            let internal = self.cover(logical);
            self.tree.apply_delta(&internal, delta);
        }
    }

    /// Sets the cell at `logical`, returning its previous value.
    ///
    /// # Panics
    ///
    /// Panics if [`GrowableCube::check_cover`] rejects the point.
    pub fn set(&mut self, logical: &[i64], value: G) -> G {
        let internal = self.cover(logical);
        let old = self.tree.cell(&internal);
        let delta = value.sub(old);
        if !delta.is_zero() {
            self.tree.apply_delta(&internal, delta);
        }
        old
    }

    /// Reads the cell at `logical` (zero outside the covered box).
    pub fn cell(&self, logical: &[i64]) -> G {
        match self.map.to_internal(logical) {
            Some(internal) => self.tree.cell(&internal),
            None => G::ZERO,
        }
    }

    /// Range sum over the closed logical box `[lo, hi]`, by one walk of
    /// the tree ([`DdcTree::range_sum`]); parts outside the covered box
    /// contribute zero.
    pub fn range_sum(&self, lo: &[i64], hi: &[i64]) -> G {
        assert_eq!(lo.len(), self.ndim());
        assert_eq!(hi.len(), self.ndim());
        assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "inverted bounds {lo:?}..{hi:?}"
        );
        let site = engine_obs(self.tree.config().mode);
        let span = site.range_ns.span(site.range_name);
        let v = with_coord_bufs(self.ndim(), |clo, chi| {
            // Clip to the covered box.
            for axis in 0..self.ndim() {
                let o = self.map.origin()[axis];
                let e = self.map.extent()[axis] as i64;
                let l = lo[axis].max(o);
                let h = hi[axis].min(o + e - 1);
                if l > h {
                    return G::ZERO;
                }
                clo[axis] = (l - o) as usize;
                chi[axis] = (h - o) as usize;
            }
            self.tree.range_sum(clo, chi)
        });
        span.end();
        v
    }

    /// Sum of the whole cube.
    pub fn total(&self) -> G {
        self.tree.total()
    }

    /// Number of non-zero cells.
    pub fn populated_cells(&self) -> usize {
        self.tree.populated_cells()
    }

    /// Invokes `f` for every non-zero cell with *logical* coordinates.
    pub fn for_each_nonzero(&self, mut f: impl FnMut(&[i64], G)) {
        let map = &self.map;
        self.tree.for_each_nonzero(&mut |p, v| {
            let logical = map.to_logical(p);
            f(&logical, v);
        });
    }

    /// Reclaims storage from cancelled subtrees; see
    /// [`crate::DdcTree::prune`].
    pub fn prune(&mut self) -> usize {
        self.tree.prune()
    }

    /// Extracts a sparse snapshot of every non-zero cell in logical
    /// coordinates; restore with [`GrowableCube::from_entries`].
    pub fn entries(&self) -> Vec<(Vec<i64>, G)> {
        let mut out = Vec::new();
        self.for_each_nonzero(|p, v| out.push((p.to_vec(), v)));
        out
    }

    /// Rebuilds a cube from a sparse snapshot, growing as needed.
    pub fn from_entries(d: usize, config: DdcConfig, entries: &[(Vec<i64>, G)]) -> Self {
        let mut cube = Self::new(d, config);
        for (p, v) in entries {
            cube.add(p, *v);
        }
        cube
    }

    /// Approximate heap bytes held by the cube.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.tree.heap_bytes()
    }

    /// Activates the paged leaf backend if the config requests it; see
    /// [`DdcTree::enable_paging`]. Growth re-roots the tree in place, so
    /// a paged arena survives any number of doublings.
    pub fn enable_paging(&mut self) -> std::io::Result<bool>
    where
        G: crate::ValueCodec,
    {
        self.tree.enable_paging()
    }

    /// True once the leaf arena is paged.
    pub fn is_paged(&self) -> bool {
        self.tree.is_paged()
    }

    /// Buffer-pool counters of the paged arena (`None` on the slab).
    pub fn pool_stats(&self) -> Option<crate::pager::PoolStats> {
        self.tree.pool_stats()
    }

    /// Operation counter of the underlying tree.
    pub fn counter(&self) -> &OpCounter {
        self.tree.counter()
    }

    /// Validates structural invariants (diagnostics).
    pub fn check_invariants(&self) -> G {
        self.tree.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn reference_sum(cells: &HashMap<Vec<i64>, i64>, lo: &[i64], hi: &[i64]) -> i64 {
        cells
            .iter()
            .filter(|(p, _)| {
                p.iter()
                    .zip(lo.iter().zip(hi.iter()))
                    .all(|(&c, (&l, &h))| l <= c && c <= h)
            })
            .map(|(_, &v)| v)
            .sum()
    }

    #[test]
    fn grows_in_every_direction() {
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        let mut reference = HashMap::new();
        let points: [([i64; 2], i64); 6] = [
            ([0, 0], 5),
            ([10, 10], 3),
            ([-7, 2], 11),
            ([4, -20], -2),
            ([-30, -30], 7),
            ([100, -5], 1),
        ];
        for (p, v) in points {
            cube.add(&p, v);
            *reference.entry(p.to_vec()).or_insert(0) += v;
        }
        assert_eq!(cube.total(), 25);
        assert_eq!(cube.populated_cells(), 6);
        assert_eq!(cube.range_sum(&[-100, -100], &[200, 200]), 25);
        assert_eq!(
            cube.range_sum(&[-10, -25], &[5, 5]),
            reference_sum(&reference, &[-10, -25], &[5, 5])
        );
        assert_eq!(cube.cell(&[-7, 2]), 11);
        assert_eq!(cube.cell(&[999, 999]), 0);
        cube.check_invariants();
    }

    #[test]
    fn set_semantics_across_growth() {
        let mut cube = GrowableCube::<i64>::new(1, DdcConfig::dynamic());
        assert_eq!(cube.set(&[0], 4), 0);
        assert_eq!(cube.set(&[-100], 9), 0);
        assert_eq!(cube.set(&[0], 6), 4);
        assert_eq!(cube.total(), 15);
        assert_eq!(cube.range_sum(&[-100,], &[-100]), 9);
    }

    #[test]
    fn growth_is_data_proportional_in_memory() {
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        cube.add(&[0, 0], 1);
        cube.add(&[1 << 16, -(1 << 16)], 1); // forces ~17 doublings
        assert!(cube.side() >= 1 << 17);
        let bytes = cube.heap_bytes();
        // A dense bounding box would hold ≥ 2^34 cells; we stay tiny.
        assert!(bytes < 2_000_000, "used {bytes} bytes");
        assert_eq!(cube.total(), 2);
        cube.check_invariants();
    }

    #[test]
    fn check_cover_refuses_points_past_the_cap_and_leaves_the_cube_alone() {
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        cube.add(&[3, 3], 1);
        let side = cube.side();
        for far in [[1i64 << 40, 0], [0, -(1 << 40)], [i64::MAX, i64::MIN]] {
            assert_eq!(cube.check_cover(&far).unwrap_err().point, far);
        }
        assert_eq!(cube.side(), side);
        // Growing only upward from the origin reaches exactly the cap.
        let edge = MAX_SIDE as i64;
        assert!(cube.check_cover(&[edge, 0]).is_err());
        assert_eq!(cube.check_cover(&[edge - 1, 0]), Ok(()));
        cube.add(&[edge - 1, 0], 2);
        assert_eq!(cube.side(), MAX_SIDE);
        assert_eq!(cube.range_sum(&[0, 0], &[edge, edge]), 3);
        // Full-grown, nothing outside the box is reachable any more.
        assert!(cube.check_cover(&[-1, 0]).is_err());
        cube.check_invariants();
    }

    /// The arithmetic in [`MAX_SIDE`]'s doc comment, measured.
    #[test]
    fn one_isolated_point_costs_about_17_bytes_per_unit_of_side() {
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
        cube.add(&[(1 << 16) - 1, 0], 1);
        let per_side = cube.heap_bytes() as f64 / cube.side() as f64;
        assert!((16.5..18.5).contains(&per_side), "{per_side} bytes × side");
    }

    #[test]
    #[should_panic(expected = "past side")]
    fn add_past_the_cap_panics_instead_of_exhausting_memory() {
        GrowableCube::<i64>::new(2, DdcConfig::dynamic()).add(&[1 << 40, 0], 1);
    }

    #[test]
    fn logical_enumeration() {
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
        cube.add(&[-3, 5], 2);
        cube.add(&[4, -1], 3);
        let mut seen = Vec::new();
        cube.for_each_nonzero(|p, v| seen.push((p.to_vec(), v)));
        seen.sort();
        assert_eq!(seen, vec![(vec![-3, 5], 2), (vec![4, -1], 3)]);
    }

    #[test]
    fn range_sum_outside_coverage_is_zero() {
        let cube = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
        assert_eq!(cube.range_sum(&[50, 50], &[60, 60]), 0);
        assert_eq!(cube.range_sum(&[-60, -60], &[-50, -50]), 0);
    }

    #[test]
    fn custom_origin() {
        let mut cube = GrowableCube::<i64>::with_origin(&[1000, -1000], DdcConfig::dynamic());
        cube.add(&[1000, -1000], 42);
        assert_eq!(cube.cell(&[1000, -1000]), 42);
        assert_eq!(cube.range_sum(&[999, -1001], &[1001, -999]), 42);
    }

    #[test]
    fn updates_after_growth_remain_correct() {
        let mut cube = GrowableCube::<i64>::new(3, DdcConfig::dynamic());
        cube.add(&[0, 0, 0], 1);
        cube.add(&[-5, 9, -2], 10);
        cube.add(&[0, 0, 0], 4); // revisit original cell post-growth
        assert_eq!(cube.cell(&[0, 0, 0]), 5);
        assert_eq!(cube.total(), 15);
        cube.check_invariants();
    }
}
