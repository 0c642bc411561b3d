//! The slabs behind a [`DdcTree`]: one [`Level`] per interior depth
//! (node slots, packed box records with their inline face runs —
//! blocked, flat or row-cumulative — and, where the row-sum groups are
//! trees, their roots and the forest they share), the leaf arena, and
//! everything that manages them —
//! append-only allocation, statistics, and the `check_arena` audit. The
//! record layout is drawn in the parent module's docs.

use ddc_array::{with_coord_bufs, AbelianGroup, OpSnapshot};
use ddc_btree::blocked;

use super::{ChildRef, DdcTree, LevelStats, Slabs, TreeStats, LEAF_BIT};
use crate::config::{BaseStore, DdcConfig, LeafBackend, Mode};
use crate::flat_face;
use crate::pager::PoolStats;
use crate::persist::ValueCodec;
use crate::row_cum;
use crate::store::{self, SpillFile};

/// `Slot::obox` of a slot whose box has not been materialized.
pub(super) const NO_BOX: u32 = u32::MAX;

/// One of a node's `2^d` slots: the child below the overlay box and the
/// id of the box record (in the same level's `words`) covering it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    pub(super) child: ChildRef,
    pub(super) obox: u32,
}

impl Slot {
    const VACANT: Slot = Slot {
        child: ChildRef::EMPTY,
        obox: NO_BOX,
    };
}

/// Largest side of a two-dimensional row-sum group that [`Level::new`]
/// writes in place as a [`Face::RowCum`] run: `32² = 1 024` words, 8 KiB
/// of `i64`, per group. Measured at 64³ (EXPERIMENTS "Row-cumulative
/// groups"): a prefix sum took ~1 100 ns with every such group a forest
/// tree, ~845 ns with side ≤ 16 inline and ~600 ns with side ≤ 32. At
/// 128³ side ≤ 64 timed like side ≤ 32, but 500 isolated points in
/// 4096³ held +44 % heap against +5.6 %: a run's words are paid per box
/// whatever the box holds.
const ROW_CUM_MAX_SIDE: usize = 32;

/// Most leaf blocks [`DdcTree::reserve_bounded_leaves`] reserves up
/// front: 512 blocks of at most [`crate::LEAF_BLOCK_CELLS`] cells, at
/// most 2 MiB of `i64` (all of a 64³ cube; a 1024² one grows on demand).
const RESERVED_LEAF_BLOCKS: usize = 512;

/// The production layout: blocked base, leaf side derived from the rank.
/// The inline layouts chosen beyond the paper's (row-cumulative groups,
/// a reserved leaf arena) apply under it only, so an explicit `h` or the
/// lazy base builds the structure exactly as the paper counts it.
fn derived_blocked(config: &DdcConfig) -> bool {
    config.base == BaseStore::Blocked && config.elide_levels.is_none()
}

/// The kernels that drive a level's inline face runs, chosen once in
/// [`Level::new`]: a row-sum group written in place in the box record
/// is a run of `words(d, k)` words, indexed by the box-local
/// coordinates of the other `d − 1` dimensions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Face {
    /// The B^c tree's blocked layout (`ddc_btree::blocked`) — the
    /// one-dimensional groups of the Dynamic mode at d = 2.
    Blocked,
    /// The Basic mode's cumulative array ([`flat_face`]), any rank.
    Flat,
    /// Row-cumulative sums ([`row_cum`]) — the two-dimensional groups
    /// of side at most [`ROW_CUM_MAX_SIDE`] of the Dynamic mode's
    /// three-dimensional levels under the derived leaf side.
    RowCum,
}

impl Face {
    /// Words of one run (none at d = 1, which has no row-sum groups).
    fn words(self, d: usize, k: usize) -> usize {
        match self {
            _ if d == 1 => 0,
            Face::Blocked => blocked::words_for(k),
            Face::Flat | Face::RowCum => k.pow(d as u32 - 1),
        }
    }

    /// Cumulative group value at `cross`, and the values read.
    #[inline]
    fn prefix<G: AbelianGroup>(self, run: &[G], k: usize, cross: &[usize]) -> (G, u64) {
        match self {
            Face::Blocked => blocked::prefix(run, k, cross[0]),
            Face::Flat => flat_face::prefix(run, k, cross),
            Face::RowCum => row_cum::prefix(run, k, cross[0], cross[1]),
        }
    }

    /// Group sum over the cross box `[lo, hi]`, and the values read. A
    /// one-dimensional group is Figure 4's two terms, read directly —
    /// the term at the run's far corner is the whole group, i.e.
    /// `total`, the box's subtotal: one read. A row-cumulative run reads
    /// two words a row ([`row_cum::range`]). A flat run of rank ≥ 2 runs
    /// Figure 4 over its own prefixes, one term per subset of the
    /// dimensions where `lo > 0`.
    fn range<G: AbelianGroup>(
        self,
        run: &[G],
        k: usize,
        lo: &[usize],
        hi: &[usize],
        total: G,
    ) -> (G, u64) {
        if let (&[a], &[b]) = (lo, hi) {
            let (vb, rb) = if b == k - 1 {
                (total, 1)
            } else {
                self.prefix(run, k, &[b])
            };
            if a == 0 {
                return (vb, rb);
            }
            let (va, ra) = self.prefix(run, k, &[a - 1]);
            return (vb.sub(va), rb + ra);
        }
        if let (Face::RowCum, &[a0, a1], &[b0, b1]) = (self, lo, hi) {
            return row_cum::range(run, k, [a0, a1], [b0, b1]);
        }
        let cut = (lo.iter().enumerate()).fold(0usize, |m, (i, &a)| m | usize::from(a > 0) << i);
        with_coord_bufs(lo.len(), |corner, _| {
            let (mut acc, mut reads) = (G::ZERO, 0);
            let mut m = 0usize;
            loop {
                for (i, c) in corner.iter_mut().enumerate() {
                    *c = if m >> i & 1 != 0 { lo[i] - 1 } else { hi[i] };
                }
                let (v, r) = if corner.iter().all(|&c| c == k - 1) {
                    (total, 1)
                } else {
                    self.prefix(run, k, corner)
                };
                acc = if m.count_ones() % 2 == 0 {
                    acc.add(v)
                } else {
                    acc.sub(v)
                };
                reads += r;
                if m == cut {
                    return (acc, reads);
                }
                m = m.wrapping_sub(cut) & cut;
            }
        })
    }

    /// Adds `delta` to the raw slab at `cross`; returns the values
    /// written.
    #[inline]
    fn add<G: AbelianGroup>(self, run: &mut [G], k: usize, cross: &[usize], delta: G) -> u64 {
        match self {
            Face::Blocked => blocked::add(run, k, cross[0], delta),
            Face::Flat => flat_face::add(run, k, cross, delta),
            Face::RowCum => row_cum::add(run, k, cross[0], cross[1], delta),
        }
    }
}

/// The row-sum groups of a level that are trees (§4.2): `d` per box
/// record, each `(d−1)`-dimensional of side `k`, all in one shared set
/// of slabs. Group `j` of box `b` is rooted at `roots[b·d + j]`; a root
/// is `EMPTY` until its group's first non-zero value, and the slabs do
/// not exist before the level's first root does.
#[derive(Debug)]
struct Forest<G: AbelianGroup> {
    roots: Vec<ChildRef>,
    slabs: Option<Box<Slabs<G>>>,
}

/// The slabs of the forest of a level whose boxes have side `k` in `d`
/// dimensions, created on first use: `(d−1)`-dimensional trees of side
/// `k`.
fn forest_of<'a, G: AbelianGroup>(
    slabs: &'a mut Option<Box<Slabs<G>>>,
    d: usize,
    k: usize,
    config: &DdcConfig,
) -> &'a mut Slabs<G> {
    slabs.get_or_insert_with(|| Box::new(Slabs::new(d - 1, k, *config)))
}

/// The slab of one interior depth: every node of half-side `k`, and
/// every overlay box of side `k`, of the trees sharing it.
#[derive(Debug)]
pub(crate) struct Level<G: AbelianGroup> {
    d: usize,
    /// Side of this level's overlay boxes (half its nodes' side).
    pub(super) k: usize,
    /// Kernels of the inline face runs.
    face: Face,
    /// Words of one inline face run; 0 when the groups are trees of
    /// `forest`, and at d = 1.
    face_words: usize,
    /// Words of one box record: `1 + d · face_words`.
    rec_words: usize,
    /// Node `n` owns slots `[n·2^d, (n+1)·2^d)`.
    pub(super) slots: Vec<Slot>,
    /// Box record `b` is `words[b·rec_words ..][..rec_words]`:
    /// `[subtotal | face_0 | … | face_{d−1}]`.
    words: Vec<G>,
    /// The groups that are not inline runs of `words`.
    forest: Option<Forest<G>>,
}

impl<G: AbelianGroup> Level<G> {
    /// An empty level for boxes of side `k`. A row-sum group is an
    /// inline run of its box record when it is a flat cumulative array
    /// (Basic mode), a one-dimensional blocked B^c group, or — under
    /// the blocked base with the derived leaf side — a two-dimensional
    /// group of side at most [`ROW_CUM_MAX_SIDE`] (row-cumulative), and
    /// a tree of the level's forest otherwise — down to the
    /// one-dimensional trees of `BaseStore::Lazy`, where the recursion
    /// of §4.2 ends in a tree without groups. The rule is the level's
    /// rank and side, like the leaf side: an explicit `h` keeps every
    /// two-dimensional group a tree, as the paper counts it.
    pub(super) fn new(d: usize, k: usize, config: &DdcConfig) -> Self {
        let face = match config.mode {
            Mode::Basic => Face::Flat,
            Mode::Dynamic if d == 3 && k <= ROW_CUM_MAX_SIDE && derived_blocked(config) => {
                Face::RowCum
            }
            Mode::Dynamic => Face::Blocked,
        };
        let inline =
            d == 1 || face != Face::Blocked || (d == 2 && config.base == BaseStore::Blocked);
        let face_words = if inline { face.words(d, k) } else { 0 };
        Self {
            d,
            k,
            face,
            face_words,
            rec_words: 1 + d * face_words,
            slots: Vec::new(),
            words: Vec::new(),
            forest: (!inline).then(|| Forest {
                roots: Vec::new(),
                slabs: None,
            }),
        }
    }

    /// Node ids handed out so far.
    fn nodes(&self) -> usize {
        self.slots.len() >> self.d
    }

    /// Box record ids handed out so far.
    fn boxes(&self) -> usize {
        self.words.len() / self.rec_words
    }

    /// Index in the forest's roots of group `j` of box `obox`.
    #[inline]
    fn root_at(&self, obox: u32, j: usize) -> usize {
        obox as usize * self.d + j
    }

    /// Appends a node with vacant slots and returns its id.
    pub(super) fn alloc_node(&mut self) -> u32 {
        let id = self.nodes() as u32;
        assert!(id < LEAF_BIT, "node arena overflow");
        self.slots
            .resize(self.slots.len() + (1 << self.d), Slot::VACANT);
        id
    }

    /// Appends an all-zero box record (subtotal zero, groups empty) and
    /// returns its id.
    pub(super) fn alloc_box(&mut self) -> u32 {
        let id = self.boxes();
        assert!(id < NO_BOX as usize, "box arena overflow");
        self.words
            .resize(self.words.len() + self.rec_words, G::ZERO);
        if let Some(forest) = &mut self.forest {
            forest
                .roots
                .resize(forest.roots.len() + self.d, ChildRef::EMPTY);
        }
        id as u32
    }

    /// Sum of every cell covered by box `obox`.
    #[inline]
    pub(super) fn subtotal(&self, obox: u32) -> G {
        self.words[obox as usize * self.rec_words]
    }

    /// The inline run of face `j` of box `obox`.
    #[inline]
    fn face_run(&self, obox: u32, j: usize) -> std::ops::Range<usize> {
        let at = obox as usize * self.rec_words + 1 + j * self.face_words;
        at..at + self.face_words
    }

    /// Cumulative value of row-sum group `j` of box `obox` at the
    /// box-local cross coordinates `cross` (the other `d − 1` dims).
    #[inline]
    pub(super) fn face_prefix(
        &self,
        obox: u32,
        j: usize,
        cross: &[usize],
        ops: &mut OpSnapshot,
    ) -> G {
        if self.face_words != 0 {
            let run = &self.words[self.face_run(obox, j)];
            let (v, reads) = self.face.prefix(run, self.k, cross);
            ops.reads += reads;
            return v;
        }
        match &self.forest {
            Some(Forest {
                roots,
                slabs: Some(slabs),
            }) => slabs.prefix_counted(roots[self.root_at(obox, j)], cross, ops),
            _ => G::ZERO,
        }
    }

    /// Sum of row-sum group `j` of box `obox` over the box-local cross
    /// box `[lo, hi]` (the other `d − 1` dims).
    pub(super) fn face_range(
        &self,
        obox: u32,
        j: usize,
        lo: &[usize],
        hi: &[usize],
        ops: &mut OpSnapshot,
    ) -> G {
        if self.face_words != 0 {
            let run = &self.words[self.face_run(obox, j)];
            let (v, reads) = self.face.range(run, self.k, lo, hi, self.subtotal(obox));
            ops.reads += reads;
            return v;
        }
        match &self.forest {
            Some(Forest {
                roots,
                slabs: Some(slabs),
            }) => slabs.range_counted(roots[self.root_at(obox, j)], lo, hi, ops),
            _ => G::ZERO,
        }
    }

    /// True when group `j` of box `obox` is a tree without a root yet
    /// (inline runs always exist).
    pub(super) fn face_is_unset(&self, obox: u32, j: usize) -> bool {
        self.forest
            .as_ref()
            .is_some_and(|f| f.roots[self.root_at(obox, j)].is_empty())
    }

    /// Figure 12's per-box step: adds `delta` to the subtotal of box
    /// `obox` and to each of its `d` row-sum groups — group `j` at the
    /// box-local offsets `rel` of the other dims (`cross` is scratch for
    /// them, `d − 1` long).
    #[inline]
    pub(super) fn box_add(
        &mut self,
        obox: u32,
        rel: &[usize],
        cross: &mut [usize],
        delta: G,
        config: &DdcConfig,
        ops: &mut OpSnapshot,
    ) {
        let at = obox as usize * self.rec_words;
        self.words[at] = self.words[at].add(delta);
        ops.writes += 1;
        if self.d == 2 && self.face_words != 0 {
            // Group j is indexed by the one other coordinate.
            for j in 0..2 {
                let run = self.face_run(obox, j);
                let other = &rel[1 - j..2 - j];
                ops.writes += self.face.add(&mut self.words[run], self.k, other, delta);
            }
        } else if self.d >= 2 {
            self.groups_add(obox, rel, cross, delta, config, ops);
        }
    }

    /// The rest of [`Level::box_add`] — groups of rank two and up, and
    /// every group that is a tree — a call of its own so the d = 2
    /// update loop that `box_add` is inlined into holds only the
    /// inline-face arithmetic.
    fn groups_add(
        &mut self,
        obox: u32,
        rel: &[usize],
        cross: &mut [usize],
        delta: G,
        config: &DdcConfig,
        ops: &mut OpSnapshot,
    ) {
        let (d, k) = (self.d, self.k);
        for j in 0..d {
            let mut w = 0;
            for (i, r) in rel.iter().enumerate() {
                if i != j {
                    cross[w] = *r;
                    w += 1;
                }
            }
            let at = self.root_at(obox, j);
            match &mut self.forest {
                None => {
                    let run = self.face_run(obox, j);
                    ops.writes += self.face.add(&mut self.words[run], k, &cross[..w], delta);
                }
                Some(Forest { roots, slabs }) => forest_of(slabs, d, k, config).add_counted(
                    &mut roots[at],
                    &cross[..w],
                    delta,
                    ops,
                ),
            }
        }
    }

    /// Heap bytes of the level's secondary trees: the roots and the
    /// slabs they share, by capacity (0 without a forest).
    fn forest_bytes(&self) -> usize {
        self.forest.as_ref().map_or(0, |f| {
            f.roots.capacity() * std::mem::size_of::<ChildRef>()
                + f.slabs
                    .as_ref()
                    .map_or(0, |s| std::mem::size_of::<Slabs<G>>() + s.heap_bytes())
        })
    }

    /// Heap bytes of the slab: array capacities plus the level's forest.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.words.capacity() * std::mem::size_of::<G>()
            + self.forest_bytes()
    }

    /// Audits the slab against the reachable sets computed by the tree
    /// walk: array lengths are whole records, every node and box record
    /// was reached, and the level's forest passes [`Slabs::audit`] for
    /// the roots of its box records — so every secondary subtree hangs
    /// off exactly one root of one box.
    fn audit(&self, node_seen: &[bool], box_seen: &[bool]) {
        let stride = 1usize << self.d;
        assert_eq!(
            self.slots.len() % stride,
            0,
            "slot slab length not a node multiple"
        );
        assert_eq!(
            self.words.len() % self.rec_words,
            0,
            "word slab length not a record multiple"
        );
        if let Some(forest) = &self.forest {
            assert_eq!(
                forest.roots.len(),
                self.boxes() * self.d,
                "roots out of step with the box records"
            );
        }
        all_reached("node", node_seen);
        all_reached("box record", box_seen);
        match &self.forest {
            Some(Forest {
                roots,
                slabs: Some(slabs),
            }) => {
                slabs.audit(roots.iter().copied());
            }
            Some(Forest { roots, slabs: None }) => assert!(
                roots.iter().all(|r| r.is_empty()),
                "secondary root set in a level without a forest"
            ),
            None => {}
        }
    }
}

/// Panics unless the tree walk reached every id it was handed: the
/// slabs are append-only, so an allocated record nothing refers to is a
/// leak.
fn all_reached(what: &str, seen: &[bool]) {
    if let Some(ix) = seen.iter().position(|&v| !v) {
        panic!("{what} {ix} leaked: allocated but unreachable");
    }
}

impl<G: AbelianGroup> Slabs<G> {
    /// Claims a zeroed leaf block of the slabs' leaf side.
    pub(super) fn alloc_leaf(&mut self) -> u32 {
        debug_assert_eq!(
            self.leaves.run_len(),
            self.leaf_side().pow(self.d as u32),
            "leaf block size mismatch"
        );
        let id = self.leaves.insert_zeroed();
        assert!(id < LEAF_BIT - 1, "leaf arena overflow");
        id
    }

    /// Heap bytes behind the slabs: array capacities, every level's
    /// forest, and the resident part of the leaf arena.
    fn heap_bytes(&self) -> usize {
        self.levels.capacity() * std::mem::size_of::<Level<G>>()
            + self.levels.iter().map(Level::heap_bytes).sum::<usize>()
            + self.leaves.heap_bytes()
    }

    /// Audits the bookkeeping of the slabs against the trees rooted at
    /// `roots` — the conditions [`DdcTree::check_arena`] lists, for
    /// these slabs and, through [`Level::audit`], for every forest
    /// below them. Returns `(reachable_nodes, reachable_leaves)`.
    fn audit(&self, roots: impl IntoIterator<Item = ChildRef>) -> (usize, usize) {
        let mut k = self.side;
        for level in &self.levels {
            k >>= 1;
            assert_eq!(level.k, k, "level half-sides must halve from the root");
        }
        assert_eq!(
            k,
            self.leaf_side(),
            "levels must end at the leaf-block side"
        );
        let mut node_seen: Vec<Vec<bool>> = self
            .levels
            .iter()
            .map(|lv| vec![false; lv.nodes()])
            .collect();
        let mut box_seen: Vec<Vec<bool>> = self
            .levels
            .iter()
            .map(|lv| vec![false; lv.boxes()])
            .collect();
        let mut leaf_seen = vec![false; self.leaves.slots()];
        for root in roots {
            self.mark_reachable(root, 0, &mut node_seen, &mut box_seen, &mut leaf_seen);
        }
        for (l, level) in self.levels.iter().enumerate() {
            level.audit(&node_seen[l], &box_seen[l]);
        }
        all_reached("leaf block", &leaf_seen);
        self.leaves.audit();
        (
            node_seen.iter().flatten().filter(|&&v| v).count(),
            leaf_seen.iter().filter(|&&v| v).count(),
        )
    }

    fn mark_reachable(
        &self,
        c: ChildRef,
        l: usize,
        node_seen: &mut [Vec<bool>],
        box_seen: &mut [Vec<bool>],
        leaf_seen: &mut [bool],
    ) {
        if c.is_empty() {
            return;
        }
        let ix = c.index();
        if c.is_leaf() {
            assert_eq!(l, self.levels.len(), "leaf ref {ix} above the leaf depth");
            assert!(ix < leaf_seen.len(), "dangling leaf ref {ix}");
            assert!(!leaf_seen[ix], "leaf slot {ix} referenced twice");
            leaf_seen[ix] = true;
            return;
        }
        assert!(l < self.levels.len(), "node ref {ix} below the last level");
        assert!(ix < node_seen[l].len(), "dangling node ref {ix}");
        assert!(!node_seen[l][ix], "node slot {ix} referenced twice");
        node_seen[l][ix] = true;
        let base = ix << self.d;
        for s in 0..self.stride() {
            let slot = self.levels[l].slots[base + s];
            if slot.obox != NO_BOX {
                let b = slot.obox as usize;
                assert!(b < box_seen[l].len(), "dangling box ref {b}");
                assert!(!box_seen[l][b], "box record {b} referenced twice");
                box_seen[l][b] = true;
            }
            self.mark_reachable(slot.child, l + 1, node_seen, box_seen, leaf_seen);
        }
    }
}

impl<G: AbelianGroup> DdcTree<G> {
    /// Collects structural statistics by one traversal — the storage
    /// profile behind Table 2 and §4.4 ("most of the additional storage
    /// … is found in the lowest levels of the tree"). Nodes, boxes and
    /// leaf blocks are the primary tree's; the row-sum groups appear as
    /// `secondary_bytes` (inline face runs per box, secondary trees one
    /// forest per level).
    pub fn stats(&self) -> TreeStats {
        let slabs = &self.slabs;
        let mut stats = TreeStats {
            leaf_side: slabs.leaf_side(),
            secondary_bytes: slabs.levels.iter().map(Level::forest_bytes).sum(),
            ..TreeStats::default()
        };
        self.collect_stats(self.root, slabs.side, 0, &mut stats);
        stats.total_bytes = self.heap_bytes();
        stats
    }

    fn collect_stats(&self, c: ChildRef, side: usize, l: usize, stats: &mut TreeStats) {
        while stats.per_level.len() <= l {
            stats.per_level.push(LevelStats::default());
        }
        stats.per_level[l].side = side;
        if c.is_empty() {
            return;
        }
        stats.depth = stats.depth.max(l);
        if c.is_leaf() {
            stats.leaf_blocks += 1;
            stats.leaf_cells += side.pow(self.slabs.d as u32);
            stats.per_level[l].leaf_blocks += 1;
            return;
        }
        stats.nodes += 1;
        stats.per_level[l].nodes += 1;
        let level = &self.slabs.levels[l];
        let base = c.index() << self.slabs.d;
        for slot in &level.slots[base..base + self.slabs.stride()] {
            if slot.obox != NO_BOX {
                stats.boxes += 1;
                stats.per_level[l].boxes += 1;
                // Inline face runs; trees are `forest_bytes` above.
                stats.secondary_bytes += level.d * level.face_words * std::mem::size_of::<G>();
            }
            self.collect_stats(slot.child, level.k, l + 1, stats);
        }
    }

    /// Approximate heap bytes held by the whole structure: slab
    /// capacities (every level's forest included) and the resident part
    /// of the leaf arena.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slabs.heap_bytes()
    }

    /// Audits the slab bookkeeping: the levels match the side, every
    /// reachable reference is in bounds, and every allocated node, box
    /// record and leaf block is reached exactly once — the slabs are
    /// append-only, so one never reached is a leak. The same holds
    /// inside every level's forest, for the trees rooted at the level's
    /// `roots`: there is one root per group of every box record, and
    /// each forest node, box record and leaf block hangs off exactly one
    /// root of one box. Returns the primary tree's
    /// `(reachable_nodes, reachable_leaves)`.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn check_arena(&self) -> (usize, usize) {
        self.slabs.audit([self.root])
    }

    /// Reserves the leaf arena for every block of the space, for a tree
    /// that will not grow (a [`crate::DdcEngine`]'s), when the layout is
    /// the derived blocked one and the space is at most
    /// [`RESERVED_LEAF_BLOCKS`] blocks. Such an arena is allocated once
    /// instead of doubling its way there: the last doubling's `realloc`
    /// is the one allocation large enough to be copied, and while it is,
    /// the old and the new array are both resident (EXPERIMENTS
    /// "Row-cumulative groups", peak RSS). Block counts are powers of
    /// two, so a space whose every block is populated ends at the
    /// capacity doubling reaches and its `heap_bytes` does not change; a
    /// partly populated one counts the whole arena from the start. An
    /// explicit `h` and `sparse()` keep growing on demand.
    pub(crate) fn reserve_bounded_leaves(&mut self) {
        let slabs = &mut self.slabs;
        let blocks = (slabs.side / slabs.leaf_side()).checked_pow(slabs.d as u32);
        let reserved =
            blocks.filter(|&b| b <= RESERVED_LEAF_BLOCKS && derived_blocked(&slabs.config));
        if let Some(blocks) = reserved {
            slabs.leaves.reserve_blocks(blocks);
        }
    }

    /// True once `enable_paging` has moved the leaf arena onto pages.
    pub fn is_paged(&self) -> bool {
        self.slabs.leaves.is_paged()
    }

    /// Buffer-pool counters of the paged leaf arena (`None` in memory).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.slabs.leaves.pool_stats()
    }
}

impl<G: AbelianGroup + ValueCodec> DdcTree<G> {
    /// Activates the paged leaf backend requested by
    /// [`crate::LeafBackend::Paged`], spilling to the pager's default
    /// file: a `Vec`, or an unlinked file under the OS temp directory
    /// for [`crate::PagerConfig::disk`].
    ///
    /// Lives in a [`ValueCodec`]-bounded impl because cells are encoded
    /// onto pages; once enabled, every unbounded code path (grow,
    /// updates) keeps working. Returns whether the tree is paged
    /// afterwards: `false` means the config never asked for paging.
    /// Idempotent.
    pub fn enable_paging(&mut self) -> std::io::Result<bool> {
        self.page_leaves(None)
    }

    /// Moves the leaf arena's cells behind a buffer pool over `spill`,
    /// or over the pager's default file when `spill` is `None`, if the
    /// config asks for [`crate::LeafBackend::Paged`] (block ids are
    /// preserved, so every child reference stays valid). `spill` is
    /// scratch space: it should be empty, and nothing reads it back
    /// after the tree is dropped. An already-paged tree keeps its file
    /// and drops `spill`.
    pub(crate) fn page_leaves(&mut self, spill: Option<SpillFile>) -> std::io::Result<bool> {
        if let LeafBackend::Paged(pager) = self.slabs.config.leaf_backend {
            if !self.is_paged() {
                let spill = match spill {
                    Some(file) => file,
                    None => store::default_spill(pager)?,
                };
                self.slabs.leaves.page_onto(spill, pager);
            }
        }
        Ok(self.is_paged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The roots of one forested level.
    fn roots(level: &mut Level<i64>) -> &mut Vec<ChildRef> {
        &mut level.forest.as_mut().expect("a forested level").roots
    }

    /// Both kinds of forested level: the two-dimensional trees of a
    /// d = 3 `dynamic()` cube and the one-dimensional ones of a d = 2
    /// `sparse()` cube.
    const FORESTED: [(usize, fn() -> DdcConfig); 2] =
        [(3, DdcConfig::dynamic), (2, DdcConfig::sparse)];

    /// A side-8 tree with two boxes at the root level (records 0 and 1,
    /// roots `[0, d)` and `[d, 2d)`), all `2d` secondary trees
    /// populated.
    fn two_box_tree(d: usize, config: DdcConfig) -> DdcTree<i64> {
        let mut t = DdcTree::new(d, 8, config.with_elision(0));
        t.apply_delta(&[1, 2, 3][..d], 5);
        t.apply_delta(&[6, 5, 7][..d], -2);
        let roots = roots(&mut t.slabs.levels[0]);
        assert_eq!(roots.len(), 2 * d);
        assert!(roots.iter().all(|r| !r.is_empty()));
        t.check_arena();
        t
    }

    /// Runs `corrupt` on a [`two_box_tree`] of each forested kind and
    /// expects `check_arena` to refuse the result with `message` — then
    /// panics with it, for the caller's `should_panic`.
    fn audit_must_catch(message: &str, corrupt: impl Fn(&mut DdcTree<i64>, usize)) {
        for (d, config) in FORESTED {
            let mut t = two_box_tree(d, config());
            corrupt(&mut t, d);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.check_arena()))
                .expect_err("the audit passed a corrupted forest");
            let said = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(said.contains(message), "d = {d}: {said}");
        }
        panic!("{message}: refused for every kind of forest");
    }

    #[test]
    #[should_panic(expected = "leaked")]
    fn check_arena_catches_a_leaked_forest_subtree() {
        audit_must_catch("leaked", |t, d| {
            roots(&mut t.slabs.levels[0])[d + 1] = ChildRef::EMPTY;
        });
    }

    #[test]
    #[should_panic(expected = "referenced twice")]
    fn check_arena_catches_a_double_linked_forest_subtree() {
        audit_must_catch("referenced twice", |t, d| {
            let roots = roots(&mut t.slabs.levels[0]);
            roots[d + 1] = roots[0];
        });
    }

    /// An allocated node, box record or leaf block that no reference
    /// reaches is a leak, in the primary tree's slabs and in a level's
    /// forest alike: the slabs are append-only, so nothing else can hold
    /// it.
    #[test]
    fn check_arena_catches_an_allocated_but_unreachable_record() {
        type Corrupt = fn(&mut Slabs<i64>) -> u32;
        let kinds: [(&str, Corrupt); 3] = [
            ("node", |s| s.levels[0].alloc_node()),
            ("box record", |s| s.levels[0].alloc_box()),
            ("leaf block", Slabs::alloc_leaf),
        ];
        for (d, config) in FORESTED {
            for (what, corrupt) in kinds {
                for in_forest in [false, true] {
                    let mut t = two_box_tree(d, config());
                    let slabs = if in_forest {
                        let forest = t.slabs.levels[0].forest.as_mut().expect("forested");
                        forest.slabs.as_deref_mut().expect("populated")
                    } else {
                        &mut t.slabs
                    };
                    let id = corrupt(slabs);
                    let panic =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.check_arena()))
                            .expect_err("the audit passed an unreachable record");
                    let said = panic.downcast_ref::<String>().expect("a formatted panic");
                    let want = format!("{what} {id} leaked");
                    assert!(
                        said.contains(&want),
                        "d = {d}, in forest {in_forest}: {said}"
                    );
                }
            }
        }
    }

    /// Forests are created with their level's first root: an eager
    /// forest per level would multiply out to ~10^5 empty `Level`s at
    /// d = 5 before a single cell is set.
    #[test]
    fn forests_are_created_lazily_and_only_along_update_paths() {
        let empty = DdcTree::<i64>::new(5, 1 << 16, DdcConfig::dynamic().with_elision(0));
        assert!(
            empty.heap_bytes() < 64 << 10,
            "empty d = 5 tree holds {} bytes",
            empty.heap_bytes()
        );

        // One update: one box record per primary level, its four
        // secondary trees one path each in the level's forest, and no
        // box record — so no root — anywhere off those paths.
        let mut t = DdcTree::<i64>::new(4, 256, DdcConfig::dynamic().with_elision(0));
        t.apply_delta(&[3, 200, 77, 130], 5);
        assert_eq!(t.slabs.levels.len(), 7);
        for level in &mut t.slabs.levels {
            assert_eq!(level.boxes(), 1);
            let Forest { roots, slabs } = level.forest.as_mut().expect("d = 4 levels are forested");
            assert_eq!(roots.len(), 4);
            assert!(roots.iter().all(|r| !r.is_empty()));
            let forest = slabs.as_mut().expect("a set root implies a forest");
            for sub in &mut forest.levels {
                assert_eq!(sub.boxes(), 4, "one box per secondary tree");
                let set = self::roots(sub).iter().filter(|r| !r.is_empty()).count();
                assert_eq!(set, 4 * 3);
            }
        }
        t.check_arena();
        assert_eq!(t.check_invariants(), 5);

        // The same at the bottom of the recursion, d = 2 `sparse()`:
        // the two groups of a box record are one-dimensional trees of
        // side `k`, one path of nodes above one 16-cell run each.
        let mut t = DdcTree::<i64>::new(2, 1 << 16, DdcConfig::sparse());
        t.apply_delta(&[40_000, 123], 5);
        assert_eq!(t.slabs.levels.len(), 12);
        for level in &t.slabs.levels {
            assert_eq!(level.boxes(), 1);
            let Forest { roots, slabs } = level.forest.as_ref().expect("lazy groups are trees");
            assert_eq!(roots.len(), 2);
            assert!(roots.iter().all(|r| !r.is_empty()));
            let forest = slabs.as_ref().expect("a set root implies a forest");
            assert_eq!((forest.d, forest.side), (1, level.k));
            assert_eq!(forest.leaves.slots(), 2);
            for sub in &forest.levels {
                assert!(sub.forest.is_none(), "d = 1 has no row-sum groups");
                assert_eq!((sub.nodes(), sub.boxes()), (2, 2), "one path per root");
            }
        }
        t.check_arena();
        assert_eq!(t.check_invariants(), 5);
    }
}
