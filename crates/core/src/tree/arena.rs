//! The slabs behind a [`DdcTree`]: one [`Level`] per interior depth
//! (node slots, packed box records with their inline face runs, and —
//! where the row-sum groups are trees — their roots and the forest they
//! share), the leaf arena, and everything that manages them —
//! allocation and free lists, pruning, compaction, statistics, and the
//! `check_arena` audit. The record layout is drawn in the parent
//! module's docs.

use ddc_array::{with_coord_bufs, AbelianGroup, OpSnapshot};
use ddc_btree::blocked;

use super::{ChildRef, DdcTree, LevelStats, Slabs, TreeStats, LEAF_BIT};
use crate::config::{BaseStore, DdcConfig, LeafBackend, Mode};
use crate::flat_face;
use crate::pager::PoolStats;
use crate::persist::ValueCodec;
use crate::store::{self, LeafArena, SpillFile};

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
}

impl Face {
    /// Words of one run (none at d = 1, which has no row-sum groups).
    fn words(self, d: usize, k: usize) -> usize {
        match self {
            _ if d == 1 => 0,
            Face::Blocked => blocked::words_for(k),
            Face::Flat => k.pow(d as u32 - 1),
        }
    }

    /// Cumulative group value at `cross`, and the values read.
    #[inline]
    fn prefix<G: AbelianGroup>(self, run: &[G], k: usize, cross: &[usize]) -> (G, u64) {
        match self {
            Face::Blocked => blocked::prefix(run, k, cross[0]),
            Face::Flat => flat_face::prefix(run, k, cross),
        }
    }

    /// Group sum over the cross box `[lo, hi]`, and the values read:
    /// Figure 4 over the run's own prefixes, one term per subset of the
    /// dimensions where `lo > 0`. The term at the run's far corner is
    /// the whole group, i.e. `total`, the box's subtotal: one read. A
    /// one-dimensional group is that loop's two terms, read directly.
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
    node_free: Vec<u32>,
    /// Box record `b` is `words[b·rec_words ..][..rec_words]`:
    /// `[subtotal | face_0 | … | face_{d−1}]`.
    words: Vec<G>,
    box_free: Vec<u32>,
    /// The groups that are not inline runs of `words`.
    forest: Option<Forest<G>>,
}

impl<G: AbelianGroup> Level<G> {
    /// An empty level for boxes of side `k`. A row-sum group is an
    /// inline run of its box record when it is a flat cumulative array
    /// (Basic mode) or a one-dimensional blocked B^c group, and a tree
    /// of the level's forest otherwise — down to the one-dimensional
    /// trees of `BaseStore::Lazy`, where the recursion of §4.2 ends in
    /// a tree without groups.
    pub(super) fn new(d: usize, k: usize, config: &DdcConfig) -> Self {
        let face = match config.mode {
            Mode::Basic => Face::Flat,
            Mode::Dynamic => Face::Blocked,
        };
        let inline = d == 1 || face == Face::Flat || (d == 2 && config.base == BaseStore::Blocked);
        let face_words = if inline { face.words(d, k) } else { 0 };
        Self {
            d,
            k,
            face,
            face_words,
            rec_words: 1 + d * face_words,
            slots: Vec::new(),
            node_free: Vec::new(),
            words: Vec::new(),
            box_free: Vec::new(),
            forest: (!inline).then(|| Forest {
                roots: Vec::new(),
                slabs: None,
            }),
        }
    }

    /// An empty level of the same shape with room for exactly this
    /// level's live nodes and boxes (compaction target); its forest is
    /// the compaction target of this level's.
    fn compacted_shell(&self) -> Self {
        let live_nodes = self.nodes() - self.node_free.len();
        let live_boxes = self.boxes() - self.box_free.len();
        Self {
            slots: Vec::with_capacity(live_nodes << self.d),
            node_free: Vec::new(),
            words: Vec::with_capacity(live_boxes * self.rec_words),
            box_free: Vec::new(),
            forest: self.forest.as_ref().map(|f| Forest {
                roots: Vec::with_capacity(live_boxes * self.d),
                slabs: f.slabs.as_ref().map(|s| Box::new(s.compacted_shell())),
            }),
            ..*self
        }
    }

    /// Node ids handed out so far (live + free).
    fn nodes(&self) -> usize {
        self.slots.len() >> self.d
    }

    /// Box record ids handed out so far (live + free).
    fn boxes(&self) -> usize {
        self.words.len() / self.rec_words
    }

    /// Index in the forest's roots of group `j` of box `obox`.
    #[inline]
    fn root_at(&self, obox: u32, j: usize) -> usize {
        obox as usize * self.d + j
    }

    /// Indices in the forest's roots of all `d` groups of box `obox`.
    fn roots_of(&self, obox: u32) -> std::ops::Range<usize> {
        self.root_at(obox, 0)..self.root_at(obox, self.d)
    }

    /// Allocates a node id, preferring the free list; its slots are
    /// vacant.
    pub(super) fn alloc_node(&mut self) -> u32 {
        if let Some(id) = self.node_free.pop() {
            return id;
        }
        let id = self.nodes() as u32;
        assert!(id < LEAF_BIT, "node arena overflow");
        self.slots
            .resize(self.slots.len() + (1 << self.d), Slot::VACANT);
        id
    }

    /// Vacates one node's slots and free-lists it. The caller has
    /// already released the boxes and children the slots named.
    pub(super) fn free_node(&mut self, id: u32) {
        let base = (id as usize) << self.d;
        self.slots[base..base + (1 << self.d)].fill(Slot::VACANT);
        self.node_free.push(id);
    }

    /// Allocates an all-zero box record (subtotal zero, groups empty),
    /// preferring the free list.
    pub(super) fn alloc_box(&mut self) -> u32 {
        if let Some(id) = self.box_free.pop() {
            return id;
        }
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

    /// Clears one box record and free-lists it. Its secondary trees go
    /// back to the forest's free lists.
    pub(super) fn free_box(&mut self, id: u32) {
        let at = id as usize * self.rec_words;
        self.words[at..at + self.rec_words].fill(G::ZERO);
        let at = self.roots_of(id);
        // No slabs yet: every root is still `EMPTY`.
        if let Some(Forest {
            roots,
            slabs: Some(slabs),
        }) = &mut self.forest
        {
            for root in &mut roots[at] {
                slabs.free_subtree(std::mem::replace(root, ChildRef::EMPTY), 0);
            }
        }
        self.box_free.push(id);
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

    /// Moves box record `obox` of `from` (the level this one is the
    /// [`Level::compacted_shell`] of) into a fresh record of this level,
    /// returning its id. Its secondary trees move into this level's
    /// forest.
    fn adopt_box(&mut self, from: &mut Level<G>, obox: u32) -> u32 {
        let id = self.alloc_box();
        let rw = self.rec_words;
        self.words[id as usize * rw..][..rw]
            .copy_from_slice(&from.words[obox as usize * rw..][..rw]);
        let (to, at) = (self.roots_of(id), from.roots_of(obox));
        // No slabs: the fresh record's `EMPTY` roots are the copy.
        if let (
            Some(Forest {
                roots: new,
                slabs: Some(into),
            }),
            Some(Forest {
                roots: old,
                slabs: Some(slabs),
            }),
        ) = (&mut self.forest, &mut from.forest)
        {
            for (new, old) in new[to].iter_mut().zip(&old[at]) {
                *new = slabs.move_child(*old, 0, into);
            }
        }
        id
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

    /// Bytes of this level's records inside the slab arrays, as
    /// `(live, dead)`: node slots and box records (with their roots),
    /// the dead ones being those on the free lists — plus the same for
    /// the level's forest.
    fn record_bytes(&self) -> (usize, usize) {
        let node = std::mem::size_of::<Slot>() << self.d;
        let roots = self.forest.as_ref().map_or(0, |_| self.d);
        let rec =
            self.rec_words * std::mem::size_of::<G>() + roots * std::mem::size_of::<ChildRef>();
        let dead = self.node_free.len() * node + self.box_free.len() * rec;
        let live = self.nodes() * node + self.boxes() * rec - dead;
        let (forest_live, forest_dead) = self
            .forest
            .as_ref()
            .and_then(|f| f.slabs.as_ref())
            .map_or((0, 0), |s| s.record_bytes());
        (live + forest_live, dead + forest_dead)
    }

    /// Heap bytes of the slab: array capacities plus the level's forest.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + (self.node_free.capacity() + self.box_free.capacity()) * std::mem::size_of::<u32>()
            + self.words.capacity() * std::mem::size_of::<G>()
            + self.forest_bytes()
    }

    /// Audits the slab against the reachable sets computed by the tree
    /// walk: array lengths are whole records, both free lists pass
    /// [`audit_free_list`], and the level's forest passes
    /// [`Slabs::audit`] for the roots of its box records — a freed box's
    /// roots are `EMPTY`, so every secondary subtree hangs off exactly
    /// one root of one live box or waits on the forest's free lists.
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
        audit_free_list("node", &self.node_free, node_seen, |id| {
            self.slots[id as usize * stride..][..stride]
                .iter()
                .all(|s| *s == Slot::VACANT)
        });
        audit_free_list("box", &self.box_free, box_seen, |id| {
            self.words[id as usize * self.rec_words..][..self.rec_words]
                .iter()
                .all(G::is_zero)
                && self.forest.as_ref().map_or(true, |f| {
                    f.roots[self.roots_of(id)].iter().all(|r| r.is_empty())
                })
        });
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

/// Checks one free list against the ids the tree walk reached: every
/// entry in bounds, listed once, unreachable and `cleared`; every id
/// reachable or free (no leaks).
fn audit_free_list(what: &str, free: &[u32], seen: &[bool], cleared: impl Fn(u32) -> bool) {
    let mut freed = vec![false; seen.len()];
    for &id in free {
        let ix = id as usize;
        assert!(ix < seen.len(), "free {what} id {id} out of bounds");
        assert!(!freed[ix], "{what} id {id} twice on the free list");
        freed[ix] = true;
        assert!(!seen[ix], "{what} id {id} both free and reachable");
        assert!(cleared(id), "free {what} {id} still holds content");
    }
    for ix in 0..seen.len() {
        assert!(seen[ix] || freed[ix], "{what} slot {ix} leaked");
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

    /// Returns a whole subtree's slots to the free lists; `l` is the
    /// level a node `c` lives at.
    pub(super) fn free_subtree(&mut self, c: ChildRef, l: usize) {
        if c.is_empty() {
            return;
        }
        if c.is_leaf() {
            self.leaves.remove(c.index() as u32);
            return;
        }
        let base = c.index() << self.d;
        for s in 0..self.stride() {
            let slot = self.levels[l].slots[base + s];
            self.free_subtree(slot.child, l + 1);
            if slot.obox != NO_BOX {
                self.levels[l].free_box(slot.obox);
            }
        }
        self.levels[l].free_node(c.index() as u32);
    }

    /// Returns whether the child still holds any non-zero content; dead
    /// descendants are freed and their slots vacated.
    fn prune_live(&mut self, c: ChildRef, l: usize) -> bool {
        if c.is_empty() {
            return false;
        }
        if c.is_leaf() {
            return self
                .leaves
                .with(c.index() as u32, |cells| !cells.iter().all(G::is_zero));
        }
        let base = c.index() << self.d;
        let mut any = false;
        for s in 0..self.stride() {
            let slot = self.levels[l].slots[base + s];
            if self.prune_live(slot.child, l + 1) {
                any = true;
            } else {
                self.free_subtree(slot.child, l + 1);
                // A box over an empty region contributes only zeros;
                // release it with its secondary trees.
                if slot.obox != NO_BOX {
                    debug_assert!(self.levels[l].subtotal(slot.obox).is_zero());
                    self.levels[l].free_box(slot.obox);
                }
                self.levels[l].slots[base + s] = Slot::VACANT;
            }
        }
        any
    }

    /// Bytes of the records a compaction rewrites, as `(live, dead)`:
    /// every level's (forests included) and the in-memory leaf blocks.
    /// Paged leaf blocks are on neither side: compaction cannot renumber
    /// them (ids are stable on pages), so they can neither force nor
    /// hold off a rewrite of the levels.
    fn record_bytes(&self) -> (usize, usize) {
        let (mut live, mut dead) = (0, 0);
        for level in &self.levels {
            let (l, d) = level.record_bytes();
            live += l;
            dead += d;
        }
        if !self.leaves.is_paged() {
            let block = self.leaves.run_len() * std::mem::size_of::<G>();
            let free = self.leaves.free_ids().len();
            dead += free * block;
            live += (self.leaves.slots() - free) * block;
        }
        (live, dead)
    }

    /// Empty slabs of the same shape with room for exactly the live
    /// records of these (compaction target).
    fn compacted_shell(&self) -> Self {
        Self {
            levels: self.levels.iter().map(Level::compacted_shell).collect(),
            leaves: LeafArena::new(self.leaves.run_len()),
            ..*self
        }
    }

    /// Rewrites the slabs to hold exactly the records reachable from
    /// `root` (visit-order renumbering within each level, forests
    /// included), dropping all free-list capacity, and returns the
    /// tree's new root. A paged leaf arena keeps its slot ids — its
    /// cells live on pages, not in a `Vec` whose capacity could be
    /// returned, so only the levels (and an in-memory leaf arena) are
    /// rebuilt.
    fn compact(&mut self, root: ChildRef) -> ChildRef {
        let mut to = self.compacted_shell();
        let root = self.move_child(root, 0, &mut to);
        if self.leaves.is_paged() {
            std::mem::swap(&mut self.leaves, &mut to.leaves);
        }
        *self = to;
        root
    }

    /// Moves one subtree into `to`, the [`Slabs::compacted_shell`] of
    /// these slabs, returning its new reference. Leaf ids on pages are
    /// stable and stay as they are.
    fn move_child(&mut self, c: ChildRef, l: usize, to: &mut Slabs<G>) -> ChildRef {
        if c.is_empty() {
            return ChildRef::EMPTY;
        }
        if c.is_leaf() {
            if self.leaves.is_paged() {
                return c;
            }
            let id = to.leaves.insert_zeroed();
            self.leaves.with(c.index() as u32, |cells| {
                to.leaves.with_mut(id, |block| block.copy_from_slice(cells));
            });
            return ChildRef::leaf(id);
        }
        let old_base = c.index() << self.d;
        let id = to.levels[l].alloc_node();
        let new_base = (id as usize) << self.d;
        for s in 0..self.stride() {
            let slot = self.levels[l].slots[old_base + s];
            let obox = if slot.obox == NO_BOX {
                NO_BOX
            } else {
                to.levels[l].adopt_box(&mut self.levels[l], slot.obox)
            };
            let child = self.move_child(slot.child, l + 1, to);
            to.levels[l].slots[new_base + s] = Slot { child, obox };
        }
        ChildRef::node(id)
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
        audit_free_list("leaf", self.leaves.free_ids(), &leaf_seen, |id| {
            self.leaves.with(id, |cells| cells.iter().all(G::is_zero))
        });
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
    /// Reclaims storage left behind by cancelling updates: all-zero leaf
    /// blocks and subtrees whose every cell returned to zero go back to
    /// the free lists (with their box records and secondary trees), and
    /// once the free-listed records amount to more than half the live
    /// ones in bytes, the slabs are compacted into exactly-sized
    /// replacements. Returns the number of heap bytes released, which is
    /// what a compaction gave back: records freed inside a slab release
    /// nothing by themselves — they are zeroed and wait for reuse. That
    /// holds for both kinds of row-sum group: an inline face run is part
    /// of its box record, and a secondary tree's nodes, box records and
    /// leaf blocks go back to the free lists of its level's forest. A
    /// prune below the compaction threshold returns 0.
    ///
    /// Lazily materialized structures never free themselves on the update
    /// path (a cell may go through zero transiently); churn-heavy
    /// workloads call this at their own cadence.
    pub fn prune(&mut self) -> usize {
        let before = self.heap_bytes();
        if !self.slabs.prune_live(self.root, 0) {
            self.slabs.free_subtree(self.root, 0);
            self.root = ChildRef::EMPTY;
        }
        self.maybe_compact();
        before.saturating_sub(self.heap_bytes())
    }

    /// Compacts when the dead (free-listed) records hold more than half
    /// the bytes of the live ones, over the slabs a compaction rewrites
    /// — so at most a third of the slab bytes ever wait on free lists.
    /// Bytes rather than slot counts, because records differ in size by
    /// level: a box record is `1 + d · words_for(k)` words next to the
    /// root and a handful at the bottom. The records of every level's
    /// forest count like the primary tree's (a compaction rewrites them
    /// too).
    fn maybe_compact(&mut self) {
        let (live, dead) = self.slabs.record_bytes();
        if 2 * dead > live {
            self.root = self.slabs.compact(self.root);
        }
    }

    /// Collects structural statistics by one traversal — the storage
    /// profile behind Table 2 and §4.4 ("most of the additional storage
    /// … is found in the lowest levels of the tree") plus the slab
    /// occupancy counters. Nodes, boxes, leaf blocks and slots are the
    /// primary tree's; the row-sum groups appear as `secondary_bytes`
    /// (inline face runs per box, secondary trees one forest per level).
    pub fn stats(&self) -> TreeStats {
        let slabs = &self.slabs;
        let mut stats = TreeStats {
            node_slots: slabs.levels.iter().map(Level::nodes).sum(),
            free_node_slots: slabs.levels.iter().map(|lv| lv.node_free.len()).sum(),
            leaf_side: slabs.leaf_side(),
            leaf_slots: slabs.leaves.slots(),
            free_leaf_slots: slabs.leaves.free_ids().len(),
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
    /// reachable reference is in bounds and occupied, no node, box
    /// record or leaf block is reached twice, free-list entries are
    /// valid, unique, cleared, and disjoint from the reachable set, and
    /// every slot is either reachable or free (no leaks). The same holds
    /// inside every level's forest, for the trees rooted at the level's
    /// `roots`: there is one root per group of every box record, a freed
    /// box's roots are `EMPTY`, and each forest node, box record and
    /// leaf block hangs off exactly one root of one live box or is on a
    /// free list. Returns the primary tree's
    /// `(reachable_nodes, reachable_leaves)`.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn check_arena(&self) -> (usize, usize) {
        self.slabs.audit([self.root])
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
    /// onto pages; once enabled, every unbounded code path (grow, prune,
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

    #[test]
    #[should_panic(expected = "still holds content")]
    fn check_arena_catches_a_freed_box_that_kept_a_root() {
        audit_must_catch("still holds content", |t, d| {
            // Enough live content that freeing box 1 does not compact.
            for x in 0..4 {
                for y in 0..4 {
                    t.apply_delta(&[x, y, (x + y) % 4][..d], 1);
                }
            }
            t.apply_delta(&[6, 5, 7][..d], 2);
            t.prune();
            let roots = roots(&mut t.slabs.levels[0]);
            assert_eq!(roots.len(), 2 * d, "below the compaction threshold");
            roots[d] = roots[0];
        });
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
