//! The slabs behind a [`DdcTree`]: one [`Level`] per interior depth
//! (node slots + packed box records), the leaf arena, and everything
//! that manages them — allocation and free lists, pruning, compaction,
//! statistics, and the `check_arena` audit. The record layout
//! is drawn in the parent module's docs.

use ddc_array::{AbelianGroup, NdArray, OpSnapshot};
use ddc_btree::blocked;

use super::{ChildRef, DdcTree, LevelStats, TreeStats, LEAF_BIT};
use crate::config::{BaseStore, DdcConfig, LeafBackend, Mode};
use crate::pager::PoolStats;
use crate::persist::ValueCodec;
use crate::secondary::Secondary;
use crate::store::{self, LeafArena};
use crate::vfs::VfsFile;

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

/// The slab of one interior depth: every node of half-side `k`, and
/// every overlay box of side `k`, of one tree.
#[derive(Debug)]
pub(crate) struct Level<G: AbelianGroup> {
    d: usize,
    /// Side of this level's overlay boxes (half its nodes' side).
    pub(super) k: usize,
    /// Words of one inline face run; 0 when faces are out of line.
    face_words: usize,
    /// Words of one box record: `1 + d · face_words`.
    rec_words: usize,
    /// Node `n` owns slots `[n·2^d, (n+1)·2^d)`.
    pub(super) slots: Vec<Slot>,
    node_free: Vec<u32>,
    /// Box record `b` is `words[b·rec_words ..][..rec_words]`:
    /// `[subtotal | face_0 | … | face_{d−1}]`.
    words: Vec<G>,
    /// Out-of-line row-sum groups, `d` per box record (empty when the
    /// faces are inline, and for `d = 1`, which has no groups).
    faces: Vec<Secondary<G>>,
    box_free: Vec<u32>,
}

impl<G: AbelianGroup> Level<G> {
    /// An empty level for boxes of side `k`. Faces are inline exactly
    /// when they are one-dimensional blocked B^c groups.
    pub(super) fn new(d: usize, k: usize, config: &DdcConfig) -> Self {
        let inline = d == 2 && config.mode == Mode::Dynamic && config.base == BaseStore::Blocked;
        let face_words = if inline { blocked::words_for(k) } else { 0 };
        Self {
            d,
            k,
            face_words,
            rec_words: 1 + d * face_words,
            slots: Vec::new(),
            node_free: Vec::new(),
            words: Vec::new(),
            faces: Vec::new(),
            box_free: Vec::new(),
        }
    }

    /// An empty level of the same shape with room for exactly this
    /// level's live nodes and boxes (compaction target).
    fn compacted_shell(&self) -> Self {
        let live_nodes = self.nodes() - self.node_free.len();
        let live_boxes = self.boxes() - self.box_free.len();
        Self {
            slots: Vec::with_capacity(live_nodes << self.d),
            node_free: Vec::new(),
            words: Vec::with_capacity(live_boxes * self.rec_words),
            faces: Vec::with_capacity(live_boxes * self.face_stride()),
            box_free: Vec::new(),
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

    /// Out-of-line groups per box record.
    fn face_stride(&self) -> usize {
        if self.face_words == 0 && self.d >= 2 {
            self.d
        } else {
            0
        }
    }

    /// Index in `faces` of out-of-line group `j` of box `obox`.
    #[inline]
    fn face_at(&self, obox: u32, j: usize) -> usize {
        obox as usize * self.face_stride() + j
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

    /// Allocates an all-zero box record (subtotal zero, faces empty),
    /// preferring the free list.
    pub(super) fn alloc_box(&mut self) -> u32 {
        if let Some(id) = self.box_free.pop() {
            return id;
        }
        let id = self.boxes();
        assert!(id < NO_BOX as usize, "box arena overflow");
        self.words
            .resize(self.words.len() + self.rec_words, G::ZERO);
        let faces = self.faces.len() + self.face_stride();
        self.faces.resize_with(faces, || Secondary::Empty);
        id as u32
    }

    /// Clears one box record (dropping its out-of-line groups) and
    /// free-lists it.
    pub(super) fn free_box(&mut self, id: u32) {
        let at = id as usize * self.rec_words;
        self.words[at..at + self.rec_words].fill(G::ZERO);
        let stride = self.face_stride();
        for face in &mut self.faces[id as usize * stride..][..stride] {
            *face = Secondary::Empty;
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
            let (v, reads) = blocked::prefix(&self.words[self.face_run(obox, j)], self.k, cross[0]);
            ops.reads += reads;
            v
        } else {
            self.faces[self.face_at(obox, j)].prefix(cross, ops)
        }
    }

    /// True when group `j` of box `obox` is an unmaterialized
    /// out-of-line group (inline runs always exist).
    pub(super) fn face_is_unset(&self, obox: u32, j: usize) -> bool {
        self.face_words == 0 && matches!(self.faces[self.face_at(obox, j)], Secondary::Empty)
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
        if self.face_words != 0 {
            // d = 2: group j is indexed by the one other coordinate.
            for j in 0..2 {
                let run = self.face_run(obox, j);
                ops.writes += blocked::add(&mut self.words[run], self.k, rel[1 - j], delta);
            }
        } else if self.d >= 2 {
            for j in 0..self.d {
                let mut w = 0;
                for (i, r) in rel.iter().enumerate() {
                    if i != j {
                        cross[w] = *r;
                        w += 1;
                    }
                }
                let at = self.face_at(obox, j);
                self.faces[at].add(&cross[..w], delta, self.k, config, ops);
            }
        }
    }

    /// Bulk-writes a freshly allocated box record from a region scan:
    /// its subtotal and the raw slab sums of each row-sum group.
    pub(super) fn fill_box(
        &mut self,
        obox: u32,
        subtotal: G,
        raws: &[NdArray<G>],
        config: &DdcConfig,
    ) {
        self.words[obox as usize * self.rec_words] = subtotal;
        for (j, raw) in raws.iter().enumerate() {
            if self.face_words != 0 {
                let run = self.face_run(obox, j);
                blocked::fill(&mut self.words[run], raw.as_slice());
            } else {
                let at = self.face_at(obox, j);
                self.faces[at] = Secondary::build_from_raw(raw, config);
            }
        }
    }

    /// Moves box record `obox` of `from` (a level of the same shape)
    /// into a fresh record of this level, returning its id.
    fn adopt_box(&mut self, from: &mut Level<G>, obox: u32) -> u32 {
        let id = self.alloc_box();
        let rw = self.rec_words;
        self.words[id as usize * rw..][..rw]
            .copy_from_slice(&from.words[obox as usize * rw..][..rw]);
        for j in 0..self.face_stride() {
            let (to, at) = (self.face_at(id, j), from.face_at(obox, j));
            self.faces[to] = std::mem::replace(&mut from.faces[at], Secondary::Empty);
        }
        id
    }

    /// Heap bytes attributable to the row-sum groups of box `obox`.
    fn box_secondary_bytes(&self, obox: u32) -> usize {
        let stride = self.face_stride();
        self.d * self.face_words * std::mem::size_of::<G>()
            + self.faces[obox as usize * stride..][..stride]
                .iter()
                .map(Secondary::heap_bytes)
                .sum::<usize>()
    }

    /// Bytes of this level's records inside the slab arrays, as
    /// `(live, dead)`: node slots and box records (with their
    /// out-of-line group headers), the dead ones being those on the
    /// free lists.
    fn record_bytes(&self) -> (usize, usize) {
        let node = std::mem::size_of::<Slot>() << self.d;
        let rec = self.rec_words * std::mem::size_of::<G>()
            + self.face_stride() * std::mem::size_of::<Secondary<G>>();
        let dead = self.node_free.len() * node + self.box_free.len() * rec;
        (self.nodes() * node + self.boxes() * rec - dead, dead)
    }

    /// Heap bytes of the slab: array capacities plus the heap behind
    /// out-of-line groups.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + (self.node_free.capacity() + self.box_free.capacity()) * std::mem::size_of::<u32>()
            + self.words.capacity() * std::mem::size_of::<G>()
            + self.faces.capacity() * std::mem::size_of::<Secondary<G>>()
            + self.faces.iter().map(Secondary::heap_bytes).sum::<usize>()
    }

    /// Audits the slab against the reachable sets computed by the tree
    /// walk: array lengths are whole records, and both free lists pass
    /// [`audit_free_list`].
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
        assert_eq!(
            self.faces.len(),
            self.boxes() * self.face_stride(),
            "face slab out of step with the box records"
        );
        audit_free_list("node", &self.node_free, node_seen, |id| {
            self.slots[id as usize * stride..][..stride]
                .iter()
                .all(|s| *s == Slot::VACANT)
        });
        audit_free_list("box", &self.box_free, box_seen, |id| {
            self.words[id as usize * self.rec_words..][..self.rec_words]
                .iter()
                .all(G::is_zero)
                && (0..self.face_stride()).all(|j| self.face_is_unset(id, j))
        });
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

impl<G: AbelianGroup> DdcTree<G> {
    /// Claims a zeroed leaf block of the tree's leaf side.
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

    /// Reclaims storage left behind by cancelling updates: all-zero leaf
    /// blocks and subtrees whose every cell returned to zero go back to
    /// the free lists (with their box records and secondary
    /// structures), and once the free-listed records amount to more than
    /// half the live ones in bytes, the slabs are compacted into
    /// exactly-sized replacements. Returns the number of heap bytes
    /// released: the heap behind freed out-of-line groups, plus
    /// everything a compaction gave back. Records freed inside a slab
    /// release nothing by themselves — they are zeroed and wait for
    /// reuse — so a prune that neither frees an out-of-line group nor
    /// reaches the compaction threshold returns 0.
    ///
    /// Lazily materialized structures never free themselves on the update
    /// path (a cell may go through zero transiently); churn-heavy
    /// workloads call this at their own cadence.
    pub fn prune(&mut self) -> usize {
        let before = self.heap_bytes();
        let root = self.root;
        if !self.prune_live(root, 0) {
            self.free_subtree(root, 0);
            self.root = ChildRef::EMPTY;
        }
        self.maybe_compact();
        before.saturating_sub(self.heap_bytes())
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
                // release it with its secondary structures.
                if slot.obox != NO_BOX {
                    debug_assert!(self.levels[l].subtotal(slot.obox).is_zero());
                    self.levels[l].free_box(slot.obox);
                }
                self.levels[l].slots[base + s] = Slot::VACANT;
            }
        }
        any
    }

    /// Compacts when the dead (free-listed) records hold more than half
    /// the bytes of the live ones, over the slabs a compaction rewrites
    /// — so at most a third of the slab bytes ever wait on free lists.
    /// Bytes rather than slot counts, because records differ in size by
    /// level: a box record is `1 + d · words_for(k)` words next to the
    /// root and a handful at the bottom. The heap behind live
    /// out-of-line groups is not counted (compaction moves a group by
    /// its header), and neither are paged leaf blocks, on either side:
    /// compaction cannot renumber them (ids are stable on pages), so
    /// they can neither force nor hold off a rewrite of the levels.
    fn maybe_compact(&mut self) {
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
        if 2 * dead > live {
            self.compact();
        }
    }

    /// Rewrites the slabs to hold exactly the reachable records
    /// (visit-order renumbering within each level), dropping all
    /// free-list capacity. A paged leaf arena keeps its slot ids — its
    /// cells live on pages, not in a `Vec` whose capacity could be
    /// returned, so only the levels (and an in-memory leaf arena) are
    /// rebuilt.
    fn compact(&mut self) {
        let mut levels: Vec<Level<G>> = self.levels.iter().map(Level::compacted_shell).collect();
        let mut leaves = (!self.leaves.is_paged()).then(|| LeafArena::new(self.leaves.run_len()));
        let root = self.root;
        self.root = self.move_child(root, 0, &mut levels, &mut leaves);
        self.levels = levels;
        if let Some(arena) = leaves {
            self.leaves = arena;
        }
    }

    /// Moves one subtree into the replacement slabs. `leaves` is `None`
    /// when the leaf arena is paged and keeps its ids.
    fn move_child(
        &mut self,
        c: ChildRef,
        l: usize,
        levels: &mut [Level<G>],
        leaves: &mut Option<LeafArena<G>>,
    ) -> ChildRef {
        if c.is_empty() {
            return ChildRef::EMPTY;
        }
        if c.is_leaf() {
            let Some(arena) = leaves else {
                return c; // paged arena: leaf ids are stable
            };
            let id = arena.insert_zeroed();
            self.leaves.with(c.index() as u32, |cells| {
                arena.with_mut(id, |block| block.copy_from_slice(cells));
            });
            return ChildRef::leaf(id);
        }
        let old_base = c.index() << self.d;
        let id = levels[l].alloc_node();
        let new_base = (id as usize) << self.d;
        for s in 0..self.stride() {
            let slot = self.levels[l].slots[old_base + s];
            let obox = if slot.obox == NO_BOX {
                NO_BOX
            } else {
                levels[l].adopt_box(&mut self.levels[l], slot.obox)
            };
            let child = self.move_child(slot.child, l + 1, levels, leaves);
            levels[l].slots[new_base + s] = Slot { child, obox };
        }
        ChildRef::node(id)
    }

    /// Collects structural statistics by one traversal — the storage
    /// profile behind Table 2 and §4.4 ("most of the additional storage
    /// … is found in the lowest levels of the tree") plus the slab
    /// occupancy counters.
    pub fn stats(&self) -> TreeStats {
        let mut stats = TreeStats {
            node_slots: self.levels.iter().map(Level::nodes).sum(),
            free_node_slots: self.levels.iter().map(|lv| lv.node_free.len()).sum(),
            leaf_slots: self.leaves.slots(),
            free_leaf_slots: self.leaves.free_ids().len(),
            ..TreeStats::default()
        };
        self.collect_stats(self.root, self.side, 0, &mut stats);
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
            stats.leaf_cells += side.pow(self.d as u32);
            stats.per_level[l].leaf_blocks += 1;
            return;
        }
        stats.nodes += 1;
        stats.per_level[l].nodes += 1;
        let level = &self.levels[l];
        let base = c.index() << self.d;
        for slot in &level.slots[base..base + self.stride()] {
            if slot.obox != NO_BOX {
                stats.boxes += 1;
                stats.per_level[l].boxes += 1;
                stats.secondary_bytes += level.box_secondary_bytes(slot.obox);
            }
            self.collect_stats(slot.child, level.k, l + 1, stats);
        }
    }

    /// Approximate heap bytes held by the whole structure: slab
    /// capacities plus the heap behind out-of-line groups, and the
    /// resident part of the leaf arena.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.levels.capacity() * std::mem::size_of::<Level<G>>()
            + self.levels.iter().map(Level::heap_bytes).sum::<usize>()
            + self.leaves.heap_bytes()
    }

    /// Audits the slab bookkeeping: the levels match the side, every
    /// reachable reference is in bounds and occupied, no node, box
    /// record or leaf block is reached twice, free-list entries are
    /// valid, unique, cleared, and disjoint from the reachable set, and
    /// every slot is either reachable or free (no leaks). Returns
    /// `(reachable_nodes, reachable_leaves)`.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn check_arena(&self) -> (usize, usize) {
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
        self.mark_reachable(self.root, 0, &mut node_seen, &mut box_seen, &mut leaf_seen);
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

    /// True once `enable_paging` has moved the leaf arena onto pages.
    pub fn is_paged(&self) -> bool {
        self.leaves.is_paged()
    }

    /// Buffer-pool counters of the paged leaf arena (`None` in memory).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.leaves.pool_stats()
    }
}

impl<G: AbelianGroup + ValueCodec> DdcTree<G> {
    /// Activates the paged leaf backend requested by
    /// [`crate::LeafBackend::Paged`], spilling to the pager's default
    /// file: a `Vec`, or an unlinked file under the OS temp directory
    /// for [`crate::PagerConfig::disk`]. See
    /// [`DdcTree::enable_paging_on`].
    pub fn enable_paging(&mut self) -> std::io::Result<bool> {
        match self.config.leaf_backend {
            LeafBackend::Paged(pager) if !self.is_paged() => {
                Ok(self.enable_paging_on(store::default_spill(pager)?))
            }
            _ => Ok(self.is_paged()),
        }
    }

    /// Moves the leaf arena's cells behind a buffer pool over `spill`
    /// when the config asks for [`crate::LeafBackend::Paged`] (block ids
    /// are preserved, so every child reference stays valid). `spill` is
    /// scratch space: it should be empty, and nothing reads it back
    /// after the tree is dropped.
    ///
    /// Lives in a [`ValueCodec`]-bounded impl because cells are encoded
    /// onto pages; once enabled, every unbounded code path (grow, prune,
    /// updates) keeps working. Returns whether the tree is paged
    /// afterwards: `false` means the config never asked for paging.
    /// Idempotent — an already-paged tree keeps its file and drops
    /// `spill`.
    pub fn enable_paging_on(&mut self, spill: Box<dyn VfsFile + Send>) -> bool {
        if let LeafBackend::Paged(pager) = self.config.leaf_backend {
            self.leaves.page_onto(spill, pager);
        }
        self.is_paged()
    }
}
