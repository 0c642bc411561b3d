//! Construction-time configuration of a Dynamic Data Cube.

use ddc_btree::DEFAULT_BLOCK;

/// How overlay row-sum groups are stored (paper §3 vs §4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The Basic Dynamic Data Cube (§3): row sums are kept *directly* as
    /// cumulative values in flat arrays. Queries read one value per group
    /// (`O(log n)` total) but updates cascade through the group —
    /// `O(n^{d-1})` worst case (§3.3).
    Basic,
    /// The Dynamic Data Cube (§4): row-sum groups are stored in secondary
    /// structures — a one-dimensional [`BaseStore`] when the group is
    /// one-dimensional, recursively a `(d-1)`-dimensional Dynamic Data
    /// Cube otherwise — giving `O(log^d n)` queries *and* updates
    /// (Theorem 2).
    Dynamic,
}

/// How the one-dimensional row-sum groups of a two-dimensional tree are
/// stored — where the recursion of §4.2 stops. Two answers, each
/// measured ahead of the other on its own kind of input (EXPERIMENTS
/// §4.4); the pointer-based `ddc_btree::BcTree` of §4.1 and
/// `ddc_btree::Fenwick` stay in `ddc-btree` as the reproduction
/// artifact and the 1-D ablation comparators, not as engine
/// configurations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BaseStore {
    /// Stop at d = 2 with the B^c tree's implicit blocked layout (the
    /// default): dense leaf blocks of raw values under a flat
    /// Fenwick-layout summary array, written in place in the box
    /// record — the asymptotics of §4.1's B^c tree with branchless
    /// index arithmetic instead of pointer descent. Allocates all `k`
    /// values of a group eagerly, which is the right trade for dense
    /// and clustered data.
    Blocked,
    /// Recurse once more: a one-dimensional group is a one-dimensional
    /// Dynamic Data Cube — a bisection tree of subtotals over 16-cell
    /// leaf runs — in its level's forest, like every group of higher
    /// rank. A group has no root before its first value and nodes only
    /// along update paths, which is what makes wide, sparsely populated
    /// cubes (§5) occupy memory proportional to the populated region
    /// rather than to the side.
    Lazy,
}

/// Sizing of the paged leaf-block backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PagerConfig {
    /// Budget in bytes of the pool's frames plus the leaf arena's change
    /// buffer (a sixteenth of it); a fault at the cap evicts a page, so
    /// the pool never holds more than its share.
    pub mem_cap_bytes: usize,
    /// Page size in bytes (at least 64; default 4 KiB).
    pub page_bytes: usize,
    /// Spill target: `true` writes evicted pages to an unlinked scratch
    /// file (bounded RSS) — under the OS temp directory, or next to the
    /// log or snapshot in the [`crate::Vfs`] a `*_vfs` entry point was
    /// handed; `false` keeps them in an in-memory [`Vec<u8>`] file
    /// (deterministic tests, no fs access).
    pub spill_to_disk: bool,
}

/// Default pager page size (4 KiB).
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// Cell budget of a derived leaf block ([`DdcConfig::leaf_block_side`]):
/// one default page of `i64`.
pub const LEAF_BLOCK_CELLS: usize = 512;

impl PagerConfig {
    /// Disk-spilling pager with the given pool budget (default pages).
    pub fn disk(mem_cap_bytes: usize) -> Self {
        Self {
            mem_cap_bytes,
            page_bytes: DEFAULT_PAGE_BYTES,
            spill_to_disk: true,
        }
    }

    /// In-memory-spill pager (for tests and the differential harness):
    /// the full fault/evict/write-back machinery runs, but the backing
    /// "file" is a `Vec<u8>`, so construction cannot fail.
    pub fn in_mem(mem_cap_bytes: usize) -> Self {
        Self {
            mem_cap_bytes,
            page_bytes: DEFAULT_PAGE_BYTES,
            spill_to_disk: false,
        }
    }

    /// Overrides the page size (builder-style).
    pub fn with_page_bytes(mut self, page_bytes: usize) -> Self {
        self.page_bytes = page_bytes;
        self
    }
}

/// Which backend holds the leaf-block arena of a [`crate::DdcTree`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LeafBackend {
    /// In-memory slab (every block a fixed-size run of one flat `Vec`,
    /// plus a free list) — zero indirection, unbounded memory.
    Mem,
    /// Leaf blocks serialized onto fixed-size pages behind a buffer
    /// pool with a configurable memory cap (DESIGN S45). Requested via
    /// config, *activated* by the `ValueCodec`-bounded constructors
    /// ([`crate::GrowableCube`] persistence/recovery paths and the
    /// explicit `enable_paging` hooks) — plain constructors without a
    /// codec bound build [`LeafBackend::Mem`] and leave the request
    /// pending.
    Paged(PagerConfig),
}

/// Full configuration of a [`crate::DdcEngine`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DdcConfig {
    /// Basic (§3) or Dynamic (§4) row-sum storage.
    pub mode: Mode,
    /// Storage of one-dimensional row-sum groups (Dynamic mode only).
    pub base: BaseStore,
    /// The space optimization of §4.4: the number `h` of tree levels
    /// elided immediately above the leaves, replaced by dense leaf blocks
    /// of side `2^{h+1}` — up to `2^{(h+1)·d}` leaf-cell additions per
    /// query for storage within `ε` of `|A|`. `Some(0)` is the paper's
    /// full tree (leaf overlay boxes of size `k = 1`, stored as side-2
    /// blocks), and an explicit `h` is inherited by every secondary
    /// tree. `None` (the default) sizes the blocks from each tree's own
    /// rank instead: see [`DdcConfig::leaf_block_side`].
    pub elide_levels: Option<usize>,
    /// Backend for the leaf-block arena (in-memory slab or paged).
    pub leaf_backend: LeafBackend,
}

impl Default for DdcConfig {
    fn default() -> Self {
        Self {
            mode: Mode::Dynamic,
            base: BaseStore::Blocked,
            elide_levels: None,
            leaf_backend: LeafBackend::Mem,
        }
    }
}

impl DdcConfig {
    /// The paper's §4 structure in its production layout: blocked B^c
    /// base, leaf blocks sized from the rank
    /// ([`DdcConfig::leaf_block_side`]). `.with_elision(0)` is the
    /// structure exactly as the paper counts it.
    pub fn dynamic() -> Self {
        Self::default()
    }

    /// The Basic Dynamic Data Cube of §3.
    pub fn basic() -> Self {
        Self {
            mode: Mode::Basic,
            ..Self::default()
        }
    }

    /// A sparse-friendly dynamic configuration ([`BaseStore::Lazy`]).
    pub fn sparse() -> Self {
        Self {
            base: BaseStore::Lazy,
            ..Self::default()
        }
    }

    /// Sets the §4.4 level-elision parameter `h` explicitly, for the
    /// primary tree and every secondary tree below it.
    pub fn with_elision(mut self, h: usize) -> Self {
        self.elide_levels = Some(h);
        self
    }

    /// Requests the paged leaf-block backend (see [`LeafBackend::Paged`]
    /// for when the request takes effect).
    pub fn with_paged_leaves(mut self, pager: PagerConfig) -> Self {
        self.leaf_backend = LeafBackend::Paged(pager);
        self
    }

    /// Side of the dense leaf blocks of a tree of rank `d`.
    ///
    /// An explicit `h` gives `2^{h+1}` whatever the rank: with `h = 0`
    /// the blocks have side 2 and hold exactly the cells the paper's
    /// leaf-level (`k = 1`, subtotal-only) overlay boxes would — the
    /// same data stored flat — and each additional elided level doubles
    /// the side, replacing the `k = 2 … 2^h` box levels (§4.4).
    ///
    /// Otherwise the side is the largest power of two whose rows are at
    /// most [`ddc_btree::DEFAULT_BLOCK`] cells (the run the blocked
    /// faces already scan) and whose block is at most
    /// [`LEAF_BLOCK_CELLS`] cells: 16, 16, 8, 4 for `d` = 1 … 4 and 2
    /// from there on. The budget is in cells, not levels, because that
    /// is where the measured optimum sits — a short contiguous scan
    /// beats the pointer-chased levels it replaces until the block
    /// outgrows a page (EXPERIMENTS "§4.4, timed") — and every tree
    /// resolves it with its own rank, so the `(d−1)`-dimensional trees
    /// of a level's forest get wider blocks than the tree that owns
    /// them.
    pub fn leaf_block_side(&self, d: usize) -> usize {
        let bits = match self.elide_levels {
            Some(h) => h + 1,
            // side = 2^b with b·d ≤ log2(cells) and 1 ≤ b ≤ log2(row).
            None => (LEAF_BLOCK_CELLS.ilog2() as usize / d.max(1))
                .clamp(1, DEFAULT_BLOCK.ilog2() as usize),
        };
        1 << bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_leaf_side_is_derived_from_the_rank_and_an_explicit_h_overrides_it() {
        let c = DdcConfig::default();
        assert_eq!(c.mode, Mode::Dynamic);
        // The paper's B^c base case, in its implicit blocked layout.
        assert_eq!(c.base, BaseStore::Blocked);
        assert_eq!(c.elide_levels, None);
        let sides: Vec<usize> = (1..=6).map(|d| c.leaf_block_side(d)).collect();
        assert_eq!(sides, [16, 16, 8, 4, 2, 2]);
        for d in 1..=16usize {
            let side = c.leaf_block_side(d);
            assert!(side.is_power_of_two() && (2..=DEFAULT_BLOCK).contains(&side));
            // Side 2 is the floor (h = 0), whatever 2^d comes to.
            assert!(
                side == 2 || side.pow(d as u32) <= LEAF_BLOCK_CELLS,
                "d = {d}"
            );
            // An explicit h is the same side in the primary tree (rank
            // d) and in its forests (rank d − 1, d − 2, …).
            for h in 0..=4 {
                assert_eq!(c.with_elision(h).leaf_block_side(d), 2 << h);
            }
        }
    }

    #[test]
    fn builders() {
        let c = DdcConfig::basic().with_elision(2);
        assert_eq!(c.mode, Mode::Basic);
        assert_eq!(c.leaf_block_side(2), 8);
        assert_eq!(DdcConfig::sparse().base, BaseStore::Lazy);
    }
}
