//! The leaf-block arena of a [`crate::DdcTree`]: fixed-size runs of
//! cells addressed by index arithmetic, in one flat `Vec` or behind a
//! [`crate::pager::BufferPool`].
//!
//! Block `id` is cells `[id · run, (id+1) · run)` — no per-block header,
//! shape or allocation. Blocks are only ever appended, and a new one is
//! all-zero. Paging changes only where the cells live: the same run
//! becomes the byte extent `[id · run · WIDTH, (id+1) · run · WIDTH)` of
//! a spill file, touching `⌈run · WIDTH / page_bytes⌉ + 1` pages at
//! most, and a run never written reads zero like the rest of the file.
//!
//! The tree never holds references into the arena across operations,
//! and it asks for the shape it needs: one cell to add to (`add_at`),
//! one cell to read (`cell`), a run of rows for a prefix or range scan
//! (`rows`), and whole blocks, closure-scoped, for growth and
//! enumeration (`with` / `with_mut`). In memory these are slices of the
//! one `Vec`. Paged, a read copies just the rows or cells it asked for
//! out of the pool, so a closure that re-enters the tree never runs
//! inside the pool, and an add never faults a page in: a delta for a cell
//! whose page is not resident waits in a change buffer (below) until
//! the page is next read. Spill I/O errors are process-fatal by design:
//! the file is scratch below the snapshot + WAL pair, so crashing into
//! recovery is the correct degraded behavior (DESIGN S45).

use std::io;

use ddc_array::AbelianGroup;

use crate::config::{DdcConfig, LeafBackend, PagerConfig};
use crate::pager::{pager_obs, BufferPool, PagerObs, PoolStats};
use crate::persist::ValueCodec;
use crate::sync::untracked::{AtomicU64, Mutex, MutexGuard, Ordering};
use crate::sync::PoisonError;
use crate::vfs::{StdVfs, Vfs, VfsFile};

/// The file a paged arena spills to.
pub(crate) type SpillFile = Box<dyn VfsFile + Send>;

/// Names spill files uniquely within the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Opens a scratch file next to `beside` in `vfs`' namespace. Every
/// call gets its own name, so two pools never share extents.
fn spill_beside<V: Vfs>(vfs: &V, beside: &str) -> io::Result<SpillFile>
where
    V::File: 'static,
{
    let path = format!(
        "{beside}-{}-{}.spill",
        std::process::id(),
        SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    Ok(Box::new(vfs.open_scratch(&path)?))
}

/// The scratch file a `*_vfs` entry point spills to: next to `beside`
/// in the caller's namespace when `config` asks for a disk pager, so
/// everything the call puts on disk goes through the one seam. `None`
/// leaves the pager's default in place.
pub(crate) fn spill_through<V: Vfs>(
    vfs: &V,
    beside: &str,
    config: &DdcConfig,
) -> io::Result<Option<SpillFile>>
where
    V::File: 'static,
{
    match config.leaf_backend {
        LeafBackend::Paged(pager) if pager.spill_to_disk => spill_beside(vfs, beside).map(Some),
        _ => Ok(None),
    }
}

/// The spill file of a pager nobody handed one: a `Vec`, or a scratch
/// file under the OS temp directory.
pub(crate) fn default_spill(pager: PagerConfig) -> io::Result<SpillFile> {
    if !pager.spill_to_disk {
        return Ok(Box::new(Vec::<u8>::new()));
    }
    let stem = std::env::temp_dir().join("ddc-pager");
    spill_beside(&StdVfs, &stem.to_string_lossy())
}

/// Spill I/O failure is process-fatal: pages are scratch below the
/// snapshot + WAL pair, so the honest recovery path is a restart.
fn spill_ok<T>(r: io::Result<T>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("pager spill {what} failed (restart recovers from snapshot + WAL): {e}"),
    }
}

fn encode_cells<G: ValueCodec>(cells: &[G], mut out: &mut [u8]) {
    for v in cells {
        if let Err(e) = v.encode(&mut out) {
            panic!("leaf cell encode failed: {e}");
        }
    }
}

fn decode_cells<G: ValueCodec>(mut bytes: &[u8], cells: &mut [G]) {
    for c in cells {
        *c = match G::decode(&mut bytes) {
            Ok(v) => v,
            Err(e) => panic!("leaf cell decode failed: {e}"),
        };
    }
}

/// Adds `delta` to the one cell encoded in `bytes`.
fn add_encoded<G: AbelianGroup>(
    bytes: &mut [u8],
    delta: G,
    decode: fn(&[u8], &mut [G]),
    encode: fn(&[G], &mut [u8]),
) {
    let mut v = [G::ZERO];
    decode(bytes, &mut v);
    v[0] = v[0].add(delta);
    encode(&v, bytes);
}

/// Where an arena's cells live.
#[derive(Debug)]
enum Cells<G> {
    Mem(Vec<G>),
    // Boxed: the pool is much bigger than a Vec header, and Mem is the
    // overwhelmingly common variant.
    Paged(Box<PagedCells<G>>),
}

/// The change buffer's share of a paged arena's memory cap: its entries
/// take `mem_cap_bytes / BUFFER_SHARE`, and the pool's frames the rest.
const BUFFER_SHARE: usize = 16;

/// An empty chain link of the change buffer.
const NIL: u32 = u32::MAX;

/// One buffered delta: `delta` is to be added to the cell at byte `at`
/// of its page; `next` is the page's previous delta, or the next free
/// slot.
#[derive(Clone, Copy, Debug)]
struct Pending<G> {
    delta: G,
    at: u32,
    next: u32,
}

/// Deltas for cells on pages outside the pool, waiting for the next
/// read of their page. Adds commute, so applying them late is exact;
/// every read merges the pages it touches before it copies, so no read
/// sees a page without its deltas. A page is never both resident and
/// buffered: adds to a resident page go straight to its frame.
#[derive(Debug)]
struct ChangeBuffer<G> {
    /// Page → its newest delta ([`NIL`]: none).
    heads: Vec<u32>,
    /// Every slot ever used, allocated up front: live deltas are chained
    /// per page through `next`, free slots from `free`.
    slots: Vec<Pending<G>>,
    free: u32,
    /// Live deltas, at most `limit`.
    live: usize,
    limit: usize,
    buffered: u64,
    merged: u64,
}

impl<G: Copy> ChangeBuffer<G> {
    fn new(limit: usize) -> Self {
        Self {
            heads: Vec::new(),
            slots: Vec::with_capacity(limit),
            free: NIL,
            live: 0,
            limit,
            buffered: 0,
            merged: 0,
        }
    }

    /// True when deltas wait for `page`.
    #[inline]
    fn pending(&self, page: u64) -> bool {
        self.live > 0 && self.heads.get(page as usize).is_some_and(|&h| h != NIL)
    }

    /// Records `delta` for the cell at byte `at` of `page`. The buffer
    /// must not be full.
    fn push(&mut self, page: u64, at: usize, delta: G, obs: &PagerObs) {
        debug_assert!(self.live < self.limit, "push into a full change buffer");
        let ix = if self.free == NIL {
            self.slots.push(Pending {
                delta,
                at: 0,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            let ix = self.free as usize;
            self.free = self.slots[ix].next;
            ix
        };
        let page = page as usize;
        if page >= self.heads.len() {
            self.heads.resize(page + 1, NIL);
        }
        self.slots[ix] = Pending {
            delta,
            at: at as u32,
            next: self.heads[page],
        };
        self.heads[page] = ix as u32;
        self.live += 1;
        self.buffered += 1;
        obs.buffered.inc();
    }

    /// Hands every delta of `page` to `apply` (newest first) and frees
    /// their slots.
    fn drain(&mut self, page: u64, obs: &PagerObs, mut apply: impl FnMut(usize, G)) {
        let mut ix = std::mem::replace(&mut self.heads[page as usize], NIL);
        let mut n = 0u64;
        while ix != NIL {
            let Pending { delta, at, next } = self.slots[ix as usize];
            apply(at as usize, delta);
            self.slots[ix as usize].next = self.free;
            self.free = ix;
            ix = next;
            n += 1;
        }
        self.live -= n as usize;
        self.merged += n;
        obs.merged.add(n);
    }

    /// Heap bytes: the slots (reserved in full) and the page heads.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Pending<G>>()
            + self.heads.capacity() * std::mem::size_of::<u32>()
    }
}

#[derive(Debug)]
struct PagedInner<G> {
    pool: BufferPool,
    buffer: ChangeBuffer<G>,
    /// Scratch bytes and cells for a copy out of the pool, reused across
    /// accesses. A closure that re-enters the arena finds them taken and
    /// allocates its own.
    bytes: Vec<u8>,
    cells: Vec<G>,
}

/// Cells behind a capped [`BufferPool`]: cell `i` is bytes
/// `[i · width, (i+1) · width)` of the spill file. Interior mutability
/// (one mutex around the pool) lets shared queries fault pages in
/// through `&self`.
#[derive(Debug)]
struct PagedCells<G> {
    inner: Mutex<PagedInner<G>>,
    /// [`ValueCodec::WIDTH`] and the codec itself, captured where the
    /// bound is in scope so every unbounded tree path keeps working.
    width: usize,
    encode: fn(&[G], &mut [u8]),
    decode: fn(&[u8], &mut [G]),
    obs: &'static PagerObs,
}

impl<G: AbelianGroup> PagedCells<G> {
    fn lock(&self) -> MutexGuard<'_, PagedInner<G>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies the buffered deltas of `page`, faulting it in.
    fn merge(&self, g: &mut PagedInner<G>, page: u64) {
        let PagedInner { pool, buffer, .. } = g;
        if !buffer.pending(page) {
            return;
        }
        let (w, decode, encode) = (self.width, self.decode, self.encode);
        let merged = pool.update_page(page, |bytes| {
            buffer.drain(page, self.obs, |at, delta| {
                add_encoded(&mut bytes[at..at + w], delta, decode, encode);
            });
        });
        spill_ok(merged, "read");
    }

    /// Merges every buffered page, in ascending page order (the spill
    /// file is read front to back).
    fn merge_all(&self, g: &mut PagedInner<G>) {
        for page in 0..g.buffer.heads.len() as u64 {
            self.merge(g, page);
        }
    }

    /// Copies cells `[at, at + n)` out of the pool, merging their pages'
    /// buffered deltas first. The lock is not held when the caller goes
    /// on to use them.
    fn read_cells(&self, at: usize, n: usize) -> Vec<G> {
        let mut g = self.lock();
        if g.buffer.live > 0 {
            let pb = g.pool.page_bytes();
            for page in at * self.width / pb..=((at + n) * self.width - 1) / pb {
                self.merge(&mut g, page as u64);
            }
        }
        let mut bytes = std::mem::take(&mut g.bytes);
        let mut cells = std::mem::take(&mut g.cells);
        bytes.resize(n * self.width, 0);
        cells.resize(n, G::ZERO);
        spill_ok(
            g.pool.read_range((at * self.width) as u64, &mut bytes),
            "read",
        );
        (self.decode)(&bytes, &mut cells);
        g.bytes = bytes;
        cells
    }

    /// Hands a copy of cells `[at, at + n)` to `f` and keeps the buffer
    /// for the next access. Out of line, like [`PagedCells::add`]: the
    /// in-memory walks that share the accessors stay small
    /// (`core_d3_query` measured ~2 % slower with both inlined).
    #[inline(never)]
    fn read<R>(&self, at: usize, n: usize, f: impl FnOnce(&[G]) -> R) -> R {
        // Copied out first: `f` may be a user callback that re-enters
        // the tree (`for_each_nonzero`).
        let cells = self.read_cells(at, n);
        let r = f(&cells);
        self.lock().cells = cells;
        r
    }

    /// Writes `cells` back at cell offset `at` and keeps the buffer for
    /// the next access.
    fn write_cells(&self, at: usize, cells: Vec<G>) {
        let mut g = self.lock();
        let mut bytes = std::mem::take(&mut g.bytes);
        bytes.resize(cells.len() * self.width, 0);
        (self.encode)(&cells, &mut bytes);
        spill_ok(
            g.pool.write_range((at * self.width) as u64, &bytes),
            "write",
        );
        g.bytes = bytes;
        g.cells = cells;
    }

    /// Adds `delta` to cell `at`: in its frame when the page is
    /// resident, else into the change buffer (merging all of it first
    /// when full). A cell split across two pages, or an arena without a
    /// buffer, takes the read-modify-write path.
    #[inline(never)]
    fn add(&mut self, at: usize, delta: G) {
        let (w, decode, encode) = (self.width, self.decode, self.encode);
        let g = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        let pb = g.pool.page_bytes();
        let (page, in_page) = ((at * w / pb) as u64, at * w % pb);
        if in_page + w > pb || g.buffer.limit == 0 {
            let mut cells = self.read_cells(at, 1);
            cells[0] = cells[0].add(delta);
            return self.write_cells(at, cells);
        }
        if !g.pool.is_resident(page) && g.buffer.live == g.buffer.limit {
            // The merge may fault `page` itself in: decide after it.
            let mut g = self.lock();
            self.merge_all(&mut g);
        }
        let g = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        if !g.pool.is_resident(page) {
            return g.buffer.push(page, in_page, delta, self.obs);
        }
        let added = g.pool.update_page(page, |bytes| {
            add_encoded(&mut bytes[in_page..in_page + w], delta, decode, encode);
        });
        spill_ok(added, "write");
    }

    /// Audits the pool and the buffer: every live delta is chained under
    /// exactly one non-resident page, the free chain holds the other
    /// slots, and the counters agree with the chains.
    fn audit(&self) {
        let g = self.lock();
        g.pool.audit();
        let b = &g.buffer;
        let mut chained = 0usize;
        for (page, &head) in b.heads.iter().enumerate() {
            let mut ix = head;
            if ix != NIL {
                assert!(
                    !g.pool.is_resident(page as u64),
                    "page {page} both resident and buffered"
                );
            }
            while ix != NIL {
                chained += 1;
                assert!(chained <= b.slots.len(), "change-buffer chain loops");
                ix = b.slots[ix as usize].next;
            }
        }
        let mut free = 0usize;
        let mut ix = b.free;
        while ix != NIL {
            free += 1;
            assert!(free <= b.slots.len(), "change-buffer free chain loops");
            ix = b.slots[ix as usize].next;
        }
        assert_eq!(chained, b.live, "change buffer lost a delta");
        assert_eq!(chained + free, b.slots.len(), "change-buffer slot leaked");
        assert!(b.live <= b.limit, "change buffer over its limit");
        assert!(
            b.slots.len() <= b.limit,
            "change buffer grew past its limit"
        );
        assert_eq!(
            b.buffered - b.merged,
            b.live as u64,
            "change-buffer counters disagree with its chains"
        );
    }
}

/// The leaf arena: `run`-cell blocks of one cell array, `u32`-addressed,
/// append-only.
#[derive(Debug)]
pub(crate) struct LeafArena<G> {
    run: usize,
    /// Block ids handed out so far.
    slots: usize,
    cells: Cells<G>,
}

impl<G: AbelianGroup> LeafArena<G> {
    /// An empty in-memory arena of `run`-cell blocks.
    ///
    /// # Panics
    ///
    /// Panics if `run == 0`.
    pub(crate) fn new(run: usize) -> Self {
        assert!(run > 0, "leaf blocks hold at least one cell");
        Self {
            run,
            slots: 0,
            cells: Cells::Mem(Vec::new()),
        }
    }

    /// Cells per block.
    pub(crate) fn run_len(&self) -> usize {
        self.run
    }

    /// Restarts an arena of at most one block at blocks of `run` cells
    /// (the degenerate single-block tree grew; its caller has copied the
    /// block out). The old block is zeroed first, so a paged arena reads
    /// zero wherever the new blocks are not written, and the ids start
    /// over.
    pub(crate) fn resize_blocks(&mut self, run: usize) {
        assert!(self.slots <= 1, "resizing {} leaf blocks", self.slots);
        assert!(run > 0, "leaf blocks hold at least one cell");
        if self.slots == 1 {
            self.with_mut(0, |cells| cells.fill(G::ZERO));
        }
        self.run = run;
        self.slots = 0;
        if let Cells::Mem(cells) = &mut self.cells {
            *cells = Vec::new();
        }
    }

    /// Reserves room for `blocks` blocks in all, so the in-memory cell
    /// array is allocated once instead of doubling its way there.
    pub(crate) fn reserve_blocks(&mut self, blocks: usize) {
        if let Cells::Mem(cells) = &mut self.cells {
            cells.reserve_exact((blocks * self.run).saturating_sub(cells.len()));
        }
    }

    /// Appends an all-zero block, returning its id.
    pub(crate) fn insert_zeroed(&mut self) -> u32 {
        let id = self.slots;
        self.slots += 1;
        if let Cells::Mem(cells) = &mut self.cells {
            cells.resize(self.slots * self.run, G::ZERO);
        }
        id as u32
    }

    /// Blocks handed out so far.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Invokes `f` with the row-major cells of block `id`.
    #[inline]
    pub(crate) fn with<R>(&self, id: u32, f: impl FnOnce(&[G]) -> R) -> R {
        let at = id as usize * self.run;
        match &self.cells {
            Cells::Mem(cells) => f(&cells[at..at + self.run]),
            Cells::Paged(p) => {
                assert!((id as usize) < self.slots, "leaf slot {id} out of bounds");
                p.read(at, self.run, f)
            }
        }
    }

    /// Invokes `f` with rows `r0..=r1` of block `id`, each `plane` cells
    /// (a block of side `s` and rank `d` has `s` rows of `s^(d−1)`
    /// cells) — what a prefix or range scan of the block reads.
    #[inline]
    pub(crate) fn rows<R>(
        &self,
        id: u32,
        plane: usize,
        r0: usize,
        r1: usize,
        f: impl FnOnce(&[G]) -> R,
    ) -> R {
        debug_assert!(
            r0 <= r1 && (r1 + 1) * plane <= self.run,
            "rows out of the block"
        );
        let at = id as usize * self.run + r0 * plane;
        let n = (r1 + 1 - r0) * plane;
        match &self.cells {
            Cells::Mem(cells) => f(&cells[at..at + n]),
            Cells::Paged(p) => {
                assert!((id as usize) < self.slots, "leaf slot {id} out of bounds");
                p.read(at, n, f)
            }
        }
    }

    /// Cell `at` of block `id`.
    #[inline]
    pub(crate) fn cell(&self, id: u32, at: usize) -> G {
        debug_assert!(at < self.run, "cell {at} outside a {}-cell block", self.run);
        let at = id as usize * self.run + at;
        match &self.cells {
            Cells::Mem(cells) => cells[at],
            Cells::Paged(p) => {
                assert!((id as usize) < self.slots, "leaf slot {id} out of bounds");
                p.read(at, 1, |c| c[0])
            }
        }
    }

    /// Adds `delta` to cell `at` of block `id`. Paged, this never faults
    /// a page in: a cold page's delta waits in the change buffer.
    #[inline]
    pub(crate) fn add_at(&mut self, id: u32, at: usize, delta: G) {
        debug_assert!(at < self.run, "cell {at} outside a {}-cell block", self.run);
        let at = id as usize * self.run + at;
        match &mut self.cells {
            Cells::Mem(cells) => cells[at] = cells[at].add(delta),
            Cells::Paged(p) => {
                assert!((id as usize) < self.slots, "leaf slot {id} out of bounds");
                p.add(at, delta);
            }
        }
    }

    /// Invokes `f` with the cells of block `id`, mutably; mutations are
    /// persisted when `f` returns.
    #[inline]
    pub(crate) fn with_mut<R>(&mut self, id: u32, f: impl FnOnce(&mut [G]) -> R) -> R {
        let at = id as usize * self.run;
        match &mut self.cells {
            Cells::Mem(cells) => f(&mut cells[at..at + self.run]),
            Cells::Paged(p) => {
                assert!((id as usize) < self.slots, "leaf slot {id} out of bounds");
                let mut cells = p.read_cells(at, self.run);
                let r = f(&mut cells);
                p.write_cells(at, cells);
                r
            }
        }
    }

    /// True once the cells live behind a buffer pool.
    pub(crate) fn is_paged(&self) -> bool {
        matches!(self.cells, Cells::Paged(_))
    }

    /// Buffer-pool and change-buffer counter snapshot (`None` in
    /// memory).
    pub(crate) fn pool_stats(&self) -> Option<PoolStats> {
        match &self.cells {
            Cells::Mem(_) => None,
            Cells::Paged(p) => {
                let g = p.lock();
                Some(PoolStats {
                    buffered: g.buffer.buffered,
                    merged: g.buffer.merged,
                    ..g.pool.stats()
                })
            }
        }
    }

    /// Resident heap bytes: the cell array, or the pool's frames, the
    /// change buffer and the scratch, by capacity. Spilled bytes are
    /// *not* memory and are excluded.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.cells {
            Cells::Mem(cells) => cells.capacity() * std::mem::size_of::<G>(),
            Cells::Paged(p) => {
                let g = p.lock();
                g.pool.heap_bytes()
                    + g.buffer.heap_bytes()
                    + g.bytes.capacity()
                    + g.cells.capacity() * std::mem::size_of::<G>()
            }
        }
    }

    /// Audits the pool's and the change buffer's bookkeeping when paged
    /// (panics on violation).
    pub(crate) fn audit(&self) {
        if let Cells::Paged(p) = &self.cells {
            p.audit();
        }
    }
}

impl<G: AbelianGroup + ValueCodec> LeafArena<G> {
    /// Moves the cells behind a pool over `file`, byte for byte: ids and
    /// run length are untouched. The cap is split: a [`BUFFER_SHARE`]th
    /// for the change buffer's entries, the rest for the pool's frames.
    /// No-op when already paged.
    pub(crate) fn page_onto(&mut self, file: SpillFile, pager: PagerConfig) {
        let Cells::Mem(cells) = &self.cells else {
            return;
        };
        let entry = std::mem::size_of::<Pending<G>>();
        let limit = pager.mem_cap_bytes / BUFFER_SHARE / entry;
        let mut pool = BufferPool::new(file, pager.page_bytes, pager.mem_cap_bytes - limit * entry);
        let mut bytes = vec![0u8; self.run * G::WIDTH];
        for (id, block) in cells.chunks_exact(self.run).enumerate() {
            encode_cells(block, &mut bytes);
            spill_ok(pool.write_range((id * bytes.len()) as u64, &bytes), "write");
        }
        self.cells = Cells::Paged(Box::new(PagedCells {
            inner: Mutex::new(PagedInner {
                pool,
                buffer: ChangeBuffer::new(limit),
                bytes,
                cells: Vec::new(),
            }),
            width: G::WIDTH,
            encode: encode_cells::<G>,
            decode: decode_cells::<G>,
            obs: pager_obs(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_array::Pair;

    fn paged<G: AbelianGroup + ValueCodec>(run: usize, cap_bytes: usize) -> LeafArena<G> {
        let mut arena = LeafArena::new(run);
        arena.page_onto(
            Box::new(Vec::<u8>::new()),
            PagerConfig::in_mem(cap_bytes).with_page_bytes(64),
        );
        arena
    }

    fn read<G: AbelianGroup>(arena: &LeafArena<G>, id: u32) -> Vec<G> {
        arena.with(id, <[G]>::to_vec)
    }

    #[test]
    fn paging_preserves_ids_and_cells() {
        let mut arena = LeafArena::<Pair<i64, f64>>::new(3);
        let ids: Vec<u32> = (0..5).map(|_| arena.insert_zeroed()).collect();
        for &id in &ids {
            arena.with_mut(id, |c| c[1] = Pair::new(i64::from(id) + 1, 0.5));
        }
        // 3 × 16 B runs over 64 B pages: runs 1 and 2 straddle a boundary.
        arena.page_onto(
            Box::new(Vec::<u8>::new()),
            PagerConfig::in_mem(64).with_page_bytes(64),
        );
        assert!(arena.is_paged());
        assert_eq!(arena.slots(), ids.len());
        for &id in &ids {
            let want = Pair::new(i64::from(id) + 1, 0.5);
            assert_eq!(read(&arena, id), [Pair::ZERO, want, Pair::ZERO]);
        }
        assert!(arena.pool_stats().unwrap().evictions > 0);
    }

    #[test]
    fn paged_matches_slab_under_churn_with_evictions() {
        // 13 × 8 = 104 B runs: bigger than a page, never page-aligned.
        let mut slab = LeafArena::<i64>::new(13);
        let mut paged = paged::<i64>(13, 128);
        let mut ids = Vec::new();
        let mut rng = 0x12345678u64;
        for i in 0..400i64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = rng % 3;
            if op == 0 || ids.is_empty() {
                let id = slab.insert_zeroed();
                assert_eq!(
                    paged.insert_zeroed(),
                    id,
                    "twins must hand out the same ids"
                );
                assert!(!ids.contains(&id), "live slot {id} reissued");
                assert!(read(&paged, id).iter().all(|&c| c == 0));
                ids.push(id);
            } else if op == 1 {
                let id = ids[(rng as usize / 7) % ids.len()];
                let at = (rng as usize / 13) % 13;
                slab.with_mut(id, |c| c[at] += i);
                paged.with_mut(id, |c| c[at] += i);
            } else {
                let id = ids[(rng as usize / 11) % ids.len()];
                assert_eq!(read(&paged, id), read(&slab, id), "step {i}: slot {id}");
            }
        }
        let stats = paged.pool_stats().unwrap();
        assert!(stats.evictions > 50, "{stats:?}");
        assert_eq!(paged.slots(), slab.slots());
        for id in 0..slab.slots() as u32 {
            assert_eq!(read(&paged, id), read(&slab, id), "slot {id}");
        }
        paged.audit();
    }

    /// The change buffer in the cumulant shape: a paged twin with a
    /// two-page pool and a four-entry buffer runs random `add_at` bursts
    /// / `rows` / `cell` / `with` / `with_mut` / `insert_zeroed` against the
    /// in-memory arena, and after *every* step the twins hold equal
    /// cells and the paged one passes its audit (pool and buffer
    /// bookkeeping, buffer counters against the chains). 13-cell runs
    /// over 512-byte pages straddle page boundaries.
    #[test]
    fn paged_twin_with_a_change_buffer_matches_the_slab_after_every_step() {
        const RUN: usize = 13;
        let mut slab = LeafArena::<i64>::new(RUN);
        let mut paged = LeafArena::<i64>::new(RUN);
        // 1 200 B: 1 200 / 16 / 16 = 4 buffer entries (64 B), and
        // (1 200 − 64) / 512 = 2 pages.
        paged.page_onto(
            Box::new(Vec::<u8>::new()),
            PagerConfig::in_mem(1200).with_page_bytes(512),
        );
        assert_eq!(buffer_fill(&paged), (0, 4));
        assert_eq!(paged.pool_stats().unwrap().cap_pages, 2);
        let mut full_merges = 0;
        let mut ids = Vec::new();
        let mut rng = 0x00C0_FFEEu64;
        let mut next = move |n: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % n
        };
        for step in 0..3000i64 {
            let op = next(10);
            if ids.len() < 2 || (op == 0 && ids.len() < 40) {
                let id = slab.insert_zeroed();
                assert_eq!(
                    paged.insert_zeroed(),
                    id,
                    "twins must hand out the same ids"
                );
                ids.push(id);
            } else if op <= 5 {
                // A burst: the per-step reads below merge the buffer, so
                // only a burst of more adds than it holds can fill it.
                for _ in 0..=next(8) {
                    let id = ids[next(ids.len())];
                    let (at, delta) = (next(RUN), step % 17 - 8);
                    let merged = paged.pool_stats().unwrap().merged;
                    let was_full = buffer_fill(&paged).0 == 4;
                    slab.add_at(id, at, delta);
                    paged.add_at(id, at, delta);
                    if was_full && paged.pool_stats().unwrap().merged >= merged + 4 {
                        full_merges += 1;
                    }
                    paged.audit();
                }
            } else if op == 6 {
                let id = ids[next(ids.len())];
                let r0 = next(RUN);
                let r1 = r0 + next(RUN - r0);
                let sum =
                    |arena: &LeafArena<i64>| arena.rows(id, 1, r0, r1, |c| c.iter().sum::<i64>());
                assert_eq!(
                    sum(&paged),
                    sum(&slab),
                    "step {step}: rows {r0}..={r1} of {id}"
                );
            } else if op == 7 {
                let id = ids[next(ids.len())];
                let at = next(RUN);
                assert_eq!(paged.cell(id, at), slab.cell(id, at), "step {step}: cell");
            } else if op == 8 {
                let id = ids[next(ids.len())];
                assert_eq!(read(&paged, id), read(&slab, id), "step {step}: with");
            } else {
                let id = ids[next(ids.len())];
                let fill = |c: &mut [i64]| c.iter_mut().for_each(|v| *v = step - *v);
                slab.with_mut(id, fill);
                paged.with_mut(id, fill);
            }
            paged.audit();
            for id in 0..slab.slots() as u32 {
                assert_eq!(read(&paged, id), read(&slab, id), "step {step}: slot {id}");
            }
        }
        let stats = paged.pool_stats().unwrap();
        assert!(stats.buffered > 100, "{stats:?}");
        assert!(full_merges > 0, "the buffer never filled: {stats:?}");
        assert!(stats.evictions > 100, "{stats:?}");
    }

    #[test]
    fn a_full_buffer_merges_every_page_in_ascending_order() {
        // 128-cell runs, one per 1 KiB page. 1 092 B of cap: 1 092 / 16
        // / 16 = 4 entries (64 B), and (1 092 − 64) / 1 024 = one frame.
        let mut arena = LeafArena::<i64>::new(128);
        arena.page_onto(
            Box::new(Vec::<u8>::new()),
            PagerConfig::in_mem(1092).with_page_bytes(1024),
        );
        assert_eq!(buffer_fill(&arena), (0, 4));
        let ids: Vec<u32> = (0..6).map(|_| arena.insert_zeroed()).collect();
        // No page is resident: four adds fill the buffer, the fifth
        // merges pages 0..=3 in order (page 3 is left in the one frame)
        // and is buffered itself.
        for &id in &ids {
            arena.add_at(id, 5, i64::from(id) + 1);
            arena.audit();
        }
        let stats = arena.pool_stats().unwrap();
        assert_eq!((stats.buffered, stats.merged, stats.misses), (6, 4, 4));
        assert_eq!(buffer_fill(&arena), (2, 4));
        let Cells::Paged(p) = &arena.cells else {
            unreachable!()
        };
        assert!(
            p.lock().pool.is_resident(3),
            "the merge did not end on page 3"
        );
        for &id in &ids {
            assert_eq!(arena.cell(id, 5), i64::from(id) + 1);
            arena.audit();
        }
        assert_eq!(buffer_fill(&arena), (0, 4));
    }

    /// `(live, limit)` of a paged arena's change buffer.
    fn buffer_fill<G: AbelianGroup>(arena: &LeafArena<G>) -> (usize, usize) {
        let Cells::Paged(p) = &arena.cells else {
            unreachable!("an in-memory arena has no change buffer")
        };
        let g = p.lock();
        (g.buffer.live, g.buffer.limit)
    }

    #[test]
    fn a_closure_that_re_enters_the_arena_sees_its_own_cells() {
        let mut arena = paged::<i64>(2, 128);
        let (a, b) = (arena.insert_zeroed(), arena.insert_zeroed());
        arena.with_mut(a, |c| c[0] = 1);
        arena.with_mut(b, |c| c[0] = 2);
        arena.with(a, |outer| {
            assert_eq!(arena.with(b, |inner| inner[0]), 2);
            assert_eq!(outer[0], 1, "the nested read must not clobber this one");
        });
    }

    /// The single-block tree's growth: the one old block was copied out,
    /// and the new, wider block at id 0 must not see its cells — on pages
    /// it covers the old block's bytes.
    #[test]
    fn resize_starts_over_from_a_single_block() {
        for mut arena in [LeafArena::<i64>::new(4), paged(4, 128)] {
            let a = arena.insert_zeroed();
            arena.with_mut(a, |c| c.fill(7));
            arena.resize_blocks(16);
            assert_eq!((arena.slots(), arena.run_len()), (0, 16));
            let b = arena.insert_zeroed();
            assert_eq!(read(&arena, b), [0; 16], "stale cells survived the resize");
        }
    }
}
