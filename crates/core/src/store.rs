//! The leaf-block arena of a [`crate::DdcTree`]: fixed-size runs of
//! cells addressed by index arithmetic, in one flat `Vec` or behind a
//! [`crate::pager::BufferPool`].
//!
//! Block `id` is cells `[id · run, (id+1) · run)` — no per-block header,
//! shape or allocation — plus a free list; a free run is all-zero, so a
//! slot claimed again needs no clearing. Paging changes only where the
//! cells live: the same run becomes the byte extent
//! `[id · run · WIDTH, (id+1) · run · WIDTH)` of a spill file, touching
//! `⌈run · WIDTH / page_bytes⌉ + 1` pages at most, and a run never
//! written reads zero like the rest of the file.
//!
//! The tree never holds references into the arena across operations:
//! access is closure-scoped (`with` / `with_mut`), which is what lets
//! the paged backend copy a run out of the pool, hand it to the closure,
//! and copy it back while holding page pins only for the copy. Spill I/O
//! errors are process-fatal by design: the file is scratch below the
//! snapshot + WAL pair, so crashing into recovery is the correct
//! degraded behavior (DESIGN S45).

use std::io;

use ddc_array::AbelianGroup;

use crate::config::{DdcConfig, LeafBackend, PagerConfig};
use crate::pager::{BufferPool, PoolStats};
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

/// Where an arena's cells live.
#[derive(Debug)]
enum Cells<G> {
    Mem(Vec<G>),
    // Boxed: the pool is much bigger than a Vec header, and Mem is the
    // overwhelmingly common variant.
    Paged(Box<PagedCells<G>>),
}

#[derive(Debug)]
struct PagedInner<G> {
    pool: BufferPool,
    /// One run's bytes and cells, reused across accesses. A closure that
    /// re-enters the arena finds them taken and allocates its own.
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
}

impl<G: AbelianGroup> PagedCells<G> {
    fn lock(&self) -> MutexGuard<'_, PagedInner<G>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies cells `[at, at + run)` out of the pool. The lock is not
    /// held when the caller goes on to use them.
    fn read_run(&self, at: usize, run: usize) -> Vec<G> {
        let mut g = self.lock();
        let mut bytes = std::mem::take(&mut g.bytes);
        let mut cells = std::mem::take(&mut g.cells);
        bytes.resize(run * self.width, 0);
        cells.resize(run, G::ZERO);
        spill_ok(
            g.pool.read_range((at * self.width) as u64, &mut bytes),
            "read",
        );
        (self.decode)(&bytes, &mut cells);
        g.bytes = bytes;
        cells
    }

    /// Writes `cells` back at cell offset `at` and keeps the buffer for
    /// the next access.
    fn write_run(&self, at: usize, cells: Vec<G>) {
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
}

/// The leaf arena: `run`-cell blocks of one cell array, `u32`-addressed,
/// with free-list reuse.
#[derive(Debug)]
pub(crate) struct LeafArena<G> {
    run: usize,
    /// Block ids handed out so far (live + free).
    slots: usize,
    free: Vec<u32>,
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
            free: Vec::new(),
            cells: Cells::Mem(Vec::new()),
        }
    }

    /// Cells per block.
    pub(crate) fn run_len(&self) -> usize {
        self.run
    }

    /// Switches an arena with no live blocks to blocks of `run` cells
    /// (the degenerate single-block tree grew). Every run is free, so
    /// every cell is zero and the ids simply start over.
    pub(crate) fn resize_blocks(&mut self, run: usize) {
        assert_eq!(self.free.len(), self.slots, "resizing live leaf blocks");
        assert!(run > 0, "leaf blocks hold at least one cell");
        self.run = run;
        self.slots = 0;
        self.free = Vec::new();
        if let Cells::Mem(cells) = &mut self.cells {
            *cells = Vec::new();
        }
    }

    /// Claims an all-zero block, returning its id (free slots are
    /// reused).
    pub(crate) fn insert_zeroed(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let id = self.slots;
        self.slots += 1;
        if let Cells::Mem(cells) = &mut self.cells {
            cells.resize(self.slots * self.run, G::ZERO);
        }
        id as u32
    }

    /// Zeroes block `id` and free-lists it.
    pub(crate) fn remove(&mut self, id: u32) {
        self.with_mut(id, |cells| cells.fill(G::ZERO));
        self.free.push(id);
    }

    /// Total slots (live + free).
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// The free list (order unspecified).
    pub(crate) fn free_ids(&self) -> &[u32] {
        &self.free
    }

    /// Invokes `f` with the row-major cells of block `id`.
    #[inline]
    pub(crate) fn with<R>(&self, id: u32, f: impl FnOnce(&[G]) -> R) -> R {
        let at = id as usize * self.run;
        match &self.cells {
            Cells::Mem(cells) => f(&cells[at..at + self.run]),
            Cells::Paged(p) => {
                assert!((id as usize) < self.slots, "leaf slot {id} out of bounds");
                // Copied out first: `f` may be a user callback that
                // re-enters the tree (`for_each_nonzero`).
                let cells = p.read_run(at, self.run);
                let r = f(&cells);
                p.lock().cells = cells;
                r
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
                let mut cells = p.read_run(at, self.run);
                let r = f(&mut cells);
                p.write_run(at, cells);
                r
            }
        }
    }

    /// True once the cells live behind a buffer pool.
    pub(crate) fn is_paged(&self) -> bool {
        matches!(self.cells, Cells::Paged(_))
    }

    /// Buffer-pool counter snapshot (`None` in memory).
    pub(crate) fn pool_stats(&self) -> Option<PoolStats> {
        match &self.cells {
            Cells::Mem(_) => None,
            Cells::Paged(p) => Some(p.lock().pool.stats()),
        }
    }

    /// Resident heap bytes: the cell array or the pool's frames and
    /// scratch, plus the free list, by capacity. Spilled bytes are *not*
    /// memory and are excluded.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.free.capacity() * std::mem::size_of::<u32>()
            + match &self.cells {
                Cells::Mem(cells) => cells.capacity() * std::mem::size_of::<G>(),
                Cells::Paged(p) => {
                    let g = p.lock();
                    g.pool.heap_bytes()
                        + g.bytes.capacity()
                        + g.cells.capacity() * std::mem::size_of::<G>()
                }
            }
    }

    /// Audits the pool's bookkeeping when paged (panics on violation).
    pub(crate) fn audit(&self) {
        if let Cells::Paged(p) = &self.cells {
            p.lock().pool.audit();
        }
    }
}

impl<G: AbelianGroup + ValueCodec> LeafArena<G> {
    /// Moves the cells behind a pool over `file`, byte for byte: ids,
    /// run length and the free list are untouched. No-op when already
    /// paged.
    pub(crate) fn page_onto(&mut self, file: SpillFile, pager: PagerConfig) {
        let Cells::Mem(cells) = &self.cells else {
            return;
        };
        let mut pool = BufferPool::new(file, pager.page_bytes, pager.mem_cap_bytes);
        let mut bytes = vec![0u8; self.run * G::WIDTH];
        for (id, block) in cells.chunks_exact(self.run).enumerate() {
            encode_cells(block, &mut bytes);
            spill_ok(pool.write_range((id * bytes.len()) as u64, &bytes), "write");
        }
        self.cells = Cells::Paged(Box::new(PagedCells {
            inner: Mutex::new(PagedInner {
                pool,
                bytes,
                cells: Vec::new(),
            }),
            width: G::WIDTH,
            encode: encode_cells::<G>,
            decode: decode_cells::<G>,
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
    fn freed_runs_are_reused_and_read_zero() {
        // 4 × 8 B = half a page per run; the paged twin keeps 2 pages.
        for mut arena in [LeafArena::<i64>::new(4), paged(4, 128)] {
            let a = arena.insert_zeroed();
            let b = arena.insert_zeroed();
            arena.with_mut(a, |c| c.copy_from_slice(&[1, 2, 3, 4]));
            arena.with_mut(b, |c| c[2] = 9);
            assert_eq!(read(&arena, a), [1, 2, 3, 4]);
            assert_eq!(arena.slots(), 2);
            arena.remove(a);
            assert_eq!(arena.free_ids(), &[a]);
            assert_eq!(arena.insert_zeroed(), a, "free slot must be reused");
            assert_eq!(read(&arena, a), [0; 4], "reused run must read zero");
            assert_eq!(read(&arena, b)[2], 9);
            arena.audit();
        }
    }

    #[test]
    fn paging_preserves_ids_cells_and_the_free_list() {
        let mut arena = LeafArena::<Pair<i64, f64>>::new(3);
        let ids: Vec<u32> = (0..5).map(|_| arena.insert_zeroed()).collect();
        for &id in &ids {
            arena.with_mut(id, |c| c[1] = Pair::new(i64::from(id) + 1, 0.5));
        }
        arena.remove(ids[3]);
        // 3 × 16 B runs over 64 B pages: runs 1 and 2 straddle a boundary.
        arena.page_onto(
            Box::new(Vec::<u8>::new()),
            PagerConfig::in_mem(64).with_page_bytes(64),
        );
        assert!(arena.is_paged());
        assert_eq!(arena.free_ids(), &[ids[3]]);
        for &id in &ids {
            let want = if id == ids[3] {
                Pair::ZERO
            } else {
                Pair::new(i64::from(id) + 1, 0.5)
            };
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
                let id = ids.swap_remove((rng as usize / 11) % ids.len());
                slab.remove(id);
                paged.remove(id);
            }
        }
        let stats = paged.pool_stats().unwrap();
        assert!(stats.evictions > 50, "{stats:?}");
        assert_eq!(paged.slots(), slab.slots());
        assert_eq!(paged.free_ids(), slab.free_ids());
        for id in 0..slab.slots() as u32 {
            assert_eq!(read(&paged, id), read(&slab, id), "slot {id}");
        }
        paged.audit();
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

    #[test]
    fn resize_starts_over_on_an_all_free_arena() {
        for mut arena in [LeafArena::<i64>::new(4), paged(4, 128)] {
            let a = arena.insert_zeroed();
            arena.with_mut(a, |c| c.fill(7));
            arena.remove(a);
            arena.resize_blocks(16);
            assert_eq!((arena.slots(), arena.run_len()), (0, 16));
            let b = arena.insert_zeroed();
            assert_eq!(read(&arena, b), [0; 16], "stale cells survived the resize");
        }
    }
}
