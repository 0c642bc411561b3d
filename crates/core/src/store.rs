//! Arena backends for [`crate::DdcTree`]'s leaf blocks: the in-memory
//! `CellSlab` (crate-private; every block a fixed-size run of one flat
//! `Vec`) and the out-of-core [`PagedStore`] that serializes records
//! onto the fixed-size pages of a [`crate::pager::BufferPool`].
//!
//! Both are slabs of `u32`-addressed slots with free-list reuse. The
//! tree never holds references into either across operations: the slab
//! hands out the block's cells in place as a slice, and the paged store
//! is closure-scoped (`with` / `with_mut`), which is what lets it
//! decode a record into a stack temporary, hand it to the closure, and
//! re-encode it afterwards while holding page pins only for the copy.
//!
//! [`PagedStore`] maps slot `id` to the fixed byte extent
//! `[id · record_cap, (id+1) · record_cap)` of the page file, so a
//! record touches `⌈record_cap / page_bytes⌉ + 1` pages at most and
//! small records share pages without alignment waste. Spill I/O errors
//! are process-fatal by design: pages are scratch state below the
//! snapshot + WAL pair, so crashing into recovery is the correct
//! degraded behavior (DESIGN S45).

use std::cell::RefCell;
use std::io;

use crate::config::PagerConfig;
use crate::pager::{BufferPool, PoolStats, WalBarrier};
use crate::sync::untracked::{AtomicU64, Mutex, MutexGuard, Ordering};
use crate::sync::PoisonError;
use crate::vfs::{OpenMode, StdVfs, Vfs, VfsFile};

// ---------------------------------------------------------------------
// CellSlab: fixed-size runs of one flat Vec
// ---------------------------------------------------------------------

/// In-memory leaf arena: block `id` is the run
/// `[id · run, (id+1) · run)` of one flat `Vec<G>` — no per-block
/// header, shape or allocation — plus a free list. A free run is
/// all-zero, so a slot claimed again needs no clearing.
#[derive(Debug)]
pub(crate) struct CellSlab<G> {
    cells: Vec<G>,
    run: usize,
    free: Vec<u32>,
}

impl<G: ddc_array::AbelianGroup> CellSlab<G> {
    /// An empty slab of `run`-cell blocks.
    ///
    /// # Panics
    ///
    /// Panics if `run == 0`.
    pub(crate) fn new(run: usize) -> Self {
        assert!(run > 0, "leaf blocks hold at least one cell");
        Self {
            cells: Vec::new(),
            run,
            free: Vec::new(),
        }
    }

    /// Cells per block.
    pub(crate) fn run_len(&self) -> usize {
        self.run
    }

    /// Claims an all-zero block, returning its slot id (free slots are
    /// reused).
    pub(crate) fn insert_zeroed(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let id = self.slots();
        self.cells.resize(self.cells.len() + self.run, G::ZERO);
        id as u32
    }

    /// Zeroes block `id` and free-lists it.
    pub(crate) fn remove(&mut self, id: u32) {
        self.block_mut(id).fill(G::ZERO);
        self.free.push(id);
    }

    /// The cells of block `id`.
    #[inline]
    pub(crate) fn block(&self, id: u32) -> &[G] {
        let at = id as usize * self.run;
        &self.cells[at..at + self.run]
    }

    /// The cells of block `id`, mutably.
    #[inline]
    pub(crate) fn block_mut(&mut self, id: u32) -> &mut [G] {
        let at = id as usize * self.run;
        &mut self.cells[at..at + self.run]
    }

    /// Total slots (live + free).
    pub(crate) fn slots(&self) -> usize {
        self.cells.len() / self.run
    }

    /// The free list (order unspecified).
    pub(crate) fn free_ids(&self) -> &[u32] {
        &self.free
    }

    /// Heap bytes held (cells + free list, by capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<G>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------
// PagedStore: records on pages behind the buffer pool
// ---------------------------------------------------------------------

/// Monomorphized encode/decode hooks for one record type, captured as
/// plain `fn` pointers where the serialization bound is in scope so the
/// store itself needs none (see `DdcTree::enable_paging`).
pub struct RecordCodec<T> {
    /// Serializes a record (appends to the buffer).
    pub encode: fn(&T, &mut Vec<u8>),
    /// Rebuilds a record from its bytes; `d` is the owning tree's
    /// dimensionality.
    pub decode: fn(usize, &[u8]) -> T,
}

impl<T> Copy for RecordCodec<T> {}
impl<T> Clone for RecordCodec<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> std::fmt::Debug for RecordCodec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecordCodec")
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum SlotState {
    Free,
    Occupied { len: u32 },
}

#[derive(Debug)]
struct PagedInner {
    pool: BufferPool,
    slots: Vec<SlotState>,
    free: Vec<u32>,
    scratch: Vec<u8>,
}

/// Out-of-core arena: records serialized onto the fixed byte extent
/// `[id · record_cap, (id+1) · record_cap)` of a page file behind a
/// capped [`BufferPool`]. Interior mutability (one mutex around the
/// pool) lets shared queries fault pages in through `&self`.
#[derive(Debug)]
pub struct PagedStore<T> {
    inner: Mutex<PagedInner>,
    codec: RecordCodec<T>,
    record_cap: usize,
    d: usize,
}

/// Names anonymous spill files uniquely within the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A thread-local factory for spill files, installed by
/// [`with_spill_source`].
type SpillSource = Box<dyn FnMut() -> io::Result<Box<dyn VfsFile + Send>>>;

thread_local! {
    static SPILL_SOURCE: RefCell<Option<SpillSource>> = const { RefCell::new(None) };
}

/// Runs `f` with every [`PagedStore`] created on this thread drawing
/// its spill file from `source` instead of the default [`StdVfs`] temp
/// file — the seam a fault-injection harness uses to put eviction
/// write-backs and fault-ins behind a [`crate::vfs::FaultVfs`]. The
/// override takes precedence over `spill_to_disk` (the harness decides
/// where spill bytes live) and is restored on exit, including by
/// panic.
pub fn with_spill_source<R>(
    source: impl FnMut() -> io::Result<Box<dyn VfsFile + Send>> + 'static,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore(Option<SpillSource>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPILL_SOURCE.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let prev = SPILL_SOURCE.with(|s| s.borrow_mut().replace(Box::new(source)));
    let _restore = Restore(prev);
    f()
}

fn open_spill_file(spill_to_disk: bool) -> io::Result<Box<dyn VfsFile + Send>> {
    if let Some(file) = SPILL_SOURCE.with(|s| s.borrow_mut().as_mut().map(|src| src())) {
        return file;
    }
    if !spill_to_disk {
        return Ok(Box::new(Vec::<u8>::new()));
    }
    let vfs = StdVfs;
    let path = std::env::temp_dir()
        .join(format!(
            "ddc-pager-{}-{}.pages",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
        .to_string_lossy()
        .into_owned();
    let file = vfs.open(&path, OpenMode::Create)?;
    // Unlink immediately: the open handle keeps the file alive, the
    // name disappears, and the OS reclaims the space on process exit
    // even after a crash. Best-effort — on filesystems that refuse,
    // the file simply remains until deleted. Only the default path
    // unlinks: an injected source owns its own namespace and may need
    // the name to survive (e.g. MemVfs, where remove drops the bytes).
    vfs.remove(&path).ok();
    Ok(Box::new(file))
}

/// Spill I/O failure is process-fatal: pages are scratch below the
/// snapshot + WAL pair, so the honest recovery path is a restart.
fn spill_ok<T>(r: io::Result<T>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("pager spill {what} failed (restart recovers from snapshot + WAL): {e}"),
    }
}

impl<T> PagedStore<T> {
    /// A paged store for records up to `record_cap` encoded bytes, from
    /// a `d`-dimensional tree, spilling per `pager`.
    pub fn new(
        pager: PagerConfig,
        d: usize,
        record_cap: usize,
        codec: RecordCodec<T>,
    ) -> io::Result<Self> {
        let file = open_spill_file(pager.spill_to_disk)?;
        Ok(Self {
            inner: Mutex::new(PagedInner {
                pool: BufferPool::new(file, pager.page_bytes, pager.mem_cap_bytes),
                slots: Vec::new(),
                free: Vec::new(),
                scratch: Vec::new(),
            }),
            codec,
            record_cap,
            d,
        })
    }

    /// Builds a store whose slot `id` holds the `id`-th item of
    /// `records` (`None` = vacant), with `free` as its free list — how
    /// the tree moves a `CellSlab` onto pages with every slot id
    /// preserved.
    pub fn from_records(
        records: impl Iterator<Item = Option<T>>,
        free: Vec<u32>,
        pager: PagerConfig,
        d: usize,
        record_cap: usize,
        codec: RecordCodec<T>,
    ) -> io::Result<Self> {
        let store = Self::new(pager, d, record_cap, codec)?;
        {
            let mut g = store.lock();
            for (id, slot) in records.enumerate() {
                g.slots.push(SlotState::Free);
                if let Some(item) = slot {
                    store_record(&mut g, id as u32, &item, record_cap, codec);
                }
            }
            g.free = free;
        }
        Ok(store)
    }

    fn lock(&self) -> MutexGuard<'_, PagedInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn load_record(&self, g: &mut PagedInner, id: u32) -> Option<T> {
        let len = match g.slots.get(id as usize) {
            Some(SlotState::Occupied { len }) => *len as usize,
            Some(SlotState::Free) => return None,
            None => panic!("leaf slot {id} out of bounds"),
        };
        let off = id as u64 * self.record_cap as u64;
        let mut scratch = std::mem::take(&mut g.scratch);
        scratch.clear();
        scratch.resize(len, 0);
        spill_ok(g.pool.read_range(off, &mut scratch), "read");
        let item = (self.codec.decode)(self.d, &scratch);
        g.scratch = scratch;
        Some(item)
    }

    /// Attaches (creating if needed) the WAL barrier gating dirty page
    /// write-back, and returns a handle the log writer advances.
    pub fn ensure_barrier(&self) -> WalBarrier {
        let mut g = self.lock();
        if let Some(b) = g.pool.barrier() {
            return b.clone();
        }
        let barrier = WalBarrier::new();
        g.pool.set_barrier(barrier.clone());
        barrier
    }

    /// Buffer-pool counter snapshot.
    pub fn pool_stats(&self) -> PoolStats {
        self.lock().pool.stats()
    }

    /// Resident heap bytes (pool frames + slot bookkeeping); spilled
    /// page-file bytes are *not* memory and are excluded.
    pub fn heap_bytes(&self) -> usize {
        let g = self.lock();
        g.pool.heap_bytes()
            + g.slots.capacity() * std::mem::size_of::<SlotState>()
            + g.free.capacity() * std::mem::size_of::<u32>()
            + g.scratch.capacity()
    }

    /// Audits pool and slot bookkeeping (panics on violation).
    pub fn audit(&self) {
        let g = self.lock();
        g.pool.audit();
        for &id in &g.free {
            assert!(
                matches!(g.slots.get(id as usize), Some(SlotState::Free)),
                "free-listed slot {id} not vacant"
            );
        }
    }
}

fn store_record<T>(
    g: &mut PagedInner,
    id: u32,
    item: &T,
    record_cap: usize,
    codec: RecordCodec<T>,
) {
    let mut scratch = std::mem::take(&mut g.scratch);
    scratch.clear();
    (codec.encode)(item, &mut scratch);
    assert!(
        scratch.len() <= record_cap,
        "record {id} encodes to {} bytes, over the {record_cap}-byte slot",
        scratch.len()
    );
    let off = id as u64 * record_cap as u64;
    spill_ok(g.pool.write_range(off, &scratch), "write");
    g.slots[id as usize] = SlotState::Occupied {
        len: scratch.len() as u32,
    };
    g.scratch = scratch;
}

impl<T> PagedStore<T> {
    /// Stores `item`, returning its slot id (free slots are reused).
    pub fn insert(&mut self, item: T) -> u32 {
        let record_cap = self.record_cap;
        let codec = self.codec;
        let mut g = self.lock();
        let id = match g.free.pop() {
            Some(id) => id,
            None => {
                g.slots.push(SlotState::Free);
                (g.slots.len() - 1) as u32
            }
        };
        store_record(&mut g, id, &item, record_cap, codec);
        id
    }

    /// Vacates slot `id` and free-lists it.
    pub fn remove(&mut self, id: u32) {
        let mut g = self.lock();
        match g.slots.get(id as usize) {
            Some(SlotState::Occupied { .. }) => {}
            Some(SlotState::Free) => panic!("double free of leaf slot {id}"),
            None => panic!("free of out-of-bounds leaf slot {id}"),
        }
        g.slots[id as usize] = SlotState::Free;
        g.free.push(id);
    }

    /// Total slots (live + free).
    pub fn slots(&self) -> usize {
        self.lock().slots.len()
    }

    /// Slots on the free list.
    pub fn free_len(&self) -> usize {
        self.lock().free.len()
    }

    /// The free list's contents (diagnostics; order unspecified).
    pub fn free_ids(&self) -> Vec<u32> {
        self.lock().free.clone()
    }

    /// True when slot `id` holds a record.
    pub fn is_occupied(&self, id: u32) -> bool {
        matches!(
            self.lock().slots.get(id as usize),
            Some(SlotState::Occupied { .. })
        )
    }

    /// Invokes `f` with a shared view of slot `id` (`None` if vacant).
    pub fn with<R>(&self, id: u32, f: impl FnOnce(Option<&T>) -> R) -> R {
        let item = {
            let mut g = self.lock();
            self.load_record(&mut g, id)
        };
        f(item.as_ref())
    }

    /// Invokes `f` with a mutable view of slot `id` (`None` if vacant);
    /// mutations are persisted when `f` returns.
    pub fn with_mut<R>(&mut self, id: u32, f: impl FnOnce(Option<&mut T>) -> R) -> R {
        let mut item = {
            let mut g = self.lock();
            self.load_record(&mut g, id)
        };
        let r = f(item.as_mut());
        if let Some(t) = &item {
            let mut g = self.lock();
            store_record(&mut g, id, t, self.record_cap, self.codec);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> RecordCodec<Vec<u8>> {
        RecordCodec {
            encode: |v, out| out.extend_from_slice(v),
            decode: |_, bytes| bytes.to_vec(),
        }
    }

    fn tiny_store(cap_bytes: usize) -> PagedStore<Vec<u8>> {
        PagedStore::new(
            PagerConfig::in_mem(cap_bytes).with_page_bytes(64),
            1,
            100,
            codec(),
        )
        .unwrap()
    }

    #[test]
    fn paged_insert_read_remove_reuse() {
        let mut s = tiny_store(128);
        let a = s.insert(vec![1, 2, 3]);
        let b = s.insert(vec![9; 100]);
        assert_eq!(s.slots(), 2);
        s.with(a, |v| assert_eq!(v, Some(&vec![1, 2, 3])));
        s.with(b, |v| assert_eq!(v, Some(&vec![9; 100])));
        s.with_mut(a, |v| v.unwrap().push(4));
        s.with(a, |v| assert_eq!(v, Some(&vec![1, 2, 3, 4])));
        s.remove(a);
        assert_eq!(s.free_len(), 1);
        s.with(a, |v| assert!(v.is_none()));
        let c = s.insert(vec![7]);
        assert_eq!(c, a, "free slot must be reused");
        s.audit();
    }

    #[test]
    fn paged_matches_model_under_churn_with_evictions() {
        let mut paged = tiny_store(128); // 2 pages resident at most
        let mut model = std::collections::HashMap::<u32, Vec<u8>>::new();
        let mut ids = Vec::new();
        let mut rng = 0x12345678u64;
        for i in 0..400u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = rng % 3;
            if op == 0 || ids.is_empty() {
                let rec = vec![(i % 251) as u8; 1 + (rng % 90) as usize];
                let id = paged.insert(rec.clone());
                assert!(model.insert(id, rec).is_none(), "live slot {id} reissued");
                ids.push(id);
            } else if op == 1 {
                let id = ids[(rng as usize / 7) % ids.len()];
                paged.with_mut(id, |v| {
                    if let Some(v) = v {
                        v.push(i as u8);
                    }
                });
                model.get_mut(&id).expect("live id").push(i as u8);
            } else {
                let ix = (rng as usize / 11) % ids.len();
                let id = ids.swap_remove(ix);
                paged.remove(id);
                model.remove(&id);
            }
        }
        assert!(
            paged.pool_stats().evictions > 50,
            "{:?}",
            paged.pool_stats()
        );
        assert_eq!(paged.slots() - paged.free_len(), ids.len());
        for id in ids {
            paged.with(id, |v| assert_eq!(v, model.get(&id), "slot {id}"));
        }
        paged.audit();
    }

    #[test]
    fn from_records_preserves_ids() {
        let (a, b, c) = (0u32, 1u32, 2u32);
        let records = vec![Some(vec![1u8]), None, Some(vec![3; 30])];
        let paged = PagedStore::from_records(
            records.into_iter(),
            vec![b],
            PagerConfig::in_mem(128).with_page_bytes(64),
            1,
            100,
            codec(),
        )
        .unwrap();
        paged.with(a, |v| assert_eq!(v, Some(&vec![1])));
        assert!(!paged.is_occupied(b));
        paged.with(c, |v| assert_eq!(v, Some(&vec![3; 30])));
        assert_eq!(paged.free_ids(), vec![b]);
    }

    #[test]
    fn cell_slab_reuses_zeroed_runs() {
        let mut slab = CellSlab::<i64>::new(4);
        let a = slab.insert_zeroed();
        let b = slab.insert_zeroed();
        slab.block_mut(a).copy_from_slice(&[1, 2, 3, 4]);
        slab.block_mut(b)[2] = 9;
        assert_eq!(slab.block(a), &[1, 2, 3, 4]);
        assert_eq!(slab.slots(), 2);
        slab.remove(a);
        assert_eq!(slab.free_ids(), &[a]);
        assert_eq!(slab.insert_zeroed(), a, "free slot must be reused");
        assert_eq!(slab.block(a), &[0; 4], "reused run must read zero");
        assert_eq!(slab.block(b)[2], 9);
    }
}
