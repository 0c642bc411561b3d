//! Fixed-size pages and a buffer pool over the [`crate::vfs`] seam —
//! ROADMAP #1's out-of-core backing store.
//!
//! A [`BufferPool`] caches fixed-size pages (default 4 KiB) of one
//! backing [`VfsFile`] under a configurable memory cap. Callers never
//! pin: [`BufferPool::update_page`], [`BufferPool::read_range`] and
//! [`BufferPool::write_range`] pin the pages they touch, copy bytes in
//! or out, and unpin every one of them on every exit, a failed I/O
//! included. A page table (`Vec<u32>`, page → frame) finds a resident
//! page; a miss at the cap evicts one victim chosen by a clock
//! (second-chance) sweep and reads the page into the victim's buffer,
//! writing the victim back first if it is dirty. So a miss costs its I/O
//! and nothing else: no allocation, and no sweep on the unpin that
//! follows. Only a pool held over its cap by pins (a run wider than the
//! pool) evicts on unpin.
//!
//! The pool is deliberately single-owner (`&mut self` everywhere);
//! concurrent access is serialized by the owning arena (see
//! `core::store`). Pages are *scratch*, not a recovery root: nothing
//! reads the file after a crash — a boot rebuilds the leaves from
//! snapshot + WAL onto a fresh pool — so write-back needs no ordering
//! against the log (DESIGN S45).

use std::io;

use crate::obs::{self, Counter};
use crate::sync::{Arc, OnceLock};
use crate::vfs::VfsFile;

/// Counter snapshot of one buffer pool's activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pin requests satisfied by an already-resident page.
    pub hits: u64,
    /// Pin requests that faulted the page in from the file.
    pub misses: u64,
    /// Frames handed to another page (or dropped) by the clock sweep.
    pub evictions: u64,
    /// Dirty frames written to the file before eviction.
    pub write_backs: u64,
    /// Full clock rotations that found no evictable victim (the pool
    /// stayed over its cap for that round).
    pub stall_rounds: u64,
    /// Transient spill I/O failures absorbed by the bounded retry in
    /// fault-in / write-back (each unit is one retried attempt, not
    /// one surviving operation).
    pub io_retries: u64,
    /// Cell deltas recorded in the arena's change buffer instead of
    /// faulting their page in (neither a hit nor a miss).
    pub buffered: u64,
    /// Buffered deltas applied to their page when it was next read or
    /// the buffer filled.
    pub merged: u64,
    /// Pages currently resident.
    pub resident_pages: usize,
    /// Resident pages currently pinned.
    pub pinned_pages: usize,
    /// Resident pages currently dirty.
    pub dirty_pages: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Pool budget in pages.
    pub cap_pages: usize,
}

/// The process-wide `pager.*` counters: every pool and change buffer
/// reports into them, so `/metrics` and `ddc stats` show paging.
#[derive(Debug)]
pub(crate) struct PagerObs {
    pub(crate) hits: Arc<Counter>,
    pub(crate) misses: Arc<Counter>,
    pub(crate) evictions: Arc<Counter>,
    pub(crate) write_backs: Arc<Counter>,
    pub(crate) io_retries: Arc<Counter>,
    pub(crate) buffered: Arc<Counter>,
    pub(crate) merged: Arc<Counter>,
}

pub(crate) fn pager_obs() -> &'static PagerObs {
    static OBS: OnceLock<PagerObs> = OnceLock::new();
    OBS.get_or_init(|| PagerObs {
        hits: obs::counter("pager.hits"),
        misses: obs::counter("pager.misses"),
        evictions: obs::counter("pager.evictions"),
        write_backs: obs::counter("pager.write_backs"),
        io_retries: obs::counter("pager.io_retries"),
        buffered: obs::counter("pager.buffered"),
        merged: obs::counter("pager.merged"),
    })
}

#[derive(Debug)]
struct Frame {
    page: u64,
    buf: Box<[u8]>,
    pins: u32,
    referenced: bool,
    dirty: bool,
}

/// A page-table entry of a page that is not resident.
const NO_FRAME: u32 = u32::MAX;

/// Transient spill I/O errors (e.g. injected EIO from a fault
/// harness) are retried this many times before the error propagates
/// and `core::store`'s process-fatal policy applies.
const IO_ATTEMPTS: usize = 8;

/// A clock-eviction buffer pool over one page file.
pub struct BufferPool {
    file: Box<dyn VfsFile + Send>,
    page_bytes: usize,
    cap_pages: usize,
    /// Page → index into `frames`, [`NO_FRAME`] when not resident.
    table: Vec<u32>,
    /// Resident pages in clock order (`hand` indexes the next
    /// candidate); `table` points at every one of them exactly once.
    frames: Vec<Frame>,
    hand: usize,
    /// The second image of the double-read defense, reused per miss.
    check: Box<[u8]>,
    /// Pages materialized in the file so far (reads beyond are zeros).
    file_pages: u64,
    /// The last unpin that found the pool over its cap could not evict
    /// back down to it (a victim's write-back failed); the next unpin
    /// tries again.
    shrink_failed: bool,
    hits: u64,
    misses: u64,
    evictions: u64,
    write_backs: u64,
    stall_rounds: u64,
    io_retries: u64,
    obs: &'static PagerObs,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("page_bytes", &self.page_bytes)
            .field("cap_pages", &self.cap_pages)
            .field("resident", &self.frames.len())
            .field("evictions", &self.evictions)
            .finish_non_exhaustive()
    }
}

impl BufferPool {
    /// A pool over `file` with `page_bytes`-sized pages and a budget of
    /// `mem_cap_bytes` (rounded down to whole pages, minimum one).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes < 64` (degenerate pages are always a
    /// configuration bug).
    pub fn new(file: Box<dyn VfsFile + Send>, page_bytes: usize, mem_cap_bytes: usize) -> Self {
        assert!(page_bytes >= 64, "page size {page_bytes} too small");
        Self {
            file,
            page_bytes,
            cap_pages: (mem_cap_bytes / page_bytes).max(1),
            table: Vec::new(),
            frames: Vec::new(),
            hand: 0,
            check: Box::default(),
            file_pages: 0,
            shrink_failed: false,
            hits: 0,
            misses: 0,
            evictions: 0,
            write_backs: 0,
            stall_rounds: 0,
            io_retries: 0,
            obs: pager_obs(),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Counter snapshot (`buffered` and `merged` are the arena's).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            write_backs: self.write_backs,
            stall_rounds: self.stall_rounds,
            io_retries: self.io_retries,
            resident_pages: self.frames.len(),
            pinned_pages: self.frames.iter().filter(|f| f.pins > 0).count(),
            dirty_pages: self.frames.iter().filter(|f| f.dirty).count(),
            page_bytes: self.page_bytes,
            cap_pages: self.cap_pages,
            ..PoolStats::default()
        }
    }

    /// The frame holding `page`, if it is resident.
    #[inline]
    fn frame_of(&self, page: u64) -> Option<usize> {
        match self.table.get(page as usize) {
            Some(&ix) if ix != NO_FRAME => Some(ix as usize),
            _ => None,
        }
    }

    /// True when `page` is in the pool (a pin would be a hit).
    #[inline]
    pub fn is_resident(&self, page: u64) -> bool {
        self.frame_of(page).is_some()
    }

    /// Pins `page`, faulting it in from the file if absent. Pinned
    /// pages are never evicted; every successful pin must be paired
    /// with an [`BufferPool::unpin`].
    fn pin(&mut self, page: u64) -> io::Result<()> {
        if let Some(ix) = self.frame_of(page) {
            let frame = &mut self.frames[ix];
            frame.pins += 1;
            frame.referenced = true;
            self.hits += 1;
            self.obs.hits.inc();
            return Ok(());
        }
        self.misses += 1;
        self.obs.misses.inc();
        let ix = self.claim_frame()?;
        let mut buf = std::mem::take(&mut self.frames[ix].buf);
        let loaded = self.fault_in(page, &mut buf);
        self.frames[ix].buf = buf;
        if let Err(e) = loaded {
            // The claimed frame holds no page: give it back.
            self.remove_frame(ix);
            return Err(e);
        }
        let frame = &mut self.frames[ix];
        frame.page = page;
        frame.pins = 1;
        frame.referenced = true;
        frame.dirty = false;
        if page as usize >= self.table.len() {
            self.table.resize(page as usize + 1, NO_FRAME);
        }
        self.table[page as usize] = ix as u32;
        Ok(())
    }

    /// A frame for a page about to be faulted in: a new one below the
    /// cap, else the clock's victim (written back first if dirty), else
    /// — every frame pinned — a new one over the cap (a stall round).
    /// The returned frame is in no page's table entry.
    fn claim_frame(&mut self) -> io::Result<usize> {
        if self.frames.len() >= self.cap_pages {
            match self.victim() {
                Some(ix) => {
                    self.evict(ix)?;
                    return Ok(ix);
                }
                None => self.stall_rounds += 1,
            }
        }
        self.frames.push(Frame {
            page: u64::MAX,
            buf: vec![0u8; self.page_bytes].into_boxed_slice(),
            pins: 0,
            referenced: false,
            dirty: false,
        });
        Ok(self.frames.len() - 1)
    }

    /// The clock's next victim: an unpinned frame whose reference bit
    /// is clear, clearing the bits it passes. Two rotations find one
    /// unless every frame is pinned.
    fn victim(&mut self) -> Option<usize> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            if self.hand >= n {
                self.hand = 0;
            }
            let ix = self.hand;
            self.hand += 1;
            let frame = &mut self.frames[ix];
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Some(ix);
        }
        None
    }

    /// Writes frame `ix` back if dirty and takes its page out of the
    /// table; the frame stays in `frames`, owned by no page.
    fn evict(&mut self, ix: usize) -> io::Result<()> {
        if self.frames[ix].dirty {
            self.write_back(ix)?;
        }
        self.table[self.frames[ix].page as usize] = NO_FRAME;
        self.evictions += 1;
        self.obs.evictions.inc();
        Ok(())
    }

    /// Drops frame `ix`, which no table entry points at.
    fn remove_frame(&mut self, ix: usize) {
        self.frames.swap_remove(ix);
        if let Some(moved) = self.frames.get(ix) {
            self.table[moved.page as usize] = ix as u32;
        }
        if self.hand > self.frames.len() {
            self.hand = 0;
        }
    }

    /// Releases one pin of `page`. A pool that pins held over its cap
    /// evicts back down to it here; at or under the cap this is a
    /// counter decrement. The pin is released even when an eviction
    /// write-back fails.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not resident or not pinned — an unbalanced
    /// unpin is a bookkeeping bug, never valid (pin counts cannot go
    /// negative).
    fn unpin(&mut self, page: u64) -> io::Result<()> {
        let ix = self
            .frame_of(page)
            .unwrap_or_else(|| panic!("unpin of non-resident page {page}"));
        let frame = &mut self.frames[ix];
        assert!(frame.pins > 0, "unpin of unpinned page {page}");
        frame.pins -= 1;
        while self.frames.len() > self.cap_pages {
            let Some(ix) = self.victim() else {
                self.stall_rounds += 1;
                break;
            };
            if let Err(e) = self.evict(ix) {
                self.shrink_failed = true;
                return Err(e);
            }
            self.remove_frame(ix);
        }
        self.shrink_failed = false;
        Ok(())
    }

    /// The resident frame of `page`, which the caller must hold a pin
    /// on (enforced).
    fn pinned(&self, page: u64, what: &str) -> usize {
        let ix = self
            .frame_of(page)
            .unwrap_or_else(|| panic!("{what} non-resident page {page}"));
        assert!(self.frames[ix].pins > 0, "{what} unpinned page {page}");
        ix
    }

    /// Copies `out.len()` bytes at `offset` within resident page `page`
    /// to `out`. The caller must hold a pin (enforced).
    fn read_page(&self, page: u64, offset: usize, out: &mut [u8]) {
        let frame = &self.frames[self.pinned(page, "read of")];
        out.copy_from_slice(&frame.buf[offset..offset + out.len()]);
    }

    /// Overwrites `data.len()` bytes at `offset` within resident page
    /// `page`, marking it dirty. The caller must hold a pin (enforced).
    fn write_page(&mut self, page: u64, offset: usize, data: &[u8]) {
        let ix = self.pinned(page, "write to");
        let frame = &mut self.frames[ix];
        frame.buf[offset..offset + data.len()].copy_from_slice(data);
        frame.dirty = true;
    }

    /// Pins `page` (faulting it in if absent), hands its bytes to `f`
    /// to change in place, marks it dirty and unpins it.
    pub fn update_page<R>(&mut self, page: u64, f: impl FnOnce(&mut [u8]) -> R) -> io::Result<R> {
        self.pin(page)?;
        let ix = self.pinned(page, "update of");
        let frame = &mut self.frames[ix];
        let r = f(&mut frame.buf);
        frame.dirty = true;
        self.unpin(page)?;
        Ok(r)
    }

    /// Reads `out.len()` bytes at byte `offset` of the file through the
    /// page cache (pins the touched pages for the duration).
    pub fn read_range(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        self.for_each_segment(offset, out.len(), |pool, page, in_page, start, len| {
            pool.read_page(page, in_page, &mut out[start..start + len]);
        })
    }

    /// Writes `data` at byte `offset` of the file through the page
    /// cache: frames are updated in memory and marked dirty; the bytes
    /// reach the file only on eviction write-back.
    pub fn write_range(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.for_each_segment(offset, data.len(), |pool, page, in_page, start, len| {
            pool.write_page(page, in_page, &data[start..start + len]);
        })
    }

    /// Pins every page overlapping `[offset, offset + len)`, invokes
    /// `f(pool, page, in_page_offset, buf_start, seg_len)` per page,
    /// and unpins. Pinning the whole range up front keeps earlier pages
    /// resident while later ones fault in.
    fn for_each_segment(
        &mut self,
        offset: u64,
        len: usize,
        mut f: impl FnMut(&mut Self, u64, usize, usize, usize),
    ) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let pb = self.page_bytes as u64;
        let first = offset / pb;
        let last = (offset + len as u64 - 1) / pb;
        let mut pinned = first;
        let result = (|| -> io::Result<()> {
            for page in first..=last {
                self.pin(page)?;
                pinned = page + 1;
            }
            let mut start = 0usize;
            for page in first..=last {
                let page_lo = page * pb;
                let in_page = offset.max(page_lo) - page_lo;
                let seg = ((page_lo + pb).min(offset + len as u64) - (page_lo + in_page)) as usize;
                f(self, page, in_page as usize, start, seg);
                start += seg;
            }
            Ok(())
        })();
        // Unpin exactly what was pinned, even on a faulted fast exit or
        // after an unpin whose eviction write-back failed; the first
        // error is the one returned.
        let mut unpinned = Ok(());
        for page in first..pinned {
            unpinned = unpinned.and(self.unpin(page));
        }
        result.and(unpinned)
    }

    /// Reads `page` into `buf`: zeros past the materialized extent,
    /// else the file's bytes under the double-read defense — a
    /// transient read fault can hand back a corrupted copy while the
    /// stored bytes are fine, so the page is re-read until two
    /// consecutive images agree; persistent disagreement means the
    /// medium itself is unstable, which is a spill error like any
    /// other.
    fn fault_in(&mut self, page: u64, buf: &mut [u8]) -> io::Result<()> {
        if page >= self.file_pages {
            buf.fill(0);
            return Ok(());
        }
        let off = page * self.page_bytes as u64;
        self.fill(off, buf)?;
        let mut check = std::mem::take(&mut self.check);
        if check.len() != buf.len() {
            check = vec![0u8; buf.len()].into_boxed_slice();
        }
        let mut agreed = Ok(false);
        for _ in 0..IO_ATTEMPTS {
            if let Err(e) = self.fill(off, &mut check) {
                agreed = Err(e);
                break;
            }
            if *check == *buf {
                agreed = Ok(true);
                break;
            }
            self.retried();
            buf.copy_from_slice(&check);
        }
        self.check = check;
        if !agreed? {
            return Err(io::Error::other(format!(
                "page {page} image unstable after {IO_ATTEMPTS} re-reads"
            )));
        }
        Ok(())
    }

    fn retried(&mut self) {
        self.io_retries += 1;
        self.obs.io_retries.inc();
    }

    /// Fills `buf` from file offset `off`, zero-extending past the
    /// materialized extent and retrying transient read errors up to
    /// [`IO_ATTEMPTS`] times.
    fn fill(&mut self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0usize;
        let mut attempts = 0usize;
        while filled < buf.len() {
            match self.file.read_at(off + filled as u64, &mut buf[filled..]) {
                Ok(0) => {
                    // Rest of the page never materialized: zeros.
                    buf[filled..].fill(0);
                    break;
                }
                Ok(n) => filled += n,
                Err(e) => {
                    attempts += 1;
                    if attempts >= IO_ATTEMPTS {
                        return Err(e);
                    }
                    self.retried();
                }
            }
        }
        Ok(())
    }

    /// Writes frame `ix`'s bytes to the file and clears its dirty bit,
    /// retrying transient write errors up to [`IO_ATTEMPTS`] times.
    fn write_back(&mut self, ix: usize) -> io::Result<()> {
        let page = self.frames[ix].page;
        let off = page * self.page_bytes as u64;
        let mut attempts = 0usize;
        while let Err(e) = self.file.write_at(off, &self.frames[ix].buf) {
            attempts += 1;
            if attempts >= IO_ATTEMPTS {
                return Err(e);
            }
            self.retried();
        }
        self.frames[ix].dirty = false;
        self.write_backs += 1;
        self.obs.write_backs.inc();
        self.file_pages = self.file_pages.max(page + 1);
        Ok(())
    }

    /// Heap bytes held by the pool (frames, page table, the re-read
    /// buffer).
    pub fn heap_bytes(&self) -> usize {
        (self.frames.len() + 1) * self.page_bytes
            + self.frames.capacity() * std::mem::size_of::<Frame>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    /// Audits pool bookkeeping: the page table and the frames mirror
    /// each other exactly (no duplicates, no strays), the hand is in
    /// range, and the pool is within its cap unless pins legitimately
    /// hold it over or the last eviction back down to it failed its
    /// write-back.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn audit(&self) {
        for (ix, frame) in self.frames.iter().enumerate() {
            assert_eq!(
                self.frame_of(frame.page),
                Some(ix),
                "frame {ix} (page {}) not in the page table",
                frame.page
            );
            assert_eq!(frame.buf.len(), self.page_bytes, "frame {ix} resized");
        }
        let mapped = self.table.iter().filter(|&&ix| ix != NO_FRAME).count();
        assert_eq!(
            mapped,
            self.frames.len(),
            "page table and frames out of step"
        );
        assert!(self.hand <= self.frames.len(), "clock hand out of range");
        let pinned = self.frames.iter().filter(|f| f.pins > 0).count();
        assert!(
            self.frames.len() <= self.cap_pages.max(pinned) || self.shrink_failed,
            "pool resident {} over cap {} with only {} pinned pages",
            self.frames.len(),
            self.cap_pages,
            pinned
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap_pages: usize) -> BufferPool {
        BufferPool::new(Box::new(Vec::new()), 64, cap_pages * 64)
    }

    #[test]
    fn roundtrip_through_eviction() {
        let mut p = pool(2);
        for i in 0u64..8 {
            p.write_range(i * 64, &[i as u8 + 1; 64]).unwrap();
        }
        assert!(p.stats().evictions >= 6, "{:?}", p.stats());
        for i in 0u64..8 {
            let mut buf = [0u8; 64];
            p.read_range(i * 64, &mut buf).unwrap();
            assert_eq!(buf, [i as u8 + 1; 64], "page {i}");
        }
        p.audit();
    }

    #[test]
    fn unaligned_ranges_span_pages() {
        let mut p = pool(3);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        p.write_range(40, &data).unwrap();
        let mut out = vec![0u8; 200];
        p.read_range(40, &mut out).unwrap();
        assert_eq!(out, data);
        // The prefix before the write is still zeros.
        let mut head = [9u8; 40];
        p.read_range(0, &mut head).unwrap();
        assert_eq!(head, [0u8; 40]);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let mut p = pool(2);
        p.pin(0).unwrap();
        p.write_page(0, 0, &[7u8; 64]);
        // Flood the pool: page 0 is pinned and must stay resident.
        for i in 1u64..10 {
            p.write_range(i * 64, &[i as u8; 64]).unwrap();
        }
        assert!(p.stats().pinned_pages >= 1);
        let mut buf = [0u8; 64];
        p.read_page(0, 0, &mut buf);
        assert_eq!(buf, [7u8; 64]);
        p.unpin(0).unwrap();
        p.audit();
    }

    #[test]
    fn a_range_wider_than_the_pool_fits_while_pinned_and_shrinks_back() {
        let mut p = pool(2);
        let data: Vec<u8> = (0..320).map(|i| i as u8).collect();
        p.write_range(0, &data).unwrap();
        assert_eq!(p.stats().resident_pages, 2, "unpin must evict to the cap");
        let mut out = vec![0u8; 320];
        p.read_range(0, &mut out).unwrap();
        assert_eq!(out, data);
        assert!(p.stats().stall_rounds > 0);
        p.audit();
    }

    #[test]
    #[should_panic(expected = "unpin of non-resident page")]
    fn unbalanced_unpin_panics() {
        let mut p = pool(2);
        let _ = p.unpin(3);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned page")]
    fn double_unpin_panics() {
        let mut p = pool(2);
        p.pin(0).unwrap();
        let _ = p.unpin(0);
        let _ = p.unpin(0);
    }

    #[test]
    fn second_chance_prefers_unreferenced() {
        let mut p = pool(2);
        p.write_range(0, &[1u8; 64]).unwrap();
        p.write_range(64, &[2u8; 64]).unwrap();
        // Force the distinguishing state: page 0 referenced, page 1 not.
        // Under pressure the clock must grant page 0 its second chance
        // and take page 1, regardless of hand position.
        for frame in &mut p.frames {
            frame.referenced = frame.page == 0;
        }
        p.write_range(128, &[3u8; 64]).unwrap();
        let s = p.stats();
        assert_eq!(s.resident_pages, 2);
        assert!(p.is_resident(0), "referenced page evicted early");
        assert!(!p.is_resident(1), "unreferenced page must be the victim");
        p.audit();
    }

    #[test]
    fn a_miss_reuses_its_victims_frame() {
        let mut p = pool(2);
        p.write_range(0, &[0u8; 128]).unwrap();
        let bufs: Vec<*const u8> = p.frames.iter().map(|f| f.buf.as_ptr()).collect();
        for i in 2u64..40 {
            p.write_range(i * 64, &[i as u8; 64]).unwrap();
        }
        let now: Vec<*const u8> = p.frames.iter().map(|f| f.buf.as_ptr()).collect();
        assert_eq!(now, bufs, "a miss at the cap allocated a frame");
        let mut buf = [0u8; 64];
        p.read_range(7 * 64, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64], "a reused frame kept its old bytes");
        // A page never written reads zero through a recycled buffer.
        p.read_range(90 * 64, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        p.audit();
    }

    #[test]
    fn stats_and_audit_after_churn() {
        let mut p = pool(4);
        for round in 0..50u64 {
            for i in 0..10u64 {
                p.write_range((i * 64) + (round % 3), &[round as u8; 32])
                    .unwrap();
            }
        }
        let s = p.stats();
        assert!(s.evictions >= 100, "{s:?}");
        assert_eq!(s.pinned_pages, 0);
        p.audit();
    }

    /// Every error exit of the pool's three accessors leaves no page
    /// pinned: the unpin write-back of `write_range` / `read_range`, a
    /// fault-in that fails mid-range, and `update_page` whose pin fails.
    /// `for_each_segment` used to unpin with `?` in a loop, so one failed
    /// eviction write-back left every later page of the range pinned.
    #[test]
    fn a_failed_write_back_on_unpin_leaves_no_page_pinned() {
        use crate::vfs::{OpenMode, Vfs};
        use crate::{FaultProbs, FaultVfs};
        let failing = FaultProbs {
            write_err: 1.0,
            read_err: 1.0,
            ..FaultProbs::none()
        };
        let pool = |vfs: &FaultVfs, cap_pages: usize| {
            let file = vfs.open("pool.spill", OpenMode::Create).unwrap();
            BufferPool::new(Box::new(file), 64, cap_pages * 64)
        };
        let unpinned = |p: &BufferPool, what: &str| {
            assert_eq!(p.stats().pinned_pages, 0, "{what}: {:?}", p.stats());
            p.audit();
        };

        // write_range over 4 pages of a 2-page pool: every unpin's
        // eviction write-back fails.
        let vfs = FaultVfs::seeded_mem(1, failing);
        let mut p = pool(&vfs, 2);
        vfs.arm(true);
        assert!(p.write_range(0, &[1u8; 256]).is_err());
        unpinned(&p, "write_range");

        // read_range over two dirty resident pages and two fresh ones:
        // the unpin that shrinks back to the cap must write one back.
        let vfs = FaultVfs::seeded_mem(2, failing);
        let mut p = pool(&vfs, 2);
        p.write_range(0, &[2u8; 128]).unwrap();
        vfs.arm(true);
        assert!(p.read_range(0, &mut [0u8; 256]).is_err());
        unpinned(&p, "read_range");

        // A fault-in that fails mid-range: page 1 is resident and clean,
        // page 2 exists in the file and cannot be read.
        let vfs = FaultVfs::seeded_mem(3, failing);
        let mut p = pool(&vfs, 2);
        p.write_range(0, &[3u8; 128]).unwrap();
        p.write_range(128, &[4u8; 128]).unwrap();
        p.read_range(0, &mut [0u8; 128]).unwrap();
        assert_eq!(p.stats().dirty_pages, 0, "{:?}", p.stats());
        vfs.arm(true);
        assert!(p.read_range(64, &mut [0u8; 128]).is_err());
        unpinned(&p, "fault-in mid-range");

        // update_page whose pin fails: the only victim is dirty.
        let vfs = FaultVfs::seeded_mem(4, failing);
        let mut p = pool(&vfs, 1);
        p.write_range(0, &[5u8; 64]).unwrap();
        vfs.arm(true);
        assert!(p.update_page(1, |bytes| bytes[0] = 6).is_err());
        unpinned(&p, "update_page");
    }

    #[test]
    fn update_page_faults_in_and_dirties() {
        let mut p = pool(1);
        p.write_range(0, &[5u8; 64]).unwrap();
        p.write_range(64, &[6u8; 64]).unwrap();
        let old = p
            .update_page(0, |bytes| std::mem::replace(&mut bytes[3], 9))
            .unwrap();
        assert_eq!(old, 5);
        p.write_range(128, &[0u8; 64]).unwrap();
        let mut buf = [0u8; 4];
        p.read_range(0, &mut buf).unwrap();
        assert_eq!(buf, [5, 5, 5, 9]);
        assert_eq!(p.stats().pinned_pages, 0);
        p.audit();
    }
}
