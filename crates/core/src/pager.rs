//! Fixed-size pages and a buffer pool over the [`crate::vfs`] seam —
//! the out-of-core backing store of [`crate::LeafBackend::Paged`]
//! (DESIGN S45).
//!
//! A [`BufferPool`] caches fixed-size pages (default 4 KiB) of one
//! backing [`VfsFile`] under a memory cap it never exceeds.
//! [`BufferPool::update_page`], [`BufferPool::read_range`] and
//! [`BufferPool::write_range`] visit one page at a time: make it
//! resident, copy its bytes in or out, move on — no caller holds a page
//! across a fault. A page table (`Vec<u32>`, page → frame) finds a
//! resident page; a miss at the cap evicts one victim chosen by a clock
//! (second-chance) sweep and reads the page into the victim's buffer,
//! writing the victim back first if it is dirty. So a miss costs its
//! I/O and nothing else: no allocation, and the pool never grows past
//! its cap, not even on a failed I/O.
//!
//! The pool is deliberately single-owner (`&mut self` everywhere);
//! concurrent access is serialized by the owning arena (see
//! `core::store`). Pages are *scratch*, not a recovery root: nothing
//! reads the file after a crash — a boot rebuilds the leaves from
//! snapshot + WAL onto a fresh pool — so write-back needs no ordering
//! against the log (DESIGN S45), and a range whose I/O fails partway
//! has written only bytes that nothing reads again (the arena's spill
//! errors are process-fatal).

use std::io;
use std::ops::Range;

use crate::obs::{self, Counter};
use crate::sync::{Arc, OnceLock};
use crate::vfs::{read_verified, VfsFile};

/// Counter snapshot of one buffer pool's activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page visits that found the page resident.
    pub hits: u64,
    /// Page visits that faulted the page in from the file.
    pub misses: u64,
    /// Frames handed to another page by the clock sweep.
    pub evictions: u64,
    /// Dirty frames written to the file before eviction.
    pub write_backs: u64,
    /// Transient spill I/O failures absorbed by the bounded retry: each
    /// fault-in read beyond the two a verified read needs, and each
    /// retried write-back (one unit per retried attempt, not per
    /// surviving operation).
    pub io_retries: u64,
    /// Cell deltas recorded in the arena's change buffer instead of
    /// faulting their page in (neither a hit nor a miss).
    pub buffered: u64,
    /// Buffered deltas applied to their page when it was next read or
    /// the buffer filled.
    pub merged: u64,
    /// Pages currently resident (never more than `cap_pages`).
    pub resident_pages: usize,
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
    referenced: bool,
    dirty: bool,
}

/// A page-table entry of a page that is not resident.
const NO_FRAME: u32 = u32::MAX;

/// A write-back that fails (e.g. injected EIO from a fault harness) is
/// attempted this many times before the error propagates and
/// `core::store`'s process-fatal policy applies. Fault-in reads spend
/// [`crate::vfs::READ_ATTEMPTS`].
const WRITE_ATTEMPTS: usize = 8;

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
    /// The second image of a verified fault-in read, reused per miss.
    check: Box<[u8]>,
    /// Pages materialized in the file so far (reads beyond are zeros).
    file_pages: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    write_backs: u64,
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
            check: vec![0u8; page_bytes].into_boxed_slice(),
            file_pages: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            write_backs: 0,
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
            io_retries: self.io_retries,
            resident_pages: self.frames.len(),
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

    /// True when `page` is in the pool (a visit would be a hit).
    #[inline]
    pub fn is_resident(&self, page: u64) -> bool {
        self.frame_of(page).is_some()
    }

    /// The frame holding `page`, faulting it in on a miss. The frame is
    /// the caller's until its next call into the pool.
    #[inline]
    fn resident(&mut self, page: u64) -> io::Result<&mut Frame> {
        let ix = match self.frame_of(page) {
            Some(ix) => {
                self.hits += 1;
                self.obs.hits.inc();
                ix
            }
            None => self.fault(page)?,
        };
        let frame = &mut self.frames[ix];
        frame.referenced = true;
        Ok(frame)
    }

    /// A miss: claims a frame, reads `page` into it and maps it. Out of
    /// line so the hit path stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, page: u64) -> io::Result<usize> {
        self.misses += 1;
        self.obs.misses.inc();
        let ix = self.claim_frame()?;
        if let Err(e) = self.fault_in(page, ix) {
            // The claimed frame holds no page: give it back.
            self.remove_frame(ix);
            return Err(e);
        }
        let frame = &mut self.frames[ix];
        frame.page = page;
        frame.dirty = false;
        if page as usize >= self.table.len() {
            self.table.resize(page as usize + 1, NO_FRAME);
        }
        self.table[page as usize] = ix as u32;
        Ok(ix)
    }

    /// A frame for a page about to be faulted in: a new one below the
    /// cap, else the clock's victim (written back first if dirty). The
    /// returned frame is in no page's table entry.
    fn claim_frame(&mut self) -> io::Result<usize> {
        if self.frames.len() < self.cap_pages {
            self.frames.push(Frame {
                page: u64::MAX,
                buf: vec![0u8; self.page_bytes].into_boxed_slice(),
                referenced: false,
                dirty: false,
            });
            return Ok(self.frames.len() - 1);
        }
        let ix = self.victim();
        self.evict(ix)?;
        Ok(ix)
    }

    /// The clock's next victim: a frame whose reference bit is clear,
    /// clearing the bits it passes, so one rotation finds one. The pool
    /// must not be empty.
    fn victim(&mut self) -> usize {
        loop {
            if self.hand >= self.frames.len() {
                self.hand = 0;
            }
            let ix = self.hand;
            self.hand += 1;
            let frame = &mut self.frames[ix];
            if !frame.referenced {
                return ix;
            }
            frame.referenced = false;
        }
    }

    /// Writes frame `ix` back if dirty and takes its page out of the
    /// table; the frame stays in `frames`, owned by no page. A failed
    /// write-back leaves the frame resident and dirty.
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

    /// Makes `page` resident, hands its bytes to `f` to change in place
    /// and marks it dirty.
    pub fn update_page<R>(&mut self, page: u64, f: impl FnOnce(&mut [u8]) -> R) -> io::Result<R> {
        let frame = self.resident(page)?;
        frame.dirty = true;
        Ok(f(&mut frame.buf))
    }

    /// Reads `out.len()` bytes at byte `offset` of the file through the
    /// page cache.
    pub fn read_range(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        self.for_each_segment(offset, out.len(), |frame, at, span| {
            out[span.clone()].copy_from_slice(&frame.buf[at..at + span.len()]);
        })
    }

    /// Writes `data` at byte `offset` of the file through the page
    /// cache: frames are updated in memory and marked dirty; the bytes
    /// reach the file only on eviction write-back.
    pub fn write_range(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.for_each_segment(offset, data.len(), |frame, at, span| {
            frame.buf[at..at + span.len()].copy_from_slice(&data[span]);
            frame.dirty = true;
        })
    }

    /// Visits the pages overlapping `[offset, offset + len)` in order,
    /// one at a time: makes each resident and calls
    /// `f(frame, offset_in_page, span)`, `span` being the segment's
    /// bytes within the range. A failed fault stops the walk with the
    /// earlier segments done.
    #[inline]
    fn for_each_segment(
        &mut self,
        offset: u64,
        len: usize,
        mut f: impl FnMut(&mut Frame, usize, Range<usize>),
    ) -> io::Result<()> {
        let pb = self.page_bytes as u64;
        let mut done = 0usize;
        while done < len {
            let at = offset + done as u64;
            let in_page = (at % pb) as usize;
            let seg = (self.page_bytes - in_page).min(len - done);
            f(self.resident(at / pb)?, in_page, done..done + seg);
            done += seg;
        }
        Ok(())
    }

    /// Reads `page` into frame `ix`: zeros past the materialized extent,
    /// else the file's bytes through [`read_verified`] (zeros past the
    /// end of the file). An image that never verifies is a spill error
    /// like any other.
    fn fault_in(&mut self, page: u64, ix: usize) -> io::Result<()> {
        let buf = &mut self.frames[ix].buf;
        let mut n = 0;
        if page < self.file_pages {
            let off = page * self.page_bytes as u64;
            let (read, reads) = read_verified(&mut *self.file, off, buf, &mut self.check)?;
            n = read;
            self.io_retries += u64::from(reads - 2);
            self.obs.io_retries.add(u64::from(reads - 2));
        }
        buf[n..].fill(0);
        Ok(())
    }

    /// Writes frame `ix`'s bytes to the file and clears its dirty bit,
    /// retrying transient write errors up to [`WRITE_ATTEMPTS`] times.
    fn write_back(&mut self, ix: usize) -> io::Result<()> {
        let page = self.frames[ix].page;
        let off = page * self.page_bytes as u64;
        let mut attempts = 0usize;
        while let Err(e) = self.file.write_at(off, &self.frames[ix].buf) {
            attempts += 1;
            if attempts >= WRITE_ATTEMPTS {
                return Err(e);
            }
            self.io_retries += 1;
            self.obs.io_retries.inc();
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
    /// range, and the pool is within its cap — after every call, a
    /// failed one included.
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
        assert!(
            self.frames.len() <= self.cap_pages,
            "pool resident {} over cap {}",
            self.frames.len(),
            self.cap_pages
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
    fn a_range_wider_than_the_pool_streams_through_it_within_its_cap() {
        let mut p = pool(2);
        let data: Vec<u8> = (0..320).map(|i| i as u8).collect();
        p.write_range(0, &data).unwrap();
        assert_eq!(p.stats().resident_pages, 2, "{:?}", p.stats());
        p.audit();
        let mut out = vec![0u8; 320];
        p.read_range(0, &mut out).unwrap();
        assert_eq!(out, data);
        let s = p.stats();
        assert_eq!(s.resident_pages, 2, "{s:?}");
        assert!(s.evictions >= 6 && s.write_backs >= 3, "{s:?}");
        p.audit();
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
        p.audit();
    }

    /// Every error exit of the pool's three accessors leaves it within
    /// its cap and its bookkeeping whole: a victim's write-back that
    /// fails in `write_range` / `read_range`, a fault-in that fails
    /// mid-range, and `update_page` whose fault fails.
    #[test]
    fn a_failed_io_leaves_the_pool_within_its_cap() {
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
        let within_cap = |p: &BufferPool, what: &str| {
            let s = p.stats();
            assert!(s.resident_pages <= s.cap_pages, "{what}: {s:?}");
            p.audit();
        };

        // write_range over 4 pages of a 2-page pool: the third page's
        // victim cannot be written back.
        let vfs = FaultVfs::seeded_mem(1, failing);
        let mut p = pool(&vfs, 2);
        vfs.arm(true);
        assert!(p.write_range(0, &[1u8; 256]).is_err());
        within_cap(&p, "write_range");

        // read_range over two dirty resident pages and two fresh ones:
        // the third page's victim is dirty.
        let vfs = FaultVfs::seeded_mem(2, failing);
        let mut p = pool(&vfs, 2);
        p.write_range(0, &[2u8; 128]).unwrap();
        vfs.arm(true);
        assert!(p.read_range(0, &mut [0u8; 256]).is_err());
        within_cap(&p, "read_range");

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
        within_cap(&p, "fault-in mid-range");

        // update_page whose fault fails: the only victim is dirty.
        let vfs = FaultVfs::seeded_mem(4, failing);
        let mut p = pool(&vfs, 1);
        p.write_range(0, &[5u8; 64]).unwrap();
        vfs.arm(true);
        assert!(p.update_page(1, |bytes| bytes[0] = 6).is_err());
        within_cap(&p, "update_page");
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
        p.audit();
    }
}
