//! Fixed-size pages and a buffer pool over the [`crate::vfs`] seam —
//! ROADMAP #1's out-of-core backing store.
//!
//! A [`BufferPool`] caches fixed-size pages (default 4 KiB) of one
//! backing [`VfsFile`] under a configurable memory cap. Callers pin the
//! page range they are about to touch, copy bytes in or out, and unpin;
//! after every unpin the pool evicts back down to its cap with a clock
//! (second-chance) sweep. Clean victims are dropped; dirty victims are
//! written back first.
//!
//! The pool is deliberately single-owner (`&mut self` everywhere);
//! concurrent access is serialized by the owning arena (see
//! `core::store`). Pages are *scratch*, not a recovery root: nothing
//! reads the file after a crash — a boot rebuilds the leaves from
//! snapshot + WAL onto a fresh pool — so write-back needs no ordering
//! against the log (DESIGN S45).

use std::collections::HashMap;
use std::io;

use crate::vfs::VfsFile;

/// Counter snapshot of one buffer pool's activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pin requests satisfied by an already-resident page.
    pub hits: u64,
    /// Pin requests that faulted the page in from the file.
    pub misses: u64,
    /// Frames dropped by the clock sweep.
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

#[derive(Debug)]
struct Frame {
    buf: Box<[u8]>,
    pins: u32,
    referenced: bool,
    dirty: bool,
}

/// Transient spill I/O errors (e.g. injected EIO from a fault
/// harness) are retried this many times before the error propagates
/// and `core::store`'s process-fatal policy applies.
const IO_ATTEMPTS: usize = 8;

/// A clock-eviction buffer pool over one page file.
pub struct BufferPool {
    file: Box<dyn VfsFile + Send>,
    page_bytes: usize,
    cap_pages: usize,
    frames: HashMap<u64, Frame>,
    /// Resident page ids in clock order (`hand` indexes the next
    /// candidate); membership mirrors `frames` exactly.
    clock: Vec<u64>,
    hand: usize,
    /// Pages materialized in the file so far (reads beyond are zeros).
    file_pages: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    write_backs: u64,
    stall_rounds: u64,
    io_retries: u64,
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
            frames: HashMap::new(),
            clock: Vec::new(),
            hand: 0,
            file_pages: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            write_backs: 0,
            stall_rounds: 0,
            io_retries: 0,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            write_backs: self.write_backs,
            stall_rounds: self.stall_rounds,
            io_retries: self.io_retries,
            resident_pages: self.frames.len(),
            pinned_pages: self.frames.values().filter(|f| f.pins > 0).count(),
            dirty_pages: self.frames.values().filter(|f| f.dirty).count(),
            page_bytes: self.page_bytes,
            cap_pages: self.cap_pages,
        }
    }

    /// Pins `page`, faulting it in from the file if absent. Pinned
    /// pages are never evicted; every successful pin must be paired
    /// with an [`BufferPool::unpin`].
    pub fn pin(&mut self, page: u64) -> io::Result<()> {
        if let Some(frame) = self.frames.get_mut(&page) {
            frame.pins += 1;
            frame.referenced = true;
            self.hits += 1;
            return Ok(());
        }
        self.misses += 1;
        let mut buf = vec![0u8; self.page_bytes].into_boxed_slice();
        if page < self.file_pages {
            let off = page * self.page_bytes as u64;
            self.fill(off, &mut buf)?;
            // Double-read defense: a transient read fault can hand
            // back a corrupted copy while the stored bytes are fine.
            // Re-read until two consecutive images agree; persistent
            // disagreement means the medium itself is unstable, which
            // is a spill error like any other.
            let mut check = vec![0u8; self.page_bytes].into_boxed_slice();
            let mut agreed = false;
            for _ in 0..IO_ATTEMPTS {
                self.fill(off, &mut check)?;
                if check == buf {
                    agreed = true;
                    break;
                }
                self.io_retries += 1;
                std::mem::swap(&mut buf, &mut check);
            }
            if !agreed {
                return Err(io::Error::other(format!(
                    "page {page} image unstable after {IO_ATTEMPTS} re-reads"
                )));
            }
        }
        self.frames.insert(
            page,
            Frame {
                buf,
                pins: 1,
                referenced: true,
                dirty: false,
            },
        );
        self.clock.push(page);
        Ok(())
    }

    /// Releases one pin of `page`, then evicts down to the cap.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not resident or not pinned — an unbalanced
    /// unpin is a bookkeeping bug, never valid (pin counts cannot go
    /// negative).
    pub fn unpin(&mut self, page: u64) -> io::Result<()> {
        let frame = self
            .frames
            .get_mut(&page)
            .unwrap_or_else(|| panic!("unpin of non-resident page {page}"));
        assert!(frame.pins > 0, "unpin of unpinned page {page}");
        frame.pins -= 1;
        self.evict_to_cap()
    }

    /// Copies `out.len()` bytes at `offset` within resident page `page`
    /// to `out`. The caller must hold a pin (enforced).
    pub fn read_page(&self, page: u64, offset: usize, out: &mut [u8]) {
        let frame = match self.frames.get(&page) {
            Some(f) => f,
            None => panic!("read of non-resident page {page}"),
        };
        assert!(frame.pins > 0, "read of unpinned page {page}");
        out.copy_from_slice(&frame.buf[offset..offset + out.len()]);
    }

    /// Overwrites `data.len()` bytes at `offset` within resident page
    /// `page`, marking it dirty. The caller must hold a pin (enforced).
    pub fn write_page(&mut self, page: u64, offset: usize, data: &[u8]) {
        let frame = match self.frames.get_mut(&page) {
            Some(f) => f,
            None => panic!("write to non-resident page {page}"),
        };
        assert!(frame.pins > 0, "write to unpinned page {page}");
        frame.buf[offset..offset + data.len()].copy_from_slice(data);
        frame.dirty = true;
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
    /// unpins, and evicts to the cap. Pinning the whole range up front
    /// keeps earlier pages resident while later ones fault in.
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
        for page in first..pinned {
            // Unpin exactly what was pinned, even on a faulted fast exit.
            self.unpin(page)?;
        }
        result
    }

    /// Clock (second-chance) sweep down to the cap. Pinned pages are
    /// skipped; if a full double rotation finds no victim the pool
    /// stays over-committed and counts a stall round.
    fn evict_to_cap(&mut self) -> io::Result<()> {
        let mut scanned = 0usize;
        while self.frames.len() > self.cap_pages && !self.clock.is_empty() {
            if scanned > 2 * self.clock.len() {
                self.stall_rounds += 1;
                return Ok(());
            }
            if self.hand >= self.clock.len() {
                self.hand = 0;
            }
            let page = self.clock[self.hand];
            let (pins, referenced, dirty) = match self.frames.get_mut(&page) {
                Some(f) => (f.pins, f.referenced, f.dirty),
                None => panic!("clock entry for non-resident page {page}"),
            };
            if pins > 0 {
                self.hand = (self.hand + 1) % self.clock.len();
                scanned += 1;
                continue;
            }
            if referenced {
                if let Some(f) = self.frames.get_mut(&page) {
                    f.referenced = false;
                }
                self.hand = (self.hand + 1) % self.clock.len();
                scanned += 1;
                continue;
            }
            if dirty {
                self.write_back(page)?;
            }
            self.frames.remove(&page);
            self.clock.swap_remove(self.hand);
            self.evictions += 1;
            scanned = 0;
        }
        if self.hand >= self.clock.len() {
            self.hand = 0;
        }
        Ok(())
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
                    self.io_retries += 1;
                }
            }
        }
        Ok(())
    }

    /// Writes one resident page's bytes to the file and clears its
    /// dirty bit, retrying transient write errors up to
    /// [`IO_ATTEMPTS`] times.
    fn write_back(&mut self, page: u64) -> io::Result<()> {
        let off = page * self.page_bytes as u64;
        let frame = match self.frames.get_mut(&page) {
            Some(f) => f,
            None => panic!("write-back of non-resident page {page}"),
        };
        let mut attempts = 0usize;
        loop {
            match self.file.write_at(off, &frame.buf) {
                Ok(()) => break,
                Err(e) => {
                    attempts += 1;
                    if attempts >= IO_ATTEMPTS {
                        return Err(e);
                    }
                    self.io_retries += 1;
                }
            }
        }
        frame.dirty = false;
        self.write_backs += 1;
        self.file_pages = self.file_pages.max(page + 1);
        Ok(())
    }

    /// Heap bytes held by the pool (frames + bookkeeping).
    pub fn heap_bytes(&self) -> usize {
        self.frames.len() * self.page_bytes
            + self.frames.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<Frame>())
            + self.clock.capacity() * std::mem::size_of::<u64>()
    }

    /// Audits pool bookkeeping: the clock list mirrors the frame table
    /// exactly (no duplicates, no strays), the hand is in range, and
    /// the pool is within its cap unless pins legitimately hold it over.
    ///
    /// # Panics
    ///
    /// Panics on any violation (test/diagnostic use).
    pub fn audit(&self) {
        assert_eq!(
            self.clock.len(),
            self.frames.len(),
            "clock list and frame table out of step"
        );
        let mut seen = std::collections::HashSet::new();
        for &page in &self.clock {
            assert!(seen.insert(page), "page {page} twice on the clock");
            assert!(
                self.frames.contains_key(&page),
                "clock entry {page} has no frame"
            );
        }
        assert!(
            self.clock.is_empty() || self.hand < self.clock.len(),
            "clock hand out of range"
        );
        let pinned = self.frames.values().filter(|f| f.pins > 0).count();
        assert!(
            self.frames.len() <= self.cap_pages.max(pinned) + self.cap_pages,
            "pool resident {} far over cap {} with only {} pinned pages",
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
        p.frames.get_mut(&0).unwrap().referenced = true;
        p.frames.get_mut(&1).unwrap().referenced = false;
        p.write_range(128, &[3u8; 64]).unwrap();
        let s = p.stats();
        assert_eq!(s.resident_pages, 2);
        assert!(p.frames.contains_key(&0), "referenced page evicted early");
        assert!(
            !p.frames.contains_key(&1),
            "unreferenced page must be the victim"
        );
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
}
