//! Virtual file system seam for every byte of durable IO.
//!
//! The WAL, snapshot persistence, and the CLI used to open `std::fs`
//! files directly, which made disk faults (EIO, ENOSPC, short writes,
//! failed fsync, read-back corruption) an untested path even though the
//! crash sweep proves we survive *process* death at every byte offset.
//! This module is the single chokepoint, and the paged leaf arena's
//! buffer pool (`core::pager`) spills through it too:
//!
//! * [`VfsFile`] — an open file handle: append-oriented `write_all`,
//!   a durability barrier `sync`, `len`, `truncate`, and positional
//!   `read_at`. Implemented for `std::fs::File` (real disk) and
//!   `Vec<u8>` (infallible in-memory sink, used throughout the tests).
//! * [`Vfs`] — the namespace: `open`/`rename`/`remove`/`exists` plus
//!   [`Vfs::write_atomic`], the one way a whole file is written: streamed
//!   into a `.tmp` sibling in [`CHUNK_BYTES`] writes, synced, renamed.
//! * [`read_verified`] — the one way bytes are trusted off a disk: read
//!   twice, accept when two consecutive images agree, within
//!   [`READ_ATTEMPTS`] reads. The pager's fault-in calls it per page;
//!   [`VerifiedReader`] streams a whole file through it a chunk at a
//!   time, so no load or scan holds a whole file.
//! * [`StdVfs`] — thin `std::fs` passthrough, the production default.
//! * [`MemVfs`] — shared in-memory namespace for tests and harnesses.
//! * [`FaultVfs`] — a deterministic fault-injecting *wrapper* around a
//!   [`MemVfs`]. Faults are drawn from a seeded [`DdcRng`] plan, or
//!   planned at given op indices (an explicit list, or a trace's fault
//!   ops as the walk reaches them), and every realized fault is
//!   recorded, so `ddc check disk` writes a failing chaos run as a
//!   trace with its faults inline that replays byte-for-byte and
//!   shrinks like any other.
//! * [`IoError`] / [`RetryPolicy`] — what a failure on this seam means
//!   for the caller's state, and how long a caller keeps retrying a
//!   transient one before it degrades.
//!
//! Fault model (one fault at most per file operation, keyed by a global
//! monotone op counter):
//!
//! | kind          | injected on | effect                                   |
//! |---------------|-------------|------------------------------------------|
//! | `WriteErr`    | `write_all` | EIO, nothing written                     |
//! | `ShortWrite`  | `write_all` | first `keep` bytes land, then EIO (torn) |
//! | `NoSpace`     | `write_all` | ENOSPC, nothing written                  |
//! | `SyncFail`    | `sync`      | bytes landed but the barrier fails       |
//! | `ReadErr`     | `read_at`   | EIO                                      |
//! | `ReadCorrupt` | `read_at`   | one bit flipped in the *returned* copy   |
//!
//! `truncate` draws no fault and counts no op; a [`FaultVfs`] can
//! instead be told to *lose* truncations
//! ([`FaultVfs::lose_truncations`]) — the seeded bug `ddc check disk`
//! must re-find. Namespace operations (`open`/`rename`/`remove`) are
//! deliberately not fault points: the WAL's checkpoint protocol relies
//! on `open(Create)` truncating atomically, and injecting there would
//! only retest the crash sweep's byte-offset coverage.

use crate::growth::GrowthError;
use crate::sync::untracked::{Mutex, MutexGuard};
use crate::sync::{Arc, PoisonError};
use ddc_workload::DdcRng;
/// The injectable fault kinds (see the module docs' table). A trace's
/// [`ddc_workload::CheckOp::Fault`] carries one, so the type lives with
/// the trace format.
pub use ddc_workload::FaultKind;
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::time::Duration;

/// Raw `errno` for ENOSPC on the platforms we target. We match on the
/// raw value because `io::ErrorKind::StorageFull` is not stable on the
/// workspace MSRV (1.75).
pub const ENOSPC: i32 = 28;
/// Raw `errno` for EIO — the generic injected transient fault.
pub const EIO: i32 = 5;

/// True when an IO error means "the device is out of space" — the one
/// error class retrying cannot fix, so callers degrade instead.
pub fn is_no_space(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC)
}

/// Typed durability-path error. The variant tells the caller what the
/// failure means for the cube's state, not just what syscall failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoError {
    /// The operation failed but the cube is unchanged and healthy —
    /// retrying the *call* later may succeed (e.g. a codec rejection,
    /// or a checkpoint that failed before the snapshot rename).
    Transient {
        /// Human-readable cause.
        detail: String,
        /// IO retries burned before giving up on this call.
        retries: u32,
    },
    /// The bounded retry budget was spent without a successful append.
    /// The cube has entered degraded read-only mode.
    Exhausted {
        /// Human-readable cause (the last underlying IO error).
        detail: String,
        /// Retries attempted.
        retries: u32,
        /// True when the final failure was at the sync barrier *and*
        /// the torn-tail cleanup also failed: the record's durability
        /// is ambiguous (the classic commit window), so recovery may
        /// legitimately replay this one unacknowledged operation.
        indeterminate: bool,
    },
    /// The cube is in degraded read-only mode (ENOSPC or a previous
    /// exhaustion); mutations are rejected without touching the log.
    ReadOnly {
        /// Why the cube degraded.
        reason: String,
    },
    /// The point lies too far out for the cube to grow to; nothing was
    /// logged or applied and the cube is healthy. No retry can succeed.
    OutOfRange(GrowthError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Transient { detail, retries } => {
                write!(f, "transient IO failure ({retries} retries): {detail}")
            }
            IoError::Exhausted {
                detail,
                retries,
                indeterminate,
            } => write!(
                f,
                "IO retry budget exhausted after {retries} retries{}: {detail}",
                if *indeterminate {
                    " (durability of the last record is indeterminate)"
                } else {
                    ""
                }
            ),
            IoError::ReadOnly { reason } => {
                write!(f, "durable store is read-only (degraded): {reason}")
            }
            IoError::OutOfRange(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IoError {}

/// Bounded-retry policy for transient disk faults on the append path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt before declaring exhaustion.
    pub max_retries: u32,
    /// Backoff before the first retry; doubled each subsequent retry.
    pub base_delay: Duration,
    /// Ceiling on the per-retry backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Default budget with zero backoff — for harnesses and tests where
    /// wall-clock sleeps only slow the sweep down.
    pub fn instant() -> Self {
        Self {
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Backoff before retry number `retry` (1-based): `base · 2^(r-1)`,
    /// capped at [`RetryPolicy::max_delay`].
    pub fn backoff(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let mult = 1u32 << retry.saturating_sub(1).min(16);
        self.base_delay.saturating_mul(mult).min(self.max_delay)
    }
}

/// How [`Vfs::open`] should treat an existing (or missing) file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Open an existing file for reading only; error if missing.
    Read,
    /// Create (or truncate to empty) and open for read + write.
    Create,
    /// Open for read + append, creating the file if missing.
    Append,
}

/// An open file handle. Writes are append-oriented (the WAL is a log);
/// reads are positional so recovery never depends on a shared cursor.
///
/// `sync` is the durability barrier: an acked update is only claimed
/// durable once `sync` has returned `Ok`. Implementations define its
/// strength — `std::fs::File` issues `sync_data`, `Vec<u8>` is a no-op.
pub trait VfsFile: Send {
    /// Append `buf` at the end of the file.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Durability barrier for everything written so far.
    fn sync(&mut self) -> io::Result<()>;
    /// Current length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// True when the file is empty.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Truncate (or zero-extend) the file to exactly `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Read up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short only at end-of-file).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Write `buf` at `offset`, zero-extending the file if the write
    /// lands past the current end. Positional writes exist for the page
    /// file of the buffer pool; append-only log sinks may not support
    /// them, so the default refuses.
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let _ = (offset, buf);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "positional writes not supported by this file",
        ))
    }
}

/// A file namespace: the only way durable code opens, renames, or
/// removes files. Paths are plain strings interpreted by the
/// implementation (OS paths for [`StdVfs`], map keys for [`MemVfs`]).
pub trait Vfs {
    /// The file handle type this namespace produces.
    type File: VfsFile;
    /// Open `path` in `mode`.
    fn open(&self, path: &str, mode: OpenMode) -> io::Result<Self::File>;
    /// Atomically rename `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Remove `path`.
    fn remove(&self, path: &str) -> io::Result<()>;
    /// True when `path` exists.
    fn exists(&self, path: &str) -> io::Result<bool>;
    /// Writes `path` atomically from what `write` streams into it: whole
    /// [`CHUNK_BYTES`] chunks go to a `.tmp` sibling as they fill, the
    /// last one when `write` returns, then a sync and a rename over the
    /// target. Readers never observe a partially written file; a failure
    /// removes the `.tmp`. A file no larger than one chunk is one write.
    fn write_atomic<T>(
        &self,
        path: &str,
        write: impl FnOnce(&mut dyn Write) -> io::Result<T>,
    ) -> io::Result<T> {
        let tmp = format!("{path}.tmp");
        let mut out = ChunkWriter {
            file: self.open(&tmp, OpenMode::Create)?,
            chunk: Vec::with_capacity(CHUNK_BYTES),
        };
        let written = write(&mut out).and_then(|t| {
            out.file.write_all(&out.chunk)?;
            out.file.sync().map(|()| t)
        });
        drop(out);
        if written.is_err() {
            let _ = self.remove(&tmp);
        }
        written.and_then(|t| self.rename(&tmp, path).map(|()| t))
    }
    /// Create `path` as scratch space: read + write, empty, and owed to
    /// nobody once the handle is dropped. A namespace that can drops
    /// the name right away, so the bytes go with the handle.
    fn open_scratch(&self, path: &str) -> io::Result<Self::File> {
        self.open(path, OpenMode::Create)
    }
}

// ---------------------------------------------------------------------------
// Standard library implementations
// ---------------------------------------------------------------------------

/// Thin passthrough to `std::fs` — the production default.
#[derive(Copy, Clone, Debug, Default)]
pub struct StdVfs;

impl Vfs for StdVfs {
    type File = std::fs::File;

    fn open(&self, path: &str, mode: OpenMode) -> io::Result<std::fs::File> {
        let mut opts = std::fs::OpenOptions::new();
        match mode {
            OpenMode::Read => opts.read(true),
            OpenMode::Create => opts.read(true).write(true).create(true).truncate(true),
            OpenMode::Append => opts.read(true).write(true).create(true),
        };
        let mut f = opts.open(path)?;
        if mode == OpenMode::Append {
            f.seek(SeekFrom::End(0))?;
        }
        Ok(f)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &str) -> io::Result<bool> {
        std::path::Path::new(path).try_exists()
    }

    fn open_scratch(&self, path: &str) -> io::Result<std::fs::File> {
        let file = self.open(path, OpenMode::Create)?;
        // Unlink immediately: the open handle keeps the file alive, the
        // name disappears, and the OS reclaims the space on process exit
        // even after a crash. Best-effort — on filesystems that refuse,
        // the file simply remains until deleted.
        self.remove(path).ok();
        Ok(file)
    }
}

impl VfsFile for std::fs::File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.seek(SeekFrom::End(0))?;
        Write::write_all(self, buf)
    }

    /// Real durability: `fdatasync` the bytes to media. The WAL issues
    /// this once per append frame before acking.
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }

    /// Positional (`pread`): one system call, and the cursor `write_all`
    /// appends at is left alone.
    #[cfg(unix)]
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(self, buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.seek(SeekFrom::Start(offset))?;
        io::Read::read(self, buf)
    }

    /// Positional (`pwrite`); a write past EOF is a sparse extension.
    #[cfg(unix)]
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(self, buf, offset)
    }

    #[cfg(not(unix))]
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        Write::write_all(self, buf)
    }
}

/// Infallible in-memory sink: keeps every existing
/// `DurableCube<_, Vec<u8>>` test and harness site compiling unchanged.
impl VfsFile for Vec<u8> {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(Vec::len(self) as u64)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "length out of range"))?;
        self.resize(len, 0);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut rest =
            usize::try_from(offset).map_or(&[][..], |at| self.get(at..).unwrap_or_default());
        rest.read(buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "offset out of range"))?;
        let end = start
            .checked_add(buf.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "write out of range"))?;
        if Vec::len(self) < end {
            self.resize(end, 0);
        }
        self[start..end].copy_from_slice(buf);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// In-memory namespace
// ---------------------------------------------------------------------------

type MemStore = Arc<Mutex<HashMap<String, Vec<u8>>>>;

fn lock_store(store: &MemStore) -> MutexGuard<'_, HashMap<String, Vec<u8>>> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared in-memory namespace. Clones share one store, so a harness can
/// hand a clone to the system under test and inspect surviving bytes
/// after a simulated crash.
#[derive(Clone, Debug, Default)]
pub struct MemVfs {
    files: MemStore,
}

impl MemVfs {
    /// Empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the bytes currently stored at `path`, if any.
    pub fn contents(&self, path: &str) -> Option<Vec<u8>> {
        lock_store(&self.files).get(path).cloned()
    }
}

/// Handle into a [`MemVfs`] entry.
pub struct MemFile {
    files: MemStore,
    path: String,
}

impl MemFile {
    fn with<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> io::Result<R> {
        let mut files = lock_store(&self.files);
        match files.get_mut(&self.path) {
            Some(bytes) => Ok(f(bytes)),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} removed while open", self.path),
            )),
        }
    }
}

impl VfsFile for MemFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.with(|bytes| bytes.extend_from_slice(buf))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.with(|_| ())
    }

    fn len(&mut self) -> io::Result<u64> {
        self.with(|bytes| Vec::len(bytes) as u64)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.with(|bytes| VfsFile::truncate(bytes, len))?
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.with(|bytes| VfsFile::read_at(bytes, offset, buf))?
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.with(|bytes| VfsFile::write_at(bytes, offset, buf))?
    }
}

impl Vfs for MemVfs {
    type File = MemFile;

    fn open(&self, path: &str, mode: OpenMode) -> io::Result<MemFile> {
        let mut files = lock_store(&self.files);
        match mode {
            OpenMode::Read if !files.contains_key(path) => {
                return Err(io::Error::new(io::ErrorKind::NotFound, path.to_string()))
            }
            OpenMode::Read => {}
            OpenMode::Create => _ = files.insert(path.to_string(), Vec::new()),
            OpenMode::Append => _ = files.entry(path.to_string()).or_default(),
        }
        drop(files);
        Ok(MemFile {
            files: Arc::clone(&self.files),
            path: path.to_string(),
        })
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = lock_store(&self.files);
        match files.remove(from) {
            Some(bytes) => {
                files.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, from.to_string())),
        }
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let mut files = lock_store(&self.files);
        match files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, path.to_string())),
        }
    }

    fn exists(&self, path: &str) -> io::Result<bool> {
        Ok(lock_store(&self.files).contains_key(path))
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One concrete injected fault, keyed by the global file-op index at
/// which it fired. Serialized realized faults are the replayable /
/// shrinkable unit the chaos sweep works with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// Global monotone file-operation index (see [`FaultVfs::ops`]).
    pub op: u64,
    /// What happens at that op.
    pub kind: FaultKind,
}

/// Per-operation fault probabilities for a seeded plan. At most one
/// fault fires per file op; probabilities for the kinds applicable to
/// that op are stacked cumulatively.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultProbs {
    /// P(EIO on write).
    pub write_err: f64,
    /// P(torn short write).
    pub short_write: f64,
    /// P(ENOSPC on write).
    pub no_space: f64,
    /// P(failed sync barrier).
    pub sync_fail: f64,
    /// P(EIO on read).
    pub read_err: f64,
    /// P(bit flip in read-back).
    pub read_corrupt: f64,
}

impl FaultProbs {
    /// No faults at all.
    pub const fn none() -> Self {
        Self {
            write_err: 0.0,
            short_write: 0.0,
            no_space: 0.0,
            sync_fail: 0.0,
            read_err: 0.0,
            read_corrupt: 0.0,
        }
    }

    /// The same probability `p` for every fault kind.
    pub const fn uniform(p: f64) -> Self {
        Self {
            write_err: p,
            short_write: p,
            no_space: p,
            sync_fail: p,
            read_err: p,
            read_corrupt: p,
        }
    }
}

struct FaultState {
    ops: u64,
    armed: bool,
    /// `truncate` reports success without truncating.
    lose_truncations: bool,
    /// A seeded plan's stream: one draw per op.
    seeded: Option<(DdcRng, FaultProbs)>,
    /// Faults planned at given op indices; they take precedence over a
    /// seeded draw.
    planned: HashMap<u64, FaultKind>,
    realized: Vec<PlannedFault>,
    /// Path of the file each realized fault fired on, parallel to
    /// `realized` (kept out of [`PlannedFault`] so explicit replay
    /// plans stay path-independent).
    realized_paths: Vec<String>,
}

/// The three fault-eligible operation classes; used to pick which
/// probabilities apply at a given op.
enum OpClass {
    Write { len: usize },
    Sync,
    Read { len: usize },
}

impl FaultState {
    /// Advance the op counter and decide whether this op faults. The
    /// counter always advances — armed or not — so explicit replays see
    /// the same indices as the seeded recording run.
    fn next_fault(&mut self, class: OpClass, path: &str) -> Option<FaultKind> {
        let op = self.ops;
        self.ops += 1;
        // Seeded plans consume one RNG draw per op regardless of arming
        // so the stream stays aligned with the op counter.
        let drawn = self.seeded.as_mut().and_then(|(rng, probs)| {
            let roll = rng.next_f64();
            let aux = rng.next_u64();
            Self::pick(*probs, &class, roll, aux)
        });
        // A planned kind fires as recorded: a torn length or a flipped
        // bit past this op's extent is clamped where it fires.
        let kind = self.planned.get(&op).copied().or(drawn)?;
        if !self.armed || !Self::applies(kind, &class) {
            return None;
        }
        self.realized.push(PlannedFault { op, kind });
        self.realized_paths.push(path.to_string());
        Some(kind)
    }

    fn applies(kind: FaultKind, class: &OpClass) -> bool {
        matches!(
            (kind, class),
            (
                FaultKind::WriteErr | FaultKind::ShortWrite { .. } | FaultKind::NoSpace,
                OpClass::Write { .. }
            ) | (FaultKind::SyncFail, OpClass::Sync)
                | (
                    FaultKind::ReadErr | FaultKind::ReadCorrupt { .. },
                    OpClass::Read { .. }
                )
        )
    }

    /// Stack the probabilities applicable to `class` and pick at most
    /// one kind from a single uniform roll; `aux` parameterizes the
    /// torn length / flipped bit.
    fn pick(probs: FaultProbs, class: &OpClass, roll: f64, aux: u64) -> Option<FaultKind> {
        let mut acc = 0.0;
        let mut hit = |p: f64| {
            acc += p;
            roll < acc
        };
        match class {
            OpClass::Write { len } => {
                if hit(probs.write_err) {
                    Some(FaultKind::WriteErr)
                } else if hit(probs.short_write) {
                    Some(FaultKind::ShortWrite {
                        keep: if *len == 0 {
                            0
                        } else {
                            (aux % *len as u64) as u32
                        },
                    })
                } else if hit(probs.no_space) {
                    Some(FaultKind::NoSpace)
                } else {
                    None
                }
            }
            OpClass::Sync => hit(probs.sync_fail).then_some(FaultKind::SyncFail),
            OpClass::Read { len } => {
                if hit(probs.read_err) {
                    Some(FaultKind::ReadErr)
                } else if hit(probs.read_corrupt) && *len > 0 {
                    Some(FaultKind::ReadCorrupt {
                        bit: (aux % (*len as u64 * 8)) as u32,
                    })
                } else {
                    None
                }
            }
        }
    }
}

/// Deterministic fault-injecting wrapper around a [`MemVfs`].
///
/// Construction starts *disarmed*: boot-time setup runs fault-free,
/// then the harness calls [`FaultVfs::arm`] before driving the workload
/// and disarms again for the final pristine-recovery check. Clones
/// share the same namespace, fault state and op counter.
#[derive(Clone)]
pub struct FaultVfs {
    inner: MemVfs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// Seeded fault plan over a fresh in-memory namespace — the chaos
    /// sweep's standard configuration. Faults are drawn per op from a
    /// [`DdcRng`] seeded with `seed`: deterministic for a fixed seed
    /// *and* a fixed operation sequence.
    pub fn seeded_mem(seed: u64, probs: FaultProbs) -> Self {
        Self::with_plan(Some((DdcRng::seed_from_u64(seed), probs)), Vec::new())
    }

    /// Explicit fault plan over a fresh in-memory namespace — the
    /// replay configuration: exactly the listed faults fire, at their
    /// recorded op indices, and any [`FaultVfs::plan`]ned later.
    pub fn explicit_mem(faults: Vec<PlannedFault>) -> Self {
        Self::with_plan(None, faults)
    }

    fn with_plan(seeded: Option<(DdcRng, FaultProbs)>, faults: Vec<PlannedFault>) -> Self {
        Self {
            inner: MemVfs::new(),
            state: Arc::new(Mutex::new(FaultState {
                ops: 0,
                armed: false,
                lose_truncations: false,
                seeded,
                planned: faults.into_iter().map(|f| (f.op, f.kind)).collect(),
                realized: Vec::new(),
                realized_paths: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm or disarm fault injection. The op counter keeps advancing
    /// while disarmed so faults recorded against an armed window
    /// replay at the same indices.
    pub fn arm(&self, on: bool) {
        self.lock().armed = on;
    }

    /// Makes every `truncate` on this namespace's files report success
    /// without truncating (a disk that drops the request), or stops
    /// doing so; returns the previous setting. This is the seeded bug of
    /// `ddc check disk`: with the WAL's tail restoration lost, a torn or
    /// synced-but-unacked frame stays under the next append.
    pub fn lose_truncations(&self, on: bool) -> bool {
        std::mem::replace(&mut self.lock().lose_truncations, on)
    }

    /// Global file-operation count so far.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Plans `kind` at the `after`-th file operation from now (0 = the
    /// next one): a trace's [`ddc_workload::CheckOp::Fault`].
    pub fn plan(&self, after: u64, kind: FaultKind) {
        let mut state = self.lock();
        let op = state.ops + after;
        state.planned.insert(op, kind);
    }

    /// Every fault that actually fired, in firing order — feed back via
    /// [`FaultVfs::explicit_mem`] for a deterministic replay.
    pub fn realized(&self) -> Vec<PlannedFault> {
        self.lock().realized.clone()
    }

    /// Path of the file each realized fault fired on, in the same
    /// order as [`FaultVfs::realized`] — lets a harness assert that a
    /// fault landed on a specific file (e.g. a pager spill).
    pub fn realized_paths(&self) -> Vec<String> {
        self.lock().realized_paths.clone()
    }

    /// The wrapped namespace (e.g. to inspect surviving bytes).
    pub fn inner(&self) -> &MemVfs {
        &self.inner
    }
}

/// File handle produced by [`FaultVfs`]; consults the shared fault
/// state on every operation.
pub struct FaultFile {
    inner: MemFile,
    path: String,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    fn state(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fault_for(&self, class: OpClass) -> Option<FaultKind> {
        self.state().next_fault(class, &self.path)
    }

    /// One write — an append or a positional write, through `write` —
    /// under the write-fault budget: a short write leaves a torn prefix.
    fn faulted_write(
        &mut self,
        buf: &[u8],
        write: impl Fn(&mut MemFile, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.fault_for(OpClass::Write { len: buf.len() }) {
            Some(FaultKind::WriteErr) => Err(eio("write failed")),
            Some(FaultKind::ShortWrite { keep }) => {
                let keep = (keep as usize).min(buf.len());
                write(&mut self.inner, &buf[..keep])?;
                Err(eio("short write"))
            }
            Some(FaultKind::NoSpace) => Err(io::Error::from_raw_os_error(ENOSPC)),
            _ => write(&mut self.inner, buf),
        }
    }
}

fn eio(detail: &str) -> io::Error {
    io::Error::other(format!(
        "{detail} (injected EIO: {})",
        io::Error::from_raw_os_error(EIO)
    ))
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.faulted_write(buf, |file, bytes| file.write_all(bytes))
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.fault_for(OpClass::Sync) {
            Some(FaultKind::SyncFail) => Err(eio("sync failed")),
            _ => self.inner.sync(),
        }
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if self.state().lose_truncations {
            return Ok(());
        }
        self.inner.truncate(len)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        // Probe the real extent first so the fault draw sees how many
        // bytes this read can actually return.
        let avail = self.inner.len()?.saturating_sub(offset);
        let len = (avail as usize).min(buf.len());
        match self.fault_for(OpClass::Read { len }) {
            Some(FaultKind::ReadErr) => Err(eio("read failed")),
            Some(FaultKind::ReadCorrupt { bit }) => {
                let n = self.inner.read_at(offset, buf)?;
                if n > 0 {
                    let bit = (bit as usize) % (n * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(n)
            }
            _ => self.inner.read_at(offset, buf),
        }
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        // A short positional write leaves a torn page prefix behind.
        self.faulted_write(buf, |file, bytes| file.write_at(offset, bytes))
    }
}

impl Vfs for FaultVfs {
    type File = FaultFile;

    fn open(&self, path: &str, mode: OpenMode) -> io::Result<Self::File> {
        let inner = self.inner.open(path, mode)?;
        Ok(FaultFile {
            inner,
            path: path.to_string(),
            state: Arc::clone(&self.state),
        })
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn exists(&self, path: &str) -> io::Result<bool> {
        self.inner.exists(path)
    }
}

// ---------------------------------------------------------------------------
// Streaming: one verified read, one chunked write
// ---------------------------------------------------------------------------

/// Reads one [`read_verified`] call may spend. Every read of an image
/// spends one, failed or not, and two consecutive images that agree end
/// the call. The one read budget: boot, `ddc wal` and the pager's
/// fault-in all read through it ([`RetryPolicy`] governs appends only).
pub const READ_ATTEMPTS: u32 = 8;

/// Bytes a [`VerifiedReader`] verifies at a time and a
/// [`Vfs::write_atomic`] writer hands the file at a time.
pub const CHUNK_BYTES: usize = 8 << 10;

/// Reads `buf.len()` bytes at `offset` (fewer only at the end of the
/// file) under the double-read rule: a transient fault can hand back a
/// corrupted copy while the stored bytes are fine, so the range is read
/// again into `check` until two consecutive images agree. A failed read
/// breaks the chain. Returns the image's length and the reads it took;
/// after [`READ_ATTEMPTS`] reads without agreement, the last read error
/// (or `InvalidData`, if every read succeeded and none agreed).
///
/// # Panics
///
/// Panics if `check` is shorter than `buf`.
pub fn read_verified<F: VfsFile + ?Sized>(
    file: &mut F,
    offset: u64,
    buf: &mut [u8],
    check: &mut [u8],
) -> io::Result<(usize, u32)> {
    let check = &mut check[..buf.len()];
    // The length of the last good image, which `buf` holds.
    let (mut held, mut failed) = (None, None);
    for reads in 1..=READ_ATTEMPTS {
        let image = if held.is_some() {
            &mut *check
        } else {
            &mut *buf
        };
        match read_image(file, offset, image) {
            Err(e) => (held, failed) = (None, Some(e)),
            Ok(n) if held == Some(n) && buf[..n] == check[..n] => return Ok((n, reads)),
            Ok(n) if held.is_some() => {
                buf[..n].copy_from_slice(&check[..n]);
                held = Some(n);
            }
            Ok(n) => held = Some(n),
        }
    }
    Err(failed.unwrap_or_else(|| {
        let why = format!("reads at byte {offset} never agreed in {READ_ATTEMPTS} attempts");
        io::Error::new(io::ErrorKind::InvalidData, why)
    }))
}

/// One image: `buf` filled from `offset`, short only at the end of the
/// file.
fn read_image<F: VfsFile + ?Sized>(file: &mut F, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read_at(offset + filled as u64, &mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// A file streamed through [`read_verified`] one [`CHUNK_BYTES`] chunk
/// at a time, up to the length it had when opened: the [`Read`] every
/// durable load and log scan takes its bytes from. The first chunk is
/// read on open, so a boot that opens its snapshot and its log reads
/// both before it decodes either.
pub struct VerifiedReader<F> {
    file: F,
    len: u64,
    /// File offset just past `chunk`, and the bytes of it handed out.
    next: u64,
    at: usize,
    chunk: Vec<u8>,
    check: Vec<u8>,
}

impl<F: VfsFile> VerifiedReader<F> {
    /// Opens `path` for reading and verifies its first chunk.
    pub fn open<V: Vfs<File = F>>(vfs: &V, path: &str) -> io::Result<Self> {
        let mut file = vfs.open(path, OpenMode::Read)?;
        let len = file.len()?;
        let check = vec![0; CHUNK_BYTES];
        let mut reader = Self {
            file,
            len,
            next: 0,
            at: 0,
            chunk: Vec::new(),
            check,
        };
        reader.refill()?;
        Ok(reader)
    }

    /// The file's length when it was opened (where reading stops).
    pub fn file_len(&self) -> u64 {
        self.len
    }

    fn refill(&mut self) -> io::Result<()> {
        let want = (self.len - self.next).min(CHUNK_BYTES as u64);
        self.chunk.resize(want as usize, 0);
        let (n, _) = read_verified(&mut self.file, self.next, &mut self.chunk, &mut self.check)?;
        self.chunk.truncate(n);
        (self.next, self.at) = (self.next + n as u64, 0);
        Ok(())
    }
}

impl<F: VfsFile> Read for VerifiedReader<F> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.at == self.chunk.len() && self.next < self.len {
            self.refill()?;
        }
        let n = (&self.chunk[self.at..]).read(out)?;
        self.at += n;
        Ok(n)
    }
}

/// The writer [`Vfs::write_atomic`] hands out: it passes the file whole
/// chunks, and `write_atomic` the last one.
struct ChunkWriter<F> {
    file: F,
    chunk: Vec<u8>,
}

impl<F: VfsFile> Write for ChunkWriter<F> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.chunk.len() == CHUNK_BYTES {
            self.flush()?;
        }
        let n = data.len().min(CHUNK_BYTES - self.chunk.len());
        self.chunk.extend_from_slice(&data[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.write_all(&self.chunk)?;
        self.chunk.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `path`'s bytes as a [`VerifiedReader`] streams them.
    fn read_through<V: Vfs>(vfs: &V, path: &str) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        VerifiedReader::open(vfs, path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn put<V: Vfs>(vfs: &V, path: &str, bytes: &[u8]) {
        vfs.write_atomic(path, |w| w.write_all(bytes)).unwrap();
    }

    #[test]
    fn mem_vfs_round_trips_and_renames() {
        let vfs = MemVfs::new();
        put(&vfs, "a", b"hello");
        assert_eq!(read_through(&vfs, "a").unwrap(), b"hello");
        assert!(vfs.exists("a").unwrap());
        assert!(!vfs.exists("a.tmp").unwrap());
        vfs.rename("a", "b").unwrap();
        assert!(!vfs.exists("a").unwrap());
        assert_eq!(read_through(&vfs, "b").unwrap(), b"hello");
        let mut f = vfs.open("b", OpenMode::Append).unwrap();
        f.write_all(b" world").unwrap();
        f.sync().unwrap();
        assert_eq!(read_through(&vfs, "b").unwrap(), b"hello world");
        f.truncate(5).unwrap();
        assert_eq!(vfs.contents("b").unwrap(), b"hello");
        vfs.remove("b").unwrap();
        assert!(read_through(&vfs, "b").is_err());
    }

    #[test]
    fn vec_file_matches_mem_semantics() {
        let mut v: Vec<u8> = Vec::new();
        VfsFile::write_all(&mut v, b"abcdef").unwrap();
        assert_eq!(VfsFile::len(&mut v).unwrap(), 6);
        let mut buf = [0u8; 4];
        assert_eq!(VfsFile::read_at(&mut v, 2, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"cdef");
        VfsFile::truncate(&mut v, 3).unwrap();
        assert_eq!(v, b"abc");
        VfsFile::truncate(&mut v, 5).unwrap();
        assert_eq!(v, b"abc\0\0");
    }

    #[test]
    fn std_vfs_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("ddc_vfs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.bin");
        let path = path.to_str().unwrap();
        let vfs = StdVfs;
        put(&vfs, path, b"0123456789");
        let mut f = vfs.open(path, OpenMode::Append).unwrap();
        VfsFile::write_all(&mut f, b"ab").unwrap();
        VfsFile::sync(&mut f).unwrap();
        assert_eq!(VfsFile::len(&mut f).unwrap(), 12);
        let mut buf = [0u8; 4];
        assert_eq!(VfsFile::read_at(&mut f, 8, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"89ab");
        VfsFile::truncate(&mut f, 10).unwrap();
        assert_eq!(read_through(&vfs, path).unwrap(), b"0123456789");
        vfs.remove(path).unwrap();
        assert!(!vfs.exists(path).unwrap());
    }

    #[test]
    fn explicit_faults_fire_at_their_op_index_and_are_recorded() {
        let vfs = FaultVfs::explicit_mem(vec![
            PlannedFault {
                op: 1,
                kind: FaultKind::ShortWrite { keep: 2 },
            },
            PlannedFault {
                op: 3,
                kind: FaultKind::SyncFail,
            },
        ]);
        vfs.arm(true);
        let mut f = vfs.open("x", OpenMode::Create).unwrap();
        f.write_all(b"aaaa").unwrap(); // op 0: clean
        let err = f.write_all(b"bbbb").unwrap_err(); // op 1: torn after 2 bytes
        assert!(err.to_string().contains("short write"), "{err}");
        f.write_all(b"cc").unwrap(); // op 2: clean
        assert!(f.sync().is_err()); // op 3: failed barrier
        assert_eq!(vfs.inner().contents("x").unwrap(), b"aaaabbcc");
        assert_eq!(vfs.realized().len(), 2);
        assert_eq!(vfs.ops(), 4);
    }

    #[test]
    fn disarmed_faults_do_not_fire_but_ops_still_count() {
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: 0,
            kind: FaultKind::WriteErr,
        }]);
        let mut f = vfs.open("x", OpenMode::Create).unwrap();
        f.write_all(b"safe").unwrap(); // op 0, disarmed: no fault
        assert_eq!(vfs.ops(), 1);
        assert!(vfs.realized().is_empty());
    }

    #[test]
    fn seeded_plan_replays_identically_through_explicit_schedule() {
        let run = |vfs: FaultVfs| {
            vfs.arm(true);
            let mut f = vfs.open("x", OpenMode::Create).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..50u8 {
                outcomes.push(f.write_all(&[i; 16]).is_ok());
                outcomes.push(f.sync().is_ok());
            }
            (outcomes, vfs.inner().contents("x"), vfs.realized())
        };
        let (outcomes, bytes, realized) = run(FaultVfs::seeded_mem(9, FaultProbs::uniform(0.1)));
        assert!(
            outcomes.iter().any(|ok| !ok),
            "seed 9 should inject something"
        );
        let (outcomes2, bytes2, realized2) = run(FaultVfs::explicit_mem(realized.clone()));
        assert_eq!(outcomes, outcomes2);
        assert_eq!(bytes, bytes2);
        assert_eq!(realized, realized2);
    }

    #[test]
    fn read_corrupt_is_transient_and_read_verified_defeats_it() {
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: 2, // ops 0,1 are write+sync below; op 2 is the first read
            kind: FaultKind::ReadCorrupt { bit: 5 },
        }]);
        vfs.arm(true);
        let mut f = vfs.open("x", OpenMode::Create).unwrap();
        f.write_all(b"payload").unwrap();
        f.sync().unwrap();
        let mut corrupted = [0u8; 7];
        assert_eq!(f.read_at(0, &mut corrupted).unwrap(), 7);
        assert_ne!(&corrupted, b"payload");
        assert_eq!(
            vfs.inner().contents("x").unwrap(),
            b"payload",
            "store untouched"
        );
        // The flip lands on the first image: three reads, two that agree.
        let faults = vec![PlannedFault {
            op: 0,
            kind: FaultKind::ReadCorrupt { bit: 5 },
        }];
        let vfs = FaultVfs::explicit_mem(faults);
        put(vfs.inner(), "x", b"payload");
        vfs.arm(true);
        let (mut buf, mut check) = ([0u8; 16], [0u8; 16]);
        let mut f = vfs.open("x", OpenMode::Read).unwrap();
        let read = read_verified(&mut f, 0, &mut buf, &mut check).unwrap();
        assert_eq!((read, &buf[..7]), ((7, 3), &b"payload"[..]));
        assert_eq!(vfs.realized().len(), 1);
    }

    /// Every read spends one attempt, a failed read breaks the chain,
    /// and a budget spent without two agreeing images is an error.
    #[test]
    fn read_verified_spends_one_attempt_per_read() {
        let at = |ops: &[u64], kind: FaultKind| {
            let faults = ops.iter().map(|&op| PlannedFault { op, kind }).collect();
            let vfs = FaultVfs::explicit_mem(faults);
            put(vfs.inner(), "x", b"abcdef");
            vfs.arm(true);
            let mut f = vfs.open("x", OpenMode::Read).unwrap();
            let (mut buf, mut check) = ([0u8; 6], [0u8; 6]);
            let read = read_verified(&mut f, 0, &mut buf, &mut check);
            (read.map(|(n, reads)| (n, reads, buf)), vfs.ops())
        };
        // A good image, a failed read, then two that agree: four reads.
        let (read, ops) = at(&[1], FaultKind::ReadErr);
        assert_eq!((read.unwrap(), ops), ((6, 4, *b"abcdef"), 4));
        let every = (0..u64::from(READ_ATTEMPTS)).collect::<Vec<_>>();
        let (read, ops) = at(&every, FaultKind::ReadErr);
        assert!(read.unwrap_err().to_string().contains("read failed"));
        assert_eq!(ops, u64::from(READ_ATTEMPTS));
        // Every other image flipped: no two consecutive ones agree.
        let odd: Vec<u64> = every.iter().copied().filter(|op| op % 2 == 1).collect();
        let (read, ops) = at(&odd, FaultKind::ReadCorrupt { bit: 0 });
        assert_eq!(read.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(ops, u64::from(READ_ATTEMPTS));
    }

    /// A file larger than a chunk streams out whole through a verified
    /// reader and writes in whole chunks, the last one short.
    #[test]
    fn a_file_of_several_chunks_streams_both_ways() {
        let bytes: Vec<u8> = (0..CHUNK_BYTES * 3 + 17).map(|i| (i * 7) as u8).collect();
        let vfs = FaultVfs::explicit_mem(Vec::new());
        let written = vfs.write_atomic("x", |w| {
            for piece in bytes.chunks(1000) {
                w.write_all(piece)?;
            }
            Ok(bytes.len())
        });
        assert_eq!(written.unwrap(), bytes.len());
        // Four writes and a sync; then two reads per chunk.
        assert_eq!(vfs.ops(), 5);
        let mut reader = VerifiedReader::open(&vfs, "x").unwrap();
        assert_eq!(reader.file_len(), bytes.len() as u64);
        let mut back = Vec::new();
        reader.read_to_end(&mut back).unwrap();
        assert_eq!(back, bytes);
        assert_eq!(vfs.ops(), 5 + 2 * 4);
        assert!(!vfs.exists("x.tmp").unwrap());
    }

    /// A failed streamed write leaves the target as it was and no tmp.
    #[test]
    fn a_failed_atomic_write_leaves_the_old_file() {
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: 1,
            kind: FaultKind::WriteErr,
        }]);
        put(vfs.inner(), "x", b"old");
        vfs.arm(true);
        let big = vec![1u8; CHUNK_BYTES * 2 + 1];
        assert!(vfs.write_atomic("x", |w| w.write_all(&big)).is_err());
        assert_eq!(vfs.inner().contents("x").unwrap(), b"old");
        assert!(!vfs.exists("x.tmp").unwrap());
    }

    #[test]
    fn no_space_is_classified_for_degradation() {
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: 0,
            kind: FaultKind::NoSpace,
        }]);
        vfs.arm(true);
        let mut f = vfs.open("x", OpenMode::Create).unwrap();
        let err = f.write_all(b"zz").unwrap_err();
        assert!(is_no_space(&err));
        assert_eq!(vfs.inner().contents("x").unwrap(), b"");
    }
}
