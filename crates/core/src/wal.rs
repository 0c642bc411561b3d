//! Write-ahead logging and crash recovery (the durability layer).
//!
//! The paper's headline property — the cube stays *updatable in place*
//! (§4–§6) — is worthless in a serving deployment if a process kill
//! loses every queued update. This module makes the update path
//! crash-safe with the classic two-piece protocol:
//!
//! 1. **Snapshot** — a point-in-time image written by [`crate::persist`]
//!    (`save`/`load`), taken at checkpoints.
//! 2. **Write-ahead log** — every mutation is appended to a checksummed,
//!    length-prefixed log *and flushed* before it is acknowledged and
//!    applied in memory.
//!
//! Recovery loads the last good snapshot and replays the log,
//! **truncating at the first corrupt or partial record** instead of
//! erroring — a torn tail is the expected signature of a kill mid-write,
//! not a reason to refuse service. The invariant proven by the
//! `ddc check crash` sweep (see `ddc-check`): for a kill at *any* byte
//! offset, the recovered state equals exactly the acknowledged prefix of
//! operations — no acked write is lost, no unacked write is resurrected.
//!
//! ## Log format
//!
//! ```text
//! header:  magic "DDCW" | u8 version (1)
//! record:  u32 payload_len | u32 crc32(payload) | payload
//! payload: u8 tag
//!          tag 1 Update: u32 d | d × i64 point | value bytes
//!          tag 2 Set:    u32 d | d × i64 point | value bytes
//!          tag 3 Grow:   u32 axis | u64 amount | u8 low
//! ```
//!
//! All integers are little-endian; values go through
//! [`ValueCodec`](crate::ValueCodec) like snapshots do. The CRC32 (IEEE
//! 802.3, reflected) is implemented in-repo so the workspace stays
//! hermetic.
//!
//! ## Disk faults
//!
//! Every byte of durable IO flows through the [`crate::vfs`] seam, so
//! the log survives *disk* death too, not just process death. The
//! policy (DESIGN S44):
//!
//! * transient faults (EIO, short writes, failed sync) are retried with
//!   bounded exponential backoff; before each retry the log is
//!   truncated back to the acknowledged high-water mark so a torn
//!   partial frame can never sit under a later acked record;
//! * ENOSPC and retry exhaustion flip the [`DurableCube`] into
//!   **degraded read-only mode** — queries keep serving, mutations
//!   return [`IoError::ReadOnly`] — surfaced through the
//!   `ddc_degraded_mode` gauge and `ddc serve`'s `/healthz`;
//! * the `ddc check disk` chaos sweep drives seeded fault schedules
//!   through this path and asserts no acked update is ever lost.

use std::io::{self, Write};
use std::time::Duration;

use crate::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use ddc_array::AbelianGroup;

use crate::config::{DdcConfig, WalConfig};
use crate::growth::{GrowableCube, GrowthError};
use crate::obs;
use crate::persist::ValueCodec;
use crate::store::{self, SpillFile};
use crate::vfs::{is_no_space, read_stable, OpenMode, Vfs, VfsFile};

/// Durability-path observability handles: append latency (the full
/// log-and-sync), the sync portion alone, recovery replay, and the
/// disk-fault counters surfaced as `ddc_wal_io_faults` /
/// `ddc_wal_io_retries` / `ddc_degraded_mode`.
struct WalObs {
    append_ns: Arc<obs::Histogram>,
    fsync_ns: Arc<obs::Histogram>,
    recover_ns: Arc<obs::Histogram>,
    append_records: Arc<obs::Counter>,
    append_bytes: Arc<obs::Counter>,
    recover_records: Arc<obs::Counter>,
    recover_runs: Arc<obs::Counter>,
    io_faults: Arc<obs::Counter>,
    io_retries: Arc<obs::Counter>,
    degraded_mode: Arc<obs::Gauge>,
}

fn wal_obs() -> &'static WalObs {
    static OBS: OnceLock<WalObs> = OnceLock::new();
    OBS.get_or_init(|| WalObs {
        append_ns: obs::histogram("wal.append"),
        fsync_ns: obs::histogram("wal.fsync"),
        recover_ns: obs::histogram("wal.recover"),
        append_records: obs::counter("wal.append.records"),
        append_bytes: obs::counter("wal.append.bytes"),
        recover_records: obs::counter("wal.recover.records"),
        recover_runs: obs::counter("wal.recover.runs"),
        io_faults: obs::counter("wal.io.faults"),
        io_retries: obs::counter("wal.io.retries"),
        degraded_mode: obs::gauge("degraded.mode"),
    })
}

// ---------------------------------------------------------------------
// Typed IO errors and the retry policy
// ---------------------------------------------------------------------

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
    /// Truncate the log back to the acknowledged high-water mark before
    /// each retry (and after final failure), so a torn partial frame
    /// never precedes a later acked record and a synced-but-unacked
    /// frame is removed rather than duplicated.
    ///
    /// Production code never turns this off; `ddc check disk` replays
    /// its committed fault schedules with it disabled and must
    /// rediscover both resulting corruption classes.
    #[doc(hidden)]
    pub truncate_on_retry: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            truncate_on_retry: true,
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

/// Log header: magic plus a format version byte.
pub const WAL_MAGIC: &[u8; 4] = b"DDCW";
/// Current log format version.
pub const WAL_VERSION: u8 = 1;
/// Bytes of the segment header (`magic | version`).
pub const WAL_HEADER_BYTES: usize = 5;
/// Bytes of a record frame before its payload (`len | crc`).
pub const WAL_FRAME_BYTES: usize = 8;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// One logged mutation, in signed logical coordinates (the WAL speaks
/// the growable cube's language so growth in any direction is loggable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp<G> {
    /// Add `delta` at `point`.
    Update {
        /// Target cell.
        point: Vec<i64>,
        /// Added value.
        delta: G,
    },
    /// Set the cell at `point` to `value`.
    Set {
        /// Target cell.
        point: Vec<i64>,
        /// New value.
        value: G,
    },
    /// The covered box grew by `amount` cells along `axis` (bookkeeping;
    /// carries no cell data — the growable cube re-grows organically on
    /// replay).
    Grow {
        /// Axis that grew.
        axis: usize,
        /// Cells added.
        amount: usize,
        /// Toward negative coordinates when true.
        low: bool,
    },
}

const TAG_UPDATE: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_GROW: u8 = 3;

impl<G: AbelianGroup + ValueCodec> WalOp<G> {
    /// Encodes the record payload (everything after the frame). The
    /// `io::Result` comes from [`ValueCodec::encode`]; writes into a
    /// `Vec<u8>` cannot themselves fail, but a codec is free to reject
    /// a value, and that must surface as an append error, not a panic.
    fn encode_payload(&self, out: &mut Vec<u8>) -> io::Result<()> {
        let point_payload = |out: &mut Vec<u8>, tag: u8, point: &[i64], v: &G| {
            out.push(tag);
            out.extend_from_slice(&(point.len() as u32).to_le_bytes());
            for &c in point {
                out.extend_from_slice(&c.to_le_bytes());
            }
            v.encode(out)
        };
        match self {
            WalOp::Update { point, delta } => point_payload(out, TAG_UPDATE, point, delta),
            WalOp::Set { point, value } => point_payload(out, TAG_SET, point, value),
            WalOp::Grow { axis, amount, low } => {
                out.push(TAG_GROW);
                out.extend_from_slice(&(*axis as u32).to_le_bytes());
                out.extend_from_slice(&(*amount as u64).to_le_bytes());
                out.push(u8::from(*low));
                Ok(())
            }
        }
    }

    /// Decodes one payload. Any structural problem is an error — the
    /// caller treats it as a corrupt record and truncates there.
    fn decode_payload(mut payload: &[u8]) -> Result<Self, String> {
        let input = &mut payload;
        let mut tag = [0u8; 1];
        read_exactly(input, &mut tag)?;
        match tag[0] {
            TAG_UPDATE | TAG_SET => {
                let mut b4 = [0u8; 4];
                read_exactly(input, &mut b4)?;
                let d = u32::from_le_bytes(b4) as usize;
                if d == 0 || d > 64 {
                    return Err(format!("implausible dimensionality {d}"));
                }
                let mut point = Vec::with_capacity(d);
                let mut b8 = [0u8; 8];
                for _ in 0..d {
                    read_exactly(input, &mut b8)?;
                    point.push(i64::from_le_bytes(b8));
                }
                let v = G::decode(input).map_err(|e| format!("value: {e}"))?;
                if !input.is_empty() {
                    return Err(format!("{} trailing payload bytes", input.len()));
                }
                Ok(if tag[0] == TAG_UPDATE {
                    WalOp::Update { point, delta: v }
                } else {
                    WalOp::Set { point, value: v }
                })
            }
            TAG_GROW => {
                let mut b4 = [0u8; 4];
                read_exactly(input, &mut b4)?;
                let axis = u32::from_le_bytes(b4) as usize;
                let mut b8 = [0u8; 8];
                read_exactly(input, &mut b8)?;
                let amount = usize::try_from(u64::from_le_bytes(b8))
                    .map_err(|_| "growth amount exceeds address space".to_string())?;
                let mut low = [0u8; 1];
                read_exactly(input, &mut low)?;
                if low[0] > 1 {
                    return Err(format!("bad grow direction byte {}", low[0]));
                }
                if !input.is_empty() {
                    return Err(format!("{} trailing payload bytes", input.len()));
                }
                Ok(WalOp::Grow {
                    axis,
                    amount,
                    low: low[0] == 1,
                })
            }
            other => Err(format!("unknown record tag {other}")),
        }
    }
}

fn read_exactly(input: &mut &[u8], buf: &mut [u8]) -> Result<(), String> {
    if input.len() < buf.len() {
        return Err("payload shorter than declared".to_string());
    }
    let (head, rest) = input.split_at(buf.len());
    buf.copy_from_slice(head);
    *input = rest;
    Ok(())
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Where a failed append attempt died — before or after the bytes
/// reached the file. Sync-stage failures leave a complete frame whose
/// durability is ambiguous; write-stage failures leave nothing or a
/// torn prefix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum FrameStage {
    Write,
    Sync,
}

/// Appends framed, checksummed records to a [`VfsFile`], issuing the
/// sync barrier on each one before reporting success — a record is
/// **acknowledged** exactly when [`WalWriter::append`] (or
/// [`WalWriter::append_with_retry`]) returns `Ok`.
#[derive(Debug)]
pub struct WalWriter<F: VfsFile> {
    out: F,
    bytes: u64,
    records: u64,
    io_faults: u64,
    io_retries: u64,
}

impl<F: VfsFile> WalWriter<F> {
    /// Starts a fresh log on `out`: writes and syncs the header.
    pub fn create(mut out: F) -> io::Result<Self> {
        let mut header = [0u8; WAL_HEADER_BYTES];
        header[..4].copy_from_slice(WAL_MAGIC);
        header[4] = WAL_VERSION;
        out.write_all(&header)?;
        out.sync()?;
        Ok(Self {
            out,
            bytes: WAL_HEADER_BYTES as u64,
            records: 0,
            io_faults: 0,
            io_retries: 0,
        })
    }

    /// Resumes appending to a log that already holds `bytes` valid bytes
    /// and `records` records (as reported by [`read_wal`]). The caller
    /// must have truncated the sink to exactly `bytes` first.
    pub fn resume(out: F, bytes: u64, records: u64) -> Self {
        Self {
            out,
            bytes,
            records,
            io_faults: 0,
            io_retries: 0,
        }
    }

    /// Frames one record: `u32 len | u32 crc | payload` in a single
    /// buffer, so the fault surface per append is one write plus one
    /// sync.
    fn encode_frame<G: AbelianGroup + ValueCodec>(op: &WalOp<G>) -> io::Result<Vec<u8>> {
        let mut payload = Vec::with_capacity(32);
        op.encode_payload(&mut payload)?;
        let mut frame = Vec::with_capacity(WAL_FRAME_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        Ok(frame)
    }

    /// One write+sync attempt; reports which stage failed.
    fn append_frame_once(&mut self, frame: &[u8]) -> Result<(), (FrameStage, io::Error)> {
        let site = wal_obs();
        let span = obs::timer();
        self.out
            .write_all(frame)
            .map_err(|e| (FrameStage::Write, e))?;
        let sync = obs::timer();
        self.out.sync().map_err(|e| (FrameStage::Sync, e))?;
        sync.observe("wal.fsync", &site.fsync_ns);
        span.observe("wal.append", &site.append_ns);
        Ok(())
    }

    /// Advances the acknowledged high-water mark after a durable frame.
    fn commit_frame(&mut self, frame_len: usize) {
        let site = wal_obs();
        self.bytes += frame_len as u64;
        self.records += 1;
        site.append_records.inc();
        site.append_bytes.add(frame_len as u64);
    }

    /// Restores the log tail to the acknowledged high-water mark after
    /// a failed attempt (no-op under the hidden `truncate_on_retry`
    /// fault hook).
    fn restore_tail(&mut self, policy: &RetryPolicy) -> io::Result<()> {
        if policy.truncate_on_retry {
            self.out.truncate(self.bytes)
        } else {
            Ok(())
        }
    }

    /// Appends one record and syncs — a single attempt with no retry.
    /// Returns the total log size in bytes after the append — the
    /// durable high-water mark. On error the file tail is *not*
    /// restored; use [`WalWriter::append_with_retry`] on fallible
    /// media.
    pub fn append<G: AbelianGroup + ValueCodec>(&mut self, op: &WalOp<G>) -> io::Result<u64> {
        let frame = Self::encode_frame(op)?;
        self.append_frame_once(&frame).map_err(|(_, e)| e)?;
        self.commit_frame(frame.len());
        Ok(self.bytes)
    }

    /// Appends one record with bounded retry + exponential backoff.
    /// Before every retry (and after a final failure) the log is
    /// truncated back to the acknowledged high-water mark, so a torn
    /// partial frame can never precede a later acked record and a
    /// synced-but-unacked frame is removed rather than duplicated.
    ///
    /// ENOSPC is never retried — it returns [`IoError::ReadOnly`]
    /// immediately so the caller can degrade.
    pub fn append_with_retry<G: AbelianGroup + ValueCodec>(
        &mut self,
        op: &WalOp<G>,
        policy: &RetryPolicy,
    ) -> Result<u64, IoError> {
        let frame = Self::encode_frame(op).map_err(|e| IoError::Transient {
            detail: format!("encode: {e}"),
            retries: 0,
        })?;
        let site = wal_obs();
        let mut retries = 0u32;
        loop {
            match self.append_frame_once(&frame) {
                Ok(()) => {
                    self.commit_frame(frame.len());
                    return Ok(self.bytes);
                }
                Err((stage, e)) => {
                    self.io_faults += 1;
                    site.io_faults.inc();
                    let torn = self.restore_tail(policy).is_err();
                    if is_no_space(&e) {
                        return Err(IoError::ReadOnly {
                            reason: format!("out of disk space: {e}"),
                        });
                    }
                    if torn {
                        // The tail cleanup itself failed: appending over
                        // a torn prefix would bury acked records behind
                        // garbage, so stop here.
                        return Err(IoError::Exhausted {
                            detail: format!("cannot restore log tail after failed append: {e}"),
                            retries,
                            indeterminate: stage == FrameStage::Sync,
                        });
                    }
                    if retries >= policy.max_retries {
                        return Err(IoError::Exhausted {
                            detail: e.to_string(),
                            retries,
                            indeterminate: false,
                        });
                    }
                    retries += 1;
                    self.io_retries += 1;
                    site.io_retries.inc();
                    let delay = policy.backoff(retries);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Total bytes written (header plus every acknowledged record).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records acknowledged so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Failed IO attempts observed on this writer (also exported
    /// globally as `ddc_wal_io_faults`).
    pub fn io_faults(&self) -> u64 {
        self.io_faults
    }

    /// Retries performed on this writer (also exported globally as
    /// `ddc_wal_io_retries`).
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Shared view of the sink (e.g. a `Vec<u8>` used as an in-memory
    /// log by the crash harness).
    pub fn get_ref(&self) -> &F {
        &self.out
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> F {
        self.out
    }
}

// ---------------------------------------------------------------------
// Reader / replay
// ---------------------------------------------------------------------

/// What a log scan recovered: the decoded prefix plus where and why it
/// stopped.
#[derive(Clone, Debug)]
pub struct WalReplay<G> {
    /// Decoded records, in append order.
    pub ops: Vec<WalOp<G>>,
    /// Bytes of the valid prefix (header + intact records). Truncating
    /// the log file to this length yields a clean log.
    pub valid_bytes: u64,
    /// End offset of each intact record, in order — `ends[i]` is the
    /// log length after record `i` was acknowledged.
    pub ends: Vec<u64>,
    /// Why the scan stopped before the end of the input, if it did.
    /// `None` means the log is clean end to end.
    pub truncated: Option<String>,
}

impl<G> WalReplay<G> {
    /// True when no torn or corrupt tail was dropped.
    pub fn is_clean(&self) -> bool {
        self.truncated.is_none()
    }
}

/// Scans a log image, decoding every intact record and truncating at the
/// first torn or corrupt one (see the module docs for the contract).
///
/// Errors only on a *structurally alien* input: an intact-length header
/// whose magic or version is wrong. A header cut short by a crash is a
/// valid empty log with a torn tail.
pub fn read_wal<G: AbelianGroup + ValueCodec>(
    data: &[u8],
    config: WalConfig,
) -> io::Result<WalReplay<G>> {
    let mut replay = WalReplay {
        ops: Vec::new(),
        valid_bytes: 0,
        ends: Vec::new(),
        truncated: None,
    };
    if data.len() < WAL_HEADER_BYTES {
        // A kill before the header hit the disk: an empty log, torn.
        if !WAL_MAGIC.starts_with(&data[..data.len().min(4)]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a DDC WAL (bad magic)",
            ));
        }
        replay.truncated = Some("torn header".to_string());
        return Ok(replay);
    }
    if &data[..4] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a DDC WAL (bad magic)",
        ));
    }
    if data[4] != WAL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported WAL version {}", data[4]),
        ));
    }
    let mut offset = WAL_HEADER_BYTES;
    replay.valid_bytes = offset as u64;
    while offset < data.len() {
        let rest = &data[offset..];
        if rest.len() < WAL_FRAME_BYTES {
            replay.truncated = Some(format!("torn frame at byte {offset}"));
            break;
        }
        // `rest` is at least WAL_FRAME_BYTES long (checked above), so
        // both frame fields are present; decode without panicking paths.
        let mut b4 = [0u8; 4];
        b4.copy_from_slice(&rest[..4]);
        let len = u32::from_le_bytes(b4) as usize;
        b4.copy_from_slice(&rest[4..8]);
        let crc = u32::from_le_bytes(b4);
        if len as u64 > config.max_record_bytes {
            replay.truncated = Some(format!(
                "implausible record length {len} at byte {offset} (corrupt frame)"
            ));
            break;
        }
        if rest.len() < WAL_FRAME_BYTES + len {
            replay.truncated = Some(format!("torn record at byte {offset}"));
            break;
        }
        let payload = &rest[WAL_FRAME_BYTES..WAL_FRAME_BYTES + len];
        if config.verify_checksums && crc32(payload) != crc {
            replay.truncated = Some(format!("checksum mismatch at byte {offset}"));
            break;
        }
        match WalOp::<G>::decode_payload(payload) {
            Ok(op) => replay.ops.push(op),
            Err(reason) => {
                replay.truncated = Some(format!("undecodable record at byte {offset}: {reason}"));
                break;
            }
        }
        offset += WAL_FRAME_BYTES + len;
        replay.valid_bytes = offset as u64;
        replay.ends.push(offset as u64);
    }
    Ok(replay)
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// What [`recover`] did, for operators and metrics.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// True when a snapshot was loaded (vs starting from an empty cube).
    pub snapshot_loaded: bool,
    /// Records replayed from the log.
    pub replayed: usize,
    /// Valid log prefix in bytes.
    pub valid_bytes: u64,
    /// Why the log was truncated, if it was.
    pub truncated: Option<String>,
}

/// Rebuilds a cube after a crash: load the last good snapshot (if any),
/// then replay the WAL, truncating at the first corrupt or partial
/// record. `d` fixes the dimensionality when no snapshot exists.
pub fn recover<G: AbelianGroup + ValueCodec>(
    d: usize,
    snapshot: Option<&[u8]>,
    wal: &[u8],
    config: DdcConfig,
    wal_config: WalConfig,
) -> io::Result<(GrowableCube<G>, RecoveryReport)> {
    recover_spilling(d, snapshot, wal, config, wal_config, None)
}

/// [`recover`], paging the leaves onto `spill` when the caller opened
/// one.
fn recover_spilling<G: AbelianGroup + ValueCodec>(
    d: usize,
    snapshot: Option<&[u8]>,
    wal: &[u8],
    config: DdcConfig,
    wal_config: WalConfig,
    spill: Option<SpillFile>,
) -> io::Result<(GrowableCube<G>, RecoveryReport)> {
    let site = wal_obs();
    let span = obs::timer();
    // Paging (when configured) activates before any cell lands — inside
    // `load_spilling`, or right here without a snapshot — so recovery
    // literally replays the WAL onto pages and a cube too big for the
    // memory cap can still be rebuilt.
    let (mut cube, snapshot_loaded) = match snapshot {
        Some(bytes) => {
            let cube = GrowableCube::<G>::load_spilling(&mut { bytes }, config, spill)?;
            if cube.ndim() != d {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("snapshot is {}-dimensional, expected {d}", cube.ndim()),
                ));
            }
            (cube, true)
        }
        None => {
            let mut cube = GrowableCube::new(d, config);
            cube.page_leaves(spill)?;
            (cube, false)
        }
    };
    let replay = read_wal::<G>(wal, wal_config)?;
    let mut replayed = 0usize;
    for op in &replay.ops {
        apply_to_growable(&mut cube, op, d).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record {replayed}: {e}"),
            )
        })?;
        replayed += 1;
    }
    site.recover_runs.inc();
    site.recover_records.add(replayed as u64);
    span.observe("wal.recover", &site.recover_ns);
    Ok((
        cube,
        RecoveryReport {
            snapshot_loaded,
            replayed,
            valid_bytes: replay.valid_bytes,
            truncated: replay.truncated,
        },
    ))
}

/// Applies one decoded record to a growable cube. Arity mismatches (a
/// record from a different cube) and points the cube cannot grow to are
/// errors; growth is organic.
fn apply_to_growable<G: AbelianGroup + ValueCodec>(
    cube: &mut GrowableCube<G>,
    op: &WalOp<G>,
    d: usize,
) -> Result<(), String> {
    match op {
        WalOp::Update { point, delta } => {
            if point.len() != d {
                return Err(format!("update arity {} != {d}", point.len()));
            }
            cube.check_cover(point).map_err(|e| e.to_string())?;
            cube.add(point, *delta);
        }
        WalOp::Set { point, value } => {
            if point.len() != d {
                return Err(format!("set arity {} != {d}", point.len()));
            }
            cube.check_cover(point).map_err(|e| e.to_string())?;
            cube.set(point, *value);
        }
        WalOp::Grow { axis, .. } => {
            if *axis >= d {
                return Err(format!("grow axis {axis} out of range for d={d}"));
            }
            // Covered-box bookkeeping only: the growable cube re-grows
            // on demand when a replayed point lands outside its box.
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// DurableCube: cube + WAL, wired together
// ---------------------------------------------------------------------

/// A [`GrowableCube`] whose every mutation is write-ahead logged: the
/// record is appended and flushed *before* the in-memory apply, so an
/// acknowledged mutation survives any subsequent kill.
///
/// # Examples
///
/// ```
/// use ddc_core::{wal, DdcConfig, DurableCube, WalConfig};
///
/// let mut cube = DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::sparse(), Vec::new()).unwrap();
/// cube.add(&[3, -5], 7).unwrap();
/// cube.add(&[100, 2], 1).unwrap();
///
/// // Simulate a kill: all that survives is the log bytes.
/// let log = cube.into_wal().into_inner();
/// let (recovered, report) =
///     wal::recover::<i64>(2, None, &log, DdcConfig::sparse(), WalConfig::default()).unwrap();
/// assert_eq!(report.replayed, 2);
/// assert_eq!(recovered.cell(&[3, -5]), 7);
/// assert_eq!(recovered.total(), 8);
/// ```
#[derive(Debug)]
pub struct DurableCube<G: AbelianGroup + ValueCodec, F: VfsFile> {
    cube: GrowableCube<G>,
    wal: WalWriter<F>,
    policy: RetryPolicy,
    degraded: Option<String>,
}

impl<G: AbelianGroup + ValueCodec, F: VfsFile> DurableCube<G, F> {
    /// An empty durable cube logging to `sink` (starts a fresh log).
    pub fn new(d: usize, config: DdcConfig, sink: F) -> io::Result<Self> {
        let mut cube = GrowableCube::new(d, config);
        cube.enable_paging()?;
        Ok(Self::from_parts(
            cube,
            WalWriter::create(sink)?,
            RetryPolicy::default(),
        ))
    }

    /// Wraps an already-recovered cube, starting a fresh log on `sink`
    /// (the caller checkpoints the recovered state separately).
    pub fn from_recovered(cube: GrowableCube<G>, sink: F) -> io::Result<Self> {
        Ok(Self::from_parts(
            cube,
            WalWriter::create(sink)?,
            RetryPolicy::default(),
        ))
    }

    fn from_parts(cube: GrowableCube<G>, wal: WalWriter<F>, policy: RetryPolicy) -> Self {
        Self {
            cube,
            wal,
            policy,
            degraded: None,
        }
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Why the cube is read-only, when it is. Queries keep serving in
    /// degraded mode; mutations return [`IoError::ReadOnly`].
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Operator override: leave degraded mode (e.g. after freeing disk
    /// space). The next mutation will attempt the log again.
    pub fn clear_degraded(&mut self) {
        if self.degraded.take().is_some() {
            wal_obs().degraded_mode.set(0);
        }
    }

    fn enter_degraded(&mut self, reason: String) {
        if self.degraded.is_none() {
            wal_obs().degraded_mode.set(1);
            self.degraded = Some(reason);
        }
    }

    fn guard_writable(&self) -> Result<(), IoError> {
        match &self.degraded {
            Some(reason) => Err(IoError::ReadOnly {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Classifies an append failure and flips into degraded mode when
    /// the failure is terminal for the log.
    fn note_failure(&mut self, e: IoError) -> IoError {
        match &e {
            IoError::ReadOnly { reason } => self.enter_degraded(reason.clone()),
            IoError::Exhausted {
                detail, retries, ..
            } => self.enter_degraded(format!(
                "append retry budget exhausted after {retries} retries: {detail}"
            )),
            IoError::Transient { .. } | IoError::OutOfRange(_) => {}
        }
        e
    }

    /// Logs, then applies, a point delta. `Err` means *not acknowledged*:
    /// the in-memory cube was left untouched (and, except for the
    /// documented [`IoError::Exhausted`] indeterminate window, neither
    /// was the durable log). A point the cube cannot grow to is refused
    /// before the append, so the log never holds a record that replay
    /// could not apply.
    pub fn add(&mut self, point: &[i64], delta: G) -> Result<(), IoError> {
        self.guard_writable()?;
        self.cube.check_cover(point).map_err(IoError::OutOfRange)?;
        let op = WalOp::Update {
            point: point.to_vec(),
            delta,
        };
        match self.wal.append_with_retry(&op, &self.policy) {
            Ok(_) => {
                self.cube.add(point, delta);
                Ok(())
            }
            Err(e) => Err(self.note_failure(e)),
        }
    }

    /// Logs, then applies, a cell set; returns the previous value.
    pub fn set(&mut self, point: &[i64], value: G) -> Result<G, IoError> {
        self.guard_writable()?;
        self.cube.check_cover(point).map_err(IoError::OutOfRange)?;
        let op = WalOp::Set {
            point: point.to_vec(),
            value,
        };
        match self.wal.append_with_retry(&op, &self.policy) {
            Ok(_) => Ok(self.cube.set(point, value)),
            Err(e) => Err(self.note_failure(e)),
        }
    }

    /// Logs a covered-box growth step (bookkeeping; see [`WalOp::Grow`]).
    pub fn log_grow(&mut self, axis: usize, amount: usize, low: bool) -> Result<(), IoError> {
        self.guard_writable()?;
        match self
            .wal
            .append_with_retry::<G>(&WalOp::Grow { axis, amount, low }, &self.policy)
        {
            Ok(_) => Ok(()),
            Err(e) => Err(self.note_failure(e)),
        }
    }

    /// The wrapped cube (reads need no logging).
    pub fn cube(&self) -> &GrowableCube<G> {
        &self.cube
    }

    /// Buffer-pool counters of the paged leaf arena (`None` on the
    /// slab backend).
    pub fn pool_stats(&self) -> Option<crate::pager::PoolStats> {
        self.cube.pool_stats()
    }

    /// Writes a snapshot of the current state to `out`, returning the
    /// bytes written. After the snapshot is durable the caller may
    /// truncate/replace the log (see [`DurableCube::reset_wal`]).
    pub fn checkpoint(&self, out: &mut impl Write) -> io::Result<u64> {
        self.cube.save(out)
    }

    /// Checkpoints through a [`Vfs`]: writes the snapshot atomically
    /// (tmp + sync + rename), then retires the log by starting a fresh
    /// one at `wal_path`. Ordering guarantees:
    ///
    /// 1. Any failure *before* the snapshot rename is
    ///    [`IoError::Transient`] — the previous snapshot and the full
    ///    log are untouched, recovery is unaffected, and the call may
    ///    simply be retried later (ENOSPC degrades instead).
    /// 2. Once the rename lands, the snapshot is the authoritative
    ///    base. `open(Create)` truncates the old log before the new
    ///    header is written, so a crash in between leaves an empty or
    ///    torn-header log — a valid empty replay. If even the
    ///    open/header write fails, the stale log is removed outright;
    ///    when that also fails the cube degrades rather than risk
    ///    double-applying the old log onto the new snapshot.
    pub fn checkpoint_vfs<V: Vfs<File = F>>(
        &mut self,
        vfs: &V,
        snapshot_path: &str,
        wal_path: &str,
    ) -> Result<u64, IoError> {
        self.guard_writable()?;
        let mut image = Vec::new();
        self.cube.save(&mut image).map_err(|e| IoError::Transient {
            detail: format!("snapshot encode: {e}"),
            retries: 0,
        })?;
        if let Err(e) = vfs.write_atomic(snapshot_path, &image) {
            wal_obs().io_faults.inc();
            return Err(if is_no_space(&e) {
                let reason = format!("out of disk space during checkpoint: {e}");
                self.enter_degraded(reason.clone());
                IoError::ReadOnly { reason }
            } else {
                IoError::Transient {
                    detail: format!("snapshot write: {e}"),
                    retries: 0,
                }
            });
        }
        match vfs
            .open(wal_path, OpenMode::Create)
            .and_then(WalWriter::create)
        {
            Ok(wal) => {
                self.wal = wal;
                Ok(image.len() as u64)
            }
            Err(e) => {
                wal_obs().io_faults.inc();
                let _ = vfs.remove(wal_path);
                let reason = format!("log rotation failed after checkpoint: {e}");
                self.enter_degraded(reason.clone());
                Err(IoError::Exhausted {
                    detail: reason,
                    retries: 0,
                    indeterminate: false,
                })
            }
        }
    }

    /// Replaces the log with a fresh one on `sink` — the post-checkpoint
    /// truncation. Returns the retired sink.
    pub fn reset_wal(&mut self, sink: F) -> io::Result<F> {
        let old = std::mem::replace(&mut self.wal, WalWriter::create(sink)?);
        Ok(old.into_inner())
    }

    /// Log statistics: `(bytes, records)` acknowledged so far.
    pub fn wal_stats(&self) -> (u64, u64) {
        (self.wal.bytes(), self.wal.records())
    }

    /// Borrow of the log writer (e.g. to peek at an in-memory sink).
    pub fn wal(&self) -> &WalWriter<F> {
        &self.wal
    }

    /// Consumes the cube, returning the log writer.
    pub fn into_wal(self) -> WalWriter<F> {
        self.wal
    }
}

/// Boots a durable cube through a [`Vfs`]: loads the snapshot (when
/// `snapshot_path` names an existing file), replays the log with the
/// usual torn-tail truncation, repairs the log file back to its valid
/// prefix, and resumes appending to it. Reads go through
/// [`read_stable`](crate::vfs::read_stable) so a transient read-back
/// bit flip cannot corrupt recovery. A [`crate::PagerConfig::disk`]
/// pager spills to a scratch file next to the log in the same
/// namespace, so an eviction write-back or a page fault-in fails (and
/// is injected) like any other op on that disk.
pub fn recover_vfs<G: AbelianGroup + ValueCodec, V: Vfs>(
    vfs: &V,
    wal_path: &str,
    snapshot_path: Option<&str>,
    d: usize,
    config: DdcConfig,
    wal_config: WalConfig,
    policy: RetryPolicy,
) -> io::Result<(DurableCube<G, V::File>, RecoveryReport)>
where
    V::File: 'static,
{
    let attempts = policy.max_retries + 3;
    let snapshot = match snapshot_path {
        Some(p) if vfs.exists(p)? => Some(read_stable(vfs, p, attempts)?),
        _ => None,
    };
    let spill = store::spill_through(vfs, wal_path, &config)?;
    if !vfs.exists(wal_path)? {
        let (cube, report) =
            recover_spilling(d, snapshot.as_deref(), &[], config, wal_config, spill)?;
        let wal = WalWriter::create(vfs.open(wal_path, OpenMode::Create)?)?;
        return Ok((DurableCube::from_parts(cube, wal, policy), report));
    }
    let log = read_stable(vfs, wal_path, attempts)?;
    let (cube, report) = recover_spilling(d, snapshot.as_deref(), &log, config, wal_config, spill)?;
    let wal = if report.valid_bytes < WAL_HEADER_BYTES as u64 {
        // Torn header: rewrite the log from scratch.
        WalWriter::create(vfs.open(wal_path, OpenMode::Create)?)?
    } else {
        let mut f = vfs.open(wal_path, OpenMode::Append)?;
        if report.valid_bytes < log.len() as u64 {
            f.truncate(report.valid_bytes)?;
        }
        WalWriter::resume(f, report.valid_bytes, report.replayed as u64)
    };
    Ok((DurableCube::from_parts(cube, wal, policy), report))
}

/// A [`DurableCube`] shared between threads: one facade mutex holds the
/// log-then-apply pair, so "acknowledged" (a call returning `Ok`) means
/// the WAL record was appended *and* the in-memory cube reflects it as
/// one atomic step with respect to every other thread.
///
/// This is the structure the `ddc-model` durability scenarios
/// ([`crate::models`]) check: no schedule may return an ack before the
/// record count in the log has grown, and concurrent `add`s must be
/// linearizable against the sequential oracle.
#[derive(Debug)]
pub struct SharedDurableCube<G: AbelianGroup + ValueCodec, F: VfsFile> {
    inner: Arc<Mutex<DurableCube<G, F>>>,
}

impl<G: AbelianGroup + ValueCodec, F: VfsFile> Clone for SharedDurableCube<G, F> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<G: AbelianGroup + ValueCodec, F: VfsFile> SharedDurableCube<G, F> {
    /// An empty shared durable cube logging to `sink`.
    pub fn new(d: usize, config: DdcConfig, sink: F) -> io::Result<Self> {
        Ok(Self::from_cube(DurableCube::new(d, config, sink)?))
    }

    /// Wraps an existing durable cube.
    pub fn from_cube(cube: DurableCube<G, F>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(cube)),
        }
    }

    /// Poison-tolerant lock: a panicked appender left state that the
    /// log-then-apply discipline already bounds (an appended-but-not-
    /// applied record is exactly what recovery replays), so later
    /// threads may keep going — the shard-lock pattern from
    /// [`crate::shard`].
    fn lock(&self) -> MutexGuard<'_, DurableCube<G, F>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Logs, then applies, a point delta under the lock. `Ok` is the
    /// durability acknowledgement.
    pub fn add(&self, point: &[i64], delta: G) -> Result<(), IoError> {
        self.lock().add(point, delta)
    }

    /// Logs, then applies, a cell set; returns the previous value.
    pub fn set(&self, point: &[i64], value: G) -> Result<G, IoError> {
        self.lock().set(point, value)
    }

    /// Why the cube is read-only, when it is (see
    /// [`DurableCube::degraded`]).
    pub fn degraded(&self) -> Option<String> {
        self.lock().degraded().map(str::to_string)
    }

    /// One cell of the in-memory cube.
    pub fn cell(&self, point: &[i64]) -> G {
        self.lock().cube().cell(point)
    }

    /// Sum of every populated cell.
    pub fn total(&self) -> G {
        self.lock().cube().total()
    }

    /// Dimensionality of the cube.
    pub fn ndim(&self) -> usize {
        self.lock().cube().ndim()
    }

    /// Range sum over the closed logical box `[lo, hi]` — the serving
    /// read path for durable backends. Parts outside the covered box
    /// contribute zero.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or inverted bounds (callers validate
    /// untrusted input first).
    pub fn range_sum(&self, lo: &[i64], hi: &[i64]) -> G {
        self.lock().cube().range_sum(lo, hi)
    }

    /// Log statistics: `(bytes, records)` acknowledged so far.
    pub fn wal_stats(&self) -> (u64, u64) {
        self.lock().wal_stats()
    }

    /// Buffer-pool counters of the paged leaf arena (`None` on the
    /// slab backend).
    pub fn pool_stats(&self) -> Option<crate::pager::PoolStats> {
        self.lock().pool_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultVfs, PlannedFault};

    fn sample_ops() -> Vec<WalOp<i64>> {
        vec![
            WalOp::Update {
                point: vec![0, 0],
                delta: 5,
            },
            WalOp::Set {
                point: vec![-3, 7],
                value: -9,
            },
            WalOp::Grow {
                axis: 1,
                amount: 4,
                low: true,
            },
            WalOp::Update {
                point: vec![-3, 7],
                delta: 2,
            },
        ]
    }

    fn write_log(ops: &[WalOp<i64>]) -> (Vec<u8>, Vec<u64>) {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        let mut ends = Vec::new();
        for op in ops {
            ends.push(w.append(op).unwrap());
        }
        (w.into_inner(), ends)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE 802.3 test vectors (zlib's crc32).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn log_roundtrips_cleanly() {
        let ops = sample_ops();
        let (log, ends) = write_log(&ops);
        let replay = read_wal::<i64>(&log, WalConfig::default()).unwrap();
        assert!(replay.is_clean());
        assert_eq!(replay.ops, ops);
        assert_eq!(replay.valid_bytes as usize, log.len());
        assert_eq!(replay.ends, ends);
    }

    #[test]
    fn truncation_at_every_offset_yields_exact_record_prefix() {
        let ops = sample_ops();
        let (log, ends) = write_log(&ops);
        for cut in 0..=log.len() {
            let replay = read_wal::<i64>(&log[..cut], WalConfig::default()).unwrap();
            let expect = ends.iter().filter(|&&e| e as usize <= cut).count();
            assert_eq!(replay.ops.len(), expect, "cut at byte {cut}");
            assert_eq!(replay.ops[..], ops[..expect], "cut at byte {cut}");
            // A clean scan only when the cut lands exactly on a record
            // boundary (or the bare header).
            let on_boundary = cut == WAL_HEADER_BYTES || ends.iter().any(|&e| e as usize == cut);
            assert_eq!(replay.is_clean(), on_boundary, "cut at byte {cut}");
        }
    }

    #[test]
    fn corrupt_byte_truncates_at_that_record() {
        let ops = sample_ops();
        let (log, ends) = write_log(&ops);
        // Flip a point-coordinate byte inside record 1's payload (past
        // the tag and arity, so the record still *decodes* — just wrong).
        let mut damaged = log.clone();
        let idx = ends[0] as usize + WAL_FRAME_BYTES + 1 + 4;
        damaged[idx] ^= 0xFF;
        let replay = read_wal::<i64>(&damaged, WalConfig::default()).unwrap();
        assert_eq!(replay.ops.len(), 1, "{:?}", replay.truncated);
        assert!(replay
            .truncated
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        // With verification disabled the damage sails through — the
        // fault-injection hook the crash harness uses to prove the
        // checksum is load-bearing.
        let blind = WalConfig {
            verify_checksums: false,
            ..WalConfig::default()
        };
        let replay = read_wal::<i64>(&damaged, blind).unwrap();
        assert!(replay.ops.len() >= 2);
        assert_ne!(replay.ops[1], ops[1]);
    }

    #[test]
    fn implausible_frame_length_is_corruption_not_allocation() {
        let (mut log, _) = write_log(&sample_ops());
        let at = WAL_HEADER_BYTES;
        log[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let replay = read_wal::<i64>(&log, WalConfig::default()).unwrap();
        assert_eq!(replay.ops.len(), 0);
        assert!(replay
            .truncated
            .as_deref()
            .unwrap()
            .contains("implausible record length"));
    }

    #[test]
    fn alien_input_errors_rather_than_truncates() {
        assert!(read_wal::<i64>(b"NOTAWAL!", WalConfig::default()).is_err());
        let mut wrong_version = WAL_MAGIC.to_vec();
        wrong_version.push(9);
        assert!(read_wal::<i64>(&wrong_version, WalConfig::default()).is_err());
        // A torn header (prefix of the magic) is a crash signature, not
        // an alien file.
        let replay = read_wal::<i64>(&WAL_MAGIC[..2], WalConfig::default()).unwrap();
        assert_eq!(replay.ops.len(), 0);
        assert!(!replay.is_clean());
    }

    #[test]
    fn recover_replays_snapshot_plus_log() {
        // State at checkpoint time…
        let mut base = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        base.add(&[1, 1], 10);
        base.add(&[-4, 0], 3);
        let mut snapshot = Vec::new();
        base.save(&mut snapshot).unwrap();
        // …then more acknowledged work in the log.
        let (log, _) = write_log(&[
            WalOp::Update {
                point: vec![1, 1],
                delta: -10,
            },
            WalOp::Set {
                point: vec![9, 9],
                value: 4,
            },
        ]);
        let (cube, report) = recover::<i64>(
            2,
            Some(&snapshot),
            &log,
            DdcConfig::sparse(),
            WalConfig::default(),
        )
        .unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed, 2);
        assert!(report.truncated.is_none());
        assert_eq!(cube.cell(&[1, 1]), 0);
        assert_eq!(cube.cell(&[-4, 0]), 3);
        assert_eq!(cube.cell(&[9, 9]), 4);
        assert_eq!(cube.total(), 7);
    }

    #[test]
    fn recover_without_snapshot_and_with_torn_tail() {
        let (log, ends) = write_log(&sample_ops());
        // Kill mid-record-3: recovery keeps exactly the first two records.
        let cut = (ends[2] - 3) as usize;
        let (cube, report) = recover::<i64>(
            2,
            None,
            &log[..cut],
            DdcConfig::dynamic(),
            WalConfig::default(),
        )
        .unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.replayed, 2);
        assert!(report.truncated.is_some());
        assert_eq!(cube.cell(&[0, 0]), 5);
        assert_eq!(cube.cell(&[-3, 7]), -9);
    }

    #[test]
    fn recover_rejects_arity_mismatch() {
        let (log, _) = write_log(&sample_ops()); // 2-dimensional records
        assert!(recover::<i64>(3, None, &log, DdcConfig::dynamic(), WalConfig::default()).is_err());
    }

    #[test]
    fn durable_cube_checkpoint_and_reset() {
        let mut cube =
            DurableCube::<i64, Vec<u8>>::new(1, DdcConfig::dynamic(), Vec::new()).unwrap();
        cube.add(&[5], 2).unwrap();
        cube.add(&[-1], 8).unwrap();
        assert_eq!(cube.wal_stats().1, 2);
        let mut snapshot = Vec::new();
        let bytes = cube.checkpoint(&mut snapshot).unwrap();
        assert_eq!(bytes as usize, snapshot.len());
        let old_log = cube.reset_wal(Vec::new()).unwrap();
        assert!(old_log.len() > WAL_HEADER_BYTES);
        assert_eq!(cube.wal_stats().1, 0);
        cube.set(&[5], 1).unwrap();
        // Crash now: snapshot + fresh log reproduce the state exactly.
        let log = cube.into_wal().into_inner();
        let (recovered, report) = recover::<i64>(
            1,
            Some(&snapshot),
            &log,
            DdcConfig::dynamic(),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.cell(&[5]), 1);
        assert_eq!(recovered.cell(&[-1]), 8);
    }

    const WAL: &str = "cube.wal";
    const SNAP: &str = "cube.snap";

    fn boot(vfs: &FaultVfs) -> DurableCube<i64, crate::vfs::FaultFile<crate::vfs::MemFile>> {
        let (cube, _) = recover_vfs::<i64, _>(
            vfs,
            WAL,
            Some(SNAP),
            2,
            DdcConfig::sparse(),
            WalConfig::default(),
            RetryPolicy::instant(),
        )
        .unwrap();
        cube
    }

    #[test]
    fn transient_write_fault_is_retried_and_acked() {
        // Boot (disarmed) takes some ops; probe how many, then plant the
        // fault exactly at the first armed append's write.
        let probe = FaultVfs::explicit_mem(Vec::new());
        let c = boot(&probe);
        drop(c);
        let boot_ops = probe.ops();
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: boot_ops,
            kind: FaultKind::WriteErr,
        }]);
        let mut cube = boot(&vfs);
        vfs.arm(true);
        cube.add(&[1, 2], 7).unwrap();
        assert_eq!(cube.wal().io_faults(), 1);
        assert_eq!(cube.wal().io_retries(), 1);
        assert!(cube.degraded().is_none());
        vfs.arm(false);
        drop(cube);
        let recovered = boot(&vfs);
        assert_eq!(recovered.cube().cell(&[1, 2]), 7);
    }

    #[test]
    fn enospc_degrades_to_read_only_and_queries_keep_serving() {
        let probe = FaultVfs::explicit_mem(Vec::new());
        drop(boot(&probe));
        let boot_ops = probe.ops();
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: boot_ops + 2, // second armed append's write (write+sync per append)
            kind: FaultKind::NoSpace,
        }]);
        let mut cube = boot(&vfs);
        vfs.arm(true);
        cube.add(&[0, 0], 5).unwrap();
        let err = cube.add(&[1, 1], 9).unwrap_err();
        assert!(matches!(err, IoError::ReadOnly { .. }), "{err}");
        assert!(cube.degraded().is_some());
        // No retries for ENOSPC, queries still serve the acked prefix.
        assert_eq!(cube.wal().io_retries(), 0);
        assert_eq!(cube.cube().cell(&[0, 0]), 5);
        // Further mutations are rejected without touching the log.
        let ops_before = vfs.ops();
        assert!(matches!(
            cube.add(&[2, 2], 1),
            Err(IoError::ReadOnly { .. })
        ));
        assert_eq!(vfs.ops(), ops_before);
        // Recovery sees exactly the acked prefix.
        vfs.arm(false);
        drop(cube);
        let recovered = boot(&vfs);
        assert_eq!(recovered.cube().cell(&[0, 0]), 5);
        assert_eq!(recovered.cube().cell(&[1, 1]), 0);
        assert_eq!(recovered.cube().total(), 5);
    }

    #[test]
    fn retry_exhaustion_degrades_and_preserves_acked_prefix() {
        let probe = FaultVfs::explicit_mem(Vec::new());
        drop(boot(&probe));
        let boot_ops = probe.ops();
        // Default budget is 4 retries => 5 write attempts; each failed
        // attempt costs write + truncate? (truncate is not an op) — the
        // armed append's write op indices advance by 1 per attempt.
        let faults = (0..8)
            .map(|i| PlannedFault {
                op: boot_ops + i,
                kind: FaultKind::WriteErr,
            })
            .collect();
        let vfs = FaultVfs::explicit_mem(faults);
        let mut cube = boot(&vfs);
        vfs.arm(true);
        let err = cube.add(&[3, 3], 2).unwrap_err();
        assert!(
            matches!(err, IoError::Exhausted { retries: 4, .. }),
            "{err}"
        );
        assert!(cube.degraded().is_some());
        assert_eq!(cube.wal().io_faults(), 5);
        vfs.arm(false);
        drop(cube);
        let recovered = boot(&vfs);
        assert_eq!(recovered.cube().total(), 0);
    }

    #[test]
    fn sync_fault_with_truncate_on_retry_never_duplicates_records() {
        let probe = FaultVfs::explicit_mem(Vec::new());
        drop(boot(&probe));
        let boot_ops = probe.ops();
        // Fail the sync of the first armed append: the bytes landed, the
        // retry must truncate them before rewriting, or recovery would
        // see the update twice.
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: boot_ops + 1,
            kind: FaultKind::SyncFail,
        }]);
        let mut cube = boot(&vfs);
        vfs.arm(true);
        cube.add(&[4, 4], 10).unwrap();
        vfs.arm(false);
        drop(cube);
        let recovered = boot(&vfs);
        assert_eq!(recovered.cube().cell(&[4, 4]), 10);
        assert_eq!(recovered.cube().total(), 10, "no duplicated replay");
    }

    #[test]
    fn checkpoint_vfs_rotates_log_and_recovers_from_snapshot() {
        let vfs = FaultVfs::explicit_mem(Vec::new());
        let mut cube = boot(&vfs);
        cube.add(&[1, 1], 4).unwrap();
        cube.add(&[2, 2], 6).unwrap();
        let bytes = cube.checkpoint_vfs(&vfs, SNAP, WAL).unwrap();
        assert!(bytes > 0);
        assert_eq!(cube.wal_stats().1, 0, "log rotated");
        cube.add(&[1, 1], -4).unwrap();
        drop(cube);
        let recovered = boot(&vfs);
        assert_eq!(recovered.cube().cell(&[1, 1]), 0);
        assert_eq!(recovered.cube().cell(&[2, 2]), 6);
    }

    #[test]
    fn degraded_cube_can_be_cleared_by_operator() {
        let probe = FaultVfs::explicit_mem(Vec::new());
        drop(boot(&probe));
        let boot_ops = probe.ops();
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: boot_ops,
            kind: FaultKind::NoSpace,
        }]);
        let mut cube = boot(&vfs);
        vfs.arm(true);
        assert!(cube.add(&[0, 0], 1).is_err());
        assert!(cube.degraded().is_some());
        cube.clear_degraded();
        assert!(cube.degraded().is_none());
        cube.add(&[0, 0], 1).unwrap();
        assert_eq!(cube.cube().cell(&[0, 0]), 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(8),
            truncate_on_retry: true,
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(4), Duration::from_millis(8));
        assert_eq!(p.backoff(9), Duration::from_millis(8));
    }
}
