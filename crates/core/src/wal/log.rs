//! Appending to the log ([`WalWriter`]), scanning it back
//! ([`scan_wal`]), repairing its tail ([`repair_tail`]) and starting it
//! afresh behind a snapshot ([`rotate_wal`]).

use std::io::{self, Read};

use super::record::{
    crc32, decode_update, encode_update, MAX_RECORD_BYTES, WAL_FRAME_BYTES, WAL_HEADER_BYTES,
    WAL_MAGIC, WAL_VERSION,
};
use super::wal_obs;
use crate::persist::ValueCodec;
use crate::vfs::{is_no_space, IoError, OpenMode, RetryPolicy, Vfs, VfsFile};

/// Where a failed append attempt died — before or after the bytes
/// reached the file. Sync-stage failures leave a complete frame whose
/// durability is ambiguous; write-stage failures leave nothing or a
/// torn prefix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum FrameStage {
    Write,
    Sync,
}

/// Appends framed, checksummed records to a [`VfsFile`], one group at a
/// time: every frame of the group goes out in one write, and one sync
/// barrier covers them all before success is reported — a record is
/// **acknowledged** exactly when the [`WalWriter::append_updates`] that
/// carried it returns `Ok`. A single record is a group of one.
#[derive(Debug)]
pub struct WalWriter<F: VfsFile> {
    out: F,
    bytes: u64,
    records: u64,
    /// The frames of the group being appended, reused across appends.
    group: Vec<u8>,
}

/// Frames one record onto `group`: `u32 len | u32 crc | payload`, the
/// payload written by `payload` straight behind its frame.
fn push_frame(
    group: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> Result<(), IoError> {
    // (`as_slice`: a `Vec<u8>` is a `VfsFile` too, and that `len` is not
    // this one.)
    let frame = group.as_slice().len();
    group.extend_from_slice(&[0; WAL_FRAME_BYTES]);
    payload(group).map_err(|e| IoError::Transient {
        detail: format!("encode: {e}"),
        retries: 0,
    })?;
    let body = frame + WAL_FRAME_BYTES;
    let (len, crc) = (group[body..].len() as u32, crc32(&group[body..]));
    group[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
    group[frame + 4..body].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

impl<F: VfsFile> WalWriter<F> {
    /// Starts a fresh log on `out`: writes and syncs the header.
    pub fn create(mut out: F) -> io::Result<Self> {
        let mut header = [0u8; WAL_HEADER_BYTES];
        header[..4].copy_from_slice(WAL_MAGIC);
        header[4] = WAL_VERSION;
        out.write_all(&header)?;
        out.sync()?;
        Ok(Self::resume(out, WAL_HEADER_BYTES as u64, 0))
    }

    /// Resumes appending to a log that already holds `bytes` valid bytes
    /// and `records` records. The caller must have truncated the sink to
    /// exactly `bytes` first.
    fn resume(out: F, bytes: u64, records: u64) -> Self {
        Self {
            out,
            bytes,
            records,
            group: Vec::new(),
        }
    }

    /// One write+sync attempt at the whole group; reports which stage
    /// failed.
    fn append_group_once(&mut self) -> Result<(), (FrameStage, io::Error)> {
        let site = wal_obs();
        let span = site.append_ns.span("wal.append");
        self.out
            .write_all(&self.group)
            .map_err(|e| (FrameStage::Write, e))?;
        let sync = site.fsync_ns.span("wal.fsync");
        self.out.sync().map_err(|e| (FrameStage::Sync, e))?;
        site.syncs.inc();
        sync.end();
        span.end();
        Ok(())
    }

    /// Appends one update record per entry of `updates`, in order, as
    /// one group: one write of every frame, one sync, with retry and
    /// truncation per group. `Ok` acknowledges all of them; `Err` none (a
    /// group cut mid-write by a crash may leave leading records that
    /// were never acknowledged — the promise a single record cut between
    /// its write and its sync already had).
    pub fn append_updates<G: ValueCodec, P: AsRef<[i64]>>(
        &mut self,
        updates: &[(P, G)],
        policy: &RetryPolicy,
    ) -> Result<u64, IoError> {
        self.group.clear();
        for (point, delta) in updates {
            push_frame(&mut self.group, |out| {
                encode_update(out, point.as_ref(), delta)
            })?;
        }
        self.append_group(updates.len() as u64, policy)
    }

    /// Writes the `records` frames in `self.group` and syncs, with
    /// bounded retry + exponential backoff; returns the log size in
    /// bytes after the append — the durable high-water mark. Before
    /// every retry (and after a final failure) the log is truncated
    /// back to the acknowledged high-water mark, so a torn partial frame
    /// can never precede a later acked record and a synced-but-unacked
    /// group is removed rather than duplicated.
    ///
    /// ENOSPC is never retried — it returns [`IoError::ReadOnly`]
    /// immediately so the caller can degrade.
    fn append_group(&mut self, records: u64, policy: &RetryPolicy) -> Result<u64, IoError> {
        let site = wal_obs();
        let mut retries = 0u32;
        loop {
            match self.append_group_once() {
                Ok(()) => {
                    self.bytes += self.group.len() as u64;
                    self.records += records;
                    site.append_records.add(records);
                    site.append_bytes.add(self.group.len() as u64);
                    return Ok(self.bytes);
                }
                Err((stage, e)) => {
                    site.io_faults.inc();
                    // Restore the tail to the acknowledged high-water mark.
                    let torn = self.out.truncate(self.bytes).is_err();
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

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> F {
        self.out
    }
}

/// What a log scan found: how many intact records, where the valid
/// prefix ends, and why the scan stopped.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Intact records handed to the visitor, in append order.
    pub records: u64,
    /// Bytes of the valid prefix (header + intact records). Truncating
    /// the log file to this length yields a clean log.
    pub valid_bytes: u64,
    /// Why the scan stopped before the end of the input, if it did.
    /// `None` means the log is clean end to end.
    pub truncated: Option<String>,
}

impl WalScan {
    /// True when no torn or corrupt tail was dropped.
    pub fn is_clean(&self) -> bool {
        self.truncated.is_none()
    }
}

fn invalid_data(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Reads into `buf` until it is full or the input ends; returns the
/// bytes read. The end of the input is the one short read a scan
/// forgives (a torn tail); every other error is the caller's.
fn fill(input: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// The record framed next in `input`, `offset` bytes into the log — its
/// frame's length, and its delta with the point decoded into `point` —
/// `Ok(None)` at a clean end, or `Err(why)` when there is no intact one
/// there. `payload` is the reused payload buffer.
fn next_record<G: ValueCodec>(
    input: &mut impl Read,
    offset: u64,
    payload: &mut Vec<u8>,
    point: &mut Vec<i64>,
) -> io::Result<Result<Option<(usize, G)>, String>> {
    let mut frame = [0u8; WAL_FRAME_BYTES];
    match fill(input, &mut frame)? {
        0 => return Ok(Ok(None)),
        WAL_FRAME_BYTES => {}
        _ => return Ok(Err(format!("torn frame at byte {offset}"))),
    }
    let word =
        |at: usize| u32::from_le_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]]);
    let (len, crc) = (word(0) as usize, word(4));
    if len as u64 > MAX_RECORD_BYTES {
        return Ok(Err(format!(
            "implausible record length {len} at byte {offset} (corrupt frame)"
        )));
    }
    // At most MAX_RECORD_BYTES, whatever a torn length says.
    payload.resize(len, 0);
    if fill(input, payload)? < len {
        return Ok(Err(format!("torn record at byte {offset}")));
    }
    if crc32(payload) != crc {
        return Ok(Err(format!("checksum mismatch at byte {offset}")));
    }
    Ok(decode_update(payload, point)
        .map(|delta| Some((WAL_FRAME_BYTES + len, delta)))
        .map_err(|reason| format!("undecodable record at byte {offset}: {reason}")))
}

/// Scans a log, handing every intact record to `visit` as it is decoded
/// — its point, its delta, and the log's length once it was
/// acknowledged — and stopping at the first torn or corrupt one (see
/// the module docs for the contract). The log streams in: a byte slice,
/// or a [`VerifiedReader`](crate::vfs::VerifiedReader) off a disk. One
/// point buffer and one payload buffer serve every record, so the scan
/// allocates nothing per record and holds no more of the log than one
/// record.
///
/// The end of the input mid-record is a torn tail; any other read error
/// propagates, and nothing has been truncated. Errors too on a
/// *structurally alien* input — an intact-length header whose magic or
/// version is wrong — and when `visit` refuses a record, as
/// `InvalidData` "record N: …" (N counts from 0). A header cut short by
/// a crash is a valid empty log with a torn tail.
pub fn scan_wal<G: ValueCodec>(
    mut log: impl Read,
    mut visit: impl FnMut(&[i64], G, u64) -> Result<(), String>,
) -> io::Result<WalScan> {
    let mut scan = WalScan::default();
    let mut header = [0u8; WAL_HEADER_BYTES];
    let got = fill(&mut log, &mut header)?;
    if !WAL_MAGIC.starts_with(&header[..got.min(4)]) {
        return Err(invalid_data("not a DDC WAL (bad magic)".to_string()));
    }
    if got < WAL_HEADER_BYTES {
        // A kill before the header hit the disk: an empty log, torn.
        scan.truncated = Some("torn header".to_string());
        return Ok(scan);
    }
    if header[4] != WAL_VERSION {
        return Err(invalid_data(format!(
            "unsupported WAL version {}",
            header[4]
        )));
    }
    let (mut payload, mut point) = (Vec::new(), Vec::new());
    scan.valid_bytes = WAL_HEADER_BYTES as u64;
    loop {
        let at = scan.valid_bytes;
        let (len, delta) = match next_record(&mut log, at, &mut payload, &mut point)? {
            Ok(Some(record)) => record,
            Ok(None) => break,
            Err(why) => {
                scan.truncated = Some(why);
                break;
            }
        };
        let end = at + len as u64;
        visit(&point, delta, end)
            .map_err(|e| invalid_data(format!("record {}: {e}", scan.records)))?;
        scan.records += 1;
        scan.valid_bytes = end;
    }
    Ok(scan)
}

/// Cuts the log at `path` back to the valid prefix its `scan` found and
/// opens it for appending: a torn header is written afresh (the log
/// starts over, empty), a torn or corrupt tail is truncated to
/// [`WalScan::valid_bytes`]. Boot resumes the returned writer;
/// `ddc wal truncate-check --fix` drops it.
pub fn repair_tail<V: Vfs>(vfs: &V, path: &str, scan: &WalScan) -> io::Result<WalWriter<V::File>> {
    if scan.valid_bytes < WAL_HEADER_BYTES as u64 {
        return WalWriter::create(vfs.open(path, OpenMode::Create)?);
    }
    let mut file = vfs.open(path, OpenMode::Append)?;
    if !scan.is_clean() {
        file.truncate(scan.valid_bytes)?;
    }
    Ok(WalWriter::resume(file, scan.valid_bytes, scan.records))
}

/// The checkpoint's second half: retires the log at `path`, which the
/// snapshot just written covers, by starting a fresh one there —
/// `open(Create)` truncates it, then the header is written and synced.
/// If that fails the stale log is removed (best effort), so it cannot be
/// replayed onto a snapshot it is already baked into.
pub fn rotate_wal<V: Vfs>(vfs: &V, path: &str) -> io::Result<WalWriter<V::File>> {
    let fresh = vfs.open(path, OpenMode::Create).and_then(WalWriter::create);
    if fresh.is_err() {
        wal_obs().io_faults.inc();
        let _ = vfs.remove(path);
    }
    fresh
}
