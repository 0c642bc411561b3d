//! Appending to the log ([`WalWriter`]) and scanning it back
//! ([`read_wal`]).

use std::io;

use ddc_array::AbelianGroup;

use super::record::{
    crc32, encode_update, WalOp, MAX_RECORD_BYTES, WAL_FRAME_BYTES, WAL_HEADER_BYTES, WAL_MAGIC,
    WAL_VERSION,
};
use super::wal_obs;
use crate::obs;
use crate::persist::ValueCodec;
use crate::vfs::{is_no_space, IoError, RetryPolicy, VfsFile};

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
/// **acknowledged** exactly when the append that carried it
/// ([`WalWriter::append_with_retry`], [`WalWriter::append_updates`])
/// returns `Ok`.
#[derive(Debug)]
pub struct WalWriter<F: VfsFile> {
    out: F,
    bytes: u64,
    records: u64,
    io_faults: u64,
    io_retries: u64,
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
    /// and `records` records (as reported by [`read_wal`]). The caller
    /// must have truncated the sink to exactly `bytes` first.
    pub fn resume(out: F, bytes: u64, records: u64) -> Self {
        Self {
            out,
            bytes,
            records,
            io_faults: 0,
            io_retries: 0,
            group: Vec::new(),
        }
    }

    /// One write+sync attempt at the whole group; reports which stage
    /// failed.
    fn append_group_once(&mut self) -> Result<(), (FrameStage, io::Error)> {
        let site = wal_obs();
        let span = obs::timer();
        self.out
            .write_all(&self.group)
            .map_err(|e| (FrameStage::Write, e))?;
        let sync = obs::timer();
        self.out.sync().map_err(|e| (FrameStage::Sync, e))?;
        site.syncs.inc();
        sync.observe("wal.fsync", &site.fsync_ns);
        span.observe("wal.append", &site.append_ns);
        Ok(())
    }

    /// Appends one record and syncs: the group of one (see
    /// [`WalWriter::append_updates`] for the retry and truncation
    /// contract, which is per group).
    pub fn append_with_retry<G: AbelianGroup + ValueCodec>(
        &mut self,
        op: &WalOp<G>,
        policy: &RetryPolicy,
    ) -> Result<u64, IoError> {
        self.group.clear();
        push_frame(&mut self.group, |out| op.encode_payload(out))?;
        self.append_group(1, policy)
    }

    /// Appends one [`WalOp::Update`] record per entry of `updates`, in
    /// order, as one group: one write of every frame, one sync. `Ok`
    /// acknowledges all of them; `Err` none (a group cut mid-write by a
    /// crash may leave leading records that were never acknowledged —
    /// the promise a single record cut between its write and its sync
    /// already had). Returns as [`WalWriter::append_with_retry`] does.
    pub fn append_updates<G: AbelianGroup + ValueCodec>(
        &mut self,
        updates: &[(Vec<i64>, G)],
        policy: &RetryPolicy,
    ) -> Result<u64, IoError> {
        self.group.clear();
        for (point, delta) in updates {
            push_frame(&mut self.group, |out| encode_update(out, point, delta))?;
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
                    self.io_faults += 1;
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
pub fn read_wal<G: AbelianGroup + ValueCodec>(data: &[u8]) -> io::Result<WalReplay<G>> {
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
        if len as u64 > MAX_RECORD_BYTES {
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
        if crc32(payload) != crc {
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
