//! Appending to the log ([`WalWriter`]) and scanning it back
//! ([`read_wal`]).

use std::io;

use ddc_array::AbelianGroup;

use super::record::{
    crc32, WalOp, MAX_RECORD_BYTES, WAL_FRAME_BYTES, WAL_HEADER_BYTES, WAL_MAGIC, WAL_VERSION,
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

/// Appends framed, checksummed records to a [`VfsFile`], issuing the
/// sync barrier on each one before reporting success — a record is
/// **acknowledged** exactly when [`WalWriter::append_with_retry`]
/// returns `Ok`.
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

    /// Appends one record and syncs, with bounded retry + exponential
    /// backoff; returns the log size in bytes after the append — the
    /// durable high-water mark. Before every retry (and after a final
    /// failure) the log is truncated back to the acknowledged
    /// high-water mark, so a torn partial frame can never precede a
    /// later acked record and a synced-but-unacked frame is removed
    /// rather than duplicated.
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
                    self.bytes += frame.len() as u64;
                    self.records += 1;
                    site.append_records.inc();
                    site.append_bytes.add(frame.len() as u64);
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
