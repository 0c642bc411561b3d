//! Write-ahead logging and crash recovery (the durability layer).
//!
//! The paper's headline property — the cube stays *updatable in place*
//! (§4–§6) — is worthless in a serving deployment if a process kill
//! loses every acknowledged update. This module makes the update path
//! crash-safe with the classic two-piece protocol:
//!
//! 1. **Snapshot** — a point-in-time image written by
//!    [`GrowableCube::save`](crate::GrowableCube::save), taken at
//!    checkpoints.
//! 2. **Write-ahead log** — every update is appended to a checksummed,
//!    length-prefixed log *and flushed* before it is acknowledged and
//!    applied in memory.
//!
//! Recovery loads the last good snapshot and replays the log,
//! **truncating at the first corrupt or partial record** instead of
//! erroring — a torn tail is the expected signature of a kill mid-write,
//! not a reason to refuse service. The invariant proven by the
//! `ddc check crash` sweep (see `ddc-check`): for a kill at *any* byte
//! offset of `wal.log`, the recovered state equals exactly the
//! acknowledged prefix of operations — no acked write is lost, no
//! unacked write is resurrected. The sweep cuts the log only. A kill
//! inside a checkpoint, after its snapshot rename and before its log
//! rotation, leaves the new snapshot beside the old log, and the next
//! boot replays that log a second time (see
//! [`DurableCube::checkpoint_vfs`]; ROADMAP item 1).
//!
//! ## Log format
//!
//! ```text
//! header:  magic "DDCW" | u8 version (1)
//! record:  u32 payload_len | u32 crc32(payload) | payload
//! payload: u8 tag (1) | u32 d | d × i64 point | value bytes
//! ```
//!
//! The log holds one record kind, the update: the paper's one mutation,
//! and the only record `ddc serve --durable` writes. Tags 2 (cell set)
//! and 3 (covered-box growth note) are retired — no shipped path wrote
//! them — and replay truncates at one as at any undecodable record
//! ("unknown record tag").
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
//! * reads are streamed and verified ([`crate::vfs::VerifiedReader`]:
//!   each chunk read until two consecutive images agree, within
//!   [`crate::vfs::READ_ATTEMPTS`]); a read that never verifies is an
//!   error recovery returns, never a torn tail it truncates;
//! * the `ddc check disk` chaos sweep drives seeded fault streams and
//!   the committed fault repros (traces with their faults inline)
//!   through this path and asserts no acked update is ever lost.
//!
//! ## Layout
//!
//! `record` holds the format constants, the CRC and the update
//! record's codec. `log` holds the [`WalWriter`] and each job on the log
//! file once: the scan [`scan_wal`], which hands every intact record to
//! a visitor as it is decoded (recovery applies it there; `ddc wal` and
//! the check sweeps count or collect), the tail repair [`repair_tail`]
//! (boot and `ddc wal truncate-check --fix`), and the checkpoint's
//! rotation half [`rotate_wal`]. `durable` holds the cube-plus-log types:
//! [`DurableCube`] — also the logged
//! [`CommitTarget`](crate::CommitTarget) of the commit pipeline —
//! [`recover`], [`recover_vfs`], the checkpoint's snapshot half
//! [`write_snapshot`], and [`SharedDurableCube`], that pipeline over a
//! `DurableCube`. [`DurableCube::checkpoint_vfs`] and `ddc wal recover
//! --out F --rotate` are those two halves in that order. [`IoError`] and
//! [`RetryPolicy`] live beside the [`crate::vfs`] seam and are
//! re-exported here.

use crate::obs;
use crate::sync::{Arc, OnceLock};

mod durable;
mod log;
mod record;

pub use crate::vfs::{IoError, RetryPolicy};
pub use durable::{
    recover, recover_vfs, write_snapshot, DurableCube, RecoveryReport, SharedDurableCube,
};
pub use log::{repair_tail, rotate_wal, scan_wal, WalScan, WalWriter};
pub use record::{
    crc32, MAX_RECORD_BYTES, WAL_FRAME_BYTES, WAL_HEADER_BYTES, WAL_MAGIC, WAL_VERSION,
};

/// Durability-path observability handles: append latency (the full
/// log-and-sync), the sync portion alone, records against the syncs that
/// covered them (plain counters: alive with timing off), recovery replay, and the
/// disk-fault counters surfaced as `ddc_wal_io_faults` /
/// `ddc_wal_io_retries` / `ddc_degraded_mode`.
struct WalObs {
    append_ns: Arc<obs::Histogram>,
    fsync_ns: Arc<obs::Histogram>,
    recover_ns: Arc<obs::Histogram>,
    append_records: Arc<obs::Counter>,
    syncs: Arc<obs::Counter>,
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
        syncs: obs::counter("wal.syncs"),
        append_bytes: obs::counter("wal.append.bytes"),
        recover_records: obs::counter("wal.recover.records"),
        recover_runs: obs::counter("wal.recover.runs"),
        io_faults: obs::counter("wal.io.faults"),
        io_retries: obs::counter("wal.io.retries"),
        degraded_mode: obs::gauge("degraded.mode"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DdcConfig;
    use crate::growth::GrowableCube;
    use crate::vfs::{FaultKind, FaultVfs, PlannedFault, Vfs};
    use std::time::Duration;

    fn sample_ops() -> Vec<(Vec<i64>, i64)> {
        vec![
            (vec![0, 0], 5),
            (vec![-3, 7], -9),
            (vec![4, -1], 3),
            (vec![-3, 7], 2),
        ]
    }

    /// Appends each update as a group of one.
    fn write_log(ops: &[(Vec<i64>, i64)]) -> (Vec<u8>, Vec<u64>) {
        let mut w = WalWriter::create(Vec::new()).unwrap();
        let mut ends = Vec::new();
        for op in ops {
            let single = std::slice::from_ref(op);
            ends.push(w.append_updates(single, &RetryPolicy::instant()).unwrap());
        }
        (w.into_inner(), ends)
    }

    type Records = Vec<(Vec<i64>, i64)>;

    /// Scans `log`, collecting what the visitor was handed: every
    /// record and its end offset.
    fn scan_all(log: &[u8]) -> std::io::Result<(Records, Vec<u64>, WalScan)> {
        let (mut ops, mut ends) = (Vec::new(), Vec::new());
        let scan = scan_wal(log, |point, delta, end| {
            ops.push((point.to_vec(), delta));
            ends.push(end);
            Ok(())
        })?;
        Ok((ops, ends, scan))
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
        let (got, got_ends, scan) = scan_all(&log).unwrap();
        assert!(scan.is_clean());
        assert_eq!(got, ops);
        assert_eq!((scan.records, scan.valid_bytes as usize), (4, log.len()));
        assert_eq!(got_ends, ends);
    }

    #[test]
    fn truncation_at_every_offset_yields_exact_record_prefix() {
        let ops = sample_ops();
        let (log, ends) = write_log(&ops);
        for cut in 0..=log.len() {
            let (got, _, scan) = scan_all(&log[..cut]).unwrap();
            let expect = ends.iter().filter(|&&e| e as usize <= cut).count();
            assert_eq!(scan.records as usize, expect, "cut at byte {cut}");
            assert_eq!(got[..], ops[..expect], "cut at byte {cut}");
            // A clean scan only when the cut lands exactly on a record
            // boundary (or the bare header).
            let on_boundary = cut == WAL_HEADER_BYTES || ends.iter().any(|&e| e as usize == cut);
            assert_eq!(scan.is_clean(), on_boundary, "cut at byte {cut}");
        }
    }

    /// A group is its records' frames back to back under one sync, so
    /// a kill anywhere inside its write leaves a record prefix — leading
    /// records of a group that was never acknowledged included.
    #[test]
    fn a_group_cut_at_every_byte_recovers_to_a_record_prefix() {
        let group = [(vec![1, 2], 5i64), (vec![-3, 7], -9), (vec![1, 2], 4)];
        let mut w = WalWriter::create(Vec::new()).unwrap();
        let end = w.append_updates(&group, &RetryPolicy::instant()).unwrap();
        assert_eq!((w.records(), w.bytes()), (3, end));
        let log = w.into_inner();
        assert_eq!(log, write_log(&group).0);
        let record = (log.len() - WAL_HEADER_BYTES) / group.len();
        assert_eq!(record, 37);
        for cut in 0..=log.len() {
            let survivors = cut.saturating_sub(WAL_HEADER_BYTES) / record;
            let (cube, report) =
                recover::<i64>(2, None, &log[..cut], DdcConfig::dynamic()).unwrap();
            assert_eq!(report.replayed, survivors, "cut at byte {cut}");
            let prefix: i64 = group[..survivors].iter().map(|(_, delta)| delta).sum();
            assert_eq!(cube.total(), prefix, "cut at byte {cut}");
        }
    }

    /// The scan in the cumulant shape: a log of groups of mixed sizes,
    /// points near and far (so the cube grows), scanned with a visitor
    /// that applies each record to a cube and to a hash-map oracle.
    /// After every record the cube's invariants hold, its total and the
    /// touched cell match the oracle, and the end offset the scan hands
    /// over moves forward — to the one `append_updates` returned when the
    /// record closes its group.
    #[test]
    fn a_scan_applies_each_record_as_the_oracle_does() {
        let mut rng = ddc_workload::DdcRng::seed_from_u64(39);
        let mut w = WalWriter::create(Vec::new()).unwrap();
        let mut closes = std::collections::BTreeMap::new();
        for _ in 0..60 {
            let group: Vec<(Vec<i64>, i64)> = (0..rng.gen_range(1..=8usize))
                .map(|_| {
                    let reach = if rng.gen_bool(0.1) { 5000 } else { 40 };
                    let mut coordinate = || rng.gen_range(-reach..=reach);
                    let point = vec![coordinate(), coordinate()];
                    (point, rng.gen_range(-9..=9i64))
                })
                .collect();
            let end = w.append_updates(&group, &RetryPolicy::instant()).unwrap();
            closes.insert(w.records(), end);
        }
        let (records, log) = (w.records(), w.into_inner());

        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        let mut oracle = std::collections::HashMap::<Vec<i64>, i64>::new();
        let (mut seen, mut last_end) = (0u64, WAL_HEADER_BYTES as u64);
        let scan = scan_wal(&log[..], |point, delta: i64, end| {
            cube.check_cover(point).map_err(|e| e.to_string())?;
            cube.add(point, delta);
            *oracle.entry(point.to_vec()).or_default() += delta;
            seen += 1;
            let total: i64 = oracle.values().sum();
            assert_eq!(cube.check_invariants(), total, "record {seen}");
            assert_eq!(cube.total(), total, "record {seen}");
            assert_eq!(cube.cell(point), oracle[point], "record {seen}");
            assert!(end > last_end, "record {seen}");
            if let Some(&group_end) = closes.get(&seen) {
                assert_eq!(end, group_end, "record {seen} closes its group");
            }
            last_end = end;
            Ok(())
        })
        .unwrap();
        assert!(scan.is_clean(), "{:?}", scan.truncated);
        assert_eq!((scan.records, seen), (records, records));
        assert_eq!(
            (scan.valid_bytes, last_end),
            (log.len() as u64, log.len() as u64)
        );
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
        let (_, _, scan) = scan_all(&damaged).unwrap();
        assert_eq!(scan.records, 1, "{:?}", scan.truncated);
        assert!(scan
            .truncated
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        // Re-stamp the frame's CRC over the damaged payload and the
        // damage sails through — without the checksum, corruption is a
        // wrong record, not a truncation.
        let payload = ends[0] as usize + WAL_FRAME_BYTES..ends[1] as usize;
        let crc = crc32(&damaged[payload.clone()]);
        damaged[payload.start - 4..payload.start].copy_from_slice(&crc.to_le_bytes());
        let (got, _, scan) = scan_all(&damaged).unwrap();
        assert!(scan.is_clean());
        assert_ne!(got[1], ops[1]);
    }

    #[test]
    fn implausible_frame_length_is_corruption_not_allocation() {
        let (mut log, _) = write_log(&sample_ops());
        let at = WAL_HEADER_BYTES;
        log[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (_, _, scan) = scan_all(&log).unwrap();
        assert_eq!(scan.records, 0);
        assert!(scan
            .truncated
            .as_deref()
            .unwrap()
            .contains("implausible record length"));
    }

    #[test]
    fn alien_input_errors_rather_than_truncates() {
        assert!(scan_all(b"NOTAWAL!").is_err());
        let mut wrong_version = WAL_MAGIC.to_vec();
        wrong_version.push(9);
        assert!(scan_all(&wrong_version).is_err());
        // A torn header (prefix of the magic) is a crash signature, not
        // an alien file.
        let (_, _, scan) = scan_all(&WAL_MAGIC[..2]).unwrap();
        assert_eq!(scan.records, 0);
        assert!(!scan.is_clean());
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
        let (log, _) = write_log(&[(vec![1, 1], -10), (vec![9, 9], 4)]);
        let (cube, report) =
            recover::<i64>(2, Some(&mut &snapshot[..]), &log[..], DdcConfig::sparse()).unwrap();
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
        let (cube, report) = recover::<i64>(2, None, &log[..cut], DdcConfig::dynamic()).unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.replayed, 2);
        assert!(report.truncated.is_some());
        assert_eq!(cube.cell(&[0, 0]), 5);
        assert_eq!(cube.cell(&[-3, 7]), -9);
    }

    #[test]
    fn recover_rejects_arity_mismatch() {
        let (log, _) = write_log(&sample_ops()); // 2-dimensional records
        let err = recover::<i64>(3, None, &log[..], DdcConfig::dynamic()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "record 0: update arity 2 != 3");
    }

    const WAL: &str = "cube.wal";
    const SNAP: &str = "cube.snap";

    fn boot(vfs: &FaultVfs) -> DurableCube<i64, crate::vfs::FaultFile> {
        let (cube, _) = recover_vfs::<i64, _>(
            vfs,
            WAL,
            Some(SNAP),
            2,
            DdcConfig::sparse(),
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
        // One fault, one retry: the failed write, then write + sync.
        assert_eq!(vfs.realized().len(), 1);
        assert_eq!(vfs.ops(), boot_ops + 3);
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
        // No retries for ENOSPC (the first append's write + sync, the
        // second's failed write, nothing after), queries still serve the
        // acked prefix.
        assert_eq!(vfs.realized().len(), 1);
        assert_eq!(vfs.ops(), boot_ops + 3);
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
        assert_eq!(vfs.realized().len(), 5);
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

    /// The checkpoint's double-apply window: a kill after the snapshot
    /// rename and before the log rotation leaves the new snapshot beside
    /// the old log, and boot replays the log onto it again — the total
    /// reads 20, not 10. Ignored until the two files carry a log
    /// generation that tells them apart.
    #[test]
    #[ignore = "double-apply window: ROADMAP item 1"]
    fn a_kill_between_snapshot_and_rotation_applies_no_record_twice() {
        let vfs = FaultVfs::explicit_mem(Vec::new());
        let mut cube = boot(&vfs);
        cube.add(&[1, 1], 4).unwrap();
        cube.add(&[2, 2], 6).unwrap();
        // `checkpoint_vfs`'s first step, then the kill.
        write_snapshot(&vfs, SNAP, cube.cube()).unwrap();
        drop(cube);
        assert_eq!(boot(&vfs).cube().total(), 10);
    }

    /// A boot and a checkpoint cost fixed file-op counts: the committed
    /// disk repros (`tests/faults/*.trace`, whose fault ops count file
    /// ops from the op they precede) and `ddc check faults` index
    /// faults by them.
    #[test]
    fn boot_and_checkpoint_file_op_counts_are_pinned() {
        let vfs = FaultVfs::explicit_mem(Vec::new());
        let mut cube = boot(&vfs);
        let fresh = vfs.ops();
        cube.add(&[1, 1], 4).unwrap();
        let before = vfs.ops();
        cube.checkpoint_vfs(&vfs, SNAP, WAL).unwrap();
        let checkpoint = vfs.ops() - before;
        cube.add(&[2, 2], 6).unwrap();
        drop(cube);
        let before = vfs.ops();
        assert_eq!(boot(&vfs).cube().total(), 10);
        let reboot = vfs.ops() - before;
        (vfs.inner()
            .write_atomic(WAL, |w| w.write_all(&WAL_MAGIC[..2])))
        .unwrap();
        let before = vfs.ops();
        assert_eq!(boot(&vfs).cube().total(), 4);
        let torn = vfs.ops() - before;
        assert_eq!((fresh, checkpoint, reboot, torn), (2, 4, 4, 6));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(8),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(4), Duration::from_millis(8));
        assert_eq!(p.backoff(9), Duration::from_millis(8));
    }
}
