//! Crash-recovery sweep: simulate a process kill at **every byte
//! offset** of the write-ahead log and check that recovery restores
//! exactly the acknowledged prefix.
//!
//! The crate's [`Rig`] — a durable cube on an in-memory disk, booted,
//! checkpointed and crashed as `ddc serve --durable` would be — is
//! [`walk`]ed along a [`CheckTrace`] beside the hash-map oracle; after
//! every logged record the oracle's state is photographed. A checkpoint
//! rotates the log and starts the photos again from the snapshot; a
//! mid-trace crash re-boots and *resumes* the log, so the records
//! before it stay under the sweep. The sweep then reads `wal.log` back
//! from the disk, cuts it at each byte offset, parses the surviving
//! prefix, and recovers — the result must equal the oracle photo for
//! exactly that many records: **no acknowledged op lost, no
//! unacknowledged op resurrected.** (A cut is a plain byte slice, so
//! these recoveries — and the corruption probe's — are the one place in
//! the crate that recovers from slices; that a cut log is then
//! *resumed* correctly is `rig::tests`' half.)
//!
//! Consecutive updates of the trace are committed in **groups** of
//! seeded size (1..=8 records: one write, one sync —
//! [`ddc_core::DurableCube::add_group`], what a pipelined run costs the
//! server),
//! and for a group the contract the sweep checks reads: every record of
//! every group whose sync returned survives; what survives any cut is a
//! *record prefix* of the submitted order; a group cut mid-write may
//! leave leading records that were never acknowledged — the promise a
//! single record cut between its write and its sync already had.
//!
//! The sweep also proves the checksum is load-bearing: a flipped
//! payload byte must be caught and cleanly truncated, while
//! [`corruption_divergence`] re-stamps the damaged frame's CRC and shows
//! the same damage then slips through and silently diverges — the
//! predicate the shrinker minimizes into a replayable `.trace`.

use ddc_core::vfs::MemVfs;
use ddc_core::wal::{self, RecoveryReport, WalScan, WAL_FRAME_BYTES, WAL_HEADER_BYTES};
use ddc_core::DdcConfig;
use ddc_workload::{CheckTrace, DdcRng};

use crate::rig::{walk, Rig, SNAP_PATH, WAL_PATH};

/// Populated cells, sorted.
type Entries = Vec<(Vec<i64>, i64)>;

/// What a [`crash_sweep`] found. Clean means no failures and the
/// corruption probe was caught.
#[derive(Clone, Debug, Default)]
pub struct CrashSweepReport {
    /// Final log length in bytes.
    pub wal_bytes: usize,
    /// Records in the final log.
    pub records: usize,
    /// Kill offsets swept (`wal_bytes + 1`, including 0 and the end).
    pub offsets: usize,
    /// Full recoveries performed (one per distinct surviving prefix).
    pub recoveries: usize,
    /// Commits of consecutive trace updates that wrote the final log,
    /// and the records they carried (the rest are the trace's cell
    /// sets, each an update record committed alone).
    pub groups: usize,
    /// See [`CrashSweepReport::groups`].
    pub grouped_records: usize,
    /// Human-readable contract violations, empty when clean.
    pub failures: Vec<String>,
    /// True when the flipped-byte probe was truncated cleanly at the
    /// damaged record (vacuously true if the log had no damageable
    /// record).
    pub corruption_caught: bool,
}

impl CrashSweepReport {
    /// No lost or resurrected ops at any offset, and the checksum
    /// caught the injected damage.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.corruption_caught
    }
}

/// The durable side of one trace replay: everything that would survive
/// a kill (snapshot + log), plus the oracle photos to recover against.
pub(crate) struct DurableRun {
    /// Log bytes at end of trace.
    pub(crate) wal: Vec<u8>,
    /// Last checkpoint, if any op took one.
    pub(crate) snapshot: Option<Vec<u8>>,
    /// `states[r]` = oracle entries after `r` records of the final log
    /// were acknowledged (`states[0]` is the snapshot state).
    pub(crate) states: Vec<Entries>,
    /// What the walk reported while replaying (reads and mid-trace
    /// recoveries compared against the oracle).
    failures: Vec<String>,
    /// `(commits, records)` of the groups in the final log.
    groups: (usize, usize),
    d: usize,
    config: DdcConfig,
}

impl DurableRun {
    /// What a boot would find if the kill left `log` beside the
    /// snapshot: the recovered entries and the recovery's own account.
    /// The sweep cuts and damages plain bytes, so this one recovery
    /// reads slices; every other boot in the crate is the rig's.
    fn recover(&self, log: &[u8]) -> std::io::Result<(Entries, RecoveryReport)> {
        let mut snapshot = self.snapshot.as_deref();
        let snapshot = snapshot.as_mut().map(|s| s as &mut dyn std::io::Read);
        let (cube, report) = wal::recover::<i64>(self.d, snapshot, log, self.config)?;
        let mut got = cube.entries();
        got.sort();
        Ok((got, report))
    }
}

/// Walks the rig along `trace` on an in-memory disk — checkpoints
/// rotate the log, a mid-trace crash re-boots and resumes it, updates
/// commit in groups of the trace's own seeded sizes (the same trace,
/// the same log) — photographing the oracle at every record.
pub(crate) fn replay_durable(trace: &CheckTrace, config: DdcConfig) -> Result<DurableRun, String> {
    let (disk, d) = (MemVfs::new(), trace.dims.len());
    let mut rig = Rig::boot(disk.clone(), d, config).map_err(|e| format!("boot: {e}"))?;
    let mut states = Vec::new();
    let mut sizes = DdcRng::seed_from_u64(trace.ops.len() as u64);
    let walked = walk(
        &mut rig,
        trace,
        || sizes.gen_range(1..=8usize),
        || {},
        |records, oracle| {
            // A checkpoint starts the count again from its own state.
            states.truncate(records as usize);
            states.push(oracle.entries());
        },
    );
    Ok(DurableRun {
        wal: disk.contents(WAL_PATH).unwrap_or_default(),
        snapshot: disk.contents(SNAP_PATH),
        states,
        failures: walked.violations,
        groups: walked.groups,
        d,
        config,
    })
}

/// Scans `log`, collecting each intact record's end offset: `ends[i]`
/// is the log's length once record `i` was acknowledged.
pub(crate) fn record_ends(log: &[u8]) -> std::io::Result<(Vec<u64>, WalScan)> {
    let mut ends = Vec::new();
    let scan = wal::scan_wal::<i64>(log, |_, _, end| {
        ends.push(end);
        Ok(())
    })?;
    Ok((ends, scan))
}

/// The byte the corruption probe flips: the low byte of the first
/// coordinate of the log's first record (header | frame | tag(1) |
/// arity(4) | first coordinate…). Every record is an update, so any
/// non-empty log has one.
const CORRUPTIBLE_BYTE: usize = WAL_HEADER_BYTES + WAL_FRAME_BYTES + 1 + 4;

/// Simulates a kill at **every byte offset** of the trace's final
/// write-ahead log and verifies the recovery contract at each one:
/// the recovered cube equals the oracle photo for exactly the records
/// that survived the cut. Also flips one payload byte and checks the
/// checksum truncates the log cleanly at the damaged record. `config`
/// picks the engine under test — `ddc check crash --paged` passes the
/// paged leaf backend, where recovery replays the log onto buffer-pool
/// pages instead of slab memory.
pub fn crash_sweep(trace: &CheckTrace, config: DdcConfig) -> Result<CrashSweepReport, String> {
    let mut run = replay_durable(trace, config)?;

    let (ends, full) = record_ends(&run.wal).map_err(|e| format!("final log unreadable: {e}"))?;
    let mut report = CrashSweepReport {
        wal_bytes: run.wal.len(),
        records: ends.len(),
        offsets: run.wal.len() + 1,
        failures: std::mem::take(&mut run.failures),
        groups: run.groups.0,
        grouped_records: run.groups.1,
        ..Default::default()
    };
    if !full.is_clean() {
        report
            .failures
            .push(format!("final log truncated: {:?}", full.truncated));
    }
    if run.states.len() != ends.len() + 1 {
        report.failures.push(format!(
            "bookkeeping: {} oracle photos for {} records",
            run.states.len(),
            ends.len()
        ));
        return Ok(report);
    }

    // The sweep proper. `ends` is sorted, so the surviving record count
    // is monotone in the cut — one recovery per distinct count. A cut
    // inside a group's write is judged like any other: the records whose
    // last byte made it are a prefix of the submitted order, and the
    // state is the oracle's after exactly those.
    let mut survivors = 0usize;
    let mut verified: Option<usize> = None;
    for cut in 0..=run.wal.len() {
        while survivors < ends.len() && ends[survivors] as usize <= cut {
            survivors += 1;
        }
        let prefix = match wal::scan_wal::<i64>(&run.wal[..cut], |_, _, _| Ok(())) {
            Ok(p) => p,
            Err(e) => {
                report.failures.push(format!("cut {cut}: read: {e}"));
                continue;
            }
        };
        if prefix.records as usize != survivors {
            report.failures.push(format!(
                "cut {cut}: {} records parsed, {survivors} were written whole",
                prefix.records
            ));
            continue;
        }
        if verified == Some(survivors) {
            continue;
        }
        match run.recover(&run.wal[..cut]) {
            Ok((got, rec)) => {
                report.recoveries += 1;
                if rec.replayed != survivors {
                    report.failures.push(format!(
                        "cut {cut}: replayed {} records, expected {survivors}",
                        rec.replayed
                    ));
                }
                if got != run.states[survivors] {
                    report.failures.push(format!(
                        "cut {cut}: recovered state diverges after {survivors} records \
                         (lost an acked op or resurrected an unacked one)"
                    ));
                }
            }
            Err(e) => report.failures.push(format!("cut {cut}: recover: {e}")),
        }
        verified = Some(survivors);
    }

    // Corruption probe: one flipped payload byte must be caught by the
    // CRC and cleanly truncated at the damaged record, the first.
    if ends.is_empty() {
        report.corruption_caught = true;
        return Ok(report);
    }
    let idx = CORRUPTIBLE_BYTE;
    let mut damaged = run.wal.clone();
    damaged[idx] ^= 0x01;
    match run.recover(&damaged) {
        Ok((got, rec_report)) => {
            report.corruption_caught =
                rec_report.truncated.is_some() && rec_report.replayed == 0 && got == run.states[0];
            if !report.corruption_caught {
                report.failures.push(format!(
                    "corrupt byte {idx}: expected clean truncation at record 0, \
                     got replayed={} truncated={:?}",
                    rec_report.replayed, rec_report.truncated
                ));
            }
        }
        Err(e) => report
            .failures
            .push(format!("corrupt byte {idx}: recover errored: {e}")),
    }

    Ok(report)
}

/// The injected-bug detector for the shrinker: with the damaged frame's
/// CRC **re-stamped** over the flipped payload byte — what a log
/// without a checksum amounts to — the record decodes to a *wrong* one
/// and recovery silently diverges from the oracle. Returns `true` when
/// `trace` exposes that divergence — pass this to
/// [`ddc_workload::shrink_trace`] to minimize the repro.
pub fn corruption_divergence(trace: &CheckTrace) -> bool {
    let Ok(run) = replay_durable(trace, DdcConfig::dynamic()) else {
        return false;
    };
    let Ok((ends, _)) = record_ends(&run.wal) else {
        return false;
    };
    if run.states.len() != ends.len() + 1 || ends.is_empty() {
        return false;
    }
    let mut damaged = run.wal.clone();
    damaged[CORRUPTIBLE_BYTE] ^= 0x01;
    // The first record's payload runs from just past its frame to its
    // end; its CRC field sits just before it.
    let payload = WAL_HEADER_BYTES + WAL_FRAME_BYTES..ends[0] as usize;
    let crc = wal::crc32(&damaged[payload.clone()]);
    damaged[payload.start - 4..payload.start].copy_from_slice(&crc.to_le_bytes());
    // Only a *silent* divergence counts: recovery succeeded (the
    // framing did not catch the damage) but the state is wrong.
    run.recover(&damaged)
        .is_ok_and(|(got, _)| Some(&got) != run.states.last())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_workload::{CheckOp, CheckTraceConfig};

    fn seeded_trace(seed: u64, d: usize, ops: usize) -> CheckTrace {
        let mut rng = DdcRng::seed_from_u64(seed);
        CheckTrace::generate(
            d,
            CheckTraceConfig {
                ops,
                max_cells: 512,
            },
            &mut rng,
        )
    }

    #[test]
    fn sweep_is_clean_on_seeded_traces() {
        let mut grouped = (0, 0);
        for (seed, d) in [(11u64, 1usize), (12, 2), (13, 3)] {
            let trace = seeded_trace(seed, d, 60);
            let report = crash_sweep(&trace, DdcConfig::dynamic()).unwrap();
            assert!(
                report.is_clean(),
                "d={d}: {:?}",
                report.failures.iter().take(5).collect::<Vec<_>>()
            );
            assert_eq!(report.offsets, report.wal_bytes + 1);
            assert!(report.recoveries >= 1);
            grouped = (
                grouped.0 + report.groups,
                grouped.1 + report.grouped_records,
            );
        }
        // Some of those logs were written more than one record a sync.
        assert!(grouped.1 > grouped.0, "{grouped:?}");
    }

    #[test]
    fn sweep_handles_empty_trace() {
        let trace = CheckTrace {
            origin: vec![0],
            dims: vec![4],
            ops: Vec::new(),
        };
        let report = crash_sweep(&trace, DdcConfig::dynamic()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.records, 0);
        // Header-only log: 6 kill offsets (0..=5).
        assert_eq!(report.offsets, WAL_HEADER_BYTES + 1);
    }

    #[test]
    fn disabled_checksums_let_damage_diverge() {
        // A trace with at least one update has a corruptible byte, and
        // with the CRC re-stamped over it (the checksum disabled from
        // the outside) the flipped coordinate must surface as a silent
        // state divergence.
        let trace = CheckTrace {
            origin: vec![0, 0],
            dims: vec![8, 8],
            ops: vec![
                CheckOp::Update {
                    point: vec![2, 3],
                    delta: 7,
                },
                CheckOp::Update {
                    point: vec![5, 1],
                    delta: -4,
                },
            ],
        };
        assert!(corruption_divergence(&trace));
        // …while the checksummed sweep stays clean on the same trace.
        assert!(crash_sweep(&trace, DdcConfig::dynamic())
            .unwrap()
            .is_clean());
    }
}
