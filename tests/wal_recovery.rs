//! Acceptance tests for crash-safe WAL recovery (the tentpole): a kill
//! simulated at **every byte offset** of a 1000-op seeded trace's log
//! recovers exactly the acknowledged prefix — no acked op lost, no
//! unacked op resurrected; torn tails truncate instead of failing; an
//! injected checksum bug is caught, and with verification disabled the
//! same damage is exposed as a divergence and shrunk to a replayable
//! `.trace`; and the operator CLI (`ddc wal recover` /
//! `ddc wal truncate-check`) round-trips real files.

use ddc_check::{corruption_divergence, crash_sweep, refind_seeded_bug};
use ddc_core::vfs::StdVfs;
use ddc_core::wal::IoError;
use ddc_core::{
    wal, DdcConfig, DurableCube, FaultKind, FaultVfs, GrowableCube, PlannedFault, RetryPolicy,
};
use ddc_tests::for_cases;
use ddc_workload::{shrink_trace, CheckOp, CheckTrace, CheckTraceConfig, DdcRng};

type FaultCube = DurableCube<i64, ddc_core::vfs::FaultFile>;

/// Boots a durable cube on a fault-injecting in-memory namespace.
fn boot_on(vfs: &FaultVfs) -> FaultCube {
    wal::recover_vfs::<i64, _>(
        vfs,
        "wal.log",
        Some("snapshot.ddc"),
        2,
        DdcConfig::dynamic(),
        RetryPolicy::instant(),
    )
    .expect("boot")
    .0
}

/// The headline sweep: 1000 mixed ops (updates, sets, growth steps,
/// checkpoints, mid-trace crashes) and a kill at every byte offset of
/// the surviving log.
#[test]
fn thousand_op_seeded_trace_survives_a_kill_at_every_wal_byte_offset() {
    let mut rng = DdcRng::seed_from_u64(0xDDC_3A1);
    let mut trace = CheckTrace::generate(
        2,
        CheckTraceConfig {
            ops: 1000,
            max_cells: 4096,
        },
        &mut rng,
    );
    // A checkpoint rotates the log; drop those so all 1000 ops
    // accumulate into the single log under sweep (the property test
    // below keeps that path covered). Mid-trace crashes stay: the cube
    // is re-booted and the log resumed, as a restarted server does.
    trace.ops.retain(|op| !matches!(op, CheckOp::SaveLoad));
    let report = crash_sweep(&trace, DdcConfig::dynamic()).expect("sweep harness");
    assert!(
        report.is_clean(),
        "violations: {:?}",
        report.failures.iter().take(5).collect::<Vec<_>>()
    );
    assert_eq!(report.offsets, report.wal_bytes + 1);
    assert!(
        report.records >= 100,
        "trace logged only {} records",
        report.records
    );
    // One recovery per distinct surviving record count.
    assert_eq!(report.recoveries, report.records + 1);
    assert!(report.corruption_caught);
}

for_cases! {
    /// Property form over random dimensionalities and op mixes.
    fn random_traces_survive_byte_level_kill_sweep(rng, cases = 6) {
        let d = rng.gen_range(1usize..=3);
        let ops = rng.gen_range(30usize..90);
        let trace = CheckTrace::generate(d, CheckTraceConfig { ops, max_cells: 600 }, rng);
        let report = crash_sweep(&trace, DdcConfig::dynamic()).expect("sweep harness");
        assert!(
            report.is_clean(),
            "d={d} ops={ops}: {:?}",
            report.failures.iter().take(3).collect::<Vec<_>>()
        );
    }
}

/// The checksum is load-bearing: a flipped payload byte silently
/// diverges when verification is off — and the shrinker minimizes that
/// divergence to a tiny, self-contained, replayable trace.
#[test]
fn injected_checksum_bug_is_caught_and_shrunk_to_a_replayable_trace() {
    let mut found = None;
    for seed in 0..20u64 {
        let mut rng = DdcRng::seed_from_u64(0xBAD_C4C ^ seed);
        let trace = CheckTrace::generate(
            2,
            CheckTraceConfig {
                ops: 80,
                max_cells: 512,
            },
            &mut rng,
        );
        if corruption_divergence(&trace) {
            found = Some(trace);
            break;
        }
    }
    let trace = found.expect("a seeded trace must expose the unchecked-CRC divergence");

    // With verification on, the same damage truncates cleanly.
    assert!(crash_sweep(&trace, DdcConfig::dynamic())
        .expect("sweep harness")
        .is_clean());

    let shrunk = shrink_trace(&trace, corruption_divergence);
    assert!(corruption_divergence(&shrunk), "shrunk repro lost the bug");
    assert!(
        shrunk.ops.len() <= 10,
        "repro did not shrink: {} ops\n{}",
        shrunk.ops.len(),
        shrunk.to_text()
    );
    // The repro survives the text round-trip — a `.trace` artifact.
    let reparsed = CheckTrace::parse(&shrunk.to_text()).unwrap();
    assert!(corruption_divergence(&reparsed));
}

/// `ddc check crash` end to end: a fixed-seed sweep reports clean.
#[test]
fn cli_check_crash_reports_clean() {
    let args: Vec<String> = ["crash", "--seed", "5", "--cases", "3", "--ops", "50"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let report = ddc_cli::check::run(&args).unwrap();
    assert!(report.contains("0 violations"), "{report}");
}

/// ENOSPC mid-append: the cube degrades to read-only instead of
/// crashing, queries keep serving the acked prefix, and recovery after
/// the fault restores exactly the acked ops.
#[test]
fn enospc_mid_append_degrades_and_preserves_the_acked_prefix() {
    // Probe run (no faults, never armed) learns the op index at which
    // the third add's frame write happens; the real run plants ENOSPC
    // exactly there.
    let probe = FaultVfs::explicit_mem(Vec::new());
    let mut cube = boot_on(&probe);
    cube.add(&[1, 2], 5).expect("acked");
    cube.add(&[3, 4], 7).expect("acked");
    let third_write = probe.ops();

    let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
        op: third_write,
        kind: FaultKind::NoSpace,
    }]);
    let mut cube = boot_on(&vfs);
    vfs.arm(true);
    cube.add(&[1, 2], 5).expect("acked");
    cube.add(&[3, 4], 7).expect("acked");
    let err = cube.add(&[5, 6], 9).expect_err("disk is full");
    assert!(matches!(err, IoError::ReadOnly { .. }), "{err}");
    assert!(cube.degraded().is_some());
    // Degraded mode serves reads from the acked state…
    assert_eq!(cube.cube().range_sum(&[0, 0], &[9, 9]), 12);
    // …and rejects further mutations without touching the log.
    let (bytes_before, records_before) = cube.wal_stats();
    assert!(matches!(
        cube.add(&[7, 7], 1),
        Err(IoError::ReadOnly { .. })
    ));
    assert_eq!(cube.wal_stats(), (bytes_before, records_before));

    // The kill: only the namespace survives. Recovery restores exactly
    // the two acked ops — the rejected ones never existed.
    drop(cube);
    vfs.arm(false);
    let recovered = boot_on(&vfs);
    let mut entries = recovered.cube().entries();
    entries.sort();
    assert_eq!(entries, vec![(vec![1, 2], 5), (vec![3, 4], 7)]);
}

/// A sync barrier that fails through the whole retry budget, then a
/// crash: the unacked op must NOT be resurrected by recovery (the
/// production truncate-on-retry protocol removes the synced-but-unacked
/// frame before every retry).
#[test]
fn failed_fsync_then_crash_never_resurrects_the_unacked_op() {
    let probe = FaultVfs::explicit_mem(Vec::new());
    let mut cube = boot_on(&probe);
    cube.add(&[1, 1], 3).expect("acked");
    let second_write = probe.ops();

    // Every attempt is write (even op) then sync (odd op); fail the
    // sync of all five attempts (1 try + 4 retries).
    let faults = (0..5)
        .map(|attempt| PlannedFault {
            op: second_write + 2 * attempt + 1,
            kind: FaultKind::SyncFail,
        })
        .collect();
    let vfs = FaultVfs::explicit_mem(faults);
    let mut cube = boot_on(&vfs);
    vfs.arm(true);
    cube.add(&[1, 1], 3).expect("acked");
    let err = cube.add(&[2, 2], 8).expect_err("sync keeps failing");
    match &err {
        IoError::Exhausted { retries, .. } => assert_eq!(*retries, 4),
        other => panic!("expected exhaustion, got {other}"),
    }
    assert!(cube.degraded().is_some());

    drop(cube);
    vfs.arm(false);
    let recovered = boot_on(&vfs);
    assert_eq!(
        recovered.cube().entries(),
        vec![(vec![1, 1], 3)],
        "the never-acked op about [2,2] must not survive recovery"
    );
}

/// A point the cube cannot grow to is refused before the append, so the
/// log never holds a record replay could not apply; a log that holds
/// one anyway (written by an older build) is a named error, not an
/// abort.
#[test]
fn unreachable_point_is_refused_before_the_append_and_named_by_recovery() {
    let far = [1i64 << 40, 0];
    let mut cube = DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::dynamic(), Vec::new()).unwrap();
    cube.add(&[1, 1], 4).unwrap();
    let before = cube.wal_stats();
    assert!(matches!(cube.add(&far, 1), Err(IoError::OutOfRange(_))));
    // A group naming it behind a reachable point is refused whole.
    let group = [(vec![2, 2], 1), (far.to_vec(), 1)];
    assert!(matches!(
        cube.add_group(&group),
        Err(IoError::OutOfRange(_))
    ));
    assert_eq!(cube.wal_stats(), before);
    assert_eq!(cube.cube().total(), 4);
    assert!(cube.degraded().is_none());

    let mut log = wal::WalWriter::create(Vec::new()).unwrap();
    log.append_updates(
        &[(vec![1, 1], 4i64), (far.to_vec(), 1)],
        &RetryPolicy::instant(),
    )
    .unwrap();
    let err =
        wal::recover::<i64>(2, None, &log.into_inner()[..], DdcConfig::dynamic()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().starts_with("record 1: "), "{err}");
}

/// The committed disk repros stay sharp: each must re-find its
/// corruption class when the tail-truncation protocol is disabled, stay
/// clean under the production policy, and shrink — ops and faults
/// together — to a shorter trace that still fails (the same check
/// `ddc check disk` runs in CI, here hermetically via `include_str!`).
#[test]
fn committed_fault_schedules_refind_the_seeded_bug() {
    for (name, text) in [
        ("torn_append", include_str!("faults/torn_append.trace")),
        (
            "sync_ambiguity",
            include_str!("faults/sync_ambiguity.trace"),
        ),
    ] {
        let trace = CheckTrace::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = refind_seeded_bug(&trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.shrunk.faults() > 0, "{name}: no fault left");
        let ops = |t: &CheckTrace| t.ops.len() - t.faults();
        assert!(
            ops(&report.shrunk) < ops(&trace),
            "{name}: {}",
            report.shrunk.to_text()
        );
    }
}

/// A file-backed [`DurableCube`] killed mid-stream — with a checkpoint,
/// a log rotation, post-checkpoint writes, and a torn tail — is
/// repaired and recovered through the operator CLI.
#[test]
fn durable_file_cube_recovers_via_the_cli() {
    // A directory of this process's own: concurrent runs do not share
    // files.
    let dir = std::env::temp_dir().join(format!("ddc-wal-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");
    let snap_path = dir.join("snapshot.ddc");
    let out_path = dir.join("recovered.ddc");
    let p = |path: &std::path::Path| path.display().to_string();

    // Phase 1: live process, on the calls `ddc serve --durable` makes —
    // boot, populate, checkpoint (snapshot + rotate), keep writing.
    {
        let (vfs, wal_file, snap_file) = (StdVfs, p(&wal_path), p(&snap_path));
        let policy = RetryPolicy::default();
        let (mut cube, _) = wal::recover_vfs::<i64, _>(
            &vfs,
            &wal_file,
            Some(&snap_file),
            2,
            DdcConfig::dynamic(),
            policy,
        )
        .unwrap();
        cube.add(&[1, 2], 5).unwrap();
        cube.add(&[-3, 7], 9).unwrap();
        cube.checkpoint_vfs(&vfs, &snap_file, &wal_file).unwrap();
        cube.add(&[4, 4], -2).unwrap();
        // Setting [1, 2] to 11 is the update of 11 − the cell.
        let old = cube.cube().cell(&[1, 2]);
        assert_eq!(old, 5);
        cube.add(&[1, 2], 11 - old).unwrap();
        // The kill: the cube drops here; only the two files survive.
    }

    // The kill also tore the tail: a partial frame of a record that was
    // never acknowledged.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .unwrap();
        f.write_all(&[42, 0, 0]).unwrap();
    }

    // Library-level recovery tolerates the torn tail directly…
    let log = std::fs::read(&wal_path).unwrap();
    let snap_bytes = std::fs::read(&snap_path).unwrap();
    let (cube, report) = wal::recover::<i64>(
        2,
        Some(&mut &snap_bytes[..]),
        &log[..],
        DdcConfig::dynamic(),
    )
    .unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.replayed, 2);
    assert!(report.truncated.is_some());
    assert_eq!(cube.cell(&[1, 2]), 11);
    assert_eq!(cube.total(), 11 + 9 - 2);

    // …while the CLI surfaces it, repairs it on request, and then
    // reports the log clean.
    let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
    let err = ddc_cli::wal::run(&args(&["truncate-check", "--wal", &p(&wal_path)])).unwrap_err();
    assert!(err.contains("torn tail"), "{err}");
    let fixed =
        ddc_cli::wal::run(&args(&["truncate-check", "--wal", &p(&wal_path), "--fix"])).unwrap();
    assert!(fixed.contains("truncated to 2 records"), "{fixed}");
    let clean = ddc_cli::wal::run(&args(&["truncate-check", "--wal", &p(&wal_path)])).unwrap();
    assert!(clean.contains("no torn tail"), "{clean}");

    // Full CLI recovery: snapshot + repaired log -> fresh snapshot.
    let recovered = ddc_cli::wal::run(&args(&[
        "recover",
        "--wal",
        &p(&wal_path),
        "--snapshot",
        &p(&snap_path),
        "--out",
        &p(&out_path),
    ]))
    .unwrap();
    assert!(recovered.contains("2 records replayed"), "{recovered}");
    assert!(recovered.contains("snapshot written"), "{recovered}");
    // The snapshot now bakes in the log's records; without --rotate the
    // CLI must warn that pairing the two would double-apply.
    assert!(recovered.contains("--rotate"), "{recovered}");
    let restored = GrowableCube::<i64>::load(
        &mut std::fs::read(&out_path).unwrap().as_slice(),
        DdcConfig::dynamic(),
    )
    .unwrap();
    assert_eq!(restored.cell(&[1, 2]), 11);
    assert_eq!(restored.cell(&[-3, 7]), 9);
    assert_eq!(restored.cell(&[4, 4]), -2);
    assert_eq!(restored.total(), 18);

    // With --rotate the log is reset to a bare header, so snapshot +
    // log recover to the same state instead of applying records twice.
    let rotated = ddc_cli::wal::run(&args(&[
        "recover",
        "--wal",
        &p(&wal_path),
        "--snapshot",
        &p(&snap_path),
        "--out",
        &p(&out_path),
        "--rotate",
    ]))
    .unwrap();
    assert!(rotated.contains("log rotated"), "{rotated}");
    let log = std::fs::read(&wal_path).unwrap();
    assert_eq!(log.len(), wal::WAL_HEADER_BYTES);
    let snap_bytes = std::fs::read(&out_path).unwrap();
    let (cube, report) = wal::recover::<i64>(
        2,
        Some(&mut &snap_bytes[..]),
        &log[..],
        DdcConfig::dynamic(),
    )
    .unwrap();
    assert_eq!(report.replayed, 0);
    assert_eq!(cube.total(), 18);

    std::fs::remove_dir_all(&dir).ok();
}

/// Bytes of one d = 2 update record (frame + tag + arity + 2 × i64 +
/// i64 delta).
const RECORD: usize = 37;

/// The update the log tests append as record `i`: cells of a 25 × 15
/// patch, and every 97th one far out, so the cube grows mid-log.
fn update(i: usize) -> (Vec<i64>, i64) {
    let far = if i % 97 == 96 { 300 } else { 0 };
    let point = vec![
        (i * 7 % 25) as i64 - 12 + far,
        (i * 13 % 15) as i64 - 7 - far,
    ];
    (point, (i % 9) as i64 - 4)
}

/// A log of the first `records` updates, appended in groups of 16.
fn log_of(records: usize) -> Vec<u8> {
    let mut writer = wal::WalWriter::create(Vec::new()).expect("in-memory log");
    let updates: Vec<_> = (0..records).map(update).collect();
    for group in updates.chunks(16) {
        writer
            .append_updates(group, &RetryPolicy::instant())
            .expect("append");
    }
    writer.into_inner()
}

/// A read that never verifies is an I/O error, not a torn tail: with
/// every attempt at the log's second chunk failing, the boot fails and
/// `wal.log` keeps every byte (a scan that took the error for the end of
/// the log would truncate it to the first chunk's records). One failed
/// read is absorbed, and the same log boots whole.
#[test]
fn a_persistent_read_error_mid_log_fails_the_boot_and_never_truncates() {
    use ddc_core::vfs::{Vfs, CHUNK_BYTES, READ_ATTEMPTS};
    let records = 3 * CHUNK_BYTES / RECORD;
    let log = log_of(records);
    // The boot reads chunk 0 twice on open (ops 0 and 1); chunk 1's
    // reads start at op 2.
    let boot = |failing: std::ops::Range<u64>| {
        let faults = failing
            .map(|op| PlannedFault {
                op,
                kind: FaultKind::ReadErr,
            })
            .collect();
        let vfs = FaultVfs::explicit_mem(faults);
        (vfs.inner().write_atomic("wal.log", |w| w.write_all(&log))).expect("log written");
        vfs.arm(true);
        let booted = wal::recover_vfs::<i64, _>(
            &vfs,
            "wal.log",
            None,
            2,
            DdcConfig::dynamic(),
            RetryPolicy::instant(),
        );
        (
            booted.map(|(cube, report)| (cube.cube().total(), report)),
            vfs,
        )
    };

    let (booted, vfs) = boot(2..2 + u64::from(READ_ATTEMPTS));
    let err = booted.expect_err("a chunk that never reads must fail the boot");
    assert!(err.to_string().contains("read failed"), "{err}");
    assert_eq!(vfs.realized_paths().len(), READ_ATTEMPTS as usize);
    assert!(vfs.realized_paths().iter().all(|path| path == "wal.log"));
    assert_eq!(vfs.inner().contents("wal.log"), Some(log.clone()));

    let (booted, vfs) = boot(2..3);
    let (total, report) = booted.expect("one failed read is retried");
    assert_eq!((report.replayed, report.truncated), (records, None));
    assert_eq!(total, (0..records).map(|i| update(i).1).sum::<i64>());
    assert_eq!(vfs.realized().len(), 1);
}

/// Appends `records` updates one at a time to a durable cube on `vfs`;
/// after each, drops the cube, calls `before_boot` with the log's length,
/// boots again and checks the cube against the oracle: its invariants,
/// its total, every cell, and a clean replay of every record so far.
fn boot_after_every_record<V: ddc_core::vfs::Vfs>(
    vfs: &V,
    wal_path: &str,
    records: usize,
    mut before_boot: impl FnMut(u64),
) where
    V::File: 'static,
{
    let boot = || {
        let config = DdcConfig::dynamic();
        wal::recover_vfs::<i64, _>(vfs, wal_path, None, 2, config, RetryPolicy::instant())
            .expect("boot")
    };
    let mut oracle = std::collections::HashMap::<Vec<i64>, i64>::new();
    let mut cube = boot().0;
    for i in 0..records {
        let (point, delta) = update(i);
        cube.add(&point, delta).expect("append");
        *oracle.entry(point).or_default() += delta;
        let log_bytes = cube.wal_stats().0;
        drop(cube);
        before_boot(log_bytes);
        let (booted, report) = boot();
        cube = booted;
        let total: i64 = oracle.values().sum();
        assert_eq!(cube.cube().check_invariants(), total, "record {i}");
        assert_eq!(cube.cube().total(), total, "record {i}");
        for (p, &want) in &oracle {
            assert_eq!(cube.cube().cell(p), want, "record {i}: cell {p:?}");
        }
        assert_eq!((report.replayed, &report.truncated), (i + 1, &None));
    }
}

/// The cumulant shape over a log of several chunks, a record straddling
/// every chunk boundary: after each appended record, a kill and a boot
/// land on the oracle — on a fault-injecting disk whose read of a later
/// chunk comes back with a bit flipped once, and on the real disk.
#[test]
fn every_boot_of_a_log_spanning_several_chunks_matches_the_oracle() {
    use ddc_core::vfs::CHUNK_BYTES;
    let records = 7 * CHUNK_BYTES / 2 / RECORD;
    let log_bytes = (wal::WAL_HEADER_BYTES + records * RECORD) as u64;
    assert!(log_bytes > 3 * CHUNK_BYTES as u64);
    for boundary in (1..=3).map(|k| k * CHUNK_BYTES) {
        let inside = (boundary - wal::WAL_HEADER_BYTES) % RECORD;
        assert_ne!(inside, 0, "a record ends on the chunk boundary {boundary}");
    }

    // A dry run finds the op the last boot starts at and the reads it
    // spends per chunk (two); its log spans four chunks, and its first
    // read of the third is flipped.
    let dry = FaultVfs::explicit_mem(Vec::new());
    let mut last_boot = 0;
    boot_after_every_record(&dry, "wal.log", records, |_| last_boot = dry.ops());
    let chunks = log_bytes.div_ceil(CHUNK_BYTES as u64);
    let per_chunk = (dry.ops() - last_boot) / chunks;
    assert_eq!(per_chunk, 2, "a clean chunk is two reads");
    let op = last_boot + 2 * per_chunk;
    let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
        op,
        kind: FaultKind::ReadCorrupt { bit: 8 * 77 + 3 },
    }]);
    vfs.arm(true);
    boot_after_every_record(&vfs, "wal.log", records, |_| {});
    assert_eq!(vfs.realized_paths(), ["wal.log"]);
    assert_eq!(vfs.realized()[0].op, op);

    let dir = std::env::temp_dir().join(format!("ddc-wal-chunks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("wal.log").display().to_string();
    let mut last = 0;
    boot_after_every_record(&StdVfs, &path, records, |bytes| last = bytes);
    assert_eq!(last, log_bytes);
    assert_eq!(std::fs::metadata(&path).expect("log").len(), log_bytes);
    std::fs::remove_dir_all(&dir).ok();
}
