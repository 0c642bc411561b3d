//! `ddc wal` — operator tooling for write-ahead logs.
//!
//! ```text
//! ddc wal recover --wal FILE [--snapshot FILE] [--dims D] [--out FILE [--rotate]]
//! ddc wal truncate-check --wal FILE [--fix]
//! ```
//!
//! `recover` rebuilds a cube from the last good snapshot plus the log,
//! truncating a torn tail instead of failing, and optionally writes the
//! recovered state as a fresh snapshot (`--out`). A snapshot that
//! *includes* the log's records must not be paired with that same log
//! again — recovery would apply every record twice — so `--out` warns
//! unless `--rotate` also resets the log to a bare header. `--out` is
//! the checkpoint's snapshot half ([`wal::write_snapshot`]) and
//! `--rotate` its rotation half ([`wal::rotate_wal`]), the calls
//! `DurableCube::checkpoint_vfs` makes, in its order and under its
//! failure rule: a log that cannot be rotated is removed.
//! `truncate-check` inspects a log for a torn or corrupt tail; with
//! `--fix` it applies boot's repair ([`wal::repair_tail`]): it truncates
//! the file to the last whole record, which is exactly what recovery
//! would ignore anyway, and rewrites a torn header as an empty log.
//!
//! All file IO goes through the [`ddc_core::vfs`] seam, as boot's does:
//! the log and the snapshot stream in through a [`VerifiedReader`] (each
//! chunk read until two consecutive images agree, so a transient
//! read-back bit flip is defeated and no file is ever whole in memory),
//! and snapshot writes stream atomically (tmp + sync + rename), so a
//! crash mid-`--out` never leaves a half-written file where a good one
//! stood.

use std::io::Read;

use ddc_core::vfs::{StdVfs, VerifiedReader};
use ddc_core::wal;
use ddc_core::{DdcConfig, GrowableCube};

use crate::flags::Flags;

/// Executes `ddc wal <args>`, returning the report text or an error
/// (which the caller turns into a non-zero exit).
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("recover") => recover(&args[1..]),
        Some("truncate-check") => truncate_check(&args[1..]),
        _ => Err("usage: ddc wal recover|truncate-check …".to_string()),
    }
}

fn recover(args: &[String]) -> Result<String, String> {
    let values = ["--wal", "--snapshot", "--dims", "--out"];
    let flags = Flags::parse(args, &values, &["--rotate"])?;
    let wal_path = flags.value("--wal").ok_or("recover requires --wal FILE")?;
    let snap_path = flags.value("--snapshot");
    let out_path = flags.value("--out");
    let dims = flags.rank("--dims")?;
    let vfs = StdVfs;
    let open = |p: &str| VerifiedReader::open(&vfs, p).map_err(|e| format!("cannot read {p}: {e}"));
    let log = open(wal_path)?;
    let mut snapshot = snap_path.map(open).transpose()?;

    // Dimensionality comes from --dims, or from the snapshot's header
    // when one is supplied (recovery re-checks the two agree).
    let d = match (dims, snap_path) {
        (Some(d), _) => d,
        (None, Some(p)) => {
            GrowableCube::<i64>::snapshot_rank(&mut open(p)?).map_err(|e| format!("{p}: {e}"))?
        }
        (None, None) => return Err("recover needs --dims D (no snapshot to infer it from)".into()),
    };

    let snapshot = snapshot.as_mut().map(|s| s as &mut dyn Read);
    let (cube, report) = wal::recover::<i64>(d, snapshot, log, DdcConfig::dynamic())
        .map_err(|e| format!("recover: {e}"))?;

    let mut text = format!(
        "recovered {d}-dimensional cube: snapshot={}, {} records replayed, \
         {} valid log bytes, {} populated cells, total {}",
        if report.snapshot_loaded { "yes" } else { "no" },
        report.replayed,
        report.valid_bytes,
        cube.populated_cells(),
        cube.total(),
    );
    match &report.truncated {
        Some(why) => text.push_str(&format!("\ntorn tail ignored: {why}")),
        None => text.push_str("\nlog was clean"),
    }
    if let Some(out) = out_path {
        let bytes = wal::write_snapshot(&vfs, out, &cube)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        text.push_str(&format!(
            "\nsnapshot written: {out} ({bytes} bytes, atomic)"
        ));
        if flags.has("--rotate") {
            wal::rotate_wal(&vfs, wal_path)
                .map_err(|e| format!("cannot rotate {wal_path} behind {out}: {e}"))?;
            text.push_str(&format!("\nlog rotated: {wal_path} reset to a bare header"));
        } else if report.replayed > 0 {
            text.push_str(&format!(
                "\nwarning: {wal_path} still holds the {} records baked into this snapshot; \
                 pairing the two replays them twice — rerun with --rotate (or rotate the log \
                 yourself) before serving from this snapshot + log",
                report.replayed
            ));
        }
    }
    Ok(text)
}

fn truncate_check(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["--wal"], &["--fix"])?;
    let wal_path = (flags.value("--wal")).ok_or("truncate-check requires --wal FILE")?;
    let vfs = StdVfs;
    let mut log =
        VerifiedReader::open(&vfs, wal_path).map_err(|e| format!("cannot read {wal_path}: {e}"))?;
    let scan =
        wal::scan_wal::<i64>(&mut log, |_, _, _| Ok(())).map_err(|e| format!("{wal_path}: {e}"))?;
    if scan.is_clean() {
        return Ok(format!(
            "ok: {wal_path}: {} records, {} bytes, no torn tail",
            scan.records, scan.valid_bytes
        ));
    }
    let why = scan.truncated.as_deref().unwrap_or("torn tail");
    let garbage = log.file_len() - scan.valid_bytes;
    if flags.has("--fix") {
        let kept = wal::repair_tail(&vfs, wal_path, &scan)
            .map_err(|e| format!("cannot repair {wal_path}: {e}"))?;
        Ok(format!(
            "fixed: {wal_path}: truncated to {} records / {} bytes ({garbage} damaged bytes \
             dropped: {why})",
            kept.records(),
            kept.bytes()
        ))
    } else {
        Err(format!(
            "torn tail: {wal_path}: {} whole records / {} valid bytes, then: {why} \
             ({garbage} bytes would be dropped; rerun with --fix to truncate)",
            scan.records, scan.valid_bytes
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_refuses_a_misspelt_flag() {
        // Before any file is read: `--rotat` used to leave the log
        // un-rotated, `--fixx` to report instead of repair.
        for (words, offender) in [
            (
                &["recover", "--wal", "w", "--out", "o", "--rotat"][..],
                "--rotat",
            ),
            (&["truncate-check", "--wal", "w", "--fixx"][..], "--fixx"),
        ] {
            let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            let err = run(&args).expect_err("unknown argument");
            assert!(
                err.starts_with(&format!("unknown argument {offender};")),
                "{err}"
            );
        }
    }

    #[test]
    fn wal_recover_refuses_a_rank_past_the_bound() {
        let args: Vec<String> = ["recover", "--wal", "w", "--dims", "9"]
            .iter()
            .map(|w| w.to_string())
            .collect();
        let err = run(&args).expect_err("rank out of bounds");
        assert!(err.starts_with("--dims 9 outside 1..=8: "), "{err}");
    }

    /// `--rotate` leaves the log the writer itself starts: a clean log
    /// of no records, which the snapshot it was rotated behind pairs
    /// with without replaying anything twice.
    #[test]
    fn a_rotated_log_is_a_fresh_empty_log() {
        let dir = std::env::temp_dir().join(format!("ddc-wal-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = |name: &str| dir.join(name).display().to_string();
        let (log, snapshot) = (path("wal.log"), path("snapshot.ddc"));
        let mut writer = wal::WalWriter::create(Vec::new()).expect("in-memory log");
        let updates = [(vec![1i64, 2], 5i64), (vec![3, 4], 7)];
        let policy = wal::RetryPolicy::instant();
        writer.append_updates(&updates, &policy).expect("append");
        std::fs::write(&log, writer.into_inner()).expect("log written");
        let ddc_wal =
            |words: &[&str]| run(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>());

        let report = ddc_wal(&[
            "recover", "--wal", &log, "--dims", "2", "--out", &snapshot, "--rotate",
        ])
        .expect("recover and rotate");
        assert!(report.contains("2 records replayed"), "{report}");
        assert!(report.contains("log rotated"), "{report}");
        let rotated = std::fs::read(&log).expect("rotated log");
        let scan = wal::scan_wal::<i64>(&rotated[..], |_, _, _| Ok(())).expect("a log");
        assert!(scan.is_clean(), "{:?}", scan.truncated);
        assert_eq!(scan.records, 0);

        let again = ddc_wal(&["recover", "--wal", &log, "--snapshot", &snapshot])
            .expect("recover the rotated pair");
        assert!(again.contains("0 records replayed"), "{again}");
        assert!(again.contains("total 12"), "{again}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log cut inside its 5-byte header (an empty file included) is a
    /// torn, empty log: `recover` replays nothing, `--fix` rewrites the
    /// header as boot does, and the log then checks clean.
    #[test]
    fn a_log_cut_inside_its_header_is_fixed_to_an_empty_log() {
        let dir = std::env::temp_dir().join(format!("ddc-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let log = dir.join("wal.log").display().to_string();
        let ddc_wal =
            |words: &[&str]| run(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>());
        let header = [&wal::WAL_MAGIC[..], &[wal::WAL_VERSION]].concat();
        for cut in 0..wal::WAL_HEADER_BYTES {
            std::fs::write(&log, &header[..cut]).expect("cut log written");
            let recovered = ddc_wal(&["recover", "--wal", &log, "--dims", "2"]).expect("recover");
            assert!(
                recovered.contains("0 records replayed"),
                "cut {cut}: {recovered}"
            );
            let fixed = ddc_wal(&["truncate-check", "--wal", &log, "--fix"]).expect("fix");
            assert!(fixed.starts_with("fixed: "), "cut {cut}: {fixed}");
            let checked = ddc_wal(&["truncate-check", "--wal", &log]).expect("clean");
            assert!(checked.starts_with("ok: "), "cut {cut}: {checked}");
            assert!(
                checked.contains(" 0 records, 5 bytes"),
                "cut {cut}: {checked}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rotation whose header write fails leaves no stale log beside
    /// the snapshot it was rotated behind — the failure rule `--rotate`
    /// shares with the cube's checkpoint.
    #[test]
    fn a_failed_rotation_leaves_no_stale_log() {
        use ddc_core::vfs::{FaultKind, FaultVfs, PlannedFault, Vfs};
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault {
            op: 0,
            kind: FaultKind::WriteErr,
        }]);
        let mut writer = wal::WalWriter::create(Vec::new()).expect("in-memory log");
        let policy = wal::RetryPolicy::instant();
        writer
            .append_updates(&[(vec![1i64, 2], 5i64)], &policy)
            .expect("append");
        let log = writer.into_inner();
        (vfs.inner().write_atomic("wal.log", |w| w.write_all(&log))).expect("log written");
        vfs.arm(true);
        assert!(wal::rotate_wal(&vfs, "wal.log").is_err());
        assert_eq!(vfs.realized().len(), 1, "the header write failed");
        assert!(
            !vfs.exists("wal.log").expect("exists"),
            "stale log left behind"
        );
    }
}
