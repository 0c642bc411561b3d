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
//! unless `--rotate` also resets the log to a bare header (the
//! checkpoint protocol, done after the snapshot is durably in place).
//! `truncate-check` inspects a log for a torn or corrupt tail; with
//! `--fix` it truncates the file to the last whole record, which is
//! exactly what recovery would ignore anyway.
//!
//! All file IO goes through the [`ddc_core::vfs`] seam: reads use
//! [`read_stable`] (two consecutive identical reads defeat a transient
//! read-back bit flip) and snapshot writes are atomic
//! (tmp + sync + rename), so a crash mid-`--out` or mid-`--fix` never
//! leaves a half-written file where a good one stood.

use ddc_core::vfs::{read_stable, StdVfs, Vfs};
use ddc_core::wal::{self, WalWriter, WAL_HEADER_BYTES};
use ddc_core::{DdcConfig, GrowableCube};

use crate::flags::Flags;

/// Read attempts for [`read_stable`] on operator paths.
const READ_ATTEMPTS: u32 = 4;

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
    let log = read_stable(&vfs, wal_path, READ_ATTEMPTS)
        .map_err(|e| format!("cannot read {wal_path}: {e}"))?;
    let snapshot = match snap_path {
        Some(p) => {
            Some(read_stable(&vfs, p, READ_ATTEMPTS).map_err(|e| format!("cannot read {p}: {e}"))?)
        }
        None => None,
    };

    // Dimensionality comes from --dims, or from the snapshot when one
    // is supplied (recovery re-checks the two agree).
    let d = match (dims, &snapshot) {
        (Some(d), _) => d,
        (None, Some(bytes)) => {
            GrowableCube::<i64>::load(&mut bytes.as_slice(), DdcConfig::dynamic())
                .map_err(|e| format!("{}: {e}", snap_path.unwrap_or("snapshot")))?
                .ndim()
        }
        (None, None) => return Err("recover needs --dims D (no snapshot to infer it from)".into()),
    };

    let (cube, report) = wal::recover::<i64>(d, snapshot.as_deref(), &log, DdcConfig::dynamic())
        .map_err(|e| format!("recover: {e}"))?;

    let mut text = format!(
        "recovered {d}-dimensional cube: snapshot={}, {} records replayed, \
         {} valid log bytes, {} populated cells, total {}",
        if report.snapshot_loaded { "yes" } else { "no" },
        report.replayed,
        report.valid_bytes,
        cube.entries().len(),
        cube.total(),
    );
    match &report.truncated {
        Some(why) => text.push_str(&format!("\ntorn tail ignored: {why}")),
        None => text.push_str("\nlog was clean"),
    }
    if let Some(out) = out_path {
        let mut image = Vec::new();
        let bytes = cube
            .save(&mut image)
            .map_err(|e| format!("cannot encode snapshot: {e}"))?;
        vfs.write_atomic(out, &image)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        text.push_str(&format!(
            "\nsnapshot written: {out} ({bytes} bytes, atomic)"
        ));
        if flags.has("--rotate") {
            // Checkpoint protocol: only after the snapshot is durably
            // renamed into place may the log it covers be reset.
            let empty = WalWriter::create(Vec::new())
                .map_err(|e| format!("cannot encode an empty log: {e}"))?
                .into_inner();
            vfs.write_atomic(wal_path, &empty)
                .map_err(|e| format!("cannot rotate {wal_path}: {e}"))?;
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
    let fix = flags.has("--fix");
    let vfs = StdVfs;
    let log = read_stable(&vfs, wal_path, READ_ATTEMPTS)
        .map_err(|e| format!("cannot read {wal_path}: {e}"))?;

    let replay = wal::read_wal::<i64>(&log).map_err(|e| format!("{wal_path}: {e}"))?;
    if replay.is_clean() {
        return Ok(format!(
            "ok: {wal_path}: {} records, {} bytes, no torn tail",
            replay.ops.len(),
            replay.valid_bytes
        ));
    }
    let why = replay.truncated.as_deref().unwrap_or("torn tail");
    let garbage = log.len() as u64 - replay.valid_bytes;
    if fix {
        // A log truncated below its header would stop being a log;
        // valid_bytes never falls under the header for a parsable file.
        debug_assert!(replay.valid_bytes >= WAL_HEADER_BYTES as u64);
        let mut keep = log;
        keep.truncate(replay.valid_bytes as usize);
        vfs.write_atomic(wal_path, &keep)
            .map_err(|e| format!("cannot rewrite {wal_path}: {e}"))?;
        Ok(format!(
            "fixed: {wal_path}: truncated to {} records / {} bytes ({garbage} damaged bytes \
             dropped: {why})",
            replay.ops.len(),
            replay.valid_bytes
        ))
    } else {
        Err(format!(
            "torn tail: {wal_path}: {} whole records / {} valid bytes, then: {why} \
             ({garbage} bytes would be dropped; rerun with --fix to truncate)",
            replay.ops.len(),
            replay.valid_bytes
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
        let mut writer = WalWriter::create(Vec::new()).expect("in-memory log");
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
        let replay = wal::read_wal::<i64>(&rotated).expect("a log");
        assert!(replay.is_clean(), "{:?}", replay.truncated);
        assert_eq!(replay.ops.len(), 0);

        let again = ddc_wal(&["recover", "--wal", &log, "--snapshot", &snapshot])
            .expect("recover the rotated pair");
        assert!(again.contains("0 records replayed"), "{again}");
        assert!(again.contains("total 12"), "{again}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
