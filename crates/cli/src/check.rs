//! `ddc check` — the differential fuzzing harness on the command line.
//!
//! ```text
//! ddc check run [--seed N] [--cases N] [--ops N] [--out FILE]
//! ddc check replay FILE
//! ddc check faults [--seed N]
//! ddc check crash [--seed N] [--cases N] [--ops N] [--out FILE] [--paged]
//! ddc check serve [--seed N] [--iters N]
//! ddc check disk [--quick] [--seed N] [--schedules DIR] [--paged]
//! ```
//!
//! `run` fuzzes every engine against the oracle; on divergence the
//! shrunk repro is written to `--out` (default `ddc-divergence.trace`)
//! and the command fails. `replay` re-executes a repro file — the
//! round-trip that makes a shrunk trace an actionable bug report.
//! `faults` sweeps a fault across every byte offset of the snapshot a
//! seeded trace's checkpoint writes, on the in-memory and the paged
//! leaf backend: a torn write, a cut `snapshot.ddc` and a failed or
//! bit-flipped read of it at boot (see `ddc_check::snapshot_sweep`).
//! `crash` simulates a process kill at every byte
//! offset of a trace's write-ahead log and verifies recovery restores
//! exactly the acknowledged prefix (shrinking any violation to a
//! replayable trace); a checkpoint in the trace rotates the log, a
//! mid-trace crash re-boots and resumes it, so the log under the sweep
//! is what a restarted server would hold. `serve` fuzzes the network
//! wire parser with mutated/split/truncated requests and verifies both
//! seeded parser bugs (stream transforms in front of the real parser)
//! are found. `disk` runs the disk-fault chaos sweep: seeded traces
//! against a fault-injecting VFS across a fault-probability grid (no
//! acked update lost; every run ends healthy or cleanly degraded), then
//! replays the committed `tests/faults/*.sched` schedules on a disk
//! that loses the retry protocol's tail truncations and verifies both
//! seeded corruption classes are re-found. `crash`, `disk`, `faults`
//! and the roster's durable engines under `run` drive one rig — a
//! durable cube on a `Vfs`, by the calls `ddc serve --durable` makes —
//! and differ in the disk under it.
//!
//! `--paged` (on `crash` and `disk`) runs the same sweep with the
//! out-of-core leaf backend: a buffer pool under a deliberately tiny
//! memory cap, so recovery replays the log onto evicting pages.
//!
//! Every subcommand refuses an argument it does not accept: a misspelt
//! `--paged` is a usage error, not a sweep of the default backend.

use ddc_check::{
    crash_sweep, disk_sweep, fuzz, refind_seeded_bug, run_trace, snapshot_sweep, DiskSweepConfig,
    FaultSchedule,
};
use ddc_core::{DdcConfig, PagerConfig, MAX_RANK};
use ddc_workload::{CheckTrace, CheckTraceConfig, DdcRng};

use crate::flags::Flags;

/// The engine a `crash`, `disk` or `faults` sweep runs on, and what its
/// report calls the backend. Paged is leaf blocks (elision 1) behind a
/// buffer pool small enough that every nontrivial trace evicts: the
/// crash sweep spills to memory; the disk and snapshot sweeps ask for a
/// `disk` pager, which `recover_vfs` opens inside the sweep's
/// fault-injecting (in-memory) namespace.
fn engine_under_sweep(paged: bool, pager: fn(usize) -> PagerConfig) -> (DdcConfig, &'static str) {
    let config = DdcConfig::dynamic();
    match paged {
        true => {
            let pool = pager(8 * 1024).with_page_bytes(256);
            (config.with_elision(1).with_paged_leaves(pool), "paged")
        }
        false => (config, "slab"),
    }
}

/// Where a shrunk repro goes unless `--out` says otherwise.
const DEFAULT_OUT: &str = "ddc-divergence.trace";

/// Executes `ddc check <args>`, returning the report text or an error
/// (which the caller turns into a non-zero exit).
pub fn run(args: &[String]) -> Result<String, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = Flags::parse(rest, &["--seed", "--cases", "--ops", "--out"], &[])?;
            let seed = flags.num("--seed")?.unwrap_or(0xDDCu64);
            let cases = flags.num("--cases")?.unwrap_or(25usize);
            let ops = flags.num("--ops")?.unwrap_or(200usize);
            let out_path = flags.value("--out").unwrap_or(DEFAULT_OUT);
            let outcome = fuzz(
                seed,
                cases,
                CheckTraceConfig {
                    ops,
                    max_cells: 2048,
                },
            );
            match outcome.failure {
                None => Ok(format!(
                    "ok: {} cases, {} ops, {} answers compared, 0 divergences (seed {seed})",
                    outcome.cases, outcome.ops_run, outcome.comparisons
                )),
                Some(f) => {
                    std::fs::write(out_path, f.shrunk.to_text())
                        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
                    Err(format!(
                        "divergence in case {} (seed {}): {}\n\
                         shrunk to {} ops -> {out_path}\n\
                         replay with: ddc check replay {out_path}\n\
                         spans from the shrunk replay (tracing forced on):\n{}",
                        f.case,
                        f.seed,
                        f.divergence,
                        f.shrunk.ops.len(),
                        f.trace_dump
                    ))
                }
            }
        }
        Some("replay") => {
            let [path] = rest else {
                return Err("usage: ddc check replay FILE (one file, nothing else)".to_string());
            };
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let trace = CheckTrace::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if trace.dims.len() > MAX_RANK {
                return Err(format!(
                    "{path}: a {}-dimensional shape; the roster's cubes have at most \
                     MAX_RANK = {MAX_RANK}",
                    trace.dims.len()
                ));
            }
            replay_text(path, &trace)
        }
        Some("faults") => {
            let flags = Flags::parse(rest, &["--seed"], &[])?;
            let seed = flags.num("--seed")?.unwrap_or(0xFA17u64);
            let mut rng = DdcRng::seed_from_u64(seed);
            let config = CheckTraceConfig {
                ops: 40,
                max_cells: 512,
            };
            let trace = CheckTrace::generate(2, config, &mut rng);
            let sweep = |paged| {
                let (engine, backend) = engine_under_sweep(paged, PagerConfig::disk);
                snapshot_sweep(&trace, engine).map_err(|e| {
                    format!("snapshot fault sweep ({backend} backend, seed {seed}): {e}")
                })
            };
            let (slab, paged) = (sweep(false)?, sweep(true)?);
            Ok(format!(
                "ok: snapshot fault sweep clean over {slab} + {paged} byte offsets (seed {seed})"
            ))
        }
        Some("crash") => {
            let values = ["--seed", "--cases", "--ops", "--out"];
            let flags = Flags::parse(rest, &values, &["--paged"])?;
            let seed = flags.num("--seed")?.unwrap_or(0xC4A5u64);
            let cases = flags.num("--cases")?.unwrap_or(12usize);
            let ops = flags.num("--ops")?.unwrap_or(120usize);
            let out_path = flags.value("--out").unwrap_or(DEFAULT_OUT);
            let (engine, backend) = engine_under_sweep(flags.has("--paged"), PagerConfig::in_mem);
            let fails = |t: &CheckTrace| crash_sweep(t, engine).map_or(true, |r| !r.is_clean());
            let mut offsets = 0usize;
            let mut recoveries = 0usize;
            let mut groups = (0usize, 0usize);
            for case in 0..cases {
                let case_seed = seed ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let mut rng = DdcRng::seed_from_u64(case_seed);
                let trace = CheckTrace::generate(
                    1 + case % 3,
                    CheckTraceConfig {
                        ops,
                        max_cells: 1024,
                    },
                    &mut rng,
                );
                let report =
                    crash_sweep(&trace, engine).map_err(|e| format!("case {case}: {e}"))?;
                if !report.is_clean() {
                    let shrunk = ddc_workload::shrink_trace(&trace, fails);
                    std::fs::write(out_path, shrunk.to_text())
                        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
                    return Err(format!(
                        "crash-recovery violation in case {case} (seed {case_seed}): {}\n\
                         shrunk to {} ops -> {out_path}",
                        report
                            .failures
                            .first()
                            .cloned()
                            .unwrap_or_else(|| "corruption probe not caught".to_string()),
                        shrunk.ops.len()
                    ));
                }
                offsets += report.offsets;
                recoveries += report.recoveries;
                groups = (groups.0 + report.groups, groups.1 + report.grouped_records);
            }
            Ok(format!(
                "ok: {cases} cases, {offsets} kill offsets, {recoveries} recoveries, \
                 0 violations ({backend} backend, seed {seed})\n\
                 groups swept: {} commits of 1..=8 records, {} records \
                 (a cut inside a group leaves a record prefix)",
                groups.0, groups.1
            ))
        }
        Some("serve") => {
            let flags = Flags::parse(rest, &["--seed", "--iters"], &[])?;
            let seed = flags.num("--seed")?.unwrap_or(0xF022u64);
            let iters = flags.num("--iters")?.unwrap_or(400u64);
            let report = ddc_check::fuzz_serve_parser(seed, iters).map_err(|f| f.to_string())?;
            // The harness must also FIND both seeded parser bugs — a
            // fuzzer that misses them is not covering header casing or
            // split boundaries, which is itself a regression.
            let mut found = Vec::new();
            for (name, quirk) in [
                (
                    "case-sensitive-content-length",
                    ddc_check::ParserQuirk::CaseSensitiveContentLength,
                ),
                (
                    "drop-split-carriage-return",
                    ddc_check::ParserQuirk::DropSplitCarriageReturn,
                ),
            ] {
                match ddc_check::find_parser_quirk(quirk, seed, iters) {
                    Some(i) => found.push(format!("{name} at iteration {i}")),
                    None => {
                        return Err(format!(
                            "seeded parser bug NOT found: {name} survived {iters} iterations \
                             (seed {seed}) — fuzzer coverage regressed"
                        ))
                    }
                }
            }
            Ok(format!(
                "ok: {} iterations, {} frames ({} lines decoded), {} mutations, \
                 {} truncations, {} chunks (seed {seed}); seeded bugs found: {}",
                report.iterations,
                report.frames,
                report.lines,
                report.mutations,
                report.truncations,
                report.chunks,
                found.join(", ")
            ))
        }
        Some("disk") => {
            let flags = Flags::parse(rest, &["--seed", "--schedules"], &["--quick", "--paged"])?;
            let seed = flags.num("--seed")?.unwrap_or(0xD15Cu64);
            let schedules_dir = flags.value("--schedules").unwrap_or("tests/faults");
            let config = if flags.has("--quick") {
                DiskSweepConfig::quick(seed)
            } else {
                DiskSweepConfig::full(seed)
            };
            let (engine, backend) = engine_under_sweep(flags.has("--paged"), PagerConfig::disk);
            let report = disk_sweep(&config, engine);
            if let Some(v) = report.violations.first() {
                return Err(format!(
                    "disk-fault violation (seed {seed}): {}\n\
                     schedule:\n{}\
                     shrunk to {} faults: {:?}",
                    v.detail,
                    v.schedule.to_text(),
                    v.shrunk.len(),
                    v.shrunk
                ));
            }
            // Regression teeth: every committed schedule must re-find a
            // violation when the tail-truncation protocol is disabled.
            let mut entries: Vec<_> = std::fs::read_dir(schedules_dir)
                .map_err(|e| format!("cannot read schedule dir {schedules_dir}: {e}"))?
                .filter_map(Result::ok)
                .map(|d| d.path())
                .filter(|p| p.extension().is_some_and(|x| x == "sched"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("no .sched schedules in {schedules_dir}"));
            }
            let mut refound = Vec::new();
            for path in &entries {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string());
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let schedule = FaultSchedule::parse(&text).map_err(|e| format!("{name}: {e}"))?;
                let r = refind_seeded_bug(&schedule).map_err(|e| format!("{name}: {e}"))?;
                refound.push(format!(
                    "{name} ({} faults, shrunk to {}): {}",
                    r.faults,
                    r.shrunk.len(),
                    r.violation
                ));
            }
            Ok(format!(
                "ok: disk sweep: {} runs, {} faults injected, {} acked ops, \
                 {} degraded runs, 0 violations ({backend} backend, seed {seed})\n\
                 seeded bugs re-found: {}/{}\n  {}",
                report.runs,
                report.faults_injected,
                report.acked,
                report.degraded_runs,
                refound.len(),
                entries.len(),
                refound.join("\n  ")
            ))
        }
        _ => Err("usage: ddc check run|replay|faults|crash|serve|disk …".to_string()),
    }
}

/// Replays a parsed trace, reporting stats or the divergence.
pub fn replay_text(label: &str, trace: &CheckTrace) -> Result<String, String> {
    match run_trace(trace) {
        Ok(stats) => Ok(format!(
            "ok: {label}: {} ops replayed, {} answers compared, 0 divergences",
            stats.ops, stats.comparisons
        )),
        Err(d) => Err(format!("{label}: {d}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refusal(words: &[&str]) -> String {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        run(&args).expect_err("a misspelt flag must not run the sweep")
    }

    // One per subcommand: a misspelling used to run the default sweep
    // and print `ok`, silently weakening whatever gate had asked for more.
    #[test]
    fn check_run_refuses_a_misspelt_flag() {
        assert!(
            refusal(&["run", "--cases", "1", "--op", "5"]).starts_with("unknown argument --op;")
        );
    }

    #[test]
    fn check_replay_refuses_anything_after_its_file() {
        assert!(refusal(&["replay", "a.trace", "--seed"]).starts_with("usage: ddc check replay"));
        assert!(refusal(&["replay"]).starts_with("usage: ddc check replay"));
    }

    #[test]
    fn check_replay_refuses_a_rank_past_the_bound() {
        let path = std::env::temp_dir().join(format!("ddc-rank-{}.trace", std::process::id()));
        std::fs::write(&path, "shape 2 2 2 2 2 2 2 2 2\nU 0 0 0 0 0 0 0 0 0 1\n").expect("trace");
        let err = refusal(&["replay", &path.display().to_string()]);
        std::fs::remove_file(&path).ok();
        assert!(err.contains("MAX_RANK = 8"), "{err}");
    }

    #[test]
    fn check_faults_refuses_a_misspelt_flag() {
        assert!(refusal(&["faults", "--sed", "1"]).starts_with("unknown argument --sed;"));
    }

    #[test]
    fn check_faults_sweeps_both_leaf_backends() {
        let args: Vec<String> = ["faults", "--seed", "1"].map(String::from).to_vec();
        let report = run(&args).expect("clean sweep");
        // `… clean over N + M byte offsets (seed 1)`: both counts > 0.
        let counts: Vec<usize> = report.split(' ').filter_map(|w| w.parse().ok()).collect();
        assert!(report.contains("clean over"), "{report}");
        assert!(counts.len() == 2 && !counts.contains(&0), "{report}");
    }

    #[test]
    fn check_crash_refuses_a_misspelt_flag() {
        // `ddc check crash --cases 2 --page` used to sweep the slab backend.
        let err = refusal(&["crash", "--cases", "2", "--page"]);
        assert!(err.starts_with("unknown argument --page;"), "{err}");
        assert!(err.contains("--paged"), "{err}");
    }

    #[test]
    fn check_serve_refuses_a_misspelt_flag() {
        assert!(refusal(&["serve", "--iter", "9"]).starts_with("unknown argument --iter;"));
    }

    #[test]
    fn check_disk_refuses_a_misspelt_flag() {
        // `ddc check disk --quick --pagd` used to report the slab backend.
        let err = refusal(&["disk", "--quick", "--pagd"]);
        assert!(err.starts_with("unknown argument --pagd;"), "{err}");
    }
}
