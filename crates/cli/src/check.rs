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
//! `faults` sweeps an injected I/O fault across every byte offset of a
//! randomized snapshot. `crash` simulates a process kill at every byte
//! offset of a trace's write-ahead log and verifies recovery restores
//! exactly the acknowledged prefix (shrinking any violation to a
//! replayable trace). `serve` fuzzes the network wire parser with
//! mutated/split/truncated requests and verifies both seeded parser
//! bugs are found. `disk` runs the disk-fault chaos sweep: seeded
//! traces against a fault-injecting VFS across a fault-probability
//! grid (no acked update lost; every run ends healthy or cleanly
//! degraded), then replays the committed `tests/faults/*.sched`
//! schedules with the retry protocol's tail truncation disabled and
//! verifies both seeded corruption classes are re-found.
//!
//! `--paged` (on `crash` and `disk`) runs the same sweep with the
//! out-of-core leaf backend: a buffer pool under a deliberately tiny
//! memory cap, so recovery replays the log onto evicting pages.

use ddc_check::{
    crash_sweep, disk_sweep, fault_sweep, fuzz, refind_seeded_bug, run_trace, DiskSweepConfig,
    FaultSchedule,
};
use ddc_core::{DdcConfig, DdcEngine, GrowableCube, PagerConfig};
use ddc_workload::{CheckTrace, CheckTraceConfig, DdcRng};

/// Engine config for `--paged` sweeps: leaf blocks (elision 1) behind
/// a buffer pool small enough that every nontrivial trace evicts. The
/// crash sweep recovers from byte slices and spills to a `Vec`; the
/// disk sweep asks for a `disk` pager, which `recover_vfs` opens inside
/// the sweep's fault-injecting (in-memory) namespace.
fn paged_engine_config(pager: fn(usize) -> PagerConfig) -> DdcConfig {
    DdcConfig::dynamic()
        .with_elision(1)
        .with_paged_leaves(pager(8 * 1024).with_page_bytes(256))
}

pub(crate) fn parse_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} needs a value"))?;
            return v
                .parse::<u64>()
                .map(Some)
                .map_err(|e| format!("{name}: {e}"));
        }
    }
    Ok(None)
}

fn parse_out(args: &[String]) -> Result<String, String> {
    for (i, a) in args.iter().enumerate() {
        if a == "--out" {
            return args
                .get(i + 1)
                .cloned()
                .ok_or_else(|| "--out needs a path".to_string());
        }
    }
    Ok("ddc-divergence.trace".to_string())
}

/// Executes `ddc check <args>`, returning the report text or an error
/// (which the caller turns into a non-zero exit).
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let rest = &args[1..];
            let seed = parse_flag(rest, "--seed")?.unwrap_or(0xDDC);
            let cases = parse_flag(rest, "--cases")?.unwrap_or(25) as usize;
            let ops = parse_flag(rest, "--ops")?.unwrap_or(200) as usize;
            let out_path = parse_out(rest)?;
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
                    std::fs::write(&out_path, f.shrunk.to_text())
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
            let path = args
                .get(1)
                .ok_or_else(|| "usage: ddc check replay FILE".to_string())?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let trace = CheckTrace::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            replay_text(path, &trace)
        }
        Some("faults") => {
            let seed = parse_flag(&args[1..], "--seed")?.unwrap_or(0xFA17);
            let mut rng = DdcRng::seed_from_u64(seed);
            let mut fixed = DdcEngine::<i64>::dynamic(ddc_array::Shape::new(&[5, 4]));
            let mut growable = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
            for _ in 0..12 {
                let p = [rng.gen_range(0usize..5), rng.gen_range(0usize..4)];
                let v = rng.gen_range(-50i64..=50);
                use ddc_array::RangeSumEngine;
                fixed.apply_delta(&p, v);
                growable.add(&[p[0] as i64 - 2, p[1] as i64 - 2], v);
            }
            let a = fault_sweep(&fixed, DdcConfig::dynamic());
            let b = fault_sweep(&growable, DdcConfig::dynamic());
            if a.is_clean() && b.is_clean() {
                Ok(format!(
                    "ok: fault sweep clean over {} + {} byte offsets (seed {seed})",
                    a.offsets, b.offsets
                ))
            } else {
                Err(format!(
                    "fault sweep found problems: fixed {{panics: {:?}, accepted: {:?}, \
                     roundtrip_ok: {}}}, growable {{panics: {:?}, accepted: {:?}, \
                     roundtrip_ok: {}}}",
                    a.panicked,
                    a.silently_accepted,
                    a.roundtrip_ok,
                    b.panicked,
                    b.silently_accepted,
                    b.roundtrip_ok
                ))
            }
        }
        Some("crash") => {
            let rest = &args[1..];
            let seed = parse_flag(rest, "--seed")?.unwrap_or(0xC4A5);
            let cases = parse_flag(rest, "--cases")?.unwrap_or(12) as usize;
            let ops = parse_flag(rest, "--ops")?.unwrap_or(120) as usize;
            let out_path = parse_out(rest)?;
            let paged = rest.iter().any(|a| a == "--paged");
            let engine = if paged {
                paged_engine_config(PagerConfig::in_mem)
            } else {
                DdcConfig::dynamic()
            };
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
                    std::fs::write(&out_path, shrunk.to_text())
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
            let backend = if paged { "paged" } else { "slab" };
            Ok(format!(
                "ok: {cases} cases, {offsets} kill offsets, {recoveries} recoveries, \
                 0 violations ({backend} backend, seed {seed})\n\
                 groups swept: {} commits of 1..=8 records, {} records \
                 (a cut inside a group leaves a record prefix)",
                groups.0, groups.1
            ))
        }
        Some("serve") => {
            let rest = &args[1..];
            let seed = parse_flag(rest, "--seed")?.unwrap_or(0xF022);
            let iters = parse_flag(rest, "--iters")?.unwrap_or(400);
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
                "ok: {} iterations, {} frames, {} mutations, {} truncations, {} chunks \
                 (seed {seed}); seeded bugs found: {}",
                report.iterations,
                report.frames,
                report.mutations,
                report.truncations,
                report.chunks,
                found.join(", ")
            ))
        }
        Some("disk") => {
            let rest = &args[1..];
            let seed = parse_flag(rest, "--seed")?.unwrap_or(0xD15C);
            let quick = rest.iter().any(|a| a == "--quick");
            let paged = rest.iter().any(|a| a == "--paged");
            let schedules_dir =
                parse_str(rest, "--schedules")?.unwrap_or_else(|| "tests/faults".to_string());
            let config = if quick {
                DiskSweepConfig::quick(seed)
            } else {
                DiskSweepConfig::full(seed)
            };
            let engine = if paged {
                paged_engine_config(PagerConfig::disk)
            } else {
                DdcConfig::dynamic()
            };
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
            let mut entries: Vec<_> = std::fs::read_dir(&schedules_dir)
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
            let backend = if paged { "paged" } else { "slab" };
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

/// Parses a `--flag value` string option.
fn parse_str(args: &[String], name: &str) -> Result<Option<String>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{name} needs a value"));
        }
    }
    Ok(None)
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
