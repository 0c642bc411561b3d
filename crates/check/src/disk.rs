//! `ddc check disk` — disk-fault chaos sweep over the durable cube.
//!
//! The crate's [`Rig`] is booted on a fault-injecting [`FaultVfs`] and
//! [`walk`]ed along a seeded [`CheckTrace`] while the virtual disk
//! throws EIO, ENOSPC, torn short writes, failed sync barriers, and
//! read-back bit flips at it. The contract is the walk's (see
//! [`crate::rig`]): no acknowledged update is ever lost, every run ends
//! in full health or clean degraded mode (reads still matching the
//! oracle, writes refused with `ReadOnly`, never a panic), and the
//! indeterminate window of a failed sync barrier is exactly one op
//! wide. What this module adds is the disk: seeded fault schedules,
//! the sweep over a probability grid, the shrinker, and the seeded bug.
//!
//! Failing fault schedules are delta-debugged ([`shrink_fault_schedule`])
//! to a minimal list of [`PlannedFault`]s that still reproduces. The
//! sweep's regression teeth are the committed `tests/faults/*.sched`
//! schedules: replayed on a disk that loses the retry protocol's tail
//! truncations ([`FaultVfs::lose_truncations`], the seeded bug) the
//! harness must *re-find* a durability violation, and replayed on a
//! disk that honours them it must come back clean.
//!
//! [`snapshot_sweep`] points the same walk at the checkpoint: a fault
//! at every byte of the snapshot the rig writes and boots from.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ddc_core::vfs::{MemVfs, Vfs};
use ddc_core::{DdcConfig, FaultKind, FaultProbs, FaultVfs, PlannedFault};
use ddc_workload::{ddmin, CheckOp, CheckTrace, CheckTraceConfig, DdcRng};

use crate::rig::{walk, Rig, WalkReport, SNAP_PATH};

/// What one trace replay under faults observed.
#[derive(Clone, Debug, Default)]
pub struct DiskRunReport {
    /// Contract violations, empty when the run upheld durability.
    pub violations: Vec<String>,
    /// Every fault that actually fired, in order — replayable via
    /// [`ddc_core::FaultVfs::explicit_mem`].
    pub faults: Vec<PlannedFault>,
    /// Mutations acknowledged (and therefore owed durability).
    pub acked: usize,
    /// True when the run ended in degraded read-only mode.
    pub degraded: bool,
}

impl DiskRunReport {
    /// No violation observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Boots the rig on `vfs` (disarmed: the namespace is empty, nothing
/// can be owed yet) and walks it along `trace` with faults armed,
/// one commit per update, so a committed schedule fires each fault at
/// the file op it was recorded at. Panics anywhere in the stack are
/// caught and reported as violations — a chaos run must end in health
/// or clean degradation, never a crash.
///
/// `config` picks the engine under test, which is how the fault
/// machinery is pointed at the paged leaf backend: every boot goes
/// through [`ddc_core::wal::recover_vfs`], which opens a
/// [`PagerConfig::disk`] pager's spill file in `vfs` next to the log,
/// so an eviction write-back or a page fault-in can fail like any other
/// disk op.
///
/// [`PagerConfig::disk`]: ddc_core::PagerConfig::disk
pub fn run_trace_under_faults(
    trace: &CheckTrace,
    vfs: &FaultVfs,
    config: DdcConfig,
) -> DiskRunReport {
    let broken = |what: String| WalkReport {
        violations: vec![what],
        ..Default::default()
    };
    let walked = catch_unwind(AssertUnwindSafe(|| {
        match Rig::boot(vfs.clone(), trace.dims.len(), config) {
            Ok(mut rig) => walk(&mut rig, trace, || 1, |_, _| {}),
            Err(e) => broken(format!("fault-free boot failed: {e}")),
        }
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        broken(format!("panic under disk faults: {msg}"))
    });
    DiskRunReport {
        violations: walked.violations,
        faults: vfs.realized(),
        acked: walked.acked,
        degraded: walked.degraded,
    }
}

/// Sweeps a fault across every byte offset of the snapshot the rig's
/// checkpoint writes. The walk is `trace`'s updates and a
/// [`CheckOp::SaveLoad`], then a [`CheckOp::Crash`]; a disarmed dry run
/// gives the snapshot's bytes, the file op that writes them and the
/// `Crash` boot's first read of them. Then, at each offset `k`:
///
/// 1. the write torn after `k` bytes leaves the walk clean — the
///    checkpoint is refused as transient, the cube is not degraded, and
///    recovery lands on the oracle;
/// 2. a `snapshot.ddc` cut to its first `k` bytes is refused at boot,
///    with an error and never a panic;
/// 3. the boot's read of the snapshot with bit `8k` flipped still
///    recovers to the oracle (as does, once, a failed read).
///
/// Every injected fault must land on the file its probe names, so the
/// sweep cannot quietly test nothing. Returns the offsets swept, or the
/// first failure.
pub fn snapshot_sweep(trace: &CheckTrace, config: DdcConfig) -> Result<usize, String> {
    let mut ops: Vec<CheckOp> = trace
        .ops
        .iter()
        .filter(|op| matches!(op, CheckOp::Update { .. }))
        .cloned()
        .collect();
    ops.push(CheckOp::SaveLoad);
    let saved = CheckTrace {
        origin: trace.origin.clone(),
        dims: trace.dims.clone(),
        ops,
    };
    let mut crashed = saved.clone();
    crashed.ops.push(CheckOp::Crash);
    let d = trace.dims.len();

    // The file-op index at every `logged` call: the last two are the
    // next op before the checkpoint (its write) and after it (the boot).
    let dry = FaultVfs::explicit_mem(vec![]);
    let mut marks = Vec::new();
    let mut rig = Rig::boot(dry.clone(), d, config).map_err(|e| format!("dry boot: {e}"))?;
    let walked = walk(&mut rig, &crashed, || 1, |_, _| marks.push(dry.ops()));
    if let Some(v) = walked.violations.first() {
        return Err(format!("dry run: {v}"));
    }
    let (Some(image), &[.., write, read]) = (dry.inner().contents(SNAP_PATH), &marks[..]) else {
        return Err("dry run wrote no snapshot".to_string());
    };

    // A walk that ends at the checkpoint reports the degraded mode the
    // refused checkpoint left; one that crashes after it, the boot's.
    let probe = |trace: &CheckTrace, kind: FaultKind, op: u64, target: &str| {
        let vfs = FaultVfs::explicit_mem(vec![PlannedFault { op, kind }]);
        let run = run_trace_under_faults(trace, &vfs, config);
        if vfs.realized_paths() != [target] {
            return Err(format!("{kind:?} landed on {:?}", vfs.realized_paths()));
        }
        match run.violations.first() {
            Some(v) => Err(format!("{kind:?} on {target}: {v}")),
            None if run.degraded => Err(format!("{kind:?} on {target} degraded the cube")),
            None => Ok(()),
        }
    };
    let tmp = format!("{SNAP_PATH}.tmp");
    probe(&crashed, FaultKind::ReadErr, read, SNAP_PATH)?;
    for k in 0..image.len() {
        let torn = FaultKind::ShortWrite { keep: k as u32 };
        probe(&saved, torn, write, &tmp)?;
        let disk = MemVfs::new();
        disk.write_atomic(SNAP_PATH, &image[..k])
            .map_err(|e| e.to_string())?;
        match catch_unwind(|| Rig::boot(disk, d, config).is_ok()) {
            Ok(false) => {}
            Ok(true) => return Err(format!("snapshot cut at {k}: booted")),
            Err(_) => return Err(format!("snapshot cut at {k}: boot panicked")),
        }
        let flipped = FaultKind::ReadCorrupt { bit: 8 * k as u32 };
        probe(&crashed, flipped, read, SNAP_PATH)?;
    }
    Ok(image.len())
}

// ---------------------------------------------------------------------------
// Seeded schedules: the committed, replayable unit
// ---------------------------------------------------------------------------

/// A replayable chaos run: everything needed to regenerate the trace
/// and the fault stream. Serialized as the line-oriented text committed
/// under `tests/faults/*.sched`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    /// Cube dimensionality of the generated trace.
    pub dims: usize,
    /// Seed for [`CheckTrace::generate`].
    pub trace_seed: u64,
    /// Ops in the generated trace.
    pub trace_ops: usize,
    /// Seed for the [`FaultVfs`] fault stream.
    pub fault_seed: u64,
    /// Per-kind fault probabilities.
    pub probs: FaultProbs,
}

impl FaultSchedule {
    /// The trace this schedule drives.
    pub fn trace(&self) -> CheckTrace {
        let mut rng = DdcRng::seed_from_u64(self.trace_seed);
        CheckTrace::generate(
            self.dims,
            CheckTraceConfig {
                ops: self.trace_ops,
                max_cells: 512,
            },
            &mut rng,
        )
    }

    /// A fresh fault-injecting namespace for one replay.
    pub fn vfs(&self) -> FaultVfs {
        FaultVfs::seeded_mem(self.fault_seed, self.probs)
    }

    /// Serializes to the committed text form.
    pub fn to_text(&self) -> String {
        let p = &self.probs;
        format!(
            "# ddc check disk fault schedule\n\
             dims {}\n\
             trace-seed {:#x}\n\
             trace-ops {}\n\
             fault-seed {:#x}\n\
             p write_err {}\n\
             p short_write {}\n\
             p no_space {}\n\
             p sync_fail {}\n\
             p read_err {}\n\
             p read_corrupt {}\n",
            self.dims,
            self.trace_seed,
            self.trace_ops,
            self.fault_seed,
            p.write_err,
            p.short_write,
            p.no_space,
            p.sync_fail,
            p.read_err,
            p.read_corrupt,
        )
    }

    /// Parses the text form; unknown keys are rejected so a typo in a
    /// committed schedule fails loudly instead of silently weakening it.
    pub fn parse(text: &str) -> Result<Self, String> {
        fn int(tok: &str) -> Result<u64, String> {
            let parsed = match tok.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => tok.parse(),
            };
            parsed.map_err(|e| format!("bad integer {tok:?}: {e}"))
        }
        let (mut dims, mut trace_seed, mut trace_ops, mut fault_seed) = (None, None, None, None);
        let mut probs = FaultProbs::none();
        for (no, line) in text.lines().enumerate() {
            let words: Vec<&str> = line.split_whitespace().collect();
            let err = |what: &str| format!("line {}: {what}: {line:?}", no + 1);
            match words[..] {
                [] => {}
                [comment, ..] if comment.starts_with('#') => {}
                ["dims", v] => dims = Some(int(v)? as usize),
                ["trace-seed", v] => trace_seed = Some(int(v)?),
                ["trace-ops", v] => trace_ops = Some(int(v)? as usize),
                ["fault-seed", v] => fault_seed = Some(int(v)?),
                ["p", kind, p] => {
                    let p: f64 = (p.parse()).map_err(|e| err(&format!("bad probability: {e}")))?;
                    match kind {
                        "write_err" => probs.write_err = p,
                        "short_write" => probs.short_write = p,
                        "no_space" => probs.no_space = p,
                        "sync_fail" => probs.sync_fail = p,
                        "read_err" => probs.read_err = p,
                        "read_corrupt" => probs.read_corrupt = p,
                        _ => return Err(err("unknown fault kind")),
                    }
                }
                _ => return Err(err("expected `key value` or `p kind probability`")),
            }
        }
        Ok(Self {
            dims: dims.ok_or("missing dims")?,
            trace_seed: trace_seed.ok_or("missing trace-seed")?,
            trace_ops: trace_ops.ok_or("missing trace-ops")?,
            fault_seed: fault_seed.ok_or("missing fault-seed")?,
            probs,
        })
    }
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// Delta-debugs a failing fault list to a (1-minimal) sublist that
/// still violates the durability contract when replayed explicitly (on
/// a disk that loses truncations when `lossy`). Dropping a fault shifts
/// every later retry, so a candidate that merely breaks alignment stops
/// failing and is kept — the ddmin fixpoint handles that automatically. `config` is the
/// engine the violation was found on, so a paged-backend violation
/// shrinks against the backend that found it.
pub fn shrink_fault_schedule(
    trace: &CheckTrace,
    faults: &[PlannedFault],
    lossy: bool,
    config: DdcConfig,
) -> Vec<PlannedFault> {
    let fails = |subset: &[PlannedFault]| {
        let vfs = FaultVfs::explicit_mem(subset.to_vec());
        vfs.lose_truncations(lossy);
        !run_trace_under_faults(trace, &vfs, config).is_clean()
    };
    if !fails(faults) {
        return faults.to_vec();
    }
    ddmin(faults, |subset| !subset.is_empty() && fails(subset))
}

// ---------------------------------------------------------------------------
// The sweep and the seeded-bug re-finder
// ---------------------------------------------------------------------------

/// Sweep sizes.
#[derive(Clone, Debug)]
pub struct DiskSweepConfig {
    /// Base seed; trace and fault seeds derive from it per run.
    pub seed: u64,
    /// Seeded traces per (dimension, probability) grid point.
    pub traces: usize,
    /// Ops per trace.
    pub trace_ops: usize,
    /// Dimensionalities exercised.
    pub dims: Vec<usize>,
    /// Fault-probability grid (0.0 = control runs).
    pub grid: Vec<f64>,
}

impl DiskSweepConfig {
    /// CI-sized sweep (`ddc check disk --quick`).
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            traces: 3,
            trace_ops: 50,
            dims: vec![1, 2],
            grid: vec![0.0, 0.01, 0.06],
        }
    }

    /// The full overnight grid.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            traces: 8,
            trace_ops: 140,
            dims: vec![1, 2, 3],
            grid: vec![0.0, 0.002, 0.01, 0.03, 0.06, 0.15],
        }
    }
}

/// A sweep run's probabilities at grid point `p`: reads are weighted
/// down (they only fire during recovery) and ENOSPC is rarer than the
/// transient kinds so most runs exercise the retry path rather than
/// degrading on first contact.
fn probs_at(p: f64) -> FaultProbs {
    FaultProbs {
        write_err: p,
        short_write: p,
        no_space: p / 4.0,
        sync_fail: p,
        read_err: p / 2.0,
        read_corrupt: p / 4.0,
    }
}

/// One surviving contract violation, shrunk and replayable.
#[derive(Clone, Debug)]
pub struct DiskViolation {
    /// The seeded schedule that produced it.
    pub schedule: FaultSchedule,
    /// First violation message.
    pub detail: String,
    /// Shrunk explicit fault list that still reproduces.
    pub shrunk: Vec<PlannedFault>,
}

/// What a [`disk_sweep`] measured.
#[derive(Clone, Debug, Default)]
pub struct DiskSweepReport {
    /// Trace replays performed.
    pub runs: usize,
    /// Faults injected across all runs.
    pub faults_injected: usize,
    /// Runs that ended in (clean) degraded mode.
    pub degraded_runs: usize,
    /// Mutations acknowledged across all runs.
    pub acked: usize,
    /// Violations found (empty on a healthy build).
    pub violations: Vec<DiskViolation>,
}

impl DiskSweepReport {
    /// No violation anywhere on the grid.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs seeded traces across the fault-probability grid on a disk that
/// honours truncations. Any violation is shrunk before reporting.
/// `engine` is the engine config under test — `ddc check disk --paged`
/// points the whole grid at the buffer-pool leaf backend.
pub fn disk_sweep(config: &DiskSweepConfig, engine: DdcConfig) -> DiskSweepReport {
    let mut report = DiskSweepReport::default();
    let mut run_index = 0u64;
    for &d in &config.dims {
        for &p in &config.grid {
            for t in 0..config.traces {
                run_index += 1;
                let schedule = FaultSchedule {
                    dims: d,
                    trace_seed: config
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(run_index),
                    trace_ops: config.trace_ops,
                    fault_seed: config.seed ^ (run_index << 20) ^ t as u64,
                    probs: probs_at(p),
                };
                let trace = schedule.trace();
                let vfs = schedule.vfs();
                let run = run_trace_under_faults(&trace, &vfs, engine);
                report.runs += 1;
                report.faults_injected += run.faults.len();
                report.acked += run.acked;
                if run.degraded {
                    report.degraded_runs += 1;
                }
                if let Some(detail) = run.violations.first() {
                    let shrunk = shrink_fault_schedule(&trace, &run.faults, false, engine);
                    report.violations.push(DiskViolation {
                        schedule,
                        detail: detail.clone(),
                        shrunk,
                    });
                }
            }
        }
    }
    report
}

/// What replaying one committed schedule against the seeded bug found.
#[derive(Clone, Debug)]
pub struct RefindReport {
    /// First violation the lossy disk produced.
    pub violation: String,
    /// Faults the lossy run injected.
    pub faults: usize,
    /// Shrunk fault list still reproducing on the lossy disk.
    pub shrunk: Vec<PlannedFault>,
}

/// Replays a committed schedule twice: on a disk that loses
/// truncations ([`FaultVfs::lose_truncations`]) the harness must
/// re-find a durability violation (the seeded bug), and on one that
/// honours them the same schedule must come back clean. `Err` means the
/// harness lost its teeth — a CI failure.
pub fn refind_seeded_bug(schedule: &FaultSchedule) -> Result<RefindReport, String> {
    let trace = schedule.trace();
    let vfs = schedule.vfs();
    vfs.lose_truncations(true);
    let lossy_run = run_trace_under_faults(&trace, &vfs, DdcConfig::dynamic());
    let Some(violation) = lossy_run.violations.first().cloned() else {
        return Err(
            "schedule no longer re-finds the seeded torn-tail bug when truncations are lost"
                .to_string(),
        );
    };
    let production = run_trace_under_faults(&trace, &schedule.vfs(), DdcConfig::dynamic());
    if let Some(v) = production.violations.first() {
        return Err(format!(
            "schedule violates durability on a disk that HONOURS truncations: {v}"
        ));
    }
    Ok(RefindReport {
        violation,
        faults: lossy_run.faults.len(),
        shrunk: shrink_fault_schedule(&trace, &lossy_run.faults, true, DdcConfig::dynamic()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean_under_the_production_policy() {
        let report = disk_sweep(&DiskSweepConfig::quick(0xD15C), DdcConfig::dynamic());
        assert!(
            report.is_clean(),
            "{:?}",
            report
                .violations
                .iter()
                .map(|v| &v.detail)
                .collect::<Vec<_>>()
        );
        assert!(report.runs > 0);
        assert!(
            report.faults_injected > 0,
            "grid injected no faults at all — the sweep is vacuous"
        );
    }

    #[test]
    fn paged_run_observes_spill_faults_and_stays_clean() {
        use ddc_core::PagerConfig;
        // Leaf blocks behind a buffer pool small enough that the trace
        // evicts, with write faults likely enough that some land on
        // spill write-backs; the bounded pager retry must absorb them.
        // A two-page pool: every second leaf block forces an eviction
        // write-back, so spill I/O happens on virtually every op. A
        // `disk` pager, so the spill file is opened through `vfs`.
        let engine = DdcConfig::dynamic()
            .with_elision(1)
            .with_paged_leaves(PagerConfig::disk(512).with_page_bytes(256));
        let mut spill_faulted = false;
        for salt in 0..32u64 {
            let schedule = FaultSchedule {
                dims: 2,
                trace_seed: 0x5B1F ^ salt,
                trace_ops: 60,
                fault_seed: 0xFA57 ^ (salt << 8),
                probs: probs_at(0.05),
            };
            let vfs = schedule.vfs();
            let run = run_trace_under_faults(&schedule.trace(), &vfs, engine);
            assert!(
                run.violations.is_empty(),
                "paged run under spill faults violated the contract: {:?}",
                run.violations
            );
            let paths = vfs.realized_paths();
            assert_eq!(paths.len(), run.faults.len());
            if paths.iter().any(|p| p.ends_with(".spill")) {
                spill_faulted = true;
                break;
            }
        }
        assert!(
            spill_faulted,
            "no seeded fault ever landed on a pager spill file — the \
             spill path is not routed through the fault harness"
        );
    }

    #[test]
    fn explicit_replay_of_realized_faults_is_deterministic() {
        let schedule = FaultSchedule {
            dims: 2,
            trace_seed: 0x51,
            trace_ops: 50,
            fault_seed: 0x52,
            probs: probs_at(0.08),
        };
        let trace = schedule.trace();
        let seeded = run_trace_under_faults(&trace, &schedule.vfs(), DdcConfig::dynamic());
        let replay_vfs = FaultVfs::explicit_mem(seeded.faults.clone());
        let replay = run_trace_under_faults(&trace, &replay_vfs, DdcConfig::dynamic());
        assert_eq!(seeded.faults, replay.faults);
        assert_eq!(seeded.violations, replay.violations);
        assert_eq!(seeded.acked, replay.acked);
    }

    #[test]
    fn schedule_text_round_trips() {
        let schedule = FaultSchedule {
            dims: 3,
            trace_seed: 0xDEAD_BEEF,
            trace_ops: 77,
            fault_seed: 42,
            probs: FaultProbs {
                write_err: 0.01,
                short_write: 0.25,
                no_space: 0.0,
                sync_fail: 0.125,
                read_err: 0.0,
                read_corrupt: 0.0625,
            },
        };
        let parsed = FaultSchedule::parse(&schedule.to_text()).expect("round trip");
        assert_eq!(parsed, schedule);
        assert!(FaultSchedule::parse("dims 2\nbogus 4\n").is_err());
        assert!(FaultSchedule::parse("p gremlins 0.5\n").is_err());
        assert!(FaultSchedule::parse("dims 2\n").is_err(), "missing fields");
    }

    #[test]
    fn enospc_degrades_cleanly_and_loses_nothing() {
        // A plan that throws ENOSPC at every write once armed: the very
        // first logged op degrades the cube; queries must keep serving
        // the (empty-prefix) acked state and recovery must be exact.
        let schedule = FaultSchedule {
            dims: 2,
            trace_seed: 0x77,
            trace_ops: 40,
            fault_seed: 0x78,
            probs: FaultProbs {
                no_space: 1.0,
                ..FaultProbs::none()
            },
        };
        let trace = schedule.trace();
        let run = run_trace_under_faults(&trace, &schedule.vfs(), DdcConfig::dynamic());
        assert!(run.is_clean(), "{:?}", run.violations);
        assert!(!run.faults.is_empty());
    }

    #[test]
    fn shrinker_reduces_a_failing_schedule_and_keeps_it_failing() {
        // Find a lost-truncation failure, then shrink it.
        let mut found = None;
        for seed in 0..64u64 {
            let schedule = FaultSchedule {
                dims: 2,
                trace_seed: seed.wrapping_mul(131) + 7,
                trace_ops: 40,
                fault_seed: seed,
                probs: FaultProbs {
                    short_write: 0.3,
                    ..FaultProbs::none()
                },
            };
            let trace = schedule.trace();
            let vfs = schedule.vfs();
            vfs.lose_truncations(true);
            let run = run_trace_under_faults(&trace, &vfs, DdcConfig::dynamic());
            if !run.is_clean() && run.faults.len() >= 2 {
                found = Some((trace, run.faults));
                break;
            }
        }
        let (trace, faults) = found.expect("some seed exposes the lost truncations");
        let shrunk = shrink_fault_schedule(&trace, &faults, true, DdcConfig::dynamic());
        assert!(!shrunk.is_empty());
        assert!(shrunk.len() <= faults.len());
        let vfs = FaultVfs::explicit_mem(shrunk.clone());
        vfs.lose_truncations(true);
        assert!(
            !run_trace_under_faults(&trace, &vfs, DdcConfig::dynamic()).is_clean(),
            "shrunk schedule must still reproduce"
        );
    }
}
