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
//! wide. What this module adds is the disk: seeded fault streams, the
//! sweep over a probability grid, and the seeded bug.
//!
//! A failing run is written down as a trace like any other: the faults
//! it realised go in as [`CheckOp::Fault`] ops ([`DiskRunReport::inlined`]),
//! so the trace alone replays the run on a disk with no plan of its own,
//! and [`shrink_trace`] minimises its ops and faults together. The
//! sweep's regression teeth are the committed `tests/faults/*.trace`
//! repros: replayed on a disk that loses the retry protocol's tail
//! truncations ([`FaultVfs::lose_truncations`], the seeded bug) the
//! harness must *re-find* a durability violation, and replayed on a
//! disk that honours them it must come back clean.
//!
//! [`snapshot_sweep`] points the same walk at the checkpoint: a fault
//! at every byte of the snapshot the rig writes and boots from.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ddc_core::vfs::{MemVfs, Vfs};
use ddc_core::{DdcConfig, FaultKind, FaultProbs, FaultVfs, PlannedFault};
use ddc_workload::{shrink_trace, CheckOp, CheckTrace, CheckTraceConfig, DdcRng};

use crate::rig::{walk, Rig, WalkReport, SNAP_PATH};

/// What one trace replay under faults observed.
#[derive(Clone, Debug, Default)]
pub struct DiskRunReport {
    /// Contract violations, empty when the run upheld durability.
    pub violations: Vec<String>,
    /// Every fault that actually fired, in order.
    pub faults: Vec<PlannedFault>,
    /// How many of them fired on a pager's spill file.
    pub spill_faults: usize,
    /// Mutations acknowledged (and therefore owed durability).
    pub acked: usize,
    /// True when the run ended in degraded read-only mode.
    pub degraded: bool,
    /// The disk's file-op count as each trace op began.
    starts: Vec<u64>,
}

impl DiskRunReport {
    /// No violation observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `trace`, the trace this run walked, with the faults it realised
    /// written in: each as a [`CheckOp::Fault`] before the op during
    /// which it fired, `after` counted from the file-op count at that
    /// op's start. The fault ops `trace` held are dropped (what they
    /// planned and fired is among the realised faults), so the result
    /// replays this run on [`FaultVfs::explicit_mem`]`(vec![])`.
    pub fn inlined(&self, trace: &CheckTrace) -> CheckTrace {
        let mut faults = self.faults.iter().peekable();
        let mut ops = Vec::with_capacity(trace.ops.len() + self.faults.len());
        for (i, op) in trace.ops.iter().enumerate() {
            if let Some(&start) = self.starts.get(i) {
                // An op that made no file op hands its faults on.
                let end = self.starts.get(i + 1).copied().unwrap_or(u64::MAX);
                while let Some(f) = faults.next_if(|f| f.op < end) {
                    let (after, kind) = (f.op - start, f.kind);
                    ops.push(CheckOp::Fault { after, kind });
                }
            }
            if !matches!(op, CheckOp::Fault { .. }) {
                ops.push(op.clone());
            }
        }
        CheckTrace {
            ops,
            ..trace.clone()
        }
    }
}

/// Boots the rig on `vfs` (disarmed: the namespace is empty, nothing
/// can be owed yet) and walks it along `trace` with faults armed,
/// one commit per update, so a trace's fault ops fire at the file ops
/// they were recorded at. Panics anywhere in the stack are
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
    // Outside the unwind, so a run that panicked still places its faults.
    let mut starts = Vec::with_capacity(trace.ops.len());
    let walked = catch_unwind(AssertUnwindSafe(|| {
        match Rig::boot(vfs.clone(), trace.dims.len(), config) {
            Ok(mut rig) => walk(&mut rig, trace, || 1, || starts.push(vfs.ops()), |_, _| {}),
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
    let spill = |path: &&String| path.ends_with(".spill");
    DiskRunReport {
        violations: walked.violations,
        faults: vfs.realized(),
        spill_faults: vfs.realized_paths().iter().filter(spill).count(),
        acked: walked.acked,
        degraded: walked.degraded,
        starts,
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
    let walked = walk(
        &mut rig,
        &crashed,
        || 1,
        || {},
        |_, _| marks.push(dry.ops()),
    );
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
        disk.write_atomic(SNAP_PATH, |w| w.write_all(&image[..k]))
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
// The sweep and the seeded-bug re-finder
// ---------------------------------------------------------------------------

/// Sweep sizes.
#[derive(Clone, Debug)]
pub struct DiskSweepConfig {
    /// Base seed; trace and fault seeds derive from it per run.
    pub seed: u64,
    /// Seeded traces per (dimension, probability) grid point.
    pub traces: usize,
    /// Op rolls per trace ([`CheckTraceConfig::ops`]).
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

/// The `d`-dimensional trace of `ops` rolls a sweep run walks.
fn seeded_trace(d: usize, seed: u64, ops: usize) -> CheckTrace {
    let mut rng = DdcRng::seed_from_u64(seed);
    let config = CheckTraceConfig {
        ops,
        max_cells: 512,
    };
    CheckTrace::generate(d, config, &mut rng)
}

/// `trace` walked on a disk with no plan but the trace's own fault ops,
/// one that loses truncations when `lossy`.
fn replay(trace: &CheckTrace, lossy: bool, config: DdcConfig) -> DiskRunReport {
    let vfs = FaultVfs::explicit_mem(vec![]);
    vfs.lose_truncations(lossy);
    run_trace_under_faults(trace, &vfs, config)
}

/// `trace` shrunk with [`shrink_trace`] against its [`replay`] failing,
/// or as it is if it does not fail there.
fn shrink_on_disk(trace: &CheckTrace, lossy: bool, config: DdcConfig) -> CheckTrace {
    let fails = |t: &CheckTrace| !replay(t, lossy, config).is_clean();
    match fails(trace) {
        true => shrink_trace(trace, fails),
        false => trace.clone(),
    }
}

/// One surviving contract violation, shrunk and replayable.
#[derive(Clone, Debug)]
pub struct DiskViolation {
    /// First violation message.
    pub detail: String,
    /// The run's trace with the faults it realised inline.
    pub trace: CheckTrace,
    /// `trace` shrunk: ops and faults that still reproduce.
    pub shrunk: CheckTrace,
}

/// What a [`disk_sweep`] measured.
#[derive(Clone, Debug, Default)]
pub struct DiskSweepReport {
    /// Trace replays performed.
    pub runs: usize,
    /// Faults injected across all runs.
    pub faults_injected: usize,
    /// Of those, the ones that landed on a pager's spill file.
    pub spill_faults: usize,
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
/// honours truncations. Any violation is written with its faults inline
/// and shrunk before reporting. `engine` is the engine config under
/// test — `ddc check disk --paged` points the whole grid at the
/// buffer-pool leaf backend.
pub fn disk_sweep(config: &DiskSweepConfig, engine: DdcConfig) -> DiskSweepReport {
    let mut report = DiskSweepReport::default();
    let mut run_index = 0u64;
    for &d in &config.dims {
        for &p in &config.grid {
            for t in 0..config.traces {
                run_index += 1;
                let trace_seed =
                    (config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(run_index);
                let fault_seed = config.seed ^ (run_index << 20) ^ t as u64;
                let trace = seeded_trace(d, trace_seed, config.trace_ops);
                let vfs = FaultVfs::seeded_mem(fault_seed, probs_at(p));
                let run = run_trace_under_faults(&trace, &vfs, engine);
                report.runs += 1;
                report.faults_injected += run.faults.len();
                report.spill_faults += run.spill_faults;
                report.acked += run.acked;
                if run.degraded {
                    report.degraded_runs += 1;
                }
                if let Some(detail) = run.violations.first() {
                    let trace = run.inlined(&trace);
                    report.violations.push(DiskViolation {
                        detail: detail.clone(),
                        shrunk: shrink_on_disk(&trace, false, engine),
                        trace,
                    });
                }
            }
        }
    }
    report
}

/// What replaying one committed repro against the seeded bug found.
#[derive(Clone, Debug)]
pub struct RefindReport {
    /// First violation the lossy disk produced.
    pub violation: String,
    /// The repro shrunk: ops and faults still failing on the lossy disk.
    pub shrunk: CheckTrace,
}

/// Replays a committed repro twice, on disks with no plan of their own
/// (its fault ops are the plan): on one that loses truncations
/// ([`FaultVfs::lose_truncations`]) the harness must re-find a
/// durability violation (the seeded bug), and on one that honours them
/// the same trace must come back clean. `Err` means the harness lost
/// its teeth — a CI failure.
pub fn refind_seeded_bug(trace: &CheckTrace) -> Result<RefindReport, String> {
    let config = DdcConfig::dynamic();
    let Some(violation) = replay(trace, true, config).violations.first().cloned() else {
        return Err("no violation on a disk that loses truncations".to_string());
    };
    if let Some(v) = replay(trace, false, config).violations.first() {
        return Err(format!("violation on a disk that HONOURS truncations: {v}"));
    }
    Ok(RefindReport {
        violation,
        shrunk: shrink_on_disk(trace, true, config),
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
            let vfs = FaultVfs::seeded_mem(0xFA57 ^ (salt << 8), probs_at(0.05));
            let run = run_trace_under_faults(&seeded_trace(2, 0x5B1F ^ salt, 60), &vfs, engine);
            assert!(
                run.violations.is_empty(),
                "paged run under spill faults violated the contract: {:?}",
                run.violations
            );
            assert_eq!(vfs.realized_paths().len(), run.faults.len());
            if run.spill_faults > 0 {
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

    /// A seeded run written with its faults inline replays on a disk
    /// with no plan of its own: the same faults at the same file ops,
    /// the same verdict, the same acknowledgements — and so does the
    /// inlined trace's text.
    #[test]
    fn explicit_replay_of_realized_faults_is_deterministic() {
        let trace = seeded_trace(2, 0x51, 50);
        let seeded = run_trace_under_faults(
            &trace,
            &FaultVfs::seeded_mem(0x52, probs_at(0.08)),
            DdcConfig::dynamic(),
        );
        assert!(seeded.faults.len() > 1, "{seeded:?}");
        let inlined = seeded.inlined(&trace);
        assert_eq!(inlined.faults(), seeded.faults.len());
        assert_eq!(inlined.ops.len(), trace.ops.len() + seeded.faults.len());
        let text = CheckTrace::parse(&inlined.to_text()).expect("parses");
        for replayed in [&inlined, &text] {
            // On `FaultVfs::explicit_mem(vec![])`: the trace is the plan.
            let replay = replay(replayed, false, DdcConfig::dynamic());
            assert_eq!(seeded.faults, replay.faults);
            assert_eq!(seeded.violations, replay.violations);
            assert_eq!(seeded.acked, replay.acked);
            // Inlining the replay changes nothing.
            assert_eq!(replay.inlined(replayed), inlined);
        }
    }

    #[test]
    fn enospc_degrades_cleanly_and_loses_nothing() {
        // A plan that throws ENOSPC at every write once armed: the very
        // first logged op degrades the cube; queries must keep serving
        // the (empty-prefix) acked state and recovery must be exact.
        let probs = FaultProbs {
            no_space: 1.0,
            ..FaultProbs::none()
        };
        let trace = seeded_trace(2, 0x77, 40);
        let vfs = FaultVfs::seeded_mem(0x78, probs);
        let run = run_trace_under_faults(&trace, &vfs, DdcConfig::dynamic());
        assert!(run.is_clean(), "{:?}", run.violations);
        assert!(!run.faults.is_empty());
    }

    #[test]
    fn shrinker_reduces_a_failing_schedule_and_keeps_it_failing() {
        // Find a lost-truncation failure, then shrink it: ops and faults.
        let probs = FaultProbs {
            short_write: 0.3,
            ..FaultProbs::none()
        };
        let found = (0..64u64).find_map(|seed| {
            let trace = seeded_trace(2, seed.wrapping_mul(131) + 7, 40);
            let vfs = FaultVfs::seeded_mem(seed, probs);
            vfs.lose_truncations(true);
            let run = run_trace_under_faults(&trace, &vfs, DdcConfig::dynamic());
            (!run.is_clean() && run.faults.len() >= 2).then(|| run.inlined(&trace))
        });
        let trace = found.expect("some seed exposes the lost truncations");
        let shrunk = shrink_on_disk(&trace, true, DdcConfig::dynamic());
        assert!(shrunk.faults() >= 1 && shrunk.faults() <= trace.faults());
        assert!(shrunk.ops.len() < trace.ops.len(), "{}", shrunk.to_text());
        let again = replay(&shrunk, true, DdcConfig::dynamic());
        assert!(!again.is_clean(), "shrunk trace must still reproduce");
    }
}
