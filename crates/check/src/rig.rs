//! The one durable rig: a [`DurableCube`] living on a [`Vfs`], driven
//! by the calls `ddc serve --durable` makes.
//!
//! Boot is [`wal::recover_vfs`], a write is [`DurableCube::add_group`]
//! (a trace's cell set too: the update of `value − cell`, see
//! [`Rig::set`]), a checkpoint is [`DurableCube::checkpoint_vfs`], and
//! a crash is a drop and a re-boot:
//! the log is *resumed* (tail repaired, appends continue), as a
//! restarted server resumes it. Everything in this crate that needs a
//! durable cube holds a [`Rig`] — the roster's `durable-*` engines and
//! the kill sweep on a [`MemVfs`], the chaos sweep on a [`FaultVfs`] —
//! and [`walk`] is the one replay of a [`CheckTrace`] against it, beside
//! the [`Oracle`] of acknowledged ops.
//!
//! The contract [`walk`] checks at every step and at a final recovery:
//!
//! * **No acknowledged update is ever lost,** none that was refused
//!   appears: every recovery reproduces the oracle.
//! * **A failed mutation says what it means** ([`IoError`]): transient
//!   leaves the cube healthy, exhaustion and `ReadOnly` go with degraded
//!   mode, in which reads keep matching the oracle.
//! * **The indeterminate window is exactly one op wide.** When an
//!   append dies at the sync barrier *and* the torn-tail cleanup also
//!   failed, that one unacked record may surface after recovery;
//!   anything beyond it is a violation.
//!
//! On a disk that cannot fail the last two are vacuous.

use std::io;

use ddc_core::vfs::{MemVfs, Vfs};
use ddc_core::wal::{self, IoError, RetryPolicy};
use ddc_core::{DdcConfig, DurableCube, FaultVfs};
use ddc_workload::{CheckOp, CheckTrace};

use crate::oracle::Oracle;

/// Log path inside the rig's namespace.
pub(crate) const WAL_PATH: &str = "wal.log";
/// Snapshot path inside the rig's namespace.
pub(crate) const SNAP_PATH: &str = "snapshot.ddc";

/// The rig's disk: a namespace, plus the two switches a fault-injecting
/// one has (no-ops on a disk that cannot fail).
pub(crate) trait RigDisk: Vfs {
    /// Arms or disarms fault injection.
    fn arm(&self, _on: bool) {}
    /// Makes truncations silently fail, or stops; the previous setting.
    fn lose_truncations(&self, _on: bool) -> bool {
        false
    }
}

impl RigDisk for MemVfs {}

impl RigDisk for FaultVfs {
    fn arm(&self, on: bool) {
        FaultVfs::arm(self, on);
    }
    fn lose_truncations(&self, on: bool) -> bool {
        FaultVfs::lose_truncations(self, on)
    }
}

/// A durable cube and the disk it lives on.
pub(crate) struct Rig<V: RigDisk> {
    vfs: V,
    config: DdcConfig,
    /// The cube as of the last boot.
    pub(crate) durable: DurableCube<i64, V::File>,
}

impl<V: RigDisk> Rig<V>
where
    V::File: 'static,
{
    /// Recovers a `d`-dimensional cube from whatever `vfs` holds
    /// (nothing, on a fresh namespace) and resumes its log.
    pub(crate) fn boot(vfs: V, d: usize, config: DdcConfig) -> io::Result<Self> {
        let durable = Self::recover(&vfs, d, config)?;
        Ok(Self {
            vfs,
            config,
            durable,
        })
    }

    /// The seeded lost-truncation bug is an append-path bug: recovery's
    /// own tail repair keeps truncating, so the switch is off for the
    /// boot and restored after it.
    fn recover(vfs: &V, d: usize, config: DdcConfig) -> io::Result<DurableCube<i64, V::File>> {
        let lossy = vfs.lose_truncations(false);
        let policy = RetryPolicy::instant();
        let booted = wal::recover_vfs::<i64, _>(vfs, WAL_PATH, Some(SNAP_PATH), d, config, policy);
        vfs.lose_truncations(lossy);
        booted.map(|(cube, _report)| cube)
    }

    /// Sets a cell as a server client would: reads it, then commits the
    /// update of `value − old` as a group of one. Returns `old`.
    pub(crate) fn set(&mut self, point: &[i64], value: i64) -> Result<i64, IoError> {
        let old = self.durable.cube().cell(point);
        self.durable.add_group(&[(point.to_vec(), value - old)])?;
        Ok(old)
    }

    /// Snapshot, then rotate the log.
    pub(crate) fn checkpoint(&mut self) -> Result<u64, IoError> {
        self.durable.checkpoint_vfs(&self.vfs, SNAP_PATH, WAL_PATH)
    }

    /// The kill: only the namespace survives, and the cube is booted
    /// from it again. With faults armed that boot may fail — a
    /// legitimate transient — and is then repeated disarmed, which must
    /// succeed.
    pub(crate) fn crash(&mut self) -> io::Result<()> {
        let d = self.durable.cube().ndim();
        self.durable = match Self::recover(&self.vfs, d, self.config) {
            Ok(cube) => cube,
            Err(_) => {
                self.vfs.arm(false);
                let cube = Self::recover(&self.vfs, d, self.config)?;
                self.vfs.arm(true);
                cube
            }
        };
        Ok(())
    }
}

/// What one [`walk`] observed.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkReport {
    /// Contract violations, empty when the walk upheld durability.
    pub(crate) violations: Vec<String>,
    /// Updates and sets acknowledged (and therefore owed durability).
    pub(crate) acked: usize,
    /// True when the walk ended in degraded read-only mode.
    pub(crate) degraded: bool,
    /// `(commits, records)` of the update groups in the final log.
    pub(crate) groups: (usize, usize),
}

/// The walk's books: what was acknowledged, what is in doubt, what
/// went wrong.
struct Ledger {
    oracle: Oracle,
    /// The one op whose durability the sync-barrier commit window left
    /// ambiguous; recovery may surface it or not, but nothing else.
    pending: Option<CheckOp>,
    report: WalkReport,
}

/// Drives `rig` through `trace` beside the oracle of acknowledged ops,
/// arming the disk for the ops and disarming it for a final kill and
/// recovery. Consecutive updates are committed
/// [`DurableCube::add_group`]s of `group_size()` records (asked once per
/// group; the chaos sweep says 1, so that a committed fault schedule
/// fires at the same file ops), a [`CheckOp::Set`] is [`Rig::set`], a
/// commit of its own, [`CheckOp::Grow`] writes nothing (the cube grows
/// where the data lands), [`CheckOp::SaveLoad`] checkpoints,
/// [`CheckOp::Crash`] kills and re-boots. `logged(n, oracle)` is called
/// whenever the log is known to hold `n` records with `oracle` the
/// state they and the snapshot add up to: at the start, after each
/// acknowledged record, after a checkpoint (`n` = 0).
pub(crate) fn walk<V: RigDisk>(
    rig: &mut Rig<V>,
    trace: &CheckTrace,
    mut group_size: impl FnMut() -> usize,
    mut logged: impl FnMut(u64, &Oracle),
) -> WalkReport
where
    V::File: 'static,
{
    let mut book = Ledger {
        oracle: Oracle::new(trace.dims.len()),
        pending: None,
        report: WalkReport::default(),
    };
    logged(rig.durable.wal_stats().1, &book.oracle);
    rig.vfs.arm(true);

    let mut ops = trace.ops.iter().enumerate().peekable();
    while let Some((i, op)) = ops.next() {
        match op {
            CheckOp::Update { point, delta } => {
                // This update and the ones right behind it: one commit.
                let mut group = vec![(point.clone(), *delta)];
                let size = group_size();
                while group.len() < size {
                    let Some((_, CheckOp::Update { point, delta })) = ops.peek() else {
                        break;
                    };
                    group.push((point.clone(), *delta));
                    ops.next();
                }
                match rig.durable.add_group(&group) {
                    Ok(()) => {
                        let before = rig.durable.wal_stats().1 - group.len() as u64;
                        for (n, (point, delta)) in group.iter().enumerate() {
                            book.oracle.add(point, *delta);
                            logged(before + n as u64 + 1, &book.oracle);
                        }
                        let groups = &mut book.report.groups;
                        *groups = (groups.0 + 1, groups.1 + group.len());
                        book.report.acked += group.len();
                    }
                    // A faulted walk commits singles, so the window a
                    // failed group leaves is this one op.
                    Err(e) => book.refused(i, op, &e, rig.durable.degraded()),
                }
            }
            CheckOp::Set { point, value } => match rig.set(point, *value) {
                Ok(old) => {
                    let want = book.oracle.set(point, *value);
                    if old != want {
                        book.violation(format!("op {i}: set returned {old}, oracle had {want}"));
                    }
                    book.report.acked += 1;
                    logged(rig.durable.wal_stats().1, &book.oracle);
                }
                Err(e) => book.refused(i, op, &e, rig.durable.degraded()),
            },
            CheckOp::Query { lo, hi } => {
                let got = rig.durable.cube().range_sum(lo, hi);
                let want = book.oracle.range_sum(lo, hi);
                if got != want {
                    book.violation(format!(
                        "op {i}: range_sum diverged (got {got}, oracle {want}, degraded={})",
                        rig.durable.degraded().is_some()
                    ));
                }
            }
            CheckOp::Cell { point } => {
                let got = rig.durable.cube().cell(point);
                let want = book.oracle.cell(point);
                if got != want {
                    book.violation(format!("op {i}: cell diverged (got {got}, oracle {want})"));
                }
            }
            CheckOp::SaveLoad => match (rig.checkpoint(), rig.durable.degraded()) {
                (Ok(_), _) => {
                    book.report.groups = (0, 0);
                    logged(rig.durable.wal_stats().1, &book.oracle);
                }
                // Pre-rename failure: old snapshot + full log intact.
                (Err(IoError::Transient { .. }), Some(_)) => book.violation(format!(
                    "op {i}: transient checkpoint failure left the cube degraded"
                )),
                (Err(IoError::Transient { .. }), None) | (Err(_), Some(_)) => {}
                (Err(e), None) => book.violation(format!(
                    "op {i}: terminal checkpoint failure without degraded mode: {e}"
                )),
            },
            CheckOp::Crash => {
                if !book.recovers(rig, &format!("op {i}: mid-trace")) {
                    return book.report;
                }
            }
            CheckOp::Grow { .. } | CheckOp::Flush => {}
        }
    }

    // Epilogue: with the disk healthy again, a pristine recovery must
    // land exactly on the acked state (or acked + the pending op).
    rig.vfs.arm(false);
    book.report.degraded = rig.durable.degraded().is_some();
    book.recovers(rig, "final");
    book.report
}

impl Ledger {
    fn violation(&mut self, what: String) {
        self.report.violations.push(what);
    }

    /// Kills and re-boots `rig`, then resolves the commit window: the
    /// recovered state must be the oracle's, or the oracle's plus the
    /// pending op — which is then durable from here on. `false` when the
    /// rig could not be booted at all.
    fn recovers<V: RigDisk>(&mut self, rig: &mut Rig<V>, at: &str) -> bool
    where
        V::File: 'static,
    {
        if let Err(e) = rig.crash() {
            self.violation(format!("{at} recovery failed on a healthy disk: {e}"));
            return false;
        }
        let mut got = rig.durable.cube().entries();
        got.sort();
        if got != self.oracle.entries() {
            match self.pending.take() {
                Some(CheckOp::Update { point, delta }) => self.oracle.add(&point, delta),
                Some(CheckOp::Set { point, value }) => {
                    self.oracle.set(&point, value);
                }
                _ => {}
            }
            if got != self.oracle.entries() {
                self.violation(format!("{at} recovery diverged from the acked oracle"));
            }
        }
        self.pending = None;
        true
    }

    /// Checks the typed-error contract for one refused mutation, given
    /// the cube's degraded mode after it.
    fn refused(&mut self, i: usize, op: &CheckOp, e: &IoError, degraded: Option<&str>) {
        let degraded = degraded.is_some();
        match e {
            IoError::Transient { .. } if degraded => {
                self.violation(format!("op {i}: transient failure left the cube degraded"))
            }
            IoError::Exhausted { indeterminate, .. } => {
                if !degraded {
                    self.violation(format!("op {i}: retry exhaustion did not degrade the cube"));
                }
                if *indeterminate && matches!(op, CheckOp::Update { .. } | CheckOp::Set { .. }) {
                    if self.pending.is_some() {
                        self.violation(format!(
                            "op {i}: second indeterminate op without an intervening recovery"
                        ));
                    }
                    self.pending = Some(op.clone());
                }
            }
            IoError::ReadOnly { .. } if !degraded => self.violation(format!(
                "op {i}: ReadOnly answered by a cube not in degraded mode"
            )),
            IoError::Transient { .. } | IoError::ReadOnly { .. } => {}
            IoError::OutOfRange(e) => {
                self.violation(format!("op {i}: generated point refused: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::DurableEngine;
    use crate::crash::{record_ends, replay_durable};
    use crate::disk::run_trace_under_faults;
    use crate::runner::run_trace_on;
    use ddc_core::wal::WAL_HEADER_BYTES;
    use ddc_core::FaultProbs;
    use ddc_workload::{BoxState, CheckTraceConfig, DdcRng};

    fn seeded_trace(seed: u64, d: usize, ops: usize, max_cells: usize) -> CheckTrace {
        let mut rng = DdcRng::seed_from_u64(seed);
        CheckTrace::generate(d, CheckTraceConfig { ops, max_cells }, &mut rng)
    }

    fn entries_on(disk: &MemVfs, d: usize) -> Vec<(Vec<i64>, i64)> {
        let rig = Rig::boot(disk.clone(), d, DdcConfig::dynamic()).expect("boot");
        let mut entries = rig.durable.cube().entries();
        entries.sort();
        entries
    }

    /// The roster's `durable-wal` engine (a commit per update, a re-boot
    /// after each checkpoint), the kill sweep's replay (commits of 1..=8)
    /// and a chaos run whose disk never fails are one protocol: the same
    /// trace leaves the same `wal.log` (a record's frame is the same
    /// bytes whatever group it was written in) and `snapshot.ddc`, byte
    /// for byte, and a boot from them lands on the oracle.
    #[test]
    fn three_entry_points_leave_one_log() {
        let config = DdcConfig::dynamic();
        // The traces `tests/wal_recovery.rs` and the kill sweep's own
        // tests sweep, checkpoints and mid-trace crashes included.
        let mut traces = vec![seeded_trace(0xDDC_3A1, 2, 1000, 4096)];
        traces.extend([(11, 1), (12, 2), (13, 3)].map(|(seed, d)| seeded_trace(seed, d, 60, 512)));
        for trace in &traces {
            let d = trace.dims.len();
            let mut oracle = Oracle::new(d);
            for op in &trace.ops {
                match op {
                    CheckOp::Update { point, delta } => oracle.add(point, *delta),
                    CheckOp::Set { point, value } => {
                        oracle.set(point, *value);
                    }
                    _ => {}
                }
            }

            let roster = MemVfs::new();
            let init = BoxState::initial(trace);
            let engine = DurableEngine::new("durable-wal", roster.clone(), &init, config);
            run_trace_on(trace, vec![Box::new(engine)]).expect("clean replay");
            let swept = replay_durable(trace, config).expect("replay");
            let chaos = FaultVfs::seeded_mem(7, FaultProbs::none());
            let run = run_trace_under_faults(trace, &chaos, config);
            assert!(run.is_clean() && run.faults.is_empty(), "{run:?}");

            let log = roster.contents(WAL_PATH).expect("a log");
            assert_eq!(log, swept.wal, "kill sweep's log");
            assert_eq!(Some(&log), chaos.inner().contents(WAL_PATH).as_ref());
            let snapshot = roster.contents(SNAP_PATH);
            assert_eq!(snapshot, swept.snapshot, "kill sweep's snapshot");
            assert_eq!(snapshot, chaos.inner().contents(SNAP_PATH));
            assert_eq!(swept.states.last(), Some(&oracle.entries()));
            assert_eq!(entries_on(&roster, d), oracle.entries());
            assert_eq!(entries_on(chaos.inner(), d), oracle.entries());
        }
    }

    /// A mutation the log refuses is the runner's to report — a typed
    /// error in a `Divergence` the shrinker can work on, not an unwind
    /// through the fuzzer.
    #[test]
    fn a_refused_mutation_is_a_divergence_not_a_panic() {
        let trace = CheckTrace {
            origin: vec![0, 0],
            dims: vec![4, 4],
            ops: vec![
                CheckOp::Update {
                    point: vec![1, 1],
                    delta: 5,
                },
                // Further out than a cube can grow.
                CheckOp::Set {
                    point: vec![1 << 40, 0],
                    value: 1,
                },
            ],
        };
        let init = BoxState::initial(&trace);
        let engine = DurableEngine::new("durable-wal", MemVfs::new(), &init, DdcConfig::dynamic());
        let refused = run_trace_on(&trace, vec![Box::new(engine)]).expect_err("refused");
        assert_eq!(
            (refused.engine.as_str(), refused.op_index),
            ("durable-wal", 1)
        );
        assert!(refused.what.starts_with("durable: "), "{}", refused.what);
    }

    /// The half of `recover_vfs` a recovery from byte slices never runs:
    /// boot on a log cut mid-record (and on a torn or missing header),
    /// which truncates the tail and *resumes* the file — then one more
    /// acknowledged add and another kill must land on photo + 1, with the
    /// log holding exactly the survivors and that record.
    #[test]
    fn a_cut_log_is_resumed_and_the_next_ack_survives() {
        let (d, config) = (2, DdcConfig::dynamic());
        let trace = seeded_trace(12, d, 60, 512);
        let run = replay_durable(&trace, config).expect("replay");
        let (ends, _) = record_ends(&run.wal).expect("final log");
        assert_eq!(run.states.len(), ends.len() + 1);
        assert!(ends.len() > 5, "{} records", ends.len());

        // Per surviving count: the cut halfway into the next record.
        let mut cuts: Vec<(usize, usize)> = (0..=ends.len())
            .map(|survivors| {
                let end = |r: usize| {
                    r.checked_sub(1)
                        .map_or(WAL_HEADER_BYTES, |r| ends[r] as usize)
                };
                let next = end((survivors + 1).min(ends.len()));
                (end(survivors) + (next - end(survivors)) / 2, survivors)
            })
            .collect();
        cuts.extend([(0, 0), (WAL_HEADER_BYTES / 2, 0)]);
        for (cut, survivors) in cuts {
            let disk = MemVfs::new();
            disk.write_atomic(WAL_PATH, &run.wal[..cut]).unwrap();
            if let Some(snapshot) = &run.snapshot {
                disk.write_atomic(SNAP_PATH, snapshot).unwrap();
            }
            let mut rig = Rig::boot(disk.clone(), d, config).expect("boot on the cut log");
            assert_eq!(rig.durable.wal_stats().1, survivors as u64, "cut {cut}");
            rig.durable.add(&[3, -2], 41).expect("acked");
            rig.crash().expect("re-boot");

            let mut want = Oracle::new(d);
            for (point, value) in &run.states[survivors] {
                want.add(point, *value);
            }
            want.add(&[3, -2], 41);
            assert_eq!(entries_on(&disk, d), want.entries(), "cut {cut}");
            let (_, log) = record_ends(&disk.contents(WAL_PATH).unwrap()).unwrap();
            assert!(log.is_clean(), "cut {cut}: {:?}", log.truncated);
            assert_eq!(log.records as usize, survivors + 1, "cut {cut}");
        }
    }

    /// Tags 2 and 3 (a cell set, a covered-box growth note) are retired.
    /// A log whose third record carries one, framed with a valid CRC,
    /// reads as the two records before it and names the tag; a boot cuts
    /// the file there; one more acknowledged update and a kill recover
    /// to that prefix plus the update. Each step is audited against the
    /// oracle.
    #[test]
    fn a_retired_record_tag_truncates_replay_and_the_next_ack_survives() {
        let (d, config) = (2, DdcConfig::dynamic());
        let prefix = [(vec![1, 2], 5i64), (vec![-3, 7], -9)];
        // The payloads the two retired encoders wrote: set [4, 4] to 11,
        // and "axis 1 grew by 4 at its low end".
        let (coordinate, value) = (4i64.to_le_bytes(), 11i64.to_le_bytes());
        let set = [
            &[2u8][..],
            &2u32.to_le_bytes(),
            &coordinate,
            &coordinate,
            &value,
        ]
        .concat();
        let grow = [&[3u8][..], &1u32.to_le_bytes(), &4u64.to_le_bytes(), &[1]].concat();
        for (tag, payload) in [(2, set), (3, grow)] {
            let mut writer = wal::WalWriter::create(Vec::new()).unwrap();
            let kept = (writer.append_updates(&prefix, &RetryPolicy::instant())).unwrap();
            let mut log = writer.into_inner();
            let first = log[WAL_HEADER_BYTES..][..(kept as usize - WAL_HEADER_BYTES) / 2].to_vec();
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&wal::crc32(&payload).to_le_bytes());
            log.extend_from_slice(&payload);
            // A whole update behind it goes with it.
            log.extend_from_slice(&first);
            let mut want = Oracle::new(d);
            for (point, delta) in &prefix {
                want.add(point, *delta);
            }

            let mut ops = Vec::new();
            let scan = wal::scan_wal(&log, |point, delta: i64, _| {
                ops.push((point.to_vec(), delta));
                Ok(())
            })
            .unwrap();
            assert_eq!((&ops[..], scan.valid_bytes), (&prefix[..], kept));
            let why = scan.truncated.unwrap_or_default();
            assert!(why.contains(&format!("unknown record tag {tag}")), "{why}");
            let (cube, _) = wal::recover::<i64>(d, None, &log, config).unwrap();
            let mut got = cube.entries();
            got.sort();
            assert_eq!(got, want.entries(), "tag {tag}: read");

            let disk = MemVfs::new();
            disk.write_atomic(WAL_PATH, &log).unwrap();
            let mut rig = Rig::boot(disk.clone(), d, config).expect("boot on the prefix");
            assert_eq!(rig.durable.wal_stats(), (kept, 2), "tag {tag}");
            let on_disk = disk.contents(WAL_PATH).map(|log| log.len() as u64);
            assert_eq!(on_disk, Some(kept), "tag {tag}: truncated at the record");
            let mut got = rig.durable.cube().entries();
            got.sort();
            assert_eq!(got, want.entries(), "tag {tag}: boot");

            rig.durable.add(&[3, -2], 41).expect("acked");
            want.add(&[3, -2], 41);
            rig.crash().expect("re-boot");
            assert_eq!(entries_on(&disk, d), want.entries(), "tag {tag}: kill");
            let (_, log) = record_ends(&disk.contents(WAL_PATH).unwrap()).unwrap();
            assert!(log.is_clean(), "tag {tag}: {:?}", log.truncated);
            assert_eq!(log.records, 3, "tag {tag}");
        }
    }
}
