//! Tests for the commit pipeline (`core::shard`): the pipeline over
//! both its targets — plain and logged — audited and compared to an
//! oracle after *every* run, failed commit, heal and crash; reads that
//! hand the tree exactly the calls an engine gets; the one ack rule (an
//! update is acknowledged once its commit has landed) and the one
//! failure rule (a commit that does not land fails the pipeline, and is
//! not acknowledged) on both; and a reader/writer stress test proving
//! no update is lost or duplicated under contention.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_check::Oracle;
use ddc_core::vfs::{MemFile, MemVfs};
use ddc_core::wal::{self, RetryPolicy};
use ddc_core::{
    CommitTarget, DdcConfig, DdcEngine, DurableCube, GrowableCube, ShardConfig, ShardedCube,
    TryUpdateError, COMMIT_FAILED, PANICKED_AFTER_APPEND,
};
use ddc_tests::{for_cases, DdcRng, Fault, Faults, FlakyTarget};

const LOG: &str = "wal.log";

/// A pipeline under churn: how to boot it (again, for the logged one:
/// kill = drop, boot = recover from what the disk holds), and what the
/// log says when there is one.
trait Rig {
    type Target: CommitTarget<i64>;
    /// The cause the pipeline fails with when one of its commits panics.
    const FAILED: &'static str;
    fn boot(&self, faults: &Arc<Faults>) -> ShardedCube<i64, FlakyTarget<Self::Target>>;
    /// Records in the log, `None` without one.
    fn log_records(&self, _cube: &ShardedCube<i64, FlakyTarget<Self::Target>>) -> Option<u64> {
        None
    }
    /// Coordinates the churn draws from, per axis.
    fn span(&self) -> std::ops::Range<i64>;
}

struct Plain {
    side: usize,
    config: DdcConfig,
}

impl Rig for Plain {
    type Target = GrowableCube<i64>;
    const FAILED: &'static str = COMMIT_FAILED;
    fn boot(&self, faults: &Arc<Faults>) -> ShardedCube<i64, FlakyTarget<GrowableCube<i64>>> {
        let shape = Shape::cube(2, self.side);
        FlakyTarget::sharded(shape, self.config, faults)
    }
    fn span(&self) -> std::ops::Range<i64> {
        0..self.side as i64
    }
}

struct Logged {
    disk: MemVfs,
    config: DdcConfig,
}

impl Rig for Logged {
    type Target = DurableCube<i64, MemFile>;
    const FAILED: &'static str = PANICKED_AFTER_APPEND;
    fn boot(&self, faults: &Arc<Faults>) -> ShardedCube<i64, FlakyTarget<Self::Target>> {
        let policy = RetryPolicy::instant();
        let (cube, _report) =
            wal::recover_vfs::<i64, _>(&self.disk, LOG, None, 2, self.config, policy)
                .expect("the log recovers");
        cube.cube().check_invariants();
        ShardedCube::unbounded(FlakyTarget::new(cube, Arc::clone(faults)))
    }
    fn log_records(&self, cube: &ShardedCube<i64, FlakyTarget<Self::Target>>) -> Option<u64> {
        Some(cube.read_target(|t| t.inner().wal_stats().1))
    }
    fn span(&self) -> std::ops::Range<i64> {
        -24..24
    }
}

/// SNIPPETS.md's cumulant suite (validate the structure and compare the
/// running aggregate after every step), transposed onto the pipeline:
/// random runs of updates, failing commits, heals and — with a log —
/// kills, each followed by `check_invariants()` on the cube and a
/// comparison of the total, sampled boxes and a cell with the oracle of
/// *acknowledged* updates. With a log, records == acks after every step.
fn churn<R: Rig>(rig: &R, rng: &mut DdcRng, steps: usize) {
    let faults = Arc::new(Faults::default());
    let mut cube = rig.boot(&faults);
    let mut oracle = Oracle::new(2);
    let mut acked = 0u64;
    let span = rig.span();
    let (all_lo, all_hi) = ([span.start; 2], [span.end - 1; 2]);
    let coord = |rng: &mut DdcRng| rng.gen_range(span.clone());
    for step in 0..=steps {
        let what = match rng.gen_range(0usize..20) {
            // The last step of a logged run is always a kill.
            _ if step == steps => "crash",
            0..=13 => {
                // A run of one to six: one commit per stretch the cube
                // covers already.
                let run: Vec<_> = (0..[1, 1, 2, 6][rng.gen_range(0usize..4)])
                    .map(|_| (vec![coord(rng), coord(rng)], rng.gen_range(-9i64..=9)))
                    .collect();
                // Once the pipeline has failed, every run is refused whole.
                let failed = cube.health().is_some_and(|why| why == R::FAILED);
                let (landed, refused) = cube.try_add_batch(&run);
                for (p, delta) in &run[..landed] {
                    oracle.add(p, *delta);
                    acked += 1;
                }
                assert!(
                    !failed || landed == 0,
                    "{run:?}: acked by a failed pipeline"
                );
                match refused {
                    None => "acked run",
                    Some(TryUpdateError::ShardFailed { cause }) if cause == R::FAILED => {
                        "refused run"
                    }
                    // A typed refusal: nothing acked, not failed.
                    Some(TryUpdateError::Refused(_)) => "refused run",
                    Some(other) => panic!("{run:?}: {other}"),
                }
            }
            14..=16 => {
                let fault = [Fault::Refuse, Fault::Panic][rng.gen_range(0usize..2)];
                faults.arm(fault, rng.gen_range(1usize..=3) as u64);
                "arm"
            }
            17..=18 => {
                faults.heal();
                "heal"
            }
            _ => "crash",
        };
        if what == "crash" && rig.log_records(&cube).is_some() {
            drop(cube);
            faults.heal();
            cube = rig.boot(&faults);
        }
        let at = format!("step {step} ({what})");
        cube.read_target(|t| t.cube().check_invariants());
        if let Some(records) = rig.log_records(&cube) {
            assert_eq!(records, acked, "{at}: log records != acks");
        }
        assert_eq!(cube.query_box(&all_lo, &all_hi), Ok(oracle.total()), "{at}");
        for _ in 0..3 {
            let (a, b) = ([coord(rng), coord(rng)], [coord(rng), coord(rng)]);
            let lo = [a[0].min(b[0]), a[1].min(b[1])];
            let hi = [a[0].max(b[0]), a[1].max(b[1])];
            assert_eq!(
                cube.query_box(&lo, &hi),
                Ok(oracle.range_sum(&lo, &hi)),
                "{at} {lo:?}..{hi:?}"
            );
            assert_eq!(cube.cell_at(&a), Ok(oracle.cell(&a)), "{at} {a:?}");
        }
    }
}

for_cases! {
    /// The cumulant suite over both targets, plain and logged, each
    /// under `dynamic()` and `sparse()`. An armed panic fails the
    /// pipeline at its next commit: that run and every later one are
    /// refused, and reads must still match the oracle (the faults fire
    /// before the cube is touched, so it holds exactly what was
    /// acknowledged); an armed refusal refuses the runs it hits and
    /// leaves the pipeline serving; a logged pipeline comes back at the
    /// next crash.
    fn every_step_audits_and_matches_the_oracle_on_both_targets(rng, cases = 6) {
        for config in [DdcConfig::dynamic(), DdcConfig::sparse()] {
            let side = rng.gen_range(5usize..=40);
            churn(&Plain { side, config }, rng, 120);
            churn(&Logged { disk: MemVfs::new(), config }, rng, 120);
        }
    }

    /// The pipeline hands the tree the very calls an engine gets: after
    /// the same updates, every range, prefix and cell read answers as a
    /// `DdcEngine` of the same shape does, and leaves the same `ops()`
    /// totals.
    fn read_through_hands_the_tree_the_calls_an_engine_gets(rng, cases = 12) {
        let d = rng.gen_range(1usize..=3);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2usize..=10)).collect();
        let shape = Shape::new(&dims);
        let config = ShardConfig::default();
        let cube = ShardedCube::<i64>::new(shape.clone(), DdcConfig::dynamic(), config);
        let mut plain = DdcEngine::<i64>::dynamic(shape);
        let point = |rng: &mut DdcRng| -> Vec<usize> {
            dims.iter().map(|&n| rng.gen_range(0..n)).collect()
        };
        let updates = rng.gen_range(1usize..=30);
        for _ in 0..updates {
            let p = point(rng);
            // Positive, so no cell cancels to zero and both trees
            // allocate the same boxes.
            let v = rng.gen_range(1i64..=9);
            cube.update(&p, v);
            plain.apply_delta(&p, v);
        }
        assert_eq!(cube.metrics()[0].ops_applied, updates as u64);

        let boxes: Vec<Region> = (0..20)
            .map(|_| {
                let (a, b) = (point(rng), point(rng));
                let lo: Vec<usize> = a.iter().zip(&b).map(|(x, y)| *x.min(y)).collect();
                let hi: Vec<usize> = a.iter().zip(&b).map(|(x, y)| *x.max(y)).collect();
                Region::new(&lo, &hi)
            })
            .collect();
        let reads = || {
            for q in &boxes {
                assert_eq!(cube.query(q), plain.range_sum(q), "{q:?}");
                assert_eq!(cube.query_prefix(q.hi()), plain.prefix_sum(q.hi()), "{q:?}");
                assert_eq!(cube.cell_value(q.lo()), plain.cell(q.lo()), "{q:?}");
            }
        };
        reads();
        cube.reset_ops();
        plain.reset_ops();
        reads();
        assert_eq!(cube.ops(), plain.ops());
    }
}

/// 4 readers + 2 writers hammer a 256² pipeline; afterwards every
/// prefix sum must equal a single-threaded replay of the same updates —
/// nothing lost, nothing applied twice, no torn batch.
#[test]
fn stress_readers_and_writers_preserve_every_update() {
    const N: usize = 256;
    const WRITERS: usize = 2;
    const READERS: usize = 4;
    const UPDATES_PER_WRITER: usize = 2_000;

    let shape = Shape::new(&[N, N]);
    // Deterministic per-writer update streams, generated up front.
    let streams: Vec<Vec<(Vec<usize>, i64)>> = (0..WRITERS)
        .map(|w| {
            let mut rng = ddc_tests::DdcRng::seed_from_u64(0x5EED_0000 + w as u64);
            (0..UPDATES_PER_WRITER)
                .map(|_| {
                    let p = vec![rng.gen_range(0..N), rng.gen_range(0..N)];
                    (p, rng.gen_range(-1_000i64..=1_000))
                })
                .collect()
        })
        .collect();

    let cube = ShardedCube::<i64>::new(shape.clone(), DdcConfig::dynamic(), ShardConfig::default());
    let done = AtomicBool::new(false);
    let (cube_ref, done_ref) = (&cube, &done);

    std::thread::scope(|scope| {
        for stream in &streams {
            scope.spawn(move || {
                for (p, v) in stream {
                    cube_ref.update(p, *v);
                }
            });
        }
        for r in 0..READERS {
            scope.spawn(move || {
                let mut rng = ddc_tests::DdcRng::seed_from_u64(0xBEEF_0000 + r as u64);
                while !done_ref.load(Ordering::Relaxed) {
                    // Results are unspecified mid-stream; the point is that
                    // concurrent queries neither crash nor disturb state.
                    let a = rng.gen_range(0..N);
                    let b = rng.gen_range(0..N);
                    let q = Region::new(&[a.min(b), 0], &[a.max(b), N - 1]);
                    let _ = cube_ref.query(&q);
                    let _ = cube_ref.query_prefix(&[rng.gen_range(0..N), rng.gen_range(0..N)]);
                }
            });
        }
        // Readers run until every writer delta has landed; without the
        // flag the scope's implicit join would deadlock on them.
        let expected = (WRITERS * UPDATES_PER_WRITER) as u64;
        while cube.metrics()[0].ops_applied < expected {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
    });

    // Single-threaded ground truth over the concatenated streams (group
    // addition commutes, so interleaving order cannot matter).
    let mut reference = DdcEngine::<i64>::dynamic(shape);
    for stream in &streams {
        for (p, v) in stream {
            reference.apply_delta(p, *v);
        }
    }

    // Full-cube checksum plus a grid of prefix sums.
    assert_eq!(
        cube.query(&Region::full(reference.shape())),
        reference.range_sum(&Region::full(reference.shape()))
    );
    let mut checksum = 0i64;
    let mut expected = 0i64;
    for i in (0..N).step_by(17) {
        for j in (0..N).step_by(13) {
            checksum = checksum.wrapping_add(cube.query_prefix(&[i, j]));
            expected = expected.wrapping_add(reference.prefix_sum(&[i, j]));
        }
    }
    assert_eq!(checksum, expected);

    // The metrics must account for every update exactly once.
    let applied = cube.metrics()[0].ops_applied;
    assert_eq!(applied, (WRITERS * UPDATES_PER_WRITER) as u64);
}

/// `apply_batch` (the engine interface's batch door) agrees with
/// one-at-a-time updates and a plain engine.
#[test]
fn batched_updates_match_single_updates() {
    let shape = Shape::new(&[40, 10]);
    let mut rng = ddc_tests::DdcRng::seed_from_u64(77);
    let updates: Vec<(Vec<usize>, i64)> = (0..500)
        .map(|_| {
            (
                vec![rng.gen_range(0..40), rng.gen_range(0..10)],
                rng.gen_range(-50i64..=50),
            )
        })
        .collect();

    let mut batched =
        ShardedCube::<i64>::new(shape.clone(), DdcConfig::dynamic(), ShardConfig::default());
    batched.apply_batch(&updates);

    let mut plain = DdcEngine::<i64>::dynamic(shape.clone());
    for (p, v) in &updates {
        plain.apply_delta(p, *v);
    }

    for p in shape.iter_points().step_by(7) {
        assert_eq!(batched.query_prefix(&p), plain.prefix_sum(&p), "{p:?}");
    }
}

/// The ack rule on the plain target: an update is acknowledged once its
/// commit has landed, so the moment `try_add` returns `Ok` the cube
/// holds the delta — no queue, nothing for a flush to move.
#[test]
fn a_plain_update_is_in_the_cube_when_it_is_acknowledged() {
    let cube = ShardedCube::<i64>::new(
        Shape::new(&[8, 8]),
        DdcConfig::dynamic(),
        ShardConfig::default(),
    );
    let in_cube = || cube.read_target(|t| t.cube().total());
    cube.try_add(&[1, 2], 5).expect("acked");
    assert_eq!(in_cube(), 5);
    cube.try_add(&[7, 0], -3).expect("acked");
    assert_eq!(in_cube(), 2);
    let run = [(vec![1, 2], 4), (vec![0, 7], 1)];
    assert_eq!(cube.try_add_batch(&run), (2, None));
    assert_eq!(in_cube(), 7);
    let m = cube.metrics();
    assert_eq!((m[0].ops_applied, m[0].batches_flushed), (4, 3), "{m:?}");
    assert_eq!(cube.query_box(&[0, 0], &[7, 7]), Ok(7));
}

/// The one failure rule on the plain target: a commit that does not
/// land fails the pipeline at once, its run is refused rather than
/// acknowledged, and nothing retries it. Here the commit lands and
/// *then* panics, so a retry would apply the run a second time: the
/// caller hears `ShardFailed`, the pipeline says so on `health()`,
/// refuses every later write, and every read stays as the commit left
/// it.
#[test]
fn a_plain_commit_that_does_not_land_fails_its_slab_at_once() {
    let faults = Arc::new(Faults::default());
    let cube = FlakyTarget::sharded(Shape::new(&[8, 8]), DdcConfig::dynamic(), &faults);
    cube.try_add(&[1, 1], 1).expect("acked");
    faults.arm(Fault::PanicAfterCommit, 1);
    let failed = TryUpdateError::ShardFailed {
        cause: COMMIT_FAILED,
    };
    let run = [(vec![2, 3], 5), (vec![3, 0], 2)];
    assert_eq!(cube.try_add_batch(&run), (0, Some(failed.clone())));
    assert_eq!(cube.health(), Some(failed.to_string()));
    assert_eq!(cube.try_add(&[2, 3], 1), Err(failed.clone()));
    assert_eq!(cube.try_add(&[6, 0], 2), Err(failed.clone()));
    // The panicking commit changed the cube before it failed (what
    // COMMIT_FAILED warns of); nothing after it did.
    assert_eq!(cube.query_box(&[0, 0], &[7, 7]), Ok(8));
    assert_eq!(cube.health(), Some(failed.to_string()));
    let m = cube.metrics();
    let counted = (m[0].worker_panics, m[0].ops_applied, m[0].ops_rejected);
    assert_eq!(counted, (1, 1, 3), "{m:?}");
}

/// The rule on the logged target: a commit that panics *after* its log
/// append fails the pipeline at once — the record is in the log, so a
/// retry would append it twice. The pipeline goes read-only and says
/// why, reads keep serving, and recovery applies the one
/// unacknowledged record exactly once.
#[test]
fn a_logged_commit_that_panics_after_its_append_is_never_retried() {
    let faults = Arc::new(Faults::default());
    let rig = Logged {
        disk: MemVfs::new(),
        config: DdcConfig::dynamic(),
    };
    let cube = rig.boot(&faults);
    cube.try_add(&[3, -5], 7).expect("acked");
    cube.try_add(&[100, 2], 1).expect("acked");
    assert_eq!(cube.health(), None);

    faults.arm(Fault::PanicAfterCommit, 1);
    let failed = TryUpdateError::ShardFailed {
        cause: PANICKED_AFTER_APPEND,
    };
    assert_eq!(cube.try_add(&[0, 0], 4), Err(failed.clone()));
    assert_eq!(cube.health(), Some(failed.to_string()));
    // In the log, never acknowledged — and not appended again by the
    // writes that follow, which are refused.
    assert_eq!(rig.log_records(&cube), Some(3));
    assert_eq!(cube.try_add(&[0, 0], 4), Err(failed));
    assert_eq!(rig.log_records(&cube), Some(3));
    assert_eq!(cube.metrics()[0].worker_panics, 1);
    // Reads are served through it all.
    assert_eq!(cube.query_box(&[-200, -200], &[200, 200]), Ok(12));

    drop(cube);
    let cube = rig.boot(&faults);
    assert_eq!(rig.log_records(&cube), Some(3));
    assert_eq!(cube.query_box(&[-200, -200], &[200, 200]), Ok(12));
    assert_eq!(cube.cell_at(&[0, 0]), Ok(4), "replayed once, not twice");
    cube.try_add(&[0, 0], 1)
        .expect("a restart heals the pipeline");
}
