//! Model-checker scenarios for the concurrency-critical core
//! (`feature = "ddc_model"` only).
//!
//! Each function explores one scenario under [`ddc_model::Checker`] and
//! returns its [`Report`]. The green scenarios drive the *real* commit
//! pipeline (`core::shard`) through the `core::sync` facade — two over
//! its plain target, one over the logged one (`core::wal`), so all
//! three exercise the same `try_add_batch` → `commit` → read code;
//! the two `buggy_*` fixtures are deliberately broken and exist to
//! prove the checker finds real schedule bugs (they are asserted to
//! FAIL by `tests/model_checker.rs` and the `ddc model` CLI).
//!
//! Scenario design notes:
//!
//! * Shapes and thread counts are tiny on purpose — bounded DFS pays
//!   for every extra schedule point.
//! * Everything a scenario asserts on is reached through a modeled
//!   lock, `spawn` or `join`: the state-hash prune tells two states
//!   apart only by what flowed through those. Metrics atomics are
//!   untracked (see `core::sync::untracked`) and never steer control
//!   flow.
//! * Scenario state is created *inside* the checked closure, so every
//!   object registers with the scheduler and every iteration starts
//!   from the same model state.

use ddc_array::{Region, Shape};
use ddc_model::sync::{thread, Condvar, Mutex};
use ddc_model::{Checker, CheckerConfig, Report};

use crate::config::DdcConfig;
use crate::growth::GrowableCube;
use crate::shard::{ShardConfig, ShardedCube};
use crate::sync::Arc;
use crate::wal::{DurableCube, SharedDurableCube};

/// Linearizability of concurrent `try_update`s against the sequential
/// oracle: three writers race a reader; after all join, the cube total
/// must equal exactly the acknowledged deltas — nothing lost, nothing
/// applied twice — and every in-flight read must see a consistent cut
/// (`0..=6` for six `+1` deltas).
pub fn shard_concurrent_updates(cfg: CheckerConfig) -> Report {
    Checker::new(cfg).check(|| {
        let shape = Shape::cube(1, 4);
        let full = Region::full(&shape);
        let cube = Arc::new(ShardedCube::<i64>::new(
            shape,
            DdcConfig::dynamic(),
            ShardConfig::default(),
        ));
        let writers: Vec<_> = [[0usize, 2], [1, 3], [2, 1]]
            .into_iter()
            .map(|points| {
                let c = cube.clone();
                thread::spawn(move || {
                    points
                        .into_iter()
                        .map(|p| i64::from(c.try_update(&[p], 1).is_ok()))
                        .sum::<i64>()
                })
            })
            .collect();
        // A read while the writers are in flight: any consistent cut of
        // six +1 deltas.
        let seen = cube.query(&full);
        assert!((0..=6).contains(&seen), "inconsistent cut: {seen}");
        let acked: i64 = writers.into_iter().map(|w| w.join().expect("writer")).sum();
        let total = cube.query(&full);
        assert_eq!(total, acked, "acked {acked} deltas but cube totals {total}");
    })
}

/// A plain pipeline acknowledges a run once its commits have landed,
/// each whole, and another writer's commit may land between two commits
/// of one run. On a growable 1-d cube whose initial box is `[0, 16)`,
/// the run `{15, 16}` is two commits (16 needs the cube to grow, so it
/// commits alone) and the run `{4, 5}` one; they race two single
/// `try_add`s, and three threads read. Every read sees the one-commit
/// run whole or not at all, a writer's own run is in the cube when its
/// ack returns, and the final total equals the acks.
pub fn shard_run_lands_whole(cfg: CheckerConfig) -> Report {
    Checker::new(cfg).check(|| {
        let cube = Arc::new(ShardedCube::unbounded(GrowableCube::<i64>::new(
            1,
            DdcConfig::dynamic(),
        )));
        let whole = |c: &ShardedCube<i64>| {
            let pair = c.query_box(&[4], &[5]).expect("rank 1");
            assert!(pair == 0 || pair == 2, "half a commit is visible: {pair}");
        };
        let runs = [[15i64, 16], [4, 5]].map(|[lo, hi]| {
            let c = Arc::clone(&cube);
            thread::spawn(move || {
                let (acks, refused) = c.try_add_batch(&[(vec![lo], 1), (vec![hi], 1)]);
                assert!(refused.is_none() && acks == 2, "{refused:?} after {acks}");
                let pair = c.query_box(&[lo], &[hi]).expect("rank 1");
                assert_eq!(pair, 2, "an acked run is not in the cube");
                2
            })
        });
        let singles = [2i64, 6].map(|p| {
            let c = Arc::clone(&cube);
            thread::spawn(move || {
                whole(&c);
                i64::from(c.try_add(&[p], 10).is_ok()) * 10
            })
        });
        whole(&cube);
        let acked: i64 = (runs.into_iter().chain(singles))
            .map(|w| w.join().expect("writer"))
            .sum();
        let total = cube.query_box(&[0], &[16]).expect("rank 1");
        assert_eq!(total, acked, "acked {acked} but cube totals {total}");
        let commits = cube.metrics()[0].batches_flushed;
        assert_eq!(commits, 5, "the run {{15, 16}} is not two commits");
    })
}

/// Log-then-apply through the pipeline, a group at a time: a
/// two-update `try_add_batch` (one commit: one log write, one sync)
/// races a single `try_add` and a read. No ack may be returned before
/// the log holds *every* record of its group, the read sees the group
/// whole or not at all, and the final cube/log state must match the
/// sequential oracle.
pub fn wal_ack_after_append(cfg: CheckerConfig) -> Report {
    Checker::new(cfg).check(|| {
        let cube = DurableCube::<i64, Vec<u8>>::new(1, DdcConfig::sparse(), Vec::new())
            .expect("create durable cube");
        let cube = SharedDurableCube::from_cube(cube);
        // Each appender cross-checks the log length right after its
        // ack: an ack with a record of its group missing is the bug
        // this hunts.
        let append = |c: &ShardedCube<i64, DurableCube<i64, Vec<u8>>>, points: &[i64]| {
            let run: Vec<_> = points.iter().map(|&p| (vec![p], 1)).collect();
            let (acks, refused) = c.try_add_batch(&run);
            assert!(
                refused.is_none() && acks == run.len(),
                "{refused:?} after {acks}"
            );
            let (_, records) = c.read_target(|durable| durable.wal_stats());
            assert!(
                records >= acks as u64,
                "durability ack before WAL append: {records} records < {acks} acks"
            );
            acks as u64
        };
        let (c1, c2) = (Arc::clone(&cube), Arc::clone(&cube));
        let t1 = thread::spawn(move || append(&c1, &[0, 1]));
        let t2 = thread::spawn(move || u64::from(c2.try_add(&[2], 1).is_ok()));
        let pair = cube.query_box(&[0], &[1]).expect("rank 1");
        assert!(pair == 0 || pair == 2, "half a group is visible: {pair}");
        let acks = t1.join().expect("appender 1") + t2.join().expect("appender 2");
        let (records, total) =
            cube.read_target(|durable| (durable.wal_stats().1, durable.cube().total()));
        assert_eq!(records, acks, "log records diverge from acks");
        assert_eq!(total, acks as i64, "cube diverges from acked deltas");
    })
}

/// Known-buggy fixture #1: two threads increment a mutex-guarded
/// counter with the read and the write in separate critical sections.
/// The checker must find the lost update (this fixture is asserted to
/// FAIL).
pub fn buggy_counter(cfg: CheckerConfig) -> Report {
    Checker::new(cfg).check(|| {
        let counter = Arc::new(Mutex::new(0u64));
        let c2 = counter.clone();
        let increment = |c: &Mutex<u64>| {
            let v = *c.lock().expect("counter lock");
            *c.lock().expect("counter lock") = v + 1;
        };
        let t = thread::spawn(move || increment(&c2));
        increment(&counter);
        t.join().expect("incrementer");
        assert_eq!(*counter.lock().expect("counter lock"), 2, "lost update");
    })
}

/// Known-buggy fixture #2: unbuffered handoff that checks emptiness
/// *outside* the lock it waits on, so the producer's notify can land
/// between check and wait — a lost wakeup the checker must report as a
/// deadlock (this fixture is asserted to FAIL).
pub fn buggy_handoff(cfg: CheckerConfig) -> Report {
    Checker::new(cfg).check(|| {
        let slot: Arc<(Mutex<Option<u64>>, Condvar)> = Arc::new((Mutex::new(None), Condvar::new()));
        let s2 = slot.clone();
        let producer = thread::spawn(move || {
            let (m, cv) = &*s2;
            *m.lock().expect("slot lock") = Some(7);
            cv.notify_one();
        });
        let (m, cv) = &*slot;
        let empty = m.lock().expect("slot lock").is_none();
        if empty {
            let guard = m.lock().expect("slot lock");
            let guard = cv.wait(guard).expect("slot lock");
            assert_eq!(*guard, Some(7));
        }
        producer.join().expect("producer");
    })
}

/// A scenario: explores its interleavings under the given bounds.
pub type Scenario = fn(CheckerConfig) -> Report;

/// The ported models, by name, in a stable order (expected to pass).
pub const GREEN: [(&str, Scenario); 3] = [
    ("shard_concurrent_updates", shard_concurrent_updates),
    ("shard_run_lands_whole", shard_run_lands_whole),
    ("wal_ack_after_append", wal_ack_after_append),
];

/// The two seeded-buggy fixtures, by name (expected to fail).
pub const BUGGY: [(&str, Scenario); 2] = [
    ("buggy_counter", buggy_counter),
    ("buggy_handoff", buggy_handoff),
];
