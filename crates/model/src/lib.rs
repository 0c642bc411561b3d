//! # ddc-model
//!
//! A zero-dependency deterministic concurrency model checker (a
//! mini-[loom]) for the ddc workspace.
//!
//! Scenarios are ordinary closures written against [`sync`] — drop-in
//! mirrors of `std::sync::{Mutex, Condvar, RwLock}` and
//! `thread::{spawn, join}`. [`Checker::check`] runs the closure under
//! every thread interleaving a bounded DFS can reach:
//!
//! * **Schedule points** at every sync operation; one token is passed
//!   between real OS threads so exactly one modeled thread runs at a
//!   time, and the sequence of choices is recorded for replay.
//! * **Bounded preemption**: involuntary switches consume a budget
//!   (default 2); voluntary ones (block, finish) are free.
//! * **State hashing**: a fingerprint of thread positions/observations
//!   plus all lock/condvar state prunes schedules whose continuation
//!   was already explored. Each lock carries a *history* hash of its
//!   holders' states at release, folded into whoever acquires it next,
//!   so states that differ only in lock-guarded data hash apart.
//! * **Failure replay**: panics, deadlocks, and livelocks are reported
//!   as a *minimized* schedule (preemptions greedily removed while the
//!   failure still reproduces) printed as a per-thread event trace, in
//!   the `ddc-check` shrinker style.
//!
//! Objects created outside the scheduler — or touched from unmodeled
//! threads — degrade to plain `std` behavior, so code built against the
//! facade keeps working in normal runs of a feature-enabled build.
//!
//! ```
//! use ddc_model::{sync, Checker};
//! use std::sync::Arc;
//!
//! let report = Checker::with_defaults().check(|| {
//!     let counter = Arc::new(sync::Mutex::new(0u64));
//!     let c2 = counter.clone();
//!     let t = sync::thread::spawn(move || {
//!         *c2.lock().unwrap() += 1;
//!     });
//!     *counter.lock().unwrap() += 1;
//!     t.join().unwrap();
//!     assert_eq!(*counter.lock().unwrap(), 2);
//! });
//! assert!(report.passed(), "{report}");
//! ```
//!
//! [loom]: https://docs.rs/loom

#![warn(missing_docs)]
#![warn(clippy::all)]

mod scheduler;
pub mod sync;
mod trace;

pub use scheduler::{Checker, CheckerConfig};
pub use trace::{Event, FailureKind, FailureReport, Report};

#[cfg(test)]
mod tests {
    use super::sync::{thread, Condvar, Mutex, RwLock};
    use super::{Checker, CheckerConfig, FailureKind};
    use std::sync::Arc;

    fn small() -> Checker {
        Checker::new(CheckerConfig {
            max_iterations: 50_000,
            ..CheckerConfig::default()
        })
    }

    /// Two threads increment a mutex-guarded counter with the read and
    /// the write in separate critical sections.
    fn racy_mutex_counter() {
        let counter = Arc::new(Mutex::new(0u64));
        let c2 = counter.clone();
        let t = thread::spawn(move || {
            let v = *c2.lock().unwrap();
            *c2.lock().unwrap() = v + 1;
        });
        let v = *counter.lock().unwrap();
        *counter.lock().unwrap() = v + 1;
        t.join().unwrap();
        assert_eq!(*counter.lock().unwrap(), 2, "lost update");
    }

    /// The racy counter loses an update under the right interleaving;
    /// the checker must find it. States that differ only in the
    /// counter's value must not be pruned as one.
    #[test]
    fn finds_racy_counter_lost_update() {
        let failure = small()
            .check(racy_mutex_counter)
            .failure
            .expect("checker must find the lost update");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("lost update"), "{failure}");
        // The minimal schedule needs exactly one preemption (split the
        // read/write of one thread around the other's increment).
        assert_eq!(failure.preemptions, 1, "{failure}");
        assert!(!failure.trace.is_empty());
    }

    /// The same lost update through an `RwLock`: a read guard, then a
    /// write guard. Read guards fold the lock's history too.
    #[test]
    fn finds_rwlock_read_then_write_lost_update() {
        let report = small().check(|| {
            let counter = Arc::new(RwLock::new(0u64));
            let c2 = counter.clone();
            let t = thread::spawn(move || {
                let v = *c2.read().unwrap();
                *c2.write().unwrap() = v + 1;
            });
            let v = *counter.read().unwrap();
            *counter.write().unwrap() = v + 1;
            t.join().unwrap();
            assert_eq!(*counter.read().unwrap(), 2, "lost update");
        });
        let failure = report.failure.expect("checker must find the lost update");
        assert!(failure.message.contains("lost update"), "{failure}");
        assert_eq!(failure.preemptions, 1, "{failure}");
    }

    /// A child that reads a mutex before its parent writes it returns a
    /// stale value through `join`: the child starts from its parent's
    /// state and the join folds the child's state into the parent, so
    /// the two orders hash apart.
    #[test]
    fn finds_child_reading_before_parent_writes() {
        let report = small().check(|| {
            let cell = Arc::new(Mutex::new(0u64));
            let c2 = cell.clone();
            let t = thread::spawn(move || *c2.lock().unwrap());
            *cell.lock().unwrap() = 1;
            let seen = t.join().unwrap();
            assert_eq!(seen, 1, "child read before the write");
        });
        let failure = report.failure.expect("checker must find the early read");
        assert!(failure.message.contains("before the write"), "{failure}");
    }

    /// Check-then-wait without holding the lock across the check: the
    /// notify can land between the check and the wait, and the waiter
    /// sleeps forever. The checker reports it as a deadlock.
    #[test]
    fn finds_lost_wakeup_in_unbuffered_handoff() {
        let report = small().check(|| {
            let slot: Arc<(Mutex<Option<u64>>, Condvar)> =
                Arc::new((Mutex::new(None), Condvar::new()));
            let s2 = slot.clone();
            let producer = thread::spawn(move || {
                let (m, cv) = &*s2;
                *m.lock().unwrap() = Some(42);
                cv.notify_one();
            });
            let (m, cv) = &*slot;
            // BUG: the emptiness check releases the lock before wait().
            let empty = m.lock().unwrap().is_none();
            if empty {
                let guard = m.lock().unwrap();
                let guard = cv.wait(guard).unwrap();
                assert_eq!(*guard, Some(42));
            }
            producer.join().unwrap();
        });
        let failure = report.failure.expect("lost wakeup must be found");
        assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
        assert!(failure.message.contains("condvar"), "{failure}");
    }

    /// The correct handoff (condition re-checked under the lock, wait
    /// in a loop) passes exhaustively.
    #[test]
    fn correct_handoff_passes() {
        let report = small().check(|| {
            let slot: Arc<(Mutex<Option<u64>>, Condvar)> =
                Arc::new((Mutex::new(None), Condvar::new()));
            let s2 = slot.clone();
            let producer = thread::spawn(move || {
                let (m, cv) = &*s2;
                *m.lock().unwrap() = Some(42);
                cv.notify_one();
            });
            let (m, cv) = &*slot;
            let mut guard = m.lock().unwrap();
            while guard.is_none() {
                guard = cv.wait(guard).unwrap();
            }
            assert_eq!(*guard, Some(42));
            drop(guard);
            producer.join().unwrap();
        });
        assert!(report.passed(), "{report}");
        assert!(!report.capped, "handoff space should be exhausted");
    }

    /// Mutex-protected increments are exhaustively linearizable.
    #[test]
    fn mutex_counter_passes() {
        let report = small().check(|| {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = counter.clone();
                    thread::spawn(move || {
                        let mut g = c.lock().unwrap();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*counter.lock().unwrap(), 2);
        });
        assert!(report.passed(), "{report}");
    }

    /// Classic ABBA lock-order inversion is reported as a deadlock with
    /// both locks named.
    #[test]
    fn finds_abba_deadlock() {
        let report = small().check(|| {
            let a = Arc::new(Mutex::new(0u64));
            let b = Arc::new(Mutex::new(0u64));
            let (a2, b2) = (a.clone(), b.clone());
            let t = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_ga, _gb));
            t.join().unwrap();
        });
        let failure = report.failure.expect("ABBA must deadlock somewhere");
        assert_eq!(failure.kind, FailureKind::Deadlock);
        assert!(failure.message.contains("mutex"), "{failure}");
    }

    /// Deterministic: two runs of the same buggy scenario produce the
    /// identical minimized schedule.
    #[test]
    fn exploration_is_deterministic() {
        let r1 = small().check(racy_mutex_counter);
        let r2 = small().check(racy_mutex_counter);
        assert_eq!(r1.iterations, r2.iterations);
        let (f1, f2) = (r1.failure.unwrap(), r2.failure.unwrap());
        assert_eq!(f1.trace, f2.trace);
        assert_eq!(f1.found_after, f2.found_after);
    }

    /// Off-scheduler, the facade behaves exactly like std (this test
    /// itself is not run under the checker).
    #[test]
    fn facade_works_off_scheduler() {
        let m = Mutex::new(5u64);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 6);
        let h = thread::spawn(|| 7u64);
        assert_eq!(h.join().unwrap(), 7);
    }

    /// RwLock: writer exclusion is enforced; concurrent reads allowed.
    #[test]
    fn rwlock_write_exclusion_passes() {
        let report = small().check(|| {
            let cell = Arc::new(RwLock::new((0u64, 0u64)));
            let c2 = cell.clone();
            let w = thread::spawn(move || {
                let mut g = c2.write().unwrap();
                g.0 += 1;
                // A torn write would be observable if a reader could
                // interleave between these two field updates.
                g.1 += 1;
            });
            let g = cell.read().unwrap();
            assert_eq!(g.0, g.1, "torn read");
            drop(g);
            w.join().unwrap();
        });
        assert!(report.passed(), "{report}");
    }
}
