//! Integration suite for the deterministic concurrency model checker
//! (`cargo test -p ddc-tests --features model --test model_checker`).
//!
//! Three obligations, straight from the roadmap:
//!
//! 1. The checker FINDS seeded bugs: a racy two-thread counter and an
//!    unbuffered handoff with a lost wakeup, each with a replayable
//!    minimal trace, deterministically.
//! 2. The ported `core::shard` / `core::wal` models run green.
//! 3. The default sweep explores a nontrivial schedule space (≥10k
//!    interleavings across scenarios) in well under a minute.

use ddc_core::models;
use ddc_model::{CheckerConfig, FailureKind};

fn cfg() -> CheckerConfig {
    CheckerConfig::default()
}

/// Deeper bound used for the exploration-volume budget check.
fn sweep_cfg() -> CheckerConfig {
    CheckerConfig {
        preemption_bound: 3,
        ..CheckerConfig::default()
    }
}

#[test]
fn finds_buggy_counter_with_minimal_trace() {
    let report = models::buggy_counter(cfg());
    let failure = report.failure.expect("racy counter must be detected");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("lost update"),
        "unexpected failure message: {}",
        failure.message
    );
    // The minimal schedule needs exactly one preemption: interrupting
    // one thread between its load and its store.
    assert_eq!(failure.preemptions, 1, "trace not minimal");
    assert!(!failure.trace.is_empty(), "no replayable trace");
}

#[test]
fn finds_buggy_handoff_as_deadlock() {
    let report = models::buggy_handoff(cfg());
    let failure = report.failure.expect("lost wakeup must be detected");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.message.contains("condvar"),
        "unexpected failure message: {}",
        failure.message
    );
    assert_eq!(failure.preemptions, 1, "trace not minimal");
    assert!(!failure.trace.is_empty(), "no replayable trace");
}

#[test]
fn detection_is_deterministic() {
    let a = models::buggy_counter(cfg());
    let b = models::buggy_counter(cfg());
    let (fa, fb) = (
        a.failure.expect("detected on run 1"),
        b.failure.expect("detected on run 2"),
    );
    assert_eq!(a.iterations, b.iterations, "exploration order diverged");
    assert_eq!(fa.found_after, fb.found_after, "detection point diverged");
    let trace = |f: &ddc_model::FailureReport| {
        f.trace
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(trace(&fa), trace(&fb), "minimal trace diverged");
}

#[test]
fn ported_shard_model_is_linearizable() {
    let report = models::shard_concurrent_updates(cfg());
    assert!(
        report.passed(),
        "shard_concurrent_updates failed:\n{}",
        report.failure.map(|f| f.to_string()).unwrap_or_default()
    );
    assert!(!report.capped, "bounded space should be exhausted");
}

#[test]
fn ported_shard_model_acks_a_run_once_it_has_landed() {
    let report = models::shard_run_lands_whole(cfg());
    assert!(
        report.passed(),
        "shard_run_lands_whole failed:\n{}",
        report.failure.map(|f| f.to_string()).unwrap_or_default()
    );
    assert!(!report.capped, "bounded space should be exhausted");
}

#[test]
fn ported_wal_model_never_acks_before_append() {
    let report = models::wal_ack_after_append(cfg());
    assert!(
        report.passed(),
        "wal_ack_after_append failed:\n{}",
        report.failure.map(|f| f.to_string()).unwrap_or_default()
    );
    assert!(!report.capped, "bounded space should be exhausted");
}

#[test]
fn sweep_explores_ten_thousand_interleavings_in_budget() {
    let started = std::time::Instant::now();
    let total: u64 = models::all_green(sweep_cfg())
        .into_iter()
        .map(|(name, r)| {
            assert!(r.passed(), "{name} failed during sweep");
            r.iterations
        })
        .sum();
    let elapsed = started.elapsed();
    assert!(
        total >= 10_000,
        "sweep explored only {total} interleavings (need >= 10k)"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "sweep took {elapsed:?} (budget 60s)"
    );
}
