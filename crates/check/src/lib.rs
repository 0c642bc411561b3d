//! # ddc-check
//!
//! Differential fuzzing and fault-injection harness for the Dynamic
//! Data Cube workspace. Every engine — the Table-1 baselines, the DDC
//! proper in each configuration, the lock-guarded and sharded
//! concurrent cubes, and both growable cubes — is driven through the
//! same randomized [`ddc_workload::CheckTrace`] op streams (updates,
//! sets, range queries, cell reads, growth in any direction, save/load
//! round-trips, flush barriers) and compared answer-by-answer against a
//! sparse hash-map oracle. [`run_trace_on`] is the workspace's one
//! differential path: the suites that compare engines hand it their own
//! traces and engine sets rather than keep a harness of their own.
//!
//! On divergence the trace is **shrunk** (delta debugging over ops,
//! then coordinate/value minimization) to a replayable text repro.
//!
//! Everything durable runs on one rig (`rig.rs`) — a `DurableCube` on a
//! `Vfs`, booted, checkpointed and crashed by the calls `ddc serve
//! --durable` makes — and one walk of a trace against it: the roster's
//! `durable-*` engines, the kill sweep at every byte of the log
//! ([`crash_sweep`]), the disk-fault chaos sweep ([`disk_sweep`]) and
//! the fault at every byte of the checkpoint ([`snapshot_sweep`])
//! differ in the disk they hand it. The crate also hosts the
//! wire-parser fuzzer ([`fuzz_serve_parser`]), the seeded bugs each of
//! them must re-find ([`roster_with_bug`], [`ParserQuirk`]; the disk's
//! is `FaultVfs::lose_truncations`) and the repo-invariant [`lint`].

#![warn(missing_docs)]
#![warn(clippy::all)]

mod adapters;
mod buggy;
mod crash;
mod disk;
pub mod lint;
mod oracle;
mod rig;
mod runner;
mod serve_fuzz;

pub use adapters::{
    ddc_adapter, engine_roster, CheckEngine, DurableEngine, FixedAdapter, GrowableAdapter,
    GrowableDenseAdapter,
};
pub use buggy::{roster_with_bug, OffByOneEngine, ParserQuirk};
pub use crash::{corruption_divergence, crash_sweep, CrashSweepReport};
pub use disk::{
    disk_sweep, refind_seeded_bug, run_trace_under_faults, shrink_fault_schedule, snapshot_sweep,
    DiskRunReport, DiskSweepConfig, DiskSweepReport, DiskViolation, FaultSchedule, RefindReport,
};
pub use oracle::Oracle;
pub use runner::{
    fuzz, fuzz_with, run_trace, run_trace_on, Divergence, FuzzFailure, FuzzOutcome, RunStats,
};
pub use serve_fuzz::{
    find_parser_quirk, fuzz_parser_config, fuzz_serve_parser, OwnedFrame, ServeFuzzFailure,
    ServeFuzzReport, ServeOp,
};
