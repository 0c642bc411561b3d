//! # ddc-check
//!
//! Differential fuzzing and fault-injection harness for the Dynamic
//! Data Cube workspace. Every engine — the Table-1 baselines, the DDC
//! proper in each configuration, the lock-guarded and sharded
//! concurrent cubes, and both growable cubes — is driven through the
//! same randomized [`ddc_workload::CheckTrace`] op streams (updates,
//! sets, range queries, cell reads, growth in any direction, save/load
//! round-trips, flush barriers) and compared answer-by-answer against a
//! sparse hash-map oracle.
//!
//! On divergence the trace is **shrunk** (delta debugging over ops,
//! then coordinate/value minimization) to a replayable text repro.
//!
//! The crate also hosts the persistence fault injectors
//! ([`FailingWriter`], [`FailingReader`], [`fault_sweep`]) and the
//! bounded interleaving scheduler for the sharded cube
//! ([`check_interleavings`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

mod adapters;
mod buggy;
mod crash;
mod disk;
mod fault;
mod interleave;
pub mod lint;
mod oracle;
mod runner;
mod serve_fuzz;

pub use adapters::{
    engine_roster, CheckEngine, DdcAdapter, DurableAdapter, FixedAdapter, GrowableAdapter,
    GrowableDenseAdapter, ShardedAdapter, SharedAdapter,
};
pub use buggy::{roster_with_bug, OffByOneEngine};
pub use crash::{corruption_divergence, crash_sweep, CrashSweepReport};
pub use disk::{
    disk_sweep, refind_seeded_bug, run_trace_under_faults, shrink_fault_schedule, DiskRunReport,
    DiskSweepConfig, DiskSweepReport, DiskViolation, FaultSchedule, RefindReport,
};
pub use fault::{fault_sweep, FailingReader, FailingWriter, FaultSweepReport, Snapshot};
pub use interleave::{check_interleavings, InterleaveReport, Update};
pub use oracle::Oracle;
pub use runner::{
    fuzz, fuzz_with, run_trace, run_trace_on, Divergence, FuzzFailure, FuzzOutcome, RunStats,
};
pub use serve_fuzz::{
    find_parser_quirk, fuzz_parser_config, fuzz_serve_parser, ParserQuirk, ServeFuzzFailure,
    ServeFuzzReport, ServeOp,
};
