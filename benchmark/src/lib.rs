//! # ddc-benchmark
//!
//! The repo's performance benchmark (see `README.md` beside this crate
//! and `/BENCHMARK.json`). Two binaries share this library:
//!
//! * `ddc-bench-e2e` — the end-to-end metrics, measured with tracing off;
//! * `ddc-bench-layers` — the traced twin: the same op stream replayed at
//!   each layer boundary in turn, one span per call.
//!
//! **Stable-surface rule.** This library and `ddc-bench-e2e` bind only to
//! `ddc_array::{RangeSumEngine, Shape, Region}`,
//! `ddc_core::{DdcEngine, DdcConfig}`, `ddc_workload::DdcRng` and the
//! `ddc` command line (`serve` flags, line protocol, `listening on`
//! line), so a refactor of the concurrency wrappers or the serve crate
//! cannot break the gate. Everything else the repo exports is referenced
//! from `src/bin/layers.rs` only.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;
pub mod drive;
pub mod ops;
pub mod oracle;
pub mod report;
pub mod served;
pub mod span;
pub mod spec;
pub mod stats;
