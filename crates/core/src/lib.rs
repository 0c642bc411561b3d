//! # ddc-core
//!
//! The Dynamic Data Cube (Geffner, Agrawal, El Abbadi — EDBT 2000): a tree
//! of overlay boxes whose row-sum groups are stored recursively, giving
//! sublinear (`O(log^d n)`) range-sum queries *and* point updates, lazy
//! storage for sparse data, the §4.4 space optimization, and growth of the
//! cube in any direction (§5).
//!
//! Entry points:
//!
//! * [`DdcEngine`] — the cube as a [`ddc_array::RangeSumEngine`]
//!   (fixed logical shape; Basic §3 or Dynamic §4 per [`DdcConfig`]).
//! * [`GrowableCube`] — signed logical coordinates with on-demand growth.
//! * [`ShardedCube`] — the commit pipeline every served update takes
//!   (door → \[log\] → apply → ack) over a [`CommitTarget`]: a
//!   [`GrowableCube`], or a [`DurableCube`] whose acks are log records.
//! * [`DdcTree`] — the underlying primary tree, exposed for experiments.
//! * [`obs`] — the zero-dependency observability layer (metrics
//!   registry, latency histograms, tracing) every hot path reports into.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod concurrent;
mod config;
mod engine;
mod flat_face;
mod growth;
#[cfg(feature = "ddc_model")]
pub mod models;
pub mod obs;
mod pager;
mod persist;
mod shard;
mod store;
pub mod sync;
mod tree;
pub mod vfs;
pub mod wal;

pub use concurrent::SharedCube;
pub use config::{
    BaseStore, DdcConfig, LeafBackend, Mode, PagerConfig, DEFAULT_PAGE_BYTES, LEAF_BLOCK_CELLS,
};
pub use engine::DdcEngine;
pub use growth::{GrowableCube, GrowthError};
pub use pager::PoolStats;
pub use persist::ValueCodec;
pub use shard::{
    CommitTarget, MetricsSnapshot, OutOfBounds, ShardConfig, ShardedCube, TryUpdateError,
    COMMIT_FAILED, PANICKED_AFTER_APPEND,
};
pub use tree::{Contribution, DdcTree, LevelStats, TraceStep, TreeStats, MAX_SIDE};
pub use vfs::{
    FaultKind, FaultPlan, FaultProbs, FaultVfs, IoError, MemVfs, OpenMode, PlannedFault,
    RetryPolicy, StdVfs, Vfs, VfsFile,
};
pub use wal::{DurableCube, RecoveryReport, SharedDurableCube, WalReplay, WalWriter};
