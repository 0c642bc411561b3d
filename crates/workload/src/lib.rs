//! # ddc-workload
//!
//! Deterministic synthetic workloads for the paper's experiments: dense /
//! sparse / clustered data (§5's EOSDIS and star-catalog narratives),
//! uniform and Zipf-skewed update streams, and range-query generators —
//! plus [`CheckTrace`], the workspace's one op-trace format: the
//! differential checker's workload (signed coordinates, growth in any
//! direction, save/load and crash steps), its text repro and its
//! shrinker.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod data;
mod fuzz;
mod queries;
mod rng;

pub use data::{
    append_series, clustered_points, emerging_sources, random_clusters, rng, skewed_updates,
    sparse_array, uniform_array, uniform_updates, zipf_index, Cluster, UpdateStream,
};
pub use fuzz::{ddmin, shrink_trace, BoxState, CheckOp, CheckTrace, CheckTraceConfig};
pub use queries::{prefix_regions, uniform_regions, window_regions};
pub use rng::{DdcRng, SampleRange};
