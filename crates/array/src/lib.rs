//! # ddc-array
//!
//! Foundational substrate for the Dynamic Data Cube workspace: dense
//! `d`-dimensional arrays, regions and the Figure-4 prefix decomposition,
//! the Abelian-group measure abstraction, signed coordinates for dynamic
//! growth, the [`RangeSumEngine`] trait implemented by every method in the
//! paper, and the operation counters behind the Table-1 experiments.
//!
//! This crate has no dependencies; everything above it (`ddc-btree`,
//! `ddc-baselines`, `ddc-core`, `ddc-olap`) builds on these types. It
//! holds no test harness: engines are checked against each other by
//! `ddc-check`, which runs one trace through all of them and compares
//! every answer with a hash-map oracle.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod array;
mod coords;
mod counter;
mod engine;
mod group;
mod point;
mod region;
mod shape;
mod slice;

pub use array::NdArray;
pub use coords::{CoordMap, GrowthDirection};
pub use counter::{OpCounter, OpSnapshot};
pub use engine::RangeSumEngine;
pub use group::{AbelianGroup, Checked, Pair};
pub use point::{Point, MAX_RANK};
pub use region::{with_coord_bufs, PrefixTerm, Region, RegionPointIter};
pub use shape::{PointIter, Shape, ShapeError};
pub use slice::SliceView;
