//! # ddc-cli
//!
//! The `ddc` shell: an interactive / scriptable front end over the
//! workspace's data cubes. See [`Session`] for the interpreter and the
//! `command` module for the line language.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod check;
pub mod command;
mod flags;
pub mod lint;
#[cfg(feature = "model")]
pub mod model;
pub mod serve;
mod session;
pub mod stats;
pub mod wal;

pub use command::{Aggregate, Command, DimSpec, ParseError, RangeToken};
pub use session::{Output, Session};
