//! # ddc-serve
//!
//! Zero-dependency network serving layer for the Dynamic Data Cube:
//! `std::net` TCP, an in-repo incremental HTTP/1.1 + line-protocol
//! parser, a worker pool on the `core::sync` facade, and per-tenant
//! admission control — the paper's range-sum engines behind a wire so
//! "millions of users" stops being hypothetical. It links the cube
//! (`ddc-array`, `ddc-core`) and nothing else; load is generated and
//! timed from outside, by `benchmark/` (`serve_mixed`,
//! `durable_paged_mixed`).
//!
//! Layering (each module only reaches down):
//!
//! * [`http`] — bytes → [`http::Frame`]s (incremental, allocation-
//!   bounded, pipelining-safe; a line frame borrows the parser's
//!   buffer) and response serialization.
//! * [`protocol`] — frames → typed [`protocol::ServeRequest`]s, with
//!   points decoded into fixed-width [`ddc_array::Point`]s; the protocol
//!   grammar lives here.
//! * [`backend`] — requests → engine calls with untrusted-input
//!   validation and typed refusals ([`backend::BackendError`]).
//! * [`admission`] — per-tenant token-bucket rate policy.
//! * [`server`] — acceptor + worker pool tying the above to sockets.
//!
//! A line-protocol update, range sum or prefix allocates nothing on its
//! way through these layers and the cube (`tests/request_allocs.rs`).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod backend;
pub mod http;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmissionConfig};
pub use backend::{
    Backend, BackendError, BackendHealth, DurableBackend, IngestOutcome, ServeBackend,
    ShardedBackend,
};
pub use http::{Frame, HttpRequest, ParseError, ParserConfig, RequestParser};
pub use protocol::{RequestError, ServeRequest};
pub use server::{Server, ServerConfig};
