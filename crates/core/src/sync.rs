//! Synchronization facade for `ddc-core`.
//!
//! All concurrency-bearing core code (`shard`, `concurrent`, `wal`,
//! `obs`) imports its primitives from here instead of `std::sync`
//! (enforced by `ddc-lint`). In a normal build the re-exports below
//! *are* the `std` types — the facade compiles away completely. With
//! the `ddc_model` feature the locks, `Condvar` and `thread` resolve
//! to `ddc_model::sync`, whose objects register with the deterministic
//! scheduler when created on a modeled thread and degrade to `std`
//! behavior everywhere else. There are no modeled atomics: state that
//! steers control flow between threads sits behind a modeled lock.
//!
//! The [`untracked`] submodule always maps to `std`, for state that
//! must never become schedule points: observability counters (the
//! only atomics) and the registry's internal locks. Metrics never
//! steer control flow, and keeping them out of the model both shrinks
//! the state space and keeps the schedule-point sequence identical
//! across iterations even when `OnceLock` initialization order varies.

// Always-std pieces: these never need modeling.
pub use std::sync::{Arc, LockResult, OnceLock, PoisonError, TryLockError, Weak};

#[cfg(not(feature = "ddc_model"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "ddc_model")]
pub use ddc_model::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Thread spawn/join; model-aware under `ddc_model`. `std::thread`
/// helpers that never block on other modeled threads (`scope` for
/// fork-join parallel reads, `sleep`, …) are used directly from `std`.
pub mod thread {
    #[cfg(not(feature = "ddc_model"))]
    pub use std::thread::{spawn, JoinHandle};

    #[cfg(feature = "ddc_model")]
    pub use ddc_model::sync::thread::{spawn, JoinHandle};
}

/// Always-`std` primitives for bookkeeping that must stay invisible to
/// the model checker (see module docs).
pub mod untracked {
    pub use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::{Mutex, MutexGuard, RwLock};
}
