//! Seeded violations for the three v1 rules, two each: a panicking
//! unwrap and expect, a bare `std::sync` reference outside the facade
//! (a path and a `use`), and atomic calls with no named `Ordering`.
//! Analyzer input only — never compiled.

use std::sync::Mutex; //~ no-bare-std-sync

/// Core code must not panic via unwrap.
pub fn take(v: Option<u32>) -> u32 {
    v.unwrap() //~ no-unwrap
}

/// Nor via expect, whatever the message says.
pub fn take_or_explain(v: Option<u32>) -> u32 {
    v.expect("caller checked") //~ no-unwrap
}

/// Only `core/src/sync.rs` may name `std::sync`.
pub fn bump(c: &std::sync::atomic::AtomicU64) -> u64 { //~ no-bare-std-sync
    c.fetch_add(1) //~ named-ordering
}

/// An ordering passed through a variable is not a named one.
pub fn peek(x: &AtomicU64, order: Ordering) -> u64 {
    x.load(order) //~ named-ordering
}
