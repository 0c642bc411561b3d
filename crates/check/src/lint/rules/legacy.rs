//! The three v1 rules (`no-unwrap`, `no-bare-std-sync`,
//! `named-ordering`), re-expressed over the token stream with v1's
//! scoping.

use super::super::model::FileModel;
use super::{method_call, mk};
use crate::lint::Finding;

/// Atomic method names whose calls must spell out an `Ordering::…`.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "swap",
];

/// Run the three v1 rules over one file.
pub fn check(m: &FileModel) -> Vec<Finding> {
    // The serving layer parses untrusted network bytes: it carries the
    // same no-panic and facade-only-sync obligations as core. The
    // blocked base store is on every hot path of the arena tree.
    let in_core = m.path.starts_with("crates/core/src")
        || m.path.starts_with("crates/serve/src")
        || m.path == "crates/btree/src/blocked.rs";
    let is_facade = m.path == "crates/core/src/sync.rs";
    // Model-checker scenarios are assertion code: panicking is their
    // failure-reporting channel, same as #[cfg(test)] regions.
    let is_scenarios = m.path == "crates/core/src/models.rs";
    // Facade internals in crates/model forward an Ordering parameter
    // by design.
    let in_model = m.path.starts_with("crates/model/");

    let mut out = Vec::new();
    for i in 0..m.toks.len() {
        if m.in_test[i] {
            continue;
        }
        let t = &m.toks[i];
        // no-unwrap: core library code must not panic via unwrap/expect.
        if in_core && !is_scenarios {
            if let Some((name, open)) = method_call(m, i) {
                let empty = m.brackets.matching(open) == open + 1;
                if (name == "unwrap" && empty) || name == "expect" {
                    out.push(mk(m, "no-unwrap", t.line, String::new()));
                }
            }
        }
        // no-bare-std-sync: inside core/serve only sync.rs (the facade
        // itself) may name std::sync.
        if in_core
            && !is_facade
            && t.is_ident("std")
            && m.toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && m.toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && m.toks.get(i + 3).is_some_and(|t| t.is_ident("sync"))
        {
            out.push(mk(m, "no-bare-std-sync", t.line, String::new()));
        }
        // named-ordering: atomic calls must name an Ordering::… in
        // their argument list.
        if !in_model {
            if let Some((name, open)) = method_call(m, i) {
                if ATOMIC_METHODS.contains(&name) && !has_ordering_path(m, open) {
                    out.push(mk(m, "named-ordering", t.line, String::new()));
                }
            }
        }
    }
    out
}

/// Arguments contain `Ordering` followed by `::` (the v1 check was the
/// substring `Ordering::`).
fn has_ordering_path(m: &FileModel, open: usize) -> bool {
    let close = m.brackets.matching(open);
    if close == usize::MAX {
        return false;
    }
    (open + 1..close).any(|j| {
        m.toks[j].is_ident("Ordering")
            && m.toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && m.toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
    })
}
