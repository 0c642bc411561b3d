//! The rule set. Per-file rules (`legacy`, `seam`) take one
//! [`FileModel`]; whole-workspace rules (`results`, `locks`) take all
//! of them and correlate across files.

use super::model::FileModel;
use super::Finding;
use crate::lint::lexer::{Delim, TokKind};

pub mod legacy;
pub mod locks;
pub mod results;
pub mod seam;

/// Every rule id the analyzer can emit, for `--rule` validation.
pub const ALL_RULES: &[&str] = &[
    "no-unwrap",
    "no-bare-std-sync",
    "named-ordering",
    "seam-bypass",
    "lock-order",
    "result-discard",
];

/// Run every rule over the models; findings sorted by (path, line,
/// rule) for deterministic output.
pub fn analyze(models: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in models {
        out.extend(legacy::check(m));
        out.extend(seam::check(m));
    }
    out.extend(results::check(models));
    out.extend(locks::check(models));
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

/// Build one finding anchored at `line` of `m`.
pub(crate) fn mk(m: &FileModel, rule: &'static str, line: u32, detail: String) -> Finding {
    Finding {
        rule,
        path: m.path.clone(),
        line: line as usize,
        excerpt: m.excerpt(line),
        detail,
    }
}

/// `.name(` method-call shape at dot index `i`: returns the method name
/// and the index of its opening paren.
pub(crate) fn method_call(m: &FileModel, i: usize) -> Option<(&str, usize)> {
    if !m.toks[i].is_punct('.') {
        return None;
    }
    let name = m.toks.get(i + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let open = i + 2;
    (m.toks.get(open)?.kind == TokKind::Open(Delim::Paren)).then_some((name.text.as_str(), open))
}
