//! Repo-invariant semantic lint suite (`ddc-lint` v2).
//!
//! v1 was a masking lexer + substring rules; v2 is a real Rust
//! [`lexer`] and token-tree [`parse`]r feeding a per-file semantic
//! [`model`] (functions, lock fields, `cfg(test)` gating) and a
//! [`rules`] set that includes whole-workspace passes:
//!
//! * **`no-unwrap`**, **`no-bare-std-sync`**, **`named-ordering`** —
//!   the v1 rules, re-expressed over tokens.
//! * **`seam-bypass`** — no `std::fs`/`std::net` outside the `Vfs`
//!   seam and whitelisted operator/harness modules.
//! * **`lock-order`** — static lock-acquisition graph over the
//!   `core::sync` guards; cycles fail with a witness path.
//! * **`result-discard`** — dropped `Result`s carrying `IoError` /
//!   `TryUpdateError`.
//!
//! Any finding fails the run; nothing waives one. Each rule ships a
//! seeded-violation fixture corpus under
//! `crates/check/tests/lint_fixtures/` that [`run_fixtures`] must
//! re-find — the same "re-discover planted bugs" contract the fuzzer
//! and chaos sweeps obey.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod model;
pub mod parse;
pub mod rules;

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `lock-order`).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Extra context (witness paths, remediation); may be multi-line.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.excerpt
        )?;
        for l in self.detail.lines() {
            write!(f, "\n    {}", l.trim_start())?;
        }
        Ok(())
    }
}

/// Recursively collect `crates/*/src/**/*.rs` under `root`, returned as
/// sorted repo-relative forward-slash paths.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for e in entries {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out)?;
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
        Ok(())
    }
    let crates = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut out = Vec::new();
    for c in crate_dirs {
        let src = c.join("src");
        if src.is_dir() {
            walk(&src, &mut out)?;
        }
    }
    Ok(out)
}

/// Build a [`model::FileModel`] for every workspace source under
/// `root`.
pub fn collect_models(root: &Path) -> Result<Vec<model::FileModel>, String> {
    let files = workspace_sources(root).map_err(|e| format!("walking {root:?}: {e}"))?;
    let mut models = Vec::with_capacity(files.len());
    for f in &files {
        let raw = std::fs::read_to_string(f).map_err(|e| format!("reading {f:?}: {e}"))?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        models.push(model::FileModel::build(&rel, &raw)?);
    }
    Ok(models)
}

/// Run the full suite from a repo root and return every finding.
/// `rule` restricts the run to a single rule id.
pub fn run_lints(root: &Path, rule: Option<&str>) -> Result<Vec<Finding>, String> {
    if let Some(r) = rule {
        if !rules::ALL_RULES.contains(&r) {
            return Err(format!(
                "unknown rule `{r}` (expected one of: {})",
                rules::ALL_RULES.join(", ")
            ));
        }
    }
    let mut findings = rules::analyze(&collect_models(root)?);
    if let Some(r) = rule {
        findings.retain(|f| f.rule == r);
    }
    Ok(findings)
}

// ---------------------------------------------------------------------------
// Seeded-violation fixtures
// ---------------------------------------------------------------------------

/// Outcome of re-finding the seeded fixture corpus.
#[derive(Debug)]
pub struct FixtureReport {
    /// Seeded `(path, line, rule)` markers re-found by the analyzer.
    pub refound: usize,
    /// Total seeded markers.
    pub expected: usize,
    /// Markers the analyzer missed.
    pub missing: Vec<(String, usize, String)>,
    /// Findings with no marker — fixture noise the corpus must not
    /// have.
    pub unexpected: Vec<Finding>,
    /// Per-rule `(refound, expected)`.
    pub per_rule: BTreeMap<String, (usize, usize)>,
}

impl FixtureReport {
    /// Every marker re-found and nothing extra reported.
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.unexpected.is_empty()
    }
}

/// Run the analyzer over the fixture tree (a miniature repo layout
/// rooted at `fixture_root`, e.g. `crates/check/tests/lint_fixtures`)
/// and compare against the `//~ rule…` markers seeded on the offending
/// lines.
pub fn run_fixtures(fixture_root: &Path) -> Result<FixtureReport, String> {
    let models = collect_models(fixture_root)?;
    if models.is_empty() {
        return Err(format!("no fixture sources under {fixture_root:?}"));
    }
    // Expected multiset from trailing `//~ rule [rule…]` markers.
    let mut expected: BTreeMap<(String, usize, String), usize> = BTreeMap::new();
    for m in &models {
        for (li, line) in m.raw_lines.iter().enumerate() {
            let Some(pos) = line.find("//~") else {
                continue;
            };
            for rule in line[pos + 3..].split_whitespace() {
                *expected
                    .entry((m.path.clone(), li + 1, rule.to_string()))
                    .or_insert(0) += 1;
            }
        }
    }
    let found = rules::analyze(&models);

    let mut remaining = expected.clone();
    let mut unexpected = Vec::new();
    for f in &found {
        let key = (f.path.clone(), f.line, f.rule.to_string());
        match remaining.get_mut(&key) {
            Some(n) if *n > 0 => *n -= 1,
            _ => unexpected.push(f.clone()),
        }
    }
    let missing: Vec<(String, usize, String)> = remaining
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|((p, l, r), _)| (p.clone(), *l, r.clone()))
        .collect();

    let mut per_rule: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for ((_, _, rule), n) in &expected {
        per_rule.entry(rule.clone()).or_insert((0, 0)).1 += n;
    }
    for ((_, _, rule), n) in &remaining {
        // `n` left over = missed; refound = expected - missed.
        per_rule.entry(rule.clone()).or_insert((0, 0)).0 += n;
    }
    for (refound_missed, total) in per_rule.values_mut() {
        *refound_missed = *total - *refound_missed;
    }
    let expected_total: usize = expected.values().sum();
    let missing_total: usize = remaining.values().sum();
    Ok(FixtureReport {
        refound: expected_total - missing_total,
        expected: expected_total,
        missing,
        unexpected,
        per_rule,
    })
}

// ---------------------------------------------------------------------------
// JSON findings output
// ---------------------------------------------------------------------------

/// Render findings as JSON (hand-rolled — the repo is zero-dep) for
/// the CI findings artifact.
pub fn report_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"excerpt\":\"{}\",\"detail\":\"{}\"}}",
                esc(f.rule),
                esc(&f.path),
                f.line,
                esc(&f.excerpt),
                esc(&f.detail)
            )
        })
        .collect();
    format!(
        "{{\"schema\":2,\"clean\":{},\"findings\":[{}]}}",
        findings.is_empty(),
        items.join(",")
    )
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::model::FileModel;
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        let m = FileModel::build(path, src).expect("model builds");
        rules::analyze(std::slice::from_ref(&m))
    }

    fn rules_of(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src =
            "fn live() { v.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); }\n}\n";
        let f = lint_one("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].rule, "no-unwrap");
    }

    #[test]
    fn std_sync_flagged_outside_facade_only() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/shard.rs", src)),
            vec!["no-bare-std-sync"]
        );
        assert!(lint_one("crates/core/src/sync.rs", src).is_empty());
        assert!(lint_one("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn atomic_calls_need_explicit_ordering() {
        let bad = "fn f() { let v = x.load(order); }\n";
        let good = "fn f() { let v = x.load(Ordering::Acquire); }\n";
        let multiline = "fn f() { x.fetch_add(1,\n    Ordering::Relaxed); }\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/a.rs", bad)),
            vec!["named-ordering"]
        );
        assert!(lint_one("crates/core/src/a.rs", good).is_empty());
        assert!(lint_one("crates/core/src/a.rs", multiline).is_empty());
        // Facade internals forward a parameter — exempt.
        assert!(lint_one("crates/model/src/sync.rs", bad).is_empty());
    }

    #[test]
    fn seam_bypass_outside_whitelist() {
        let src = "fn f() { let _x = std::fs::metadata(p); }\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/store.rs", src)),
            vec!["seam-bypass"]
        );
        assert!(lint_one("crates/core/src/vfs.rs", src).is_empty());
        assert!(lint_one("crates/cli/src/main.rs", src).is_empty());
        let net = "fn f() { let l = std::net::TcpListener::bind(a); }\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/wal/log.rs", net)),
            vec!["seam-bypass"]
        );
    }

    #[test]
    fn lock_order_cycle_reported_with_witness() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); drop(h); drop(g); }
    fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); drop(h); drop(g); }
}
";
        let f = lint_one("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["lock-order"], "{f:?}");
        assert!(f[0].detail.contains("a -> b"), "{}", f[0].detail);
        assert!(f[0].detail.contains("b -> a"), "{}", f[0].detail);
    }

    #[test]
    fn lock_order_consistent_order_is_clean() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); drop(h); drop(g); }
    fn ab2(&self) { let g = self.a.lock(); self.b.lock().x(); drop(g); }
}
";
        assert!(lint_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn lock_order_guard_helper_propagates() {
        // fn-level helpers returning guards (the shard.rs pattern):
        // holding the queue via lock_queue while write_engine acquires
        // the engine, and vice versa in another fn → cycle.
        let src = "\
struct S { queue: Mutex<u32>, engine: RwLock<u32> }
fn lock_queue(s: &S) -> MutexGuard<'_, u32> { s.queue.lock() }
fn write_engine(s: &S) -> RwLockWriteGuard<'_, u32> { s.engine.write() }
fn commit(s: &S) { let q = lock_queue(s); let e = write_engine(s); drop(e); drop(q); }
fn drain(s: &S) { let e = write_engine(s); let q = lock_queue(s); drop(q); drop(e); }
";
        let f = lint_one("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["lock-order"], "{f:?}");
        assert!(f[0].detail.contains("via "), "{}", f[0].detail);
    }

    #[test]
    fn result_discard_let_underscore_and_bare_statement() {
        let src = "\
fn append(x: u64) -> Result<u64, IoError> { Ok(x) }
fn caller() {
    let _ = append(1);
    append(2);
    let ok = append(3);
    drop(ok);
}
";
        let f = lint_one("crates/core/src/x.rs", src);
        assert_eq!(
            rules_of(&f),
            vec!["result-discard", "result-discard"],
            "{f:?}"
        );
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn result_discard_spares_clean_overloads() {
        // `add` has a non-risky overload elsewhere → the name is
        // dropped from the risky set entirely.
        let a = FileModel::build(
            "crates/core/src/wal/durable.rs",
            "impl D { fn add(&mut self) -> Result<(), IoError> { Ok(()) } }\n",
        )
        .expect("model");
        let b = FileModel::build(
            "crates/core/src/group.rs",
            "impl G { fn add(&self, o: &G) -> G { o.clone() } }\nfn f(g: &G) { g.add(g); }\n",
        )
        .expect("model");
        let f = rules::analyze(&[a, b]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn json_report_escapes_and_round_trips_shape() {
        let f = Finding {
            rule: "seam-bypass",
            path: "crates/core/src/a.rs".into(),
            line: 1,
            excerpt: "std::fs::File::open(\"x\")".into(),
            detail: "line1\nline2".into(),
        };
        let j = report_json(&[f]);
        assert!(
            j.starts_with("{\"schema\":2,\"clean\":false,\"findings\":[{"),
            "{j}"
        );
        assert!(j.contains("\\\"x\\\""), "{j}");
        assert!(j.contains("line1\\nline2"), "{j}");
        assert!(j.ends_with("}]}"), "{j}");
        assert_eq!(
            report_json(&[]),
            "{\"schema\":2,\"clean\":true,\"findings\":[]}"
        );
    }
}
