//! `ddc lint` — the repo-invariant semantic analyzer
//! ([`ddc_check::lint`]) as a shell subcommand.
//!
//! ```text
//! ddc lint [--root DIR] [--allow FILE] [--rule NAME] [--json FILE] [--pr N]
//! ddc lint --fixtures [--root DIR]
//! ```
//!
//! Errors (and so exits nonzero) on any blocking finding, stale
//! allowlist entry, or expired allowlist lease; with `--fixtures`,
//! unless every seeded violation of the corpus is re-found and nothing
//! else is. An argument it does not accept is refused before anything
//! is read.

use std::path::{Path, PathBuf};

use ddc_check::lint;

use crate::flags::Flags;

/// Runs `ddc lint` with the given arguments, returning the report text.
pub fn run(args: &[String]) -> Result<String, String> {
    let values = ["--root", "--allow", "--rule", "--json", "--pr"];
    let flags = Flags::parse(args, &values, &["--fixtures"])?;
    let root = Path::new(flags.value("--root").unwrap_or("."));

    if flags.has("--fixtures") {
        let r = lint::run_fixtures(&root.join("crates/check/tests/lint_fixtures"))?;
        let mut out = String::new();
        for (rule, (refound, total)) in &r.per_rule {
            out.push_str(&format!("fixtures [{rule}] {refound}/{total}\n"));
        }
        for (path, line, rule) in &r.missing {
            out.push_str(&format!("MISSED seeded violation {path}:{line} [{rule}]\n"));
        }
        for f in &r.unexpected {
            out.push_str(&format!("unexpected fixture finding {f}\n"));
        }
        out.push_str(&format!(
            "seeded violations re-found: {}/{}",
            r.refound, r.expected
        ));
        return if r.is_clean() { Ok(out) } else { Err(out) };
    }

    let allow_path = flags
        .value("--allow")
        .map_or_else(|| root.join("lint-allow.txt"), PathBuf::from);
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", allow_path.display())),
    };
    let current_pr = match flags.num::<u64>("--pr")? {
        Some(pr) => pr,
        None => lint::current_pr_from_changes(root),
    };
    let report = lint::run_lints(root, &allowlist, current_pr, flags.value("--rule"))?;

    if let Some(p) = flags.value("--json") {
        std::fs::write(p, lint::report_json(&report))
            .map_err(|e| format!("cannot write {p}: {e}"))?;
    }

    let mut out = String::new();
    for f in &report.blocking {
        out.push_str(&format!("{f}\n"));
    }
    for i in &report.stale {
        let a = &report.entries[*i];
        out.push_str(&format!(
            "stale allowlist entry (line {}, matched nothing — remove it): {} {} expires={} {}\n",
            a.line, a.rule, a.path, a.expires, a.needle
        ));
    }
    for i in &report.expired {
        let a = &report.entries[*i];
        out.push_str(&format!(
            "expired allowlist entry (line {}, lease ended at PR {}, now PR {current_pr}): \
             {} {} {}\n",
            a.line, a.expires, a.rule, a.path, a.needle
        ));
        if !a.rationale.is_empty() {
            out.push_str(&format!("  original rationale: {}\n", a.rationale));
        }
    }
    out.push_str(&format!(
        "{} blocking, {} waived, {} stale, {} expired (PR {current_pr})",
        report.blocking.len(),
        report.waived.len(),
        report.stale.len(),
        report.expired.len()
    ));
    if report.is_clean() {
        Ok(out)
    } else {
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_refuses_a_misspelt_flag() {
        // In the words of every other subcommand, before any file is
        // read or written.
        let args: Vec<String> = ["--jsn", "findings.json"].map(String::from).into();
        let err = run(&args).expect_err("unknown argument");
        assert!(err.starts_with("unknown argument --jsn;"), "{err}");
    }
}
