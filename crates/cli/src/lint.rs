//! `ddc lint` — the repo-invariant semantic analyzer
//! ([`ddc_check::lint`]) as a shell subcommand.
//!
//! ```text
//! ddc lint [--root DIR] [--rule NAME] [--json FILE]
//! ddc lint --fixtures [--root DIR]
//! ```
//!
//! Errors (and so exits nonzero) on any finding; with `--fixtures`,
//! unless every seeded violation of the corpus is re-found and nothing
//! else is. An argument it does not accept is refused before anything
//! is read.

use std::path::Path;

use ddc_check::lint;

use crate::flags::Flags;

/// Runs `ddc lint` with the given arguments, returning the report text.
pub fn run(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["--root", "--rule", "--json"], &["--fixtures"])?;
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

    let findings = lint::run_lints(root, flags.value("--rule"))?;
    if let Some(p) = flags.value("--json") {
        std::fs::write(p, lint::report_json(&findings))
            .map_err(|e| format!("cannot write {p}: {e}"))?;
    }

    let mut out = String::new();
    for f in &findings {
        out.push_str(&format!("{f}\n"));
    }
    out.push_str(&format!("{} findings", findings.len()));
    if findings.is_empty() {
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

    #[test]
    fn lint_refuses_the_retired_waiver_flags() {
        // No waiver file and no PR clock: both flags are unknown, and
        // the refusal comes before any file is read (the root does not
        // exist).
        for args in [["--allow", "FILE"], ["--pr", "5"]] {
            let mut args: Vec<String> = args.map(String::from).into();
            args.extend(["--root", "/nonexistent-lint-root"].map(String::from));
            let err = run(&args).expect_err("unknown argument");
            assert!(
                err.starts_with(&format!("unknown argument {};", args[0])),
                "{err}"
            );
        }
    }
}
