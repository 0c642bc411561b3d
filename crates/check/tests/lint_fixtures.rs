//! CI teeth for the seeded-violation corpus: the v2 analyzer must
//! re-find every `//~ rule` marker under `tests/lint_fixtures/` and
//! report nothing else, with the coverage floor the corpus promises
//! (at least two seeds per rule, at least ten overall).

use std::path::PathBuf;

use ddc_check::lint;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

#[test]
fn analyzer_refinds_every_seeded_violation() {
    let report = lint::run_fixtures(&fixture_root()).expect("fixture corpus analyzable");
    assert!(
        report.is_clean(),
        "missed: {:?}\nunexpected: {:?}",
        report.missing,
        report.unexpected
    );
    assert_eq!(report.refound, report.expected);
}

#[test]
fn corpus_meets_its_coverage_floor() {
    let report = lint::run_fixtures(&fixture_root()).expect("fixture corpus analyzable");
    assert!(
        report.expected >= 10,
        "corpus shrank below ten seeded violations ({})",
        report.expected
    );
    for &rule in lint::rules::ALL_RULES {
        let (_, total) = report.per_rule.get(rule).copied().unwrap_or((0, 0));
        assert!(
            total >= 2,
            "rule {rule} has {total} seeded violations, needs at least 2"
        );
    }
}
