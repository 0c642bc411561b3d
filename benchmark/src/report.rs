//! What a run prints: diagnostics, then the contract's result line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json` (or `e2e.*` for a diagnostic).
    pub name: &'static str,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Outcome of a run: operations attempted, operations that failed
/// (refused or erroring requests, wrong answers, refused connects), and
/// whether every checked output was right.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued, preload and post-restart checks included.
    pub attempted: u64,
    /// Operations refused or failed in transit.
    pub failed: u64,
    /// Query results that differed from the oracle.
    pub wrong: u64,
    /// Updates the program acknowledged (a subset of `attempted`).
    pub acked_updates: u64,
}

impl Tally {
    /// `true` when nothing failed and nothing was wrong.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }

    /// Adds the counts of `other` to this tally.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.acked_updates += other.acked_updates;
    }
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.failed + tally.wrong
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Prints diagnostics (metrics that are not in `BENCHMARK.json`) and
/// free-form notes as `# …` lines, then the result line last.
pub fn print(
    workload: &str,
    notes: &[String],
    diagnostics: &[Metric],
    tally: &Tally,
    metrics: &[Metric],
) {
    for note in notes {
        println!("# {workload}: {note}");
    }
    for m in diagnostics {
        println!("# {workload}: {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(tally, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 1000,
            ..Tally::default()
        };
        let line = result_line(
            &tally,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn wrong_answers_make_the_run_incorrect_and_count_as_failed() {
        let tally = Tally {
            attempted: 10,
            failed: 1,
            wrong: 2,
            ..Tally::default()
        };
        assert!(!tally.clean());
        let mut total = Tally::default();
        total.absorb(&tally);
        total.absorb(&tally);
        assert_eq!((total.attempted, total.failed, total.wrong), (20, 2, 4));
        let line = result_line(&tally, &[Metric::new("x", f64::NAN, "s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3,"));
        assert!(line.contains("\"value\": 0,"), "{line}");
    }
}
