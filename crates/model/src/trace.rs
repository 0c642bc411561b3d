//! Execution traces: the per-iteration event log and the printable
//! failure report produced after schedule minimization.
//!
//! The format mirrors the `ddc-check` shrinker style: a failing run is
//! reported as the *minimal* schedule (fewest preemptive context
//! switches that still reproduce the failure) printed one event per
//! line, so it can be read top-to-bottom as "what each thread did, in
//! order".

use std::fmt;

/// One scheduler-visible operation performed by a modeled thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Model thread id (0 is the root thread running the scenario).
    pub thread: usize,
    /// Human-readable description of the operation (`lock m2`,
    /// `rw-read r0`, `join t1`, ...).
    pub op: String,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t{}] {}", self.thread, self.op)
    }
}

/// Why a model iteration failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A modeled thread panicked (assertion failure in the scenario).
    Panic,
    /// All live threads were blocked on model objects.
    Deadlock,
    /// The per-iteration step budget was exhausted (livelock guard).
    StepBudget,
    /// The scenario behaved differently on replay of a recorded
    /// schedule — scenarios must be deterministic given the schedule.
    NonDeterminism,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Deadlock => write!(f, "deadlock"),
            FailureKind::StepBudget => write!(f, "step budget exceeded"),
            FailureKind::NonDeterminism => write!(f, "non-deterministic scenario"),
        }
    }
}

/// A failing schedule, minimized and ready to print.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// What went wrong.
    pub kind: FailureKind,
    /// Panic payload / blocked-thread summary.
    pub message: String,
    /// The full event log of the minimized failing run.
    pub trace: Vec<Event>,
    /// Preemptive context switches left after minimization.
    pub preemptions: usize,
    /// Iterations the checker ran before hitting this failure.
    pub found_after: u64,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model failure: {} ({}) after {} interleavings; minimal schedule \
             ({} preemption{}):",
            self.kind,
            self.message,
            self.found_after,
            self.preemptions,
            if self.preemptions == 1 { "" } else { "s" }
        )?;
        let mut prev = usize::MAX;
        for ev in &self.trace {
            // Blank line at every context switch so the schedule's
            // shape is visible at a glance.
            if ev.thread != prev && prev != usize::MAX {
                writeln!(f, "  ----")?;
            }
            prev = ev.thread;
            writeln!(f, "  {ev}")?;
        }
        Ok(())
    }
}

/// Exploration statistics for one `Checker::check` call.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Completed iterations (each is one distinct interleaving, or a
    /// prefix proven redundant by the state hash).
    pub iterations: u64,
    /// Iterations cut short because every reachable continuation had
    /// already been visited (state-hash prune).
    pub pruned: u64,
    /// Distinct global states seen at schedule points.
    pub distinct_states: usize,
    /// Whether exploration stopped at the iteration cap rather than
    /// exhausting the (bounded) schedule space.
    pub capped: bool,
    /// The first failure found, if any, with a minimized trace.
    pub failure: Option<FailureReport>,
}

impl Report {
    /// True when exploration finished without finding any failure.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} interleavings ({} pruned, {} distinct states{})",
            self.iterations,
            self.pruned,
            self.distinct_states,
            if self.capped {
                ", capped"
            } else {
                ", exhausted"
            }
        )?;
        if let Some(fail) = &self.failure {
            write!(f, "\n{fail}")?;
        }
        Ok(())
    }
}
