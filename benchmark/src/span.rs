//! Spans of the traced run.
//!
//! The traced run replays one op stream at each layer boundary in turn,
//! outermost layer first, and wraps every call in a span. Spans are kept
//! in memory and written out once, when the run ends. A span's parent is
//! the span of the same op one layer further out; since the layers are
//! replayed one after another rather than nested in one call, a layer's
//! self time is the difference of medians over the same ops, not a
//! difference of intervals.

use std::io::Write;
use std::time::Instant;

/// One call into one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer and operation, e.g. `engine.update`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Name of the span of the same op in the enclosing layer.
    pub parent: Option<&'static str>,
    /// Position of the op in the replayed stream; spans of one op share it.
    pub op_id: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Makes room for `n` more spans, so recording does not reallocate
    /// under the timer.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Runs `call` inside a span and returns its result.
    #[inline]
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op_id: u32,
        call: impl FnOnce() -> R,
    ) -> R {
        let start = self.epoch.elapsed();
        let result = call();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            op_id,
        });
        result
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Median duration of the spans called `name`; zero if there are none.
    pub fn p50_ns(&self, name: &str) -> u64 {
        crate::stats::quantile(&mut self.durations(name), 0.5)
    }

    /// Writes one JSON object per span.
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }
}

/// Self time of a layer: its median minus the median of the layer it
/// calls, over the same ops. Never negative — a layer measured faster
/// than its callee (timer resolution, cache luck) has no self time to
/// speak of.
pub fn self_ns(layer_p50: u64, callee_p50: u64) -> u64 {
    layer_p50.saturating_sub(callee_p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_difference_of_medians_and_never_negative() {
        assert_eq!(self_ns(1500, 1100), 400);
        assert_eq!(self_ns(1100, 1100), 0);
        assert_eq!(self_ns(900, 1100), 0);
        // A chain of layers: the self times add back up to the top.
        let chain = [3000u64, 1400, 1100, 300];
        let selves: u64 = chain.windows(2).map(|w| self_ns(w[0], w[1])).sum();
        assert_eq!(selves + chain[3], chain[0]);
    }

    #[test]
    fn spans_record_nest_by_name_and_dump_as_json_lines() {
        let mut log = SpanLog::default();
        log.reserve(3);
        let v = log.record("engine.update", None, 0, || 7);
        assert_eq!(v, 7);
        log.record("tree.update", Some("engine.update"), 0, || ());
        log.record("engine.update", None, 1, || ());
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].end_ns);
        assert_eq!(log.durations("engine.update").len(), 2);
        assert_eq!(log.p50_ns("absent"), 0);

        let mut out = Vec::new();
        log.dump(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"name\":\"engine.update\",\"start_ns\":"));
        assert!(lines[0].ends_with(",\"parent\":null,\"op_id\":0}"));
        assert!(lines[1].ends_with(",\"parent\":\"engine.update\",\"op_id\":0}"));
    }
}
