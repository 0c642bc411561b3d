//! Machine-readable bench reports: a minimal JSON emit/parse layer plus
//! the `BENCH_<name>.json` schema and the perf-smoke gate that compares a
//! fresh report against a committed baseline.
//!
//! In-repo so the offline build stays dependency-free, and deliberately
//! only as general as the bench schema needs: objects, arrays, strings,
//! and finite numbers.

use std::fmt::Write as _;

/// Version stamped into every report; the gate refuses to compare
/// mismatched versions (schema drift must be an explicit failure, not a
/// silently ignored metric).
///
/// v2 adds the optional per-metric `tol` field: a tolerance carried by
/// the metric itself, so latency ceilings and throughput floors can be
/// tuned per quantile instead of one loose flag for the whole report.
pub const SCHEMA_VERSION: u64 = 2;

// ---------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------

/// A JSON value (the subset the bench reports use).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text (objects, arrays, strings, numbers).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (bytes are valid UTF-8:
                        // the input came from &str).
                        let rest =
                            std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                        let c = rest.chars().next().ok_or("unterminated string")?;
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

// ---------------------------------------------------------------------
// Bench report schema
// ---------------------------------------------------------------------

/// How the perf-smoke gate treats a metric.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Deterministic (seeded op counts): must match the baseline exactly.
    Count,
    /// Machine-dependent rate: must stay above `baseline / tolerance`.
    Throughput,
    /// Latency quantile in nanoseconds: gated against `baseline × tol`
    /// when the metric carries a `tol` (or the gate is given a global
    /// `--latency-tolerance`); informational otherwise.
    LatencyNs,
    /// In-run ratio of two measurements of the same run (e.g. ddc ÷
    /// fenwick-nd p50): machine speed cancels, so it travels across
    /// runners. Gated against `baseline × tol` when it carries a `tol`;
    /// informational otherwise.
    Ratio,
    /// Anything else worth recording: informational, never gated.
    Info,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Count => "count",
            MetricKind::Throughput => "throughput",
            MetricKind::LatencyNs => "latency_ns",
            MetricKind::Ratio => "ratio",
            MetricKind::Info => "info",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "count" => Ok(MetricKind::Count),
            "throughput" => Ok(MetricKind::Throughput),
            "latency_ns" => Ok(MetricKind::LatencyNs),
            "ratio" => Ok(MetricKind::Ratio),
            "info" => Ok(MetricKind::Info),
            other => Err(format!("unknown metric kind {other:?}")),
        }
    }
}

/// One named measurement in a [`BenchReport`].
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted metric name, e.g. `worst_case_update.d2.n64.dyn-ddc`.
    pub name: String,
    /// Gate treatment.
    pub kind: MetricKind,
    /// The measured value.
    pub value: f64,
    /// Per-metric gate tolerance (schema v2). For `LatencyNs` and
    /// `Ratio` the gate enforces `current ≤ baseline × tol` (latencies
    /// even without a global latency tolerance); for `Throughput` it
    /// overrides the global floor divisor. `Count` and `Info` metrics
    /// ignore it. The tolerance lives in the metric (and therefore in
    /// the committed baseline) so every gated bound is reviewable in
    /// the diff.
    pub tol: Option<f64>,
}

/// The `BENCH_<name>.json` payload a `--json` bench run writes.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Which binary produced this (`shard_scaling`, `update_cost`, …).
    pub bench: String,
    /// All measurements, in emission order.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// An empty report for bench `name`.
    pub fn new(name: &str) -> Self {
        Self {
            bench: name.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Appends one measurement.
    pub fn push(&mut self, name: impl Into<String>, kind: MetricKind, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            kind,
            value,
            tol: None,
        });
    }

    /// Appends one measurement carrying its own gate tolerance
    /// (schema v2; see [`Metric::tol`]).
    pub fn push_gated(&mut self, name: impl Into<String>, kind: MetricKind, value: f64, tol: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            kind,
            value,
            tol: Some(tol),
        });
    }

    /// Appends the named observability histograms as count/p50/p99/max
    /// metrics, so bench JSON carries the quantiles `ddc stats` would
    /// show for the same run. The caller passes an explicit name list
    /// (not "whatever is registered") so the metric set — which the gate
    /// checks for schema drift — is deterministic. Latencies are
    /// informational; the sample counts ride along as `Info` too because
    /// they depend on wall-clock-paced loops on most benches.
    pub fn push_obs_latencies(&mut self, names: &[&'static str]) {
        for name in names {
            let snap = ddc_core::obs::histogram(name).snapshot();
            self.push(
                format!("obs.{name}.count"),
                MetricKind::Info,
                snap.count as f64,
            );
            for (suffix, v) in [
                ("p50_ns", snap.quantile(0.5)),
                ("p99_ns", snap.quantile(0.99)),
                ("max_ns", snap.max),
            ] {
                self.push(
                    format!("obs.{name}.{suffix}"),
                    MetricKind::LatencyNs,
                    v as f64,
                );
            }
        }
    }

    /// Serializes to pretty-enough JSON text (one metric per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(
            out,
            "  \"bench\": {},",
            Json::Str(self.bench.clone()).render()
        );
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let mut fields = vec![
                ("name".to_string(), Json::Str(m.name.clone())),
                ("kind".to_string(), Json::Str(m.kind.as_str().to_string())),
                ("value".to_string(), Json::Num(m.value)),
            ];
            if let Some(t) = m.tol {
                fields.push(("tol".to_string(), Json::Num(t)));
            }
            let row = Json::Obj(fields);
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            let _ = writeln!(out, "    {}{sep}", row.render());
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses and validates a report, rejecting schema-version drift.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION as f64 {
            return Err(format!(
                "schema_version {version} != supported {SCHEMA_VERSION}"
            ));
        }
        let bench = root
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("missing bench name")?
            .to_string();
        let rows = match root.get("metrics") {
            Some(Json::Arr(rows)) => rows,
            _ => return Err("missing metrics array".to_string()),
        };
        let mut metrics = Vec::with_capacity(rows.len());
        for row in rows {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing name")?
                .to_string();
            let kind = MetricKind::parse(
                row.get("kind")
                    .and_then(Json::as_str)
                    .ok_or("metric missing kind")?,
            )?;
            let value = row
                .get("value")
                .and_then(Json::as_num)
                .ok_or("metric missing value")?;
            let tol = match row.get("tol") {
                None => None,
                Some(j) => {
                    let t = j.as_num().ok_or(format!("{name}: tol must be a number"))?;
                    if !t.is_finite() || t < 1.0 {
                        return Err(format!("{name}: tol {t} must be finite and ≥ 1"));
                    }
                    Some(t)
                }
            };
            metrics.push(Metric {
                name,
                kind,
                value,
                tol,
            });
        }
        Ok(Self { bench, metrics })
    }

    /// Writes `BENCH_<bench>.json` into `dir`, returning the path.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------
// Perf-smoke gate
// ---------------------------------------------------------------------

/// Compares `current` against `baseline`. Every baseline metric must be
/// present in the current report and vice versa (anything else is schema
/// drift); `Count` metrics must match exactly, `Throughput` metrics must
/// not fall below `baseline / tolerance`. Returns the per-metric report
/// text, or the list of violations.
pub fn gate(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Result<String, String> {
    gate_with_latency(baseline, current, tolerance, None)
}

/// [`gate`] with an optional latency ceiling: a `LatencyNs` metric
/// whose baseline carries a per-metric `tol` fails if it exceeds
/// `baseline × tol`; otherwise, when `latency_tolerance` is `Some(t)`,
/// it fails above `baseline × t` (latencies stay informational when
/// neither is present, and a zero baseline — an unexercised histogram —
/// is never gated). A `Throughput` baseline with a `tol` uses it in
/// place of the global `tolerance` divisor. This is how latency-quantile
/// regressions fail perf-smoke without making noisy tails an
/// exact-match liability, and how each bound stays reviewable in the
/// committed baseline.
pub fn gate_with_latency(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
    latency_tolerance: Option<f64>,
) -> Result<String, String> {
    let mut failures = Vec::new();
    let mut lines = Vec::new();
    if baseline.bench != current.bench {
        failures.push(format!(
            "bench name drift: baseline {:?} vs current {:?}",
            baseline.bench, current.bench
        ));
    }
    for m in &current.metrics {
        if !baseline.metrics.iter().any(|b| b.name == m.name) {
            failures.push(format!(
                "schema drift: metric {:?} missing from baseline (re-generate bench/baselines)",
                m.name
            ));
        }
    }
    for base in &baseline.metrics {
        let Some(cur) = current.metrics.iter().find(|m| m.name == base.name) else {
            failures.push(format!(
                "schema drift: metric {:?} missing from current run",
                base.name
            ));
            continue;
        };
        if cur.kind != base.kind {
            failures.push(format!(
                "schema drift: {} kind {:?} vs baseline {:?}",
                base.name, cur.kind, base.kind
            ));
            continue;
        }
        if cur.tol != base.tol {
            failures.push(format!(
                "schema drift: {} tol {:?} vs baseline {:?} (the bench binary sets tol; \
                 re-generate bench/baselines)",
                base.name, cur.tol, base.tol
            ));
            continue;
        }
        match base.kind {
            MetricKind::Count => {
                let eps = 1e-6 * base.value.abs().max(1.0);
                if (cur.value - base.value).abs() > eps {
                    failures.push(format!(
                        "count drift: {} = {} (baseline {})",
                        base.name, cur.value, base.value
                    ));
                } else {
                    lines.push(format!("ok    {} = {}", base.name, cur.value));
                }
            }
            MetricKind::Throughput => {
                let floor = base.value / base.tol.unwrap_or(tolerance);
                if cur.value < floor {
                    failures.push(format!(
                        "throughput floor: {} = {:.0} < {:.0} (baseline {:.0} / {tolerance}x)",
                        base.name, cur.value, floor, base.value
                    ));
                } else {
                    lines.push(format!(
                        "ok    {} = {:.0} (floor {:.0})",
                        base.name, cur.value, floor
                    ));
                }
            }
            MetricKind::LatencyNs | MetricKind::Ratio => {
                // Only latencies take the global flag; a ratio is gated
                // by its own committed tolerance or not at all.
                let (what, tol, digits, unit) = match base.kind {
                    MetricKind::Ratio => ("ratio", base.tol, 2, ""),
                    _ => ("latency", base.tol.or(latency_tolerance), 0, "ns"),
                };
                match tol {
                    Some(t) if base.value > 0.0 => {
                        let ceiling = base.value * t;
                        if cur.value > ceiling {
                            failures.push(format!(
                                "{what} ceiling: {} = {:.digits$}{unit} > {:.digits$}{unit} \
                                 (baseline {:.digits$}{unit} × {t})",
                                base.name, cur.value, ceiling, base.value
                            ));
                        } else {
                            lines.push(format!(
                                "ok    {} = {:.digits$}{unit} (ceiling {:.digits$}{unit})",
                                base.name, cur.value, ceiling
                            ));
                        }
                    }
                    _ => {
                        lines.push(format!(
                            "info  {} = {} (baseline {})",
                            base.name, cur.value, base.value
                        ));
                    }
                }
            }
            MetricKind::Info => {
                lines.push(format!(
                    "info  {} = {} (baseline {})",
                    base.name, cur.value, base.value
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(lines.join("\n"))
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, MetricKind, f64)]) -> BenchReport {
        let mut r = BenchReport::new("t");
        for (n, k, v) in pairs {
            r.push(*n, *k, *v);
        }
        r
    }

    #[test]
    fn json_roundtrip() {
        let r = report(&[
            ("a.count", MetricKind::Count, 42.0),
            ("b.rate", MetricKind::Throughput, 123456.789),
            ("c.p99", MetricKind::LatencyNs, 1e9),
        ]);
        let text = r.to_json();
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back.bench, "t");
        assert_eq!(back.metrics.len(), 3);
        assert_eq!(back.metrics[0].kind, MetricKind::Count);
        assert_eq!(back.metrics[1].value, 123456.789);
    }

    #[test]
    fn json_escaping_and_nesting() {
        let v = Json::Obj(vec![(
            "k\"ey\n".to_string(),
            Json::Arr(vec![Json::Num(-1.5), Json::Str("v".to_string())]),
        )]);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_rejects_version_drift() {
        let text = "{\"schema_version\": 99, \"bench\": \"t\", \"metrics\": []}";
        assert!(BenchReport::parse(text)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn gate_passes_identical_reports() {
        let r = report(&[
            ("a", MetricKind::Count, 7.0),
            ("b", MetricKind::Throughput, 100.0),
        ]);
        assert!(gate(&r, &r, 3.0).is_ok());
    }

    #[test]
    fn gate_allows_throughput_within_tolerance() {
        let base = report(&[("q", MetricKind::Throughput, 300_000.0)]);
        let cur = report(&[("q", MetricKind::Throughput, 110_000.0)]);
        assert!(gate(&base, &cur, 3.0).is_ok());
        let slow = report(&[("q", MetricKind::Throughput, 90_000.0)]);
        assert!(gate(&base, &slow, 3.0).unwrap_err().contains("floor"));
    }

    #[test]
    fn latency_ceiling_gates_only_when_enabled() {
        let base = report(&[("p99", MetricKind::LatencyNs, 1_000.0)]);
        let slow = report(&[("p99", MetricKind::LatencyNs, 50_000.0)]);
        // Informational by default.
        assert!(gate(&base, &slow, 3.0).is_ok());
        // Gated with an explicit ceiling.
        let err = gate_with_latency(&base, &slow, 3.0, Some(10.0)).unwrap_err();
        assert!(err.contains("latency ceiling"), "{err}");
        let ok = report(&[("p99", MetricKind::LatencyNs, 9_000.0)]);
        assert!(gate_with_latency(&base, &ok, 3.0, Some(10.0)).is_ok());
        // A zero baseline (unexercised histogram) is never gated.
        let zero = report(&[("p99", MetricKind::LatencyNs, 0.0)]);
        assert!(gate_with_latency(&zero, &slow, 3.0, Some(10.0)).is_ok());
    }

    #[test]
    fn tol_roundtrips_through_json() {
        let mut r = BenchReport::new("lat");
        r.push_gated("prefix.d2.p50_ns", MetricKind::LatencyNs, 180.0, 5.0);
        r.push_gated("prefix.d2.p99_ns", MetricKind::LatencyNs, 420.0, 8.0);
        r.push("reads", MetricKind::Count, 37.0);
        let back = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(back.metrics[0].tol, Some(5.0));
        assert_eq!(back.metrics[1].tol, Some(8.0));
        assert_eq!(back.metrics[2].tol, None);
        assert_eq!(back.metrics[0].kind, MetricKind::LatencyNs);
        assert_eq!(back.metrics[0].value, 180.0);
    }

    #[test]
    fn parse_rejects_v1_reports_and_bad_tol() {
        // A v1 report (no tol fields, old version stamp) must be an
        // explicit failure, not a silently tolerated baseline.
        let v1 = "{\"schema_version\": 1, \"bench\": \"t\", \"metrics\": [\
                  {\"name\":\"a\",\"kind\":\"count\",\"value\":1}]}";
        assert!(BenchReport::parse(v1)
            .unwrap_err()
            .contains("schema_version"));
        // tol must be a finite number ≥ 1 (a sub-unity tolerance would
        // gate tighter than the baseline itself — always a typo).
        let bad = "{\"schema_version\": 2, \"bench\": \"t\", \"metrics\": [\
                   {\"name\":\"a\",\"kind\":\"latency_ns\",\"value\":10,\"tol\":0.5}]}";
        assert!(BenchReport::parse(bad).unwrap_err().contains("tol"));
        let nan = "{\"schema_version\": 2, \"bench\": \"t\", \"metrics\": [\
                   {\"name\":\"a\",\"kind\":\"latency_ns\",\"value\":10,\"tol\":\"x\"}]}";
        assert!(BenchReport::parse(nan).unwrap_err().contains("tol"));
    }

    #[test]
    fn per_metric_tol_gates_latency_without_global_flag() {
        let mut base = BenchReport::new("t");
        base.push_gated("p99", MetricKind::LatencyNs, 1_000.0, 5.0);
        let mut ok = BenchReport::new("t");
        ok.push_gated("p99", MetricKind::LatencyNs, 4_900.0, 5.0);
        assert!(gate(&base, &ok, 3.0).is_ok());
        // 6µs > 1µs × 5: out-of-tolerance p99 regression fails even
        // though no --latency-tolerance was passed.
        let mut slow = BenchReport::new("t");
        slow.push_gated("p99", MetricKind::LatencyNs, 6_000.0, 5.0);
        let err = gate(&base, &slow, 3.0).unwrap_err();
        assert!(err.contains("latency ceiling"), "{err}");
    }

    #[test]
    fn ratio_is_gated_against_its_committed_value_times_tol() {
        let mut base = BenchReport::new("t");
        base.push_gated("ddc_over_fenwick", MetricKind::Ratio, 2.0, 1.5);
        let mut ok = BenchReport::new("t");
        ok.push_gated("ddc_over_fenwick", MetricKind::Ratio, 2.9, 1.5);
        assert!(gate(&base, &ok, 3.0).is_ok());
        // 3.1 > 2.0 × 1.5, and no global flag loosens a ratio.
        let mut worse = BenchReport::new("t");
        worse.push_gated("ddc_over_fenwick", MetricKind::Ratio, 3.1, 1.5);
        let err = gate_with_latency(&base, &worse, 3.0, Some(50.0)).unwrap_err();
        assert!(err.contains("ratio ceiling"), "{err}");
        let back = BenchReport::parse(&base.to_json()).unwrap();
        assert_eq!(back.metrics[0].kind, MetricKind::Ratio);
    }

    #[test]
    fn per_metric_tol_overrides_global_throughput_divisor() {
        let mut base = BenchReport::new("t");
        base.push_gated("rate", MetricKind::Throughput, 100.0, 1.5);
        let mut cur = BenchReport::new("t");
        // Within the loose global 3x but below the metric's own 1.5x
        // floor: must fail.
        cur.push_gated("rate", MetricKind::Throughput, 50.0, 1.5);
        assert!(gate(&base, &cur, 3.0).unwrap_err().contains("floor"));
        let mut fine = BenchReport::new("t");
        fine.push_gated("rate", MetricKind::Throughput, 70.0, 1.5);
        assert!(gate(&base, &fine, 3.0).is_ok());
    }

    #[test]
    fn tol_drift_is_schema_drift() {
        let mut base = BenchReport::new("t");
        base.push_gated("p99", MetricKind::LatencyNs, 1_000.0, 5.0);
        let mut cur = BenchReport::new("t");
        cur.push("p99", MetricKind::LatencyNs, 1_000.0);
        let err = gate(&base, &cur, 3.0).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
    }

    #[test]
    fn gate_fails_on_count_drift_and_schema_drift() {
        let base = report(&[("a", MetricKind::Count, 7.0)]);
        let drifted = report(&[("a", MetricKind::Count, 8.0)]);
        assert!(gate(&base, &drifted, 3.0)
            .unwrap_err()
            .contains("count drift"));
        let renamed = report(&[("z", MetricKind::Count, 7.0)]);
        let err = gate(&base, &renamed, 3.0).unwrap_err();
        assert!(err.contains("missing from baseline"));
        assert!(err.contains("missing from current"));
    }
}
