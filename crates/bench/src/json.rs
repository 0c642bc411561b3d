//! Machine-readable bench reports: a minimal JSON emit/parse layer plus
//! the `BENCH_<name>.json` schema and the perf-smoke gate that compares a
//! fresh report against the committed one.
//!
//! Only what travels across machines is gated: seeded op counts match
//! exactly, and in-run ratios (ddc ÷ fenwick-nd) stay under the committed
//! value × their `tol`. Wall-clock claims belong to `benchmark/` and
//! `BENCHMARK.json`; latencies recorded here are printed, never gated.
//!
//! In-repo so the offline build stays dependency-free, and deliberately
//! only as general as the bench schema needs: objects, arrays, strings,
//! and finite numbers.

use std::fmt::Write as _;

/// Version stamped into every report; the gate refuses to compare
/// mismatched versions (schema drift must be an explicit failure, not a
/// silently ignored metric).
///
/// v3 drops the wall-clock kinds (`throughput`, `info`) and allows `tol`
/// on `ratio` metrics only, so a v2 report — whose latency rows carry
/// ceilings nothing enforces any more — is rejected, not half-read.
pub const SCHEMA_VERSION: u64 = 3;

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
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum MetricKind {
    /// Deterministic (seeded op counts): must match the committed value
    /// exactly.
    Count,
    /// Latency quantile in nanoseconds: machine-dependent, so printed
    /// and never gated.
    LatencyNs,
    /// In-run ratio of two measurements of the same run (e.g. ddc ÷
    /// fenwick-nd p50): machine speed cancels, so it travels across
    /// runners. Fails above `committed × tol`; the tolerance lives in
    /// the metric (and therefore in the committed report) so the bound
    /// is reviewable in the diff, and tightening the committed value
    /// ratchets the gate.
    Ratio {
        /// Ceiling as a multiple of the committed value (finite, ≥ 1).
        tol: f64,
    },
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Count => "count",
            MetricKind::LatencyNs => "latency_ns",
            MetricKind::Ratio { .. } => "ratio",
        }
    }

    /// `tol` is the row's `tol` field, present or not: a ratio needs
    /// one, nothing else may carry one.
    fn parse(name: &str, kind: &str, tol: Option<&Json>) -> Result<Self, String> {
        match (kind, tol) {
            ("count", None) => Ok(MetricKind::Count),
            ("latency_ns", None) => Ok(MetricKind::LatencyNs),
            ("ratio", Some(j)) => match j.as_num() {
                Some(tol) if tol.is_finite() && tol >= 1.0 => Ok(MetricKind::Ratio { tol }),
                _ => Err(format!(
                    "{name}: tol {} must be a finite number ≥ 1",
                    j.render()
                )),
            },
            ("ratio", None) => Err(format!("{name}: ratio metric missing tol")),
            ("count" | "latency_ns", Some(_)) => Err(format!(
                "{name}: tol is only valid on ratio metrics, not on kind {kind:?}"
            )),
            _ => Err(format!("{name}: unknown metric kind {kind:?}")),
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
}

/// The `BENCH_<name>.json` payload a `--json` bench run writes.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Which binary produced this (`update_cost`, `latency_core`).
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
        });
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
            if let MetricKind::Ratio { tol } = m.kind {
                fields.push(("tol".to_string(), Json::Num(tol)));
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
            let kind = row
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("metric missing kind")?;
            let kind = MetricKind::parse(&name, kind, row.get("tol"))?;
            let value = row
                .get("value")
                .and_then(Json::as_num)
                .ok_or("metric missing value")?;
            metrics.push(Metric { name, kind, value });
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

/// Compares `current` against the committed `baseline`. Every baseline
/// metric must be present in the current report and vice versa, with
/// the same kind and (for ratios) the same `tol` — anything else is
/// schema drift. `Count` metrics must match exactly, `Ratio` metrics
/// must not exceed `baseline × tol`, `LatencyNs` metrics are printed.
/// Returns the per-metric report text, or the list of violations.
pub fn gate(baseline: &BenchReport, current: &BenchReport) -> Result<String, String> {
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
                "schema drift: metric {:?} missing from baseline (re-generate the committed \
                 report)",
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
                "schema drift: {} kind {:?} vs baseline {:?} (the bench binary sets kind and \
                 tol; re-generate the committed report)",
                base.name, cur.kind, base.kind
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
            MetricKind::Ratio { tol } => {
                let ceiling = base.value * tol;
                if cur.value > ceiling {
                    failures.push(format!(
                        "ratio ceiling: {} = {:.2} > {ceiling:.2} (baseline {:.2} × {tol})",
                        base.name, cur.value, base.value
                    ));
                } else {
                    lines.push(format!(
                        "ok    {} = {:.2} (ceiling {ceiling:.2})",
                        base.name, cur.value
                    ));
                }
            }
            MetricKind::LatencyNs => {
                lines.push(format!(
                    "info  {} = {}ns (baseline {}ns)",
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

    const RATIO: MetricKind = MetricKind::Ratio { tol: 1.5 };

    fn report(pairs: &[(&str, MetricKind, f64)]) -> BenchReport {
        let mut r = BenchReport::new("t");
        for (n, k, v) in pairs {
            r.push(*n, *k, *v);
        }
        r
    }

    /// A one-row report as text, for the parse-error cases.
    fn text(version: u64, row: &str) -> String {
        format!(r#"{{"schema_version": {version}, "bench": "t", "metrics": [{row}]}}"#)
    }

    #[test]
    fn json_roundtrip() {
        let r = report(&[
            ("a.count", MetricKind::Count, 42.0),
            ("b.ratio", RATIO, 1.23456789),
            ("c.p99", MetricKind::LatencyNs, 1e9),
        ]);
        let text = r.to_json();
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back.bench, "t");
        assert_eq!(back.metrics.len(), 3);
        assert_eq!(back.metrics[0].kind, MetricKind::Count);
        assert_eq!(back.metrics[1].value, 1.23456789);
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
        assert!(BenchReport::parse(&text(99, ""))
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn gate_passes_identical_reports() {
        let r = report(&[("a", MetricKind::Count, 7.0), ("b", RATIO, 2.0)]);
        assert!(gate(&r, &r).is_ok());
    }

    #[test]
    fn latency_is_printed_never_gated() {
        let base = report(&[("p99", MetricKind::LatencyNs, 1_000.0)]);
        let slow = report(&[("p99", MetricKind::LatencyNs, 10_000.0)]);
        let printed = gate(&base, &slow).expect("ten times the committed p99 passes");
        assert!(printed.contains("info  p99 = 10000ns"), "{printed}");
    }

    #[test]
    fn tol_roundtrips_through_json() {
        let r = report(&[
            ("update.ratio", MetricKind::Ratio { tol: 1.5 }, 1.1),
            ("prefix.ratio", MetricKind::Ratio { tol: 2.0 }, 1.9),
            ("reads", MetricKind::Count, 37.0),
        ]);
        let json = r.to_json();
        assert_eq!(json.matches("\"tol\"").count(), 2, "{json}");
        let back = BenchReport::parse(&json).unwrap();
        assert_eq!(back.metrics[0].kind, MetricKind::Ratio { tol: 1.5 });
        assert_eq!(back.metrics[1].kind, MetricKind::Ratio { tol: 2.0 });
        assert_eq!(back.metrics[2].kind, MetricKind::Count);
        assert_eq!(back.metrics[0].value, 1.1);
    }

    #[test]
    fn parse_rejects_v1_reports_and_bad_tol() {
        // A report stamped with an earlier version must be an explicit
        // failure, not a half-read baseline — the row itself is fine.
        let row = r#"{"name":"a","kind":"count","value":1}"#;
        for old in [1, SCHEMA_VERSION - 1] {
            let err = BenchReport::parse(&text(old, row)).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
        // tol must be a finite number ≥ 1 (a sub-unity tolerance would
        // gate tighter than the baseline itself — always a typo), and a
        // ratio without one would never be gated.
        for tol in [r#","tol":0.5"#, r#","tol":"x""#, ""] {
            let row = format!(r#"{{"name":"a","kind":"ratio","value":10{tol}}}"#);
            let err = BenchReport::parse(&text(SCHEMA_VERSION, &row)).unwrap_err();
            assert!(err.starts_with("a: ") && err.contains("tol"), "{err}");
        }
    }

    #[test]
    fn parse_rejects_the_retired_wall_clock_fields() {
        // The previous schema carried throughput floors and latency
        // ceilings; re-stamping such a report must not smuggle them in.
        let floor = r#"{"name":"rate","kind":"throughput","value":9}"#;
        let err = BenchReport::parse(&text(SCHEMA_VERSION, floor)).unwrap_err();
        assert_eq!(err, r#"rate: unknown metric kind "throughput""#);
        let ceiling = r#"{"name":"p99","kind":"latency_ns","value":9,"tol":10}"#;
        let err = BenchReport::parse(&text(SCHEMA_VERSION, ceiling)).unwrap_err();
        assert!(err.starts_with("p99: tol is only valid on ratio"), "{err}");
    }

    #[test]
    fn ratio_is_gated_against_its_committed_value_times_tol() {
        let base = report(&[("ddc_over_fenwick", RATIO, 2.0)]);
        let ok = report(&[("ddc_over_fenwick", RATIO, 2.9)]);
        assert!(gate(&base, &ok).is_ok());
        // 3.1 > 2.0 × 1.5.
        let worse = report(&[("ddc_over_fenwick", RATIO, 3.1)]);
        let err = gate(&base, &worse).unwrap_err();
        assert!(err.contains("ratio ceiling"), "{err}");
    }

    #[test]
    fn tol_drift_is_schema_drift() {
        let base = report(&[("r", MetricKind::Ratio { tol: 1.5 }, 2.0)]);
        let cur = report(&[("r", MetricKind::Ratio { tol: 3.0 }, 2.0)]);
        let err = gate(&base, &cur).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
    }

    #[test]
    fn gate_fails_on_count_drift_and_schema_drift() {
        let base = report(&[("a", MetricKind::Count, 7.0)]);
        let drifted = report(&[("a", MetricKind::Count, 8.0)]);
        assert!(gate(&base, &drifted).unwrap_err().contains("count drift"));
        let renamed = report(&[("z", MetricKind::Count, 7.0)]);
        let err = gate(&base, &renamed).unwrap_err();
        assert!(err.contains("missing from baseline"));
        assert!(err.contains("missing from current"));
    }
}
