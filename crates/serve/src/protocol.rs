//! The typed request language served over both wire syntaxes.
//!
//! ## Line protocol (newline-delimited, lowercase commands)
//!
//! ```text
//! request   = command LF | command CRLF
//! command   = "u " point " " int          ; point update (delta)
//!           | "q " point " " point        ; range sum over [lo, hi]
//!           | "p " point                  ; prefix sum at point
//!           | "t " tenant                 ; bind this connection to a tenant
//!           | "ping"                      ; liveness probe
//! point     = int *("," int)              ; one coordinate per dimension,
//!                                         ; at most MAX_RANK of them
//! int       = ["-"] 1*DIGIT               ; fits an i64
//! tenant    = 1*32(ALPHA / DIGIT / "-" / "_")
//! ```
//!
//! Spaces and tabs may pad a line, a point, a corner or a token (a space
//! after a comma included); a space after `q` ends the low corner, so
//! `q` takes exactly one before it.
//!
//! [`decode_line`] is the one line decoder, and it allocates nothing
//! for a well-formed request: it reads each token in one pass over its
//! bytes, straight into a fixed-width [`Point`] on the stack, and a
//! point of more than [`MAX_RANK`] coordinates is refused here, with a
//! 400, before it reaches a backend.
//!
//! Responses are one line each, in request order: `ok` (update), the
//! decimal sum (query/prefix), `pong`, `busy <detail>` (the tenant is
//! over its admission rate: the line-protocol spelling of HTTP 429), or
//! `err <detail>`.
//!
//! ## HTTP endpoints
//!
//! ```text
//! POST /ingest             body: one "point SP delta" line per update
//! GET  /query?lo=P&hi=P    range sum (P = comma-separated ints)
//! GET  /prefix?at=P        prefix sum
//! GET  /metrics            Prometheus text (core::obs::prometheus_text)
//! GET  /healthz            liveness probe
//! ```
//!
//! The tenant is bound per request with an `X-Ddc-Tenant` header (or
//! per connection with the `t` command; header wins for HTTP).

use ddc_array::{Point, MAX_RANK};

use crate::http::{Frame, HttpRequest};

/// A typed request decoded from a [`Frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeRequest {
    /// Point update `point += delta`.
    Update {
        /// Cube coordinates.
        point: Point,
        /// Signed delta.
        delta: i64,
    },
    /// Batched updates (the HTTP ingest body).
    Ingest(Vec<(Point, i64)>),
    /// Range sum over the box `[lo, hi]` (inclusive corners).
    Query {
        /// Low corner.
        lo: Point,
        /// High corner.
        hi: Point,
    },
    /// Prefix sum at `point`.
    Prefix(Point),
    /// Bind the connection to a tenant (line protocol only).
    Tenant(String),
    /// Liveness probe.
    Ping,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Health,
}

/// Why a frame failed to decode into a [`ServeRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Unknown line command or HTTP route. `.0` is the offending token.
    Unknown(String),
    /// A coordinate/delta token failed to parse as a decimal integer.
    BadNumber(String),
    /// Wrong number of arguments / query parameters.
    BadShape(String),
    /// Tenant names are 1–32 chars of `[A-Za-z0-9_-]`.
    BadTenant(String),
    /// HTTP method not allowed on this route.
    MethodNotAllowed(String),
}

impl RequestError {
    /// HTTP status for the error response.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Unknown(_) => 404,
            RequestError::MethodNotAllowed(_) => 405,
            _ => 400,
        }
    }

    /// One-line detail used in both response syntaxes.
    pub fn detail(&self) -> String {
        match self {
            RequestError::Unknown(what) => format!("unknown request {what:?}"),
            RequestError::BadNumber(tok) => format!("bad integer {tok:?}"),
            RequestError::BadShape(msg) => msg.clone(),
            RequestError::BadTenant(t) => format!("bad tenant name {t:?}"),
            RequestError::MethodNotAllowed(m) => format!("method {m} not allowed"),
        }
    }
}

/// Reads `["-"] 1*DIGIT` from the front of `bytes` in one pass, with
/// overflow checked as it goes (a negative value accumulates downward,
/// so `i64::MIN` reads): the value and how many bytes it took, or `None`
/// when there is no digit or the value is past `i64`.
fn scan_int(bytes: &[u8]) -> Option<(i64, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let mut at = usize::from(negative);
    let mut value = 0i64;
    while let Some(digit) = bytes.get(at).map(|b| b.wrapping_sub(b'0')) {
        if digit > 9 {
            break;
        }
        let digit = i64::from(digit);
        value = match negative {
            true => value.checked_mul(10)?.checked_sub(digit)?,
            false => value.checked_mul(10)?.checked_add(digit)?,
        };
        at += 1;
    }
    (at > usize::from(negative)).then_some((value, at))
}

/// A whole token as an integer: anything but `["-"] 1*DIGIT` within
/// `i64` — an empty token, `+`, a stray byte, an overflow — is
/// `BadNumber`.
fn parse_int(tok: &str) -> Result<i64, RequestError> {
    match scan_int(tok.as_bytes()) {
        Some((value, read)) if read == tok.len() => Ok(value),
        _ => Err(RequestError::BadNumber(tok.to_string())),
    }
}

/// Reads a comma-separated point, each token trimmed, into a
/// fixed-width [`Point`]; a point of more than [`MAX_RANK`] coordinates
/// is `BadShape`. A token spelt as digits right up to its comma — the
/// common case — is read in the same pass that finds the comma; any
/// other is trimmed and read whole, or refused.
fn parse_point(text: &str) -> Result<Point, RequestError> {
    if text.is_empty() {
        return Err(RequestError::BadShape("empty point".to_string()));
    }
    let mut point = Point::new();
    let mut rest = text;
    loop {
        let bytes = rest.as_bytes();
        let (value, end) = match scan_int(bytes) {
            Some((value, read)) if matches!(bytes.get(read), None | Some(b',')) => (value, read),
            _ => {
                let end = bytes.iter().position(|&b| b == b',');
                let end = end.unwrap_or(bytes.len());
                (parse_int(rest[..end].trim())?, end)
            }
        };
        if !point.push(value) {
            return Err(RequestError::BadShape(format!(
                "a point has at most MAX_RANK = {MAX_RANK} coordinates"
            )));
        }
        match rest.get(end + 1..) {
            Some(after_comma) => rest = after_comma,
            None => return Ok(point),
        }
    }
}

/// `true` for a well-formed tenant name.
pub fn valid_tenant(name: &str) -> bool {
    (1..=32).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Decodes one line-protocol command (the grammar in the module docs).
/// A well-formed update, query, prefix or ping allocates nothing.
pub fn decode_line(line: &str) -> Result<ServeRequest, RequestError> {
    let line = line.trim_matches([' ', '\t']);
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    match cmd {
        "ping" if rest.is_empty() => Ok(ServeRequest::Ping),
        "u" => {
            let (point, delta) = rest
                .rsplit_once(' ')
                .ok_or_else(|| RequestError::BadShape("usage: u POINT DELTA".to_string()))?;
            Ok(ServeRequest::Update {
                point: parse_point(point.trim())?,
                delta: parse_int(delta.trim())?,
            })
        }
        "q" => {
            let (lo, hi) = rest
                .split_once(' ')
                .ok_or_else(|| RequestError::BadShape("usage: q LO HI".to_string()))?;
            let (lo, hi) = (parse_point(lo.trim())?, parse_point(hi.trim())?);
            if lo.len() != hi.len() {
                return Err(RequestError::BadShape(format!(
                    "corner ranks differ: {} vs {}",
                    lo.len(),
                    hi.len()
                )));
            }
            Ok(ServeRequest::Query { lo, hi })
        }
        "p" => Ok(ServeRequest::Prefix(parse_point(rest.trim())?)),
        "t" => {
            let name = rest.trim();
            if !valid_tenant(name) {
                return Err(RequestError::BadTenant(name.to_string()));
            }
            Ok(ServeRequest::Tenant(name.to_string()))
        }
        other => Err(RequestError::Unknown(other.to_string())),
    }
}

/// Parses an ingest body: one `point SP delta` line per update, blank
/// lines skipped. The whole body must parse for any of it to apply.
pub fn decode_ingest(body: &[u8]) -> Result<Vec<(Point, i64)>, RequestError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| RequestError::BadShape("ingest body is not UTF-8".to_string()))?;
    let mut updates = Vec::new();
    for raw in text.lines() {
        let line = raw.trim_matches([' ', '\t', '\r']);
        if line.is_empty() {
            continue;
        }
        let (point, delta) = line.rsplit_once(' ').ok_or_else(|| {
            RequestError::BadShape(format!("ingest line {line:?}: expected POINT DELTA"))
        })?;
        updates.push((parse_point(point.trim())?, parse_int(delta.trim())?));
    }
    Ok(updates)
}

/// Finds `key=value` in a query string (first match).
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Decodes one HTTP request into a typed request.
pub fn decode_http(req: &HttpRequest) -> Result<ServeRequest, RequestError> {
    let (path, query) = req.path_query();
    match (req.method.as_str(), path) {
        ("POST", "/ingest") => Ok(ServeRequest::Ingest(decode_ingest(&req.body)?)),
        ("GET", "/query") => {
            let lo = parse_point(
                query_param(query, "lo")
                    .ok_or_else(|| RequestError::BadShape("missing lo=".to_string()))?,
            )?;
            let hi = parse_point(
                query_param(query, "hi")
                    .ok_or_else(|| RequestError::BadShape("missing hi=".to_string()))?,
            )?;
            if lo.len() != hi.len() {
                return Err(RequestError::BadShape(format!(
                    "corner ranks differ: {} vs {}",
                    lo.len(),
                    hi.len()
                )));
            }
            Ok(ServeRequest::Query { lo, hi })
        }
        ("GET", "/prefix") => Ok(ServeRequest::Prefix(parse_point(
            query_param(query, "at")
                .ok_or_else(|| RequestError::BadShape("missing at=".to_string()))?,
        )?)),
        ("GET", "/metrics") => Ok(ServeRequest::Metrics),
        ("GET", "/healthz") => Ok(ServeRequest::Health),
        ("GET", "/ingest")
        | ("POST", "/query")
        | ("POST", "/prefix")
        | ("POST", "/metrics")
        | ("POST", "/healthz") => Err(RequestError::MethodNotAllowed(req.method.clone())),
        _ => Err(RequestError::Unknown(format!("{} {}", req.method, path))),
    }
}

/// Decodes any frame.
pub fn decode(frame: &Frame<'_>) -> Result<ServeRequest, RequestError> {
    match frame {
        Frame::Line(line) => decode_line(line),
        Frame::Http(req) => decode_http(req),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_tests::{for_cases, DdcRng};

    fn pt(coords: &[i64]) -> Point {
        Point::from_slice(coords).unwrap_or_else(|| panic!("{coords:?} is past MAX_RANK"))
    }

    /// The line decoder as it was before points went fixed-width: split,
    /// trim, check, parse and collect into `Vec`s. It is the oracle of
    /// [`the_decoder_answers_as_the_vec_decoder_did`].
    mod oracle {
        use super::super::{valid_tenant, RequestError};

        #[derive(Debug, PartialEq, Eq)]
        pub enum Request {
            Update { point: Vec<i64>, delta: i64 },
            Query { lo: Vec<i64>, hi: Vec<i64> },
            Prefix(Vec<i64>),
            Tenant(String),
            Ping,
        }

        fn parse_point(text: &str) -> Result<Vec<i64>, RequestError> {
            if text.is_empty() {
                return Err(RequestError::BadShape("empty point".to_string()));
            }
            text.split(',')
                .map(|tok| {
                    let tok = tok.trim();
                    if tok.is_empty() || tok.bytes().any(|b| !b.is_ascii_digit() && b != b'-') {
                        return Err(RequestError::BadNumber(tok.to_string()));
                    }
                    tok.parse::<i64>()
                        .map_err(|_| RequestError::BadNumber(tok.to_string()))
                })
                .collect()
        }

        fn parse_int(tok: &str) -> Result<i64, RequestError> {
            if tok.is_empty() || tok.bytes().any(|b| !b.is_ascii_digit() && b != b'-') {
                return Err(RequestError::BadNumber(tok.to_string()));
            }
            tok.parse::<i64>()
                .map_err(|_| RequestError::BadNumber(tok.to_string()))
        }

        pub fn decode_line(line: &str) -> Result<Request, RequestError> {
            let line = line.trim_matches([' ', '\t']);
            let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
            match cmd {
                "ping" if rest.is_empty() => Ok(Request::Ping),
                "u" => {
                    let (point, delta) = rest.rsplit_once(' ').ok_or_else(|| {
                        RequestError::BadShape("usage: u POINT DELTA".to_string())
                    })?;
                    Ok(Request::Update {
                        point: parse_point(point.trim())?,
                        delta: parse_int(delta.trim())?,
                    })
                }
                "q" => {
                    let (lo, hi) = rest
                        .split_once(' ')
                        .ok_or_else(|| RequestError::BadShape("usage: q LO HI".to_string()))?;
                    let (lo, hi) = (parse_point(lo.trim())?, parse_point(hi.trim())?);
                    if lo.len() != hi.len() {
                        return Err(RequestError::BadShape(format!(
                            "corner ranks differ: {} vs {}",
                            lo.len(),
                            hi.len()
                        )));
                    }
                    Ok(Request::Query { lo, hi })
                }
                "p" => Ok(Request::Prefix(parse_point(rest.trim())?)),
                "t" => {
                    let name = rest.trim();
                    if !valid_tenant(name) {
                        return Err(RequestError::BadTenant(name.to_string()));
                    }
                    Ok(Request::Tenant(name.to_string()))
                }
                other => Err(RequestError::Unknown(other.to_string())),
            }
        }
    }

    /// The oracle's request in fixed-width points; `None` when one of
    /// its points has more than `MAX_RANK` coordinates.
    fn fixed_width(old: oracle::Request) -> Option<ServeRequest> {
        let p = |c: Vec<i64>| Point::from_slice(&c);
        Some(match old {
            oracle::Request::Update { point, delta } => ServeRequest::Update {
                point: p(point)?,
                delta,
            },
            oracle::Request::Query { lo, hi } => ServeRequest::Query {
                lo: p(lo)?,
                hi: p(hi)?,
            },
            oracle::Request::Prefix(point) => ServeRequest::Prefix(p(point)?),
            oracle::Request::Tenant(name) => ServeRequest::Tenant(name),
            oracle::Request::Ping => ServeRequest::Ping,
        })
    }

    /// Tokens that sit near the grammar's edges.
    const NUMBERS: &[&str] = &[
        "0",
        "7",
        "-3",
        "-0",
        "007",
        "+5",
        "-",
        "--1",
        "1-2",
        "",
        "x",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "\u{a0}4",
        "5\u{3000}",
    ];
    const GAPS: &[&str] = &[" ", " ", " ", "  ", "\t", " \t", "\r", "\u{a0}"];
    const COMMANDS: &[&str] = &["u", "u", "q", "q", "p", "p", "t", "ping", "zap", "U"];

    fn pick<'a>(rng: &mut DdcRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    fn random_point(rng: &mut DdcRng, out: &mut String) {
        let rank = rng.gen_range(1..=MAX_RANK + 2);
        for i in 0..rank {
            if i > 0 {
                out.push_str([",", ",", ", ", " ,", ",\t"][rng.gen_range(0..5usize)]);
            }
            match rng.gen_bool(0.7) {
                true => out.push_str(&rng.gen_range(-40i64..40).to_string()),
                false => out.push_str(pick(rng, NUMBERS)),
            }
        }
    }

    /// A line the grammar may or may not accept: a command, then a few
    /// points and numbers with random gaps.
    fn random_line(rng: &mut DdcRng) -> String {
        let mut line = String::new();
        if rng.gen_bool(0.2) {
            line.push_str(pick(rng, GAPS));
        }
        line.push_str(pick(rng, COMMANDS));
        for _ in 0..rng.gen_range(0..4usize) {
            line.push_str(pick(rng, GAPS));
            match rng.gen_range(0..3usize) {
                0 => line.push_str(pick(rng, NUMBERS)),
                1 => line.push_str(&format!("tenant-{}", rng.gen_range(0..9usize))),
                _ => random_point(rng, &mut line),
            }
        }
        if rng.gen_bool(0.2) {
            line.push_str(pick(rng, GAPS));
        }
        line
    }

    /// A well-formed update, query or prefix with one to three
    /// characters inserted, deleted or replaced.
    fn mutated_line(rng: &mut DdcRng) -> String {
        let rank = rng.gen_range(1..=MAX_RANK);
        let point = |rng: &mut DdcRng| {
            let coords: Vec<String> = (0..rank)
                .map(|_| rng.gen_range(-100i64..100).to_string())
                .collect();
            coords.join(",")
        };
        let line = match rng.gen_range(0..3usize) {
            0 => format!("u {} {}", point(rng), rng.gen_range(-9i64..9)),
            1 => format!("q {} {}", point(rng), point(rng)),
            _ => format!("p {}", point(rng)),
        };
        let mut chars: Vec<char> = line.chars().collect();
        const NOISE: &[char] = &[' ', '\t', ',', '-', '+', '0', '9', 'x', '\r', '\u{a0}'];
        for _ in 0..rng.gen_range(1..=3usize) {
            let at = rng.gen_range(0..chars.len());
            let noise = NOISE[rng.gen_range(0..NOISE.len())];
            match rng.gen_range(0..3usize) {
                0 => chars.insert(at, noise),
                1 if chars.len() > 1 => _ = chars.remove(at),
                _ => chars[at] = noise,
            }
        }
        chars.into_iter().collect()
    }

    /// The decoder answers every line as the `Vec` decoder did — the same
    /// request, or an error with the same status and detail — except a
    /// point of more than `MAX_RANK` coordinates, which it refuses (400)
    /// where the `Vec` decoder passed it on or read further.
    fn assert_parity(line: &str) {
        let (new, old) = (decode_line(line), oracle::decode_line(line));
        let past_max_rank = |e: &RequestError| {
            *e == RequestError::BadShape("a point has at most MAX_RANK = 8 coordinates".into())
        };
        match (new, old) {
            (Ok(new), Ok(old)) => assert_eq!(Some(new), fixed_width(old), "{line:?}"),
            (Err(new), Ok(old)) if past_max_rank(&new) => {
                assert_eq!(fixed_width(old), None, "{line:?}");
            }
            (Err(new), Err(old)) => {
                assert_eq!(new.status(), old.status(), "{line:?}: {new:?} vs {old:?}");
                if !past_max_rank(&new) {
                    assert_eq!(new.detail(), old.detail(), "{line:?}");
                }
            }
            (new, old) => panic!("{line:?}: decoded {new:?}, oracle {old:?}"),
        }
    }

    for_cases! {
        /// Random and mutated lines decode as the `Vec` decoder decoded
        /// them.
        fn the_decoder_answers_as_the_vec_decoder_did(rng, cases = 64) {
            for _ in 0..200 {
                assert_parity(&random_line(rng));
                assert_parity(&mutated_line(rng));
            }
        }
    }

    #[test]
    fn a_point_past_max_rank_is_refused_by_the_decoder() {
        let eight = "1,2,3,4,5,6,7,8";
        let nine = "1,2,3,4,5,6,7,8,9";
        for line in [
            format!("u {eight} 1"),
            format!("q {eight} {eight}"),
            format!("p {eight}"),
        ] {
            assert!(decode_line(&line).is_ok(), "{line}");
        }
        for line in [
            format!("u {nine} 1"),
            format!("q {nine} {nine}"),
            format!("p {nine}"),
        ] {
            let refused = decode_line(&line).expect_err(&line);
            assert!(matches!(refused, RequestError::BadShape(_)), "{refused:?}");
            assert_eq!(refused.status(), 400);
            assert_eq!(
                refused.detail(),
                "a point has at most MAX_RANK = 8 coordinates"
            );
            // The `Vec` decoder passed it on, for the door to refuse.
            assert!(oracle::decode_line(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn accepted_spellings_and_edge_values_decode() {
        let update = |c: &[i64], delta| ServeRequest::Update {
            point: pt(c),
            delta,
        };
        for line in [
            "u 3,5 -7",
            "\tu 3,5 -7 ",
            "u  3, 5\t -7",
            "u 3 ,5 \t-7",
            "u 03,+5 -7",
            "u 3,5\r -7",
        ] {
            let want = if line.contains('+') {
                Err(RequestError::BadNumber("+5".to_string()))
            } else {
                Ok(update(&[3, 5], -7))
            };
            assert_eq!(decode_line(line), want, "{line:?}");
        }
        assert_eq!(decode_line("u -0,007 0"), Ok(update(&[0, 7], 0)));
        let extremes = "u -9223372036854775808,9223372036854775807 1";
        assert_eq!(decode_line(extremes), Ok(update(&[i64::MIN, i64::MAX], 1)));
        for bad in ["9223372036854775808", "-9223372036854775809", "", "-", "1-"] {
            let line = format!("u 1,{bad} 1");
            let want = RequestError::BadNumber(bad.to_string());
            assert_eq!(decode_line(&line), Err(want), "{line:?}");
        }
        assert_eq!(
            decode_line("q  0,0 1,1"),
            Err(RequestError::BadShape("empty point".to_string())),
            "the space after q ends the low corner"
        );
    }

    #[test]
    fn line_commands_round_trip() {
        assert_eq!(
            decode_line("u 3,5 -7").expect("update"),
            ServeRequest::Update {
                point: pt(&[3, 5]),
                delta: -7
            }
        );
        assert_eq!(
            decode_line("q 0,0 31,15").expect("query"),
            ServeRequest::Query {
                lo: pt(&[0, 0]),
                hi: pt(&[31, 15])
            }
        );
        assert_eq!(
            decode_line("p 9,9").expect("prefix"),
            ServeRequest::Prefix(pt(&[9, 9]))
        );
        assert_eq!(decode_line("ping").expect("ping"), ServeRequest::Ping);
        assert_eq!(
            decode_line("t team-a").expect("tenant"),
            ServeRequest::Tenant("team-a".to_string())
        );
    }
    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(matches!(
            decode_line("u 1,2"),
            Err(RequestError::BadShape(_))
        ));
        assert!(matches!(
            decode_line("u 1,x 3"),
            Err(RequestError::BadNumber(_))
        ));
        assert!(matches!(
            decode_line("q 1,2 3"),
            Err(RequestError::BadShape(_))
        ));
        assert!(matches!(decode_line("zap"), Err(RequestError::Unknown(_))));
        assert!(matches!(
            decode_line("t bad tenant!"),
            Err(RequestError::BadTenant(_))
        ));
        assert_eq!(decode_line("zap").map_err(|e| e.status()), Err(404));
    }

    #[test]
    fn ingest_body_parses_all_or_nothing() {
        let ok = decode_ingest(b"0,0 5\n1,1 -2\n\n3,3 1\n").expect("parses");
        assert_eq!(ok.len(), 3);
        assert_eq!(ok[1], (pt(&[1, 1]), -2));
        assert!(decode_ingest(b"0,0 5\n1,1 x\n").is_err());
        assert!(decode_ingest(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn http_routes_decode() {
        let req = |method: &str, target: &str, body: &[u8]| HttpRequest {
            method: method.to_string(),
            target: target.to_string(),
            minor_version: 1,
            headers: Vec::new(),
            body: body.to_vec(),
        };
        assert_eq!(
            decode_http(&req("GET", "/query?lo=1,2&hi=3,4", b"")).expect("query"),
            ServeRequest::Query {
                lo: pt(&[1, 2]),
                hi: pt(&[3, 4])
            }
        );
        assert_eq!(
            decode_http(&req("GET", "/prefix?at=7,8", b"")).expect("prefix"),
            ServeRequest::Prefix(pt(&[7, 8]))
        );
        assert_eq!(
            decode_http(&req("POST", "/ingest", b"1,1 4\n")).expect("ingest"),
            ServeRequest::Ingest(vec![(pt(&[1, 1]), 4)])
        );
        assert_eq!(
            decode_http(&req("GET", "/metrics", b"")).expect("metrics"),
            ServeRequest::Metrics
        );
        assert_eq!(
            decode_http(&req("GET", "/nope", b"")).map_err(|e| e.status()),
            Err(404)
        );
        assert_eq!(
            decode_http(&req("POST", "/query", b"")).map_err(|e| e.status()),
            Err(405)
        );
        assert_eq!(
            decode_http(&req("GET", "/query?lo=1,2", b"")).map_err(|e| e.status()),
            Err(400)
        );
    }
}
