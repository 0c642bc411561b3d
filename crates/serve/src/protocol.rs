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
//! point     = int *("," int)              ; one coordinate per dimension
//! tenant    = 1*32(ALPHA / DIGIT / "-" / "_")
//! ```
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

use crate::http::{Frame, HttpRequest};

/// A typed request decoded from a [`Frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeRequest {
    /// Point update `point += delta`.
    Update {
        /// Cube coordinates.
        point: Vec<i64>,
        /// Signed delta.
        delta: i64,
    },
    /// Batched updates (the HTTP ingest body).
    Ingest(Vec<(Vec<i64>, i64)>),
    /// Range sum over the box `[lo, hi]` (inclusive corners).
    Query {
        /// Low corner.
        lo: Vec<i64>,
        /// High corner.
        hi: Vec<i64>,
    },
    /// Prefix sum at `point`.
    Prefix(Vec<i64>),
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

/// `true` for a well-formed tenant name.
pub fn valid_tenant(name: &str) -> bool {
    (1..=32).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Decodes one line-protocol command.
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
pub fn decode_ingest(body: &[u8]) -> Result<Vec<(Vec<i64>, i64)>, RequestError> {
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
pub fn decode(frame: &Frame) -> Result<ServeRequest, RequestError> {
    match frame {
        Frame::Line(line) => decode_line(line),
        Frame::Http(req) => decode_http(req),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_commands_round_trip() {
        assert_eq!(
            decode_line("u 3,5 -7").expect("update"),
            ServeRequest::Update {
                point: vec![3, 5],
                delta: -7
            }
        );
        assert_eq!(
            decode_line("q 0,0 31,15").expect("query"),
            ServeRequest::Query {
                lo: vec![0, 0],
                hi: vec![31, 15]
            }
        );
        assert_eq!(
            decode_line("p 9,9").expect("prefix"),
            ServeRequest::Prefix(vec![9, 9])
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
        assert_eq!(ok[1], (vec![1, 1], -2));
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
                lo: vec![1, 2],
                hi: vec![3, 4]
            }
        );
        assert_eq!(
            decode_http(&req("GET", "/prefix?at=7,8", b"")).expect("prefix"),
            ServeRequest::Prefix(vec![7, 8])
        );
        assert_eq!(
            decode_http(&req("POST", "/ingest", b"1,1 4\n")).expect("ingest"),
            ServeRequest::Ingest(vec![(vec![1, 1], 4)])
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
