//! Incremental, allocation-bounded wire parser: HTTP/1.1 requests and
//! newline-delimited line-protocol commands on the same connection.
//!
//! The server reads whatever the socket hands it — partial requests,
//! several pipelined requests in one segment, a header split down the
//! middle of its name — and feeds the raw bytes into a [`RequestParser`].
//! The parser buffers at most [`ParserConfig::max_head_bytes`] +
//! [`ParserConfig::max_body_bytes`] and yields complete [`Frame`]s as
//! they materialize:
//!
//! * A line whose first token is an ASCII-uppercase HTTP method (`GET`,
//!   `POST`, …) starts an **HTTP/1.1 request**: start line, up to
//!   [`ParserConfig::max_headers`] headers, then a `Content-Length` body.
//! * Any other non-empty line is a **line-protocol command**, handed up
//!   verbatim (terminator stripped) for [`crate::protocol`] to interpret,
//!   as a slice of the parser's own buffer: framing a line copies and
//!   allocates nothing. Line commands are lowercase by convention, so
//!   the two grammars cannot collide.
//!
//! Malformed input is a typed [`ParseError`], never a panic, and always
//! fatal for the connection (the server answers with the mapped status
//! and closes — after a framing error the byte stream cannot be trusted
//! again). Every bound is explicit in [`ParserConfig`], so a hostile
//! peer cannot make the parser allocate without limit.

use std::fmt;

/// Limits enforced by [`RequestParser`]. Every cap is per *message*,
/// and the internal buffer never holds more than one unconsumed head
/// plus one body.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParserConfig {
    /// Longest accepted request head (start line + headers + blank
    /// line) or single protocol line, in bytes.
    pub max_head_bytes: usize,
    /// Most headers accepted on one request.
    pub max_headers: usize,
    /// Largest accepted `Content-Length` body, in bytes.
    pub max_body_bytes: usize,
}

impl Default for ParserConfig {
    fn default() -> Self {
        Self {
            max_head_bytes: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a byte stream was rejected. Each variant maps to one HTTP status
/// in [`ParseError::status`]; after any of these the connection closes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A line starting with an HTTP method token did not have the
    /// `METHOD SP target SP HTTP/1.x` shape.
    BadStartLine(String),
    /// The request head (or one protocol line) exceeded
    /// [`ParserConfig::max_head_bytes`].
    HeadTooLarge,
    /// More than [`ParserConfig::max_headers`] header lines.
    TooManyHeaders,
    /// A header line without a `name: value` shape, or a name with
    /// forbidden characters.
    BadHeader(String),
    /// `Content-Length` was not a decimal number, or was repeated with
    /// conflicting values.
    BadContentLength(String),
    /// The declared body exceeds [`ParserConfig::max_body_bytes`].
    BodyTooLarge(u64),
    /// A `Transfer-Encoding` the server does not implement.
    UnsupportedTransferEncoding(String),
    /// Bytes that are neither an HTTP request nor valid UTF-8 line
    /// protocol (embedded NUL or invalid UTF-8 in a command line).
    BadLine,
}

impl ParseError {
    /// The HTTP status code the server answers with before closing.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadStartLine(_)
            | ParseError::BadHeader(_)
            | ParseError::BadContentLength(_)
            | ParseError::BadLine => 400,
            ParseError::HeadTooLarge | ParseError::TooManyHeaders => 431,
            ParseError::BodyTooLarge(_) => 413,
            ParseError::UnsupportedTransferEncoding(_) => 501,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadStartLine(l) => write!(f, "malformed start line: {l:?}"),
            ParseError::HeadTooLarge => write!(f, "request head too large"),
            ParseError::TooManyHeaders => write!(f, "too many headers"),
            ParseError::BadHeader(l) => write!(f, "malformed header: {l:?}"),
            ParseError::BadContentLength(v) => write!(f, "bad content-length: {v:?}"),
            ParseError::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
            ParseError::UnsupportedTransferEncoding(v) => {
                write!(f, "unsupported transfer-encoding: {v:?}")
            }
            ParseError::BadLine => write!(f, "line is not valid UTF-8 protocol text"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed HTTP/1.1 request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target exactly as sent (path + optional `?query`).
    pub target: String,
    /// `1.0` or `1.1` minor version digit.
    pub minor_version: u8,
    /// Header `(name, value)` pairs in arrival order. Names keep their
    /// wire spelling; use [`HttpRequest::header`] for lookups.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup (first match wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Splits the target into `(path, query)` at the first `?`.
    pub fn path_query(&self) -> (&str, &str) {
        match self.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (self.target.as_str(), ""),
        }
    }
}

/// One complete incoming message. A line borrows the parser's buffer,
/// so a frame lives until the next [`RequestParser::poll`] or
/// [`RequestParser::feed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// An HTTP/1.1 request.
    Http(HttpRequest),
    /// A line-protocol command (terminator stripped, never empty).
    Line(&'a str),
}

/// What one incremental parsing state is waiting for.
#[derive(Debug)]
enum State {
    /// Scanning for the end of a protocol line or HTTP head.
    Head {
        /// How far the head terminator search has advanced (so feeding
        /// byte-at-a-time stays linear, not quadratic).
        scanned: usize,
    },
    /// Head parsed; collecting `need` more body bytes.
    Body { request: HttpRequest, need: usize },
}

/// The incremental parser. Feed raw socket bytes with
/// [`RequestParser::feed`], then drain completed frames with
/// [`RequestParser::poll`] until it returns `Ok(None)`. In steady state
/// it allocates nothing for a line command: its buffer is reused, and a
/// line frame is a slice of it.
#[derive(Debug)]
pub struct RequestParser {
    config: ParserConfig,
    /// Fed bytes; those before `start` are consumed, and go at the next
    /// feed, so a read of n pipelined frames moves its bytes once, not
    /// once per frame.
    buf: Vec<u8>,
    start: usize,
    state: State,
    /// Set once a `ParseError` was returned: the stream is unusable.
    poisoned: bool,
}

/// `true` when `line`'s first token claims the HTTP grammar: 3–10
/// uppercase ASCII letters followed by a space. Line-protocol commands
/// are lowercase, so the grammars cannot collide.
fn claims_http(line: &[u8]) -> bool {
    let Some(sp) = line.iter().position(|&b| b == b' ') else {
        return false;
    };
    (3..=10).contains(&sp) && line[..sp].iter().all(|b| b.is_ascii_uppercase())
}

impl RequestParser {
    /// A fresh parser enforcing `config`'s bounds.
    pub fn new(config: ParserConfig) -> Self {
        Self {
            config,
            buf: Vec::new(),
            start: 0,
            state: State::Head { scanned: 0 },
            poisoned: false,
        }
    }

    /// Appends raw bytes from the socket. Cheap; all parsing happens in
    /// [`RequestParser::poll`].
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet consumed (bounded by the
    /// config caps plus one socket read).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete frame, `Ok(None)` when more bytes are
    /// needed, or a fatal [`ParseError`]. After an error every further
    /// call returns the erroring state's behavior — callers close the
    /// connection.
    pub fn poll(&mut self) -> Result<Option<Frame<'_>>, ParseError> {
        if self.poisoned {
            return Ok(None);
        }
        // The frame borrows the buffer alone, so the poison flag stays
        // writable beside it.
        let Self {
            config,
            buf,
            start,
            state,
            poisoned,
        } = self;
        let cursor = Cursor {
            config: *config,
            buf,
            start,
            state,
        };
        let frame = cursor.next_frame();
        *poisoned = frame.is_err();
        frame
    }
}

/// The parser's scan position over its buffer for one
/// [`RequestParser::poll`]: the buffer is borrowed shared, so a line
/// frame can be a slice of it.
struct Cursor<'p> {
    config: ParserConfig,
    buf: &'p [u8],
    start: &'p mut usize,
    state: &'p mut State,
}

impl<'p> Cursor<'p> {
    /// The fed bytes not yet consumed by a frame.
    fn pending(&self) -> &'p [u8] {
        &self.buf[*self.start..]
    }

    /// Marks the next `n` pending bytes consumed.
    fn consume(&mut self, n: usize) {
        *self.start += n;
    }

    /// What [`RequestParser::poll`] yields.
    fn next_frame(mut self) -> Result<Option<Frame<'p>>, ParseError> {
        loop {
            // Body state: wait for the declared byte count, then emit.
            if let State::Body { need, .. } = &*self.state {
                if self.pending().len() < *need {
                    return Ok(None);
                }
                let State::Body { mut request, need } =
                    std::mem::replace(self.state, State::Head { scanned: 0 })
                else {
                    unreachable!("checked Body above")
                };
                request.body = self.pending()[..need].to_vec();
                self.consume(need);
                return Ok(Some(Frame::Http(request)));
            }

            // Head state. Skip blank separator lines between messages.
            while let Some(skip) = match self.pending() {
                [b'\n', ..] => Some(1),
                [b'\r', b'\n', ..] => Some(2),
                _ => None,
            } {
                self.consume(skip);
                *self.state = State::Head { scanned: 0 };
            }
            let pending = self.pending().len();
            if pending == 0 {
                return Ok(None);
            }
            let scanned = match *self.state {
                State::Head { scanned } => scanned.min(pending),
                State::Body { .. } => 0,
            };
            let Some(line_end) = find_byte(self.pending(), scanned, b'\n') else {
                *self.state = State::Head { scanned: pending };
                if pending > self.config.max_head_bytes {
                    return Err(ParseError::HeadTooLarge);
                }
                return Ok(None);
            };
            let first_line = trim_cr(&self.pending()[..line_end]);
            if first_line.len() > self.config.max_head_bytes {
                return Err(ParseError::HeadTooLarge);
            }
            if claims_http(first_line) {
                match self.try_http_head()? {
                    HeadProgress::NeedMore => {
                        if self.pending().len() > self.config.max_head_bytes {
                            return Err(ParseError::HeadTooLarge);
                        }
                        return Ok(None);
                    }
                    HeadProgress::Parsed { request, need } => {
                        *self.state = State::Body { request, need };
                        continue;
                    }
                }
            }
            // A line-protocol command: one line, consumed whole. Its
            // bytes stay in the buffer until the next feed.
            if first_line.contains(&0) {
                return Err(ParseError::BadLine);
            }
            let line = std::str::from_utf8(first_line).map_err(|_| ParseError::BadLine)?;
            self.consume(line_end + 1);
            *self.state = State::Head { scanned: 0 };
            return Ok(Some(Frame::Line(line)));
        }
    }

    /// Attempts to parse a full HTTP head from the front of the buffer.
    /// On success the head bytes (through the blank line) are consumed.
    fn try_http_head(&mut self) -> Result<HeadProgress, ParseError> {
        // Locate the blank line terminating the head. Accept both CRLF
        // and bare-LF line endings (tolerant-reader rule).
        let Some(head_end) = find_head_end(self.pending(), self.config.max_head_bytes)? else {
            return Ok(HeadProgress::NeedMore);
        };
        let mut lines = self.pending()[..head_end]
            .split(|&b| b == b'\n')
            .map(trim_cr)
            .filter(|l| !l.is_empty());
        let start = lines.next().unwrap_or(b"");
        let start_text = String::from_utf8_lossy(start).into_owned();
        let mut parts = start_text.split(' ').filter(|p| !p.is_empty());
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
            _ => return Err(ParseError::BadStartLine(start_text.clone())),
        };
        let minor_version = match version {
            "HTTP/1.0" => 0,
            "HTTP/1.1" => 1,
            _ => return Err(ParseError::BadStartLine(start_text.clone())),
        };
        let mut headers: Vec<(String, String)> = Vec::new();
        let mut content_length: Option<u64> = None;
        for raw in lines {
            if headers.len() >= self.config.max_headers {
                return Err(ParseError::TooManyHeaders);
            }
            let text = std::str::from_utf8(raw)
                .map_err(|_| ParseError::BadHeader(String::from_utf8_lossy(raw).into_owned()))?;
            let Some((name, value)) = text.split_once(':') else {
                return Err(ParseError::BadHeader(text.to_string()));
            };
            if name.is_empty()
                || name
                    .bytes()
                    .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
            {
                return Err(ParseError::BadHeader(text.to_string()));
            }
            let value = value.trim_matches([' ', '\t']).to_string();
            if name.eq_ignore_ascii_case("content-length") {
                let n: u64 = value
                    .parse()
                    .map_err(|_| ParseError::BadContentLength(value.clone()))?;
                if content_length.is_some_and(|prev| prev != n) {
                    return Err(ParseError::BadContentLength(value.clone()));
                }
                content_length = Some(n);
            }
            if name.eq_ignore_ascii_case("transfer-encoding")
                && !value.eq_ignore_ascii_case("identity")
            {
                return Err(ParseError::UnsupportedTransferEncoding(value));
            }
            headers.push((name.to_string(), value));
        }
        let need = content_length.unwrap_or(0);
        if need > self.config.max_body_bytes as u64 {
            return Err(ParseError::BodyTooLarge(need));
        }
        // Consume the head and the blank line (CRLF or LF) closing it.
        let rest = &self.pending()[head_end..];
        let blank = if rest.first() == Some(&b'\r') { 2 } else { 1 };
        self.consume(head_end + blank.min(rest.len()));
        Ok(HeadProgress::Parsed {
            request: HttpRequest {
                method: method.to_string(),
                target: target.to_string(),
                minor_version,
                headers,
                body: Vec::new(),
            },
            need: need as usize,
        })
    }
}

enum HeadProgress {
    NeedMore,
    Parsed { request: HttpRequest, need: usize },
}

fn find_byte(haystack: &[u8], from: usize, needle: u8) -> Option<usize> {
    haystack[from.min(haystack.len())..]
        .iter()
        .position(|&b| b == needle)
        .map(|i| i + from.min(haystack.len()))
}

fn trim_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Byte offset of the start of the blank line ending an HTTP head
/// (i.e. the end of the last header line's `\n`), or `None` if the head
/// is still incomplete. Errors when no terminator appears within `cap`.
fn find_head_end(buf: &[u8], cap: usize) -> Result<Option<usize>, ParseError> {
    let mut i = 0;
    while let Some(nl) = find_byte(buf, i, b'\n') {
        let next = &buf[nl + 1..];
        if next.first() == Some(&b'\n')
            || (next.first() == Some(&b'\r') && next.get(1) == Some(&b'\n'))
        {
            return Ok(Some(nl + 1));
        }
        if next.is_empty() {
            break;
        }
        i = nl + 1;
    }
    if buf.len() > cap {
        return Err(ParseError::HeadTooLarge);
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Response writing
// ---------------------------------------------------------------------

/// Reason phrases for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one HTTP/1.1 response with a text body into `out`.
pub fn write_http_response(out: &mut Vec<u8>, status: u16, body: &str) {
    use std::io::Write as _;
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n\r\n",
        reason(status),
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame with its line copied out of the parser, so a test can
    /// hold it across polls.
    #[derive(Debug, PartialEq, Eq)]
    enum Owned {
        Http(HttpRequest),
        Line(String),
    }

    impl From<Frame<'_>> for Owned {
        fn from(frame: Frame<'_>) -> Self {
            match frame {
                Frame::Http(r) => Owned::Http(r),
                Frame::Line(l) => Owned::Line(l.to_string()),
            }
        }
    }

    fn line(text: &str) -> Owned {
        Owned::Line(text.to_string())
    }

    fn parse_all(parser: &mut RequestParser, bytes: &[u8]) -> Vec<Owned> {
        parser.feed(bytes);
        let mut frames = Vec::new();
        while let Some(f) = parser.poll().expect("parse") {
            frames.push(f.into());
        }
        frames
    }

    #[test]
    fn line_and_http_frames_interleave_on_one_stream() {
        let mut p = RequestParser::new(ParserConfig::default());
        let frames = parse_all(
            &mut p,
            b"ping\nGET /metrics HTTP/1.1\r\nHost: x\r\n\r\nu 1,2 5\n",
        );
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], line("ping"));
        match &frames[1] {
            Owned::Http(r) => {
                assert_eq!(r.method, "GET");
                assert_eq!(r.target, "/metrics");
                assert_eq!(r.header("host"), Some("x"));
                assert!(r.body.is_empty());
            }
            other => panic!("expected http frame, got {other:?}"),
        }
        assert_eq!(frames[2], line("u 1,2 5"));
    }

    #[test]
    fn body_is_collected_across_arbitrary_splits() {
        let wire = b"POST /ingest HTTP/1.1\r\ncontent-length: 11\r\n\r\n0,0 5\n1,1 2";
        for split in 0..wire.len() {
            let mut p = RequestParser::new(ParserConfig::default());
            p.feed(&wire[..split]);
            let mut frames = Vec::new();
            while let Some(f) = p.poll().expect("first half") {
                frames.push(Owned::from(f));
            }
            p.feed(&wire[split..]);
            while let Some(f) = p.poll().expect("second half") {
                frames.push(f.into());
            }
            assert_eq!(frames.len(), 1, "split at {split}");
            match &frames[0] {
                Owned::Http(r) => assert_eq!(r.body, b"0,0 5\n1,1 2", "split at {split}"),
                other => panic!("expected http, got {other:?}"),
            }
        }
    }

    #[test]
    fn byte_at_a_time_feeding_parses_identically() {
        let wire = b"p 3,4\nPOST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut p = RequestParser::new(ParserConfig::default());
        let mut frames = Vec::new();
        for &b in wire.iter() {
            p.feed(&[b]);
            while let Some(f) = p.poll().expect("byte at a time") {
                frames.push(Owned::from(f));
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], line("p 3,4"));
        match &frames[1] {
            Owned::Http(r) => assert_eq!(r.body, b"ok"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let mut p = RequestParser::new(ParserConfig::default());
        let frames = parse_all(
            &mut p,
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nq 0,0 1,1\n",
        );
        let targets: Vec<String> = frames
            .iter()
            .map(|f| match f {
                Owned::Http(r) => r.target.clone(),
                Owned::Line(l) => l.clone(),
            })
            .collect();
        assert_eq!(targets, ["/a", "/b", "q 0,0 1,1"]);
    }

    #[test]
    fn one_read_of_many_pipelined_lines_is_consumed_in_one_pass() {
        let mut p = RequestParser::new(ParserConfig::default());
        let mut read: Vec<u8> = (0..10_000)
            .flat_map(|i| format!("ping {i}\n").into_bytes())
            .collect();
        read.extend_from_slice(b"pi");
        p.feed(&read);
        for i in 0..10_000 {
            assert_eq!(
                p.poll().expect("line"),
                Some(Frame::Line(format!("ping {i}").as_str()))
            );
        }
        assert_eq!(p.poll().expect("partial line"), None);
        assert_eq!(p.buffered(), 2);
        // The next feed compacts the consumed lines away, keeping the
        // partial one.
        p.feed(b"ng\n");
        assert_eq!(p.poll().expect("line"), Some(Frame::Line("ping")));
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn malformed_start_line_is_a_fatal_error() {
        let mut p = RequestParser::new(ParserConfig::default());
        p.feed(b"GET /only-two-parts\r\n\r\n");
        let err = p.poll().expect_err("bad start line");
        assert!(matches!(err, ParseError::BadStartLine(_)));
        assert_eq!(err.status(), 400);
        // Poisoned: nothing more comes out.
        p.feed(b"ping\n");
        assert_eq!(p.poll().expect("poisoned parser yields nothing"), None);
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let cfg = ParserConfig {
            max_head_bytes: 64,
            max_headers: 4,
            max_body_bytes: 16,
        };
        let mut p = RequestParser::new(cfg);
        p.feed(&[b'a'; 100]);
        assert_eq!(p.poll().expect_err("head cap").status(), 431);

        let mut p = RequestParser::new(cfg);
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n");
        assert!(matches!(
            p.poll().expect_err("body cap"),
            ParseError::BodyTooLarge(999)
        ));

        let mut p = RequestParser::new(cfg);
        p.feed(b"GET / HTTP/1.1\r\na:1\r\nb:2\r\nc:3\r\nd:4\r\ne:5\r\n\r\n");
        assert_eq!(p.poll().expect_err("header count").status(), 431);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let mut p = RequestParser::new(ParserConfig::default());
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 4\r\n\r\n");
        assert!(matches!(
            p.poll().expect_err("conflict"),
            ParseError::BadContentLength(_)
        ));
        // Repeated but agreeing lengths are tolerated.
        let mut p = RequestParser::new(ParserConfig::default());
        let frames = parse_all(
            &mut p,
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nCONTENT-LENGTH: 2\r\n\r\nhi",
        );
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let mut p = RequestParser::new(ParserConfig::default());
        let frames = parse_all(&mut p, b"POST /x HTTP/1.1\nContent-Length: 1\n\nZ");
        match &frames[0] {
            Owned::Http(r) => {
                assert_eq!(r.body, b"Z");
                assert_eq!(r.header("Content-Length"), Some("1"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected_as_unimplemented() {
        let mut p = RequestParser::new(ParserConfig::default());
        p.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(p.poll().expect_err("chunked").status(), 501);
    }

    #[test]
    fn abrupt_truncation_simply_waits() {
        let mut p = RequestParser::new(ParserConfig::default());
        p.feed(b"GET /a HTTP/1.1\r\nHost:");
        assert_eq!(p.poll().expect("incomplete head"), None);
        assert!(p.buffered() > 0);
    }

    #[test]
    fn response_writer_emits_exact_http() {
        let mut out = Vec::new();
        write_http_response(&mut out, 200, "42\n");
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 3\r\n\r\n42\n"
        );
    }
}
