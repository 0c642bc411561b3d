//! Request-mutation fuzzer for the serve wire parser.
//!
//! The serving layer's [`RequestParser`] promises three things that are
//! easy to break and hard to unit-test exhaustively: it parses the same
//! byte stream to the same frames *no matter how the bytes are split
//! across reads*; it rejects malformed input with a typed error instead
//! of desynchronizing; and an abruptly disconnected peer leaves it
//! waiting, never wedged or wrong. This module checks all three the
//! same way `runner::fuzz` checks the range-sum engines — generate a
//! seeded op stream, run it through the subject, and compare against an
//! oracle constructed alongside the stream.
//!
//! A [`ServeOp`] is one message on the wire: a line-protocol command,
//! a valid HTTP/1.1 request (randomized header casing, bodies salted
//! with `\r` and `\n`), or a terminal mutation (malformed start line,
//! oversized head, too many headers, bad or conflicting
//! `Content-Length`, chunked transfer-encoding, non-UTF-8 line). A line
//! is spelt as the grammar allows — tabs and extra spaces around its
//! tokens, a space after a comma, `-0`, leading zeros — or as it
//! refuses: `+5`, an empty token, an `i64` overflow, more than
//! [`MAX_RANK`] coordinates. Valid ops carry their expected
//! [`OwnedFrame`], a line with the request [`protocol::decode`] must
//! make of it (or the status it must refuse it with); mutations carry
//! the status the parser must answer before closing. The serialized
//! stream is then fed twice — once whole, once under a random
//! chunk-split plan (sometimes byte-at-a-time) — every line frame of
//! both runs is decoded, and both runs must agree with the oracle
//! exactly.
//! A truncated replay models the abrupt disconnect: it must yield a
//! prefix of the expected frames and no spurious error.
//!
//! The same harness doubles as the seeded-bug detector:
//! [`find_parser_quirk`] runs the identical traffic through a
//! [`ParserQuirk`] of [`crate::buggy`] — the real parser behind a stream
//! transform — and reports the first iteration whose frames diverge from
//! the untransformed run. A fuzzer that cannot find
//! `CaseSensitiveContentLength` or `DropSplitCarriageReturn` is not
//! exercising header casing or split boundaries, so the test suite
//! requires both to be found.
//!
//! It keeps its own run loop rather than walking the durable rig on a
//! `FaultVfs` as the crash, disk and snapshot sweeps do: what it fuzzes
//! is wire bytes, not a disk, so there is no file op for a `FaultVfs`
//! to inject into. Its front end is shared: `ddc check serve` reads its
//! arguments with the same `Flags` reader as every `ddc check` command.

use ddc_array::{Point, MAX_RANK};
use ddc_serve::protocol::{self, ServeRequest};
use ddc_serve::{Frame, HttpRequest, ParseError, ParserConfig, RequestParser};
use ddc_workload::DdcRng;

use crate::buggy::ParserQuirk;

/// Bounds used by the fuzzer: small enough that oversized-input
/// mutations cost bytes, not megabytes, while leaving room for every
/// valid op the generator emits.
pub fn fuzz_parser_config() -> ParserConfig {
    ParserConfig {
        max_head_bytes: 256,
        max_headers: 8,
        max_body_bytes: 512,
    }
}

/// A frame the fuzzer can hold across feeds: a line is copied out of
/// the parser's buffer, together with what [`protocol::decode`] made of
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnedFrame {
    /// An HTTP/1.1 request.
    Http(HttpRequest),
    /// A line-protocol command.
    Line {
        /// The line, terminator stripped.
        text: String,
        /// Its request, or the status it is refused with.
        decoded: Result<ServeRequest, u16>,
    },
}

impl OwnedFrame {
    /// Copies `frame` out of the parser, decoding it if it is a line.
    pub(crate) fn of(frame: Frame<'_>) -> Self {
        let decoded = protocol::decode(&frame).map_err(|e| e.status());
        match frame {
            Frame::Http(request) => OwnedFrame::Http(request),
            Frame::Line(text) => OwnedFrame::Line {
                text: text.to_string(),
                decoded,
            },
        }
    }
}

/// One generated message plus what the parser must do with it.
#[derive(Clone, Debug)]
pub enum ServeOp {
    /// A well-framed message: the wire bytes and the exact frame they
    /// must produce.
    Valid {
        /// Serialized bytes as they would arrive from the socket.
        wire: Vec<u8>,
        /// The frame the parser must yield for them.
        expect: OwnedFrame,
    },
    /// A mutation the parser must reject. Terminal: the parser poisons
    /// itself, so nothing can follow on the stream.
    Mutation {
        /// Serialized malformed bytes.
        wire: Vec<u8>,
        /// Status [`ParseError::status`] must map the rejection to.
        status: u16,
    },
}

impl ServeOp {
    fn wire(&self) -> &[u8] {
        match self {
            ServeOp::Valid { wire, .. } | ServeOp::Mutation { wire, .. } => wire,
        }
    }
}

/// What a clean fuzz run covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeFuzzReport {
    /// Iterations (independent op streams) executed.
    pub iterations: u64,
    /// Frames compared against the oracle across all runs.
    pub frames: u64,
    /// Line frames among them, each decoded and its request compared.
    pub lines: u64,
    /// Mutations whose rejection status was verified.
    pub mutations: u64,
    /// Truncated (abrupt-disconnect) replays executed.
    pub truncations: u64,
    /// Chunks fed across all split-plan replays.
    pub chunks: u64,
}

/// A divergence between the parser and the oracle — a real parser bug.
#[derive(Clone, Debug)]
pub struct ServeFuzzFailure {
    /// Iteration (seed offset) that failed.
    pub iteration: u64,
    /// Base seed of the failing run, for replay.
    pub seed: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The full wire bytes of the failing stream.
    pub wire: Vec<u8>,
}

impl std::fmt::Display for ServeFuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve parser divergence at iteration {} (seed {:#x}, {} wire bytes): {}",
            self.iteration,
            self.seed,
            self.wire.len(),
            self.detail
        )
    }
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

fn line_terminator(rng: &mut DdcRng) -> &'static str {
    if rng.gen_bool(0.3) {
        "\r\n"
    } else {
        "\n"
    }
}

/// Padding the grammar allows around a token: mostly none, else spaces
/// and tabs — tabs only where a space would end the token's field (the
/// low corner of `q`).
fn gen_pad(rng: &mut DdcRng, tabs_only: bool) -> &'static str {
    match rng.gen_range(0..6usize) {
        0..=3 => "",
        4 => "\t",
        _ if tabs_only => "\t\t",
        _ => [" ", " \t", "\t "][rng.gen_range(0..3usize)],
    }
}

/// `value` in one of its accepted spellings: plain, `-0` for zero, or
/// with leading zeros.
fn spell_int(rng: &mut DdcRng, value: i64) -> String {
    match rng.gen_range(0..4usize) {
        0 if value == 0 => "-0".to_string(),
        1 => {
            let zeros = "00"[..rng.gen_range(1..=2usize)].to_string();
            match value < 0 {
                true => format!("-{zeros}{}", value.unsigned_abs()),
                false => format!("{zeros}{value}"),
            }
        }
        _ => value.to_string(),
    }
}

/// A point of 1–3 small coordinates, each token padded at random (with
/// tabs alone when `tabs_only`), and its value.
fn gen_point(rng: &mut DdcRng, tabs_only: bool) -> (String, Point) {
    let mut text = String::new();
    let mut point = Point::new();
    for i in 0..rng.gen_range(1..=3usize) {
        if i > 0 {
            text.push(',');
        }
        let value = rng.gen_range(0..64i64);
        text.push_str(gen_pad(rng, tabs_only));
        text.push_str(&spell_int(rng, value));
        text.push_str(gen_pad(rng, tabs_only));
        let _ = point.push(value);
    }
    (text, point)
}

/// A line-protocol command in a spelling the grammar accepts, and the
/// request it decodes to.
fn gen_line_request(rng: &mut DdcRng) -> (String, ServeRequest) {
    match rng.gen_range(0..5usize) {
        0 => ("ping".to_string(), ServeRequest::Ping),
        1 => {
            let (text, point) = gen_point(rng, false);
            let delta = rng.gen_range(-100i64..=100);
            let (pad, delta_text) = (gen_pad(rng, false), spell_int(rng, delta));
            (
                format!("u {text} {pad}{delta_text}"),
                ServeRequest::Update { point, delta },
            )
        }
        2 => {
            let (lo_text, lo) = gen_point(rng, true);
            let mut hi = lo;
            let mut hi_text = String::new();
            for (i, c) in hi.iter_mut().enumerate() {
                *c += rng.gen_range(0..8i64);
                let comma = if i > 0 {
                    [",", ", "][rng.gen_range(0..2usize)]
                } else {
                    ""
                };
                hi_text.push_str(&format!("{comma}{}", spell_int(rng, *c)));
            }
            let pad = gen_pad(rng, false);
            let text = format!("q {lo_text} {pad}{hi_text}");
            (text, ServeRequest::Query { lo, hi })
        }
        3 => {
            let (text, point) = gen_point(rng, false);
            (format!("p {text}"), ServeRequest::Prefix(point))
        }
        _ => {
            let name = format!("tenant-{}", rng.gen_range(0..9usize));
            (format!("t {name}"), ServeRequest::Tenant(name))
        }
    }
}

/// A well-framed line the grammar refuses with a 400: `+5`, an empty
/// token, an `i64` overflow, a point past [`MAX_RANK`].
fn gen_refused_line(rng: &mut DdcRng) -> String {
    let x = rng.gen_range(0..64usize);
    match rng.gen_range(0..5usize) {
        0 => format!("u {x},+5 1"),
        1 => format!("u {x},,1 1"),
        2 => format!("p {x},"),
        3 => format!("q 0,0 {x},9223372036854775808"),
        _ => format!("p {}", vec![x.to_string(); MAX_RANK + 1].join(",")),
    }
}

/// A line-protocol command and its expected frame.
fn gen_line_op(rng: &mut DdcRng) -> ServeOp {
    let (mut text, decoded) = match rng.gen_bool(0.15) {
        true => (gen_refused_line(rng), Err(400)),
        false => {
            let (text, request) = gen_line_request(rng);
            (text, Ok(request))
        }
    };
    // Padding around the whole line, which the decoder trims.
    if rng.gen_bool(0.2) {
        text = format!("{}{text}{}", gen_pad(rng, false), gen_pad(rng, false));
    }
    let mut wire = text.clone().into_bytes();
    wire.extend_from_slice(line_terminator(rng).as_bytes());
    ServeOp::Valid {
        wire,
        expect: OwnedFrame::Line { text, decoded },
    }
}

/// `Content-Length` in a randomized spelling; canonical ~1 in 4.
fn content_length_spelling(rng: &mut DdcRng) -> &'static str {
    match rng.gen_range(0..4usize) {
        0 => "Content-Length",
        1 => "content-length",
        2 => "CONTENT-LENGTH",
        _ => "CoNtEnT-lEnGtH",
    }
}

/// Body bytes salted with the characters that break naive parsers:
/// `\r` at chunk boundaries and `\n` mid-body.
fn gen_body(rng: &mut DdcRng) -> Vec<u8> {
    let len = rng.gen_range(1..48usize);
    (0..len)
        .map(|_| match rng.gen_range(0..8usize) {
            0 => b'\r',
            1 => b'\n',
            2 => b',',
            3 => b' ',
            _ => b'a' + rng.gen_range(0..26usize) as u8,
        })
        .collect()
}

/// A valid HTTP/1.1 request and its expected frame.
fn gen_http_op(rng: &mut DdcRng) -> ServeOp {
    let method = ["GET", "POST", "PUT", "HEAD"][rng.gen_range(0..4usize)].to_string();
    let target = [
        "/ingest",
        "/metrics",
        "/healthz",
        "/query?lo=0,0&hi=3,3",
        "/prefix?at=5,5",
    ][rng.gen_range(0..5usize)]
    .to_string();
    let mut headers: Vec<(String, String)> = Vec::new();
    if rng.gen_bool(0.5) {
        headers.push(("Host".to_string(), "fuzz.local".to_string()));
    }
    if rng.gen_bool(0.3) {
        headers.push((
            "X-Ddc-Tenant".to_string(),
            format!("t{}", rng.gen_range(0..9usize)),
        ));
    }
    let body = if rng.gen_bool(0.6) {
        gen_body(rng)
    } else {
        Vec::new()
    };
    if !body.is_empty() || rng.gen_bool(0.2) {
        headers.push((
            content_length_spelling(rng).to_string(),
            body.len().to_string(),
        ));
    }
    let mut wire = Vec::new();
    let eol = line_terminator(rng);
    wire.extend_from_slice(format!("{method} {target} HTTP/1.1{eol}").as_bytes());
    for (name, value) in &headers {
        wire.extend_from_slice(format!("{name}: {value}{eol}").as_bytes());
    }
    wire.extend_from_slice(eol.as_bytes());
    wire.extend_from_slice(&body);
    ServeOp::Valid {
        wire,
        expect: OwnedFrame::Http(HttpRequest {
            method,
            target,
            minor_version: 1,
            headers,
            body,
        }),
    }
}

/// A terminal mutation: malformed bytes plus the status the parser must
/// answer before closing.
fn gen_mutation(rng: &mut DdcRng, config: &ParserConfig) -> ServeOp {
    let (wire, status): (Vec<u8>, u16) = match rng.gen_range(0..8usize) {
        // Start line with the wrong token count or version.
        0 => (b"GET /only-two-parts\r\n\r\n".to_vec(), 400),
        1 => (b"GET /x HTTP/2.0\r\n\r\n".to_vec(), 400),
        // A header without the `name: value` shape.
        2 => (b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(), 400),
        // Content-Length that is not a number, or that disagrees.
        3 => (
            b"POST / HTTP/1.1\r\nContent-Length: twelve\r\n\r\n".to_vec(),
            400,
        ),
        4 => (
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 4\r\n\r\n".to_vec(),
            400,
        ),
        // Oversized head: one unterminated line past the cap.
        5 => (vec![b'A'; config.max_head_bytes + 64], 431),
        // More headers than the cap allows.
        6 => {
            let mut w = b"GET / HTTP/1.1\r\n".to_vec();
            for i in 0..=config.max_headers {
                w.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
            }
            w.extend_from_slice(b"\r\n");
            (w, 431)
        }
        // A transfer-encoding the server does not implement.
        _ => (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
    };
    // A ninth shape rides on a coin flip so the distribution still
    // visits it: declared body beyond the cap (413), or a line-protocol
    // command that is not UTF-8 (400).
    if rng.gen_bool(0.2) {
        return if rng.gen_bool(0.5) {
            ServeOp::Mutation {
                wire: format!(
                    "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    config.max_body_bytes + 1
                )
                .into_bytes(),
                status: 413,
            }
        } else {
            ServeOp::Mutation {
                wire: b"u 1,1 \xff\xfe\n".to_vec(),
                status: 400,
            }
        };
    }
    ServeOp::Mutation { wire, status }
}

/// One seeded stream: a handful of valid messages, optionally capped by
/// a terminal mutation.
fn gen_ops(rng: &mut DdcRng, config: &ParserConfig) -> Vec<ServeOp> {
    let n = rng.gen_range(1..7usize);
    let mut ops: Vec<ServeOp> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                gen_line_op(rng)
            } else {
                gen_http_op(rng)
            }
        })
        .collect();
    if rng.gen_bool(0.35) {
        ops.push(gen_mutation(rng, config));
    }
    ops
}

/// Random cut points over `len` bytes. Every ~6th plan is
/// byte-at-a-time, the densest split a socket can produce.
fn gen_chunk_plan(rng: &mut DdcRng, len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    if rng.gen_bool(0.16) {
        return (1..len).collect();
    }
    (1..len).filter(|_| rng.gen_bool(0.25)).collect()
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Everything one parser run produced: frames until the first error (if
/// any) and that error's status.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct RunResult {
    pub(crate) frames: Vec<OwnedFrame>,
    pub(crate) error: Option<ParseError>,
}

fn drain(parser: &mut RequestParser, into: &mut RunResult) {
    if into.error.is_some() {
        return;
    }
    loop {
        match parser.poll() {
            Ok(Some(f)) => into.frames.push(OwnedFrame::of(f)),
            Ok(None) => return,
            Err(e) => {
                into.error = Some(e);
                return;
            }
        }
    }
}

/// Feeds `wire` to a fresh parser split at `cuts` (byte offsets,
/// ascending), draining frames between chunks exactly as the server's
/// read loop does — through `quirk`'s transforms when one is seeded.
pub(crate) fn run_chunked(
    config: ParserConfig,
    wire: &[u8],
    cuts: &[usize],
    quirk: Option<ParserQuirk>,
) -> RunResult {
    let mut parser = RequestParser::new(config);
    let mut result = RunResult {
        frames: Vec::new(),
        error: None,
    };
    let rewritten = quirk.map(|q| q.rewrite(wire));
    let wire = rewritten.as_deref().unwrap_or(wire);
    let mut prev = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&wire.len())) {
        let chunk = &wire[prev..cut];
        parser.feed(quirk.map_or(chunk, |q| q.chunk(chunk)));
        prev = cut;
        drain(&mut parser, &mut result);
    }
    result
}

fn expected_of(ops: &[ServeOp]) -> (Vec<OwnedFrame>, Option<u16>) {
    let mut frames = Vec::new();
    let mut status = None;
    for op in ops {
        match op {
            ServeOp::Valid { expect, .. } => frames.push(expect.clone()),
            ServeOp::Mutation { status: s, .. } => status = Some(*s),
        }
    }
    (frames, status)
}

fn wire_of(ops: &[ServeOp]) -> Vec<u8> {
    let mut wire = Vec::new();
    for op in ops {
        wire.extend_from_slice(op.wire());
    }
    wire
}

/// Fuzzes the real parser: `iterations` seeded op streams, each fed
/// whole and under a random split plan, compared frame-by-frame against
/// the generation-time oracle, then replayed truncated to model an
/// abrupt disconnect. Any disagreement is a parser bug and comes back
/// as a replayable [`ServeFuzzFailure`].
pub fn fuzz_serve_parser(seed: u64, iterations: u64) -> Result<ServeFuzzReport, ServeFuzzFailure> {
    let config = fuzz_parser_config();
    let mut report = ServeFuzzReport::default();
    for iteration in 0..iterations {
        let mut rng = DdcRng::seed_from_u64(seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ops = gen_ops(&mut rng, &config);
        let wire = wire_of(&ops);
        let (want_frames, want_status) = expected_of(&ops);
        let fail = |detail: String| ServeFuzzFailure {
            iteration,
            seed,
            detail,
            wire: wire.clone(),
        };

        // Whole-stream run against the construction oracle.
        let whole = run_chunked(config, &wire, &[], None);
        if whole.frames != want_frames {
            return Err(fail(format!(
                "whole-stream frames {:?} != expected {:?}",
                whole.frames, want_frames
            )));
        }
        match (&whole.error, want_status) {
            (None, None) => {}
            (Some(e), Some(s)) if e.status() == s => {}
            (got, want) => {
                return Err(fail(format!(
                    "whole-stream error {got:?} but expected status {want:?}"
                )))
            }
        }

        // Split-plan run must agree byte-for-byte with the whole run.
        let cuts = gen_chunk_plan(&mut rng, wire.len());
        let split = run_chunked(config, &wire, &cuts, None);
        if split != whole {
            return Err(fail(format!(
                "split plan ({} chunks) diverged: {split:?} != {whole:?}",
                cuts.len() + 1
            )));
        }
        report.chunks += cuts.len() as u64 + 1;

        // Abrupt disconnect: cut the stream anywhere. The parser must
        // end up with a prefix of the expected frames, and may only
        // error if the full stream would have errored the same way.
        if !wire.is_empty() {
            let keep = rng.gen_range(0..wire.len());
            let cut = run_chunked(config, &wire[..keep], &[], None);
            if cut.frames.len() > want_frames.len()
                || cut.frames[..] != want_frames[..cut.frames.len()]
            {
                return Err(fail(format!(
                    "truncation at {keep} produced non-prefix frames {:?}",
                    cut.frames
                )));
            }
            if let Some(e) = &cut.error {
                if want_status != Some(e.status()) {
                    return Err(fail(format!(
                        "truncation at {keep} invented error {e:?} (expected status {want_status:?})"
                    )));
                }
            }
            report.truncations += 1;
        }

        report.iterations += 1;
        report.frames += want_frames.len() as u64 * 2;
        let is_line = |f: &&OwnedFrame| matches!(f, OwnedFrame::Line { .. });
        report.lines += want_frames.iter().filter(is_line).count() as u64 * 2;
        report.mutations += u64::from(want_status.is_some());
    }
    Ok(report)
}

/// Runs the fuzzer's traffic through the parser behind a seeded bug
/// ([`ParserQuirk`]) alongside the parser alone and returns the first
/// iteration whose results diverge — the serve-layer analogue of
/// [`crate::roster_with_bug`]: a fixture the suite must FIND. `None`
/// means the fuzzer failed to expose the bug within `max_iterations`,
/// which the tests treat as a coverage regression.
pub fn find_parser_quirk(quirk: ParserQuirk, seed: u64, max_iterations: u64) -> Option<u64> {
    let config = fuzz_parser_config();
    for iteration in 0..max_iterations {
        let mut rng = DdcRng::seed_from_u64(seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ops = gen_ops(&mut rng, &config);
        let wire = wire_of(&ops);
        let cuts = gen_chunk_plan(&mut rng, wire.len());
        // A buggy parser can also diverge by *waiting* — fewer frames
        // with bytes still buffered — which the result compare catches
        // as a frame-list mismatch on the same traffic.
        if run_chunked(config, &wire, &cuts, None) != run_chunked(config, &wire, &cuts, Some(quirk))
        {
            return Some(iteration);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUZZ_SEED: u64 = 0xF022;

    #[test]
    fn fuzzer_is_clean_on_the_real_parser() {
        let report = fuzz_serve_parser(FUZZ_SEED, 400).expect("real parser must not diverge");
        assert_eq!(report.iterations, 400);
        assert!(report.frames > 500, "frames compared: {}", report.frames);
        assert!(report.lines > 250, "lines decoded: {}", report.lines);
        assert!(report.mutations > 50, "mutations hit: {}", report.mutations);
        assert!(report.chunks > report.iterations);
    }

    #[test]
    fn seeded_case_sensitive_content_length_bug_is_found() {
        let found = find_parser_quirk(ParserQuirk::CaseSensitiveContentLength, FUZZ_SEED, 200);
        assert!(found.is_some(), "fuzzer must expose the casing bug");
    }

    #[test]
    fn seeded_split_carriage_return_bug_is_found() {
        let found = find_parser_quirk(ParserQuirk::DropSplitCarriageReturn, FUZZ_SEED, 400);
        assert!(found.is_some(), "fuzzer must expose the split-CR bug");
    }

    #[test]
    fn quirk_search_reports_miss_when_traffic_cannot_trigger_it() {
        // Zero iterations cannot find anything — the miss path.
        let found = find_parser_quirk(ParserQuirk::DropSplitCarriageReturn, 1, 0);
        assert!(found.is_none());
    }
}
