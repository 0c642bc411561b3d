//! Deliberately wrong subjects, used to prove the harness catches bugs.
//!
//! The harness's own acceptance test is circular without a known-bad
//! subject: [`OffByOneEngine`] answers range sums with `hi[0]` treated
//! as *exclusive* whenever the query spans more than one cell along
//! axis 0 — the classic fence-post error — and is otherwise perfect.
//! The fuzzer must catch it and shrink the repro to a handful of ops.
//!
//! The wire parser's two are [`ParserQuirk`]s. Like the engine above (a
//! wrapper) and the chaos sweep's `FaultVfs::lose_truncations` (a
//! property of the test disk), they live here and not in the shipped
//! code: each is a transform of the byte stream in front of the *real*
//! `RequestParser`, which then misbehaves as a parser with that bug
//! would.

use ddc_core::wal::IoError;
use ddc_workload::BoxState;

use crate::adapters::{engine_roster, CheckEngine};
use crate::oracle::Oracle;

/// A perfect cube with an off-by-one range query along axis 0.
pub struct OffByOneEngine {
    state: Oracle,
}

impl OffByOneEngine {
    /// Fresh buggy engine of `init`'s dimensionality.
    pub fn new(init: &BoxState) -> Self {
        Self {
            state: Oracle::new(init.ndim()),
        }
    }
}

impl CheckEngine for OffByOneEngine {
    fn name(&self) -> &str {
        "off-by-one (intentional)"
    }

    fn add(&mut self, point: &[i64], delta: i64) -> Result<(), IoError> {
        self.state.add(point, delta);
        Ok(())
    }

    fn set(&mut self, point: &[i64], value: i64) -> Result<i64, IoError> {
        Ok(self.state.set(point, value))
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.state.cell(point)
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        if hi[0] > lo[0] {
            // The injected bug: drop the last slab along axis 0.
            let mut h = hi.to_vec();
            h[0] -= 1;
            self.state.range_sum(lo, &h)
        } else {
            self.state.range_sum(lo, hi)
        }
    }
}

/// The full roster plus the buggy engine — a divergence is guaranteed
/// as soon as a trace exercises a multi-cell query along axis 0.
pub fn roster_with_bug(init: &BoxState) -> Vec<Box<dyn CheckEngine>> {
    let mut engines = engine_roster(init);
    engines.push(Box::new(OffByOneEngine::new(init)));
    engines
}

/// A realistic interop bug of a wire parser, which the request-mutation
/// fuzzer ([`crate::find_parser_quirk`]) is required to find.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParserQuirk {
    /// Recognize `Content-Length` only in its canonical spelling — any
    /// other casing is an unknown header, so the body is never consumed
    /// and the stream desynchronizes.
    CaseSensitiveContentLength,
    /// Lose a `\r` that arrives as the final byte of a read: the
    /// classic split-terminator bug — `...\r` + `\n...` parses as if
    /// the line ended in a bare `\n`, and a `\r` inside a counted body
    /// shifts every following byte.
    DropSplitCarriageReturn,
}

impl ParserQuirk {
    /// The stream as the buggy parser understands it, before it is cut
    /// into reads: every `content-length` header not spelt canonically
    /// gets a name of the same length that no parser knows (so cuts
    /// planned on the original bytes stay aligned).
    pub fn rewrite(self, wire: &[u8]) -> Vec<u8> {
        const NAME: &[u8] = b"Content-Length:";
        let mut out = wire.to_vec();
        if self == ParserQuirk::CaseSensitiveContentLength {
            for at in 0..out.len().saturating_sub(NAME.len() - 1) {
                let name = &out[at..at + NAME.len()];
                let heads_a_line = at == 0 || out[at - 1] == b'\n';
                if heads_a_line && name != NAME && name.eq_ignore_ascii_case(NAME) {
                    out[at] = b'X';
                }
            }
        }
        out
    }

    /// One read as the buggy parser receives it.
    pub fn chunk(self, chunk: &[u8]) -> &[u8] {
        match (self, chunk) {
            (ParserQuirk::DropSplitCarriageReturn, [rest @ .., b'\r']) => rest,
            _ => chunk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_fuzz::{run_chunked, OwnedFrame};
    use ddc_serve::{ParserConfig, ServeRequest};

    #[test]
    fn quirk_fixtures_diverge_from_the_real_parser() {
        let run = |wire: &[u8], cuts: &[usize], quirk| {
            let run = run_chunked(ParserConfig::default(), wire, cuts, quirk);
            assert_eq!(run.error, None);
            run.frames
        };
        // Case-sensitive Content-Length: lowercase header loses the body.
        let wire = b"POST / HTTP/1.1\r\ncontent-length: 4\r\n\r\nbodyping\n";
        let quirk = ParserQuirk::CaseSensitiveContentLength;
        let (real, buggy) = (run(wire, &[], None), run(wire, &[], Some(quirk)));
        let ping = OwnedFrame::Line {
            text: "ping".to_string(),
            decoded: Ok(ServeRequest::Ping),
        };
        assert_eq!(real.len(), 2);
        assert_eq!(real[1], ping);
        match &buggy[..] {
            [OwnedFrame::Http(r), OwnedFrame::Line { text, decoded }] => {
                assert!(r.body.is_empty() && text == "bodyping", "{r:?} {text}");
                assert_eq!(*decoded, Err(404), "an unknown command");
            }
            other => panic!("{other:?}"),
        }
        // The canonical spelling is left alone.
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(quirk.rewrite(wire), wire);

        // A '\r' lost at a feed boundary inside a counted body shifts
        // every following byte: the stream desynchronizes.
        let (head, tail) = (
            &b"POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\na\r"[..],
            &b"cping\n"[..],
        );
        let wire = [head, tail].concat();
        let quirk = ParserQuirk::DropSplitCarriageReturn;
        let real = run(&wire, &[head.len()], None);
        assert_ne!(real, run(&wire, &[head.len()], Some(quirk)));
        match &real[0] {
            OwnedFrame::Http(r) => assert_eq!(r.body, b"a\rc"),
            other => panic!("{other:?}"),
        }
        assert_eq!(real[1], ping);
        // Fed whole, no read ends in that '\r' and nothing is lost.
        assert_eq!(real, run(&wire, &[], Some(quirk)));
    }
}
