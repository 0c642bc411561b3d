//! I/O fault injection for the persistence layer.
//!
//! [`FailingWriter`] and [`FailingReader`] error out at a chosen byte
//! offset; [`fault_sweep`] walks that offset across an entire snapshot,
//! asserting the crash-safety contract: **load either round-trips
//! exactly or returns a clean `io::Error` — it never panics and never
//! silently accepts a damaged stream.**

use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use ddc_core::{DdcConfig, DdcEngine, GrowableCube};

/// A writer that accepts exactly `fail_at` bytes, then errors forever.
pub struct FailingWriter {
    /// Bytes accepted so far (the truncated prefix).
    pub sink: Vec<u8>,
    fail_at: usize,
}

impl FailingWriter {
    /// Fails once `fail_at` bytes have been written.
    pub fn new(fail_at: usize) -> Self {
        Self {
            sink: Vec::new(),
            fail_at,
        }
    }
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.fail_at.saturating_sub(self.sink.len());
        if room == 0 {
            return Err(io::Error::other("injected write fault"));
        }
        let n = buf.len().min(room);
        self.sink.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A reader that serves exactly `fail_at` bytes of `data`, then errors —
/// an I/O fault, distinct from a clean early EOF.
pub struct FailingReader<'a> {
    data: &'a [u8],
    pos: usize,
    fail_at: usize,
}

impl<'a> FailingReader<'a> {
    /// Fails once `fail_at` bytes have been served.
    pub fn new(data: &'a [u8], fail_at: usize) -> Self {
        Self {
            data,
            pos: 0,
            fail_at,
        }
    }
}

impl Read for FailingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.fail_at {
            return Err(io::Error::other("injected read fault"));
        }
        let n = buf
            .len()
            .min(self.fail_at - self.pos)
            .min(self.data.len() - self.pos);
        if n == 0 {
            return Err(io::Error::other("injected read fault"));
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// What a [`fault_sweep`] found. Clean means every list is empty.
#[derive(Clone, Debug, Default)]
pub struct FaultSweepReport {
    /// Byte offsets swept (the snapshot length).
    pub offsets: usize,
    /// Offsets where some path panicked, with the path name.
    pub panicked: Vec<(usize, String)>,
    /// Offsets where a damaged stream loaded without error.
    pub silently_accepted: Vec<(usize, String)>,
    /// True when the undamaged snapshot round-tripped exactly.
    pub roundtrip_ok: bool,
}

impl FaultSweepReport {
    /// No panics, no silent corruption, and a clean round-trip.
    pub fn is_clean(&self) -> bool {
        self.panicked.is_empty() && self.silently_accepted.is_empty() && self.roundtrip_ok
    }
}

fn probe(
    report: &mut FaultSweepReport,
    offset: usize,
    path: &str,
    f: impl FnOnce() -> Result<(), String>,
) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(())) => {}
        Ok(Err(accepted)) => report.silently_accepted.push((offset, accepted)),
        Err(_) => report.panicked.push((offset, path.to_string())),
    }
}

/// A cube with a snapshot format: the save/load pair [`fault_sweep`]
/// damages, and the cells an undamaged round trip must preserve.
pub trait Snapshot: Sized {
    /// Cell coordinates (`usize` for fixed shapes, `i64` for growable).
    type Point: Ord;
    /// Writes the snapshot.
    fn save(&self, out: &mut impl Write) -> io::Result<u64>;
    /// Reads a snapshot back under `config`.
    fn load(input: &mut impl Read, config: DdcConfig) -> io::Result<Self>;
    /// Populated cells, in any order.
    fn entries(&self) -> Vec<(Vec<Self::Point>, i64)>;
}

macro_rules! snapshot_via_inherent {
    ($cube:ty, $point:ty) => {
        impl Snapshot for $cube {
            type Point = $point;
            fn save(&self, out: &mut impl Write) -> io::Result<u64> {
                <$cube>::save(self, out)
            }
            fn load(input: &mut impl Read, config: DdcConfig) -> io::Result<Self> {
                <$cube>::load(input, config)
            }
            fn entries(&self) -> Vec<(Vec<$point>, i64)> {
                <$cube>::entries(self)
            }
        }
    };
}
snapshot_via_inherent!(DdcEngine<i64>, usize);
snapshot_via_inherent!(GrowableCube<i64>, i64);

/// Sweeps an injected fault across every byte offset of `cube`'s
/// snapshot: truncated loads, mid-stream read faults, and mid-stream
/// write faults must all surface as `Err`, never as panics or silent
/// corruption.
pub fn fault_sweep<S: Snapshot>(cube: &S, config: DdcConfig) -> FaultSweepReport {
    let mut buf = Vec::new();
    cube.save(&mut buf).expect("in-memory save");
    let mut report = FaultSweepReport {
        offsets: buf.len(),
        ..Default::default()
    };

    for cut in 0..buf.len() {
        probe(&mut report, cut, "truncated-load", || {
            match S::load(&mut &buf[..cut], config) {
                Err(_) => Ok(()),
                Ok(_) => Err("truncated stream loaded".to_string()),
            }
        });
        probe(&mut report, cut, "failing-reader-load", || {
            match S::load(&mut FailingReader::new(&buf, cut), config) {
                Err(_) => Ok(()),
                Ok(_) => Err("faulted read loaded".to_string()),
            }
        });
        probe(&mut report, cut, "failing-writer-save", || {
            let mut w = FailingWriter::new(cut);
            match cube.save(&mut w) {
                Err(_) => Ok(()),
                Ok(_) => Err("save ignored write fault".to_string()),
            }
        });
    }

    report.roundtrip_ok = match S::load(&mut buf.as_slice(), config) {
        Ok(restored) => {
            let mut a = restored.entries();
            let mut b = cube.entries();
            a.sort();
            b.sort();
            a == b
        }
        Err(_) => false,
    };
    report
}
