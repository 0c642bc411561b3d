//! Binary persistence for data cubes.
//!
//! Cubes snapshot to a compact sparse format — only populated cells are
//! written — so a mostly-empty star catalog (§5) serializes in space
//! proportional to its data, matching the in-memory story. The format is
//! deliberately simple and versioned:
//!
//! ```text
//! magic "DDC1" | u8 kind (0 = fixed-shape, 1 = growable)
//! u32 d | d × u64 shape (kind 0)  or  d × i64 origin (kind 1)
//! u64 entry count | entries: d × (u64 | i64) coords + value bytes
//! ```
//!
//! Measure values serialize through [`ValueCodec`], implemented for the
//! stock groups (`i64`, `f64`, pairs).

use crate::sync::{Arc, OnceLock};
use std::io::{self, Read, Write};

use ddc_array::{AbelianGroup, Pair, RangeSumEngine, Shape};

use crate::config::DdcConfig;
use crate::engine::DdcEngine;
use crate::growth::GrowableCube;
use crate::obs;
use crate::store::SpillFile;
use crate::tree::MAX_RANK;

const MAGIC: &[u8; 4] = b"DDC1";

/// Snapshot-path observability handles (save/load latency and volume),
/// cached off the registry lock.
struct PersistObs {
    save_ns: Arc<obs::Histogram>,
    load_ns: Arc<obs::Histogram>,
    save_bytes: Arc<obs::Counter>,
}

fn persist_obs() -> &'static PersistObs {
    static OBS: OnceLock<PersistObs> = OnceLock::new();
    OBS.get_or_init(|| PersistObs {
        save_ns: obs::histogram("persist.save"),
        load_ns: obs::histogram("persist.load"),
        save_bytes: obs::counter("persist.save.bytes"),
    })
}

/// Fixed-width binary encoding of a measure value.
pub trait ValueCodec: Sized {
    /// Encoded size in bytes.
    const WIDTH: usize;

    /// Writes the value.
    fn encode(&self, out: &mut impl Write) -> io::Result<()>;

    /// Reads one value.
    fn decode(input: &mut impl Read) -> io::Result<Self>;
}

impl ValueCodec for i64 {
    const WIDTH: usize = 8;

    fn encode(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(&self.to_le_bytes())
    }

    fn decode(input: &mut impl Read) -> io::Result<Self> {
        let mut b = [0u8; 8];
        input.read_exact(&mut b)?;
        Ok(i64::from_le_bytes(b))
    }
}

impl ValueCodec for f64 {
    const WIDTH: usize = 8;

    fn encode(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(&self.to_le_bytes())
    }

    fn decode(input: &mut impl Read) -> io::Result<Self> {
        let mut b = [0u8; 8];
        input.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
}

impl<A: ValueCodec, B: ValueCodec> ValueCodec for Pair<A, B> {
    const WIDTH: usize = A::WIDTH + B::WIDTH;

    fn encode(&self, out: &mut impl Write) -> io::Result<()> {
        self.a.encode(out)?;
        self.b.encode(out)
    }

    fn decode(input: &mut impl Read) -> io::Result<Self> {
        Ok(Pair {
            a: A::decode(input)?,
            b: B::decode(input)?,
        })
    }
}

fn write_u32(out: &mut impl Write, v: u32) -> io::Result<()> {
    out.write_all(&v.to_le_bytes())
}

fn write_u64(out: &mut impl Write, v: u64) -> io::Result<()> {
    out.write_all(&v.to_le_bytes())
}

fn read_u32(input: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    input.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(input: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    input.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Counts logical bytes as they pass through to the sink, so `save` can
/// report the exact snapshot size for fsync/verify bookkeeping.
struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> CountingWriter<W> {
    fn new(inner: W) -> Self {
        Self { inner, written: 0 }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn read_header(input: &mut impl Read, expect_kind: u8) -> io::Result<usize> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a DDC snapshot (bad magic)"));
    }
    let mut kind = [0u8; 1];
    input.read_exact(&mut kind)?;
    if kind[0] != expect_kind {
        return Err(bad("snapshot kind mismatch (fixed vs growable)"));
    }
    let d = read_u32(input)? as usize;
    if d == 0 || d > MAX_RANK {
        return Err(bad(&format!(
            "implausible dimensionality {d} (a cube has 1..={MAX_RANK})"
        )));
    }
    Ok(d)
}

/// Writes a snapshot of `kind` through a buffered writer, flushing
/// before return: the magic, the kind, one `header` word per dimension,
/// the entry count, then each entry's coordinates and value, every
/// header word and coordinate `word`'s eight little-endian bytes.
/// Returns the snapshot size in bytes so callers can fsync/verify the
/// exact durable extent.
fn save_snapshot<C: Copy, G: ValueCodec>(
    out: &mut impl Write,
    kind: u8,
    header: &[C],
    entries: &[(Vec<C>, G)],
    word: fn(C) -> u64,
) -> io::Result<u64> {
    let site = persist_obs();
    let span = site.save_ns.span("persist.save");
    let mut w = CountingWriter::new(io::BufWriter::new(&mut *out));
    w.write_all(MAGIC)?;
    w.write_all(&[kind])?;
    write_u32(&mut w, header.len() as u32)?;
    for &h in header {
        write_u64(&mut w, word(h))?;
    }
    write_u64(&mut w, entries.len() as u64)?;
    for (p, v) in entries {
        for &c in p {
            write_u64(&mut w, word(c))?;
        }
        v.encode(&mut w)?;
    }
    w.flush()?;
    site.save_bytes.add(w.written);
    span.end();
    Ok(w.written)
}

/// Reads a snapshot of `kind` written by [`save_snapshot`]: `start`
/// builds the cube from the raw header words and the entry count, and
/// `put` checks and lands each entry, its coordinates read by `coord`.
fn load_snapshot<C: Copy + Default, G: ValueCodec, T>(
    input: &mut impl Read,
    kind: u8,
    coord: fn(u64) -> C,
    start: impl FnOnce(&[u64], usize) -> io::Result<T>,
    mut put: impl FnMut(&mut T, &[C], G) -> io::Result<()>,
) -> io::Result<T> {
    let site = persist_obs();
    let span = site.load_ns.span("persist.load");
    let d = read_header(input, kind)?;
    let header = (0..d)
        .map(|_| read_u64(input))
        .collect::<io::Result<Vec<_>>>()?;
    let count = usize::try_from(read_u64(input)?).map_err(|_| bad("implausible entry count"))?;
    let mut cube = start(&header, count)?;
    let mut p = vec![C::default(); d];
    for _ in 0..count {
        for c in p.iter_mut() {
            *c = coord(read_u64(input)?);
        }
        put(&mut cube, &p, G::decode(input)?)?;
    }
    span.end();
    Ok(cube)
}

impl<G: AbelianGroup + ValueCodec> DdcEngine<G> {
    /// Writes a sparse snapshot of the cube through a buffered writer,
    /// flushing before return. Returns the snapshot size in bytes so
    /// callers can fsync/verify the exact durable extent.
    pub fn save(&self, out: &mut impl Write) -> io::Result<u64> {
        save_snapshot(out, 0, self.shape().dims(), &self.entries(), |c| c as u64)
    }

    /// Reads a snapshot written by [`DdcEngine::save`], rebuilding under
    /// `config` (snapshots are structure-agnostic).
    pub fn load(input: &mut impl Read, config: DdcConfig) -> io::Result<Self> {
        let start = |extents: &[u64], count: usize| {
            // The engine rounds each extent up to a power of two; an
            // extent with no representable next power of two would panic
            // the constructor, so reject it as a corrupt header here.
            let mut dims = Vec::with_capacity(extents.len());
            for &n in extents {
                match usize::try_from(n) {
                    Ok(n) if n.checked_next_power_of_two().is_some() => dims.push(n),
                    _ => return Err(bad("dimension extent exceeds address space")),
                }
            }
            // try_new re-checks emptiness and rejects cell-count overflow,
            // so a corrupt header can't panic the allocator downstream.
            let shape = Shape::try_new(&dims)
                .map_err(|e| bad(&format!("implausible shape in snapshot header: {e}")))?;
            // Entries are distinct populated cells; more entries than
            // cells means the header lies, so fail before looping over
            // the payload.
            if count > shape.cells() {
                return Err(bad("entry count exceeds cube capacity"));
            }
            let mut engine = Self::with_config(shape, config);
            // Paging activates before replay so the rebuilt leaves land
            // on pages from the start (the bound is in scope here).
            engine.enable_paging()?;
            Ok(engine)
        };
        let put = |engine: &mut Self, p: &[usize], v: G| {
            if !engine.shape().contains(p) {
                return Err(bad("entry outside declared shape"));
            }
            if !v.is_zero() {
                engine.apply_delta(p, v);
            }
            Ok(())
        };
        load_snapshot(input, 0, |c| c as usize, start, put)
    }
}

impl<G: AbelianGroup + ValueCodec> GrowableCube<G> {
    /// Writes a sparse snapshot with signed logical coordinates through a
    /// buffered writer, flushing before return. Returns the snapshot size
    /// in bytes.
    pub fn save(&self, out: &mut impl Write) -> io::Result<u64> {
        save_snapshot(out, 1, self.origin(), &self.entries(), |c| c as u64)
    }

    /// Reads a snapshot written by [`GrowableCube::save`].
    pub fn load(input: &mut impl Read, config: DdcConfig) -> io::Result<Self> {
        Self::load_spilling(input, config, None)
    }

    /// The rank a [`GrowableCube::save`] snapshot declares, read from its
    /// header alone.
    pub fn snapshot_rank(input: &mut impl Read) -> io::Result<usize> {
        read_header(input, 1)
    }

    /// [`GrowableCube::load`], paging the leaves onto `spill` when the
    /// caller opened one.
    pub(crate) fn load_spilling(
        input: &mut impl Read,
        config: DdcConfig,
        spill: Option<SpillFile>,
    ) -> io::Result<Self> {
        let start = |origin: &[u64], _| {
            let origin: Vec<i64> = origin.iter().map(|&o| o as i64).collect();
            let mut cube = Self::with_origin(&origin, config);
            // As in `DdcEngine::load`: page the leaves before replaying.
            cube.tree.page_leaves(spill)?;
            Ok(cube)
        };
        let put = |cube: &mut Self, p: &[i64], v: G| {
            if !v.is_zero() {
                cube.check_cover(p).map_err(|e| bad(&e.to_string()))?;
                cube.add(p, v);
            }
            Ok(())
        };
        load_snapshot(input, 1, |c| c as i64, start, put)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_array::RangeSumEngine;

    #[test]
    fn engine_save_load_roundtrip() {
        let mut e = DdcEngine::<i64>::dynamic(Shape::new(&[9, 13]));
        e.apply_delta(&[0, 0], 4);
        e.apply_delta(&[8, 12], -7);
        e.apply_delta(&[4, 6], 100);
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        let restored = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::sparse()).unwrap();
        assert_eq!(restored.shape().dims(), &[9, 13]);
        for p in e.shape().iter_points() {
            assert_eq!(restored.cell(&p), e.cell(&p), "{p:?}");
        }
    }

    #[test]
    fn growable_save_load_roundtrip() {
        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        cube.add(&[-100, 40], 6);
        cube.add(&[3_000, -2], 9);
        let mut buf = Vec::new();
        cube.save(&mut buf).unwrap();
        let restored =
            GrowableCube::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap();
        assert_eq!(restored.cell(&[-100, 40]), 6);
        assert_eq!(restored.cell(&[3_000, -2]), 9);
        assert_eq!(restored.total(), 15);
    }

    /// Snapshot format v1 as the writer before the shared codec saved
    /// it, one image per kind: the codec must still write these bytes
    /// and load them back.
    #[test]
    fn v1_snapshots_are_written_and_read_byte_for_byte() {
        let word = |w: i64| w.to_le_bytes();
        let fixed = [
            &b"DDC1"[..],
            &[0],
            &2u32.to_le_bytes(),
            &word(3), // shape 3 × 5
            &word(5),
            &word(2), // two entries
            &word(0),
            &word(1),
            &word(7), // [0, 1] = 7
            &word(2),
            &word(4),
            &word(-4), // [2, 4] = -4
        ]
        .concat();
        let growable = [
            &b"DDC1"[..],
            &[1],
            &2u32.to_le_bytes(),
            &word(-16), // origin (-16, -32)
            &word(-32),
            &word(2), // two entries
            &word(2),
            &word(-1),
            &word(-6), // [2, -1] = -6
            &word(-3),
            &word(5),
            &word(11), // [-3, 5] = 11
        ]
        .concat();

        let mut e = DdcEngine::<i64>::dynamic(Shape::new(&[3, 5]));
        e.apply_delta(&[0, 1], 7);
        e.apply_delta(&[2, 4], -4);
        let mut buf = Vec::new();
        assert_eq!(e.save(&mut buf).unwrap(), fixed.len() as u64);
        assert_eq!(buf, fixed);
        let loaded = DdcEngine::<i64>::load(&mut fixed.as_slice(), DdcConfig::dynamic()).unwrap();
        assert_eq!(loaded.entries(), e.entries());

        let mut cube = GrowableCube::<i64>::new(2, DdcConfig::sparse());
        cube.add(&[-3, 5], 11);
        cube.add(&[2, -1], -6);
        let mut buf = Vec::new();
        assert_eq!(cube.save(&mut buf).unwrap(), growable.len() as u64);
        assert_eq!(buf, growable);
        assert_eq!(
            GrowableCube::<i64>::snapshot_rank(&mut growable.as_slice()).unwrap(),
            2
        );
        let loaded =
            GrowableCube::<i64>::load(&mut growable.as_slice(), DdcConfig::dynamic()).unwrap();
        assert_eq!(loaded.origin(), &[-16, -32]);
        assert_eq!(loaded.entries(), cube.entries());
    }

    #[test]
    fn pair_values_roundtrip() {
        let mut e = DdcEngine::<Pair<i64, i64>>::dynamic(Shape::new(&[4]));
        e.apply_delta(&[2], Pair::new(10, 1));
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        let restored =
            DdcEngine::<Pair<i64, i64>>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap();
        assert_eq!(restored.cell(&[2]), Pair::new(10, 1));
    }

    #[test]
    fn snapshot_size_tracks_population() {
        let mut e = DdcEngine::<i64>::dynamic(Shape::cube(2, 1024));
        e.apply_delta(&[5, 5], 1);
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        // Header + one entry, not a megacell dump.
        assert!(buf.len() < 100, "snapshot is {} bytes", buf.len());
    }

    #[test]
    fn save_truncate_load_roundtrip() {
        // save → truncate → load: bytes-written is exact, every truncation
        // errors, and only the full image loads.
        let mut e = DdcEngine::<i64>::dynamic(Shape::new(&[6, 5]));
        e.apply_delta(&[1, 2], 11);
        e.apply_delta(&[5, 4], -3);
        let mut buf = Vec::new();
        let written = e.save(&mut buf).unwrap();
        assert_eq!(written as usize, buf.len());
        assert!(DdcEngine::<i64>::load(&mut &buf[..buf.len() - 1], DdcConfig::dynamic()).is_err());
        let restored = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap();
        assert_eq!(restored.cell(&[1, 2]), 11);

        let mut cube = GrowableCube::<i64>::new(3, DdcConfig::sparse());
        cube.add(&[-1, 0, 7], 21);
        let mut buf = Vec::new();
        let written = cube.save(&mut buf).unwrap();
        assert_eq!(written as usize, buf.len());
        for cut in 0..buf.len() {
            assert!(
                GrowableCube::<i64>::load(&mut &buf[..cut], DdcConfig::sparse()).is_err(),
                "truncation at byte {cut} was accepted"
            );
        }
        let restored = GrowableCube::<i64>::load(&mut buf.as_slice(), DdcConfig::sparse()).unwrap();
        assert_eq!(restored.cell(&[-1, 0, 7]), 21);
    }

    #[test]
    fn rejects_corrupt_input() {
        let garbage = b"NOPE\x00\x00\x00\x00";
        assert!(DdcEngine::<i64>::load(&mut garbage.as_slice(), DdcConfig::dynamic()).is_err());
        // Right magic, wrong kind byte.
        let mut buf = Vec::new();
        let e = DdcEngine::<i64>::dynamic(Shape::new(&[2, 2]));
        e.save(&mut buf).unwrap();
        assert!(GrowableCube::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).is_err());
        // Truncated stream.
        let cut = &buf[..buf.len().saturating_sub(1).min(10)];
        assert!(DdcEngine::<i64>::load(&mut &cut[..], DdcConfig::dynamic()).is_err());
    }

    /// Builds a fixed-kind header: magic, kind 0, d, dims, entry count.
    fn fixed_header(dims: &[u64], count: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(0);
        buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &n in dims {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        buf.extend_from_slice(&count.to_le_bytes());
        buf
    }

    #[test]
    fn rejects_malformed_headers_without_allocating() {
        // Absurd dimensionality: d = 2^31.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(0);
        buf.extend_from_slice(&(1u32 << 31).to_le_bytes());
        let err = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
        assert!(err.to_string().contains("dimensionality"), "{err}");

        // One rank past what a tree is built for, in either kind.
        let mut buf = fixed_header(&[2; MAX_RANK + 1], 0);
        let err = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("1..=8"), "{err}");
        buf[4] = 1;
        let err = GrowableCube::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
        assert!(err.to_string().contains("1..=8"), "{err}");

        // Shape whose cell count overflows usize must not reach Shape::new.
        let buf = fixed_header(&[1 << 40, 1 << 40], 0);
        let err = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
        assert!(err.to_string().contains("implausible shape"), "{err}");

        // Zero-sized dimension.
        let buf = fixed_header(&[4, 0], 0);
        let err = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
        assert!(err.to_string().contains("implausible shape"), "{err}");

        // Entry count larger than the cube has cells.
        let buf = fixed_header(&[2, 2], 5);
        let err = DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).unwrap_err();
        assert!(err.to_string().contains("entry count"), "{err}");
    }

    #[test]
    fn truncation_at_every_offset_errors_cleanly() {
        let mut e = DdcEngine::<i64>::dynamic(Shape::new(&[3, 3]));
        e.apply_delta(&[0, 1], 7);
        e.apply_delta(&[2, 2], -4);
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        for cut in 0..buf.len() {
            let r = DdcEngine::<i64>::load(&mut &buf[..cut], DdcConfig::dynamic());
            assert!(r.is_err(), "truncation at byte {cut} was accepted");
        }
        // And the untruncated stream still loads.
        assert!(DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).is_ok());
    }

    #[test]
    fn rejects_out_of_shape_entry() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(0);
        buf.extend_from_slice(&1u32.to_le_bytes()); // d = 1
        buf.extend_from_slice(&4u64.to_le_bytes()); // shape [4]
        buf.extend_from_slice(&1u64.to_le_bytes()); // one entry
        buf.extend_from_slice(&9u64.to_le_bytes()); // coord 9 ≥ 4
        buf.extend_from_slice(&1i64.to_le_bytes());
        assert!(DdcEngine::<i64>::load(&mut buf.as_slice(), DdcConfig::dynamic()).is_err());
    }
}
