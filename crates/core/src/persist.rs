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

fn write_i64(out: &mut impl Write, v: i64) -> io::Result<()> {
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

fn read_i64(input: &mut impl Read) -> io::Result<i64> {
    let mut b = [0u8; 8];
    input.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
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

impl<G: AbelianGroup + ValueCodec> DdcEngine<G> {
    /// Writes a sparse snapshot of the cube through a buffered writer,
    /// flushing before return. Returns the snapshot size in bytes so
    /// callers can fsync/verify the exact durable extent.
    pub fn save(&self, out: &mut impl Write) -> io::Result<u64> {
        let site = persist_obs();
        let span = obs::timer();
        let mut w = CountingWriter::new(io::BufWriter::new(&mut *out));
        w.write_all(MAGIC)?;
        w.write_all(&[0u8])?;
        let d = self.shape().ndim();
        write_u32(&mut w, d as u32)?;
        for &n in self.shape().dims() {
            write_u64(&mut w, n as u64)?;
        }
        let entries = self.entries();
        write_u64(&mut w, entries.len() as u64)?;
        for (p, v) in &entries {
            for &c in p {
                write_u64(&mut w, c as u64)?;
            }
            v.encode(&mut w)?;
        }
        w.flush()?;
        site.save_bytes.add(w.written);
        span.observe("persist.save", &site.save_ns);
        Ok(w.written)
    }

    /// Reads a snapshot written by [`DdcEngine::save`], rebuilding under
    /// `config` (snapshots are structure-agnostic).
    pub fn load(input: &mut impl Read, config: DdcConfig) -> io::Result<Self> {
        let site = persist_obs();
        let span = obs::timer();
        let d = read_header(input, 0)?;
        let mut dims = Vec::with_capacity(d);
        for _ in 0..d {
            let n = read_u64(input)?;
            let n =
                usize::try_from(n).map_err(|_| bad("dimension extent exceeds address space"))?;
            // The engine rounds each extent up to a power of two; an extent
            // with no representable next power of two would panic the
            // constructor, so reject it as a corrupt header here.
            if n.checked_next_power_of_two().is_none() {
                return Err(bad("dimension extent exceeds address space"));
            }
            dims.push(n);
        }
        // try_new re-checks emptiness and rejects cell-count overflow, so a
        // corrupt header can't panic the allocator downstream.
        let shape = Shape::try_new(&dims)
            .map_err(|e| bad(&format!("implausible shape in snapshot header: {e}")))?;
        let count =
            usize::try_from(read_u64(input)?).map_err(|_| bad("implausible entry count"))?;
        // Entries are distinct populated cells; more entries than cells
        // means the header lies, so fail before looping over the payload.
        if count > shape.cells() {
            return Err(bad("entry count exceeds cube capacity"));
        }
        let mut engine = Self::with_config(shape.clone(), config);
        // Paging activates before replay so the rebuilt leaves land on
        // pages from the start (the bound is in scope here).
        engine.enable_paging()?;
        let mut p = vec![0usize; d];
        for _ in 0..count {
            for c in p.iter_mut() {
                *c = read_u64(input)? as usize;
            }
            if !shape.contains(&p) {
                return Err(bad("entry outside declared shape"));
            }
            let v = G::decode(input)?;
            if !v.is_zero() {
                engine.apply_delta(&p, v);
            }
        }
        span.observe("persist.load", &site.load_ns);
        Ok(engine)
    }
}

impl<G: AbelianGroup + ValueCodec> GrowableCube<G> {
    /// Writes a sparse snapshot with signed logical coordinates through a
    /// buffered writer, flushing before return. Returns the snapshot size
    /// in bytes.
    pub fn save(&self, out: &mut impl Write) -> io::Result<u64> {
        let site = persist_obs();
        let span = obs::timer();
        let mut w = CountingWriter::new(io::BufWriter::new(&mut *out));
        w.write_all(MAGIC)?;
        w.write_all(&[1u8])?;
        let d = self.ndim();
        write_u32(&mut w, d as u32)?;
        for &o in self.origin() {
            write_i64(&mut w, o)?;
        }
        let entries = self.entries();
        write_u64(&mut w, entries.len() as u64)?;
        for (p, v) in &entries {
            for &c in p {
                write_i64(&mut w, c)?;
            }
            v.encode(&mut w)?;
        }
        w.flush()?;
        site.save_bytes.add(w.written);
        span.observe("persist.save", &site.save_ns);
        Ok(w.written)
    }

    /// Reads a snapshot written by [`GrowableCube::save`].
    pub fn load(input: &mut impl Read, config: DdcConfig) -> io::Result<Self> {
        Self::load_spilling(input, config, None)
    }

    /// [`GrowableCube::load`], paging the leaves onto `spill` when the
    /// caller opened one.
    pub(crate) fn load_spilling(
        input: &mut impl Read,
        config: DdcConfig,
        spill: Option<SpillFile>,
    ) -> io::Result<Self> {
        let site = persist_obs();
        let span = obs::timer();
        let d = read_header(input, 1)?;
        let mut origin = Vec::with_capacity(d);
        for _ in 0..d {
            origin.push(read_i64(input)?);
        }
        let count =
            usize::try_from(read_u64(input)?).map_err(|_| bad("implausible entry count"))?;
        let mut cube = Self::with_origin(&origin, config);
        // As in `DdcEngine::load`: page the leaves before replaying.
        cube.tree.page_leaves(spill)?;
        let mut p = vec![0i64; d];
        for _ in 0..count {
            for c in p.iter_mut() {
                *c = read_i64(input)?;
            }
            let v = G::decode(input)?;
            if !v.is_zero() {
                cube.check_cover(&p).map_err(|e| bad(&e.to_string()))?;
                cube.add(&p, v);
            }
        }
        span.observe("persist.load", &site.load_ns);
        Ok(cube)
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
