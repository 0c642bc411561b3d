//! The log's on-disk vocabulary: format constants, the CRC, and the
//! [`WalOp`] payload codec (layout in the [module docs](super)).

use std::io;

use ddc_array::AbelianGroup;

use crate::persist::ValueCodec;

/// Log header: magic plus a format version byte.
pub const WAL_MAGIC: &[u8; 4] = b"DDCW";
/// Current log format version.
pub const WAL_VERSION: u8 = 1;
/// Bytes of the segment header (`magic | version`).
pub const WAL_HEADER_BYTES: usize = 5;
/// Bytes of a record frame before its payload (`len | crc`).
pub const WAL_FRAME_BYTES: usize = 8;
/// Upper bound on a single record's payload, in bytes. A frame declaring
/// more than this is treated as corruption rather than an allocation
/// request — torn length fields must not OOM recovery.
pub const MAX_RECORD_BYTES: u64 = 1 << 24;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One logged mutation, in signed logical coordinates (the WAL speaks
/// the growable cube's language so growth in any direction is loggable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp<G> {
    /// Add `delta` at `point`.
    Update {
        /// Target cell.
        point: Vec<i64>,
        /// Added value.
        delta: G,
    },
    /// Set the cell at `point` to `value`.
    Set {
        /// Target cell.
        point: Vec<i64>,
        /// New value.
        value: G,
    },
    /// The covered box grew by `amount` cells along `axis` (bookkeeping;
    /// carries no cell data — the growable cube re-grows organically on
    /// replay).
    Grow {
        /// Axis that grew.
        axis: usize,
        /// Cells added.
        amount: usize,
        /// Toward negative coordinates when true.
        low: bool,
    },
}

const TAG_UPDATE: u8 = 1;
const TAG_SET: u8 = 2;
const TAG_GROW: u8 = 3;

fn point_payload<G: ValueCodec>(
    out: &mut Vec<u8>,
    tag: u8,
    point: &[i64],
    v: &G,
) -> io::Result<()> {
    out.push(tag);
    out.extend_from_slice(&(point.len() as u32).to_le_bytes());
    for &c in point {
        out.extend_from_slice(&c.to_le_bytes());
    }
    v.encode(out)
}

/// The payload of a [`WalOp::Update`], from borrowed parts: a group of
/// updates is framed without building an op per record.
pub(super) fn encode_update<G: ValueCodec>(
    out: &mut Vec<u8>,
    point: &[i64],
    delta: &G,
) -> io::Result<()> {
    point_payload(out, TAG_UPDATE, point, delta)
}

impl<G: AbelianGroup + ValueCodec> WalOp<G> {
    /// Encodes the record payload (everything after the frame). The
    /// `io::Result` comes from [`ValueCodec::encode`]; writes into a
    /// `Vec<u8>` cannot themselves fail, but a codec is free to reject
    /// a value, and that must surface as an append error, not a panic.
    pub(super) fn encode_payload(&self, out: &mut Vec<u8>) -> io::Result<()> {
        match self {
            WalOp::Update { point, delta } => point_payload(out, TAG_UPDATE, point, delta),
            WalOp::Set { point, value } => point_payload(out, TAG_SET, point, value),
            WalOp::Grow { axis, amount, low } => {
                out.push(TAG_GROW);
                out.extend_from_slice(&(*axis as u32).to_le_bytes());
                out.extend_from_slice(&(*amount as u64).to_le_bytes());
                out.push(u8::from(*low));
                Ok(())
            }
        }
    }

    /// Decodes one payload. Any structural problem is an error — the
    /// caller treats it as a corrupt record and truncates there.
    pub(super) fn decode_payload(mut payload: &[u8]) -> Result<Self, String> {
        let input = &mut payload;
        let mut tag = [0u8; 1];
        read_exactly(input, &mut tag)?;
        match tag[0] {
            TAG_UPDATE | TAG_SET => {
                let mut b4 = [0u8; 4];
                read_exactly(input, &mut b4)?;
                let d = u32::from_le_bytes(b4) as usize;
                if d == 0 || d > 64 {
                    return Err(format!("implausible dimensionality {d}"));
                }
                let mut point = Vec::with_capacity(d);
                let mut b8 = [0u8; 8];
                for _ in 0..d {
                    read_exactly(input, &mut b8)?;
                    point.push(i64::from_le_bytes(b8));
                }
                let v = G::decode(input).map_err(|e| format!("value: {e}"))?;
                if !input.is_empty() {
                    return Err(format!("{} trailing payload bytes", input.len()));
                }
                Ok(if tag[0] == TAG_UPDATE {
                    WalOp::Update { point, delta: v }
                } else {
                    WalOp::Set { point, value: v }
                })
            }
            TAG_GROW => {
                let mut b4 = [0u8; 4];
                read_exactly(input, &mut b4)?;
                let axis = u32::from_le_bytes(b4) as usize;
                let mut b8 = [0u8; 8];
                read_exactly(input, &mut b8)?;
                let amount = usize::try_from(u64::from_le_bytes(b8))
                    .map_err(|_| "growth amount exceeds address space".to_string())?;
                let mut low = [0u8; 1];
                read_exactly(input, &mut low)?;
                if low[0] > 1 {
                    return Err(format!("bad grow direction byte {}", low[0]));
                }
                if !input.is_empty() {
                    return Err(format!("{} trailing payload bytes", input.len()));
                }
                Ok(WalOp::Grow {
                    axis,
                    amount,
                    low: low[0] == 1,
                })
            }
            other => Err(format!("unknown record tag {other}")),
        }
    }
}

fn read_exactly(input: &mut &[u8], buf: &mut [u8]) -> Result<(), String> {
    if input.len() < buf.len() {
        return Err("payload shorter than declared".to_string());
    }
    let (head, rest) = input.split_at(buf.len());
    buf.copy_from_slice(head);
    *input = rest;
    Ok(())
}
