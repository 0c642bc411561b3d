//! The log's on-disk vocabulary: format constants, the CRC, and the
//! update record's payload codec (layout in the [module docs](super)).

use std::io;

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

/// The one record tag, the update (tags 2 and 3 are retired; see the
/// [module docs](super)).
const TAG_UPDATE: u8 = 1;

/// Encodes the payload of one update record (everything after the
/// frame), in the growable cube's signed logical coordinates. The
/// `io::Result` comes from [`ValueCodec::encode`]; writes into a
/// `Vec<u8>` cannot themselves fail, but a codec is free to reject a
/// value, and that must surface as an append error, not a panic.
pub(super) fn encode_update<G: ValueCodec>(
    out: &mut Vec<u8>,
    point: &[i64],
    delta: &G,
) -> io::Result<()> {
    out.push(TAG_UPDATE);
    out.extend_from_slice(&(point.len() as u32).to_le_bytes());
    for &c in point {
        out.extend_from_slice(&c.to_le_bytes());
    }
    delta.encode(out)
}

/// Decodes one update payload into `point` (cleared first, so a scan
/// reuses one buffer for every record) and returns its delta. Any
/// structural problem — a retired or unknown tag included — is an
/// error: the caller treats it as a corrupt record and truncates there.
pub(super) fn decode_update<G: ValueCodec>(
    mut payload: &[u8],
    point: &mut Vec<i64>,
) -> Result<G, String> {
    let input = &mut payload;
    let mut tag = [0u8; 1];
    read_exactly(input, &mut tag)?;
    if tag[0] != TAG_UPDATE {
        return Err(format!("unknown record tag {}", tag[0]));
    }
    let mut b4 = [0u8; 4];
    read_exactly(input, &mut b4)?;
    let d = u32::from_le_bytes(b4) as usize;
    if d == 0 || d > 64 {
        return Err(format!("implausible dimensionality {d}"));
    }
    point.clear();
    let mut b8 = [0u8; 8];
    for _ in 0..d {
        read_exactly(input, &mut b8)?;
        point.push(i64::from_le_bytes(b8));
    }
    let delta = G::decode(input).map_err(|e| format!("value: {e}"))?;
    if !input.is_empty() {
        return Err(format!("{} trailing payload bytes", input.len()));
    }
    Ok(delta)
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
