//! Little-endian byte codec and the CRC-32 used to frame every block.
//!
//! Everything in the store's on-disk format is built from three primitive
//! encodings — `u32`, `u64` and `f64` (as IEEE-754 bits) in little-endian
//! order — plus the CRC-32/ISO-HDLC checksum (the ubiquitous IEEE
//! polynomial used by gzip and PNG). Keeping the codec here, separate from
//! the framing logic, means the segment and WAL writers cannot disagree on
//! byte order.

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// `0xEDB88320`, built at compile time. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the register contribution
/// of byte `b` followed by `k` zero bytes, which lets [`crc32_update`]
/// fold eight input bytes per step with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (ISO-HDLC / "crc32" in gzip, zip, PNG) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, bytes))
}

/// Initial state for an incremental CRC-32 ([`crc32_update`] /
/// [`crc32_finish`]), for checksums over non-contiguous slices.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Fold `bytes` into a running CRC-32 state, eight bytes per step
/// (slicing-by-8), finishing any remainder byte by byte. The state is the
/// same register the byte-at-a-time algorithm keeps, so a message split
/// at any points folds to the same value.
pub fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Finalize an incremental CRC-32 state into the checksum value.
pub fn crc32_finish(c: u32) -> u32 {
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit hash of `bytes`. The segment fingerprint folds a
/// segment's stored per-region CRC-32 words through it (see
/// `segment::SegmentMeta::fingerprint`): a few hundred bytes, not the
/// file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append a `u32` in little-endian order.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian order.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern, little-endian. Round-trips
/// every value (including NaN payloads and signed zero) exactly, which is
/// what makes store reads byte-identical to the writer's floats.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

/// Read a little-endian `u32` at `off`, or `None` past the end.
pub fn read_u32(b: &[u8], off: usize) -> Option<u32> {
    let s = b.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Read a little-endian `u64` at `off`, or `None` past the end.
pub fn read_u64(b: &[u8], off: usize) -> Option<u64> {
    let s = b.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

/// Read an `f64` stored as IEEE-754 bits at `off`.
pub fn read_f64(b: &[u8], off: usize) -> Option<f64> {
    read_u64(b, off).map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop slicing-by-8 replaced: the reference the
    /// fast path must match bit for bit.
    fn crc32_update_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    #[test]
    fn slicing_by_8_matches_bytewise_reference() {
        use rand::Rng as _;
        let mut rng = aiio_testkit::rng(0x5EED_C4C3);
        let pool: Vec<u8> = (0..300 + 16).map(|_| rng.gen()).collect();
        for len in 0..=300usize {
            // Every start offset within an 8-byte word, so the fast loop
            // sees each alignment of its input.
            for start in 0..8usize {
                let buf = &pool[start..start + len];
                let want = crc32_update_bytewise(CRC32_INIT, buf);
                assert_eq!(
                    crc32_update(CRC32_INIT, buf),
                    want,
                    "len {len} start {start}"
                );
                // The same bytes fed in random pieces fold identically.
                let mut c = CRC32_INIT;
                let mut rest = buf;
                while !rest.is_empty() {
                    let (head, tail) = rest.split_at(rng.gen_range(0..=rest.len()));
                    c = crc32_update(c, head);
                    rest = tail;
                }
                assert_eq!(c, want, "split feed, len {len} start {start}");
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn scalar_roundtrips() {
        let mut buf = Vec::new();
        push_u32(&mut buf, 0xDEAD_BEEF);
        push_u64(&mut buf, u64::MAX - 7);
        push_f64(&mut buf, -0.0);
        push_f64(&mut buf, f64::NAN);
        assert_eq!(read_u32(&buf, 0), Some(0xDEAD_BEEF));
        assert_eq!(read_u64(&buf, 4), Some(u64::MAX - 7));
        assert_eq!(
            read_f64(&buf, 12).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(
            read_f64(&buf, 20).map(f64::to_bits),
            Some(f64::NAN.to_bits())
        );
        assert_eq!(read_u32(&buf, buf.len() - 3), None);
        assert_eq!(read_u64(&buf, usize::MAX - 2), None);
    }
}
