//! Sealed segments: immutable, columnar, checksummed.
//!
//! A sealed segment is one file holding `n_rows` jobs in column-major
//! order. Every region is independently CRC-32 framed so corruption is
//! pinned to a block, and the whole file is written to a staging path and
//! atomically renamed into place — a crash mid-seal leaves only a stale
//! staging file, never a half-written segment.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ header   magic "AIIOSEG1" · version · n_rows · n_cols    │
//! │          base_ordinal · dict_len · CRC32(header)         │
//! ├──────────────────────────────────────────────────────────┤
//! │ app dictionary (JSON array of names) · CRC32(dict)       │
//! ├──────────────────────────────────────────────────────────┤
//! │ column 0:  n_rows × 8 B cells · CRC32(block)             │
//! │ column 1:  …                                             │
//! │ …          (53 columns, see `schema`)                    │
//! ├──────────────────────────────────────────────────────────┤
//! │ footer   per-column zone map (min,max) · CRC32(footer)   │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! `base_ordinal` is the global row ordinal of the segment's first job; it
//! is how recovery detects (and removes) stale pre-compaction segments
//! whose rows are already covered by a merged successor.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use aiio_darshan::JobLog;

use crate::codec::{crc32, fnv1a64, push_u32, push_u64, read_u32, read_u64};
use crate::error::{Result, StoreError};
use crate::schema::{
    decode_row, encode_row, zone_value, COL_APP, COL_YEAR, FORMAT_VERSION, N_STORE_COLUMNS,
};

/// Segment file magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"AIIOSEG1";

/// Fixed byte size of the segment header.
pub const HEADER_LEN: usize = 36;

/// Name of the staging file seals write through before the atomic rename.
pub const STAGING_NAME: &str = "seg-staging.tmp";

/// Suffix a corrupt segment is renamed to when quarantined.
pub const QUARANTINE_SUFFIX: &str = "quarantine";

const MAX_ROWS: u32 = 1 << 28;
const MAX_DICT_LEN: u32 = 1 << 26;

/// Per-column min/max over a sealed segment — the zone map scans use to
/// skip segments that cannot contain a matching row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Smallest value in the column.
    pub min: f64,
    /// Largest value in the column.
    pub max: f64,
}

/// Everything the store keeps in memory about one sealed segment: identity,
/// row extent and the zone map. The row data itself stays on disk until a
/// scan streams it.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Path of the sealed file.
    pub path: PathBuf,
    /// Monotonic segment id (the number in `seg-<id>.seg`).
    pub id: u64,
    /// Rows in the segment.
    pub rows: usize,
    /// Global ordinal of the first row.
    pub base_ordinal: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Content identity the segment cache keys on, so an entry cached
    /// for one generation of a path can never be served for another
    /// (compaction reuses the first member's id). It is the FNV-1a 64
    /// fold of the segment's own stored CRC-32 words — header,
    /// dictionary, each column, footer: 224 bytes, not the file. Each
    /// word is the checksum of its region's content, so any change to
    /// any region changes a folded word. (The whole-file CRC would not
    /// do: every region is stored as `data ‖ crc32(data)`, and a CRC run
    /// over its own appended checksum lands on a content-independent
    /// residue. The fold never runs a CRC over a stored CRC.)
    pub fingerprint: u64,
    /// One entry per store column.
    pub zones: Vec<ZoneEntry>,
}

impl SegmentMeta {
    /// Ordinal one past the segment's last row.
    pub fn end_ordinal(&self) -> u64 {
        self.base_ordinal + self.rows as u64
    }
}

/// File name of segment `id`.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.seg")
}

/// Parse a `seg-<id>.seg` file name back to its id.
pub fn parse_segment_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

fn corrupt(path: &Path, offset: u64, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        offset,
        detail: detail.into(),
    }
}

fn format_err(path: &Path, detail: impl Into<String>) -> StoreError {
    StoreError::Format {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Serialize `jobs` into segment bytes (header, dictionary, columns,
/// zone-map footer).
fn encode_segment(base_ordinal: u64, jobs: &[JobLog]) -> Vec<u8> {
    // App dictionary in order of first appearance, so ingesting the same
    // jobs always produces byte-identical segments.
    let mut dict: Vec<String> = Vec::new();
    let mut dict_index: BTreeMap<&str, u64> = BTreeMap::new();
    for job in jobs {
        if !dict_index.contains_key(job.app.as_str()) {
            dict_index.insert(job.app.as_str(), dict.len() as u64);
            dict.push(job.app.clone());
        }
    }
    let dict_json = serde_json::to_vec(&dict).unwrap_or_else(|_| b"[]".to_vec());

    let rows: Vec<[u64; N_STORE_COLUMNS]> = jobs
        .iter()
        .map(|job| {
            let idx = dict_index.get(job.app.as_str()).copied().unwrap_or(0);
            encode_row(job, idx)
        })
        .collect();

    let mut out = Vec::with_capacity(
        HEADER_LEN + dict_json.len() + 4 + N_STORE_COLUMNS * (jobs.len() * 8 + 4 + 16) + 4,
    );
    out.extend_from_slice(SEGMENT_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, jobs.len() as u32);
    push_u32(&mut out, N_STORE_COLUMNS as u32);
    push_u64(&mut out, base_ordinal);
    push_u32(&mut out, dict_json.len() as u32);
    let header_crc = crc32(&out[8..]);
    push_u32(&mut out, header_crc);

    out.extend_from_slice(&dict_json);
    push_u32(&mut out, crc32(&dict_json));

    let mut zones = Vec::with_capacity(N_STORE_COLUMNS);
    for col in 0..N_STORE_COLUMNS {
        let start = out.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for row in &rows {
            push_u64(&mut out, row[col]);
            let v = zone_value(col, row[col]);
            min = min.min(v);
            max = max.max(v);
        }
        let block_crc = crc32(&out[start..]);
        push_u32(&mut out, block_crc);
        zones.push(ZoneEntry { min, max });
    }

    let footer_start = out.len();
    for z in &zones {
        push_u64(&mut out, z.min.to_bits());
        push_u64(&mut out, z.max.to_bits());
    }
    let footer_crc = crc32(&out[footer_start..]);
    push_u32(&mut out, footer_crc);
    out
}

/// Seal `jobs` into `dir/seg-<id>.seg` via the staging file + atomic
/// rename, fsyncing the staging file first so the rename publishes fully
/// durable bytes.
pub fn write_segment(
    dir: &Path,
    id: u64,
    base_ordinal: u64,
    jobs: &[JobLog],
) -> Result<SegmentMeta> {
    let bytes = encode_segment(base_ordinal, jobs);
    let staging = dir.join(STAGING_NAME);
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&staging)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    let path = dir.join(segment_file_name(id));
    std::fs::rename(&staging, &path)?;
    load_meta(&path)
}

struct ParsedHeader {
    n_rows: usize,
    dict_len: usize,
    base_ordinal: u64,
}

impl ParsedHeader {
    /// File length the header implies.
    fn file_len(&self) -> usize {
        self.footer_offset() + N_STORE_COLUMNS * 16 + 4
    }

    /// Bytes of one column block (its CRC word follows it).
    fn block_len(&self) -> usize {
        self.n_rows * 8
    }

    /// Offset of column `col`'s block; `N_STORE_COLUMNS` is the footer.
    fn column_offset(&self, col: usize) -> usize {
        HEADER_LEN + self.dict_len + 4 + col * (self.block_len() + 4)
    }

    fn footer_offset(&self) -> usize {
        self.column_offset(N_STORE_COLUMNS)
    }

    /// Offsets of the stored CRC words of every region, in fingerprint
    /// order: header, dictionary, each column, footer.
    fn crc_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        [HEADER_LEN - 4, HEADER_LEN + self.dict_len]
            .into_iter()
            .chain((0..N_STORE_COLUMNS).map(|c| self.column_offset(c) + self.block_len()))
            .chain(std::iter::once(self.file_len() - 4))
    }
}

/// Number of stored CRC words a segment carries (and its fingerprint
/// folds): header, dictionary, one per column, footer.
const N_CRC_WORDS: usize = N_STORE_COLUMNS + 3;

fn parse_header(path: &Path, bytes: &[u8]) -> Result<ParsedHeader> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(path, 0, "file shorter than segment header"));
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(format_err(path, "bad segment magic"));
    }
    let stored_crc = read_u32(bytes, HEADER_LEN - 4).unwrap_or(0);
    let actual_crc = crc32(&bytes[8..HEADER_LEN - 4]);
    if stored_crc != actual_crc {
        return Err(corrupt(path, 0, "header checksum mismatch"));
    }
    let version = read_u32(bytes, 8).unwrap_or(0);
    if version != FORMAT_VERSION {
        return Err(format_err(
            path,
            format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
        ));
    }
    let n_rows = read_u32(bytes, 12).unwrap_or(0);
    let n_cols = read_u32(bytes, 16).unwrap_or(0);
    let base_ordinal = read_u64(bytes, 20).unwrap_or(0);
    let dict_len = read_u32(bytes, 28).unwrap_or(0);
    if n_cols as usize != N_STORE_COLUMNS {
        return Err(format_err(
            path,
            format!("segment has {n_cols} columns, this build expects {N_STORE_COLUMNS}"),
        ));
    }
    if n_rows > MAX_ROWS || dict_len > MAX_DICT_LEN {
        return Err(corrupt(path, 8, "implausible row or dictionary size"));
    }
    Ok(ParsedHeader {
        n_rows: n_rows as usize,
        dict_len: dict_len as usize,
        base_ordinal,
    })
}

fn check_len(path: &Path, h: &ParsedHeader, len: u64) -> Result<()> {
    if len != h.file_len() as u64 {
        return Err(corrupt(
            path,
            len,
            format!(
                "truncated segment: {len} bytes on disk, header implies {}",
                h.file_len()
            ),
        ));
    }
    Ok(())
}

fn check_footer(path: &Path, h: &ParsedHeader, footer_and_crc: &[u8]) -> Result<()> {
    let (footer, stored) = footer_and_crc.split_at(footer_and_crc.len() - 4);
    if crc32(footer) != read_u32(stored, 0).unwrap_or(0) {
        return Err(corrupt(
            path,
            h.footer_offset() as u64,
            "zone-map footer checksum mismatch",
        ));
    }
    Ok(())
}

fn check_column(path: &Path, col: usize, off: usize, block_and_crc: &[u8]) -> Result<()> {
    let (block, stored) = block_and_crc.split_at(block_and_crc.len() - 4);
    if crc32(block) != read_u32(stored, 0).unwrap_or(0) {
        return Err(corrupt(
            path,
            off as u64,
            format!(
                "column `{}` checksum mismatch",
                crate::schema::column_name(col)
            ),
        ));
    }
    Ok(())
}

/// Open `path` and parse its header, reading only the header bytes.
fn open_header(path: &Path) -> Result<(File, ParsedHeader)> {
    let mut file = File::open(path)?;
    let mut head = Vec::with_capacity(HEADER_LEN);
    (&mut file).take(HEADER_LEN as u64).read_to_end(&mut head)?;
    let h = parse_header(path, &head)?;
    check_len(path, &h, file.metadata()?.len())?;
    Ok((file, h))
}

/// Read `buf.len()` bytes at `off`. The length was checked against the
/// header, so running out of bytes means the file shrank underneath the
/// read: that is damage, not an I/O failure.
fn read_at(path: &Path, file: &mut File, off: usize, buf: &mut [u8]) -> Result<()> {
    file.seek(SeekFrom::Start(off as u64))?;
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(path, off as u64, "segment shrank while being read")
        } else {
            StoreError::Io(e)
        }
    })
}

/// Load the metadata of a sealed segment: its header, its zone-map
/// footer and its stored per-region CRC words, verifying the header and
/// footer checksums but not the column data. Reads those few hundred
/// bytes, not the file; the length comes from the file's metadata.
pub fn load_meta(path: &Path) -> Result<SegmentMeta> {
    let (mut file, h) = open_header(path)?;
    let foff = h.footer_offset();
    let mut footer = vec![0u8; h.file_len() - foff];
    read_at(path, &mut file, foff, &mut footer)?;
    check_footer(path, &h, &footer)?;
    let zones = (0..N_STORE_COLUMNS)
        .map(|col| ZoneEntry {
            min: read_u64(&footer, col * 16).map_or(0.0, f64::from_bits),
            max: read_u64(&footer, col * 16 + 8).map_or(0.0, f64::from_bits),
        })
        .collect();
    let mut words = Vec::with_capacity(N_CRC_WORDS * 4);
    for off in h.crc_offsets() {
        let mut word = [0u8; 4];
        read_at(path, &mut file, off, &mut word)?;
        words.extend_from_slice(&word);
    }
    let id = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_segment_id)
        .ok_or_else(|| format_err(path, "segment file name is not seg-<id>.seg"))?;
    Ok(SegmentMeta {
        path: path.to_path_buf(),
        id,
        rows: h.n_rows,
        base_ordinal: h.base_ordinal,
        bytes: h.file_len() as u64,
        fingerprint: fnv1a64(&words),
        zones,
    })
}

/// The [`SegmentMeta::fingerprint`] of a whole segment image whose header
/// has been parsed: the fold of its stored CRC words.
fn image_fingerprint(h: &ParsedHeader, bytes: &[u8]) -> u64 {
    let mut words = Vec::with_capacity(N_CRC_WORDS * 4);
    for off in h.crc_offsets() {
        words.extend_from_slice(&bytes[off..off + 4]);
    }
    fnv1a64(&words)
}

/// Read and fully verify a sealed segment, decoding every row. Verifies
/// the header, dictionary, per-column and footer checksums; any mismatch
/// is a [`StoreError::Corrupt`] naming the offending block.
pub fn read_jobs(path: &Path) -> Result<Vec<JobLog>> {
    let bytes = std::fs::read(path)?;
    decode_jobs(path, &bytes).map(|(jobs, _)| jobs)
}

/// Check every checksum of a whole segment image and parse its app
/// dictionary — everything [`decode_jobs`] verifies short of the per-row
/// references, in the same order with the same errors.
fn verify_image(path: &Path, bytes: &[u8]) -> Result<(ParsedHeader, Vec<String>)> {
    let h = parse_header(path, bytes)?;
    check_len(path, &h, bytes.len() as u64)?;

    let dict_start = HEADER_LEN;
    let dict_end = dict_start + h.dict_len;
    let dict_bytes = &bytes[dict_start..dict_end];
    let stored = read_u32(bytes, dict_end).unwrap_or(0);
    if crc32(dict_bytes) != stored {
        return Err(corrupt(
            path,
            dict_start as u64,
            "app dictionary checksum mismatch",
        ));
    }
    let apps: Vec<String> = serde_json::from_slice(dict_bytes).map_err(|e| {
        corrupt(
            path,
            dict_start as u64,
            format!("app dictionary unparsable: {e}"),
        )
    })?;

    for col in 0..N_STORE_COLUMNS {
        let off = h.column_offset(col);
        check_column(path, col, off, &bytes[off..off + h.block_len() + 4])?;
    }
    check_footer(path, &h, &bytes[h.footer_offset()..])?;
    Ok((h, apps))
}

/// The cells of column `col` in a verified segment image.
fn column_cells<'a>(
    h: &ParsedHeader,
    bytes: &'a [u8],
    col: usize,
) -> impl Iterator<Item = u64> + 'a {
    let off = h.column_offset(col);
    bytes[off..off + h.block_len()]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
}

fn bad_row(path: &Path, r: usize) -> StoreError {
    corrupt(path, 0, format!("row {r} has out-of-range references"))
}

/// Decode (and fully CRC-verify) segment bytes already read from `path`,
/// returning the rows and the segment's [`SegmentMeta::fingerprint`] as
/// taken from the bytes just verified. Split out of [`read_jobs`] so the
/// segment cache can fill from, and identify, one read of the file.
pub fn decode_jobs(path: &Path, bytes: &[u8]) -> Result<(Vec<JobLog>, u64)> {
    let (h, apps) = verify_image(path, bytes)?;
    let mut rows = vec![[0u64; N_STORE_COLUMNS]; h.n_rows];
    for col in 0..N_STORE_COLUMNS {
        for (row, cell) in rows.iter_mut().zip(column_cells(&h, bytes, col)) {
            row[col] = cell;
        }
    }
    let mut jobs = Vec::with_capacity(h.n_rows);
    for (r, row) in rows.iter().enumerate() {
        jobs.push(decode_row(row, &apps).ok_or_else(|| bad_row(path, r))?);
    }
    Ok((jobs, image_fingerprint(&h, bytes)))
}

/// Fully verify a sealed segment without decoding it: every check
/// [`read_jobs`] makes — header, dictionary, per-column and footer
/// checksums, a parsable dictionary, and per row an app index inside the
/// dictionary and a year that fits a `u16` — in the same order, failing
/// with the same [`StoreError`], but building no `JobLog`.
pub fn verify_segment(path: &Path) -> Result<()> {
    let bytes = std::fs::read(path)?;
    let (h, apps) = verify_image(path, &bytes)?;
    let refs = column_cells(&h, &bytes, COL_APP).zip(column_cells(&h, &bytes, COL_YEAR));
    for (r, (app, year)) in refs.enumerate() {
        let app_ok = usize::try_from(app).is_ok_and(|i| i < apps.len());
        if !app_ok || u16::try_from(year).is_err() {
            return Err(bad_row(path, r));
        }
    }
    Ok(())
}

/// Read one raw column of a sealed segment, CRC-verified, without
/// decoding any rows. This is the targeted read behind segment hash-range
/// metadata: a rebalance plan needs only the job-id column
/// (`schema::COL_JOB_ID`) of each segment to know which target shards its
/// hash range spans — the header plus 8 bytes per row are read, not the
/// file.
pub fn read_column_u64(path: &Path, col: usize) -> Result<Vec<u64>> {
    if col >= N_STORE_COLUMNS {
        return Err(format_err(
            path,
            format!("column {col} out of range (store has {N_STORE_COLUMNS})"),
        ));
    }
    let (mut file, h) = open_header(path)?;
    let off = h.column_offset(col);
    let mut block = vec![0u8; h.block_len() + 4];
    read_at(path, &mut file, off, &mut block)?;
    check_column(path, col, off, &block)?;
    Ok(block[..h.block_len()]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

/// Rename a damaged segment aside (`seg-<id>.seg.quarantine`) so it never
/// shadows a live id again; returns the quarantine path.
pub fn quarantine(path: &Path) -> Result<PathBuf> {
    let mut name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("segment")
        .to_string();
    name.push('.');
    name.push_str(QUARANTINE_SUFFIX);
    let dest = path.with_file_name(name);
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_darshan::CounterId;

    fn job(i: u64, app: &str) -> JobLog {
        let mut j = JobLog::new(i, app, 2019 + (i % 3) as u16);
        j.counters.set(CounterId::PosixSeqReads, i as f64 * 1.5);
        j.counters.set(CounterId::Nprocs, 8.0);
        j.time.slowest_rank_seconds = 0.25 * (i + 1) as f64;
        j
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aiio_store_seg_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn seal_and_read_roundtrips_bit_exactly() {
        let dir = tmpdir("roundtrip");
        let jobs: Vec<JobLog> = (0..10)
            .map(|i| job(i, if i % 2 == 0 { "ior" } else { "e2e" }))
            .collect();
        let meta = write_segment(&dir, 1, 0, &jobs).unwrap();
        assert_eq!(meta.rows, 10);
        assert_eq!(meta.id, 1);
        assert_eq!(meta.end_ordinal(), 10);
        assert!(
            !dir.join(STAGING_NAME).exists(),
            "staging cleaned by rename"
        );
        let back = read_jobs(&meta.path).unwrap();
        assert_eq!(back, jobs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zone_maps_track_column_extents() {
        let dir = tmpdir("zones");
        let jobs: Vec<JobLog> = (3..9).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 2, 7, &jobs).unwrap();
        let col = crate::schema::counter_column(CounterId::PosixSeqReads);
        let z = meta.zones[col];
        assert_eq!(z.min.to_bits(), (4.5f64).to_bits());
        assert_eq!(z.max.to_bits(), (12.0f64).to_bits());
        let idz = meta.zones[crate::schema::COL_JOB_ID];
        assert_eq!(idz.min.to_bits(), 3.0f64.to_bits());
        assert_eq!(idz.max.to_bits(), 8.0f64.to_bits());
        assert_eq!(meta.base_ordinal, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_any_region_is_detected() {
        let dir = tmpdir("bitflip");
        let jobs: Vec<JobLog> = (0..6).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 3, 0, &jobs).unwrap();
        let clean = std::fs::read(&meta.path).unwrap();
        // Flip a bit in a handful of offsets spread over every region.
        for &off in &[
            9usize,
            HEADER_LEN + 2,
            HEADER_LEN + 40,
            clean.len() / 2,
            clean.len() - 10,
        ] {
            let mut bad = clean.clone();
            bad[off] ^= 0x10;
            std::fs::write(&meta.path, &bad).unwrap();
            let err = read_jobs(&meta.path);
            assert!(err.is_err(), "flip at {off} undetected");
        }
        std::fs::write(&meta.path, &clean).unwrap();
        assert!(read_jobs(&meta.path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected_by_meta_load() {
        let dir = tmpdir("trunc");
        let jobs: Vec<JobLog> = (0..6).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 4, 0, &jobs).unwrap();
        let clean = std::fs::read(&meta.path).unwrap();
        std::fs::write(&meta.path, &clean[..clean.len() - 17]).unwrap();
        assert!(matches!(
            load_meta(&meta.path),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn targeted_column_read_matches_full_decode() {
        let dir = tmpdir("colread");
        let jobs: Vec<JobLog> = (10..17).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 6, 0, &jobs).unwrap();
        let ids = read_column_u64(&meta.path, crate::schema::COL_JOB_ID).unwrap();
        assert_eq!(ids, (10..17).collect::<Vec<u64>>());
        assert!(read_column_u64(&meta.path, crate::schema::N_STORE_COLUMNS).is_err());
        // A flip inside the job-id column is caught by the targeted read.
        let clean = std::fs::read(&meta.path).unwrap();
        let mut bad = clean.clone();
        bad[HEADER_LEN + 40] ^= 0x04;
        std::fs::write(&meta.path, &bad).unwrap();
        assert!(read_column_u64(&meta.path, crate::schema::COL_JOB_ID).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_shape_segments_with_different_data_have_different_fingerprints() {
        let dir = tmpdir("fp_distinct");
        let a: Vec<JobLog> = (0..6).map(|i| job(i, "ior")).collect();
        let mut b = a.clone();
        b[3].time.slowest_rank_seconds += 1.0;
        let ma = write_segment(&dir, 1, 0, &a).unwrap();
        let mb = write_segment(&dir, 2, 0, &b).unwrap();
        assert_eq!(ma.bytes, mb.bytes, "same shape");
        assert_ne!(ma.fingerprint, mb.fingerprint);
        // Identical rows give an identical fingerprint, whatever the path.
        let mc = write_segment(&dir, 3, 0, &a).unwrap();
        assert_eq!(ma.fingerprint, mc.fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_meta_fingerprint_equals_the_fill_fingerprint() {
        let dir = tmpdir("fp_fill");
        let jobs: Vec<JobLog> = (0..9)
            .map(|i| job(i, if i % 3 == 0 { "a" } else { "bb" }))
            .collect();
        let meta = write_segment(&dir, 1, 4, &jobs).unwrap();
        let bytes = std::fs::read(&meta.path).unwrap();
        let (back, fingerprint) = decode_jobs(&meta.path, &bytes).unwrap();
        assert_eq!(back, jobs);
        assert_eq!(fingerprint, load_meta(&meta.path).unwrap().fingerprint);
        assert_eq!(fingerprint, meta.fingerprint);
        assert_eq!(meta.bytes, bytes.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrite cell `row` of column `col` and re-stamp that column's CRC,
    /// so the damage is invisible to every checksum.
    fn poke_cell(path: &Path, rows: usize, dict_len: usize, col: usize, row: usize, v: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        let off = HEADER_LEN + dict_len + 4 + col * (rows * 8 + 4);
        bytes[off + row * 8..off + row * 8 + 8].copy_from_slice(&v.to_le_bytes());
        let crc = crc32(&bytes[off..off + rows * 8]);
        bytes[off + rows * 8..off + rows * 8 + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn verify_segment_fails_exactly_where_decode_fails() {
        let dir = tmpdir("verify");
        let jobs: Vec<JobLog> = (0..5).map(|i| job(i, "ior")).collect();
        let meta = write_segment(&dir, 1, 0, &jobs).unwrap();
        let clean = std::fs::read(&meta.path).unwrap();
        let dict_len = serde_json::to_vec(&["ior"]).unwrap().len();
        verify_segment(&meta.path).unwrap();
        let same_error = |what: &str| {
            let want = read_jobs(&meta.path).map(|_| ()).map_err(|e| e.to_string());
            let got = verify_segment(&meta.path).map_err(|e| e.to_string());
            assert_eq!(got, want, "{what}");
            got
        };
        // A flipped bit anywhere: same error (or the same success) as a
        // full decode.
        for off in 0..clean.len() {
            let mut bad = clean.clone();
            bad[off] ^= 0x08;
            std::fs::write(&meta.path, &bad).unwrap();
            let _ = same_error(&format!("flip at {off}"));
        }
        // Checksum-valid damage only the row check sees.
        for (col, v, row) in [
            (COL_APP, 1u64, 2usize),
            (COL_YEAR, 70_000, 4),
            (COL_APP, u64::MAX, 0),
        ] {
            std::fs::write(&meta.path, &clean).unwrap();
            poke_cell(&meta.path, 5, dict_len, col, row, v);
            let err = same_error(&format!("col {col} row {row}")).unwrap_err();
            assert!(
                err.contains(&format!("row {row} has out-of-range")),
                "{err}"
            );
        }
        std::fs::write(&meta.path, &clean[..clean.len() - 3]).unwrap();
        same_error("truncated").unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_the_file_aside() {
        let dir = tmpdir("quar");
        let jobs: Vec<JobLog> = (0..2).map(|i| job(i, "x")).collect();
        let meta = write_segment(&dir, 5, 0, &jobs).unwrap();
        let q = quarantine(&meta.path).unwrap();
        assert!(!meta.path.exists());
        assert!(q.exists());
        assert!(q.to_string_lossy().ends_with(".quarantine"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_file_name(7), "seg-00000007.seg");
        assert_eq!(parse_segment_id("seg-00000007.seg"), Some(7));
        assert_eq!(parse_segment_id("seg-7.seg"), None);
        assert_eq!(parse_segment_id("seg-00000007.seg.quarantine"), None);
        assert_eq!(parse_segment_id("wal.bin"), None);
    }
}
