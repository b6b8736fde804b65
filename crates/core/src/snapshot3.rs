//! `PKGMSS3` — the alignment-aware, section-offset snapshot layout, and
//! the one on-disk format of a serving table.
//!
//! It replaced the `PKGMSS1`/`PKGMSS2` row streams, whose every load
//! decoded the whole table into heap memory: at the paper's 142.6M-item
//! scale that is a serving node that spends minutes faulting a 68 GiB
//! table into RAM it may not have. `PKGMSS3` instead lays the table out so
//! the on-disk bytes *are* the serving format:
//!
//! ```text
//! offset  size  field
//!      0     8  magic "PKGMSS3\0"
//!      8     4  version (u32, = 1)
//!     12     4  flags   (u32, bit0 = quantized)
//!     16     4  dim     (u32)                     rows are 2·dim floats
//!     20     4  k       (u32)
//!     24     8  n_rows  (u64)                     rows in THIS shard
//!     32     8  row_start (u64)                   global id of row 0
//!     40     4  n_shards (u32)  44  4  shard_id (u32)
//!     48     4  block   (u32, 0 for dense)
//!     52     4  n_sections (u32)
//!     56     8  n_exact (u64)
//!     64   24·n section table: kind u32, crc32 u32, offset u64, len u64
//!      +     4  header_crc32 (over bytes [0, 64 + 24·n))
//!   4096   ...  sections, each page-aligned, zero padding between
//! ```
//!
//! Dense files carry sections `[DENSE_F32, FALLBACK_F32]`; quantized files
//! `[QDATA_I8, SCALES_F32, ROWERR_F32, EXACT_IDS_U32, EXACT_ROWS_F32,
//! FALLBACK_F32]` (escape ids are shard-local row indices). Because every
//! section starts on a page boundary, mapping the file and reinterpreting a
//! section as `&[f32]`/`&[u32]`/`&[i8]` is alignment-sound, and a row
//! lookup is pointer arithmetic into the mapping — no per-row decode, no
//! heap copy. The fallback (mean served row) is stored as its own section
//! so a mapped open never scans the table.
//!
//! Integrity: the header CRC and section bounds/alignment are always
//! verified at open. Section CRCs are verified eagerly only for sections
//! smaller than [`SS3_EAGER_CRC_LIMIT`] — checksumming a multi-GiB table
//! would defeat the O(1) startup this format exists for — while the
//! resident decoder ([`snapshot_from_bytes`]) verifies everything.
//! Files are written raw (no `PKGMAF1` container: its 28-byte header would
//! break page alignment relative to the file start); the magic keeps
//! loaders unambiguous.

use std::borrow::Cow;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::artifact::{crc32, crc32_update, ArtifactError};
use crate::le;
use crate::mmap::MmapRegion;
use crate::quant::{self, QuantTable};
use crate::serialize::SerializeError;
use crate::snapshot::{check_exact_ids, QuantizedRows, ServiceSnapshot, ShardSpec, Storage};

/// Leading bytes of every `PKGMSS3` snapshot file.
pub const SS3_MAGIC: &[u8; 8] = b"PKGMSS3\0";
/// Current `PKGMSS3` format version.
const SS3_VERSION: u32 = 1;
/// Header flag bit: rows are int8-quantized.
const FLAG_QUANTIZED: u32 = 1;
/// Section alignment: every section starts on a page boundary.
const PAGE: u64 = 4096;
/// Fixed header bytes before the section table.
const HEADER_FIXED: usize = 64;
/// Bytes per section-table entry.
const SECTION_ENTRY: usize = 24;
/// Mapped opens verify CRCs eagerly only for sections smaller than this;
/// larger sections rely on the always-verified header CRC + bounds checks
/// (the resident decoder verifies every section regardless of size).
pub const SS3_EAGER_CRC_LIMIT: u64 = 1 << 20;
/// Sanity ceiling on a stored quantization block size: blocks are
/// [`quant::QUANT_BLOCK`]-sized today, and anything huge in this field
/// means corrupt bytes, not a future format.
const MAX_BLOCK: u32 = 4096;

// Section kinds.
const SEC_DENSE_F32: u32 = 1;
const SEC_FALLBACK_F32: u32 = 2;
const SEC_QDATA_I8: u32 = 3;
const SEC_SCALES_F32: u32 = 4;
const SEC_ROWERR_F32: u32 = 5;
const SEC_EXACT_IDS_U32: u32 = 6;
const SEC_EXACT_ROWS_F32: u32 = 7;

const DENSE_KINDS: [u32; 2] = [SEC_DENSE_F32, SEC_FALLBACK_F32];
const QUANT_KINDS: [u32; 6] = [
    SEC_QDATA_I8,
    SEC_SCALES_F32,
    SEC_ROWERR_F32,
    SEC_EXACT_IDS_U32,
    SEC_EXACT_ROWS_F32,
    SEC_FALLBACK_F32,
];

fn corrupt(what: impl Into<String>) -> SerializeError {
    SerializeError::Corrupt(what.into())
}

fn align_page(off: u64) -> u64 {
    off.div_ceil(PAGE) * PAGE
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Section {
    kind: u32,
    crc: u32,
    offset: u64,
    len: u64,
}

#[derive(Debug, Clone)]
struct Header {
    quantized: bool,
    dim: u32,
    k: u32,
    n_rows: u64,
    shard: ShardSpec,
    block: u32,
    n_exact: u64,
    sections: Vec<Section>,
}

impl Header {
    fn row_len(&self) -> usize {
        2 * self.dim as usize
    }

    /// The section of `kind` (validation guarantees presence/uniqueness).
    fn section(&self, kind: u32) -> &Section {
        self.sections
            .iter()
            .find(|s| s.kind == kind)
            .expect("validated section present")
    }

    /// The bytes of the section of `kind` within the validated `bytes`.
    fn body<'a>(&self, bytes: &'a [u8], kind: u32) -> &'a [u8] {
        let s = self.section(kind);
        &bytes[s.offset as usize..(s.offset + s.len) as usize]
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_FIXED + self.sections.len() * SECTION_ENTRY + 4);
        out.extend_from_slice(SS3_MAGIC);
        out.extend_from_slice(&SS3_VERSION.to_le_bytes());
        let flags = if self.quantized { FLAG_QUANTIZED } else { 0 };
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.n_rows.to_le_bytes());
        out.extend_from_slice(&self.shard.row_start.to_le_bytes());
        out.extend_from_slice(&self.shard.n_shards.to_le_bytes());
        out.extend_from_slice(&self.shard.shard_id.to_le_bytes());
        out.extend_from_slice(&self.block.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.n_exact.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_FIXED);
        for s in &self.sections {
            out.extend_from_slice(&s.kind.to_le_bytes());
            out.extend_from_slice(&s.crc.to_le_bytes());
            out.extend_from_slice(&s.offset.to_le_bytes());
            out.extend_from_slice(&s.len.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

fn get_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn get_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Parse and fully validate a `PKGMSS3` header against the file length:
/// magic/version/flags, header CRC, section kinds and order, page-aligned
/// in-bounds non-overlapping sections, and exact per-kind section lengths.
/// Everything here is O(header), independent of table size.
fn parse_header(bytes: &[u8]) -> Result<Header, SerializeError> {
    if bytes.len() < HEADER_FIXED {
        return Err(corrupt(format!(
            "PKGMSS3 header truncated at {} bytes",
            bytes.len()
        )));
    }
    if &bytes[..8] != SS3_MAGIC {
        return Err(corrupt("bad PKGMSS3 magic"));
    }
    let version = get_u32(bytes, 8);
    if version != SS3_VERSION {
        return Err(corrupt(format!("unsupported PKGMSS3 version {version}")));
    }
    let flags = get_u32(bytes, 12);
    if flags & !FLAG_QUANTIZED != 0 {
        return Err(corrupt(format!("unsupported PKGMSS3 flags {flags:#x}")));
    }
    let quantized = flags & FLAG_QUANTIZED != 0;
    let dim = get_u32(bytes, 16);
    let k = get_u32(bytes, 20);
    let n_rows = get_u64(bytes, 24);
    let row_start = get_u64(bytes, 32);
    let n_shards = get_u32(bytes, 40);
    let shard_id = get_u32(bytes, 44);
    let block = get_u32(bytes, 48);
    let n_sections = get_u32(bytes, 52) as usize;
    let n_exact = get_u64(bytes, 56);

    if dim == 0 {
        return Err(corrupt("snapshot dim must be positive"));
    }
    if n_rows == 0 {
        return Err(corrupt("PKGMSS3 shard has zero rows"));
    }
    if n_shards == 0 || shard_id >= n_shards {
        return Err(corrupt(format!(
            "invalid shard spec: shard {shard_id} of {n_shards}"
        )));
    }
    // Entity ids are u32: the shard's global range must fit.
    let row_end = row_start
        .checked_add(n_rows)
        .filter(|&e| e <= u64::from(u32::MAX) + 1)
        .ok_or_else(|| corrupt("shard row range exceeds the u32 id space"))?;
    let _ = row_end;
    let row_len = 2 * dim as u64;
    let expected_kinds: &[u32] = if quantized {
        &QUANT_KINDS
    } else {
        &DENSE_KINDS
    };
    if n_sections != expected_kinds.len() {
        return Err(corrupt(format!(
            "expected {} sections, header declares {n_sections}",
            expected_kinds.len()
        )));
    }
    if quantized {
        if block == 0 || block > MAX_BLOCK || u64::from(block) > row_len {
            return Err(corrupt(format!("invalid quant block {block}")));
        }
        if n_exact > n_rows {
            return Err(corrupt(format!(
                "{n_exact} exact rows exceed the {n_rows}-row shard"
            )));
        }
    } else if block != 0 || n_exact != 0 {
        return Err(corrupt("dense PKGMSS3 must have block = n_exact = 0"));
    }

    let table_end = HEADER_FIXED + n_sections * SECTION_ENTRY;
    if bytes.len() < table_end + 4 {
        return Err(corrupt("PKGMSS3 section table truncated"));
    }
    let stored_crc = get_u32(bytes, table_end);
    let actual_crc = crc32(&bytes[..table_end]);
    if stored_crc != actual_crc {
        return Err(corrupt(format!(
            "header CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }

    let file_len = bytes.len() as u64;
    let nb = if quantized {
        row_len.div_ceil(u64::from(block))
    } else {
        0
    };
    let mut sections = Vec::with_capacity(n_sections);
    let mut min_next_offset = PAGE;
    for (i, &want_kind) in expected_kinds.iter().enumerate() {
        let off = HEADER_FIXED + i * SECTION_ENTRY;
        let s = Section {
            kind: get_u32(bytes, off),
            crc: get_u32(bytes, off + 4),
            offset: get_u64(bytes, off + 8),
            len: get_u64(bytes, off + 16),
        };
        if s.kind != want_kind {
            return Err(corrupt(format!(
                "section {i}: expected kind {want_kind}, found {}",
                s.kind
            )));
        }
        if !s.offset.is_multiple_of(PAGE) {
            return Err(corrupt(format!(
                "section {i} offset {} is not page-aligned",
                s.offset
            )));
        }
        if s.offset < min_next_offset {
            return Err(corrupt(format!(
                "section {i} offset {} overlaps the preceding bytes",
                s.offset
            )));
        }
        let end = s
            .offset
            .checked_add(s.len)
            .filter(|&e| e <= file_len)
            .ok_or_else(|| {
                corrupt(format!(
                    "section {i} [{}, +{}) exceeds the {file_len}-byte file",
                    s.offset, s.len
                ))
            })?;
        let expect_len = match want_kind {
            SEC_DENSE_F32 => n_rows.checked_mul(row_len).map(|x| x * 4),
            SEC_FALLBACK_F32 => Some(row_len * 4),
            SEC_QDATA_I8 => n_rows.checked_mul(row_len),
            SEC_SCALES_F32 => n_rows.checked_mul(nb).map(|x| x * 4),
            SEC_ROWERR_F32 => n_rows.checked_mul(4),
            SEC_EXACT_IDS_U32 => n_exact.checked_mul(4),
            SEC_EXACT_ROWS_F32 => n_exact.checked_mul(row_len).map(|x| x * 4),
            _ => unreachable!("expected kinds are exhaustive"),
        }
        .ok_or_else(|| corrupt("section size overflows u64"))?;
        if s.len != expect_len {
            return Err(corrupt(format!(
                "section {i} (kind {want_kind}) is {} bytes, expected {expect_len}",
                s.len
            )));
        }
        min_next_offset = align_page(end).max(PAGE);
        sections.push(s);
    }
    // Sections must be decodable on this host (usize indexing).
    if usize::try_from(file_len).is_err() {
        return Err(corrupt("file too large for this host"));
    }
    Ok(Header {
        quantized,
        dim,
        k,
        n_rows,
        shard: ShardSpec {
            n_shards,
            shard_id,
            row_start,
        },
        block,
        n_exact,
        sections,
    })
}

/// Whether byte `at` of the valid `PKGMSS3` file `bytes` is padding:
/// outside the CRC'd header and every section, so no check covers it.
pub(crate) fn is_padding(bytes: &[u8], at: usize) -> bool {
    let Ok(header) = parse_header(bytes) else {
        return false;
    };
    let at = at as u64;
    let header_end = (HEADER_FIXED + header.sections.len() * SECTION_ENTRY + 4) as u64;
    at >= header_end
        && !header
            .sections
            .iter()
            .any(|s| (s.offset..s.offset + s.len).contains(&at))
}

/// Verify section CRCs: all of them (`eager_limit = None`, the resident
/// decoder), or only sections smaller than the limit (mapped opens).
fn verify_section_crcs(
    bytes: &[u8],
    header: &Header,
    eager_limit: Option<u64>,
) -> Result<(), SerializeError> {
    for s in &header.sections {
        if eager_limit.is_some_and(|limit| s.len >= limit) {
            continue;
        }
        let body = &bytes[s.offset as usize..(s.offset + s.len) as usize];
        let actual = crc32(body);
        if actual != s.crc {
            return Err(corrupt(format!(
                "section kind {} CRC mismatch: stored {:#010x}, computed {actual:#010x}",
                s.kind, s.crc
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Zero-copy section views
// ---------------------------------------------------------------------------

/// Reinterpret a section as `&[f32]`. Sound: sections are page-aligned and
/// the region base is at least 8-byte aligned, every u32 bit pattern is a
/// valid f32, and the length was validated against the file size.
fn f32_section(bytes: &[u8], offset: usize, n: usize) -> &[f32] {
    let body = &bytes[offset..offset + 4 * n];
    debug_assert_eq!(body.as_ptr() as usize % 4, 0);
    unsafe { std::slice::from_raw_parts(body.as_ptr() as *const f32, n) }
}

fn u32_section(bytes: &[u8], offset: usize, n: usize) -> &[u32] {
    let body = &bytes[offset..offset + 4 * n];
    debug_assert_eq!(body.as_ptr() as usize % 4, 0);
    unsafe { std::slice::from_raw_parts(body.as_ptr() as *const u32, n) }
}

fn i8_section(bytes: &[u8], offset: usize, n: usize) -> &[i8] {
    let body = &bytes[offset..offset + n];
    unsafe { std::slice::from_raw_parts(body.as_ptr() as *const i8, n) }
}

/// Dense rows served straight out of a mapped `PKGMSS3` region.
#[derive(Debug, Clone)]
pub(crate) struct MappedDense {
    pub(crate) region: Arc<MmapRegion>,
    table_off: usize,
    n_rows: usize,
    row_len: usize,
}

impl MappedDense {
    pub(crate) fn table(&self) -> &[f32] {
        f32_section(
            self.region.bytes(),
            self.table_off,
            self.n_rows * self.row_len,
        )
    }

    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }
}

/// Quantized rows (data/scales/errors/escapes) served straight out of a
/// mapped `PKGMSS3` region, dequantizing through the same loop as the
/// resident [`QuantTable`] so both backings produce bit-identical floats.
#[derive(Debug, Clone)]
pub(crate) struct MappedQuant {
    pub(crate) region: Arc<MmapRegion>,
    row_len: usize,
    block: usize,
    n_rows: usize,
    n_exact: usize,
    data_off: usize,
    scales_off: usize,
    errs_off: usize,
    ids_off: usize,
    exact_off: usize,
}

impl MappedQuant {
    pub(crate) fn data(&self) -> &[i8] {
        i8_section(
            self.region.bytes(),
            self.data_off,
            self.n_rows * self.row_len,
        )
    }

    pub(crate) fn scales(&self) -> &[f32] {
        let nb = self.row_len.div_ceil(self.block);
        f32_section(self.region.bytes(), self.scales_off, self.n_rows * nb)
    }

    pub(crate) fn row_errs(&self) -> &[f32] {
        f32_section(self.region.bytes(), self.errs_off, self.n_rows)
    }

    pub(crate) fn exact_ids(&self) -> &[u32] {
        u32_section(self.region.bytes(), self.ids_off, self.n_exact)
    }

    pub(crate) fn exact_rows_f32(&self) -> &[f32] {
        f32_section(
            self.region.bytes(),
            self.exact_off,
            self.n_exact * self.row_len,
        )
    }

    pub(crate) fn block(&self) -> usize {
        self.block
    }

    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Serve local row `id` (exact escape if present, else dequantized) —
    /// the mapped twin of `QuantizedRows::row_into`.
    pub(crate) fn row_into(&self, id: usize, out: &mut [f32]) {
        if let Ok(e) = self.exact_ids().binary_search(&(id as u32)) {
            out.copy_from_slice(&self.exact_rows_f32()[e * self.row_len..(e + 1) * self.row_len]);
        } else {
            self.dequantize_into(id, out);
        }
    }

    pub(crate) fn dequantize_into(&self, row: usize, out: &mut [f32]) {
        quant::dequantize_row_into(
            self.data(),
            self.scales(),
            self.row_len,
            self.block,
            row,
            out,
        );
    }
}

// ---------------------------------------------------------------------------
// One-shot writer (bytes in memory)
// ---------------------------------------------------------------------------

fn i8s_as_bytes(xs: &[i8]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(xs.as_ptr() as *const u8, xs.len()) }
}

/// Serialize `snapshot` (either backing) into `PKGMSS3` bytes. Errors on
/// an empty table — a zero-row shard is never valid on disk.
pub fn snapshot_to_ss3_bytes(snapshot: &ServiceSnapshot) -> Result<Vec<u8>, SerializeError> {
    if snapshot.n_rows() == 0 {
        return Err(corrupt("refusing to write a zero-row PKGMSS3 shard"));
    }
    let fallback = le::as_bytes(snapshot.fallback_row());
    let bodies: Vec<(u32, Cow<'_, [u8]>)> = if let Some(q) = snapshot.quant_slices() {
        vec![
            (SEC_QDATA_I8, Cow::Borrowed(i8s_as_bytes(q.data))),
            (SEC_SCALES_F32, le::as_bytes(q.scales)),
            (SEC_ROWERR_F32, le::as_bytes(q.row_errs)),
            (SEC_EXACT_IDS_U32, le::as_bytes(q.exact_ids)),
            (SEC_EXACT_ROWS_F32, le::as_bytes(q.exact_rows)),
            (SEC_FALLBACK_F32, fallback),
        ]
    } else {
        let table = snapshot.dense_table().expect("dense snapshot");
        vec![
            (SEC_DENSE_F32, le::as_bytes(table)),
            (SEC_FALLBACK_F32, fallback),
        ]
    };

    let mut sections = Vec::with_capacity(bodies.len());
    let mut offset = PAGE;
    for (kind, body) in &bodies {
        sections.push(Section {
            kind: *kind,
            crc: crc32(body),
            offset,
            len: body.len() as u64,
        });
        offset = align_page(offset + body.len() as u64);
    }
    let header = Header {
        quantized: snapshot.is_quantized(),
        dim: snapshot.dim() as u32,
        k: snapshot.k() as u32,
        n_rows: snapshot.n_rows() as u64,
        shard: snapshot.shard(),
        block: snapshot.quant_slices().map_or(0, |q| q.block as u32),
        n_exact: snapshot
            .quant_slices()
            .map_or(0, |q| q.exact_ids.len() as u64),
        sections: sections.clone(),
    };
    let last = sections.last().expect("at least two sections");
    let total = (last.offset + last.len) as usize;
    let mut out = vec![0u8; total];
    let hbytes = header.encode();
    out[..hbytes.len()].copy_from_slice(&hbytes);
    for (s, (_, body)) in sections.iter().zip(&bodies) {
        out[s.offset as usize..s.offset as usize + body.len()].copy_from_slice(body);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Resident decode (full verification)
// ---------------------------------------------------------------------------

/// Decode `PKGMSS3` bytes into a fully resident snapshot, verifying the
/// header CRC, **every** section CRC and the quantized values (finite
/// nonnegative scales and row errors, sorted in-range escape ids) — the
/// trust-nothing path. The stored fallback section is served as is.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<ServiceSnapshot, SerializeError> {
    let header = parse_header(bytes)?;
    verify_section_crcs(bytes, &header, None)?;
    let section = |kind| header.body(bytes, kind);
    let storage = if header.quantized {
        let data = section(SEC_QDATA_I8).iter().map(|&b| b as i8).collect();
        let table = QuantTable::from_parts(
            header.row_len(),
            header.block as usize,
            data,
            le::to_vec(section(SEC_SCALES_F32)),
            le::to_vec(section(SEC_ROWERR_F32)),
        )
        .map_err(corrupt)?;
        let ids = le::to_vec(section(SEC_EXACT_IDS_U32));
        let exact_rows = le::to_vec(section(SEC_EXACT_ROWS_F32));
        Storage::Quantized(QuantizedRows::new(table, ids, exact_rows).map_err(corrupt)?)
    } else {
        Storage::Dense(le::to_vec(section(SEC_DENSE_F32)))
    };
    Ok(ServiceSnapshot::from_storage(
        header.dim as usize,
        header.k as usize,
        storage,
        le::to_vec(section(SEC_FALLBACK_F32)),
        header.shard,
    ))
}

// ---------------------------------------------------------------------------
// Mapped open
// ---------------------------------------------------------------------------

fn corrupt_at(path: &Path, e: SerializeError) -> ArtifactError {
    ArtifactError::Corrupt {
        path: path.to_path_buf(),
        what: e.to_string(),
    }
}

/// Open a `PKGMSS3` file for zero-copy serving: map it (heap-buffer
/// fallback where mapping is unavailable), validate the header and small
/// sections, and serve rows by pointer arithmetic into the region. Work
/// done here is O(header + small sections), independent of table size.
///
/// `force_heap` skips the `mmap` syscall (tests exercise the fallback);
/// the `PKGM_NO_MMAP` environment variable does the same globally.
pub fn open_mapped_snapshot(
    path: &Path,
    force_heap: bool,
) -> Result<ServiceSnapshot, ArtifactError> {
    let region = MmapRegion::open(path, force_heap).map_err(|source| ArtifactError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    if !region.bytes().starts_with(SS3_MAGIC) {
        return Err(ArtifactError::NotSnapshot {
            path: path.to_path_buf(),
        });
    }
    if cfg!(target_endian = "big") {
        // Zero-copy reinterpretation assumes little-endian storage; decode
        // resident instead so the file still serves correctly.
        return snapshot_from_bytes(region.bytes()).map_err(|e| corrupt_at(path, e));
    }
    let header = parse_header(region.bytes()).map_err(|e| corrupt_at(path, e))?;
    verify_section_crcs(region.bytes(), &header, Some(SS3_EAGER_CRC_LIMIT))
        .map_err(|e| corrupt_at(path, e))?;
    let fallback = le::to_vec(header.body(region.bytes(), SEC_FALLBACK_F32));
    let dim = header.dim as usize;
    let k = header.k as usize;
    let row_len = header.row_len();
    let n_rows = header.n_rows as usize;
    let region = Arc::new(region);
    let storage = if header.quantized {
        let m = MappedQuant {
            region: Arc::clone(&region),
            row_len,
            block: header.block as usize,
            n_rows,
            n_exact: header.n_exact as usize,
            data_off: header.section(SEC_QDATA_I8).offset as usize,
            scales_off: header.section(SEC_SCALES_F32).offset as usize,
            errs_off: header.section(SEC_ROWERR_F32).offset as usize,
            ids_off: header.section(SEC_EXACT_IDS_U32).offset as usize,
            exact_off: header.section(SEC_EXACT_ROWS_F32).offset as usize,
        };
        // Escape-id ordering is what makes binary_search sound; it is
        // cheap to check (≤ n_exact reads) and not covered by the lazy
        // CRC policy for large files.
        check_exact_ids(m.exact_ids(), n_rows).map_err(|e| corrupt_at(path, corrupt(e)))?;
        Storage::MappedQuantized(m)
    } else {
        Storage::MappedDense(MappedDense {
            region: Arc::clone(&region),
            table_off: header.section(SEC_DENSE_F32).offset as usize,
            n_rows,
            row_len,
        })
    };
    Ok(ServiceSnapshot::from_storage(
        dim,
        k,
        storage,
        fallback,
        header.shard,
    ))
}

// ---------------------------------------------------------------------------
// Streaming writers
// ---------------------------------------------------------------------------

/// A shard file being streamed: written under a temp name next to `dest`,
/// renamed over it by [`ShardFile::publish`], deleted if dropped before.
struct ShardFile {
    file: Option<File>,
    tmp: PathBuf,
    dest: PathBuf,
    published: bool,
}

impl ShardFile {
    /// Validate a shard of `n_rows` rows (must be > 0) covering global ids
    /// `[shard.row_start, shard.row_start + n_rows)`, and open its temp
    /// file with the cursor on the first section: the header is written
    /// last, once every section CRC is known. The gap stays zero (file
    /// holes read back as zeros), matching the one-shot writer's padding.
    fn create(dest: &Path, n_rows: u64, shard: ShardSpec) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        if n_rows == 0 {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "refusing to write a zero-row PKGMSS3 shard",
            ));
        }
        if shard.n_shards == 0 || shard.shard_id >= shard.n_shards {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "invalid shard spec: shard {} of {}",
                    shard.shard_id, shard.n_shards
                ),
            ));
        }
        if shard
            .row_start
            .checked_add(n_rows)
            .is_none_or(|e| e > u64::from(u32::MAX) + 1)
        {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "shard row range exceeds the u32 id space",
            ));
        }
        if let Some(parent) = dest.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file_name = dest
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| Error::new(ErrorKind::InvalidInput, "destination has no file name"))?;
        let tmp = dest.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
        // Read + write: the quantized writer re-reads its streamed payload.
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.seek(SeekFrom::Start(PAGE))?;
        Ok(Self {
            file: Some(file),
            tmp,
            dest: dest.to_path_buf(),
            published: false,
        })
    }

    fn file(&mut self) -> &mut File {
        self.file.as_mut().expect("shard file not yet published")
    }

    /// Write `header` over the first page, fsync, atomically rename into
    /// place, and best-effort fsync the directory so the rename is durable.
    fn publish(mut self, header: &Header) -> std::io::Result<()> {
        let mut file = self.file.take().expect("shard file not yet published");
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.dest)?;
        self.published = true;
        if let Some(parent) = self.dest.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

impl Drop for ShardFile {
    fn drop(&mut self) {
        if !self.published {
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Rows in `floats` for a writer that has `written` of `n_rows` rows:
/// whole `row_len`-float rows, never more than declared.
fn rows_in(floats: usize, row_len: usize, written: u64, n_rows: u64) -> std::io::Result<u64> {
    use std::io::{Error, ErrorKind};
    if !floats.is_multiple_of(row_len) {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            "rows must be whole multiples of 2*dim floats",
        ));
    }
    let n = (floats / row_len) as u64;
    if written + n > n_rows {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            format!("shard declared {n_rows} rows, writing more"),
        ));
    }
    Ok(n)
}

/// Errors unless all `n_rows` declared rows were written.
fn all_rows_written(written: u64, n_rows: u64) -> std::io::Result<()> {
    if written == n_rows {
        return Ok(());
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("shard declared {n_rows} rows, only {written} written"),
    ))
}

/// Streams a dense `PKGMSS3` shard to disk row-by-row without holding the
/// table in memory: rows are written (and CRC'd, and mean-accumulated)
/// as they arrive, the fallback + header land in [`Ss3DenseWriter::finish`],
/// and the file is published with the same temp + fsync + rename dance as
/// every other artifact. The bytes produced are identical to
/// [`snapshot_to_ss3_bytes`] on the same rows.
pub struct Ss3DenseWriter {
    out: ShardFile,
    dim: u32,
    k: u32,
    shard: ShardSpec,
    n_rows: u64,
    rows_written: u64,
    row_len: usize,
    /// Pre-finalized CRC state of the dense section.
    crc_state: u32,
    /// Running column sums for the fallback (same accumulation order as
    /// `snapshot::mean_row`, so the stored fallback is bit-identical to a
    /// resident build over the same rows).
    mean: Vec<f32>,
}

impl Ss3DenseWriter {
    /// Start a dense shard of exactly `n_rows` rows (must be > 0) covering
    /// global ids `[shard.row_start, shard.row_start + n_rows)`.
    pub fn create(
        dest: &Path,
        dim: usize,
        k: usize,
        n_rows: u64,
        shard: ShardSpec,
    ) -> std::io::Result<Self> {
        Ok(Self {
            out: ShardFile::create(dest, n_rows, shard)?,
            dim: dim as u32,
            k: k as u32,
            shard,
            n_rows,
            rows_written: 0,
            row_len: 2 * dim,
            crc_state: !0u32,
            mean: vec![0.0f32; 2 * dim],
        })
    }

    /// Append whole rows (`rows.len()` must be a multiple of `2·dim`).
    pub fn write_rows(&mut self, rows: &[f32]) -> std::io::Result<()> {
        let n = rows_in(rows.len(), self.row_len, self.rows_written, self.n_rows)?;
        let bytes = le::as_bytes(rows);
        self.out.file().write_all(&bytes)?;
        self.crc_state = crc32_update(self.crc_state, &bytes);
        for row in rows.chunks_exact(self.row_len) {
            for (m, &x) in self.mean.iter_mut().zip(row) {
                *m += x;
            }
        }
        self.rows_written += n;
        Ok(())
    }

    /// Write the fallback section and header, fsync, and atomically rename
    /// into place. Errors if fewer rows than declared were written.
    pub fn finish(mut self) -> std::io::Result<()> {
        all_rows_written(self.rows_written, self.n_rows)?;
        let dense_len = self.n_rows * self.row_len as u64 * 4;
        let fb_off = align_page(PAGE + dense_len);
        let mut fallback = std::mem::take(&mut self.mean);
        for m in &mut fallback {
            *m /= self.n_rows as f32;
        }
        let fb_bytes = le::as_bytes(&fallback);
        let file = self.out.file();
        file.seek(SeekFrom::Start(fb_off))?;
        file.write_all(&fb_bytes)?;
        let header = Header {
            quantized: false,
            dim: self.dim,
            k: self.k,
            n_rows: self.n_rows,
            shard: self.shard,
            block: 0,
            n_exact: 0,
            sections: vec![
                Section {
                    kind: SEC_DENSE_F32,
                    crc: !self.crc_state,
                    offset: PAGE,
                    len: dense_len,
                },
                Section {
                    kind: SEC_FALLBACK_F32,
                    crc: crc32(&fb_bytes),
                    offset: fb_off,
                    len: fb_bytes.len() as u64,
                },
            ],
        };
        self.out.publish(&header)
    }
}

/// Streams a **quantized** `PKGMSS3` shard to disk without ever holding
/// the dense f32 table: each incoming row is blockwise-int8 quantized with
/// the exact per-row loop of [`QuantTable::quantize_table`] and its i8
/// payload appended to the file immediately. Only per-row metadata stays
/// resident (one error f32 and `ceil(2d/block)` scale f32s per row — a few
/// percent of the dense bytes).
///
/// [`Ss3QuantWriter::finish`] then replays
/// [`ServiceSnapshot::quantize`]'s escape selection over the buffered
/// errors (median threshold, worst-first cap), pulls the escapes' verbatim
/// f32 rows back from the caller, and recomputes the fallback by
/// re-reading the quantized payload in one sequential pass — the same
/// ascending served-row accumulation as the resident build. The resulting
/// file is **byte-identical** to `snapshot_to_ss3_bytes` of
/// `shard.quantize()` on the same rows, so int8 shards still map zero-copy
/// through [`open_mapped_snapshot`].
pub struct Ss3QuantWriter {
    out: ShardFile,
    dim: u32,
    k: u32,
    shard: ShardSpec,
    n_rows: u64,
    rows_written: u64,
    row_len: usize,
    block: usize,
    /// Pre-finalized CRC state of the QDATA section.
    crc_state: u32,
    /// Per-block scales, `n_blocks(row_len, block)` per row.
    scales: Vec<f32>,
    /// Per-row measured error (inflated), the escape-selection input.
    row_errs: Vec<f32>,
    /// Quantized bytes of the `write_rows` call in flight, kept between
    /// calls so a row-at-a-time caller does not allocate per row.
    qbuf: Vec<u8>,
}

impl Ss3QuantWriter {
    /// Start a quantized shard of exactly `n_rows` rows (must be > 0)
    /// covering global ids `[shard.row_start, shard.row_start + n_rows)`.
    pub fn create(
        dest: &Path,
        dim: usize,
        k: usize,
        n_rows: u64,
        shard: ShardSpec,
    ) -> std::io::Result<Self> {
        let out = ShardFile::create(dest, n_rows, shard)?;
        let row_len = 2 * dim;
        let block = crate::quant::QUANT_BLOCK.min(row_len);
        let nb = row_len.div_ceil(block);
        Ok(Self {
            out,
            dim: dim as u32,
            k: k as u32,
            shard,
            n_rows,
            rows_written: 0,
            row_len,
            block,
            crc_state: !0u32,
            scales: Vec::with_capacity((n_rows as usize).saturating_mul(nb)),
            row_errs: Vec::with_capacity(n_rows as usize),
            qbuf: Vec::new(),
        })
    }

    /// Quantize and append whole rows (`rows.len()` must be a multiple of
    /// `2·dim`), using the exact arithmetic of
    /// [`QuantTable::quantize_table`] so the streamed payload is
    /// bit-identical to a one-shot quantization of the same table.
    pub fn write_rows(&mut self, rows: &[f32]) -> std::io::Result<()> {
        let n = rows_in(rows.len(), self.row_len, self.rows_written, self.n_rows)?;
        let mut bytes = std::mem::take(&mut self.qbuf);
        bytes.clear();
        bytes.reserve(rows.len());
        for row in rows.chunks_exact(self.row_len) {
            let mut err = 0.0f32;
            for chunk in row.chunks(self.block) {
                let amax = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let (scale, inv) = if amax > 0.0 {
                    (amax / 127.0, 127.0 / amax)
                } else {
                    (0.0, 0.0)
                };
                self.scales.push(scale);
                for &x in chunk {
                    let q = (x * inv).round().clamp(-127.0, 127.0) as i8;
                    bytes.push(q as u8);
                    err = err.max((x - q as f32 * scale).abs());
                }
            }
            self.row_errs.push(err * quant::ERR_INFLATE);
        }
        self.out.file().write_all(&bytes)?;
        self.crc_state = crc32_update(self.crc_state, &bytes);
        self.qbuf = bytes;
        self.rows_written += n;
        Ok(())
    }

    /// Select escape rows, fetch their verbatim f32 rows from `exact_row`
    /// (called with ascending shard-local row ids), rebuild the served-row
    /// fallback in one sequential re-read of the quantized payload, then
    /// write the metadata sections + header, fsync and atomically rename.
    pub fn finish(mut self, mut exact_row: impl FnMut(u64, &mut [f32])) -> std::io::Result<()> {
        use std::io::Read;
        all_rows_written(self.rows_written, self.n_rows)?;
        let file = self.out.file();
        let n_rows = self.n_rows as usize;
        let row_len = self.row_len;
        let nb = row_len.div_ceil(self.block);

        // Escape selection — the exact algorithm of
        // ServiceSnapshot::quantize: median threshold, worst offenders
        // first (ties by id), capped, stored ascending.
        let errs = &self.row_errs;
        let mut sorted = errs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite quant errors"));
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        let mut escapes: Vec<u32> = (0..n_rows as u32)
            .filter(|&i| errs[i as usize] > crate::snapshot::EXACT_ERR_FACTOR * median)
            .collect();
        escapes.sort_by(|&a, &b| {
            errs[b as usize]
                .partial_cmp(&errs[a as usize])
                .expect("finite quant errors")
                .then(a.cmp(&b))
        });
        escapes.truncate(n_rows / crate::snapshot::EXACT_ROW_DIVISOR);
        escapes.sort_unstable();
        let mut exact_rows = vec![0.0f32; escapes.len() * row_len];
        for (e, &id) in escapes.iter().enumerate() {
            exact_row(id as u64, &mut exact_rows[e * row_len..(e + 1) * row_len]);
        }

        // Fallback: the same ascending accumulation over *served* rows as
        // snapshot::mean_served_row, re-reading the quantized payload
        // sequentially instead of holding the dense table.
        let mut mean = vec![0.0f32; row_len];
        let mut row = vec![0.0f32; row_len];
        let mut qrow_u8 = vec![0u8; row_len];
        let mut qrow = vec![0i8; row_len];
        file.seek(SeekFrom::Start(PAGE))?;
        {
            let mut reader = std::io::BufReader::with_capacity(1 << 20, &mut *file);
            let mut next_escape = 0usize;
            for id in 0..n_rows {
                reader.read_exact(&mut qrow_u8)?;
                let served: &[f32] =
                    if next_escape < escapes.len() && escapes[next_escape] as usize == id {
                        let s = &exact_rows[next_escape * row_len..(next_escape + 1) * row_len];
                        next_escape += 1;
                        s
                    } else {
                        for (q, &b) in qrow.iter_mut().zip(&qrow_u8) {
                            *q = b as i8;
                        }
                        quant::dequantize_row_into(
                            &qrow,
                            &self.scales[id * nb..(id + 1) * nb],
                            row_len,
                            self.block,
                            0,
                            &mut row,
                        );
                        &row
                    };
                for (m, &x) in mean.iter_mut().zip(served) {
                    *m += x;
                }
            }
        }
        for m in &mut mean {
            *m /= n_rows as f32;
        }

        // Metadata sections, laid out exactly like the one-shot writer.
        let scales_b = le::as_bytes(&self.scales);
        let errs_b = le::as_bytes(&self.row_errs);
        let ids_b = le::as_bytes(&escapes);
        let exact_b = le::as_bytes(&exact_rows);
        let fb_b = le::as_bytes(&mean);

        let qdata_len = self.n_rows * row_len as u64;
        let mut sections = vec![Section {
            kind: SEC_QDATA_I8,
            crc: !self.crc_state,
            offset: PAGE,
            len: qdata_len,
        }];
        let mut offset = align_page(PAGE + qdata_len);
        for (kind, body) in [
            (SEC_SCALES_F32, &scales_b),
            (SEC_ROWERR_F32, &errs_b),
            (SEC_EXACT_IDS_U32, &ids_b),
            (SEC_EXACT_ROWS_F32, &exact_b),
            (SEC_FALLBACK_F32, &fb_b),
        ] {
            sections.push(Section {
                kind,
                crc: crc32(body),
                offset,
                len: body.len() as u64,
            });
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(body)?;
            offset = align_page(offset + body.len() as u64);
        }
        // Match the one-shot byte length exactly: no padding after the
        // final section.
        let last = sections.last().expect("six sections");
        file.set_len(last.offset + last.len)?;

        let header = Header {
            quantized: true,
            dim: self.dim,
            k: self.k,
            n_rows: self.n_rows,
            shard: self.shard,
            block: self.block as u32,
            n_exact: escapes.len() as u64,
            sections,
        };
        self.out.publish(&header)
    }
}

/// Split `n_rows` global rows into `n_shards` contiguous ranges (first
/// shards one row longer when it does not divide evenly). Returns each
/// shard's [`ShardSpec`] plus its row count.
pub fn shard_ranges(n_rows: u64, n_shards: u32) -> Vec<(ShardSpec, u64)> {
    assert!(n_shards > 0, "need at least one shard");
    let n = u64::from(n_shards);
    let base = n_rows / n;
    let extra = n_rows % n;
    let mut out = Vec::with_capacity(n_shards as usize);
    let mut start = 0u64;
    for s in 0..n_shards {
        let len = base + u64::from(u64::from(s) < extra);
        out.push((
            ShardSpec {
                n_shards,
                shard_id: s,
                row_start: start,
            },
            len,
        ));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PkgmConfig, PkgmModel};
    use crate::service::KnowledgeService;
    use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};

    fn service_n(n: u32) -> KnowledgeService {
        let mut b = StoreBuilder::new();
        for i in 0..n {
            b.add_raw(i, 0, n + i % 3);
            b.add_raw(i, 1, n + 3);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..n).map(|i| (EntityId(i), 0)).collect();
        let sel = KeyRelationSelector::build(&store, &pairs, 2, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(3),
        );
        KnowledgeService::new(model, sel)
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pkgm-ss3-{}-{name}", std::process::id()))
    }

    #[test]
    fn dense_roundtrip_resident_and_mapped() {
        let snap = ServiceSnapshot::build(&service_n(40));
        let bytes = snapshot_to_ss3_bytes(&snap).unwrap();
        let back = crate::serialize::snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.backing(), crate::snapshot::SnapshotBacking::Resident);

        let path = temp_path("dense-rt");
        std::fs::write(&path, &bytes).unwrap();
        for force_heap in [false, true] {
            let mapped = open_mapped_snapshot(&path, force_heap).unwrap();
            assert_eq!(mapped.backing(), crate::snapshot::SnapshotBacking::Mapped);
            assert_eq!(mapped, snap);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for i in 0..snap.n_rows() as u32 + 3 {
                let ra = snap.lookup_exact(EntityId(i), &mut a);
                let rb = mapped.lookup_exact(EntityId(i), &mut b);
                assert_eq!(ra, rb, "id {i}");
                assert_eq!(a, b, "id {i} rows must be bit-identical");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_roundtrip_resident_and_mapped() {
        let snap = ServiceSnapshot::build(&service_n(200)).quantize();
        let bytes = snapshot_to_ss3_bytes(&snap).unwrap();
        let back = crate::serialize::snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);

        let path = temp_path("quant-rt");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = open_mapped_snapshot(&path, true).unwrap();
        assert!(mapped.is_quantized());
        assert_eq!(mapped, snap);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..snap.n_rows() as u32 + 3 {
            assert_eq!(
                snap.lookup_exact(EntityId(i), &mut a),
                mapped.lookup_exact(EntityId(i), &mut b)
            );
            assert_eq!(a, b, "id {i} rows must be bit-identical");
        }
        // Round-trip a mapped snapshot back to bytes: identical file.
        assert_eq!(snapshot_to_ss3_bytes(&mapped).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_shard_roundtrip_serves_identical_condensed_rows() {
        // A quantized shard: slice the dense table, quantize the slice,
        // write, open mapped.
        let snap = ServiceSnapshot::build(&service_n(200));
        let ranges = shard_ranges(snap.n_rows() as u64, 2);
        let (spec, len) = ranges[1];
        let shard = snap.shard_slice(spec, len).unwrap().quantize();
        let bytes = snapshot_to_ss3_bytes(&shard).unwrap();
        let path = temp_path("quant-shard");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = open_mapped_snapshot(&path, true).unwrap();
        assert_eq!(mapped, shard);
        for gid in spec.row_start..spec.row_start + len {
            let want = shard.condensed(EntityId(gid as u32)).expect("in range");
            let got = mapped.condensed(EntityId(gid as u32)).expect("in range");
            let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(wb, gb, "id {gid} differs between backings");
            // Item rows carry signal; the trailing value entities (ids
            // ≥ 200 in service_n(200)) legitimately condense to zero.
            assert!(
                gid >= 200 || want.iter().any(|&x| x != 0.0),
                "id {gid}: quantized item row must not be all zeros"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_matches_one_shot_bytes() {
        let snap = ServiceSnapshot::build(&service_n(33));
        let expect = snapshot_to_ss3_bytes(&snap).unwrap();
        let table = snap.dense_table().unwrap();
        let row_len = 2 * snap.dim();
        let path = temp_path("stream");
        let mut w = Ss3DenseWriter::create(
            &path,
            snap.dim(),
            snap.k(),
            snap.n_rows() as u64,
            ShardSpec::default(),
        )
        .unwrap();
        // Deliberately ragged chunk sizes.
        let mut off = 0;
        for chunk in [5usize, 1, 20, 7].iter().cycle() {
            if off == snap.n_rows() {
                break;
            }
            let n = (*chunk).min(snap.n_rows() - off);
            w.write_rows(&table[off * row_len..(off + n) * row_len])
                .unwrap();
            off += n;
        }
        w.finish().unwrap();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got, expect, "streamed bytes must equal one-shot bytes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_quant_writer_matches_one_shot_bytes() {
        // Sharded so escape ids / row_start handling is exercised too.
        let snap = ServiceSnapshot::build(&service_n(90));
        let table = snap.dense_table().unwrap().to_vec();
        let row_len = 2 * snap.dim();
        for (spec, len) in shard_ranges(snap.n_rows() as u64, 3) {
            let shard = snap.shard_slice(spec, len).unwrap();
            let expect = snapshot_to_ss3_bytes(&shard.quantize()).unwrap();
            let shard_rows = &table[spec.row_start as usize * row_len..][..len as usize * row_len];
            let path = temp_path(&format!("qstream{}", spec.shard_id));
            let mut w = Ss3QuantWriter::create(&path, snap.dim(), snap.k(), len, spec).unwrap();
            let mut off = 0usize;
            for chunk in [3usize, 11, 1, 8].iter().cycle() {
                if off == len as usize {
                    break;
                }
                let n = (*chunk).min(len as usize - off);
                w.write_rows(&shard_rows[off * row_len..(off + n) * row_len])
                    .unwrap();
                off += n;
            }
            w.finish(|id, out| {
                out.copy_from_slice(&shard_rows[id as usize * row_len..][..row_len]);
            })
            .unwrap();
            let got = std::fs::read(&path).unwrap();
            assert_eq!(
                got, expect,
                "streamed quantized shard {} must equal one-shot bytes",
                spec.shard_id
            );
            // And the streamed file still maps zero-copy.
            let mapped = open_mapped_snapshot(&path, false).unwrap();
            assert_eq!(mapped, shard.quantize());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn sharded_lookups_translate_global_ids() {
        let snap = ServiceSnapshot::build(&service_n(40));
        let table = snap.dense_table().unwrap().to_vec();
        let row_len = 2 * snap.dim();
        let ranges = shard_ranges(snap.n_rows() as u64, 3);
        assert_eq!(
            ranges.iter().map(|(_, n)| n).sum::<u64>(),
            snap.n_rows() as u64
        );
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for (spec, len) in ranges {
            let path = temp_path(&format!("shard-{}", spec.shard_id));
            let mut w = Ss3DenseWriter::create(&path, snap.dim(), snap.k(), len, spec).unwrap();
            let s = spec.row_start as usize;
            w.write_rows(&table[s * row_len..(s + len as usize) * row_len])
                .unwrap();
            w.finish().unwrap();
            let shard = open_mapped_snapshot(&path, true).unwrap();
            assert_eq!(shard.shard(), spec);
            assert_eq!(shard.n_rows(), len as usize);
            // Global ids inside the range serve the same bits as the
            // whole-table snapshot; outside, the shard's own fallback.
            for id in 0..snap.n_rows() as u32 {
                let inside = shard.covers(id);
                assert_eq!(
                    inside,
                    (id as u64) >= spec.row_start && (id as u64) < spec.row_start + len
                );
                if inside {
                    assert!(shard.lookup_exact(EntityId(id), &mut got));
                    snap.lookup_exact(EntityId(id), &mut expect);
                    assert_eq!(got, expect, "global id {id}");
                } else {
                    assert!(!shard.lookup_exact(EntityId(id), &mut got));
                    assert_eq!(got.as_slice(), shard.fallback_row());
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Replace the body of section `kind` with `body` (same length) and
    /// re-sign its CRC and the header, so only value checks can object.
    fn patch_section(bytes: &mut [u8], kind: u32, body: &[u8]) {
        let mut header = parse_header(bytes).unwrap();
        let s = header.sections.iter_mut().find(|s| s.kind == kind).unwrap();
        bytes[s.offset as usize..][..body.len()].copy_from_slice(body);
        s.crc = crc32(body);
        let hbytes = header.encode();
        bytes[..hbytes.len()].copy_from_slice(&hbytes);
    }

    #[test]
    fn resident_decode_rejects_invalid_quantized_values() {
        let snap = ServiceSnapshot::build(&service_n(40)).quantize();
        let bytes = snapshot_to_ss3_bytes(&snap).unwrap();
        let header = parse_header(&bytes).unwrap();
        for kind in [SEC_SCALES_F32, SEC_ROWERR_F32] {
            for val in [f32::NAN, -1.0f32, f32::INFINITY] {
                let mut body = header.body(&bytes, kind).to_vec();
                body[..4].copy_from_slice(&val.to_le_bytes());
                let mut bad = bytes.clone();
                patch_section(&mut bad, kind, &body);
                assert!(
                    crate::serialize::snapshot_from_bytes(&bad).is_err(),
                    "section {kind} value {val}"
                );
            }
        }
    }

    #[test]
    fn both_decoders_serve_the_stored_fallback() {
        for snap in [
            ServiceSnapshot::build(&service_n(40)),
            ServiceSnapshot::build(&service_n(40)).quantize(),
        ] {
            let mut bytes = snapshot_to_ss3_bytes(&snap).unwrap();
            let stored: Vec<f32> = (0..2 * snap.dim()).map(|i| i as f32 + 0.5).collect();
            patch_section(&mut bytes, SEC_FALLBACK_F32, &le::as_bytes(&stored));
            let path = temp_path("fallback");
            std::fs::write(&path, &bytes).unwrap();
            let resident = crate::serialize::snapshot_from_bytes(&bytes).unwrap();
            let mapped = open_mapped_snapshot(&path, true).unwrap();
            for loaded in [&resident, &mapped] {
                let mut row = Vec::new();
                assert!(!loaded.lookup_exact(EntityId(u32::MAX), &mut row));
                assert_eq!(row, stored);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn zero_row_snapshots_are_rejected() {
        let snap = ServiceSnapshot::from_parts(4, 2, Vec::new());
        assert!(snapshot_to_ss3_bytes(&snap).is_err());
        assert!(Ss3DenseWriter::create(&temp_path("zero"), 4, 2, 0, ShardSpec::default()).is_err());
    }

    #[test]
    fn writer_enforces_declared_row_count() {
        let path = temp_path("short");
        let mut w = Ss3DenseWriter::create(&path, 2, 1, 3, ShardSpec::default()).unwrap();
        w.write_rows(&[0.0; 8]).unwrap(); // 2 of 3 rows
        assert!(w.finish().is_err());
        assert!(!path.exists(), "unfinished shard must not be published");
        let mut w = Ss3DenseWriter::create(&path, 2, 1, 1, ShardSpec::default()).unwrap();
        assert!(w.write_rows(&[0.0; 8]).is_err(), "too many rows");
        std::fs::remove_file(&path).ok();
    }
}
