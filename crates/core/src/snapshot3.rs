//! `PKGMSS3` — the alignment-aware, section-offset snapshot layout: the
//! one on-disk format of a serving table, and its in-memory form too.
//!
//! Decoding a whole table into heap memory at every load would, at the
//! paper's 142.6M-item scale, fault a 68 GiB table into RAM a serving node
//! may not have. `PKGMSS3` lays the table out so the bytes *are* the
//! serving format:
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
//! section starts on a page boundary, reinterpreting a section as
//! `&[f32]`/`&[u32]`/`&[i8]` is alignment-sound, and a
//! [`ServiceSnapshot`] is a set of such views over one image: a row lookup
//! is pointer arithmetic into it, whether the image is an `mmap` of an
//! opened file or the 8-byte-aligned heap buffer a build wrote. The
//! fallback (mean served row) is stored as its own section so an open
//! never scans the table.
//!
//! One encoder: [`Ss3DenseWriter`] and [`Ss3QuantWriter`] stream rows into
//! a shard file or into a heap image (a resident snapshot). One reader:
//! [`open_mapped_snapshot`] and [`snapshot_from_bytes`] build the same
//! views, and differ only in the backing and in how much they verify.
//!
//! Integrity: the header CRC and section bounds/alignment are always
//! verified at open, and so is the order of the escape ids. Section CRCs
//! are verified eagerly only for sections smaller than
//! [`SS3_EAGER_CRC_LIMIT`] — checksumming a multi-GiB table would defeat
//! the O(1) startup this format exists for — while a resident decode
//! ([`snapshot_from_bytes`]) verifies every section and every quantized
//! value. Files are written raw (no `PKGMAF1` container: its 28-byte
//! header would break page alignment relative to the file start); the
//! magic keeps loaders unambiguous.
//!
//! The views read little-endian words in place, so a big-endian host gets
//! a typed error from every open rather than a second, decoding reader.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::artifact::{crc32, crc32_update, ArtifactError};
use crate::le;
use crate::mmap::MmapRegion;
use crate::quant;
use crate::serialize::SerializeError;
use crate::snapshot::{ServiceSnapshot, ShardSpec, SnapshotBacking};

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
/// (a resident decode verifies every section regardless of size).
pub const SS3_EAGER_CRC_LIMIT: u64 = 1 << 20;
/// Sanity ceiling on a stored quantization block size: blocks are
/// [`quant::QUANT_BLOCK`]-sized today, and anything huge in this field
/// means corrupt bytes, not a future format.
const MAX_BLOCK: u32 = 4096;

/// Cap on verbatim f32 rows a quantized table keeps, as a divisor of the
/// row count: at most `n_rows / EXACT_ROW_DIVISOR` rows.
const EXACT_ROW_DIVISOR: usize = 64;

/// Rows whose measured quantization error exceeds this multiple of the
/// median row error are candidates for verbatim storage.
const EXACT_ERR_FACTOR: f32 = 4.0;

// Section kinds.
pub(crate) const SEC_DENSE_F32: u32 = 1;
pub(crate) const SEC_FALLBACK_F32: u32 = 2;
pub(crate) const SEC_QDATA_I8: u32 = 3;
pub(crate) const SEC_SCALES_F32: u32 = 4;
pub(crate) const SEC_ROWERR_F32: u32 = 5;
pub(crate) const SEC_EXACT_IDS_U32: u32 = 6;
pub(crate) const SEC_EXACT_ROWS_F32: u32 = 7;

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

fn invalid_input(what: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, what.into())
}

fn align_page(off: u64) -> u64 {
    off.div_ceil(PAGE) * PAGE
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Section {
    pub(crate) kind: u32,
    crc: u32,
    pub(crate) offset: u64,
    pub(crate) len: u64,
}

/// A `PKGMSS3` header: validated by [`parse_header`] for bytes read in,
/// or filled in by a writer as it seals its image.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Header {
    pub(crate) quantized: bool,
    pub(crate) dim: u32,
    pub(crate) k: u32,
    pub(crate) n_rows: u64,
    pub(crate) shard: ShardSpec,
    pub(crate) block: u32,
    pub(crate) n_exact: u64,
    pub(crate) sections: Vec<Section>,
}

impl Header {
    /// The bytes of `section` within the validated image `bytes`.
    pub(crate) fn body<'a>(bytes: &'a [u8], section: &Section) -> &'a [u8] {
        &bytes[section.offset as usize..(section.offset + section.len) as usize]
    }

    /// Bytes of the image: through the end of its last section.
    pub(crate) fn image_len(&self) -> usize {
        self.sections
            .last()
            .map_or(0, |s| (s.offset + s.len) as usize)
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
    let shard = ShardSpec {
        row_start: get_u64(bytes, 32),
        n_shards: get_u32(bytes, 40),
        shard_id: get_u32(bytes, 44),
    };
    let block = get_u32(bytes, 48);
    let n_sections = get_u32(bytes, 52) as usize;
    let n_exact = get_u64(bytes, 56);

    if dim == 0 {
        return Err(corrupt("snapshot dim must be positive"));
    }
    if n_rows == 0 {
        return Err(corrupt("PKGMSS3 shard has zero rows"));
    }
    shard.check(n_rows).map_err(corrupt)?;
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
    // Sections must be addressable on this host (usize indexing).
    if usize::try_from(file_len).is_err() {
        return Err(corrupt("file too large for this host"));
    }
    Ok(Header {
        quantized,
        dim,
        k,
        n_rows,
        shard,
        block,
        n_exact,
        sections,
    })
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
        let actual = crc32(Header::body(bytes, s));
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
// Section views
// ---------------------------------------------------------------------------

/// A value type sections are read as.
///
/// # Safety
///
/// An implementor has no padding and no invalid bit patterns: [`view`]
/// reinterprets any initialized bytes as values of it.
pub(crate) unsafe trait Plain: Copy {}
// SAFETY: an f32 is 4 bytes with no padding; every bit pattern is a value.
unsafe impl Plain for f32 {}
// SAFETY: a u32 is 4 bytes with no padding; every bit pattern is a value.
unsafe impl Plain for u32 {}
// SAFETY: an i8 is one byte; every bit pattern is a value.
unsafe impl Plain for i8 {}

/// `n` values of `T` at byte `offset` of an image. Sections start on page
/// boundaries of an image at least 8-byte aligned, so an offset that stays
/// a multiple of `T`'s size within a section passes the alignment assert.
pub(crate) fn view<T: Plain>(bytes: &[u8], offset: usize, n: usize) -> &[T] {
    let body = &bytes[offset..offset + n * std::mem::size_of::<T>()];
    assert!(body.as_ptr().cast::<T>().is_aligned(), "misaligned view");
    // SAFETY: `body` holds `n · size_of::<T>()` initialized bytes, aligned
    // for `T` (asserted), borrowed for the result's lifetime, and every bit
    // pattern is a valid `T` (`Plain`).
    unsafe { std::slice::from_raw_parts(body.as_ptr().cast(), n) }
}

/// [`view`] of a heap image being written.
fn view_mut<T: Plain>(bytes: &mut [u8], offset: usize, n: usize) -> &mut [T] {
    let body = &mut bytes[offset..offset + n * std::mem::size_of::<T>()];
    assert!(body.as_ptr().cast::<T>().is_aligned(), "misaligned view");
    // SAFETY: as for `view`, and `body` stays exclusively borrowed, so
    // writes of valid `T`s leave the bytes initialized.
    unsafe { std::slice::from_raw_parts_mut(body.as_mut_ptr().cast(), n) }
}

fn i8s_as_bytes(xs: &[i8]) -> &[u8] {
    // SAFETY: i8 and u8 have the same size, alignment and valid values.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), xs.len()) }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// Validate the image in `region` and build its views: the header always,
/// section CRCs all (`Resident`) or below [`SS3_EAGER_CRC_LIMIT`]
/// (`Mapped`), then the values no CRC policy covers
/// ([`ServiceSnapshot::check_values`]).
fn open_region(
    region: MmapRegion,
    backing: SnapshotBacking,
) -> Result<ServiceSnapshot, SerializeError> {
    if cfg!(target_endian = "big") {
        return Err(corrupt(
            "PKGMSS3 is served as little-endian words in place; this host is big-endian",
        ));
    }
    let header = parse_header(region.bytes())?;
    let resident = backing == SnapshotBacking::Resident;
    let eager_limit = (!resident).then_some(SS3_EAGER_CRC_LIMIT);
    verify_section_crcs(region.bytes(), &header, eager_limit)?;
    let snapshot = ServiceSnapshot::from_image(Arc::new(region), header, backing);
    snapshot.check_values(resident).map_err(corrupt)?;
    Ok(snapshot)
}

/// Decode `PKGMSS3` bytes into a resident snapshot: copy them into a heap
/// image, then verify the header CRC, **every** section CRC and the
/// quantized values (finite nonnegative scales and row errors, sorted
/// in-range escape ids) — the trust-nothing path. The stored fallback
/// section is served as is.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<ServiceSnapshot, SerializeError> {
    open_region(MmapRegion::copy_of(bytes), SnapshotBacking::Resident)
}

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
/// The file must stay as it is while open (see [`crate::mmap`]).
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
    open_region(region, SnapshotBacking::Mapped).map_err(|e| corrupt_at(path, e))
}

/// Serialize `snapshot` into `PKGMSS3` bytes: a copy of its image. Errors
/// on an empty table — a zero-row shard is never valid on disk.
pub fn snapshot_to_ss3_bytes(snapshot: &ServiceSnapshot) -> Result<Vec<u8>, SerializeError> {
    snapshot.ss3_bytes().map(<[u8]>::to_vec)
}

// ---------------------------------------------------------------------------
// The writers
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
    /// last, once every section CRC is known. The gaps stay zero (file
    /// holes read back as zeros).
    fn create(dest: &Path, n_rows: u64, shard: ShardSpec) -> std::io::Result<Self> {
        if n_rows == 0 {
            return Err(invalid_input("refusing to write a zero-row PKGMSS3 shard"));
        }
        shard.check(n_rows).map_err(invalid_input)?;
        if let Some(parent) = dest.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file_name = dest
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| invalid_input("destination has no file name"))?;
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

    /// Write `header` over the first page, end the file at its last
    /// section, fsync, atomically rename into place, and best-effort fsync
    /// the directory so the rename is durable.
    fn publish(mut self, header: &Header) -> std::io::Result<()> {
        let mut file = self.file.take().expect("shard file not yet published");
        file.set_len(header.image_len() as u64)?;
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

/// Where a writer puts its image: a shard file, or a heap image that
/// becomes a resident snapshot. Either way the payload streams in from
/// byte [`PAGE`] and the header lands last.
enum Sink {
    File(ShardFile),
    Heap { image: MmapRegion, at: usize },
}

impl Sink {
    /// A heap image with room reserved for `capacity` bytes.
    fn heap(capacity: usize) -> Self {
        Sink::Heap {
            image: MmapRegion::heap(PAGE as usize, capacity),
            at: PAGE as usize,
        }
    }

    /// Write `bytes` at `at` of a heap image, growing it as needed.
    fn put(image: &mut MmapRegion, at: usize, bytes: &[u8]) {
        image.grow_heap(at + bytes.len());
        image.heap_bytes_mut()[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Append payload bytes.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Sink::File(out) => out.file().write_all(bytes),
            Sink::Heap { image, at } => {
                Self::put(image, *at, bytes);
                *at += bytes.len();
                Ok(())
            }
        }
    }

    /// Write a section body at `offset`.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Sink::File(out) => {
                let file = out.file();
                file.seek(SeekFrom::Start(offset))?;
                file.write_all(bytes)
            }
            Sink::Heap { image, .. } => {
                Self::put(image, offset as usize, bytes);
                Ok(())
            }
        }
    }

    /// Call `f` with each of the first `n_rows` payload rows of `row_len`
    /// bytes, in order: one sequential re-read of a file, or a walk over
    /// the heap image.
    fn for_each_payload_row(
        &mut self,
        n_rows: usize,
        row_len: usize,
        mut f: impl FnMut(usize, &[i8]),
    ) -> std::io::Result<()> {
        use std::io::Read;
        match self {
            Sink::File(out) => {
                let file = out.file();
                file.seek(SeekFrom::Start(PAGE))?;
                let mut reader = std::io::BufReader::with_capacity(1 << 20, file);
                let mut row = vec![0u8; row_len];
                for id in 0..n_rows {
                    reader.read_exact(&mut row)?;
                    f(id, view(&row, 0, row_len));
                }
            }
            Sink::Heap { image, .. } => {
                let payload: &[i8] = view(image.bytes(), PAGE as usize, n_rows * row_len);
                for id in 0..n_rows {
                    f(id, &payload[id * row_len..][..row_len]);
                }
            }
        }
        Ok(())
    }
}

/// What both writers share: the sink, the header being filled in, and the
/// running CRC of the streamed payload section.
struct Stream {
    sink: Sink,
    header: Header,
    rows_written: u64,
    /// Pre-finalized CRC state of the payload section.
    crc_state: u32,
}

impl Stream {
    fn new(sink: Sink, dim: usize, k: usize, n_rows: u64, shard: ShardSpec, block: usize) -> Self {
        let header = Header {
            quantized: block != 0,
            dim: dim as u32,
            k: k as u32,
            n_rows,
            shard,
            block: block as u32,
            n_exact: 0,
            sections: Vec::new(),
        };
        Self {
            sink,
            header,
            rows_written: 0,
            crc_state: !0u32,
        }
    }

    fn row_len(&self) -> usize {
        2 * self.header.dim as usize
    }

    /// Rows in `floats`: whole rows, never more than declared.
    fn rows_in(&self, floats: usize) -> std::io::Result<u64> {
        if !floats.is_multiple_of(self.row_len()) {
            return Err(invalid_input(
                "rows must be whole multiples of 2*dim floats",
            ));
        }
        let n = (floats / self.row_len()) as u64;
        if self.rows_written + n > self.header.n_rows {
            return Err(invalid_input(format!(
                "shard declared {} rows, writing more",
                self.header.n_rows
            )));
        }
        Ok(n)
    }

    /// Append the payload bytes of `n` rows.
    fn append(&mut self, bytes: &[u8], n: u64) -> std::io::Result<()> {
        self.sink.append(bytes)?;
        self.crc_state = crc32_update(self.crc_state, bytes);
        self.rows_written += n;
        Ok(())
    }

    /// Errors unless all declared rows were written.
    fn all_rows_written(&self) -> std::io::Result<()> {
        if self.rows_written == self.header.n_rows {
            return Ok(());
        }
        Err(invalid_input(format!(
            "shard declared {} rows, only {} written",
            self.header.n_rows, self.rows_written
        )))
    }

    /// Lay out the `payload_len`-byte payload section at [`PAGE`] and
    /// `bodies` page-aligned after it, write the bodies, then publish: a
    /// file renamed into place (`None`), or a resident snapshot.
    fn seal(
        mut self,
        payload_kind: u32,
        payload_len: u64,
        bodies: &[(u32, &[u8])],
    ) -> std::io::Result<Option<ServiceSnapshot>> {
        self.all_rows_written()?;
        let mut sections = vec![Section {
            kind: payload_kind,
            crc: !self.crc_state,
            offset: PAGE,
            len: payload_len,
        }];
        let mut offset = align_page(PAGE + payload_len);
        for &(kind, body) in bodies {
            sections.push(Section {
                kind,
                crc: crc32(body),
                offset,
                len: body.len() as u64,
            });
            self.sink.write_at(offset, body)?;
            offset = align_page(offset + body.len() as u64);
        }
        self.header.sections = sections;
        match self.sink {
            Sink::File(out) => out.publish(&self.header).map(|()| None),
            Sink::Heap { mut image, .. } => {
                // The header goes over the image's first page, grown to the
                // full image length.
                image.grow_heap(self.header.image_len());
                let head = self.header.encode();
                image.heap_bytes_mut()[..head.len()].copy_from_slice(&head);
                let image = Arc::new(image);
                Ok(Some(ServiceSnapshot::from_image(
                    image,
                    self.header,
                    SnapshotBacking::Resident,
                )))
            }
        }
    }
}

/// The snapshot a heap-image writer sealed.
fn sealed_snapshot(sealed: std::io::Result<Option<ServiceSnapshot>>) -> ServiceSnapshot {
    sealed
        .expect("heap image writes do not fail")
        .expect("a heap image seals into a snapshot")
}

/// Add `row` into the running column sums `sums`.
fn add_row(sums: &mut [f32], row: &[f32]) {
    for (m, &x) in sums.iter_mut().zip(row) {
        *m += x;
    }
}

/// Turn column sums over `n_rows` rows into their mean (zeros when there
/// are no rows): every stored fallback row is this, over the rows in id
/// order.
fn into_mean(mut sums: Vec<f32>, n_rows: u64) -> Vec<f32> {
    sums.iter_mut().for_each(|m| *m /= n_rows.max(1) as f32);
    sums
}

/// Streams a dense `PKGMSS3` shard row by row without holding the table:
/// rows are written (and CRC'd, and mean-accumulated) as they arrive, and
/// the fallback + header land in [`Ss3DenseWriter::finish`]. A file is
/// published with the same temp + fsync + rename dance as every other
/// artifact; a heap image becomes a resident snapshot.
pub struct Ss3DenseWriter {
    stream: Stream,
    /// Running column sums of the rows, for the fallback.
    sums: Vec<f32>,
}

impl Ss3DenseWriter {
    /// Start a dense shard file of exactly `n_rows` rows (must be > 0)
    /// covering global ids `[shard.row_start, shard.row_start + n_rows)`.
    pub fn create(
        dest: &Path,
        dim: usize,
        k: usize,
        n_rows: u64,
        shard: ShardSpec,
    ) -> std::io::Result<Self> {
        let sink = Sink::File(ShardFile::create(dest, n_rows, shard)?);
        Ok(Self::new(sink, dim, k, n_rows, shard))
    }

    /// Start a dense heap image, sized for the whole table up front.
    pub(crate) fn resident(
        dim: usize,
        k: usize,
        n_rows: u64,
        shard: ShardSpec,
    ) -> Result<Self, String> {
        shard.check(n_rows)?;
        let table = n_rows * 2 * dim as u64 * 4;
        let capacity = align_page(PAGE + table) as usize + 2 * dim * 4;
        Ok(Self::new(Sink::heap(capacity), dim, k, n_rows, shard))
    }

    fn new(sink: Sink, dim: usize, k: usize, n_rows: u64, shard: ShardSpec) -> Self {
        Self {
            stream: Stream::new(sink, dim, k, n_rows, shard, 0),
            sums: vec![0.0f32; 2 * dim],
        }
    }

    /// Append whole rows (`rows.len()` must be a multiple of `2·dim`).
    pub fn write_rows(&mut self, rows: &[f32]) -> std::io::Result<()> {
        let n = self.stream.rows_in(rows.len())?;
        self.stream.append(&le::as_bytes(rows), n)?;
        for row in rows.chunks_exact(self.stream.row_len()) {
            add_row(&mut self.sums, row);
        }
        Ok(())
    }

    /// Write every row of a heap image in place: `fill` gets the whole
    /// `n_rows × 2d` table section, which is then CRC'd and summed as if
    /// `write_rows` had appended it.
    ///
    /// # Panics
    /// On a file writer, or once rows were written.
    pub(crate) fn fill_rows(&mut self, fill: impl FnOnce(&mut [f32])) {
        let row_len = self.stream.row_len();
        let n = self.stream.header.n_rows;
        let len = n as usize * row_len;
        let Sink::Heap { image, at } = &mut self.stream.sink else {
            panic!("only a heap image fills in place");
        };
        assert_eq!(self.stream.rows_written, 0, "fill_rows writes every row");
        image.grow_heap(*at + 4 * len);
        fill(view_mut(image.heap_bytes_mut(), *at, len));
        let table: &[f32] = view(image.bytes(), *at, len);
        self.stream.crc_state = crc32_update(self.stream.crc_state, &le::as_bytes(table));
        for row in table.chunks_exact(row_len) {
            add_row(&mut self.sums, row);
        }
        *at += 4 * len;
        self.stream.rows_written = n;
    }

    /// Write the fallback section and header, fsync, and atomically rename
    /// into place. Errors if fewer rows than declared were written.
    pub fn finish(self) -> std::io::Result<()> {
        self.seal().map(drop)
    }

    /// Seal a heap image into its resident snapshot.
    ///
    /// # Panics
    /// On a file writer, or unless every declared row was written.
    pub(crate) fn into_snapshot(self) -> ServiceSnapshot {
        sealed_snapshot(self.seal())
    }

    fn seal(self) -> std::io::Result<Option<ServiceSnapshot>> {
        let h = &self.stream.header;
        let table_len = h.n_rows * self.stream.row_len() as u64 * 4;
        let fallback = into_mean(self.sums, h.n_rows);
        self.stream.seal(
            SEC_DENSE_F32,
            table_len,
            &[(SEC_FALLBACK_F32, &le::as_bytes(&fallback))],
        )
    }
}

/// The escape rows of a quantized table with per-row errors `errs`: rows
/// whose error exceeds [`EXACT_ERR_FACTOR`]× the median, worst first (ties
/// by id), capped at `n_rows / `[`EXACT_ROW_DIVISOR`], in ascending order.
fn select_escapes(errs: &[f32]) -> Vec<u32> {
    let mut sorted = errs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite quant errors"));
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
    let mut escapes: Vec<u32> = (0..errs.len() as u32)
        .filter(|&i| errs[i as usize] > EXACT_ERR_FACTOR * median)
        .collect();
    escapes.sort_by(|&a, &b| {
        errs[b as usize]
            .partial_cmp(&errs[a as usize])
            .expect("finite quant errors")
            .then(a.cmp(&b))
    });
    escapes.truncate(errs.len() / EXACT_ROW_DIVISOR);
    escapes.sort_unstable();
    escapes
}

/// Streams a **quantized** `PKGMSS3` shard without ever holding the dense
/// f32 table: each incoming row is blockwise-int8 quantized by
/// `quant::quantize_row` and its i8 payload appended immediately. Only
/// per-row metadata stays resident (one error f32 and `ceil(2d/block)`
/// scale f32s per row — a few percent of the dense bytes).
///
/// [`Ss3QuantWriter::finish`] then selects the escape rows over the
/// buffered errors (median threshold, worst-first cap), pulls their
/// verbatim f32 rows back from the caller, and computes the fallback by
/// re-reading the quantized payload in one sequential pass — the mean of
/// the *served* rows, in id order.
pub struct Ss3QuantWriter {
    stream: Stream,
    block: usize,
    /// Per-block scales, `ceil(2d / block)` per row.
    scales: Vec<f32>,
    /// Per-row certified error, the escape-selection input.
    row_errs: Vec<f32>,
    /// Quantized values of the `write_rows` call in flight, kept between
    /// calls so a row-at-a-time caller does not allocate per row.
    qbuf: Vec<i8>,
}

impl Ss3QuantWriter {
    /// Start a quantized shard file of exactly `n_rows` rows (must be > 0)
    /// covering global ids `[shard.row_start, shard.row_start + n_rows)`.
    pub fn create(
        dest: &Path,
        dim: usize,
        k: usize,
        n_rows: u64,
        shard: ShardSpec,
    ) -> std::io::Result<Self> {
        let sink = Sink::File(ShardFile::create(dest, n_rows, shard)?);
        Ok(Self::new(sink, dim, k, n_rows, shard))
    }

    /// Start a quantized heap image, with room reserved for the most
    /// escape rows it can keep.
    pub(crate) fn resident(
        dim: usize,
        k: usize,
        n_rows: u64,
        shard: ShardSpec,
    ) -> Result<Self, String> {
        shard.check(n_rows)?;
        let (n, row_len) = (n_rows as usize, 2 * dim);
        let nb = row_len.div_ceil(quant::QUANT_BLOCK.min(row_len));
        let words = n * nb + n + (n / EXACT_ROW_DIVISOR) * (1 + row_len) + row_len;
        let capacity = 6 * PAGE as usize + n * row_len + 4 * words;
        Ok(Self::new(Sink::heap(capacity), dim, k, n_rows, shard))
    }

    fn new(sink: Sink, dim: usize, k: usize, n_rows: u64, shard: ShardSpec) -> Self {
        let block = quant::QUANT_BLOCK.min(2 * dim);
        let nb = (2 * dim).div_ceil(block);
        Self {
            stream: Stream::new(sink, dim, k, n_rows, shard, block),
            block,
            scales: Vec::with_capacity((n_rows as usize).saturating_mul(nb)),
            row_errs: Vec::with_capacity(n_rows as usize),
            qbuf: Vec::new(),
        }
    }

    /// Quantize and append whole rows (`rows.len()` must be a multiple of
    /// `2·dim`).
    pub fn write_rows(&mut self, rows: &[f32]) -> std::io::Result<()> {
        let n = self.stream.rows_in(rows.len())?;
        let mut q = std::mem::take(&mut self.qbuf);
        q.clear();
        q.reserve(rows.len());
        for row in rows.chunks_exact(self.stream.row_len()) {
            let err = quant::quantize_row(row, self.block, &mut self.scales, &mut q);
            self.row_errs.push(err);
        }
        self.stream.append(i8s_as_bytes(&q), n)?;
        self.qbuf = q;
        Ok(())
    }

    /// Select escape rows, fetch their verbatim f32 rows from `exact_row`
    /// (called with ascending shard-local row ids), compute the served-row
    /// fallback in one sequential re-read of the quantized payload, then
    /// write the metadata sections + header, fsync and atomically rename.
    pub fn finish(self, exact_row: impl FnMut(u64, &mut [f32])) -> std::io::Result<()> {
        self.seal(exact_row).map(drop)
    }

    /// Seal a heap image into its resident snapshot.
    ///
    /// # Panics
    /// On a file writer, or unless every declared row was written.
    pub(crate) fn into_snapshot(self, exact_row: impl FnMut(u64, &mut [f32])) -> ServiceSnapshot {
        sealed_snapshot(self.seal(exact_row))
    }

    fn seal(
        mut self,
        mut exact_row: impl FnMut(u64, &mut [f32]),
    ) -> std::io::Result<Option<ServiceSnapshot>> {
        self.stream.all_rows_written()?;
        let n_rows = self.stream.header.n_rows;
        let row_len = self.stream.row_len();
        let nb = row_len.div_ceil(self.block);
        let escapes = select_escapes(&self.row_errs);
        let mut exact_rows = vec![0.0f32; escapes.len() * row_len];
        for (&id, out) in escapes.iter().zip(exact_rows.chunks_exact_mut(row_len)) {
            exact_row(u64::from(id), out);
        }

        let (scales, block) = (&self.scales, self.block);
        let mut sums = vec![0.0f32; row_len];
        let mut row = vec![0.0f32; row_len];
        let mut next_escape = 0usize;
        self.stream
            .sink
            .for_each_payload_row(n_rows as usize, row_len, |id, q| {
                if escapes.get(next_escape) == Some(&(id as u32)) {
                    add_row(&mut sums, &exact_rows[next_escape * row_len..][..row_len]);
                    next_escape += 1;
                } else {
                    let scales = &scales[id * nb..(id + 1) * nb];
                    quant::dequantize_row_into(q, scales, block, &mut row);
                    add_row(&mut sums, &row);
                }
            })?;
        let fallback = into_mean(sums, n_rows);

        self.stream.header.n_exact = escapes.len() as u64;
        self.stream.seal(
            SEC_QDATA_I8,
            n_rows * row_len as u64,
            &[
                (SEC_SCALES_F32, &le::as_bytes(&self.scales)),
                (SEC_ROWERR_F32, &le::as_bytes(&self.row_errs)),
                (SEC_EXACT_IDS_U32, &le::as_bytes(&escapes)),
                (SEC_EXACT_ROWS_F32, &le::as_bytes(&exact_rows)),
                (SEC_FALLBACK_F32, &le::as_bytes(&fallback)),
            ],
        )
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

    /// FNV-1a 64 over `bytes`.
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The SS3 bytes of every writer path, pinned by digest: a change to
    /// the encoders must leave files `cmp`-equal to older builds'.
    #[test]
    fn ss3_bytes_match_golden_digests() {
        // A built table with three outlier rows, so quantizing keeps
        // escape rows; written and reopened to get a snapshot of it.
        let built = ServiceSnapshot::build(&service_n(200));
        let row_len = 2 * built.dim();
        let mut table = built.dense_table().unwrap().to_vec();
        for id in [5usize, 50, 120] {
            table[id * row_len + 3] = 40.0;
        }
        let path = temp_path("golden-dense");
        let n_rows = built.n_rows() as u64;
        let mut w =
            Ss3DenseWriter::create(&path, built.dim(), built.k(), n_rows, ShardSpec::default())
                .unwrap();
        w.write_rows(&table).unwrap();
        w.finish().unwrap();
        let snap = open_mapped_snapshot(&path, true).unwrap();
        std::fs::remove_file(&path).ok();

        let digest = |s: &ServiceSnapshot| fnv64(&snapshot_to_ss3_bytes(s).unwrap());
        let mut got = vec![("built", digest(&built)), ("dense", digest(&snap))];
        let ranges = shard_ranges(snap.n_rows() as u64, 3);
        for &(spec, len) in &ranges {
            got.push(("dense shard", digest(&snap.shard_slice(spec, len).unwrap())));
        }
        let quant = snapshot_to_ss3_bytes(&snap.quantize()).unwrap();
        assert!(parse_header(&quant).unwrap().n_exact > 0, "escape rows");
        got.push(("quantized", fnv64(&quant)));
        let (spec, len) = ranges[1];
        let shard =
            snapshot_to_ss3_bytes(&snap.shard_slice(spec, len).unwrap().quantize()).unwrap();
        assert!(parse_header(&shard).unwrap().n_exact > 0, "escape rows");
        got.push(("quantized shard", fnv64(&shard)));

        let (spec, len) = ranges[0];
        let rows = &table[spec.row_start as usize * row_len..];
        let path = temp_path("golden-qwriter");
        let mut w = Ss3QuantWriter::create(&path, snap.dim(), snap.k(), len, spec).unwrap();
        let mut off = 0usize;
        for chunk in [7usize, 1, 30].iter().cycle() {
            if off == len as usize {
                break;
            }
            let n = (*chunk).min(len as usize - off);
            w.write_rows(&rows[off * row_len..(off + n) * row_len])
                .unwrap();
            off += n;
        }
        w.finish(|id, out| out.copy_from_slice(&rows[id as usize * row_len..][..row_len]))
            .unwrap();
        got.push(("quant writer file", fnv64(&std::fs::read(&path).unwrap())));
        std::fs::remove_file(&path).ok();

        let want = vec![
            ("built", 0x5e37_4f0b_7ef8_b456),
            ("dense", 0xa080_0640_36ec_2b8f),
            ("dense shard", 0x202c_7674_b7fb_878a),
            ("dense shard", 0xe19f_e704_60a6_ea59),
            ("dense shard", 0xf4e0_15a3_da37_3455),
            ("quantized", 0xcb8b_e8f6_fff2_ad04),
            ("quantized shard", 0xe540_a808_b055_b261),
            ("quant writer file", 0x7778_8a24_3ba7_1d4d),
        ];
        let hex: Vec<_> = got.iter().map(|(n, d)| format!("{n}: {d:#018x}")).collect();
        assert_eq!(got, want, "{hex:#?}");
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

    /// Stored values no CRC vouches for: each patched section is re-signed,
    /// so only the value checks can object. Scales and row errors are
    /// scanned by the resident decode; escape ids, which lookups
    /// binary-search, by every open.
    #[test]
    fn resident_decode_rejects_invalid_quantized_values() {
        let built = ServiceSnapshot::build(&service_n(200));
        let row_len = 2 * built.dim();
        let mut table = built.dense_table().unwrap().to_vec();
        for id in [5usize, 50, 120] {
            table[id * row_len + 3] = 40.0;
        }
        let snap = ServiceSnapshot::from_rows(built.dim(), built.k(), ShardSpec::default(), &table)
            .unwrap()
            .quantize();
        assert_eq!(snap.quant_rows().unwrap().0, &[5, 50, 120]);
        let bytes = snapshot_to_ss3_bytes(&snap).unwrap();
        let header = parse_header(&bytes).unwrap();
        let section = |kind| header.sections.iter().find(|s| s.kind == kind).unwrap();
        let body = |kind| Header::body(&bytes, section(kind)).to_vec();
        let patched = |kind, body: &[u8]| {
            let mut bad = bytes.clone();
            patch_section(&mut bad, kind, body);
            bad
        };
        for kind in [SEC_SCALES_F32, SEC_ROWERR_F32] {
            for val in [f32::NAN, -1.0f32, f32::INFINITY] {
                let mut bad = body(kind);
                bad[..4].copy_from_slice(&val.to_le_bytes());
                assert!(
                    snapshot_from_bytes(&patched(kind, &bad)).is_err(),
                    "section {kind} value {val}"
                );
            }
        }
        let n = snap.n_rows() as u32;
        for (ids, why) in [
            ([50u32, 5, 120], "unsorted"),
            ([5, 5, 120], "repeated"),
            ([5, 50, n], "out of range"),
        ] {
            let bad = patched(SEC_EXACT_IDS_U32, &le::as_bytes(&ids));
            assert!(snapshot_from_bytes(&bad).is_err(), "{why} escape ids");
            let path = temp_path("escape-ids");
            std::fs::write(&path, &bad).unwrap();
            for force_heap in [false, true] {
                assert!(open_mapped_snapshot(&path, force_heap).is_err(), "{why}");
            }
            std::fs::remove_file(&path).ok();
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
        let snap = ServiceSnapshot::from_rows(4, 2, ShardSpec::default(), &[]).unwrap();
        assert_eq!(snap.fallback_row(), &[0.0; 8], "an empty table's mean");
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
