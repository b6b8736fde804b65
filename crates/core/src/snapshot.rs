//! Precomputed serving table: every entity's condensed service in one
//! contiguous block — dense `f32` or int8-quantized.
//!
//! A [`ServiceSnapshot`] trades memory (`n_entities × 2d` floats) for O(1)
//! zero-compute lookups — no matvecs, no hashing, no locks. It is the
//! deployment shape for read-only serving fleets: build once after
//! pre-training (or via `pkgm snapshot`), ship the bytes, and answer
//! condensed-service queries with a row slice.
//!
//! A snapshot is a view over `PKGMSS3` bytes ([`crate::snapshot3`]): one
//! image plus its parsed header, with each storage shape a set of section
//! offsets computed once. A build writes the image into an 8-byte-aligned
//! heap buffer through the same writers that stream files, an open maps
//! the file, and a decode copies bytes into a heap buffer; a row read is
//! the same pointer arithmetic in every case, and writing a snapshot out
//! writes its image as it is.
//!
//! ## Quantized snapshots
//!
//! At the paper's scale (142.6M items × 2·64 floats ≈ 68 GiB) the dense
//! table dominates a serving host's RAM. [`ServiceSnapshot::quantize`]
//! converts the table to blockwise symmetric int8 with per-(row, block)
//! scales at ~29% of the dense bytes, keeping a small set of
//! worst-quantizing rows verbatim in f32 so no lookup degrades badly.
//! Quantized lookups dequantize deterministically (`q_i · s_block`, fixed
//! order), so a quantized snapshot written out and reopened — mapped or
//! resident — reproduces [`ServiceSnapshot::lookup_exact`] outputs
//! bit-for-bit.

use std::borrow::Cow;
use std::sync::Arc;

use crate::mmap::MmapRegion;
use crate::model::PkgmModel;
use crate::quant;
use crate::serialize::SerializeError;
use crate::service::{condense_into, KnowledgeService, ServiceScratch};
use crate::simd::{self, LevelBody, RowDot, SimdDispatch};
use crate::snapshot3::{
    view, Header, Plain, Ss3DenseWriter, Ss3QuantWriter, SEC_DENSE_F32, SEC_EXACT_IDS_U32,
    SEC_EXACT_ROWS_F32, SEC_FALLBACK_F32, SEC_QDATA_I8, SEC_ROWERR_F32, SEC_SCALES_F32,
};
use pkgm_store::{EntityId, KeyRelationSelector};
use rayon::prelude::*;

/// Rows per rayon task when building the table.
const BUILD_CHUNK: usize = 128;

/// How a snapshot's image is held in the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotBacking {
    /// An owned heap image: a fresh build, or a fully-validated
    /// `PKGMSS3` decode.
    Resident,
    /// Rows served zero-copy out of an [`crate::mmap::MmapRegion`] over a
    /// `PKGMSS3` file — startup cost independent of table size.
    Mapped,
}

impl SnapshotBacking {
    /// Stable lower-case label for logs and stats JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SnapshotBacking::Resident => "resident",
            SnapshotBacking::Mapped => "mapped",
        }
    }
}

/// Which contiguous entity-id range a snapshot holds: shard `shard_id`
/// of `n_shards`, covering global ids
/// `[row_start, row_start + n_rows)`. Unsharded snapshots use the
/// default `{ n_shards: 1, shard_id: 0, row_start: 0 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Total shards the table was split into (≥ 1).
    pub n_shards: u32,
    /// This file's shard index (`< n_shards`).
    pub shard_id: u32,
    /// Global entity id of this shard's first row.
    pub row_start: u64,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self {
            n_shards: 1,
            shard_id: 0,
            row_start: 0,
        }
    }
}

impl ShardSpec {
    /// True for the unsharded whole-table spec.
    pub fn is_whole_table(&self) -> bool {
        self.n_shards == 1 && self.row_start == 0
    }

    /// Errors unless this is shard `k` of `n` with `k < n`, and its
    /// `n_rows` rows from `row_start` stay inside the u32 entity-id space.
    pub(crate) fn check(&self, n_rows: u64) -> Result<(), String> {
        if self.n_shards == 0 || self.shard_id >= self.n_shards {
            return Err(format!(
                "invalid shard spec: shard {} of {}",
                self.shard_id, self.n_shards
            ));
        }
        match self.row_start.checked_add(n_rows) {
            Some(end) if end <= u64::from(u32::MAX) + 1 => Ok(()),
            _ => Err("shard row range exceeds the u32 id space".into()),
        }
    }
}

/// Table of condensed service vectors, one `2d` row per entity — dense
/// f32 or int8-quantized with verbatim escape rows — as views over one
/// `PKGMSS3` image, resident in heap memory or memory-mapped from a file.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    image: Arc<MmapRegion>,
    header: Header,
    /// Byte offset of each section in the image, by section kind,
    /// computed once when the views are built.
    at: [usize; 8],
    backing: SnapshotBacking,
}

/// Snapshots compare by *served content* — dim, k, shard range, shape and
/// the bytes of every section — regardless of backing, so a mapped
/// `PKGMSS3` equals the resident snapshot it was written from.
impl PartialEq for ServiceSnapshot {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.header, &other.header);
        let shape = |h: &Header| Header {
            sections: Vec::new(),
            ..h.clone()
        };
        shape(a) == shape(b)
            && a.sections.iter().zip(&b.sections).all(|(x, y)| {
                Header::body(self.image.bytes(), x) == Header::body(other.image.bytes(), y)
            })
    }
}

/// The condensed rows of model entities `0..rows.len() / 2d` into `rows`, in
/// [`BUILD_CHUNK`]-row tasks across the rayon pool, each compiled for
/// `table`'s level ([`simd::at_level`]); model row `local` serves global
/// entity `first + local`. `mats_t` is [`PkgmModel::transposed_mats`] of
/// `model`. Rows are independent, so the split never shows in a bit.
pub(crate) fn condensed_rows_into(
    table: &SimdDispatch,
    model: &PkgmModel,
    mats_t: &[f32],
    selector: &KeyRelationSelector,
    first: u32,
    rows: &mut [f32],
) {
    let d = model.dim();
    rows.par_chunks_mut(2 * d * BUILD_CHUNK)
        .enumerate()
        .for_each(|(ci, block)| {
            let local = u32::try_from(ci * BUILD_CHUNK).expect("entity count fits u32");
            let task = BuildTask {
                model,
                mats_t,
                selector,
                local,
                first,
                block,
            };
            simd::at_level(table, task);
        });
}

/// One [`BUILD_CHUNK`] of [`condensed_rows_into`]: the rows of model
/// entities `local..` into `block`.
struct BuildTask<'a> {
    model: &'a PkgmModel,
    mats_t: &'a [f32],
    selector: &'a KeyRelationSelector,
    local: u32,
    first: u32,
    block: &'a mut [f32],
}

impl LevelBody for BuildTask<'_> {
    type Output = ();

    #[inline(always)]
    fn run<D: RowDot>(self) {
        let BuildTask {
            model,
            mats_t,
            selector,
            local,
            first,
            block,
        } = self;
        let d = model.dim();
        let mut scratch = ServiceScratch::new(d);
        for (local, row) in (local..).zip(block.chunks_exact_mut(2 * d)) {
            let (h, rels) = (EntityId(local), selector.for_item(EntityId(first + local)));
            condense_into(model, mats_t, h, rels, selector.k(), &mut scratch, row);
        }
    }
}

impl ServiceSnapshot {
    /// Precompute the condensed service of every entity in `service`'s
    /// model, in parallel with per-thread scratch buffers, straight into
    /// the table section of a resident image.
    pub fn build(service: &KnowledgeService) -> Self {
        let (model, selector) = (service.model(), service.selector());
        let n = model.n_entities() as u64;
        let mut w = Ss3DenseWriter::resident(service.dim(), service.k(), n, ShardSpec::default())
            .expect("entity ids are u32");
        let mats_t = service.mats_t();
        w.fill_rows(|rows| condensed_rows_into(simd::active(), model, mats_t, selector, 0, rows));
        w.into_snapshot()
    }

    /// A resident dense snapshot of `rows` covering `shard`, its fallback
    /// the rows' mean.
    pub(crate) fn from_rows(
        dim: usize,
        k: usize,
        shard: ShardSpec,
        rows: &[f32],
    ) -> Result<Self, String> {
        let n_rows = rows.len() / (2 * dim);
        let mut w = Ss3DenseWriter::resident(dim, k, n_rows as u64, shard)?;
        w.write_rows(rows).map_err(|e| e.to_string())?;
        Ok(w.into_snapshot())
    }

    /// The views over `image`, whose header is `header` — the one view
    /// builder of every constructor. The header must describe the image:
    /// a writer's own, or one [`crate::snapshot3`] validated against it.
    pub(crate) fn from_image(
        image: Arc<MmapRegion>,
        header: Header,
        backing: SnapshotBacking,
    ) -> Self {
        if cfg!(target_endian = "big") {
            panic!("PKGMSS3 views read little-endian words in place");
        }
        let mut at = [0; 8];
        for s in &header.sections {
            at[s.kind as usize] = s.offset as usize;
        }
        Self {
            image,
            header,
            at,
            backing,
        }
    }

    /// The values no CRC policy covers: escape ids must be strictly
    /// increasing (lookups binary-search them) and name rows of the table,
    /// and with `scan_table` (a resident decode, which trusts nothing)
    /// every scale and row error must be finite and nonnegative.
    pub(crate) fn check_values(&self, scan_table: bool) -> Result<(), String> {
        if !self.header.quantized {
            return Ok(());
        }
        let block = self.header.block as usize;
        let ids = self.exact_ids();
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err("exact-row ids are not strictly increasing".into());
        }
        if let Some(&last) = ids.last().filter(|&&id| id as usize >= self.n_rows()) {
            return Err(format!(
                "exact-row id {last} beyond the {}-row table",
                self.n_rows()
            ));
        }
        if !scan_table {
            return Ok(());
        }
        let n_scales = self.n_rows() * self.row_len().div_ceil(block);
        let scales: &[f32] = self.sec(SEC_SCALES_F32, 0, n_scales);
        let errs = self.sec(SEC_ROWERR_F32, 0, self.n_rows());
        match scales
            .iter()
            .chain(errs)
            .find(|v| !(v.is_finite() && **v >= 0.0))
        {
            Some(v) => Err(format!(
                "quantization scale or row error {v} is not a finite nonnegative value"
            )),
            None => Ok(()),
        }
    }

    /// Extract one entity-range shard from a whole, dense table: rows
    /// `[shard.row_start, row_start + len)` become a new dense snapshot
    /// carrying `shard`, with its fallback recomputed over the shard's
    /// own rows.
    pub fn shard_slice(&self, shard: ShardSpec, len: u64) -> Result<ServiceSnapshot, String> {
        if !self.shard().is_whole_table() {
            return Err("cannot re-shard an already-sharded snapshot".into());
        }
        let table = self.dense_table().ok_or_else(|| {
            "shard_slice requires a dense table (quantize per shard after slicing)".to_string()
        })?;
        let end = shard
            .row_start
            .checked_add(len)
            .filter(|&e| e <= self.n_rows() as u64)
            .ok_or_else(|| {
                format!(
                    "shard rows {}..{:?} exceed the {}-row table",
                    shard.row_start,
                    shard.row_start.checked_add(len),
                    self.n_rows()
                )
            })?;
        if len == 0 {
            return Err("a shard must cover at least one row".into());
        }
        let row_len = self.row_len();
        let rows = &table[shard.row_start as usize * row_len..end as usize * row_len];
        Self::from_rows(self.dim(), self.k(), shard, rows)
    }

    /// The quantized form of this snapshot, streamed through
    /// [`Ss3QuantWriter`]: blockwise int8 rows with the worst-quantizing
    /// ones kept verbatim in f32. Already quantized snapshots are returned
    /// as-is.
    pub fn quantize(&self) -> ServiceSnapshot {
        let Some(table) = self.dense_table() else {
            return self.clone();
        };
        let row_len = self.row_len();
        let mut w =
            Ss3QuantWriter::resident(self.dim(), self.k(), self.n_rows() as u64, self.shard())
                .expect("a valid snapshot's shard");
        w.write_rows(table).expect("heap image writes do not fail");
        w.into_snapshot(|id, out| out.copy_from_slice(&table[id as usize * row_len..][..row_len]))
    }

    /// Embedding dimension `d` (rows are `2d` long).
    pub fn dim(&self) -> usize {
        self.header.dim as usize
    }

    fn row_len(&self) -> usize {
        2 * self.dim()
    }

    /// Key relations per item the source service used.
    pub fn k(&self) -> usize {
        self.header.k as usize
    }

    /// Number of entity rows in the table.
    pub fn n_rows(&self) -> usize {
        self.header.n_rows as usize
    }

    /// Whether rows are stored int8-quantized.
    pub fn is_quantized(&self) -> bool {
        self.header.quantized
    }

    /// How the image is held: [`SnapshotBacking::Resident`] heap memory
    /// or a [`SnapshotBacking::Mapped`] `PKGMSS3` file.
    pub fn backing(&self) -> SnapshotBacking {
        self.backing
    }

    /// Give a mapped table's resident pages back to the kernel; a no-op
    /// for heap images. Lookups stay bit-identical (the next read faults
    /// the same bytes back in), so a retired generation can shed its
    /// pages while its last in-flight batches still read it.
    pub(crate) fn release_mapped_pages(&self) {
        self.image.release_resident();
    }

    /// The snapshot's `PKGMSS3` image, which is what writing it out
    /// writes. Errors on an empty table — a zero-row shard is never valid
    /// on disk.
    pub(crate) fn ss3_bytes(&self) -> Result<&[u8], SerializeError> {
        if self.n_rows() == 0 {
            return Err(SerializeError::Corrupt(
                "refusing to write a zero-row PKGMSS3 shard".into(),
            ));
        }
        Ok(&self.image.bytes()[..self.header.image_len()])
    }

    /// The global entity-id range this snapshot covers.
    pub fn shard(&self) -> ShardSpec {
        self.header.shard
    }

    /// True when global id `id` falls inside this snapshot's shard range
    /// `[row_start, row_start + n_rows)` — i.e. a lookup serves a real
    /// row rather than the degraded fallback.
    pub fn covers(&self, id: u32) -> bool {
        self.local_row(id).is_some()
    }

    /// Translate a global entity id to this shard's local row index.
    fn local_row(&self, id: u32) -> Option<usize> {
        let local = (id as u64).checked_sub(self.header.shard.row_start)?;
        if (local as usize) < self.n_rows() {
            Some(local as usize)
        } else {
            None
        }
    }

    /// Bytes of logical row storage (the `bytes_per_entity` bench basis;
    /// excludes the fallback row): the image's row sections. For mapped
    /// backings this counts the on-disk bytes served through the mapping,
    /// not process RSS.
    pub fn storage_bytes(&self) -> usize {
        let sections = self.header.sections.iter();
        let rows = sections.filter(|s| s.kind != SEC_FALLBACK_F32);
        rows.map(|s| s.len as usize).sum()
    }

    /// `n` values of the section of `kind`, from its `first`-th.
    fn sec<T: Plain>(&self, kind: u32, first: usize, n: usize) -> &[T] {
        let at = self.at[kind as usize] + first * std::mem::size_of::<T>();
        view(self.image.bytes(), at, n)
    }

    /// The sorted escape ids (none for a dense table).
    fn exact_ids(&self) -> &[u32] {
        self.sec(SEC_EXACT_IDS_U32, 0, self.header.n_exact as usize)
    }

    /// Local row `id` when it is stored as f32 (dense, or a verbatim
    /// escape row); else the block length to dequantize it with.
    fn stored_row(&self, id: usize) -> Result<&[f32], usize> {
        let row_len = self.row_len();
        if !self.header.quantized {
            return Ok(self.sec(SEC_DENSE_F32, id * row_len, row_len));
        }
        match self.exact_ids().binary_search(&(id as u32)) {
            Ok(e) => Ok(self.sec(SEC_EXACT_ROWS_F32, e * row_len, row_len)),
            Err(_) => Err(self.header.block as usize),
        }
    }

    /// Dequantize local row `id` of a quantized table into `out`.
    fn dequantize_into(&self, block: usize, id: usize, out: &mut [f32]) {
        let (row_len, nb) = (self.row_len(), self.row_len().div_ceil(block));
        let data = self.sec(SEC_QDATA_I8, id * row_len, row_len);
        let scales = self.sec(SEC_SCALES_F32, id * nb, nb);
        quant::dequantize_row_into(data, scales, block, out);
    }

    /// O(1) condensed-service lookup; `None` for ids beyond the table.
    ///
    /// Dense tables and verbatim escape rows borrow; quantized rows
    /// dequantize into an owned buffer. Allocation-sensitive callers
    /// should use [`ServiceSnapshot::lookup_exact`] with a reused buffer.
    pub fn condensed(&self, item: EntityId) -> Option<Cow<'_, [f32]>> {
        let id = self.local_row(item.0)?;
        Some(match self.stored_row(id) {
            Ok(row) => Cow::Borrowed(row),
            Err(block) => {
                let mut out = vec![0.0f32; self.row_len()];
                self.dequantize_into(block, id, &mut out);
                Cow::Owned(out)
            }
        })
    }

    /// Degraded-mode lookup: the entity's row if the id is in range, else
    /// the table-mean [`ServiceSnapshot::fallback_row`]. The flag is `true`
    /// iff the fallback was served, so callers can count degraded answers.
    pub fn condensed_or_fallback(&self, item: EntityId) -> (Cow<'_, [f32]>, bool) {
        match self.condensed(item) {
            Some(row) => (row, false),
            None => (Cow::Borrowed(self.fallback_row()), true),
        }
    }

    /// Allocation-free lookup into a reused buffer (resized to `2d`):
    /// writes the served row — dense, verbatim escape, or
    /// deterministically dequantized — and returns `true`; for ids beyond
    /// the table writes the fallback row and returns `false` (degraded).
    ///
    /// "Exact" is the serialization contract: the bytes written here are
    /// a pure function of the snapshot's image, so a `PKGMSS3` round-trip
    /// reproduces them bit-for-bit.
    pub fn lookup_exact(&self, item: EntityId, out: &mut Vec<f32>) -> bool {
        out.resize(self.row_len(), 0.0);
        self.row_into(item, out)
    }

    /// [`ServiceSnapshot::lookup_exact`] into a caller-owned `2d` slice —
    /// the serving cache reads rows straight into a batch's result buffer.
    ///
    /// # Panics
    /// If `out.len() != 2 * self.dim()`.
    pub fn row_into(&self, item: EntityId, out: &mut [f32]) -> bool {
        let Some(id) = self.local_row(item.0) else {
            out.copy_from_slice(self.fallback_row());
            return false;
        };
        match self.stored_row(id) {
            Ok(row) => out.copy_from_slice(row),
            Err(block) => self.dequantize_into(block, id, out),
        }
        true
    }

    /// The fallback served for out-of-range ids: the column-wise mean of
    /// every served row (all zeros for an empty table). A `2d` slice.
    pub fn fallback_row(&self) -> &[f32] {
        self.sec(SEC_FALLBACK_F32, 0, self.row_len())
    }

    /// The contiguous row-major f32 table (`n_rows × 2d`), when rows are
    /// stored dense (resident or mapped); `None` for quantized snapshots.
    pub fn dense_table(&self) -> Option<&[f32]> {
        let n = self.n_rows() * self.row_len();
        (!self.is_quantized()).then(|| self.sec(SEC_DENSE_F32, 0, n))
    }

    /// A quantized table's sorted escape ids and per-row certified errors
    /// (`|x_i − served_i| ≤ err` for every element of a dequantized row).
    #[cfg(test)]
    pub(crate) fn quant_rows(&self) -> Option<(&[u32], &[f32])> {
        let errs = || self.sec(SEC_ROWERR_F32, 0, self.n_rows());
        self.is_quantized().then(|| (self.exact_ids(), errs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PkgmConfig, PkgmModel};
    use pkgm_store::{KeyRelationSelector, StoreBuilder};

    fn service_n(n: u32) -> KnowledgeService {
        service_nd(n, 8)
    }

    fn service_nd(n: u32, d: usize) -> KnowledgeService {
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
            PkgmConfig::new(d).with_seed(3),
        );
        KnowledgeService::new(model, sel)
    }

    fn service() -> KnowledgeService {
        service_n(6)
    }

    #[test]
    fn snapshot_rows_match_live_service() {
        let svc = service();
        let snap = ServiceSnapshot::build(&svc);
        assert_eq!(snap.n_rows(), svc.model().n_entities());
        assert_eq!(snap.dim(), svc.dim());
        assert_eq!(snap.k(), svc.k());
        assert!(!snap.is_quantized());
        for i in 0..snap.n_rows() as u32 {
            let row = snap.condensed(EntityId(i)).expect("row in range");
            assert_eq!(&row[..], svc.condensed_service(EntityId(i)).as_slice());
        }
    }

    /// Every level's build (and `build` itself) writes the rows of the
    /// row-order loop, over more than one [`BUILD_CHUNK`] task and at dims
    /// with and without an eight-lane tail.
    #[test]
    fn built_rows_match_the_row_order_condense_loop() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for d in [8, 13] {
            let svc = service_nd(300, d);
            let (model, selector) = (svc.model(), svc.selector());
            let n = model.n_entities();
            let (mut t, mut r) = (vec![0.0f32; d], vec![0.0f32; d]);
            let mut want = vec![0.0f32; n * 2 * d];
            for (item, out) in want.chunks_exact_mut(2 * d).enumerate() {
                let item = EntityId(item as u32);
                // `condensed_service_into` as it was before `S_R` went
                // column order: `service_r_into` per key relation.
                let k = svc.k() as f32;
                for &rel in selector.for_item(item) {
                    model.service_t_into(item, rel, &mut t);
                    model.service_r_into(item, rel, &mut r);
                    for i in 0..d {
                        out[i] += t[i] / k;
                        out[d + i] += r[i] / k;
                    }
                }
            }
            let snap = ServiceSnapshot::build(&svc);
            assert_eq!(
                bits(snap.dense_table().expect("dense")),
                bits(&want),
                "d={d}"
            );
            for table in SimdDispatch::all_supported() {
                let mut rows = vec![f32::NAN; n * 2 * d];
                condensed_rows_into(table, model, svc.mats_t(), selector, 0, &mut rows);
                assert_eq!(bits(&rows), bits(&want), "d={d} {:?}", table.level);
            }
        }
    }

    #[test]
    fn out_of_range_lookup_is_none() {
        let snap = ServiceSnapshot::build(&service());
        assert!(snap.condensed(EntityId(snap.n_rows() as u32)).is_none());
        assert!(snap.condensed(EntityId(u32::MAX)).is_none());
    }

    #[test]
    fn fallback_is_the_mean_row_and_flags_degraded() {
        let snap = ServiceSnapshot::build(&service());
        let row_len = 2 * snap.dim();
        let n = snap.n_rows();
        let table = snap.dense_table().expect("dense snapshot");
        for i in 0..row_len {
            let expect: f32 = (0..n).map(|r| table[r * row_len + i]).sum::<f32>() / n as f32;
            assert!((snap.fallback_row()[i] - expect).abs() < 1e-6);
        }
        let (row, degraded) = snap.condensed_or_fallback(EntityId(0));
        assert!(!degraded);
        assert_eq!(
            &row[..],
            &snap.condensed(EntityId(0)).expect("in range")[..]
        );
        let (row, degraded) = snap.condensed_or_fallback(EntityId(u32::MAX));
        assert!(degraded);
        assert_eq!(&row[..], snap.fallback_row());
    }

    #[test]
    fn table_is_contiguous_row_major() {
        let svc = service();
        let snap = ServiceSnapshot::build(&svc);
        let row_len = 2 * snap.dim();
        let row2 = snap.condensed(EntityId(2)).expect("row 2");
        let table = snap.dense_table().expect("dense snapshot");
        assert_eq!(&table[2 * row_len..3 * row_len], &row2[..]);
    }

    #[test]
    fn quantized_snapshot_serves_close_rows_at_a_fraction_of_the_bytes() {
        let svc = service_n(200);
        let dense = ServiceSnapshot::build(&svc);
        let quant = dense.quantize();
        assert!(quant.is_quantized());
        assert_eq!(quant.n_rows(), dense.n_rows());
        assert_eq!(quant.dim(), dense.dim());
        assert_eq!(quant.k(), dense.k());
        assert!(
            quant.storage_bytes() * 10 <= dense.storage_bytes() * 4,
            "quantized {} B vs dense {} B",
            quant.storage_bytes(),
            dense.storage_bytes()
        );
        // The certificate: every served element is within its row's
        // stored error of the dense value, and escape rows are exact.
        let (ids, errs) = quant.quant_rows().expect("quantized rows");
        let mut buf = Vec::new();
        for i in 0..quant.n_rows() as u32 {
            assert!(quant.lookup_exact(EntityId(i), &mut buf));
            let orig = dense.condensed(EntityId(i)).expect("dense row");
            let tol = if ids.binary_search(&i).is_ok() {
                0.0
            } else {
                errs[i as usize]
            };
            for (q, o) in buf.iter().zip(&orig[..]) {
                assert!((q - o).abs() <= tol, "row {i}: |{q} - {o}| > {tol}");
            }
        }
    }

    #[test]
    fn quantize_is_idempotent_and_exact_rows_are_verbatim() {
        let svc = service_n(200);
        let quant = ServiceSnapshot::build(&svc).quantize();
        assert_eq!(quant.quantize(), quant);
        let dense = ServiceSnapshot::build(&svc);
        let (ids, _) = quant.quant_rows().expect("quantized rows");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "escape ids sorted");
        for &id in ids {
            assert_eq!(
                quant.condensed(EntityId(id)).expect("escape row"),
                dense.condensed(EntityId(id)).expect("dense row")
            );
        }
    }

    #[test]
    fn quantized_lookup_exact_matches_condensed_and_flags_degraded() {
        let quant = ServiceSnapshot::build(&service_n(100)).quantize();
        let mut buf = Vec::new();
        for i in 0..quant.n_rows() as u32 {
            assert!(quant.lookup_exact(EntityId(i), &mut buf));
            let row = quant.condensed(EntityId(i)).expect("in range");
            assert_eq!(buf.as_slice(), &row[..], "row {i}");
        }
        assert!(!quant.lookup_exact(EntityId(u32::MAX), &mut buf));
        assert_eq!(buf.as_slice(), quant.fallback_row());
        assert!(quant.condensed(EntityId(u32::MAX)).is_none());
        assert!(quant.dense_table().is_none());
    }

    /// A table with one outlier row: quantizing keeps it verbatim, served
    /// as borrowed f32 bytes, while every other row dequantizes (owned).
    #[test]
    fn escape_rows_are_served_verbatim() {
        let row_len = 16;
        let mut rows: Vec<f32> = (0..70 * row_len).map(|i| (i as f32 * 0.37).sin()).collect();
        rows[2 * row_len + 5] = 50.0;
        let snap = ServiceSnapshot::from_rows(8, 2, ShardSpec::default(), &rows)
            .unwrap()
            .quantize();
        assert_eq!(snap.quant_rows().expect("quantized").0, &[2]);
        let mut buf = Vec::new();
        assert!(snap.lookup_exact(EntityId(2), &mut buf));
        assert_eq!(buf.as_slice(), &rows[2 * row_len..3 * row_len]);
        match snap.condensed(EntityId(2)).expect("in range") {
            Cow::Borrowed(r) => assert_eq!(r, &rows[2 * row_len..3 * row_len]),
            Cow::Owned(_) => panic!("escape row should serve borrowed bytes"),
        }
        match snap.condensed(EntityId(1)).expect("in range") {
            Cow::Owned(r) => {
                let (mut q, mut scales) = (Vec::new(), Vec::new());
                quant::quantize_row(&rows[row_len..2 * row_len], row_len, &mut scales, &mut q);
                let mut expect = vec![0.0f32; row_len];
                quant::dequantize_row_into(&q, &scales, row_len, &mut expect);
                assert_eq!(r, expect);
            }
            Cow::Borrowed(_) => panic!("quantized row should dequantize into an owned buffer"),
        }
    }
}
