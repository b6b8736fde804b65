//! Precomputed serving table: every entity's condensed service in one
//! contiguous block — dense `f32` or int8-quantized.
//!
//! A [`ServiceSnapshot`] trades memory (`n_entities × 2d` floats) for O(1)
//! zero-compute lookups — no matvecs, no hashing, no locks. It is the
//! deployment shape for read-only serving fleets: build once after
//! pre-training (or via `pkgm snapshot`), ship the bytes, and answer
//! condensed-service queries with a row slice.
//!
//! ## Quantized snapshots
//!
//! At the paper's scale (142.6M items × 2·64 floats ≈ 68 GiB) the dense
//! table dominates a serving host's RAM. [`ServiceSnapshot::quantize`]
//! converts the table to a [`QuantTable`] — blockwise symmetric int8 with
//! per-(row, block) scales — at ~29% of the dense bytes, keeping a small
//! set of worst-quantizing rows verbatim in f32 so no lookup degrades
//! badly. Quantized lookups dequantize deterministically
//! (`q_i · s_block`, fixed order), so a quantized snapshot written to
//! `PKGMSS3` ([`crate::snapshot3`]) and reopened — mapped or resident —
//! reproduces [`ServiceSnapshot::lookup_exact`] outputs bit-for-bit.

use std::borrow::Cow;

use crate::model::PkgmModel;
use crate::quant::QuantTable;
use crate::service::{condense_into, KnowledgeService, ServiceScratch};
use crate::snapshot3::{MappedDense, MappedQuant};
use pkgm_store::{EntityId, KeyRelationSelector};
use rayon::prelude::*;

/// Rows per rayon task when building the table.
const BUILD_CHUNK: usize = 128;

/// Cap on verbatim f32 rows kept by [`ServiceSnapshot::quantize`], as a
/// divisor of the row count: at most `n_rows / EXACT_ROW_DIVISOR` rows.
pub(crate) const EXACT_ROW_DIVISOR: usize = 64;

/// Rows whose measured quantization error exceeds this multiple of the
/// median row error are candidates for verbatim storage.
pub(crate) const EXACT_ERR_FACTOR: f32 = 4.0;

/// How a snapshot's row storage is held in the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotBacking {
    /// Rows in owned heap memory: a fresh build, or a fully-validated
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
}

/// Row storage behind a snapshot: the dense f32 table or its quantized
/// form plus verbatim escape rows, each either owned (resident) or
/// served zero-copy out of a mapped `PKGMSS3` region.
#[derive(Debug, Clone)]
pub(crate) enum Storage {
    Dense(Vec<f32>),
    Quantized(QuantizedRows),
    MappedDense(MappedDense),
    MappedQuantized(MappedQuant),
}

/// Quantized condensed table plus the verbatim f32 rows kept for the
/// worst-quantizing entities.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantizedRows {
    quant: QuantTable,
    /// Sorted entity ids whose rows are stored verbatim (served from
    /// `exact_rows` instead of dequantization).
    exact_ids: Vec<u32>,
    /// `exact_ids.len() × 2d` verbatim rows, parallel to `exact_ids`.
    exact_rows: Vec<f32>,
}

impl QuantizedRows {
    /// Assemble quantized storage from untrusted parts: the escape rows
    /// must match the escape ids, which [`check_exact_ids`] vets.
    pub(crate) fn new(
        quant: QuantTable,
        exact_ids: Vec<u32>,
        exact_rows: Vec<f32>,
    ) -> Result<Self, String> {
        if exact_rows.len() != exact_ids.len() * quant.row_len() {
            return Err(format!(
                "expected {} exact-row floats, found {}",
                exact_ids.len() * quant.row_len(),
                exact_rows.len()
            ));
        }
        check_exact_ids(&exact_ids, quant.n_rows())?;
        Ok(Self {
            quant,
            exact_ids,
            exact_rows,
        })
    }

    /// Serve row `id` into `out` (exact if escaped, else dequantized).
    fn row_into(&self, id: usize, out: &mut [f32]) {
        let row_len = self.quant.row_len();
        if let Ok(e) = self.exact_ids.binary_search(&(id as u32)) {
            out.copy_from_slice(&self.exact_rows[e * row_len..(e + 1) * row_len]);
        } else {
            self.quant.dequantize_into(id, out);
        }
    }
}

/// Escape ids must be strictly increasing (lookups binary-search them) and
/// name rows of an `n_rows`-row table.
pub(crate) fn check_exact_ids(ids: &[u32], n_rows: usize) -> Result<(), String> {
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err("exact-row ids are not strictly increasing".into());
    }
    match ids.last() {
        Some(&last) if last as usize >= n_rows => {
            Err(format!("exact-row id {last} beyond the {n_rows}-row table"))
        }
        _ => Ok(()),
    }
}

/// Table of condensed service vectors, one `2d` row per entity — dense
/// f32 or int8-quantized with verbatim escape rows, resident in heap
/// memory or memory-mapped from a `PKGMSS3` file.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    dim: usize,
    k: usize,
    storage: Storage,
    /// Column-wise mean of the *served* rows (zeros for an empty table):
    /// the degraded-mode answer for ids beyond the table. Computed when a
    /// table is built; `PKGMSS3` stores it as a section, so no load ever
    /// scans the table for it.
    fallback: Vec<f32>,
    /// Which global entity-id range this table covers.
    shard: ShardSpec,
}

/// Snapshots compare by *served content* — dim, k, shard range, fallback
/// row, and the logical row storage (dense table, or quantized parts) —
/// regardless of backing, so a mapped `PKGMSS3` equals the resident
/// snapshot it was written from.
impl PartialEq for ServiceSnapshot {
    fn eq(&self, other: &Self) -> bool {
        if self.dim != other.dim
            || self.k != other.k
            || self.shard != other.shard
            || self.fallback != other.fallback
        {
            return false;
        }
        match (self.dense_table(), other.dense_table()) {
            (Some(a), Some(b)) => return a == b,
            (None, None) => {}
            _ => return false,
        }
        match (self.quant_slices(), other.quant_slices()) {
            (Some(a), Some(b)) => {
                a.block == b.block
                    && a.data == b.data
                    && a.scales == b.scales
                    && a.row_errs == b.row_errs
                    && a.exact_ids == b.exact_ids
                    && a.exact_rows == b.exact_rows
            }
            _ => false,
        }
    }
}

/// Raw quantized storage slices, valid for both resident and mapped
/// backings — the serialization inputs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuantSlices<'a> {
    pub data: &'a [i8],
    pub scales: &'a [f32],
    pub row_errs: &'a [f32],
    pub block: usize,
    pub exact_ids: &'a [u32],
    pub exact_rows: &'a [f32],
}

/// Column-wise mean of a row-major table (zeros when there are no rows).
fn mean_row(rows: &[f32], row_len: usize) -> Vec<f32> {
    let mut mean = vec![0.0f32; row_len];
    let n_rows = rows.len().checked_div(row_len).unwrap_or(0);
    if n_rows == 0 {
        return mean;
    }
    for row in rows.chunks_exact(row_len) {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n_rows as f32;
    }
    mean
}

/// The condensed rows of model entities `0..rows.len() / 2d` into `rows`, in
/// [`BUILD_CHUNK`]-row tasks across the rayon pool; model row `local` serves
/// global entity `first + local`. `mats_t` is [`PkgmModel::transposed_mats`]
/// of `model`. Rows are independent, so the split never shows in a bit.
pub(crate) fn condensed_rows_into(
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
            let mut scratch = ServiceScratch::new(d);
            for (j, row) in block.chunks_exact_mut(2 * d).enumerate() {
                let local = u32::try_from(ci * BUILD_CHUNK + j).expect("entity count fits u32");
                let (h, rels) = (EntityId(local), selector.for_item(EntityId(first + local)));
                condense_into(model, mats_t, h, rels, selector.k(), &mut scratch, row);
            }
        });
}

/// Column-wise mean of the rows a [`QuantizedRows`] storage *serves*
/// (dequantized or exact), in the same accumulation order as
/// [`mean_row`] — quantize-then-save and load-from-parts must both call
/// this so the fallback row reproduces bitwise.
fn mean_served_row(q: &QuantizedRows, row_len: usize) -> Vec<f32> {
    let n_rows = q.quant.n_rows();
    let mut mean = vec![0.0f32; row_len];
    if n_rows == 0 {
        return mean;
    }
    let mut row = vec![0.0f32; row_len];
    for id in 0..n_rows {
        q.row_into(id, &mut row);
        for (m, &x) in mean.iter_mut().zip(&row) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n_rows as f32;
    }
    mean
}

impl ServiceSnapshot {
    /// Precompute the condensed service of every entity in `service`'s
    /// model, in parallel with per-thread scratch buffers.
    pub fn build(service: &KnowledgeService) -> Self {
        let d = service.dim();
        let row_len = 2 * d;
        let n = service.model().n_entities();
        let mut rows = vec![0.0f32; n * row_len];
        let (model, selector) = (service.model(), service.selector());
        condensed_rows_into(model, service.mats_t(), selector, 0, &mut rows);
        let fallback = mean_row(&rows, row_len);
        Self {
            dim: d,
            k: service.k(),
            storage: Storage::Dense(rows),
            fallback,
            shard: ShardSpec::default(),
        }
    }

    /// A whole-table dense snapshot of `rows`, its fallback the rows' mean.
    pub(crate) fn from_parts(dim: usize, k: usize, rows: Vec<f32>) -> Self {
        assert!(dim > 0, "snapshot dim must be positive");
        assert_eq!(
            rows.len() % (2 * dim),
            0,
            "snapshot table must be whole rows"
        );
        let fallback = mean_row(&rows, 2 * dim);
        Self {
            dim,
            k,
            storage: Storage::Dense(rows),
            fallback,
            shard: ShardSpec::default(),
        }
    }

    /// A whole-table quantized snapshot of its parts, its fallback the
    /// served rows' mean. Shape mismatches are errors, not panics.
    #[cfg(test)]
    pub(crate) fn from_quantized_parts(
        dim: usize,
        k: usize,
        quant: QuantTable,
        exact_ids: Vec<u32>,
        exact_rows: Vec<f32>,
    ) -> Result<Self, String> {
        if dim == 0 || quant.row_len() != 2 * dim {
            return Err(format!(
                "quantized rows are {} long, expected {}",
                quant.row_len(),
                2 * dim
            ));
        }
        let q = QuantizedRows::new(quant, exact_ids, exact_rows)?;
        let fallback = mean_served_row(&q, 2 * dim);
        Ok(Self::from_storage(
            dim,
            k,
            Storage::Quantized(q),
            fallback,
            ShardSpec::default(),
        ))
    }

    /// Mark this snapshot as shard `shard.shard_id` of `shard.n_shards`,
    /// covering global ids `[shard.row_start, row_start + n_rows)` — the
    /// builder-side step before writing per-shard `PKGMSS3` files.
    pub fn with_shard(mut self, shard: ShardSpec) -> Result<Self, String> {
        if shard.n_shards == 0 || shard.shard_id >= shard.n_shards {
            return Err(format!(
                "invalid shard spec: shard {} of {}",
                shard.shard_id, shard.n_shards
            ));
        }
        let end = shard.row_start.checked_add(self.n_rows() as u64);
        if end.is_none_or(|e| e > u64::from(u32::MAX) + 1) {
            return Err("shard row range exceeds the u32 id space".into());
        }
        self.shard = shard;
        Ok(self)
    }

    /// Extract one entity-range shard from a whole, dense table: rows
    /// `[shard.row_start, row_start + len)` become a new dense snapshot
    /// carrying `shard`, with its fallback recomputed over the shard's
    /// own rows (matching what [`crate::Ss3DenseWriter`] stores).
    pub fn shard_slice(&self, shard: ShardSpec, len: u64) -> Result<ServiceSnapshot, String> {
        if !self.shard.is_whole_table() {
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
        let row_len = 2 * self.dim;
        let rows = table[shard.row_start as usize * row_len..end as usize * row_len].to_vec();
        ServiceSnapshot::from_parts(self.dim, self.k, rows).with_shard(shard)
    }

    /// Assemble a snapshot directly from validated storage and its stored
    /// fallback row — both `PKGMSS3` loaders, so mapped and resident
    /// backings serve identical degraded-mode bytes.
    pub(crate) fn from_storage(
        dim: usize,
        k: usize,
        storage: Storage,
        fallback: Vec<f32>,
        shard: ShardSpec,
    ) -> Self {
        assert_eq!(fallback.len(), 2 * dim, "fallback must be one row");
        Self {
            dim,
            k,
            storage,
            fallback,
            shard,
        }
    }

    /// The quantized form of this snapshot: the condensed table as a
    /// blockwise int8 [`QuantTable`], with the worst-quantizing rows
    /// (error > [`EXACT_ERR_FACTOR`]× the median, capped at
    /// `n_rows / `[`EXACT_ROW_DIVISOR`]) kept verbatim in f32. Already
    /// quantized snapshots are returned as-is.
    pub fn quantize(&self) -> ServiceSnapshot {
        let row_len = 2 * self.dim;
        let rows: &[f32] = match &self.storage {
            Storage::Quantized(_) | Storage::MappedQuantized(_) => return self.clone(),
            Storage::Dense(rows) => rows,
            Storage::MappedDense(m) => m.table(),
        };
        let quant = QuantTable::quantize_table(rows, row_len);
        let errs = quant.row_errs();
        let mut sorted = errs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite quant errors"));
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        let mut escapes: Vec<u32> = (0..quant.n_rows() as u32)
            .filter(|&i| errs[i as usize] > EXACT_ERR_FACTOR * median)
            .collect();
        // Worst offenders first (ties by id for determinism), capped.
        escapes.sort_by(|&a, &b| {
            errs[b as usize]
                .partial_cmp(&errs[a as usize])
                .expect("finite quant errors")
                .then(a.cmp(&b))
        });
        escapes.truncate(quant.n_rows() / EXACT_ROW_DIVISOR);
        escapes.sort_unstable();
        let mut exact_rows = Vec::with_capacity(escapes.len() * row_len);
        for &id in &escapes {
            exact_rows.extend_from_slice(&rows[id as usize * row_len..][..row_len]);
        }
        let q = QuantizedRows {
            quant,
            exact_ids: escapes,
            exact_rows,
        };
        let fallback = mean_served_row(&q, row_len);
        ServiceSnapshot {
            dim: self.dim,
            k: self.k,
            storage: Storage::Quantized(q),
            fallback,
            shard: self.shard,
        }
    }

    /// Embedding dimension `d` (rows are `2d` long).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Key relations per item the source service used.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entity rows in the table.
    pub fn n_rows(&self) -> usize {
        match &self.storage {
            Storage::Dense(rows) => rows.len() / (2 * self.dim),
            Storage::Quantized(q) => q.quant.n_rows(),
            Storage::MappedDense(m) => m.n_rows(),
            Storage::MappedQuantized(m) => m.n_rows(),
        }
    }

    /// Whether rows are stored int8-quantized.
    pub fn is_quantized(&self) -> bool {
        matches!(
            self.storage,
            Storage::Quantized(_) | Storage::MappedQuantized(_)
        )
    }

    /// How the row storage is held: [`SnapshotBacking::Resident`] heap
    /// memory or a [`SnapshotBacking::Mapped`] `PKGMSS3` region.
    pub fn backing(&self) -> SnapshotBacking {
        match &self.storage {
            Storage::Dense(_) | Storage::Quantized(_) => SnapshotBacking::Resident,
            Storage::MappedDense(_) | Storage::MappedQuantized(_) => SnapshotBacking::Mapped,
        }
    }

    /// Give a mapped table's resident pages back to the kernel; a no-op
    /// for heap storage. Lookups stay bit-identical (the next read faults
    /// the same bytes back in), so a retired generation can shed its
    /// pages while its last in-flight batches still read it.
    pub(crate) fn release_mapped_pages(&self) {
        match &self.storage {
            Storage::MappedDense(m) => m.region.release_resident(),
            Storage::MappedQuantized(m) => m.region.release_resident(),
            Storage::Dense(_) | Storage::Quantized(_) => {}
        }
    }

    /// The global entity-id range this snapshot covers.
    pub fn shard(&self) -> ShardSpec {
        self.shard
    }

    /// True when global id `id` falls inside this snapshot's shard range
    /// `[row_start, row_start + n_rows)` — i.e. a lookup serves a real
    /// row rather than the degraded fallback.
    pub fn covers(&self, id: u32) -> bool {
        self.local_row(id).is_some()
    }

    /// Translate a global entity id to this shard's local row index.
    fn local_row(&self, id: u32) -> Option<usize> {
        let local = (id as u64).checked_sub(self.shard.row_start)?;
        if (local as usize) < self.n_rows() {
            Some(local as usize)
        } else {
            None
        }
    }

    /// Bytes of logical row storage (the `bytes_per_entity` bench basis;
    /// excludes the fallback row). For mapped backings this counts the
    /// on-disk section bytes served through the mapping, not process RSS.
    pub fn storage_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense(rows) => 4 * rows.len(),
            Storage::Quantized(q) => {
                q.quant.storage_bytes() + 4 * q.exact_ids.len() + 4 * q.exact_rows.len()
            }
            Storage::MappedDense(m) => 4 * m.table().len(),
            Storage::MappedQuantized(m) => {
                m.data().len()
                    + 4 * m.scales().len()
                    + 4 * m.row_errs().len()
                    + 4 * m.exact_ids().len()
                    + 4 * m.exact_rows_f32().len()
            }
        }
    }

    /// O(1) condensed-service lookup; `None` for ids beyond the table.
    ///
    /// Dense tables and verbatim escape rows borrow; quantized rows
    /// dequantize into an owned buffer. Allocation-sensitive callers
    /// should use [`ServiceSnapshot::lookup_exact`] with a reused buffer.
    pub fn condensed(&self, item: EntityId) -> Option<Cow<'_, [f32]>> {
        let row_len = 2 * self.dim;
        let id = self.local_row(item.0)?;
        match &self.storage {
            Storage::Dense(rows) => Some(Cow::Borrowed(&rows[id * row_len..(id + 1) * row_len])),
            Storage::MappedDense(m) => {
                Some(Cow::Borrowed(&m.table()[id * row_len..(id + 1) * row_len]))
            }
            Storage::Quantized(q) => {
                if let Ok(e) = q.exact_ids.binary_search(&(id as u32)) {
                    Some(Cow::Borrowed(&q.exact_rows[e * row_len..(e + 1) * row_len]))
                } else {
                    let mut out = vec![0.0f32; row_len];
                    q.quant.dequantize_into(id, &mut out);
                    Some(Cow::Owned(out))
                }
            }
            Storage::MappedQuantized(m) => {
                if let Ok(e) = m.exact_ids().binary_search(&(id as u32)) {
                    Some(Cow::Borrowed(
                        &m.exact_rows_f32()[e * row_len..(e + 1) * row_len],
                    ))
                } else {
                    let mut out = vec![0.0f32; row_len];
                    m.dequantize_into(id, &mut out);
                    Some(Cow::Owned(out))
                }
            }
        }
    }

    /// Degraded-mode lookup: the entity's row if the id is in range, else
    /// the table-mean [`ServiceSnapshot::fallback_row`]. The flag is `true`
    /// iff the fallback was served, so callers can count degraded answers.
    pub fn condensed_or_fallback(&self, item: EntityId) -> (Cow<'_, [f32]>, bool) {
        match self.condensed(item) {
            Some(row) => (row, false),
            None => (Cow::Borrowed(&self.fallback[..]), true),
        }
    }

    /// Allocation-free lookup into a reused buffer (resized to `2d`):
    /// writes the served row — dense, verbatim escape, or
    /// deterministically dequantized — and returns `true`; for ids beyond
    /// the table writes the fallback row and returns `false` (degraded).
    ///
    /// "Exact" is the serialization contract: the bytes written here are
    /// a pure function of the snapshot's stored parts, so a `PKGMSS3`
    /// round-trip reproduces them bit-for-bit.
    pub fn lookup_exact(&self, item: EntityId, out: &mut Vec<f32>) -> bool {
        out.resize(2 * self.dim, 0.0);
        self.row_into(item, out)
    }

    /// [`ServiceSnapshot::lookup_exact`] into a caller-owned `2d` slice —
    /// the serving cache reads rows straight into a batch's result buffer.
    ///
    /// # Panics
    /// If `out.len() != 2 * self.dim()`.
    pub fn row_into(&self, item: EntityId, out: &mut [f32]) -> bool {
        let row_len = 2 * self.dim;
        let id = match self.local_row(item.0) {
            Some(local) => local,
            None => {
                out.copy_from_slice(&self.fallback);
                return false;
            }
        };
        match &self.storage {
            Storage::Dense(rows) => {
                out.copy_from_slice(&rows[id * row_len..(id + 1) * row_len]);
            }
            Storage::MappedDense(m) => {
                out.copy_from_slice(&m.table()[id * row_len..(id + 1) * row_len]);
            }
            Storage::Quantized(q) => q.row_into(id, out),
            Storage::MappedQuantized(m) => m.row_into(id, out),
        }
        true
    }

    /// The fallback served for out-of-range ids: the column-wise mean of
    /// every served row (all zeros for an empty table). A `2d` slice.
    pub fn fallback_row(&self) -> &[f32] {
        &self.fallback
    }

    /// The contiguous row-major f32 table (`n_rows × 2d`), when rows are
    /// stored dense (resident or mapped); `None` for quantized snapshots.
    pub fn dense_table(&self) -> Option<&[f32]> {
        match &self.storage {
            Storage::Dense(rows) => Some(rows),
            Storage::MappedDense(m) => Some(m.table()),
            Storage::Quantized(_) | Storage::MappedQuantized(_) => None,
        }
    }

    /// The resident quantized parts (table, sorted escape ids, escape
    /// rows). `None` for dense *and* for mapped-quantized storage — use
    /// [`ServiceSnapshot::quant_slices`] for backing-agnostic access.
    #[cfg(test)]
    pub(crate) fn quant_parts(&self) -> Option<(&QuantTable, &[u32], &[f32])> {
        match &self.storage {
            Storage::Quantized(q) => Some((&q.quant, &q.exact_ids, &q.exact_rows)),
            _ => None,
        }
    }

    /// Raw quantized storage slices for either backing — the `PKGMSS3`
    /// serialization inputs. `None` for dense storage.
    pub(crate) fn quant_slices(&self) -> Option<QuantSlices<'_>> {
        match &self.storage {
            Storage::Dense(_) | Storage::MappedDense(_) => None,
            Storage::Quantized(q) => Some(QuantSlices {
                data: q.quant.data(),
                scales: q.quant.scales(),
                row_errs: q.quant.row_errs(),
                block: q.quant.block(),
                exact_ids: &q.exact_ids,
                exact_rows: &q.exact_rows,
            }),
            Storage::MappedQuantized(m) => Some(QuantSlices {
                data: m.data(),
                scales: m.scales(),
                row_errs: m.row_errs(),
                block: m.block(),
                exact_ids: m.exact_ids(),
                exact_rows: m.exact_rows_f32(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PkgmConfig, PkgmModel};
    use pkgm_store::{KeyRelationSelector, StoreBuilder};

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

    #[test]
    fn built_rows_match_the_row_order_condense_loop() {
        let svc = service_n(40);
        let snap = ServiceSnapshot::build(&svc);
        let d = svc.dim();
        let (mut t, mut r) = (vec![0.0f32; d], vec![0.0f32; d]);
        let mut out = vec![0.0f32; 2 * d];
        for item in 0..snap.n_rows() as u32 {
            let item = EntityId(item);
            // `condensed_service_into` as it was before `S_R` went column
            // order: `service_r_into` per key relation.
            let k = svc.k() as f32;
            out.fill(0.0);
            for &rel in svc.selector().for_item(item) {
                svc.model().service_t_into(item, rel, &mut t);
                svc.model().service_r_into(item, rel, &mut r);
                for i in 0..d {
                    out[i] += t[i] / k;
                    out[d + i] += r[i] / k;
                }
            }
            let row = snap.condensed(item).expect("row in range");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&row), bits(&out), "row {item:?}");
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
        let (qt, ids, _) = quant.quant_parts().expect("quantized parts");
        let mut buf = Vec::new();
        for i in 0..quant.n_rows() as u32 {
            assert!(quant.lookup_exact(EntityId(i), &mut buf));
            let orig = dense.condensed(EntityId(i)).expect("dense row");
            let tol = if ids.binary_search(&i).is_ok() {
                0.0
            } else {
                qt.max_abs_err(i as usize)
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
        let (_, ids, rows) = quant.quant_parts().expect("quantized parts");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "escape ids sorted");
        let row_len = 2 * quant.dim();
        for (e, &id) in ids.iter().enumerate() {
            assert_eq!(
                &rows[e * row_len..(e + 1) * row_len],
                &dense.condensed(EntityId(id)).expect("dense row")[..]
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

    /// An explicitly constructed escape set: escaped rows serve the
    /// verbatim f32 bytes (borrowed), all other rows dequantize (owned).
    #[test]
    fn escape_rows_are_served_verbatim() {
        let row_len = 16;
        let rows: Vec<f32> = (0..4 * row_len).map(|i| (i as f32 * 0.37).sin()).collect();
        let qt = QuantTable::quantize_table(&rows, row_len);
        let exact_ids = vec![2u32];
        let exact_rows = rows[2 * row_len..3 * row_len].to_vec();
        let snap =
            ServiceSnapshot::from_quantized_parts(8, 2, qt.clone(), exact_ids, exact_rows).unwrap();
        let mut buf = Vec::new();
        assert!(snap.lookup_exact(EntityId(2), &mut buf));
        assert_eq!(buf.as_slice(), &rows[2 * row_len..3 * row_len]);
        match snap.condensed(EntityId(2)).expect("in range") {
            Cow::Borrowed(r) => assert_eq!(r, &rows[2 * row_len..3 * row_len]),
            Cow::Owned(_) => panic!("escape row should serve borrowed bytes"),
        }
        match snap.condensed(EntityId(1)).expect("in range") {
            Cow::Owned(r) => {
                let mut expect = vec![0.0f32; row_len];
                qt.dequantize_into(1, &mut expect);
                assert_eq!(r, expect);
            }
            Cow::Borrowed(_) => panic!("quantized row should dequantize into an owned buffer"),
        }
    }

    #[test]
    fn from_quantized_parts_rejects_broken_shapes() {
        let quant = ServiceSnapshot::build(&service_n(100)).quantize();
        let (qt, ids, rows) = quant.quant_parts().expect("quantized parts");
        let (qt, ids, rows) = (qt.clone(), ids.to_vec(), rows.to_vec());
        let d = quant.dim();
        let k = quant.k();
        let rebuilt =
            ServiceSnapshot::from_quantized_parts(d, k, qt.clone(), ids.clone(), rows.clone())
                .expect("valid parts");
        assert_eq!(rebuilt, quant);
        // Wrong dim for the quant table's row length.
        assert!(ServiceSnapshot::from_quantized_parts(
            d + 1,
            k,
            qt.clone(),
            ids.clone(),
            rows.clone()
        )
        .is_err());
        // Exact rows not matching the id count (one stray float).
        let mut stray = rows.clone();
        stray.push(0.0);
        assert!(
            ServiceSnapshot::from_quantized_parts(d, k, qt.clone(), ids.clone(), stray).is_err()
        );
        // Unsorted and out-of-range escape ids.
        if ids.len() >= 2 {
            let mut bad = ids.clone();
            bad.swap(0, 1);
            assert!(
                ServiceSnapshot::from_quantized_parts(d, k, qt.clone(), bad, rows.clone()).is_err()
            );
        }
        let bad = vec![quant.n_rows() as u32];
        let bad_rows = vec![0.0f32; 2 * d];
        assert!(ServiceSnapshot::from_quantized_parts(d, k, qt, bad, bad_rows).is_err());
    }
}
