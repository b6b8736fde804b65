//! Blockwise symmetric int8 quantization with certified L1 lower bounds.
//!
//! At the paper's scale (142.6M item embeddings) the f32 tables, not the
//! arithmetic, bound evaluation throughput: every candidate scan streams
//! `4·d` bytes per entity through the cache hierarchy. This module shrinks
//! that to `d` bytes by quantizing tables to int8 — but, unlike lossy
//! quantized retrieval, the quantized scan here is only a **pruning
//! filter**: each candidate gets a *certified lower bound* on its f32 L1
//! score, candidates whose bound already reaches the true score are
//! discarded in the cheap i8 domain, and the survivors are rescored
//! exactly in f32. Ranks stay bit-identical to the full-precision scan
//! (the `quant_parity` suite pins this) while memory traffic per pruned
//! candidate drops ~4×.
//!
//! One table shape, [`QuantScanTable`], with **per-block scales shared by
//! every row**: because scales are shared, a query vector is quantized
//! *once* and candidate bounds reduce to integer absolute-difference sums
//! (`Σ_b s_b · Σ_{i∈b} |q_x − q_c|`), which is what makes the phase-1 scan
//! cheap.
//!
//! Quantized serving snapshots (`PKGMSS3`) quantize each row against its
//! own per-block max instead, through [`quantize_row`] (the snapshot
//! writer's one per-row loop), and reconstruct through
//! [`dequantize_row_into`]; the row's measured error certifies
//! `|x_i − dequant_i| ≤ row_err` for every element.
//!
//! ## Why the lower bound is sound in f32, not just on paper
//!
//! The real-arithmetic bound is the triangle inequality: with per-element
//! quantization errors `e_x = Σ|x − x̂|` and `e_c ≤ margin`,
//! `Σ|x̂ − ĉ| − e_x − e_c ≤ Σ|x − c|`. Three f32 effects could break it:
//!
//! 1. rounding while *accumulating* the quantized sum, the margins and the
//!    query error — each sum has O(d) roundings, relative error
//!    ≤ ~(d+4)·ε ≈ 2e-5 at d = 128;
//! 2. rounding while *forming* the query (`round(x·inv_s)` may land one
//!    step off when `x/s` sits within ~3e-5 of a half-integer);
//! 3. the comparison target itself: the kernels' eight-lane `blocked_l1`
//!    is a rounded version of the real L1, low by at most ~20·ε relative.
//!
//! All three are absorbed by explicit slack: candidate and query errors
//! are *measured* at quantization time and inflated by [`ERR_INFLATE`],
//! and the accumulated quantized sum is shaved by [`SUM_SHAVE`] — two
//! orders of magnitude more than the worst rounding drift, and negligible
//! against the measured rounding errors that dominate the bound. The
//! resulting guarantee, tested adversarially in `quant_parity`, is
//! `lower_bound(x, row) ≤ blocked_l1(x, row_f32)` for the *computed*
//! values on both sides, which is exactly what the two-phase kernels need
//! for bit-identical ranks.
//!
//! ## Outlier rows
//!
//! Trained embedding tables have heavy-tailed coordinate magnitudes; a
//! max-based shared scale would let one outlier row crush everyone else's
//! resolution (and with it the bound's tightness — a useless-but-sound
//! bound prunes nothing). [`QuantScanTable`] therefore sets each block's
//! scale at the [`SCAN_SCALE_QUANTILE`] of the per-row block maxima and
//! marks the few rows above it as **escapes** (`row_err = +∞`): their
//! lower bound is `−∞`, so they always survive to the exact phase-2
//! rescore — correct by construction, and rare enough not to matter for
//! throughput.

use crate::simd::QUERY_LANES;
use std::ops::Range;

/// Dimensions per quantization block. At 32 a d = 64 row carries two
/// scales (8 bytes) next to 64 i8 payload bytes — ~12% overhead — and a
/// block's integer absolute-difference sum stays well inside i16/i32.
pub const QUANT_BLOCK: usize = 32;

/// Quantile of the per-row block maxima at which [`QuantScanTable`] sets
/// its shared block scales; rows above it become escapes (see the module
/// docs). At 0.995, at most ~0.5% of rows per block skip phase 1.
const SCAN_SCALE_QUANTILE: f64 = 0.995;

/// Multiplicative inflation applied to computed error sums so a sum that
/// f32-rounds *down* still upper-bounds the real error (O(d)·ε ≈ 2e-5
/// relative at d = 128, budgeted 1e-4).
pub(crate) const ERR_INFLATE: f32 = 1.0001;

/// Relative shave applied to the accumulated quantized sum, covering its
/// own accumulation rounding *and* the rounding deficit of the f32
/// `blocked_l1` it lower-bounds.
pub(crate) const SUM_SHAVE: f32 = 2e-4;

/// Deflation applied to the accumulated clamp bonus (distance a query
/// coordinate is guaranteed to keep from every in-range candidate, see
/// [`QuantScanTable::quantize_query`]) so f32 rounding cannot overstate
/// it.
const BONUS_DEFLATE: f32 = 0.9999;

/// Round-to-nearest unit roundoff bound for f32 (2⁻²³); callers use it to
/// budget formation error of derived query vectors (e.g. `t − r`).
pub const F32_EPS: f32 = f32::EPSILON;

/// Quantize one value against a precomputed reciprocal scale, clamped to
/// the symmetric i8 range.
#[inline]
fn quantize_one(x: f32, inv: f32) -> i8 {
    (x * inv).round().clamp(-127.0, 127.0) as i8
}

/// Number of blocks covering `row_len` dimensions (last block ragged).
#[inline]
fn n_blocks(row_len: usize, block: usize) -> usize {
    row_len.div_ceil(block)
}

/// Quantize one row blockwise, symmetric int8 against each block's own
/// max: push each block's scale (`amax / 127`, 0 for an all-zero block) to
/// `scales` and the row's values to `out`, and return the row's certified
/// error — the measured `max_i |x_i − q_i·s|`, inflated by [`ERR_INFLATE`]
/// so it upper-bounds the real error despite f32 rounding.
pub(crate) fn quantize_row(
    row: &[f32],
    block: usize,
    scales: &mut Vec<f32>,
    out: &mut Vec<i8>,
) -> f32 {
    let mut err = 0.0f32;
    for chunk in row.chunks(block) {
        let amax = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let (scale, inv) = if amax > 0.0 {
            (amax / 127.0, 127.0 / amax)
        } else {
            (0.0, 0.0)
        };
        scales.push(scale);
        for &x in chunk {
            let q = quantize_one(x, inv);
            out.push(q);
            err = err.max((x - q as f32 * scale).abs());
        }
    }
    err * ERR_INFLATE
}

/// Deterministically reconstruct the quantized row `q` (`q_i · s_block`,
/// one scale per `block` values) into `out`: the one reconstruction loop
/// of every quantized snapshot, resident or mapped.
pub(crate) fn dequantize_row_into(q: &[i8], scales: &[f32], block: usize, out: &mut [f32]) {
    assert_eq!(out.len(), q.len(), "output must be one row");
    assert_eq!(
        scales.len(),
        n_blocks(q.len(), block),
        "one scale per block"
    );
    for ((qc, oc), &s) in q.chunks(block).zip(out.chunks_mut(block)).zip(scales) {
        for (&qv, o) in qc.iter().zip(oc) {
            *o = qv as f32 * s;
        }
    }
}

// ---------------------------------------------------------------------------
// QuantScanTable — shared per-block scales (kernel scan form)
// ---------------------------------------------------------------------------

/// A row-major i8 table whose block scales are shared by **every** row,
/// so a query quantizes once and per-candidate lower bounds reduce to
/// integer absolute-difference sums.
///
/// Block scales sit at the [`SCAN_SCALE_QUANTILE`] of the per-row block
/// maxima; the few rows above a block's scale are escapes whose lower
/// bound is `−∞` (always rescored exactly). Each served row carries its
/// *measured* quantization error sum, so the bound's slack tracks the
/// actual rounding, not a worst case.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantScanTable {
    row_len: usize,
    block: usize,
    n_rows: usize,
    /// `n_rows × row_len` quantized values.
    data: Vec<i8>,
    /// One scale per block, shared across rows.
    scales: Vec<f32>,
    /// Reciprocal scales for query quantization (0 for empty blocks).
    inv_scales: Vec<f32>,
    /// Per-row measured `Σ_i |x_i − q_i·s_b|`, inflated by
    /// [`ERR_INFLATE`]; `+∞` marks an escape row (a block magnitude above
    /// the shared scale — never pruned).
    row_err: Vec<f32>,
}

impl QuantScanTable {
    /// Quantize a row-major f32 table with table-wide per-block scales.
    pub fn from_rows(rows: &[f32], row_len: usize) -> Self {
        assert!(row_len > 0, "row_len must be positive");
        assert_eq!(rows.len() % row_len, 0, "table must be whole rows");
        let n_rows = rows.len() / row_len;
        let block = QUANT_BLOCK.min(row_len);
        let nb = n_blocks(row_len, block);
        // Per-(row, block) max magnitudes, then a robust per-block scale at
        // the quantile — a handful of outlier rows must not set everyone's
        // resolution (they escape phase 1 instead).
        let mut amax = vec![0.0f32; n_rows * nb];
        for (r, row) in rows.chunks_exact(row_len).enumerate() {
            for (b, chunk) in row.chunks(block).enumerate() {
                amax[r * nb + b] = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            }
        }
        let mut scales = vec![0.0f32; nb];
        let mut column = vec![0.0f32; n_rows];
        if n_rows > 0 {
            for (b, scale) in scales.iter_mut().enumerate() {
                for r in 0..n_rows {
                    column[r] = amax[r * nb + b];
                }
                let k = ((n_rows - 1) as f64 * SCAN_SCALE_QUANTILE) as usize;
                let (_, kth, _) = column.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
                *scale = if *kth > 0.0 { *kth / 127.0 } else { 0.0 };
            }
        }
        let inv_scales: Vec<f32> = scales
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        let mut data = Vec::with_capacity(rows.len());
        let mut row_err = Vec::with_capacity(n_rows);
        for (r, row) in rows.chunks_exact(row_len).enumerate() {
            let escapes = (0..nb).any(|b| scales[b] * 127.0 < amax[r * nb + b]);
            let mut err = 0.0f32;
            for (b, chunk) in row.chunks(block).enumerate() {
                let inv = inv_scales[b];
                let s = scales[b];
                for &x in chunk {
                    let q = quantize_one(x, inv);
                    data.push(q);
                    err += (x - q as f32 * s).abs();
                }
            }
            row_err.push(if escapes {
                f32::INFINITY
            } else {
                err * ERR_INFLATE
            });
        }
        Self {
            row_len,
            block,
            n_rows,
            data,
            scales,
            inv_scales,
            row_err,
        }
    }

    /// Row length in elements.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// One quantized row (`row_len` i8 values — the phase-1 bytes).
    #[inline]
    pub fn row(&self, row: u32) -> &[i8] {
        let start = row as usize * self.row_len;
        &self.data[start..start + self.row_len]
    }

    /// Bytes of quantized storage (payload + scales + per-row errors).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + 4 * (self.scales.len() + self.inv_scales.len() + self.row_err.len())
    }

    /// Whether `row` bypasses phase 1 (a block magnitude above the shared
    /// scale; its lower bound is `−∞`).
    pub fn is_escape(&self, row: u32) -> bool {
        self.row_err[row as usize] == f32::INFINITY
    }

    /// Quantize a query vector against the shared block scales and return
    /// the certified *net* query-side adjustment the lower bound must
    /// subtract — possibly negative.
    ///
    /// In-range coordinates contribute their measured rounding error
    /// `|x_i − q_i·s_b|` (inflated by [`ERR_INFLATE`]). Out-of-range
    /// coordinates clamp to `±127` and contribute a *bonus* instead: every
    /// non-escape candidate has `|c_i| ≤ 127·s_b` there, so
    /// `|x_i − c_i| ≥ (|x_i| − 127·s_b) + |x̂_i − ĉ_i| − |c_i − ĉ_i|` —
    /// the clamp excess is guaranteed distance, not error. This matters:
    /// translation queries (`h′ + r`, `t − r`) routinely exceed the entity
    /// table's coordinate range, and charging the excess as error would
    /// make the bound useless exactly where pruning pays most.
    ///
    /// `extra_err` carries any formation error of `x` itself (e.g.
    /// `ε·Σ(|t|+|r|)` when `x = fl(t − r)` stands in for `t − r` in a
    /// translation score).
    pub fn quantize_query(&self, x: &[f32], out: &mut [i8], extra_err: f32) -> f32 {
        assert_eq!(x.len(), self.row_len, "query must be one row");
        assert_eq!(out.len(), self.row_len, "output must be one row");
        let mut err = extra_err;
        let mut bonus = 0.0f32;
        for ((b, chunk), oc) in x
            .chunks(self.block)
            .enumerate()
            .zip(out.chunks_mut(self.block))
        {
            let inv = self.inv_scales[b];
            let s = self.scales[b];
            let lim = 127.0 * s;
            for (&v, o) in chunk.iter().zip(oc) {
                if v > lim {
                    *o = 127;
                    bonus += v - lim;
                } else if v < -lim {
                    *o = -127;
                    bonus += -v - lim;
                } else {
                    let q = quantize_one(v, inv);
                    *o = q;
                    err += (v - q as f32 * s).abs();
                }
            }
        }
        err * ERR_INFLATE - bonus * BONUS_DEFLATE
    }

    /// Certified lower bound on the kernels' computed eight-lane L1
    /// between the query `quantize_query` produced `(q, query_err)` from
    /// and row `row`'s original f32 values:
    ///
    /// `lower_bound(q, row, query_err) ≤ blocked_l1(x, row_f32)`
    ///
    /// for the computed f32 values on both sides (see the module docs for
    /// the rounding budget). The integer per-block sums are exact; only
    /// the tiny `n_blocks`-term scale combination rounds.
    #[inline]
    pub fn lower_bound(&self, q: &[i8], row: u32, query_err: f32) -> f32 {
        let row_err = self.row_err[row as usize];
        if row_err == f32::INFINITY {
            // Escape row: never pruned, skip the scan entirely.
            return f32::NEG_INFINITY;
        }
        let cand = self.row(row);
        let mut sum = 0.0f32;
        for (b, &scale) in self.scales.iter().enumerate() {
            // The per-block integer SAD is runtime-dispatched
            // (`_mm256_sad_epu8` on AVX2 hosts) and exact on every level,
            // so the bound is unchanged by dispatch.
            let start = b * self.block;
            let end = (start + self.block).min(self.row_len);
            let d = crate::simd::sad_i8(&cand[start..end], &q[start..end]);
            sum += scale * d as f32;
        }
        (sum - sum * SUM_SHAVE - row_err) - query_err
    }

    /// Early-exit form of [`Self::lower_bound`] — the per-candidate
    /// decision of the pruning scan: `true` iff the certified lower bound
    /// on the blocked L1 between the query and `row` reaches `bound`.
    /// Per-block partial sums only grow, so the scan stops at the first
    /// block whose running total already proves the bound — on trained
    /// models most candidates are decided by the first block, halving the
    /// bytes touched at d = 64.
    ///
    /// The test is algebraically `lower_bound(q, row, query_err) ≥ bound`,
    /// rearranged so the threshold is precomputed and each block can
    /// decide. The rearrangement adds a couple of f32 roundings (~ε·bound),
    /// orders of magnitude inside the [`SUM_SHAVE`] budget, so a `true`
    /// still certifies that the exact blocked L1 reaches `bound`.
    ///
    /// The kernels decide whole runs through `simd::prune_run` and lane
    /// blocks through `simd::lanes_prune`; this is both entries'
    /// per-candidate twin.
    pub fn prunes(&self, q: &[i8], row: u32, query_err: f32, bound: f32) -> bool {
        self.run(q, query_err, bound, row..row + 1, None)
            .prunes_with(0, bound, crate::simd::sad_i8)
    }

    /// The phase-1 scan of candidates `ids` against the quantized query
    /// `(q, query_err)` and `bound`, for `simd::prune_run`. With `extra`
    /// (one value per candidate, the relation-module score) a candidate
    /// whose `extra` reaches `bound` is skipped and not counted, and the
    /// others are pruned against `bound − extra`.
    ///
    /// # Panics
    /// If `ids` leaves the table or `q` is not one row; the scan panics if
    /// `extra` is not one value per candidate.
    pub fn run<'a>(
        &'a self,
        q: &'a [i8],
        query_err: f32,
        bound: f32,
        ids: Range<u32>,
        extra: Option<&'a [f32]>,
    ) -> PruneRun<'a> {
        assert_eq!(q.len(), self.row_len, "query must be one row");
        let (lo, hi) = (ids.start as usize, ids.end as usize);
        PruneRun {
            q,
            query_err,
            bound,
            first: ids.start,
            rows: &self.data[lo * self.row_len..hi * self.row_len],
            row_err: &self.row_err[lo..hi],
            scales: &self.scales,
            block: self.block,
            extra,
        }
    }

    /// The phase-1 scan of the lane queries `q` against `cands` — row ids
    /// with the lanes each is live in — for `simd::lanes_prune`.
    ///
    /// # Panics
    /// If `q` holds queries of another length than this table's rows.
    pub fn lanes<'a>(&'a self, q: &'a LaneQueries, cands: &'a [(u32, u16)]) -> PruneLanes<'a> {
        assert_eq!(q.d, self.row_len, "lane queries must be rows of this table");
        PruneLanes {
            q,
            table: self,
            cands,
        }
    }
}

/// Whether the certified lower bound between the quantized query `q` and
/// the candidate row `cand` reaches the bound — [`QuantScanTable::prunes`]
/// with `lane_target = bound + query_err` precomputed; `target =
/// lane_target + row_err` sums in the same order. Escape rows
/// (`row_err = +∞`) are never pruned.
#[inline]
fn prunes_row(
    q: &[i8],
    cand: &[i8],
    row_err: f32,
    lane_target: f32,
    scales: &[f32],
    block: usize,
    sad: impl Fn(&[i8], &[i8]) -> u32,
) -> bool {
    if row_err == f32::INFINITY {
        // Escape row: never pruned, skip the scan entirely.
        return false;
    }
    let target = lane_target + row_err;
    let d = q.len();
    let mut sum = 0.0f32;
    for (b, &scale) in scales.iter().enumerate() {
        let start = b * block;
        let end = (start + block).min(d);
        sum += scale * sad(&cand[start..end], &q[start..end]) as f32;
        if sum - sum * SUM_SHAVE >= target {
            return true;
        }
    }
    false
}

/// A contiguous run of candidates of a [`QuantScanTable`] with one
/// quantized query — the argument of `simd::prune_run`, built by
/// [`QuantScanTable::run`].
#[derive(Debug, Clone, Copy)]
pub struct PruneRun<'a> {
    pub(crate) q: &'a [i8],
    pub(crate) query_err: f32,
    pub(crate) bound: f32,
    /// Id of the run's first candidate.
    pub(crate) first: u32,
    /// The candidates' quantized rows, row-major.
    pub(crate) rows: &'a [i8],
    /// The candidates' row errors (`+∞` = escape).
    pub(crate) row_err: &'a [f32],
    pub(crate) scales: &'a [f32],
    pub(crate) block: usize,
    pub(crate) extra: Option<&'a [f32]>,
}

impl PruneRun<'_> {
    /// Candidates in the run, after checking every slice against the
    /// query's length — what makes the vector body's unchecked loads
    /// sound.
    pub(crate) fn checked_len(&self) -> usize {
        let (n, d) = (self.row_err.len(), self.q.len());
        assert_eq!(self.rows.len(), n * d, "run rows must be n × d");
        assert_eq!(
            self.scales.len(),
            d.div_ceil(self.block),
            "one scale per block"
        );
        if let Some(extra) = self.extra {
            assert_eq!(extra.len(), n, "one extra per candidate");
        }
        n
    }

    /// The run without its first `i` candidates.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn skip(&self, i: usize) -> Self {
        Self {
            first: self.first + i as u32,
            rows: &self.rows[i * self.q.len()..],
            row_err: &self.row_err[i..],
            extra: self.extra.map(|e| &e[i..]),
            ..*self
        }
    }

    /// [`QuantScanTable::prunes`] for candidate `i` of the run against
    /// `bound`, the per-block integer SAD supplied by the dispatch level
    /// (exact at every level).
    #[inline]
    pub(crate) fn prunes_with(
        &self,
        i: usize,
        bound: f32,
        sad: impl Fn(&[i8], &[i8]) -> u32,
    ) -> bool {
        let d = self.q.len();
        prunes_row(
            self.q,
            &self.rows[i * d..(i + 1) * d],
            self.row_err[i],
            bound + self.query_err,
            self.scales,
            self.block,
            sad,
        )
    }

    /// The contract of `simd::prune_run`: [`Self::prunes_with`] over the
    /// run, survivors' ids appended in order; returns the candidates
    /// counted (those not skipped by `extra ≥ bound`).
    #[inline]
    pub(crate) fn survivors_with(
        &self,
        survivors: &mut Vec<u32>,
        sad: impl Fn(&[i8], &[i8]) -> u32,
    ) -> u64 {
        let mut candidates = 0u64;
        for i in 0..self.checked_len() {
            let bound = match self.extra {
                Some(extra) if extra[i] >= self.bound => continue,
                Some(extra) => self.bound - extra[i],
                None => self.bound,
            };
            candidates += 1;
            if !self.prunes_with(i, bound, &sad) {
                survivors.push(self.first + i as u32);
            }
        }
        candidates
    }
}

/// Eight bytes of each of [`QUERY_LANES`] queries: one 8-byte group of a
/// [`LaneQueries`] block, lane `s` at bytes `8s..8s + 8`. Aligned to 64
/// bytes, so each half (eight queries) is one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct LaneBytes(pub(crate) [u8; 8 * QUERY_LANES]);

/// [`QUERY_LANES`] quantized queries in lanes, the query side of
/// `simd::lanes_prune`: byte `j` of lane `s`'s query sits in group `j / 8`
/// at `8s + j % 8`, flipped by `0x80` into the unsigned range `vpsadbw`
/// takes (`|a − b|` is unchanged by the shift). Each lane also carries its
/// phase-1 target `bound + query_err`.
#[derive(Debug, Clone, Default)]
pub struct LaneQueries {
    d: usize,
    bytes: Vec<LaneBytes>,
    targets: [f32; QUERY_LANES],
}

impl LaneQueries {
    /// Empty the block for queries of length `d`: every lane holds zeros
    /// and a zero target until [`Self::set_lane`] fills it.
    pub fn reset(&mut self, d: usize) {
        self.d = d;
        self.bytes.clear();
        self.bytes
            .resize(d.div_ceil(8), LaneBytes([0x80; 8 * QUERY_LANES]));
        self.targets = [0.0; QUERY_LANES];
    }

    /// Put the quantized query `q` (from [`QuantScanTable::quantize_query`],
    /// with its error `query_err`) and its `bound` into lane `s`.
    ///
    /// # Panics
    /// If `s` is not a lane or `q` is not `d` long.
    pub fn set_lane(&mut self, s: usize, q: &[i8], query_err: f32, bound: f32) {
        assert_eq!(q.len(), self.d, "query must be d long");
        for (j, &v) in q.iter().enumerate() {
            self.bytes[j / 8].0[8 * s + j % 8] = v as u8 ^ 0x80;
        }
        self.targets[s] = bound + query_err;
    }

    /// Lane `s`'s query, back in signed row form.
    fn lane(&self, s: usize) -> Vec<i8> {
        (0..self.d)
            .map(|j| (self.bytes[j / 8].0[8 * s + j % 8] ^ 0x80) as i8)
            .collect()
    }
}

/// Lane queries against a list of candidates of a [`QuantScanTable`] —
/// the argument of `simd::lanes_prune`, built by
/// [`QuantScanTable::lanes`].
#[derive(Debug, Clone, Copy)]
pub struct PruneLanes<'a> {
    q: &'a LaneQueries,
    table: &'a QuantScanTable,
    cands: &'a [(u32, u16)],
}

impl PruneLanes<'_> {
    /// The query length `d`, after checking the block holds its `d / 8`
    /// groups (rounded up) and the table one scale per block — what makes
    /// the vector bodies' unchecked query loads sound.
    pub(crate) fn checked_dim(&self) -> usize {
        let d = self.q.d;
        assert_eq!(
            self.q.bytes.len(),
            d.div_ceil(8),
            "one byte group per 8 dims"
        );
        assert_eq!(
            self.table.scales.len(),
            d.div_ceil(self.table.block),
            "one scale per block"
        );
        d
    }

    /// The query block, group by group.
    pub(crate) fn query_bytes(&self) -> &[LaneBytes] {
        &self.q.bytes
    }

    /// Each lane's `bound + query_err`.
    pub(crate) fn targets(&self) -> &[f32; QUERY_LANES] {
        &self.q.targets
    }

    /// The candidates and their live lanes.
    pub(crate) fn cands(&self) -> &[(u32, u16)] {
        self.cands
    }

    /// The table's shared block scales.
    pub(crate) fn scales(&self) -> &[f32] {
        &self.table.scales
    }

    /// The table's block length.
    pub(crate) fn block(&self) -> usize {
        self.table.block
    }

    /// Row `id`'s quantized bytes and error (`+∞` = escape).
    ///
    /// # Panics
    /// If `id` lies past the table.
    #[inline]
    pub(crate) fn row(&self, id: u32) -> (&[i8], f32) {
        (self.table.row(id), self.table.row_err[id as usize])
    }

    /// The contract of `simd::lanes_prune`: for each candidate, every live
    /// lane is counted and keeps the candidate unless
    /// [`QuantScanTable::prunes`] prunes it for that lane's query; a
    /// candidate kept in some lane is appended with those lanes.
    pub(crate) fn survivors_with(
        &self,
        survivors: &mut Vec<(u32, u16)>,
        sad: impl Fn(&[i8], &[i8]) -> u32,
    ) -> u64 {
        self.checked_dim();
        let queries: Vec<Vec<i8>> = (0..QUERY_LANES).map(|s| self.q.lane(s)).collect();
        let mut counted = 0u64;
        for &(id, live) in self.cands {
            let (row, row_err) = self.row(id);
            let mut keep = 0u16;
            for (s, q) in queries.iter().enumerate() {
                if live & (1 << s) == 0 {
                    continue;
                }
                counted += 1;
                let target = self.q.targets[s];
                if !prunes_row(q, row, row_err, target, self.scales(), self.block(), &sad) {
                    keep |= 1 << s;
                }
            }
            if keep != 0 {
                survivors.push((id, keep));
            }
        }
        counted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(rng: &mut SmallRng, n_rows: usize, row_len: usize, amp: f32) -> Vec<f32> {
        (0..n_rows * row_len)
            .map(|_| rng.gen_range(-amp..amp))
            .collect()
    }

    /// The eight-lane blocked L1 of the evaluation kernels — the contract
    /// arithmetic the lower bound must stay under, named via its scalar
    /// twin so there is exactly one statement of it in the crate.
    use crate::simd::scalar::blocked_l1;

    /// `rows` quantized row by row: (payload, scales, row errors).
    fn quantize_rows(rows: &[f32], row_len: usize) -> (Vec<i8>, Vec<f32>, Vec<f32>) {
        let block = QUANT_BLOCK.min(row_len);
        let (mut data, mut scales) = (Vec::new(), Vec::new());
        let errs = rows
            .chunks_exact(row_len)
            .map(|row| quantize_row(row, block, &mut scales, &mut data))
            .collect();
        (data, scales, errs)
    }

    #[test]
    fn quantize_row_error_is_certified() {
        let mut rng = SmallRng::seed_from_u64(1);
        for row_len in [1usize, 3, 8, 32, 33, 64, 128] {
            let rows = random_rows(&mut rng, 7, row_len, 2.0);
            let (data, scales, errs) = quantize_rows(&rows, row_len);
            assert_eq!(data.len(), rows.len());
            assert_eq!(scales.len(), 7 * row_len.div_ceil(QUANT_BLOCK.min(row_len)));
            let mut out = vec![0.0f32; row_len];
            let block = QUANT_BLOCK.min(row_len);
            let nb = row_len.div_ceil(block);
            for r in 0..7 {
                let (q, s) = (&data[r * row_len..][..row_len], &scales[r * nb..][..nb]);
                dequantize_row_into(q, s, block, &mut out);
                for (o, x) in out.iter().zip(&rows[r * row_len..(r + 1) * row_len]) {
                    assert!(
                        (o - x).abs() <= errs[r],
                        "row {r}: |{o} - {x}| > certified {}",
                        errs[r]
                    );
                }
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_zero_scale_and_zero_error() {
        let rows = vec![0.0f32; 3 * 40];
        let (data, scales, errs) = quantize_rows(&rows, 40);
        assert!(scales.iter().all(|&s| s == 0.0));
        assert!(data.iter().all(|&q| q == 0));
        assert_eq!(errs[1], 0.0);
        let mut out = vec![9.0f32; 40];
        dequantize_row_into(&data[80..], &scales[4..], QUANT_BLOCK, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scan_lower_bound_never_exceeds_blocked_l1() {
        let mut rng = SmallRng::seed_from_u64(2);
        for row_len in [1usize, 8, 13, 32, 64, 100, 128] {
            let rows = random_rows(&mut rng, 24, row_len, 1.0);
            let st = QuantScanTable::from_rows(&rows, row_len);
            let mut q = vec![0i8; row_len];
            for trial in 0..40 {
                // Queries up to 4× the table amplitude exercise clamping.
                let amp = [0.5f32, 1.0, 4.0][trial % 3];
                let x = random_rows(&mut rng, 1, row_len, amp);
                let err = st.quantize_query(&x, &mut q, 0.0);
                // May be negative: clamp excess is a certified bonus.
                assert!(err.is_finite());
                for r in 0..st.n_rows() as u32 {
                    let lb = st.lower_bound(&q, r, err);
                    let exact = blocked_l1(&x, &rows[r as usize * row_len..][..row_len]);
                    assert!(
                        lb <= exact,
                        "row_len {row_len} row {r}: lb {lb} > exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn prunes_only_when_exact_distance_reaches_bound() {
        let mut rng = SmallRng::seed_from_u64(9);
        let row_len = 64;
        let rows = random_rows(&mut rng, 32, row_len, 1.0);
        let st = QuantScanTable::from_rows(&rows, row_len);
        let mut q = vec![0i8; row_len];
        let mut fired = 0usize;
        for _ in 0..20 {
            // 2× the table amplitude so clamp-bonus paths are exercised.
            let x = random_rows(&mut rng, 1, row_len, 2.0);
            let err = st.quantize_query(&x, &mut q, 0.0);
            for r in 0..st.n_rows() as u32 {
                let exact = blocked_l1(&x, &rows[r as usize * row_len..][..row_len]);
                // Bounds straddling the exact distance probe the boundary.
                for bound in [0.5 * exact, 0.99 * exact, exact, 1.01 * exact] {
                    if st.prunes(&q, r, err, bound) {
                        fired += 1;
                        assert!(
                            exact >= bound,
                            "pruned row {r} with exact {exact} < bound {bound}"
                        );
                    }
                }
            }
        }
        assert!(fired > 100, "early-exit prune never fires ({fired})");
    }

    #[test]
    fn scan_lower_bound_is_tight_for_identical_vectors() {
        // A query equal to a stored row must not be bounded far above 0 —
        // the bound's only slack is the quantization margin.
        let mut rng = SmallRng::seed_from_u64(3);
        let row_len = 64;
        let rows = random_rows(&mut rng, 8, row_len, 1.0);
        let st = QuantScanTable::from_rows(&rows, row_len);
        let mut q = vec![0i8; row_len];
        let x = &rows[3 * row_len..4 * row_len];
        let err = st.quantize_query(x, &mut q, 0.0);
        let lb = st.lower_bound(&q, 3, err);
        assert!(lb <= 0.0, "self lower bound must be ≤ 0, got {lb}");
        // …and for a far-away query the bound must be strongly positive,
        // or phase 1 would never prune anything.
        let far: Vec<f32> = x.iter().map(|v| v + 0.5).collect();
        let err = st.quantize_query(&far, &mut q, 0.0);
        let lb = st.lower_bound(&q, 3, err);
        let exact = blocked_l1(&far, x);
        assert!(
            lb > 0.5 * exact,
            "bound too loose to prune: lb {lb} vs exact {exact}"
        );
    }

    #[test]
    fn query_error_includes_extra_formation_slack() {
        let mut rng = SmallRng::seed_from_u64(4);
        let rows = random_rows(&mut rng, 4, 16, 1.0);
        let st = QuantScanTable::from_rows(&rows, 16);
        let x = random_rows(&mut rng, 1, 16, 1.0);
        let mut q = vec![0i8; 16];
        let base = st.quantize_query(&x, &mut q, 0.0);
        let extra = st.quantize_query(&x, &mut q, 0.25);
        assert!(
            extra >= base + 0.25,
            "extra_err must add through: {extra} vs {base}"
        );
    }

    #[test]
    fn storage_is_about_a_quarter_of_f32() {
        let rows = vec![0.5f32; 1000 * 64];
        let f32_bytes = rows.len() * 4;
        let st = QuantScanTable::from_rows(&rows, 64);
        assert!(
            st.storage_bytes() < f32_bytes * 3 / 10,
            "{}",
            st.storage_bytes()
        );
        // The quantized snapshot's rows: payload, per-(row, block) scales
        // and row errors (no escape rows in a uniform table).
        let shard = crate::snapshot::ShardSpec::default();
        let snap = crate::snapshot::ServiceSnapshot::from_rows(32, 0, shard, &rows).unwrap();
        let q = snap.quantize();
        assert!(
            q.storage_bytes() < f32_bytes * 3 / 10,
            "{}",
            q.storage_bytes()
        );
    }
}
