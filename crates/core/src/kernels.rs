//! Fused, relation-blocked score + gradient kernels for the training inner
//! loop.
//!
//! The naive pair loop (two `model.score` calls and one backward pass per
//! pair) pays four avoidable costs per training pair:
//!
//! 1. `model.score(pos)` is recomputed for every negative of the same
//!    positive, and every `score` call performs a fresh `d×d` matvec
//!    `M_r·h`;
//! 2. the backward pass recomputes the very same matvec a third time to
//!    form the sign vector `u = sgn(M_r·h − r)`;
//! 3. transfer matrices are streamed from memory in pair order — at
//!    hundreds of relations × `d²` floats the working set far exceeds L2,
//!    so nearly every score touches a cold matrix;
//! 4. gradients accumulate into per-chunk hash maps, with fresh `vec!`
//!    allocations inside the per-pair hot path.
//!
//! The fused kernels remove all four:
//!
//! * **Relation blocking** — each chunk's pairs are stably grouped by the
//!   positive's relation id ([`relation_blocked_order_into`]), so `M_r` is
//!   loaded once per group instead of once per score call. Negatives are
//!   generated *before* grouping, in original chunk order, so the RNG
//!   stream (and therefore the checkpoint determinism contract) is
//!   unchanged.
//! * **Projection reuse** — `M_r·h` is computed once per positive and
//!   reused by the positive score, every tail-corrupted negative score, and
//!   the relation-module sign gradients.
//! * **Latency-free dot products** — projection rows use [`kernel_dot`],
//!   an eight-lane multi-accumulator dot with a fixed combine order. The
//!   single-accumulator `pkgm_dot` reduction is a serial f32 add chain the
//!   compiler must not reassociate, so it runs at add *latency*, not
//!   multiply throughput; independent lanes break the chain and vectorize.
//! * **One body per level** — the pass is written once and compiled per
//!   [`SimdLevel`](crate::simd::SimdLevel) by `crate::simd::at_level`:
//!   at AVX2 and AVX-512 its row updates run at that width and each
//!   projection row inlines the AVX2 `kernel_dot` body instead of making
//!   one dispatched call.
//! * **Exact cancellation** — a tail corruption shares `(h, r)` with its
//!   positive, so every relation-module gradient term of the pair cancels
//!   identically (`+x` and `−x` with bit-equal `x`). The kernels combine
//!   pos/neg contributions per destination row *before* touching the
//!   accumulator, which makes skipping the cancelled work exact rather
//!   than approximate (adding a pre-combined `x − x = 0` is a no-op;
//!   `(a + x) − x` is not).
//! * **Scratch accumulation** — gradients land in a preallocated sparse-set
//!   [`TrainScratch`] (slot arrays indexed by entity/relation id), whose
//!   touched ids are sorted once per chunk. The trainer's Adam step reads
//!   the rows where they lie; [`fused_chunk_grads`] exports them as
//!   index-sorted [`ChunkGrads`] for the parity suites. Nothing in the
//!   per-pair path allocates.
//! * **Margin early exit** — the corrupted-side projection aborts as soon
//!   as its running L1 score clears `f_pos + margin`: nonnegative terms
//!   under monotone IEEE-754 addition mean the full score can only be
//!   larger, so the pair is provably non-violated and contributes nothing.
//!   This is exact, not approximate — the violated set, every loss term,
//!   and every gradient are unchanged — and it is what keeps the fused
//!   path fast late in training, when most pairs already satisfy the
//!   margin and a naive loop would still pay two full `d²` matvecs per pair.
//!
//! ## Numerical contract
//!
//! Each kernel has two implementations: the fused one production runs and
//! a reference oracle. [`fused_chunk_grads`] and [`reference_chunk_grads`]
//! produce **bit-equal** results: the reference twin recomputes every
//! matvec from scratch, per pair, into fresh allocations, but applies the
//! same per-destination-row operation order and the same [`kernel_dot`]
//! lane order, which pins every f32 summation. The proptest parity suite
//! (`tests/kernel_parity.rs`) asserts exact equality, and cross-checks the
//! loss and violated set against [`PkgmModel::score`] (`pkgm_dot` order,
//! so ulp-approximate).

use crate::model::PkgmModel;
use crate::negative::{CorruptedPair, Corruption};
use crate::simd::{self, LevelBody, RowDot, SimdDispatch};

/// Sparse gradients for one chunk of training pairs, index-sorted: the
/// exported form of a [`TrainScratch`].
///
/// Rows are `(id, gradient)` pairs sorted by id; `ent`/`rel` gradients are
/// `dim`-length, `mat` gradients `dim²`-length. Chunks merge in chunk-index
/// order ([`ChunkGrads::merge`]), which fixes the cross-chunk f32 summation
/// order; the trainer's Adam step sums the rows in place in that same
/// order, so this left fold is its specification.
#[derive(Debug, Clone)]
pub struct ChunkGrads {
    /// Entity-row gradients, sorted by entity id.
    pub ent: Vec<(u32, Vec<f32>)>,
    /// Relation-row gradients, sorted by relation id.
    pub rel: Vec<(u32, Vec<f32>)>,
    /// Transfer-matrix gradients, sorted by relation id.
    pub mat: Vec<(u32, Vec<f32>)>,
    /// Summed hinge loss over the chunk's pairs.
    pub loss: f64,
    /// Pairs violating the margin.
    pub violations: usize,
    /// Pairs processed.
    pub pairs: usize,
}

impl ChunkGrads {
    /// A chunk that touched nothing.
    pub fn empty() -> Self {
        Self {
            ent: Vec::new(),
            rel: Vec::new(),
            mat: Vec::new(),
            loss: 0.0,
            violations: 0,
            pairs: 0,
        }
    }

    /// Merge `other` (the higher-indexed chunk) into `self`.
    ///
    /// Co-touched rows sum elementwise as `self + other`; merging chunks in
    /// ascending chunk order therefore reproduces one fixed summation order
    /// regardless of how many threads computed them.
    pub fn merge(mut self, other: ChunkGrads) -> ChunkGrads {
        self.ent = merge_sorted(std::mem::take(&mut self.ent), other.ent);
        self.rel = merge_sorted(std::mem::take(&mut self.rel), other.rel);
        self.mat = merge_sorted(std::mem::take(&mut self.mat), other.mat);
        self.loss += other.loss;
        self.violations += other.violations;
        self.pairs += other.pairs;
        self
    }
}

/// Merge two id-sorted gradient lists, summing rows present in both
/// (`a += b`, preserving a-then-b order within each row).
fn merge_sorted(a: Vec<(u32, Vec<f32>)>, b: Vec<(u32, Vec<f32>)>) -> Vec<(u32, Vec<f32>)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some((ka, _)), Some((kb, _))) => {
                if ka < kb {
                    out.push(ia.next().expect("peeked"));
                } else if kb < ka {
                    out.push(ib.next().expect("peeked"));
                } else {
                    let (k, mut ga) = ia.next().expect("peeked");
                    let (_, gb) = ib.next().expect("peeked");
                    for (x, y) in ga.iter_mut().zip(&gb) {
                        *x += y;
                    }
                    out.push((k, ga));
                }
            }
            (Some(_), None) => out.push(ia.next().expect("peeked")),
            (None, Some(_)) => out.push(ib.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// Smallest chunk the trainer's adaptive layout will produce. Below this,
/// per-chunk overhead (RNG setup, scratch reset, the Adam step's walk over
/// one more chunk's rows) dominates the kernel work itself.
pub const MIN_CHUNK_SIZE: usize = 64;

/// Empty slot marker in the sparse-set id → slot maps.
const NO_SLOT: u32 = u32::MAX;

/// One parameter block of the sparse-set accumulator: a dense `id → slot`
/// map, the touched-id list (first-touch order while a chunk accumulates,
/// sorted once it is done), and the flat gradient storage (`slot × width`
/// floats).
#[derive(Debug, Default)]
pub(crate) struct SlotBlock {
    slot_of: Vec<u32>,
    ids: Vec<u32>,
    grads: Vec<f32>,
}

impl SlotBlock {
    fn ensure_ids(&mut self, n_ids: usize) {
        if self.slot_of.len() < n_ids {
            self.slot_of.resize(n_ids, NO_SLOT);
        }
    }

    /// Forget the previous chunk's rows. The storage itself is retained,
    /// so steady-state chunks allocate nothing.
    fn reset(&mut self) {
        for &id in &self.ids {
            self.slot_of[id as usize] = NO_SLOT;
        }
        self.ids.clear();
    }

    /// The gradient range for `id`, zero-initialized on first touch.
    fn range(&mut self, id: u32, width: usize) -> std::ops::Range<usize> {
        let s = self.slot_of[id as usize];
        if s != NO_SLOT {
            let start = s as usize * width;
            return start..start + width;
        }
        let slot = self.ids.len() as u32;
        self.slot_of[id as usize] = slot;
        self.ids.push(id);
        let start = slot as usize * width;
        if self.grads.len() < start + width {
            self.grads.resize(start + width, 0.0);
        } else {
            self.grads[start..start + width].fill(0.0);
        }
        start..start + width
    }

    /// Touched ids: ascending once the chunk is done.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The gradient row of a touched `id`.
    pub(crate) fn row(&self, id: u32, width: usize) -> &[f32] {
        let start = self.slot_of[id as usize] as usize * width;
        &self.grads[start..start + width]
    }

    fn export(&self, width: usize) -> Vec<(u32, Vec<f32>)> {
        self.ids
            .iter()
            .map(|&id| (id, self.row(id, width).to_vec()))
            .collect()
    }
}

/// Preallocated working memory for the fused kernels, reused across chunks
/// and batches (the training-side analogue of `ServiceScratch`). One scratch
/// serves one chunk at a time and holds that chunk's gradients until the
/// next chunk starts; the trainer keeps one per chunk of a batch, so its
/// Adam step reads every chunk's rows in place.
#[derive(Debug, Default)]
pub struct TrainScratch {
    /// Corrupted pairs for the chunk in generation (RNG) order.
    pub(crate) pairs: Vec<CorruptedPair>,
    /// Pair indices grouped by the positive's relation id.
    order: Vec<u32>,
    /// Cached projection `M_r·h` of the current positive.
    mh: Vec<f32>,
    /// Projection for the current negative (corrupted head or relation).
    mh_neg: Vec<f32>,
    /// Triple-module sign vector of the current side.
    s: Vec<f32>,
    /// Relation-module sign vectors.
    u_pos: Vec<f32>,
    u_neg: Vec<f32>,
    /// Pair-combined head-gradient buffer (relation-corruption case).
    comb: Vec<f32>,
    ent: SlotBlock,
    rel: SlotBlock,
    mat: SlotBlock,
    /// Summed hinge loss, violating pairs and pairs of the last chunk.
    pub(crate) loss: f64,
    pub(crate) violations: usize,
    pub(crate) n_pairs: usize,
}

impl TrainScratch {
    /// A scratch ready for `model`-shaped chunks.
    pub fn new(model: &PkgmModel) -> Self {
        let mut s = Self::default();
        s.ensure(model);
        s
    }

    /// Grow buffers to fit `model` (no-op once sized).
    pub fn ensure(&mut self, model: &PkgmModel) {
        let d = model.dim();
        if self.mh.len() != d {
            self.mh = vec![0.0; d];
            self.mh_neg = vec![0.0; d];
            self.s = vec![0.0; d];
            self.u_pos = vec![0.0; d];
            self.u_neg = vec![0.0; d];
            self.comb = vec![0.0; d];
        }
        self.ent.ensure_ids(model.n_entities());
        self.rel.ensure_ids(model.n_relations());
        self.mat.ensure_ids(model.n_relations());
    }

    /// The last chunk's entity, relation and matrix gradient rows.
    pub(crate) fn grads(&self) -> [&SlotBlock; 3] {
        [&self.ent, &self.rel, &self.mat]
    }
}

#[cfg(test)]
impl TrainScratch {
    /// A scratch holding `grads` as if a chunk had accumulated them, with
    /// slots filled in descending id order so that slot order is not id
    /// order: the inverse of the export.
    pub(crate) fn holding(model: &PkgmModel, grads: &ChunkGrads) -> Self {
        let mut sc = Self::new(model);
        let d = model.dim();
        for (block, rows, width) in [
            (&mut sc.ent, &grads.ent, d),
            (&mut sc.rel, &grads.rel, d),
            (&mut sc.mat, &grads.mat, d * d),
        ] {
            for (id, g) in rows.iter().rev() {
                let range = block.range(*id, width);
                block.grads[range].copy_from_slice(g);
            }
            block.ids.sort_unstable();
        }
        sc.loss = grads.loss;
        sc.violations = grads.violations;
        sc.n_pairs = grads.pairs;
        sc
    }
}

/// Fill `order` with `0..pairs.len()` stably grouped by the positive's
/// relation id (ascending relation, original order within a group).
///
/// Grouping happens *after* negative generation, so it reorders compute
/// only — every random choice was already made in original chunk order.
pub fn relation_blocked_order_into(pairs: &[CorruptedPair], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..pairs.len() as u32);
    order.sort_by_key(|&i| pairs[i as usize].pos.relation.0);
}

/// Eight-lane multi-accumulator dot product with a **fixed** combine order,
/// runtime-dispatched to the widest instruction set the host offers.
///
/// `pkgm_dot`'s single-accumulator reduction is a serial f32 dependency
/// chain the compiler cannot reassociate (float addition is not
/// associative), so at `d = 64` every projection row stalls on add latency.
/// Eight independent lane accumulators break the chain and the fixed
/// tree-shaped lane combine makes the result a deterministic function of
/// the inputs — the *same* function on every [`crate::simd`] dispatch
/// level (just a *different* deterministic function than `pkgm_dot`).
///
/// [`reference_chunk_grads`] calls it dispatched per row; [`fused_chunk_grads`]
/// runs the same function through its level's [`RowDot`] — both twins share
/// this ordering, which is what keeps them bit-equal.
pub(crate) use crate::simd::kernel_dot;

#[inline(always)]
fn sgn(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

// The backward pass's `d`-wide row updates. Zipped slices carry no bounds
// checks, so these loops vectorize at the width of the level wrapper they
// are inlined into (see [`simd::at_level`]); each element is still one
// correctly rounded multiply and add, exactly the op order of the indexed
// loops in [`reference_chunk_grads`].

/// `y += a·x` over equal-length rows.
#[inline(always)]
fn add_scaled(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// `y −= a·x` over equal-length rows.
#[inline(always)]
fn sub_scaled(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (y, &x) in y.iter_mut().zip(x) {
        *y -= a * x;
    }
}

/// `y += a·x − b·z` over equal-length rows.
#[inline(always)]
fn add_scaled_diff(y: &mut [f32], a: f32, x: &[f32], b: f32, z: &[f32]) {
    debug_assert!(y.len() == x.len() && y.len() == z.len());
    for ((y, &x), &z) in y.iter_mut().zip(x).zip(z) {
        *y += a * x - b * z;
    }
}

/// `y += x` over equal-length rows.
#[inline(always)]
fn add_row(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (y, &x) in y.iter_mut().zip(x) {
        *y += x;
    }
}

/// `y −= x` over equal-length rows.
#[inline(always)]
fn sub_row(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (y, &x) in y.iter_mut().zip(x) {
        *y -= x;
    }
}

/// `y += a − b` over equal-length rows.
#[inline(always)]
fn add_diff(y: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert!(y.len() == a.len() && y.len() == b.len());
    for ((y, &a), &b) in y.iter_mut().zip(a).zip(b) {
        *y += a - b;
    }
}

/// `s = sgn(a + b − c)` over equal-length rows: the triple-module sign.
#[inline(always)]
fn sign_translation_into(s: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
    debug_assert!(s.len() == a.len() && s.len() == b.len() && s.len() == c.len());
    for (((s, &a), &b), &c) in s.iter_mut().zip(a).zip(b).zip(c) {
        *s = sgn(a + b - c);
    }
}

/// `u = sgn(p − r)` over equal-length rows: the relation-module sign.
#[inline(always)]
fn sign_diff_into(u: &mut [f32], p: &[f32], r: &[f32]) {
    debug_assert!(u.len() == p.len() && u.len() == r.len());
    for ((u, &p), &r) in u.iter_mut().zip(p).zip(r) {
        *u = sgn(p - r);
    }
}

/// `‖a + b − c‖₁` in index order — the triple-module score, bit-identical
/// to [`PkgmModel::score_triple`].
#[inline(always)]
fn l1_translation(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    let mut s = 0.0;
    for i in 0..a.len() {
        s += (a[i] + b[i] - c[i]).abs();
    }
    s
}

/// `Σ_i |a[i] − b[i]|` in index order — the crate's single serial L1
/// distance, pinned to scalar in [`crate::simd`]. As the residual
/// `Σ_i |proj[i] − rv[i]|` over a cached projection it is bit-identical to
/// [`PkgmModel::score_relation`]; the serving layer's tail completion
/// reuses it so trainer and serving score with one implementation.
pub(crate) use crate::simd::l1_dist;

/// Corrupted-side relation-module score with a sound early exit.
///
/// Computes `f_t + Σ_i |(M·hv)[i] − rv[i]|` row by row (row `i` a
/// [`kernel_dot`], summed by [`l1_dist`]'s serial order), but returns `None` as soon
/// as the running score `f_t + partial` reaches `threshold` (`f_pos +
/// margin`). The exit is exact, not approximate: every L1 term is
/// nonnegative and IEEE-754 round-to-nearest addition is monotone, so the
/// fully-summed score can only be ≥ any partial one — a pair whose partial
/// score already clears the margin is provably non-violated, and nothing
/// downstream needs the rest of its projection. On `Some(f_neg)`, `out`
/// holds the complete projection and `f_neg` is bit-identical to the
/// unconditional computation.
#[inline(always)]
fn residual_score_early_exit<D: RowDot>(
    m: &[f32],
    hv: &[f32],
    rv: &[f32],
    f_t: f32,
    threshold: f32,
    out: &mut [f32],
) -> Option<f32> {
    if f_t >= threshold {
        return None;
    }
    let d = rv.len();
    let mut res = 0.0f32;
    for i in 0..d {
        let p = D::dot(&m[i * d..(i + 1) * d], hv);
        out[i] = p;
        res += (p - rv[i]).abs();
        if f_t + res >= threshold {
            return None;
        }
    }
    Some(f_t + res)
}

/// Fused, relation-blocked score + gradient pass over one chunk of pairs,
/// exported as [`ChunkGrads`].
///
/// Bit-identical to [`reference_chunk_grads`] (the parity suite enforces
/// this); faster because each transfer matrix is loaded once per relation
/// group, each `M_r·h` is computed at most once per side, corrupted-side
/// projections abort early once the margin is provably satisfied,
/// exactly-cancelling tail-corruption gradients are skipped, and
/// accumulation runs through the preallocated scratch.
pub fn fused_chunk_grads(
    model: &PkgmModel,
    scratch: &mut TrainScratch,
    pairs: &[CorruptedPair],
    margin: f32,
) -> ChunkGrads {
    fused_chunk_grads_at(simd::active(), model, scratch, pairs, margin)
}

/// [`fused_chunk_grads`] compiled for `table`'s level (see
/// `simd::at_level`) instead of the active one: every level returns the
/// same bits, which the parity suites check level by level.
pub fn fused_chunk_grads_at(
    table: &SimdDispatch,
    model: &PkgmModel,
    scratch: &mut TrainScratch,
    pairs: &[CorruptedPair],
    margin: f32,
) -> ChunkGrads {
    accumulate_chunk(table, model, scratch, pairs, margin);
    let d = model.dim();
    ChunkGrads {
        ent: scratch.ent.export(d),
        rel: scratch.rel.export(d),
        mat: scratch.mat.export(d * d),
        loss: scratch.loss,
        violations: scratch.violations,
        pairs: scratch.n_pairs,
    }
}

/// [`fused_chunk_grads_at`] without the export: the chunk's gradient rows,
/// loss and counts stay in `scratch` (ids sorted, see
/// [`TrainScratch::grads`]) until its next chunk.
pub(crate) fn accumulate_chunk(
    table: &SimdDispatch,
    model: &PkgmModel,
    scratch: &mut TrainScratch,
    pairs: &[CorruptedPair],
    margin: f32,
) {
    simd::at_level(
        table,
        ChunkPass {
            model,
            scratch,
            pairs,
            margin,
        },
    )
}

/// One chunk's gradient pass, as the [`LevelBody`] [`accumulate_chunk`]
/// compiles per level.
struct ChunkPass<'a> {
    model: &'a PkgmModel,
    scratch: &'a mut TrainScratch,
    pairs: &'a [CorruptedPair],
    margin: f32,
}

impl LevelBody for ChunkPass<'_> {
    type Output = ();

    #[inline(always)]
    fn run<D: RowDot>(self) {
        let ChunkPass {
            model,
            scratch,
            pairs,
            margin,
        } = self;
        accumulate::<D>(model, scratch, pairs, margin);
    }
}

/// The body of [`accumulate_chunk`], projection rows by `D`.
#[inline(always)]
fn accumulate<D: RowDot>(
    model: &PkgmModel,
    scratch: &mut TrainScratch,
    pairs: &[CorruptedPair],
    margin: f32,
) {
    scratch.ensure(model);
    let d = model.dim();
    let dd = d * d;
    let rel_on = model.cfg.relation_module;

    // Destructure so the borrow checker sees disjoint fields.
    let TrainScratch {
        order,
        mh,
        mh_neg,
        s,
        u_pos,
        u_neg,
        comb,
        ent,
        rel,
        mat,
        ..
    } = scratch;
    for block in [&mut *ent, &mut *rel, &mut *mat] {
        block.reset();
    }
    relation_blocked_order_into(pairs, order);

    let mut loss = 0.0f64;
    let mut violations = 0usize;
    // Projection-cache tag: the (head, relation) the `mh` buffer holds.
    let mut cached: Option<(u32, u32)> = None;
    let mut f_r_pos = 0.0f32;

    for &pi in order.iter() {
        let CorruptedPair { pos, neg, slot } = pairs[pi as usize];
        let h = model.ent(pos.head);
        let rv = model.rel(pos.relation);
        let t = model.ent(pos.tail);

        if rel_on && cached != Some((pos.head.0, pos.relation.0)) {
            let m = model.mat(pos.relation);
            for i in 0..d {
                mh[i] = D::dot(&m[i * d..(i + 1) * d], h);
            }
            f_r_pos = l1_dist(mh, rv);
            cached = Some((pos.head.0, pos.relation.0));
        }
        let f_pos = l1_translation(h, rv, t) + if rel_on { f_r_pos } else { 0.0 };
        let threshold = f_pos + margin;

        // Negative score, reusing whatever the corruption left intact. The
        // head/relation cases abort the corrupted-side projection as soon as
        // the partial score proves the pair non-violated (see
        // [`residual_score_early_exit`]) — the skip decision and every
        // completed score are bit-identical to the unconditional path.
        let f_neg = match slot {
            Corruption::Tail => {
                let t2 = model.ent(neg.tail);
                l1_translation(h, rv, t2) + if rel_on { f_r_pos } else { 0.0 }
            }
            Corruption::Head => {
                let h2 = model.ent(neg.head);
                let f_t = l1_translation(h2, rv, t);
                if rel_on {
                    let m = model.mat(pos.relation);
                    match residual_score_early_exit::<D>(m, h2, rv, f_t, threshold, mh_neg) {
                        Some(f_neg) => f_neg,
                        None => continue,
                    }
                } else {
                    f_t
                }
            }
            Corruption::Relation => {
                let rv2 = model.rel(neg.relation);
                let f_t = l1_translation(h, rv2, t);
                if rel_on {
                    let m2 = model.mat(neg.relation);
                    match residual_score_early_exit::<D>(m2, h, rv2, f_t, threshold, mh_neg) {
                        Some(f_neg) => f_neg,
                        None => continue,
                    }
                } else {
                    f_t
                }
            }
        };

        let viol = threshold - f_neg;
        if viol <= 0.0 {
            continue;
        }
        loss += viol as f64;
        violations += 1;

        // --- Triple module: pos side (+s to h and r, −s to t) ------------
        sign_translation_into(s, h, rv, t);
        let gh = ent.range(pos.head.0, d);
        add_row(&mut ent.grads[gh], s);
        let gr = rel.range(pos.relation.0, d);
        add_row(&mut rel.grads[gr], s);
        let gt = ent.range(pos.tail.0, d);
        sub_row(&mut ent.grads[gt], s);

        // --- Triple module: neg side (−s' to h' and r', +s' to t') -------
        let h2 = model.ent(neg.head);
        let rv2 = model.rel(neg.relation);
        let t2 = model.ent(neg.tail);
        sign_translation_into(s, h2, rv2, t2);
        let gh = ent.range(neg.head.0, d);
        sub_row(&mut ent.grads[gh], s);
        let gr = rel.range(neg.relation.0, d);
        sub_row(&mut rel.grads[gr], s);
        let gt = ent.range(neg.tail.0, d);
        add_row(&mut ent.grads[gt], s);

        // --- Relation module, pair-combined per destination row ----------
        if !rel_on || matches!(slot, Corruption::Tail) {
            // Tail corruption shares (h, r) with its positive: u_neg ≡ u_pos
            // bit-for-bit, so every relation-module term combines to an
            // exact zero. Skipping it is a no-op by construction.
            continue;
        }
        sign_diff_into(u_pos, mh, rv);
        let m = model.mat(pos.relation);
        match slot {
            Corruption::Tail => unreachable!("handled above"),
            Corruption::Head => {
                // Same relation r, corrupted head h'. Destinations r and
                // M_r are shared → combined; h and h' are distinct rows.
                sign_diff_into(u_neg, mh_neg, rv);
                // ∂f_R/∂r = −u: pair grad = (−u_pos) − (−u_neg).
                let gr = rel.range(pos.relation.0, d);
                add_diff(&mut rel.grads[gr], u_neg, u_pos);
                let gh = ent.range(pos.head.0, d);
                let gh2 = ent.range(neg.head.0, d);
                let gm = mat.range(pos.relation.0, dd);
                let gmat = &mut mat.grads[gm];
                if gh.start != gh2.start {
                    // One streaming pass over M updates h, h', and M_r's
                    // gradient together: M is read once instead of twice.
                    // The destinations are three disjoint rows, and within
                    // each row terms still land in ascending-i order, so
                    // the result is bit-identical to the separate passes
                    // (which is what `reference_chunk_grads` still runs).
                    let (ga, gb) = if gh.start < gh2.start {
                        let (lo, hi) = ent.grads.split_at_mut(gh2.start);
                        (&mut lo[gh.start..gh.start + d], &mut hi[..d])
                    } else {
                        let (lo, hi) = ent.grads.split_at_mut(gh.start);
                        (&mut hi[..d], &mut lo[gh2.start..gh2.start + d])
                    };
                    for i in 0..d {
                        let (up, un) = (u_pos[i], u_neg[i]);
                        if up == 0.0 && un == 0.0 {
                            continue;
                        }
                        let row = &m[i * d..(i + 1) * d];
                        if up != 0.0 {
                            add_scaled(ga, up, row);
                        }
                        if un != 0.0 {
                            sub_scaled(gb, un, row);
                        }
                        // ∂f_R/∂M_r = u·hᵀ, combined across the pair.
                        add_scaled_diff(&mut gmat[i * d..(i + 1) * d], up, h, un, h2);
                    }
                } else {
                    // h' aliases h (the sampler's give-up fallback can
                    // reproduce the positive): interleaving would change
                    // the accumulation order within the shared row, so
                    // keep the reference op order of two separate passes.
                    for i in 0..d {
                        let row = &m[i * d..(i + 1) * d];
                        if u_pos[i] != 0.0 {
                            add_scaled(&mut ent.grads[gh.clone()], u_pos[i], row);
                        }
                    }
                    for i in 0..d {
                        let row = &m[i * d..(i + 1) * d];
                        if u_neg[i] != 0.0 {
                            sub_scaled(&mut ent.grads[gh2.clone()], u_neg[i], row);
                        }
                    }
                    for i in 0..d {
                        let (up, un) = (u_pos[i], u_neg[i]);
                        if up != 0.0 || un != 0.0 {
                            add_scaled_diff(&mut gmat[i * d..(i + 1) * d], up, h, un, h2);
                        }
                    }
                }
            }
            Corruption::Relation => {
                // Same head h, corrupted relation r'. Destination h is
                // shared → combined; r/r' and M_r/M_r' are distinct.
                let rv2 = model.rel(neg.relation);
                sign_diff_into(u_neg, mh_neg, rv2);
                let gr = rel.range(pos.relation.0, d);
                sub_row(&mut rel.grads[gr], u_pos);
                let gr2 = rel.range(neg.relation.0, d);
                add_row(&mut rel.grads[gr2], u_neg);
                // comb = M_rᵀ·u_pos − M_r'ᵀ·u_neg, then h += comb.
                comb.fill(0.0);
                for i in 0..d {
                    if u_pos[i] != 0.0 {
                        add_scaled(comb, u_pos[i], &m[i * d..(i + 1) * d]);
                    }
                }
                let m2 = model.mat(neg.relation);
                for i in 0..d {
                    if u_neg[i] != 0.0 {
                        sub_scaled(comb, u_neg[i], &m2[i * d..(i + 1) * d]);
                    }
                }
                let gh = ent.range(pos.head.0, d);
                add_row(&mut ent.grads[gh], comb);
                let gm = mat.range(pos.relation.0, dd);
                let gmat = &mut mat.grads[gm];
                for i in 0..d {
                    if u_pos[i] != 0.0 {
                        add_scaled(&mut gmat[i * d..(i + 1) * d], u_pos[i], h);
                    }
                }
                let gm2 = mat.range(neg.relation.0, dd);
                let gmat2 = &mut mat.grads[gm2];
                for i in 0..d {
                    if u_neg[i] != 0.0 {
                        sub_scaled(&mut gmat2[i * d..(i + 1) * d], u_neg[i], h);
                    }
                }
            }
        }
    }

    for block in [ent, rel, mat] {
        block.ids.sort_unstable();
    }
    scratch.loss = loss;
    scratch.violations = violations;
    scratch.n_pairs = pairs.len();
}

/// Unfused twin of [`fused_chunk_grads`]: identical operation order per
/// destination row, but every score comes from [`PkgmModel::score`] and
/// every matvec is recomputed from scratch into freshly allocated buffers.
///
/// This is the numerical *specification* the fused kernel is tested
/// against — any caching, blocking, or scratch-reuse bug in the fused path
/// shows up as a bit difference from this implementation.
pub fn reference_chunk_grads(
    model: &PkgmModel,
    pairs: &[CorruptedPair],
    margin: f32,
) -> ChunkGrads {
    let d = model.dim();
    let dd = d * d;
    let rel_on = model.cfg.relation_module;
    let mut order = Vec::new();
    relation_blocked_order_into(pairs, &mut order);

    let mut ent: std::collections::BTreeMap<u32, Vec<f32>> = Default::default();
    let mut rel: std::collections::BTreeMap<u32, Vec<f32>> = Default::default();
    let mut mat: std::collections::BTreeMap<u32, Vec<f32>> = Default::default();
    let mut loss = 0.0f64;
    let mut violations = 0usize;

    // u = sgn(M_r·h − r) recomputed from scratch, in [`kernel_dot`] order
    // (the fused kernel derives u from its kernel_dot projections).
    let sign_residual = |r: pkgm_store::RelationId, h: pkgm_store::EntityId| -> Vec<f32> {
        let m = model.mat(r);
        let hv = model.ent(h);
        let rv = model.rel(r);
        (0..d)
            .map(|i| sgn(kernel_dot(&m[i * d..(i + 1) * d], hv) - rv[i]))
            .collect()
    };
    // `f(h,r,t)` recomputed from scratch per call, mirroring the fused
    // kernel's summation orders: translation and residual terms in index
    // order, projection rows via [`kernel_dot`], `f_t + f_r` as the final
    // add. (`PkgmModel::score` would use `pkgm_dot` order instead.)
    let score = |t: pkgm_store::Triple| -> f32 {
        let f_t = l1_translation(model.ent(t.head), model.rel(t.relation), model.ent(t.tail));
        if !rel_on {
            return f_t;
        }
        let m = model.mat(t.relation);
        let hv = model.ent(t.head);
        let proj: Vec<f32> = (0..d)
            .map(|i| kernel_dot(&m[i * d..(i + 1) * d], hv))
            .collect();
        f_t + l1_dist(&proj, model.rel(t.relation))
    };

    for &pi in &order {
        let CorruptedPair { pos, neg, slot } = pairs[pi as usize];
        let f_pos = score(pos);
        let f_neg = score(neg);
        let viol = f_pos + margin - f_neg;
        if viol <= 0.0 {
            continue;
        }
        loss += viol as f64;
        violations += 1;

        // Triple module, pos side then neg side (matching the fused order).
        for (triple, dir) in [(pos, 1.0f32), (neg, -1.0f32)] {
            let h = model.ent(triple.head);
            let rv = model.rel(triple.relation);
            let t = model.ent(triple.tail);
            let s: Vec<f32> = (0..d).map(|i| dir * sgn(h[i] + rv[i] - t[i])).collect();
            let gh = ent.entry(triple.head.0).or_insert_with(|| vec![0.0; d]);
            for i in 0..d {
                gh[i] += s[i];
            }
            let gr = rel.entry(triple.relation.0).or_insert_with(|| vec![0.0; d]);
            for i in 0..d {
                gr[i] += s[i];
            }
            let gt = ent.entry(triple.tail.0).or_insert_with(|| vec![0.0; d]);
            for i in 0..d {
                gt[i] -= s[i];
            }
        }

        if !rel_on || matches!(slot, Corruption::Tail) {
            // Tail corruption: the pair's relation-module terms combine to
            // an exact zero (identical u on both sides) — same skip as the
            // fused kernel.
            continue;
        }
        let u_pos = sign_residual(pos.relation, pos.head);
        let m = model.mat(pos.relation);
        let h = model.ent(pos.head);
        match slot {
            Corruption::Tail => unreachable!("handled above"),
            Corruption::Head => {
                let u_neg = sign_residual(pos.relation, neg.head);
                let h2 = model.ent(neg.head);
                let gr = rel.entry(pos.relation.0).or_insert_with(|| vec![0.0; d]);
                for i in 0..d {
                    gr[i] += u_neg[i] - u_pos[i];
                }
                let gh = ent.entry(pos.head.0).or_insert_with(|| vec![0.0; d]);
                for i in 0..d {
                    if u_pos[i] == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        gh[j] += u_pos[i] * m[i * d + j];
                    }
                }
                let gh2 = ent.entry(neg.head.0).or_insert_with(|| vec![0.0; d]);
                for i in 0..d {
                    if u_neg[i] == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        gh2[j] -= u_neg[i] * m[i * d + j];
                    }
                }
                let gm = mat.entry(pos.relation.0).or_insert_with(|| vec![0.0; dd]);
                for i in 0..d {
                    if u_pos[i] == 0.0 && u_neg[i] == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        gm[i * d + j] += u_pos[i] * h[j] - u_neg[i] * h2[j];
                    }
                }
            }
            Corruption::Relation => {
                let u_neg = sign_residual(neg.relation, pos.head);
                let m2 = model.mat(neg.relation);
                let gr = rel.entry(pos.relation.0).or_insert_with(|| vec![0.0; d]);
                for i in 0..d {
                    gr[i] -= u_pos[i];
                }
                let gr2 = rel.entry(neg.relation.0).or_insert_with(|| vec![0.0; d]);
                for i in 0..d {
                    gr2[i] += u_neg[i];
                }
                let mut comb = vec![0.0f32; d];
                for i in 0..d {
                    if u_pos[i] == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        comb[j] += u_pos[i] * m[i * d + j];
                    }
                }
                for i in 0..d {
                    if u_neg[i] == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        comb[j] -= u_neg[i] * m2[i * d + j];
                    }
                }
                let gh = ent.entry(pos.head.0).or_insert_with(|| vec![0.0; d]);
                for i in 0..d {
                    gh[i] += comb[i];
                }
                let gm = mat.entry(pos.relation.0).or_insert_with(|| vec![0.0; dd]);
                for i in 0..d {
                    if u_pos[i] == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        gm[i * d + j] += u_pos[i] * h[j];
                    }
                }
                let gm2 = mat.entry(neg.relation.0).or_insert_with(|| vec![0.0; dd]);
                for i in 0..d {
                    if u_neg[i] == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        gm2[i * d + j] -= u_neg[i] * h[j];
                    }
                }
            }
        }
    }

    ChunkGrads {
        ent: ent.into_iter().collect(),
        rel: rel.into_iter().collect(),
        mat: mat.into_iter().collect(),
        loss,
        violations,
        pairs: pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PkgmConfig;
    use crate::negative::NegativeSampler;
    use pkgm_store::{StoreBuilder, TripleStore};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy_store() -> TripleStore {
        let mut b = StoreBuilder::new();
        for i in 0..12u32 {
            b.add_raw(i, i % 3, 12 + i % 4);
        }
        b.build()
    }

    fn pairs_for(store: &TripleStore, seed: u64, negatives: usize) -> Vec<CorruptedPair> {
        let sampler = NegativeSampler::new(store);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        sampler.corrupt_batch_into(
            store.triples().iter().copied(),
            store,
            negatives,
            &mut rng,
            &mut out,
        );
        out
    }

    fn assert_grads_bitwise_eq(a: &ChunkGrads, b: &ChunkGrads) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "loss differs");
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.pairs, b.pairs);
        for (name, xs, ys) in [
            ("ent", &a.ent, &b.ent),
            ("rel", &a.rel, &b.rel),
            ("mat", &a.mat, &b.mat),
        ] {
            assert_eq!(xs.len(), ys.len(), "{name}: row counts differ");
            for ((ka, ga), (kb, gb)) in xs.iter().zip(ys) {
                assert_eq!(ka, kb, "{name}: touched ids differ");
                for (i, (x, y)) in ga.iter().zip(gb).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name}[{ka}][{i}]: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn fused_matches_reference_bitwise() {
        let store = toy_store();
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(3),
        );
        let pairs = pairs_for(&store, 7, 2);
        let mut scratch = TrainScratch::new(&model);
        let fused = fused_chunk_grads(&model, &mut scratch, &pairs, 4.0);
        let reference = reference_chunk_grads(&model, &pairs, 4.0);
        assert_grads_bitwise_eq(&fused, &reference);
        // Scratch reuse across chunks must not leak state.
        let fused2 = fused_chunk_grads(&model, &mut scratch, &pairs, 4.0);
        assert_grads_bitwise_eq(&fused2, &reference);
    }

    #[test]
    fn transe_ablation_has_no_matrix_grads() {
        let store = toy_store();
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::transe(8).with_seed(5),
        );
        let pairs = pairs_for(&store, 13, 1);
        let mut scratch = TrainScratch::new(&model);
        let fused = fused_chunk_grads(&model, &mut scratch, &pairs, 4.0);
        assert!(fused.mat.is_empty());
        assert_grads_bitwise_eq(&fused, &reference_chunk_grads(&model, &pairs, 4.0));
    }

    #[test]
    fn merge_is_in_order_and_sums_shared_rows() {
        let mut a = ChunkGrads::empty();
        a.ent = vec![(1, vec![1.0, 2.0]), (5, vec![1.0, 1.0])];
        a.loss = 1.0;
        a.pairs = 2;
        let mut b = ChunkGrads::empty();
        b.ent = vec![(0, vec![0.5, 0.5]), (5, vec![2.0, 3.0])];
        b.loss = 0.5;
        b.pairs = 1;
        let m = a.merge(b);
        assert_eq!(
            m.ent,
            vec![
                (0, vec![0.5, 0.5]),
                (1, vec![1.0, 2.0]),
                (5, vec![3.0, 4.0])
            ]
        );
        assert_eq!(m.loss, 1.5);
        assert_eq!(m.pairs, 3);
    }

    #[test]
    fn relation_blocking_groups_stably() {
        let store = toy_store();
        let pairs = pairs_for(&store, 17, 1);
        let mut order = Vec::new();
        relation_blocked_order_into(&pairs, &mut order);
        assert_eq!(order.len(), pairs.len());
        // Ascending relation ids; original order within each group.
        let rels: Vec<u32> = order
            .iter()
            .map(|&i| pairs[i as usize].pos.relation.0)
            .collect();
        assert!(rels.windows(2).all(|w| w[0] <= w[1]));
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            if pairs[a as usize].pos.relation == pairs[b as usize].pos.relation {
                assert!(a < b, "stable grouping violated: {a} after {b}");
            }
        }
    }
}
