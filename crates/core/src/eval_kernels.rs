//! Fused, blocked evaluation kernels for full-candidate link prediction.
//!
//! PR 3 gave training its fused kernels; this module does the same for the
//! evaluation protocol in [`crate::eval`], the last untouched hot path. The
//! design mirrors [`crate::kernels`] exactly — one fast path, one oracle:
//!
//! * **Fused** ([`fused_rank_tails`] / [`fused_rank_heads`] /
//!   [`fused_rank_relations`]) — candidate-blocked scans over the entity
//!   table in cache-sized tiles, a preallocated [`EvalScratch`] per worker
//!   (no per-triple allocation), eight-lane fixed-order L1 accumulation,
//!   exact early exit per candidate, relation-grouped head ranking, and
//!   sorted-merge filtering.
//! * **Reference** ([`reference_rank_tails`] / [`reference_rank_heads`] /
//!   [`reference_rank_relations`]) — the contract twin: per-triple fresh
//!   compute, per-candidate `binary_search` filtering, no grouping, no
//!   early exit, but the *same* summation orders as the fused path. The
//!   parity suite asserts fused ≡ reference per-triple ranks **exactly**.
//!
//! ## Why the early exit is exact, not approximate
//!
//! A candidate only affects a rank through the predicate
//! `score(candidate) < true_score`. Every L1 term is nonnegative and
//! IEEE-754 round-to-nearest addition is monotone, so each lane accumulator
//! only grows, the fixed lane combine is monotone in every lane, and adding
//! the nonnegative tail (or the nonnegative relation-module part) can only
//! increase the result. A partial sum that already reaches `true_score`
//! therefore proves the full sum would too — the candidate is abandoned
//! with the *decision* unchanged, which keeps `better` counts, ranks, and
//! all downstream metrics bit-identical to the unconditional scan.
//!
//! ## Cost of head ranking
//!
//! Scoring every head candidate with a fresh `M_r·h′` mat-vec costs
//! O(|test|·|E|·d²). Fused head ranking groups test triples by relation,
//! computes each candidate's relation-module score `‖M_r·h′ − r‖₁` once
//! per (relation group, candidate tile) — with an early exit against the
//! group's *maximum* true score — and shares it across every test triple
//! of that relation: O(|R_test|·|E|·d²) + O(|test|·|E|·d).

use crate::kernels::kernel_dot;
use crate::model::PkgmModel;
use crate::quant::{QuantScanTable, F32_EPS};
use crate::simd::{blocked_l1, blocked_l1_translation, l1_beats, translation_beats};
use pkgm_store::{EntityId, RelationId, Triple, TripleStore};
use rayon::prelude::*;

/// Entities per cache tile. At d = 64 a tile of candidate rows is
/// 256·64·4 B = 64 KiB — resident in L2 while every test triple of the
/// group scans it.
const CANDIDATE_TILE: u32 = 256;

/// Test triples per tail-ranking work unit. All bases of a chunk live in
/// one scratch buffer and the entity table streams through cache once per
/// chunk instead of once per triple.
const TRIPLE_CHUNK: usize = 16;

/// A test triple referenced an id outside the model's tables.
///
/// The pre-kernel evaluation path panicked on out-of-range ids (slice
/// indexing); the kernel path validates up front and returns a clean error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A head or tail entity id is `>= n_entities`.
    EntityOutOfRange {
        /// Index of the offending triple in `test`.
        index: usize,
        /// The out-of-range entity id.
        id: u32,
        /// The model's entity-table size.
        n_entities: usize,
    },
    /// A relation id is `>= n_relations`.
    RelationOutOfRange {
        /// Index of the offending triple in `test`.
        index: usize,
        /// The out-of-range relation id.
        id: u32,
        /// The model's relation-table size.
        n_relations: usize,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::EntityOutOfRange {
                index,
                id,
                n_entities,
            } => write!(
                f,
                "test triple {index} references entity {id}, but the model has {n_entities} entities"
            ),
            EvalError::RelationOutOfRange {
                index,
                id,
                n_relations,
            } => write!(
                f,
                "test triple {index} references relation {id}, but the model has {n_relations} relations"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Check every test id against the model's table sizes.
fn validate(model: &PkgmModel, test: &[Triple]) -> Result<(), EvalError> {
    let n_entities = model.n_entities();
    let n_relations = model.n_relations();
    for (index, t) in test.iter().enumerate() {
        for id in [t.head.0, t.tail.0] {
            if id as usize >= n_entities {
                return Err(EvalError::EntityOutOfRange {
                    index,
                    id,
                    n_entities,
                });
            }
        }
        if t.relation.0 as usize >= n_relations {
            return Err(EvalError::RelationOutOfRange {
                index,
                id: t.relation.0,
                n_relations,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Blocked L1 primitives (the contract arithmetic)
// ---------------------------------------------------------------------------
//
// The eight-lane blocked primitives — `blocked_l1`,
// `blocked_l1_translation` and the early-exit comparators `l1_beats` /
// `translation_beats` — live in [`crate::simd`] now, runtime-dispatched to
// AVX2/SSE4.1 with the scalar twins as the contract arithmetic. Every
// dispatch level computes the identical deterministic function (same lane
// order, same fixed combine, same `EXIT_STRIDE` cadence), so the
// fused ≡ reference bit-identity this module promises is unchanged.

/// Relation-module score `‖M·hv − rv‖₁`: projection rows via
/// [`kernel_dot`], residual terms accumulated serially in index order —
/// the same arithmetic as the training kernels' cached-projection score.
#[inline]
fn residual(m: &[f32], hv: &[f32], rv: &[f32]) -> f32 {
    let d = rv.len();
    let mut res = 0.0f32;
    for i in 0..d {
        res += (kernel_dot(&m[i * d..(i + 1) * d], hv) - rv[i]).abs();
    }
    res
}

/// [`residual`] with an exact early exit against `cap`, returning
/// `f32::INFINITY` once the partial residual reaches it.
///
/// `cap` is the **maximum** true score of a relation group. If the partial
/// residual already reaches `cap`, the full residual does too, and for
/// every test triple of the group the candidate's joint score
/// `f_T + f_R ≥ f_R ≥ cap ≥ true_score` — so it can never count as
/// "better" and the `INFINITY` sentinel makes every per-triple
/// `extra >= bound` pre-check skip it, exactly like the reference.
#[inline]
fn residual_capped(m: &[f32], hv: &[f32], rv: &[f32], cap: f32) -> f32 {
    let d = rv.len();
    let mut res = 0.0f32;
    for i in 0..d {
        res += (kernel_dot(&m[i * d..(i + 1) * d], hv) - rv[i]).abs();
        if res >= cap {
            return f32::INFINITY;
        }
    }
    res
}

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

/// Preallocated per-worker buffers for the fused evaluation kernels.
///
/// One scratch serves every chunk/group a worker processes; buffers are
/// `resize`d in place, so steady-state evaluation performs no per-triple
/// allocation. Mirrors [`crate::kernels::TrainScratch`].
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// `S_T(h, r)` base vectors for a chunk of tail-ranking triples
    /// (`chunk_len × d`, row-major).
    bases: Vec<f32>,
    /// Per-triple true scores of the current chunk/group.
    true_scores: Vec<f32>,
    /// Per-triple `better`-than-true counters.
    better: Vec<usize>,
    /// Per-triple advancing cursors into the sorted known-positive sets
    /// (the sorted-merge replacement for per-candidate `binary_search`).
    ptr: Vec<usize>,
    /// Cached relation-module scores `f_R(candidate, r)` for the current
    /// candidate tile (head ranking) or all relations (relation ranking).
    fr: Vec<f32>,
    /// Quantized query vectors for the two-phase kernels (`g × d` i8,
    /// row-major — one quantized base per triple of the chunk/group).
    qbases: Vec<i8>,
    /// Per-triple certified query-side quantization errors.
    qerr: Vec<f32>,
}

impl EvalScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A pool of idle [`EvalScratch`]es shared by rayon workers, mirroring
/// [`crate::kernels::ScratchPool`]: `with_scratch` pops an idle scratch
/// (or builds one), runs the closure, and returns it to the pool. Pool
/// order affects nothing numerical.
#[derive(Debug, Default)]
pub struct EvalScratchPool {
    idle: parking_lot::Mutex<Vec<EvalScratch>>,
}

impl EvalScratchPool {
    /// An empty pool; scratches are built lazily per worker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with a pooled scratch.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut EvalScratch) -> R) -> R {
        let mut scratch = self.idle.lock().pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.idle.lock().push(scratch);
        out
    }
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

/// Stably group test-triple indices by `key` (ascending key, original
/// order within a group) — the evaluation analogue of the training
/// kernels' `relation_blocked_order_into`.
fn grouped_indices(test: &[Triple], key: impl Fn(&Triple) -> u32) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = (0..test.len() as u32).collect();
    order.sort_by_key(|&i| key(&test[i as usize]));
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut i = 0usize;
    while i < order.len() {
        let k = key(&test[order[i] as usize]);
        let mut j = i;
        while j < order.len() && key(&test[order[j] as usize]) == k {
            j += 1;
        }
        groups.push(order[i..j].to_vec());
        i = j;
    }
    groups
}

// ---------------------------------------------------------------------------
// Candidate-range slicing (the multi-core fan-out)
// ---------------------------------------------------------------------------

/// Split `0..n` candidates into at most `want` contiguous,
/// [`CANDIDATE_TILE`]-aligned ranges of near-equal tile counts.
///
/// Tile alignment keeps each slice's internal tiling identical to the
/// serial scan's (the same cache-sized blocks stream through L2); the
/// *results* are range-independent anyway — each candidate's
/// better-than-true decision is a pure function of the candidate, and the
/// per-slice contributions are merged by integer summation, so any slicing
/// is bit-identical to serial. `n = 0` yields a single empty range.
fn slice_ranges(n: u32, want: usize) -> Vec<(u32, u32)> {
    let tiles = (n as u64).div_ceil(CANDIDATE_TILE as u64).max(1);
    let slices = (want.max(1) as u64).min(tiles);
    let base = tiles / slices;
    let extra = tiles % slices;
    let mut out = Vec::with_capacity(slices as usize);
    let mut tile = 0u64;
    for s in 0..slices {
        let take = base + if s < extra { 1 } else { 0 };
        let lo = (tile * CANDIDATE_TILE as u64).min(n as u64) as u32;
        tile += take;
        let hi = (tile * CANDIDATE_TILE as u64).min(n as u64) as u32;
        out.push((lo, hi));
    }
    out
}

/// Fan a chunked tail-style scan over `test × candidate-slices` with
/// rayon, merging per-slice `better` counts deterministically.
///
/// The worker scans one [`TRIPLE_CHUNK`] of triples against one candidate
/// range `[lo, hi)` using a pooled [`EvalScratch`], returning per-triple
/// *better* counts (not ranks) plus its [`PruneStats`]. Counts are summed
/// per chunk in work-list order and stats merged likewise — both integer
/// sums, so the result is bit-identical to the serial scan for every
/// `n_slices` and every rayon thread count.
fn sliced_chunk_ranks<W>(
    test: &[Triple],
    n_candidates: u32,
    n_slices: usize,
    worker: W,
) -> (Vec<usize>, PruneStats)
where
    W: Fn(&mut EvalScratch, &[Triple], u32, u32) -> (Vec<usize>, PruneStats) + Sync,
{
    let ranges = slice_ranges(n_candidates, n_slices);
    let chunks: Vec<&[Triple]> = test.chunks(TRIPLE_CHUNK).collect();
    let mut work: Vec<(usize, (u32, u32))> = Vec::with_capacity(chunks.len() * ranges.len());
    for ci in 0..chunks.len() {
        for &range in &ranges {
            work.push((ci, range));
        }
    }
    let pool = EvalScratchPool::new();
    let partials: Vec<(usize, Vec<usize>, PruneStats)> = work
        .par_iter()
        .map(|&(ci, (lo, hi))| {
            let (better, stats) = pool.with_scratch(|scratch| worker(scratch, chunks[ci], lo, hi));
            (ci, better, stats)
        })
        .collect();
    let mut totals: Vec<Vec<usize>> = chunks.iter().map(|c| vec![0usize; c.len()]).collect();
    let mut stats = PruneStats::default();
    for (ci, better, slice_stats) in partials {
        for (t, b) in totals[ci].iter_mut().zip(better) {
            *t += b;
        }
        stats.merge(slice_stats);
    }
    let ranks = totals.into_iter().flatten().map(|b| b + 1).collect();
    (ranks, stats)
}

/// Fan a grouped head/relation-style scan over `groups ×
/// candidate-slices`, merging like [`sliced_chunk_ranks`].
///
/// The worker scans one group's triples (by test indices) against one
/// candidate range, returning better counts aligned with the group's
/// index order.
fn sliced_group_ranks<W>(
    test_len: usize,
    groups: &[Vec<u32>],
    n_candidates: u32,
    n_slices: usize,
    worker: W,
) -> (Vec<usize>, PruneStats)
where
    W: Fn(&mut EvalScratch, &[u32], u32, u32) -> (Vec<usize>, PruneStats) + Sync,
{
    let ranges = slice_ranges(n_candidates, n_slices);
    let mut work: Vec<(usize, (u32, u32))> = Vec::with_capacity(groups.len() * ranges.len());
    for gi in 0..groups.len() {
        for &range in &ranges {
            work.push((gi, range));
        }
    }
    let pool = EvalScratchPool::new();
    let partials: Vec<(usize, Vec<usize>, PruneStats)> = work
        .par_iter()
        .map(|&(gi, (lo, hi))| {
            let (better, stats) = pool.with_scratch(|scratch| worker(scratch, &groups[gi], lo, hi));
            (gi, better, stats)
        })
        .collect();
    let mut totals = vec![0usize; test_len];
    let mut stats = PruneStats::default();
    for (gi, better, slice_stats) in partials {
        for (&ti, b) in groups[gi].iter().zip(better) {
            totals[ti as usize] += b;
        }
        stats.merge(slice_stats);
    }
    let ranks = totals.into_iter().map(|b| b + 1).collect();
    (ranks, stats)
}

// ---------------------------------------------------------------------------
// Fused kernels
// ---------------------------------------------------------------------------

/// Fused tail ranking: per-triple 1-based ranks, bit-identical to
/// [`reference_rank_tails`] (the parity suite enforces this).
///
/// Triples are processed in chunks of [`TRIPLE_CHUNK`] so the entity table
/// streams through cache once per chunk; candidates are scanned in
/// ascending id order in [`CANDIDATE_TILE`]-sized tiles with the filter
/// applied by an advancing cursor into the sorted known-tail set. Work
/// fans out over `chunks × candidate-slices` (one slice per rayon thread),
/// so all cores contribute even when `|test|` is small.
pub fn fused_rank_tails(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    fused_rank_tails_sliced(model, test, filter, rayon::current_num_threads())
}

/// [`fused_rank_tails`] with an explicit candidate-slice count — the
/// parity suite and the benches use this to pin the fan-out width; ranks
/// are bit-identical for every `n_slices`.
pub fn fused_rank_tails_sliced(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> Result<Vec<usize>, EvalError> {
    validate(model, test)?;
    let n_entities = model.n_entities() as u32;
    let (ranks, _) = sliced_chunk_ranks(test, n_entities, n_slices, |scratch, chunk, lo, hi| {
        (
            tail_chunk_better(model, chunk, filter, scratch, lo, hi),
            PruneStats::default(),
        )
    });
    Ok(ranks)
}

/// Per-triple `better` counts for one chunk over candidates `[lo, hi)`.
fn tail_chunk_better(
    model: &PkgmModel,
    chunk: &[Triple],
    filter: Option<&TripleStore>,
    scratch: &mut EvalScratch,
    lo: u32,
    hi: u32,
) -> Vec<usize> {
    let d = model.dim();
    let g = chunk.len();
    let EvalScratch {
        bases,
        true_scores,
        better,
        ptr,
        ..
    } = scratch;
    bases.resize(g * d, 0.0);
    true_scores.clear();
    let mut knowns: Vec<&[EntityId]> = Vec::with_capacity(g);
    for (s, &t) in chunk.iter().enumerate() {
        let base = &mut bases[s * d..(s + 1) * d];
        model.service_t_into(t.head, t.relation, base);
        true_scores.push(blocked_l1(base, model.ent(t.tail)));
        knowns.push(filter.map_or(&[][..], |f| f.tails(t.head, t.relation)));
    }
    better.clear();
    better.resize(g, 0);
    ptr.clear();
    ptr.resize(g, 0);
    // Filter cursors start at the first known id in this slice's range —
    // for `lo = 0` this is index 0, exactly the serial scan's start.
    for s in 0..g {
        ptr[s] = knowns[s].partition_point(|e| e.0 < lo);
    }

    let mut tile_start = lo;
    while tile_start < hi {
        let tile_end = (tile_start + CANDIDATE_TILE).min(hi);
        for s in 0..g {
            let t = chunk[s];
            let base = &bases[s * d..(s + 1) * d];
            let known = knowns[s];
            let bound = true_scores[s];
            let p = &mut ptr[s];
            let mut b = 0usize;
            for c in tile_start..tile_end {
                while *p < known.len() && known[*p].0 < c {
                    *p += 1;
                }
                if *p < known.len() && known[*p].0 == c {
                    *p += 1;
                    continue;
                }
                if c == t.tail.0 {
                    continue;
                }
                if l1_beats(base, model.ent(EntityId(c)), 0.0, bound) {
                    b += 1;
                }
            }
            better[s] += b;
        }
        tile_start = tile_end;
    }
    better.clone()
}

/// Fused head ranking under the joint score `f_T + f_R`, bit-identical to
/// [`reference_rank_heads`].
///
/// Test triples are grouped by relation; each group loads `M_r` once and
/// caches every candidate's relation-module score per tile (with an exact
/// early exit against the group's maximum true score), sharing it across
/// all test triples of the relation — O(|R_test|·|E|·d²) + O(|test|·|E|·d)
/// instead of O(|test|·|E|·d²).
pub fn fused_rank_heads(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    fused_rank_heads_sliced(model, test, filter, rayon::current_num_threads())
}

/// [`fused_rank_heads`] with an explicit candidate-slice count; ranks are
/// bit-identical for every `n_slices`.
pub fn fused_rank_heads_sliced(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> Result<Vec<usize>, EvalError> {
    validate(model, test)?;
    let groups = grouped_indices(test, |t| t.relation.0);
    let n_entities = model.n_entities() as u32;
    let (ranks, _) = sliced_group_ranks(
        test.len(),
        &groups,
        n_entities,
        n_slices,
        |scratch, idxs, lo, hi| {
            (
                head_group_better(model, test, idxs, filter, scratch, lo, hi),
                PruneStats::default(),
            )
        },
    );
    Ok(ranks)
}

/// Per-triple `better` counts for one relation group over candidates
/// `[lo, hi)`.
fn head_group_better(
    model: &PkgmModel,
    test: &[Triple],
    indices: &[u32],
    filter: Option<&TripleStore>,
    scratch: &mut EvalScratch,
    lo: u32,
    hi: u32,
) -> Vec<usize> {
    let r = test[indices[0] as usize].relation;
    let rel_on = model.cfg.relation_module;
    let rv = model.rel(r);
    let g = indices.len();
    let EvalScratch {
        true_scores,
        better,
        ptr,
        fr,
        ..
    } = scratch;

    true_scores.clear();
    let mut knowns: Vec<&[EntityId]> = Vec::with_capacity(g);
    // The group's maximum true score caps the shared candidate residuals;
    // `f32::max` ignores NaN, and a NaN-only group degrades to cap = -inf,
    // which caps every candidate — consistent with the reference, where no
    // candidate can score below a NaN true score either.
    let mut cap = f32::NEG_INFINITY;
    for &ti in indices {
        let t = test[ti as usize];
        let h_row = model.ent(t.head);
        let f_t = blocked_l1_translation(h_row, rv, model.ent(t.tail));
        let ts = if rel_on {
            f_t + residual(model.mat(r), h_row, rv)
        } else {
            f_t
        };
        cap = cap.max(ts);
        true_scores.push(ts);
        knowns.push(filter.map_or(&[][..], |f| f.heads(t.relation, t.tail)));
    }
    better.clear();
    better.resize(g, 0);
    ptr.clear();
    ptr.resize(g, 0);
    for s in 0..g {
        ptr[s] = knowns[s].partition_point(|e| e.0 < lo);
    }
    fr.clear();
    fr.resize(CANDIDATE_TILE as usize, 0.0);

    let mut tile_start = lo;
    while tile_start < hi {
        let tile_end = (tile_start + CANDIDATE_TILE).min(hi);
        if rel_on {
            let m = model.mat(r);
            for c in tile_start..tile_end {
                fr[(c - tile_start) as usize] = residual_capped(m, model.ent(EntityId(c)), rv, cap);
            }
        }
        for s in 0..g {
            let t = test[indices[s] as usize];
            let t_row = model.ent(t.tail);
            let known = knowns[s];
            let bound = true_scores[s];
            let p = &mut ptr[s];
            let mut b = 0usize;
            for c in tile_start..tile_end {
                while *p < known.len() && known[*p].0 < c {
                    *p += 1;
                }
                if *p < known.len() && known[*p].0 == c {
                    *p += 1;
                    continue;
                }
                if c == t.head.0 {
                    continue;
                }
                let extra = if rel_on {
                    fr[(c - tile_start) as usize]
                } else {
                    0.0
                };
                // Exact pre-check: f_T + f_R ≥ f_R, so f_R ≥ bound already
                // rules the candidate out (and absorbs the ∞ sentinel).
                if extra >= bound {
                    continue;
                }
                if translation_beats(model.ent(EntityId(c)), rv, t_row, extra, bound) {
                    b += 1;
                }
            }
            better[s] += b;
        }
        tile_start = tile_end;
    }
    better.clone()
}

/// Fused relation ranking under the joint score, bit-identical to
/// [`reference_rank_relations`].
///
/// Test triples are grouped by head; each group computes every candidate
/// relation's module score `‖M_r·h − r‖₁` once (with the capped early
/// exit) and shares it across the group's triples. The filter walks the
/// head's sorted relation list with an advancing cursor and only consults
/// the tail set for relations the head actually has.
pub fn fused_rank_relations(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    fused_rank_relations_sliced(model, test, filter, rayon::current_num_threads())
}

/// [`fused_rank_relations`] with an explicit candidate-slice count; ranks
/// are bit-identical for every `n_slices`. (Relation tables are usually
/// smaller than one [`CANDIDATE_TILE`], in which case slicing degenerates
/// to one range and parallelism comes from the head groups alone.)
pub fn fused_rank_relations_sliced(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> Result<Vec<usize>, EvalError> {
    validate(model, test)?;
    let groups = grouped_indices(test, |t| t.head.0);
    let n_relations = model.n_relations() as u32;
    let (ranks, _) = sliced_group_ranks(
        test.len(),
        &groups,
        n_relations,
        n_slices,
        |scratch, idxs, lo, hi| {
            (
                relation_group_better(model, test, idxs, filter, scratch, lo, hi),
                PruneStats::default(),
            )
        },
    );
    Ok(ranks)
}

/// Per-triple `better` counts for one head group over candidate relations
/// `[lo, hi)`.
fn relation_group_better(
    model: &PkgmModel,
    test: &[Triple],
    indices: &[u32],
    filter: Option<&TripleStore>,
    scratch: &mut EvalScratch,
    lo: u32,
    hi: u32,
) -> Vec<usize> {
    let h = test[indices[0] as usize].head;
    let rel_on = model.cfg.relation_module;
    let h_row = model.ent(h);
    let EvalScratch {
        true_scores, fr, ..
    } = scratch;

    true_scores.clear();
    let mut cap = f32::NEG_INFINITY;
    for &ti in indices {
        let t = test[ti as usize];
        let rv = model.rel(t.relation);
        let f_t = blocked_l1_translation(h_row, rv, model.ent(t.tail));
        let ts = if rel_on {
            f_t + residual(model.mat(t.relation), h_row, rv)
        } else {
            f_t
        };
        cap = cap.max(ts);
        true_scores.push(ts);
    }

    fr.clear();
    fr.resize((hi - lo) as usize, 0.0);
    if rel_on {
        for c in lo..hi {
            let rc = RelationId(c);
            fr[(c - lo) as usize] = residual_capped(model.mat(rc), h_row, model.rel(rc), cap);
        }
    }
    let known_rels: &[RelationId] = filter.map_or(&[][..], |f| f.relations_of(h));

    let mut out = Vec::with_capacity(indices.len());
    for (s, &ti) in indices.iter().enumerate() {
        let t = test[ti as usize];
        let t_row = model.ent(t.tail);
        let bound = true_scores[s];
        let mut p = known_rels.partition_point(|e| e.0 < lo);
        let mut better = 0usize;
        for c in lo..hi {
            while p < known_rels.len() && known_rels[p].0 < c {
                p += 1;
            }
            if c == t.relation.0 {
                continue;
            }
            if p < known_rels.len() && known_rels[p].0 == c {
                // The head has relation c in the filter store; skip the
                // candidate iff (h, c, t.tail) is a known positive.
                if let Some(f) = filter {
                    if f.tails(h, RelationId(c)).binary_search(&t.tail).is_ok() {
                        continue;
                    }
                }
            }
            let extra = if rel_on { fr[(c - lo) as usize] } else { 0.0 };
            if extra >= bound {
                continue;
            }
            if translation_beats(h_row, model.rel(RelationId(c)), t_row, extra, bound) {
                better += 1;
            }
        }
        out.push(better);
    }
    out
}

// ---------------------------------------------------------------------------
// Quantized two-phase kernels (int8 prune, exact f32 rescore)
// ---------------------------------------------------------------------------

/// Pruning telemetry for the quantized two-phase kernels.
///
/// `scanned_bytes` counts the candidate-scan traffic of the translation
/// part: `d` int8 bytes per phase-1 candidate plus `4·d` f32 bytes per
/// phase-2 survivor (full rows — early exits inside the rescore only make
/// the true traffic lower). The fused f32 kernels touch `4·d` bytes per
/// candidate, so `4·d / (scanned_bytes / candidates)` is the measured
/// bytes-per-candidate reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidates that reached the phase-1 int8 scan (after filtering and
    /// the `extra ≥ bound` pre-check).
    pub candidates: u64,
    /// Candidates whose lower bound could not rule them out — rescored
    /// exactly in f32.
    pub survivors: u64,
    /// Candidate-scan bytes touched across both phases.
    pub scanned_bytes: u64,
}

impl PruneStats {
    /// Accumulate another partial count.
    pub fn merge(&mut self, other: PruneStats) {
        self.candidates += other.candidates;
        self.survivors += other.survivors;
        self.scanned_bytes += other.scanned_bytes;
    }

    /// Fraction of phase-1 candidates pruned without touching f32 rows.
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            1.0 - self.survivors as f64 / self.candidates as f64
        }
    }

    /// Average candidate-scan bytes per phase-1 candidate.
    pub fn bytes_per_candidate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.scanned_bytes as f64 / self.candidates as f64
        }
    }
}

/// The int8 companion of a [`PkgmModel`]: entity and relation tables
/// quantized with table-wide per-block scales ([`QuantScanTable`]) for the
/// phase-1 pruning scans. Build once, share across evaluations — the
/// tables are immutable snapshots of the model at build time.
#[derive(Debug, Clone)]
pub struct QuantEvalModel {
    ent: QuantScanTable,
    rel: QuantScanTable,
}

impl QuantEvalModel {
    /// Quantize `model`'s entity and relation tables.
    pub fn build(model: &PkgmModel) -> Self {
        let d = model.dim();
        Self {
            ent: QuantScanTable::from_rows(&model.ent, d),
            rel: QuantScanTable::from_rows(&model.rel, d),
        }
    }

    /// Bytes held by the quantized tables (the resident footprint of the
    /// phase-1 scan, vs `4·d` per row for the f32 tables).
    pub fn table_bytes(&self) -> usize {
        self.ent.storage_bytes() + self.rel.storage_bytes()
    }

    /// Check the tables still describe `model`'s shape.
    fn check(&self, model: &PkgmModel) {
        assert_eq!(self.ent.row_len(), model.dim(), "quant model dim mismatch");
        assert_eq!(
            self.ent.n_rows(),
            model.n_entities(),
            "quant model entity-table mismatch"
        );
        assert_eq!(
            self.rel.n_rows(),
            model.n_relations(),
            "quant model relation-table mismatch"
        );
    }
}

/// Certified formation slack for a translation query `x = fl(a − b)`
/// standing in for the phase-2 expression `fl(fl(c + b) − a)`: per element
/// the two computed values differ from the shared real distance by at most
/// `ε·(|a| + |b|)` each (the candidate-magnitude part is absorbed by the
/// scan table's half-step margins), so `2ε·Σ(|a_i| + |b_i|)` over-covers
/// both roundings.
#[inline]
fn translation_query_err(a: &[f32], b: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        sum += x.abs() + y.abs();
    }
    2.0 * F32_EPS * sum
}

/// Quantized two-phase tail ranking with pruning telemetry: ranks are
/// bit-identical to [`fused_rank_tails`] / [`reference_rank_tails`] (the
/// `quant_parity` suite enforces this), but most candidates are rejected
/// by a certified int8 lower bound before their f32 row is ever touched.
pub fn quantized_rank_tails_with_stats(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<(Vec<usize>, PruneStats), EvalError> {
    quantized_rank_tails_with_stats_sliced(
        model,
        qmodel,
        test,
        filter,
        rayon::current_num_threads(),
    )
}

/// [`quantized_rank_tails_with_stats`] with an explicit candidate-slice
/// count; ranks and stats are identical for every `n_slices` (counts and
/// `scanned_bytes` are per-candidate sums, so slicing commutes with them).
pub fn quantized_rank_tails_with_stats_sliced(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> Result<(Vec<usize>, PruneStats), EvalError> {
    validate(model, test)?;
    qmodel.check(model);
    let n_entities = model.n_entities() as u32;
    Ok(sliced_chunk_ranks(
        test,
        n_entities,
        n_slices,
        |scratch, chunk, lo, hi| {
            quant_tail_chunk_better(model, qmodel, chunk, filter, scratch, lo, hi)
        },
    ))
}

/// [`quantized_rank_tails_with_stats`] without the telemetry.
pub fn quantized_rank_tails(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    quantized_rank_tails_with_stats(model, qmodel, test, filter).map(|(r, _)| r)
}

fn quant_tail_chunk_better(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    chunk: &[Triple],
    filter: Option<&TripleStore>,
    scratch: &mut EvalScratch,
    lo: u32,
    hi: u32,
) -> (Vec<usize>, PruneStats) {
    let d = model.dim();
    let g = chunk.len();
    let EvalScratch {
        bases,
        true_scores,
        better,
        ptr,
        qbases,
        qerr,
        ..
    } = scratch;
    bases.resize(g * d, 0.0);
    qbases.resize(g * d, 0);
    qerr.clear();
    true_scores.clear();
    let mut knowns: Vec<&[EntityId]> = Vec::with_capacity(g);
    for (s, &t) in chunk.iter().enumerate() {
        let base = &mut bases[s * d..(s + 1) * d];
        model.service_t_into(t.head, t.relation, base);
        true_scores.push(blocked_l1(base, model.ent(t.tail)));
        // Phase 2 rescores against this very base vector, so the query
        // carries no formation error — only its own quantization error.
        qerr.push(
            qmodel
                .ent
                .quantize_query(base, &mut qbases[s * d..(s + 1) * d], 0.0),
        );
        knowns.push(filter.map_or(&[][..], |f| f.tails(t.head, t.relation)));
    }
    better.clear();
    better.resize(g, 0);
    ptr.clear();
    ptr.resize(g, 0);
    for s in 0..g {
        ptr[s] = knowns[s].partition_point(|e| e.0 < lo);
    }
    let mut stats = PruneStats::default();

    let mut tile_start = lo;
    while tile_start < hi {
        let tile_end = (tile_start + CANDIDATE_TILE).min(hi);
        for s in 0..g {
            let t = chunk[s];
            let base = &bases[s * d..(s + 1) * d];
            let qbase = &qbases[s * d..(s + 1) * d];
            let query_err = qerr[s];
            let known = knowns[s];
            let bound = true_scores[s];
            let p = &mut ptr[s];
            let mut b = 0usize;
            for c in tile_start..tile_end {
                while *p < known.len() && known[*p].0 < c {
                    *p += 1;
                }
                if *p < known.len() && known[*p].0 == c {
                    *p += 1;
                    continue;
                }
                if c == t.tail.0 {
                    continue;
                }
                stats.candidates += 1;
                // Phase 1: if even the certified lower bound reaches the
                // true score, the exact blocked L1 would too — the
                // candidate can never count as better.
                if qmodel.ent.prunes(qbase, c, query_err, bound) {
                    continue;
                }
                stats.survivors += 1;
                // Phase 2: the exact fused decision, bit-identical.
                if l1_beats(base, model.ent(EntityId(c)), 0.0, bound) {
                    b += 1;
                }
            }
            better[s] += b;
        }
        tile_start = tile_end;
    }
    stats.scanned_bytes = stats.candidates * d as u64 + stats.survivors * 4 * d as u64;
    (better.clone(), stats)
}

/// Quantized two-phase head ranking, bit-identical to
/// [`fused_rank_heads`] / [`reference_rank_heads`].
///
/// The relation-module part (`f_R` via [`residual_capped`]) still reads
/// f32 rows — it is an O(d²) mat-vec per candidate per relation group and
/// dominates regardless — so quantization prunes only the translation
/// scan; `scanned_bytes` counts that scan.
pub fn quantized_rank_heads_with_stats(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<(Vec<usize>, PruneStats), EvalError> {
    quantized_rank_heads_with_stats_sliced(
        model,
        qmodel,
        test,
        filter,
        rayon::current_num_threads(),
    )
}

/// [`quantized_rank_heads_with_stats`] with an explicit candidate-slice
/// count; ranks and stats are identical for every `n_slices`.
pub fn quantized_rank_heads_with_stats_sliced(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> Result<(Vec<usize>, PruneStats), EvalError> {
    validate(model, test)?;
    qmodel.check(model);
    let groups = grouped_indices(test, |t| t.relation.0);
    let n_entities = model.n_entities() as u32;
    Ok(sliced_group_ranks(
        test.len(),
        &groups,
        n_entities,
        n_slices,
        |scratch, idxs, lo, hi| {
            quant_head_group_better(model, qmodel, test, idxs, filter, scratch, lo, hi)
        },
    ))
}

/// [`quantized_rank_heads_with_stats`] without the telemetry.
pub fn quantized_rank_heads(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    quantized_rank_heads_with_stats(model, qmodel, test, filter).map(|(r, _)| r)
}

#[allow(clippy::too_many_arguments)]
fn quant_head_group_better(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    indices: &[u32],
    filter: Option<&TripleStore>,
    scratch: &mut EvalScratch,
    lo: u32,
    hi: u32,
) -> (Vec<usize>, PruneStats) {
    let d = model.dim();
    let r = test[indices[0] as usize].relation;
    let rel_on = model.cfg.relation_module;
    let rv = model.rel(r);
    let g = indices.len();
    let EvalScratch {
        bases,
        true_scores,
        better,
        ptr,
        fr,
        qbases,
        qerr,
    } = scratch;

    bases.resize(g * d, 0.0);
    qbases.resize(g * d, 0);
    qerr.clear();
    true_scores.clear();
    let mut knowns: Vec<&[EntityId]> = Vec::with_capacity(g);
    let mut cap = f32::NEG_INFINITY;
    for (s, &ti) in indices.iter().enumerate() {
        let t = test[ti as usize];
        let h_row = model.ent(t.head);
        let t_row = model.ent(t.tail);
        let f_t = blocked_l1_translation(h_row, rv, t_row);
        let ts = if rel_on {
            f_t + residual(model.mat(r), h_row, rv)
        } else {
            f_t
        };
        cap = cap.max(ts);
        true_scores.push(ts);
        // Phase 1 bounds the translation part as the distance to the query
        // `x = fl(t − r)`; the formation slack covers the gap between this
        // form and phase 2's `fl(fl(h′ + r) − t)` arithmetic.
        let x = &mut bases[s * d..(s + 1) * d];
        for i in 0..d {
            x[i] = t_row[i] - rv[i];
        }
        let extra = translation_query_err(t_row, rv);
        qerr.push(
            qmodel
                .ent
                .quantize_query(x, &mut qbases[s * d..(s + 1) * d], extra),
        );
        knowns.push(filter.map_or(&[][..], |f| f.heads(t.relation, t.tail)));
    }
    better.clear();
    better.resize(g, 0);
    ptr.clear();
    ptr.resize(g, 0);
    for s in 0..g {
        ptr[s] = knowns[s].partition_point(|e| e.0 < lo);
    }
    fr.clear();
    fr.resize(CANDIDATE_TILE as usize, 0.0);
    let mut stats = PruneStats::default();

    let mut tile_start = lo;
    while tile_start < hi {
        let tile_end = (tile_start + CANDIDATE_TILE).min(hi);
        if rel_on {
            let m = model.mat(r);
            for c in tile_start..tile_end {
                fr[(c - tile_start) as usize] = residual_capped(m, model.ent(EntityId(c)), rv, cap);
            }
        }
        for s in 0..g {
            let t = test[indices[s] as usize];
            let t_row = model.ent(t.tail);
            let qbase = &qbases[s * d..(s + 1) * d];
            let query_err = qerr[s];
            let known = knowns[s];
            let bound = true_scores[s];
            let p = &mut ptr[s];
            let mut b = 0usize;
            for c in tile_start..tile_end {
                while *p < known.len() && known[*p].0 < c {
                    *p += 1;
                }
                if *p < known.len() && known[*p].0 == c {
                    *p += 1;
                    continue;
                }
                if c == t.head.0 {
                    continue;
                }
                let extra = if rel_on {
                    fr[(c - tile_start) as usize]
                } else {
                    0.0
                };
                if extra >= bound {
                    continue;
                }
                stats.candidates += 1;
                // Phase 1 on the joint score: the translation part alone
                // must close the gap the relation module leaves open, so
                // prune against `bound − extra` (`extra < bound` held
                // above; the rearranged rounding sits inside SUM_SHAVE).
                if qmodel.ent.prunes(qbase, c, query_err, bound - extra) {
                    continue;
                }
                stats.survivors += 1;
                if translation_beats(model.ent(EntityId(c)), rv, t_row, extra, bound) {
                    b += 1;
                }
            }
            better[s] += b;
        }
        tile_start = tile_end;
    }
    stats.scanned_bytes = stats.candidates * d as u64 + stats.survivors * 4 * d as u64;
    (better.clone(), stats)
}

/// Quantized two-phase relation ranking, bit-identical to
/// [`fused_rank_relations`] / [`reference_rank_relations`]. The relation
/// table is tiny next to the entity table, so this mode exists for
/// completeness of the API rather than for a large win.
pub fn quantized_rank_relations_with_stats(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<(Vec<usize>, PruneStats), EvalError> {
    quantized_rank_relations_with_stats_sliced(
        model,
        qmodel,
        test,
        filter,
        rayon::current_num_threads(),
    )
}

/// [`quantized_rank_relations_with_stats`] with an explicit
/// candidate-slice count; ranks and stats are identical for every
/// `n_slices`.
pub fn quantized_rank_relations_with_stats_sliced(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> Result<(Vec<usize>, PruneStats), EvalError> {
    validate(model, test)?;
    qmodel.check(model);
    let groups = grouped_indices(test, |t| t.head.0);
    let n_relations = model.n_relations() as u32;
    Ok(sliced_group_ranks(
        test.len(),
        &groups,
        n_relations,
        n_slices,
        |scratch, idxs, lo, hi| {
            quant_relation_group_better(model, qmodel, test, idxs, filter, scratch, lo, hi)
        },
    ))
}

/// [`quantized_rank_relations_with_stats`] without the telemetry.
pub fn quantized_rank_relations(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    quantized_rank_relations_with_stats(model, qmodel, test, filter).map(|(r, _)| r)
}

#[allow(clippy::too_many_arguments)]
fn quant_relation_group_better(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    indices: &[u32],
    filter: Option<&TripleStore>,
    scratch: &mut EvalScratch,
    lo: u32,
    hi: u32,
) -> (Vec<usize>, PruneStats) {
    let d = model.dim();
    let h = test[indices[0] as usize].head;
    let rel_on = model.cfg.relation_module;
    let h_row = model.ent(h);
    let g = indices.len();
    let EvalScratch {
        bases,
        true_scores,
        fr,
        qbases,
        qerr,
        ..
    } = scratch;

    bases.resize(g * d, 0.0);
    qbases.resize(g * d, 0);
    qerr.clear();
    true_scores.clear();
    let mut cap = f32::NEG_INFINITY;
    for (s, &ti) in indices.iter().enumerate() {
        let t = test[ti as usize];
        let rv = model.rel(t.relation);
        let t_row = model.ent(t.tail);
        let f_t = blocked_l1_translation(h_row, rv, t_row);
        let ts = if rel_on {
            f_t + residual(model.mat(t.relation), h_row, rv)
        } else {
            f_t
        };
        cap = cap.max(ts);
        true_scores.push(ts);
        // Candidate relations r′ score `fl(fl(h + r′) − t)` elementwise —
        // bounded below via the query `x = fl(t − h)` against the relation
        // scan table, with the same formation slack as head ranking.
        let x = &mut bases[s * d..(s + 1) * d];
        for i in 0..d {
            x[i] = t_row[i] - h_row[i];
        }
        let extra = translation_query_err(t_row, h_row);
        qerr.push(
            qmodel
                .rel
                .quantize_query(x, &mut qbases[s * d..(s + 1) * d], extra),
        );
    }

    fr.clear();
    fr.resize((hi - lo) as usize, 0.0);
    if rel_on {
        for c in lo..hi {
            let rc = RelationId(c);
            fr[(c - lo) as usize] = residual_capped(model.mat(rc), h_row, model.rel(rc), cap);
        }
    }
    let known_rels: &[RelationId] = filter.map_or(&[][..], |f| f.relations_of(h));
    let mut stats = PruneStats::default();

    let mut out = Vec::with_capacity(indices.len());
    for (s, &ti) in indices.iter().enumerate() {
        let t = test[ti as usize];
        let t_row = model.ent(t.tail);
        let qbase = &qbases[s * d..(s + 1) * d];
        let query_err = qerr[s];
        let bound = true_scores[s];
        let mut p = known_rels.partition_point(|e| e.0 < lo);
        let mut better = 0usize;
        for c in lo..hi {
            while p < known_rels.len() && known_rels[p].0 < c {
                p += 1;
            }
            if c == t.relation.0 {
                continue;
            }
            if p < known_rels.len() && known_rels[p].0 == c {
                if let Some(f) = filter {
                    if f.tails(h, RelationId(c)).binary_search(&t.tail).is_ok() {
                        continue;
                    }
                }
            }
            let extra = if rel_on { fr[(c - lo) as usize] } else { 0.0 };
            if extra >= bound {
                continue;
            }
            stats.candidates += 1;
            if qmodel.rel.prunes(qbase, c, query_err, bound - extra) {
                continue;
            }
            stats.survivors += 1;
            if translation_beats(h_row, model.rel(RelationId(c)), t_row, extra, bound) {
                better += 1;
            }
        }
        out.push(better);
    }
    stats.scanned_bytes = stats.candidates * d as u64 + stats.survivors * 4 * d as u64;
    (out, stats)
}

// ---------------------------------------------------------------------------
// Reference twins (the contract)
// ---------------------------------------------------------------------------

/// Reference tail ranking: per-triple fresh compute, per-candidate
/// `binary_search` filtering, no tiling, no early exit — but the same
/// [`blocked_l1`] arithmetic as the fused path, which is what keeps the
/// two bit-equal.
pub fn reference_rank_tails(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    validate(model, test)?;
    let d = model.dim();
    let n_entities = model.n_entities() as u32;
    Ok(test
        .iter()
        .map(|&t| {
            let mut base = vec![0.0f32; d];
            model.service_t_into(t.head, t.relation, &mut base);
            let true_score = blocked_l1(&base, model.ent(t.tail));
            let known = filter.map(|s| s.tails(t.head, t.relation));
            let mut better = 0usize;
            for c in 0..n_entities {
                if c == t.tail.0 {
                    continue;
                }
                if let Some(known) = known {
                    if known.binary_search(&EntityId(c)).is_ok() {
                        continue;
                    }
                }
                if blocked_l1(&base, model.ent(EntityId(c))) < true_score {
                    better += 1;
                }
            }
            better + 1
        })
        .collect())
}

/// The joint score in kernel arithmetic: [`blocked_l1_translation`] plus
/// the serial [`residual`], combined with one final add — the exact
/// expression both the fused and reference evaluation paths compare.
fn kernel_joint_score(model: &PkgmModel, h: EntityId, r: RelationId, t: EntityId) -> f32 {
    let h_row = model.ent(h);
    let rv = model.rel(r);
    let f_t = blocked_l1_translation(h_row, rv, model.ent(t));
    if model.cfg.relation_module {
        f_t + residual(model.mat(r), h_row, rv)
    } else {
        f_t
    }
}

/// Reference head ranking: naive per-triple, per-candidate joint scoring
/// (every candidate pays a fresh O(d²) projection) in kernel arithmetic.
pub fn reference_rank_heads(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    validate(model, test)?;
    let n_entities = model.n_entities() as u32;
    Ok(test
        .iter()
        .map(|&t| {
            let true_score = kernel_joint_score(model, t.head, t.relation, t.tail);
            let known = filter.map(|s| s.heads(t.relation, t.tail));
            let mut better = 0usize;
            for c in 0..n_entities {
                if c == t.head.0 {
                    continue;
                }
                if let Some(known) = known {
                    if known.binary_search(&EntityId(c)).is_ok() {
                        continue;
                    }
                }
                if kernel_joint_score(model, EntityId(c), t.relation, t.tail) < true_score {
                    better += 1;
                }
            }
            better + 1
        })
        .collect())
}

/// Reference relation ranking: naive per-triple, per-candidate joint
/// scoring with `TripleStore::contains` filtering, in kernel arithmetic.
pub fn reference_rank_relations(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<Vec<usize>, EvalError> {
    validate(model, test)?;
    let n_relations = model.n_relations() as u32;
    Ok(test
        .iter()
        .map(|&t| {
            let true_score = kernel_joint_score(model, t.head, t.relation, t.tail);
            let mut better = 0usize;
            for c in 0..n_relations {
                if c == t.relation.0 {
                    continue;
                }
                if let Some(s) = filter {
                    if s.contains(Triple::new(t.head, RelationId(c), t.tail)) {
                        continue;
                    }
                }
                if kernel_joint_score(model, t.head, RelationId(c), t.tail) < true_score {
                    better += 1;
                }
            }
            better + 1
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PkgmConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut SmallRng, d: usize) -> Vec<f32> {
        (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// The early-exit comparator agrees with the unconditional blocked
    /// expression on random vectors and adversarially tight bounds.
    #[test]
    fn l1_beats_matches_unconditional_decision() {
        let mut rng = SmallRng::seed_from_u64(11);
        for d in [1usize, 3, 8, 16, 17, 29, 64] {
            for _ in 0..200 {
                let a = random_vec(&mut rng, d);
                let b = random_vec(&mut rng, d);
                let full = blocked_l1(&a, &b);
                let extra = if rng.gen_bool(0.5) {
                    rng.gen_range(0.0f32..2.0)
                } else {
                    0.0
                };
                // Bounds straddling the exact value, including the tie.
                for bound in [full + extra, full + extra - 0.1, full + extra + 0.1, 0.0] {
                    assert_eq!(
                        l1_beats(&a, &b, extra, bound),
                        full + extra < bound,
                        "d={d} extra={extra} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn translation_beats_matches_unconditional_decision() {
        let mut rng = SmallRng::seed_from_u64(12);
        for d in [1usize, 8, 16, 23, 64] {
            for _ in 0..200 {
                let h = random_vec(&mut rng, d);
                let r = random_vec(&mut rng, d);
                let t = random_vec(&mut rng, d);
                let full = blocked_l1_translation(&h, &r, &t);
                for bound in [full, full * 0.5, full * 1.5, f32::INFINITY] {
                    assert_eq!(
                        translation_beats(&h, &r, &t, 0.0, bound),
                        full < bound,
                        "d={d} bound={bound}"
                    );
                }
            }
        }
    }

    /// `residual_capped` returns the exact residual below the cap and the
    /// ∞ sentinel at or above it.
    #[test]
    fn residual_capped_is_exact_or_sentinel() {
        let mut rng = SmallRng::seed_from_u64(13);
        for d in [2usize, 5, 16] {
            for _ in 0..100 {
                let m = random_vec(&mut rng, d * d);
                let hv = random_vec(&mut rng, d);
                let rv = random_vec(&mut rng, d);
                let full = residual(&m, &hv, &rv);
                let below = residual_capped(&m, &hv, &rv, full * 2.0 + 1.0);
                assert_eq!(below.to_bits(), full.to_bits());
                assert_eq!(residual_capped(&m, &hv, &rv, full * 0.5), f32::INFINITY);
                assert_eq!(
                    residual_capped(&m, &hv, &rv, f32::NEG_INFINITY),
                    f32::INFINITY
                );
            }
        }
    }

    #[test]
    fn grouped_indices_is_stable_and_complete() {
        let triples: Vec<Triple> = [(0u32, 2u32), (1, 0), (2, 2), (3, 1), (4, 0)]
            .iter()
            .map(|&(h, r)| Triple::new(EntityId(h), RelationId(r), EntityId(9)))
            .collect();
        let groups = grouped_indices(&triples, |t| t.relation.0);
        assert_eq!(groups, vec![vec![1u32, 4], vec![3], vec![0, 2]]);
    }

    #[test]
    fn out_of_range_ids_are_clean_errors() {
        let model = PkgmModel::new(4, 2, PkgmConfig::new(8).with_seed(3));
        let bad_ent = [Triple::new(EntityId(9), RelationId(0), EntityId(1))];
        let bad_rel = [Triple::new(EntityId(0), RelationId(7), EntityId(1))];
        assert_eq!(
            fused_rank_tails(&model, &bad_ent, None),
            Err(EvalError::EntityOutOfRange {
                index: 0,
                id: 9,
                n_entities: 4
            })
        );
        assert_eq!(
            fused_rank_heads(&model, &bad_rel, None),
            Err(EvalError::RelationOutOfRange {
                index: 0,
                id: 7,
                n_relations: 2
            })
        );
        assert!(fused_rank_relations(&model, &bad_ent, None).is_err());
        assert!(reference_rank_tails(&model, &bad_ent, None).is_err());
        let msg = fused_rank_tails(&model, &bad_ent, None)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("entity 9"), "{msg}");
    }

    #[test]
    fn empty_test_set_is_fine() {
        let model = PkgmModel::new(3, 2, PkgmConfig::new(8).with_seed(4));
        assert_eq!(fused_rank_tails(&model, &[], None), Ok(vec![]));
        assert_eq!(fused_rank_heads(&model, &[], None), Ok(vec![]));
        assert_eq!(fused_rank_relations(&model, &[], None), Ok(vec![]));
        let qmodel = QuantEvalModel::build(&model);
        assert_eq!(quantized_rank_tails(&model, &qmodel, &[], None), Ok(vec![]));
        assert_eq!(quantized_rank_heads(&model, &qmodel, &[], None), Ok(vec![]));
        assert_eq!(
            quantized_rank_relations(&model, &qmodel, &[], None),
            Ok(vec![])
        );
    }

    /// The quantized two-phase kernels return exactly the fused ranks on a
    /// quick random model (the `quant_parity` suite does this at scale).
    #[test]
    fn quantized_ranks_match_fused_and_prune() {
        let mut rng = SmallRng::seed_from_u64(21);
        let model = PkgmModel::new(90, 4, PkgmConfig::new(16).with_seed(9));
        let qmodel = QuantEvalModel::build(&model);
        let test: Vec<Triple> = (0..24)
            .map(|_| {
                Triple::new(
                    EntityId(rng.gen_range(0..90)),
                    RelationId(rng.gen_range(0..4)),
                    EntityId(rng.gen_range(0..90)),
                )
            })
            .collect();
        let (qt, st) = quantized_rank_tails_with_stats(&model, &qmodel, &test, None).unwrap();
        assert_eq!(qt, fused_rank_tails(&model, &test, None).unwrap());
        assert!(st.candidates > 0);
        assert!(st.survivors <= st.candidates);
        assert!(st.scanned_bytes >= st.candidates * 16);
        let (qh, _) = quantized_rank_heads_with_stats(&model, &qmodel, &test, None).unwrap();
        assert_eq!(qh, fused_rank_heads(&model, &test, None).unwrap());
        let (qr, _) = quantized_rank_relations_with_stats(&model, &qmodel, &test, None).unwrap();
        assert_eq!(qr, fused_rank_relations(&model, &test, None).unwrap());
    }

    /// Quantized telemetry: on a trained-like random model most tail
    /// candidates should be prunable; at minimum the accounting holds up.
    #[test]
    fn prune_stats_accounting_is_consistent() {
        let mut s = PruneStats::default();
        assert_eq!(s.prune_rate(), 0.0);
        assert_eq!(s.bytes_per_candidate(), 0.0);
        s.merge(PruneStats {
            candidates: 100,
            survivors: 10,
            scanned_bytes: 100 * 64 + 10 * 256,
        });
        s.merge(PruneStats {
            candidates: 50,
            survivors: 5,
            scanned_bytes: 50 * 64 + 5 * 256,
        });
        assert_eq!(s.candidates, 150);
        assert_eq!(s.survivors, 15);
        assert!((s.prune_rate() - 0.9).abs() < 1e-12);
        assert!((s.bytes_per_candidate() - (64.0 + 25.6)).abs() < 1e-9);
    }

    #[test]
    fn quantized_kernels_validate_ids() {
        let model = PkgmModel::new(4, 2, PkgmConfig::new(8).with_seed(3));
        let qmodel = QuantEvalModel::build(&model);
        let bad = [Triple::new(EntityId(9), RelationId(0), EntityId(1))];
        assert!(quantized_rank_tails(&model, &qmodel, &bad, None).is_err());
        assert!(quantized_rank_heads(&model, &qmodel, &bad, None).is_err());
        assert!(quantized_rank_relations(&model, &qmodel, &bad, None).is_err());
    }
}
