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
//!   sorted-merge filtering. The quantized kernels
//!   ([`quantized_rank_tails`] …) are the same functions with an int8
//!   pruning phase in front of the exact scan.
//! * **Reference** ([`reference_rank_tails`] / [`reference_rank_heads`] /
//!   [`reference_rank_relations`]) — the contract twin: per-triple fresh
//!   compute, per-candidate `binary_search` filtering, no grouping, no
//!   early exit, but the *same* summation orders as the fused path. The
//!   parity suite asserts fused ≡ reference per-triple ranks **exactly**.
//!
//! ## Tails in lanes, heads and relations in runs
//!
//! Tail ranking takes [`simd::QUERY_LANES`] test triples at a time, one
//! query `S_T(h, r)` per lane of a register, and scans each tile of
//! candidates once for all of them: [`simd::lanes_beats`] counts, per
//! lane, the candidates that beat that lane's true score, or, in the
//! quantized kernels, [`simd::lanes_prune`] keeps the live (candidate,
//! lane) pairs phase 1 cannot rule out and only those are rescored
//! exactly. Filtering is a 16-bit lane mask per candidate: a triple's
//! known tails and its true tail clear its bit, one operation per id.
//!
//! Head and relation ranking split each tile of candidates, per test
//! triple, at the filtered ids and at the true id into maximal runs of
//! contiguous candidates, and each run is one dispatched call:
//! [`simd::run_beats`] (AVX2 decides four candidates per pass), or
//! [`simd::prune_run`] and an exact rescore of its survivors.
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
//! A head candidate's joint score needs its relation-module score
//! `‖M_r·h′ − r‖₁`, a `d × d` mat-vec — at d = 64, 64× the work of its
//! translation score. Paid per test triple that is O(|test|·|E|·d²).
//! Fused head ranking groups test triples by relation and computes each
//! candidate's score once per relation group, capped at the group's
//! *maximum* true score (past which no triple of the group can count the
//! candidate), and shares it across every test triple of the relation:
//! O(|R_test|·|E|·d²) + O(|test|·|E|·d). Each candidate tile is projected
//! against every group's matrix in one [`simd::project_run`] call, so a
//! tile is laid out once per call rather than once per group; relation
//! ranking makes the same call the other way round, a block of query heads
//! against every relation. The projection is most of a head query's cost:
//! the wide levels run the candidates in the lanes of a register, eight at
//! AVX2 and sixteen at AVX-512, and every (candidate, row) dot keeps
//! `kernel_dot`'s lane order and combine. Pruning on the
//! translation half first does not pay:
//! on a trained model most candidates' translation score alone stays
//! below the true head's joint score, so `f_R` has to be computed in full
//! for nearly all of them anyway (DESIGN.md §11).

use crate::kernels::kernel_dot;
use crate::model::PkgmModel;
use crate::quant::{LaneQueries, QuantScanTable, F32_EPS};
use crate::simd::{
    self, blocked_l1, blocked_l1_translation, translation_beats, LaneRow, LaneScan, Projection,
    RunScan, QUERY_LANES,
};
use pkgm_store::{EntityId, RelationId, Triple, TripleStore};
use rayon::prelude::*;

/// Entities per cache tile. At d = 64 a tile of candidate rows is
/// 256·64·4 B = 64 KiB — resident in L2 while every test triple of the
/// group scans it.
const CANDIDATE_TILE: u32 = 256;

/// Head groups per relation-ranking work unit: their query heads are the
/// candidates of one projection against every relation.
const HEAD_BLOCK: usize = 64;

/// Why a ranking call was refused.
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
    /// The [`QuantEvalModel`] was built from other entity or relation
    /// tables than the model's — trained further since, or another model
    /// altogether. Its pruning bounds would certify distances to rows that
    /// no longer exist, so ranks could be silently wrong; rebuild it with
    /// [`QuantEvalModel::build`].
    StaleQuantModel,
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
            EvalError::StaleQuantModel => write!(
                f,
                "the quantized tables were built from other entity/relation tables than the model's; rebuild them"
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

/// Relation-module score `‖M·hv − rv‖₁`: projection rows via
/// [`kernel_dot`], residual terms accumulated serially in index order —
/// the same arithmetic as the training kernels' cached-projection score,
/// and what [`simd::project_run`] computes per (matrix, candidate).
#[inline]
fn residual(m: &[f32], hv: &[f32], rv: &[f32]) -> f32 {
    let d = rv.len();
    let mut res = 0.0f32;
    for i in 0..d {
        res += (kernel_dot(&m[i * d..(i + 1) * d], hv) - rv[i]).abs();
    }
    res
}

/// Rows `[a, b)` of a row-major table of `d`-wide rows.
#[inline]
fn rows(table: &[f32], d: usize, a: u32, b: u32) -> &[f32] {
    &table[a as usize * d..b as usize * d]
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
    /// One tail query `S_T(h, r)` on its way into the lanes, or the
    /// translation queries of the quantized head/relation kernels
    /// (`g × d`, row-major).
    bases: Vec<f32>,
    /// Per-triple `better`-than-true counters.
    better: Vec<usize>,
    /// Per-triple advancing cursors into the sorted known-positive sets
    /// (the sorted-merge replacement for per-candidate `binary_search`).
    ptr: Vec<usize>,
    /// The relation-module scores of one [`simd::project_run`] call,
    /// `fr[i·n + c]` for matrix `i` and candidate `c`: the current tile
    /// against each relation group's matrix (head ranking, a group reads
    /// its row), or the block's query heads against every candidate
    /// relation (relation ranking, a group reads its column).
    fr: Vec<f32>,
    /// One head group's column of `fr`, contiguous for the run scans.
    fr_column: Vec<f32>,
    /// Quantized query vectors for the two-phase kernels (`g × d` i8,
    /// row-major — one quantized base per triple of the group; one row
    /// for tails).
    qbases: Vec<i8>,
    /// Per-triple certified query-side quantization errors.
    qerr: Vec<f32>,
    /// Phase-1 survivors of one triple's runs, awaiting the exact rescore.
    survivors: Vec<u32>,
    /// A tail chunk's queries, one per lane (`d` lane rows).
    lanes: Vec<LaneRow>,
    /// The same queries quantized, for the tails' phase 1.
    qlanes: LaneQueries,
    /// One tile's candidates with the lanes each is live in.
    cands: Vec<(u32, u16)>,
    /// The tails' phase-1 survivors, with the lanes they survive in.
    lane_survivors: Vec<(u32, u16)>,
    /// Candidate relations one relation-ranking triple filters out.
    blocked: Vec<RelationId>,
}

impl EvalScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero the `better` counters of `g` triples and start each filter
    /// cursor at the first known id `>= lo` — for `lo = 0` index 0,
    /// exactly the serial scan's start.
    fn start_cursors<K: Id>(&mut self, knowns: &[&[K]], lo: u32) {
        self.better.clear();
        self.better.resize(knowns.len(), 0);
        self.ptr.clear();
        self.ptr
            .extend(knowns.iter().map(|k| k.partition_point(|e| e.id() < lo)));
    }
}

/// A pool of idle [`EvalScratch`]es shared by rayon workers:
/// `with_scratch` pops an idle scratch (or builds one), runs the closure,
/// and returns it to the pool. Pool order affects nothing numerical.
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
// Grouping and runs
// ---------------------------------------------------------------------------

/// Test-triple indices stably sorted by `key` (ascending key, original
/// order within a key) — the evaluation analogue of the training kernels'
/// `relation_blocked_order_into`; [`key_runs`] yields its groups.
fn grouped_indices(test: &[Triple], key: impl Fn(&Triple) -> u32) -> Vec<u32> {
    let mut order: Vec<u32> = (0..test.len() as u32).collect();
    order.sort_by_key(|&i| key(&test[i as usize]));
    order
}

/// The groups of a [`grouped_indices`] order: its maximal runs of one key.
fn key_runs<'a>(
    test: &'a [Triple],
    order: &'a [u32],
    key: impl Fn(&Triple) -> u32 + 'a,
) -> impl Iterator<Item = &'a [u32]> + 'a {
    order.chunk_by(move |&a, &b| key(&test[a as usize]) == key(&test[b as usize]))
}

/// An id of a sorted known-positive list.
trait Id: Copy {
    fn id(self) -> u32;
}

impl Id for EntityId {
    fn id(self) -> u32 {
        self.0
    }
}

impl Id for RelationId {
    fn id(self) -> u32 {
        self.0
    }
}

/// Split the candidates `[lo, hi)` into maximal runs that hold neither the
/// true id `skip` nor an id of `known` (sorted ascending), and call
/// `scan(a, b)` on each non-empty run `[a, b)`. `cursor` indexes `known`
/// and only moves forward, so one cursor serves all consecutive tiles of
/// a triple: filtering costs one comparison per known id, not one per
/// candidate.
fn for_each_run<K: Id>(
    lo: u32,
    hi: u32,
    known: &[K],
    cursor: &mut usize,
    skip: u32,
    mut scan: impl FnMut(u32, u32),
) {
    let mut a = lo;
    while a < hi {
        while *cursor < known.len() && known[*cursor].id() < a {
            *cursor += 1;
        }
        let mut b = known.get(*cursor).map_or(hi, |k| k.id().min(hi));
        if (a..b).contains(&skip) {
            b = skip;
        }
        if a < b {
            scan(a, b);
        }
        a = b.saturating_add(1);
    }
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
/// The worker scans one chunk of [`QUERY_LANES`] triples against one candidate
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
    let chunks: Vec<&[Triple]> = test.chunks(QUERY_LANES).collect();
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
/// The worker scans one group of test indices (every head-ranking triple,
/// or one relation-ranking block of head groups) against one candidate
/// range, returning better counts aligned with the group's index order.
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
/// Triples are processed in chunks of [`QUERY_LANES`], one per lane, so the
/// entity table streams through cache once per chunk and every candidate
/// row is read once for the whole chunk; candidates are scanned in
/// ascending id order in [`CANDIDATE_TILE`]-sized tiles, with the known
/// tails and the true tail masked out per lane. Work fans out over
/// `chunks × candidate-slices` (one slice per rayon thread), so all cores
/// contribute even when `|test|` is small.
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
    Ok(sliced_tails(model, None, test, filter, n_slices).0)
}

/// Tail ranking over `chunks × candidate-slices`, pruned when `qmodel` is
/// given.
fn sliced_tails(
    model: &PkgmModel,
    qmodel: Option<&QuantEvalModel>,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> (Vec<usize>, PruneStats) {
    let n_entities = model.n_entities() as u32;
    sliced_chunk_ranks(test, n_entities, n_slices, |scratch, chunk, lo, hi| {
        tail_chunk_better(model, qmodel, chunk, filter, scratch, lo, hi)
    })
}

/// Per-triple `better` counts for one chunk over candidates `[lo, hi)`.
/// The chunk's queries go into the lanes once; per tile, each candidate is
/// live in every lane but those of the triples that filter it or have it
/// as the true tail, and the tile is one [`simd::lanes_beats`] call, or
/// with `qmodel` one [`simd::lanes_prune`] and a `lanes_beats` over its
/// survivors.
fn tail_chunk_better(
    model: &PkgmModel,
    qmodel: Option<&QuantEvalModel>,
    chunk: &[Triple],
    filter: Option<&TripleStore>,
    scratch: &mut EvalScratch,
    lo: u32,
    hi: u32,
) -> (Vec<usize>, PruneStats) {
    let d = model.dim();
    let knowns: Vec<&[EntityId]> = chunk
        .iter()
        .map(|t| filter.map_or(&[][..], |f| f.tails(t.head, t.relation)))
        .collect();
    scratch.start_cursors(&knowns, lo);
    let EvalScratch {
        bases,
        ptr,
        qbases,
        lanes,
        qlanes,
        cands,
        lane_survivors: survivors,
        ..
    } = scratch;
    bases.resize(d, 0.0);
    qbases.resize(d, 0);
    lanes.clear();
    lanes.resize(d, LaneRow::default());
    qlanes.reset(d);
    let mut bounds = [0.0f32; QUERY_LANES];
    for (s, &t) in chunk.iter().enumerate() {
        model.service_t_into(t.head, t.relation, bases);
        bounds[s] = blocked_l1(bases, model.ent(t.tail));
        for (lane, &x) in lanes.iter_mut().zip(bases.iter()) {
            lane.0[s] = x;
        }
        if let Some(qm) = qmodel {
            // Phase 2 rescores against this very base vector, so the query
            // carries no formation error — only its own quantization error.
            let qerr = qm.ent.quantize_query(bases, qbases, 0.0);
            qlanes.set_lane(s, qbases, qerr, bounds[s]);
        }
    }
    let every_lane = ((1u32 << chunk.len()) - 1) as u16;
    let mut counts = [0usize; QUERY_LANES];
    let mut stats = PruneStats::default();

    let mut tile_start = lo;
    while tile_start < hi {
        let tile_end = (tile_start + CANDIDATE_TILE).min(hi);
        cands.clear();
        cands.extend((tile_start..tile_end).map(|c| (c, every_lane)));
        for (s, t) in chunk.iter().enumerate() {
            let mut clear = |c: u32| cands[(c - tile_start) as usize].1 &= !(1 << s);
            if (tile_start..tile_end).contains(&t.tail.0) {
                clear(t.tail.0);
            }
            let known = knowns[s];
            while let Some(k) = known.get(ptr[s]).filter(|k| k.0 < tile_end) {
                clear(k.0);
                ptr[s] += 1;
            }
        }
        let scan = |cands| LaneScan {
            x: lanes,
            bounds: &bounds,
            table: &model.ent,
            cands,
        };
        match qmodel {
            None => simd::lanes_beats(scan(cands), &mut counts),
            Some(qm) => {
                // Phase 1: a candidate whose certified lower bound already
                // reaches a lane's true score can never count in that lane.
                survivors.clear();
                stats.candidates += simd::lanes_prune(qm.ent.lanes(qlanes, cands), survivors);
                stats.survivors += survivors
                    .iter()
                    .map(|&(_, live)| u64::from(live.count_ones()))
                    .sum::<u64>();
                // Phase 2: the exact fused decision, bit-identical.
                simd::lanes_beats(scan(survivors), &mut counts);
            }
        }
        tile_start = tile_end;
    }
    (counts[..chunk.len()].to_vec(), stats.with_scanned_bytes(d))
}

/// Fused head ranking under the joint score `f_T + f_R`, bit-identical to
/// [`reference_rank_heads`].
///
/// Test triples are grouped by relation. Each candidate tile is projected
/// once, in one [`simd::project_run`] call against the matrices of every
/// test relation (each capped at its group's maximum true score), and each
/// group's row of that `f_R` table is shared across all its test triples —
/// O(|R_test|·|E|·d²) + O(|test|·|E|·d) instead of O(|test|·|E|·d²).
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
    Ok(sliced_heads(model, None, test, filter, n_slices).0)
}

/// What the work units of one head- or relation-ranking call share.
struct GroupCall<'a> {
    model: &'a PkgmModel,
    qmodel: Option<&'a QuantEvalModel>,
    test: &'a [Triple],
    filter: Option<&'a TripleStore>,
    /// Every test triple's true joint score, by test index.
    true_scores: Vec<f32>,
}

impl<'a> GroupCall<'a> {
    fn new(
        model: &'a PkgmModel,
        qmodel: Option<&'a QuantEvalModel>,
        test: &'a [Triple],
        filter: Option<&'a TripleStore>,
    ) -> Self {
        let true_scores = test
            .par_iter()
            .map(|t| kernel_joint_score(model, t.head, t.relation, t.tail))
            .collect();
        Self {
            model,
            qmodel,
            test,
            filter,
            true_scores,
        }
    }
}

/// Head ranking over candidate slices, pruned when `qmodel` is given.
///
/// One work unit is one candidate range holding every test triple, in
/// relation-group order; the groups' matrices, relation rows and caps are
/// laid out contiguously once per call, so every tile is one projection.
fn sliced_heads(
    model: &PkgmModel,
    qmodel: Option<&QuantEvalModel>,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> (Vec<usize>, PruneStats) {
    let order = grouped_indices(test, |t| t.relation.0);
    let call = GroupCall::new(model, qmodel, test, filter);
    let (mut ms, mut rs, mut caps) = (Vec::new(), Vec::new(), Vec::new());
    if model.cfg.relation_module {
        for group in key_runs(test, &order, |t| t.relation.0) {
            let r = test[group[0] as usize].relation;
            ms.extend_from_slice(model.mat(r));
            rs.extend_from_slice(model.rel(r));
            // The group's largest true score; `f32::max` ignores NaN, and a
            // NaN-only group caps every candidate at `-∞`, as it should.
            let scores = group.iter().map(|&ti| call.true_scores[ti as usize]);
            caps.push(scores.fold(f32::NEG_INFINITY, f32::max));
        }
    }
    let mats = Projection {
        ms: &ms,
        rs: &rs,
        caps: &caps,
        hs: &[],
    };
    sliced_group_ranks(
        test.len(),
        &[order],
        model.n_entities() as u32,
        n_slices,
        |scratch, order, lo, hi| call.head_range_better(order, mats, scratch, lo, hi),
    )
}

impl GroupCall<'_> {
    /// Per-triple `better` counts, aligned with `order` (test indices grouped
    /// by relation), over candidates `[lo, hi)`. Each tile's `f_R` table comes
    /// from one projection against `mats` (one matrix per group, no
    /// candidates); each run then goes through [`simd::run_beats`] or, with
    /// `qmodel`, [`simd::prune_run`] and an exact rescore of the survivors.
    fn head_range_better(
        &self,
        order: &[u32],
        mats: Projection<'_>,
        scratch: &mut EvalScratch,
        lo: u32,
        hi: u32,
    ) -> (Vec<usize>, PruneStats) {
        let (model, qmodel, test, filter) = (self.model, self.qmodel, self.test, self.filter);
        let d = model.dim();
        let knowns: Vec<&[EntityId]> = order
            .iter()
            .map(|&ti| {
                let t = test[ti as usize];
                filter.map_or(&[][..], |f| f.heads(t.relation, t.tail))
            })
            .collect();
        scratch.start_cursors(&knowns, lo);
        let EvalScratch {
            bases,
            better,
            ptr,
            fr,
            qbases,
            qerr,
            survivors,
            ..
        } = scratch;

        bases.resize(order.len() * d, 0.0);
        qbases.resize(order.len() * d, 0);
        qerr.clear();
        if let Some(qm) = qmodel {
            for (s, &ti) in order.iter().enumerate() {
                // Phase 1 bounds the translation part as the distance to the
                // query `x = fl(t − r)`.
                let t = test[ti as usize];
                let (x, q) = (
                    &mut bases[s * d..(s + 1) * d],
                    &mut qbases[s * d..(s + 1) * d],
                );
                let (t_row, rv) = (model.ent(t.tail), model.rel(t.relation));
                qerr.push(quantize_translation_query(&qm.ent, t_row, rv, x, q));
            }
        }
        let groups: Vec<&[u32]> = key_runs(test, order, |t| t.relation.0).collect();
        // The tile's f_R table, one row per group; zero without the relation
        // module, where the joint score is the translation score alone.
        fr.clear();
        fr.resize(groups.len() * CANDIDATE_TILE as usize, 0.0);
        let mut stats = PruneStats::default();

        let mut tile_start = lo;
        while tile_start < hi {
            let tile_end = (tile_start + CANDIDATE_TILE).min(hi);
            let n = (tile_end - tile_start) as usize;
            if model.cfg.relation_module {
                let hs = rows(&model.ent, d, tile_start, tile_end);
                simd::project_run(Projection { hs, ..mats }, &mut fr[..groups.len() * n]);
            }
            let mut s = 0usize;
            for (gi, group) in groups.iter().enumerate() {
                let group_fr = &fr[gi * n..(gi + 1) * n];
                for &ti in group.iter() {
                    let t = test[ti as usize];
                    let ends = (model.rel(t.relation), model.ent(t.tail));
                    let quant = qmodel.map(|qm| (&qm.ent, &qbases[s * d..(s + 1) * d], qerr[s]));
                    better[s] += joint_better(
                        &model.ent,
                        ends,
                        (group_fr, tile_start),
                        self.true_scores[ti as usize],
                        quant,
                        (survivors, &mut stats),
                        |scan| {
                            for_each_run(
                                tile_start,
                                tile_end,
                                knowns[s],
                                &mut ptr[s],
                                t.head.0,
                                scan,
                            )
                        },
                    );
                    s += 1;
                }
            }
            tile_start = tile_end;
        }
        (better.clone(), stats.with_scanned_bytes(d))
    }
}

/// How many candidates `c` of `runs` beat `bound` under the joint score
/// `‖c + a − b‖₁ + f_R(c)` — one triple's decision in head ranking
/// (`a = r`, `b = t`) and relation ranking (`a = h`; `r′ + h` is the IEEE
/// sum `h + r′`). `table` holds the candidate rows and `fr[c − fr_lo]` their
/// `f_R`. Fused, each run is one [`simd::run_beats`]; with `quant` (scan
/// table, quantized query, its error) each run goes through
/// [`simd::prune_run`] and only the survivors are rescored exactly.
fn joint_better(
    table: &[f32],
    (a, b): (&[f32], &[f32]),
    (fr, fr_lo): (&[f32], u32),
    bound: f32,
    quant: Option<(&QuantScanTable, &[i8], f32)>,
    (survivors, stats): (&mut Vec<u32>, &mut PruneStats),
    runs: impl FnOnce(&mut dyn FnMut(u32, u32)),
) -> usize {
    let d = a.len();
    let extra = |x: u32, y: u32| &fr[(x - fr_lo) as usize..(y - fr_lo) as usize];
    let Some((scan_table, qbase, qerr)) = quant else {
        let mut better = 0;
        runs(&mut |x, y| {
            let scan = RunScan {
                a,
                b,
                extra: extra(x, y),
                rows: rows(table, d, x, y),
            };
            better += simd::run_beats(scan, bound);
        });
        return better;
    };
    // Phase 1 on the joint score: the translation part alone must close
    // the gap the relation module leaves open, so each candidate is pruned
    // against `bound − f_R` (the rearranged rounding sits inside the scan
    // table's SUM_SHAVE).
    survivors.clear();
    runs(&mut |x, y| {
        let run = scan_table.run(qbase, qerr, bound, x..y, Some(extra(x, y)));
        stats.candidates += simd::prune_run(run, survivors);
    });
    stats.survivors += survivors.len() as u64;
    survivors
        .iter()
        .filter(|&&c| {
            let f_r = fr[(c - fr_lo) as usize];
            translation_beats(rows(table, d, c, c + 1), a, b, f_r, bound)
        })
        .count()
}

/// Fused relation ranking under the joint score, bit-identical to
/// [`reference_rank_relations`].
///
/// Test triples are grouped by head. The heads of a block of groups are
/// projected against every candidate relation in one
/// [`simd::project_run`] call, and each group reads its column of that
/// `f_R` table for all its triples. A candidate is filtered only when the
/// head has it in the store *and* its tail set holds the triple's tail.
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
/// to one range and parallelism comes from the head blocks alone.)
pub fn fused_rank_relations_sliced(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> Result<Vec<usize>, EvalError> {
    validate(model, test)?;
    Ok(sliced_relations(model, None, test, filter, n_slices).0)
}

/// Relation ranking over `head blocks × candidate-slices`, pruned when
/// `qmodel` is given.
///
/// Every matrix is capped at the call's largest true score, looser than a
/// head group's own maximum but equivalent: a residual at or past the
/// group's cap already loses to every triple of the group (the translation
/// part is ≥ 0), and as `extra ≥ bound` it is skipped uncounted by the
/// quantized scan either way.
fn sliced_relations(
    model: &PkgmModel,
    qmodel: Option<&QuantEvalModel>,
    test: &[Triple],
    filter: Option<&TripleStore>,
    n_slices: usize,
) -> (Vec<usize>, PruneStats) {
    let order = grouped_indices(test, |t| t.head.0);
    let groups: Vec<&[u32]> = key_runs(test, &order, |t| t.head.0).collect();
    let blocks: Vec<Vec<u32>> = groups.chunks(HEAD_BLOCK).map(<[_]>::concat).collect();
    let call = GroupCall::new(model, qmodel, test, filter);
    let cap = call
        .true_scores
        .iter()
        .fold(f32::NEG_INFINITY, |m, &s| m.max(s));
    let caps = vec![cap; model.n_relations()];
    sliced_group_ranks(
        test.len(),
        &blocks,
        model.n_relations() as u32,
        n_slices,
        |scratch, order, lo, hi| call.relation_block_better(order, &caps, scratch, lo, hi),
    )
}

impl GroupCall<'_> {
    /// Per-triple `better` counts, aligned with `order` (a block of test
    /// indices grouped by head), over candidate relations `[lo, hi)`: one
    /// projection of the block's heads against those relations, then each run
    /// through [`simd::run_beats`] or, with `qmodel`, [`simd::prune_run`] and
    /// an exact rescore of the survivors.
    fn relation_block_better(
        &self,
        order: &[u32],
        caps: &[f32],
        scratch: &mut EvalScratch,
        lo: u32,
        hi: u32,
    ) -> (Vec<usize>, PruneStats) {
        let (model, qmodel, test, filter) = (self.model, self.qmodel, self.test, self.filter);
        let d = model.dim();
        let EvalScratch {
            bases,
            fr,
            fr_column,
            qbases,
            survivors,
            blocked,
            ..
        } = scratch;

        let groups: Vec<&[u32]> = key_runs(test, order, |t| t.head.0).collect();
        let (k, n) = ((hi - lo) as usize, groups.len());
        fr.clear();
        fr.resize(k * n, 0.0);
        if model.cfg.relation_module {
            bases.clear();
            for group in &groups {
                bases.extend_from_slice(model.ent(test[group[0] as usize].head));
            }
            let dd = d * d;
            let p = Projection {
                ms: &model.mats[lo as usize * dd..hi as usize * dd],
                rs: rows(&model.rel, d, lo, hi),
                caps: &caps[lo as usize..hi as usize],
                hs: bases,
            };
            simd::project_run(p, fr);
        }
        let mut x = vec![0.0f32; d];
        qbases.clear();
        qbases.resize(d, 0);
        let mut stats = PruneStats::default();

        let mut out = Vec::with_capacity(order.len());
        for (c, group) in groups.iter().enumerate() {
            let h = test[group[0] as usize].head;
            let h_row = model.ent(h);
            fr_column.clear();
            fr_column.extend((0..k).map(|r| fr[r * n + c]));
            let known_rels: &[RelationId] = filter.map_or(&[][..], |f| f.relations_of(h));
            let known_rels = &known_rels[known_rels.partition_point(|e| e.0 < lo)..];
            for &ti in group.iter() {
                let t = test[ti as usize];
                let t_row = model.ent(t.tail);
                blocked.clear();
                if let Some(f) = filter {
                    blocked.extend(
                        known_rels
                            .iter()
                            .take_while(|c| c.0 < hi)
                            .filter(|&&c| f.tails(h, c).binary_search(&t.tail).is_ok()),
                    );
                }
                // Candidate relations r′ score `fl(fl(r′ + h) − t)`, bounded
                // below via the query `x = fl(t − h)` against the relation
                // scan table.
                let qerr = qmodel
                    .map(|qm| quantize_translation_query(&qm.rel, t_row, h_row, &mut x, qbases));
                let quant = qmodel
                    .zip(qerr)
                    .map(|(qm, qerr)| (&qm.rel, &qbases[..], qerr));
                out.push(joint_better(
                    &model.rel,
                    (h_row, t_row),
                    (fr_column, lo),
                    self.true_scores[ti as usize],
                    quant,
                    (survivors, &mut stats),
                    |scan| for_each_run(lo, hi, blocked, &mut 0, t.relation.0, scan),
                ));
            }
        }
        (out, stats.with_scanned_bytes(d))
    }
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

    /// Set `scanned_bytes` from the counts at dimension `d`.
    fn with_scanned_bytes(mut self, d: usize) -> Self {
        self.scanned_bytes = self.candidates * d as u64 + self.survivors * 4 * d as u64;
        self
    }
}

/// The int8 companion of a [`PkgmModel`]: entity and relation tables
/// quantized with table-wide per-block scales ([`QuantScanTable`]) for the
/// phase-1 pruning scans. Build once, share across evaluations — the
/// tables are immutable snapshots of the model at build time, and every
/// quantized ranking call checks that the model still has those tables.
#[derive(Debug, Clone)]
pub struct QuantEvalModel {
    ent: QuantScanTable,
    rel: QuantScanTable,
    /// [`tables_crc`] of the model the tables were built from.
    tables_crc: u32,
}

/// CRC32 of a model's entity then relation table bytes — what the
/// quantized tables were built from.
fn tables_crc(model: &PkgmModel) -> u32 {
    use crate::artifact::crc32_update;
    use crate::le::as_bytes;
    !crc32_update(
        crc32_update(!0, &as_bytes(&model.ent)),
        &as_bytes(&model.rel),
    )
}

impl QuantEvalModel {
    /// Quantize `model`'s entity and relation tables.
    pub fn build(model: &PkgmModel) -> Self {
        let d = model.dim();
        Self {
            ent: QuantScanTable::from_rows(&model.ent, d),
            rel: QuantScanTable::from_rows(&model.rel, d),
            tables_crc: tables_crc(model),
        }
    }

    /// Bytes held by the quantized tables (the resident footprint of the
    /// phase-1 scan, vs `4·d` per row for the f32 tables).
    pub fn table_bytes(&self) -> usize {
        self.ent.storage_bytes() + self.rel.storage_bytes()
    }

    /// Check the tables were built from `model`'s current entity and
    /// relation tables: same shapes and same bytes (one dispatched CRC32
    /// pass over both, ≈ 25 GB/s on a `pclmulqdq` host).
    fn check(&self, model: &PkgmModel) -> Result<(), EvalError> {
        let same_shape = self.ent.row_len() == model.dim()
            && self.ent.n_rows() == model.n_entities()
            && self.rel.n_rows() == model.n_relations();
        if same_shape && self.tables_crc == tables_crc(model) {
            Ok(())
        } else {
            Err(EvalError::StaleQuantModel)
        }
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

/// Form the translation query `x = fl(a − b)` (heads: `t − r`; relations:
/// `t − h`), quantize it into `q` against `table`, and return its
/// certified error including the formation slack of
/// [`translation_query_err`].
fn quantize_translation_query(
    table: &QuantScanTable,
    a: &[f32],
    b: &[f32],
    x: &mut [f32],
    q: &mut [i8],
) -> f32 {
    for ((x, &ai), &bi) in x.iter_mut().zip(a).zip(b) {
        *x = ai - bi;
    }
    table.quantize_query(x, q, translation_query_err(a, b))
}

/// Quantized two-phase tail ranking with pruning telemetry: ranks are
/// bit-identical to [`fused_rank_tails`] / [`reference_rank_tails`] (the
/// `quant_parity` suite enforces this), but most candidates are rejected
/// by a certified int8 lower bound before their f32 row is ever touched.
///
/// Returns [`EvalError::StaleQuantModel`] if `qmodel` was not built from
/// `model`'s current tables.
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
    qmodel.check(model)?;
    Ok(sliced_tails(model, Some(qmodel), test, filter, n_slices))
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

/// Quantized two-phase head ranking, bit-identical to
/// [`fused_rank_heads`] / [`reference_rank_heads`].
///
/// The relation-module part (`f_R` via [`simd::project_run`]) still reads
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
    qmodel.check(model)?;
    Ok(sliced_heads(model, Some(qmodel), test, filter, n_slices))
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
    qmodel.check(model)?;
    Ok(sliced_relations(
        model,
        Some(qmodel),
        test,
        filter,
        n_slices,
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
    use crate::simd::l1_beats;
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

    /// Runs cover exactly the candidates that are neither known nor the
    /// true id, and a cursor carried across tiles ends up where a fresh
    /// one would.
    #[test]
    fn runs_split_at_known_ids_and_the_true_id() {
        let known: Vec<EntityId> = [2u32, 3, 3, 7, 11, 20].map(EntityId).to_vec();
        let collect = |lo, hi, cursor: &mut usize, skip| {
            let mut runs = Vec::new();
            for_each_run(lo, hi, &known, cursor, skip, |a, b| runs.push((a, b)));
            runs
        };
        let mut cursor = 0;
        assert_eq!(
            collect(0, 10, &mut cursor, 5),
            vec![(0, 2), (4, 5), (6, 7), (8, 10)]
        );
        assert_eq!(collect(10, 12, &mut cursor, 99), vec![(10, 11)]);
        assert_eq!(collect(12, 22, &mut cursor, 21), vec![(12, 20)]);
        assert_eq!(collect(0, 2, &mut 0, 0), vec![(1, 2)]);
        assert_eq!(collect(3, 3, &mut 0, 3), vec![]);
        for lo in 0..22 {
            let mut carried = 0;
            collect(0, lo, &mut carried, 99);
            let mut fresh = known.partition_point(|e| e.0 < lo);
            assert_eq!(
                collect(lo, 22, &mut carried, 99),
                collect(lo, 22, &mut fresh, 99)
            );
        }
    }

    #[test]
    fn grouped_indices_is_stable_and_complete() {
        let triples: Vec<Triple> = [(0u32, 2u32), (1, 0), (2, 2), (3, 1), (4, 0)]
            .iter()
            .map(|&(h, r)| Triple::new(EntityId(h), RelationId(r), EntityId(9)))
            .collect();
        let order = grouped_indices(&triples, |t| t.relation.0);
        let groups: Vec<&[u32]> = key_runs(&triples, &order, |t| t.relation.0).collect();
        assert_eq!(groups, vec![&[1u32, 4][..], &[3], &[0, 2]]);
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
