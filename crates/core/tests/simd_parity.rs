//! Parity suite for the runtime-dispatched SIMD kernels.
//!
//! The contract: every primitive in the detected dispatch table
//! (AVX-512/AVX2 on hosts that have them, scalar elsewhere)
//! computes the **bit-identical** function of its inputs as the portable
//! scalar twin — same lane order, same fixed combine, same early-exit
//! cadence. Covered deliberately:
//!
//! * dims that are not multiples of the lane width (1, 7, 9, 15, 17, 31,
//!   33, 63, 65, 100 …) so the SIMD tails and the scalar remainders agree;
//! * subnormal inputs (the AVX2 sign-bit-mask abs and subnormal adds must
//!   match scalar `f32::abs` and scalar adds exactly);
//! * the early-exit comparators across a dense sweep of bounds, including
//!   bounds bit-equal to the exact distance (the `<` vs `>=` knife edge)
//!   and bounds that trigger abandonment at every `EXIT_STRIDE` check;
//! * the i8 SAD at extreme values (`i8::MIN`/`i8::MAX`, |diff| = 255)
//!   across lengths straddling the 32- and 16-byte SIMD steps;
//! * rayon-sliced `rank_*` fan-out vs the serial reference for slice
//!   counts 1, 2, 3, 7 and 16 — candidate-range decomposition must be
//!   invisible in the ranks;
//! * the CRC32 kernels — carry-less-multiply folding, the slice-by-8
//!   scalar twin and the table-driven bytewise loop — against the
//!   bit-at-a-time definition, at every length 0..=1024 × 16 start
//!   alignments (every combination of 64-byte steps, 16-byte blocks and
//!   tail), on 1 MiB buffers, and chained across every split point; plus
//!   the fold multipliers re-derived in the unreflected domain.
//!
//! When the suite itself runs under `PKGM_FORCE_SCALAR=1` (the CI matrix
//! leg), `detected()` still names the host's best table — the comparison
//! is always SIMD-vs-scalar wherever the host has SIMD at all.

use pkgm_core::artifact;
use pkgm_core::eval_kernels::{
    fused_rank_heads_sliced, fused_rank_relations_sliced, fused_rank_tails_sliced,
    quantized_rank_heads_with_stats_sliced, quantized_rank_relations_with_stats_sliced,
    quantized_rank_tails_with_stats_sliced, reference_rank_heads, reference_rank_relations,
    reference_rank_tails, QuantEvalModel,
};
use pkgm_core::quant::LaneQueries;
use pkgm_core::simd::{
    self, scalar, LaneRow, LaneScan, Projection, RunScan, SimdDispatch, SimdLevel, QUERY_LANES,
};
use pkgm_core::{PkgmConfig, PkgmModel, QuantScanTable};
use pkgm_store::{EntityId, RelationId, StoreBuilder, Triple, TripleStore};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Lengths straddling every lane boundary: scalar-only, one-chunk,
/// multi-chunk, and the 32-byte SAD step.
const DIMS: &[usize] = &[
    0, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64, 65, 100, 128, 129,
];

/// A random f32 vector mixing normal magnitudes, zeros, and (when asked)
/// subnormals — subnormal |x| keeps every L1 partial sum subnormal-ranged,
/// the hardest case for "SIMD add ≡ scalar add" bit-parity.
fn random_vec(rng: &mut SmallRng, n: usize, subnormal: bool) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if subnormal {
                // Positive/negative subnormals: magnitude < 2^-126.
                let bits = rng.gen_range(1u32..0x0080_0000);
                let sign = if rng.gen_bool(0.5) { 0x8000_0000 } else { 0 };
                f32::from_bits(bits | sign)
            } else if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect()
}

fn random_i8(rng: &mut SmallRng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                [i8::MIN, i8::MAX, 0, -1, 1][rng.gen_range(0..5usize)]
            } else {
                rng.gen_range(i8::MIN..=i8::MAX)
            }
        })
        .collect()
}

/// Assert every primitive of `simd` matches the scalar twins bitwise on
/// one input set (the slices may differ in length: every primitive reads
/// their common length).
fn assert_primitives_match(
    simd: &SimdDispatch,
    a: &[f32],
    b: &[f32],
    c: &[f32],
) -> Result<(), TestCaseError> {
    prop_assert!(
        (simd.kernel_dot)(a, b).to_bits() == scalar::kernel_dot(a, b).to_bits(),
        "kernel_dot diverged at d={}",
        a.len()
    );
    prop_assert!(
        (simd.blocked_l1)(a, b).to_bits() == scalar::blocked_l1(a, b).to_bits(),
        "blocked_l1 diverged at d={}",
        a.len()
    );
    prop_assert!(
        (simd.blocked_l1_translation)(a, b, c).to_bits()
            == scalar::blocked_l1_translation(a, b, c).to_bits(),
        "blocked_l1_translation diverged at d={}",
        a.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Detected-table f32 primitives ≡ scalar twins, bit for bit, across
    /// lane-boundary dims and subnormal inputs, and on slices of unequal
    /// length.
    #[test]
    fn f32_primitives_match_scalar_bitwise(
        seed in 0u64..1_000_000,
        subnormal_q in 0u32..2,
    ) {
        let subnormal = subnormal_q == 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        for &d in DIMS {
            let a = random_vec(&mut rng, d, subnormal);
            let b = random_vec(&mut rng, d, subnormal);
            let c = random_vec(&mut rng, d, subnormal);
            for simd in SimdDispatch::all_supported() {
                assert_primitives_match(simd, &a, &b, &c)?;
                assert_primitives_match(simd, &a, &b[..d * 3 / 4], &c[..d / 2])?;
            }
        }
    }

    /// Early-exit comparators take identical decisions across a dense
    /// bound sweep — including the bit-equal knife edge and bounds that
    /// abandon at each EXIT_STRIDE checkpoint — on equal slices and on
    /// slices of unequal length.
    #[test]
    fn beats_decisions_match_scalar(
        seed in 0u64..1_000_000,
        extra in 0.0f32..2.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEA7);
        for (&d, ragged) in DIMS.iter().flat_map(|d| [(d, false), (d, true)]) {
            let a = random_vec(&mut rng, d, false);
            let b = random_vec(&mut rng, if ragged { d * 3 / 4 } else { d }, false);
            let c = random_vec(&mut rng, if ragged { d / 2 } else { d }, false);
            let exact_l1 = scalar::blocked_l1(&a, &b) + extra;
            let exact_tr = scalar::blocked_l1_translation(&a, &b, &c) + extra;
            // Fractions 0..=1.3 of the exact value hit every abandonment
            // depth; the exact value itself is the `<` vs `>=` edge.
            let mut bounds = vec![exact_l1, exact_tr, f32::INFINITY, 0.0];
            for k in 0..14 {
                bounds.push(exact_l1 * (k as f32 * 0.1));
                bounds.push(exact_tr * (k as f32 * 0.1));
            }
            for simd in SimdDispatch::all_supported() {
                for &bound in &bounds {
                    prop_assert!(
                        (simd.l1_beats)(&a, &b, extra, bound)
                            == scalar::l1_beats(&a, &b, extra, bound),
                        "{} l1_beats diverged at d={} bound={}", simd.level.name(), d, bound
                    );
                    prop_assert!(
                        (simd.translation_beats)(&a, &b, &c, extra, bound)
                            == scalar::translation_beats(&a, &b, &c, extra, bound),
                        "{} translation_beats diverged at d={} bound={}",
                        simd.level.name(), d, bound
                    );
                }
            }
        }
    }

    /// The i8 SAD is exactly the scalar sum at every length and at the
    /// extremes (XOR-bias correctness: |i8::MIN − i8::MAX| = 255).
    #[test]
    fn sad_i8_matches_scalar(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5AD);
        for &d in DIMS {
            let a = random_i8(&mut rng, d);
            let b = random_i8(&mut rng, d);
            for simd in SimdDispatch::all_supported() {
                prop_assert!(
                    (simd.sad_i8)(&a, &b) == scalar::sad_i8(&a, &b),
                    "{} sad_i8 diverged at d={}", simd.level.name(), d
                );
            }
        }
        // All-extreme vectors: maximal per-byte differences.
        let lo = vec![i8::MIN; 100];
        let hi = vec![i8::MAX; 100];
        for simd in SimdDispatch::all_supported() {
            prop_assert_eq!((simd.sad_i8)(&lo, &hi), 255 * 100);
        }
    }
}

// ---------------------------------------------------------------------------
// Run entries ≡ the loop over their per-candidate scalar twins
// ---------------------------------------------------------------------------

/// Run lengths: empty, every length around the four-candidate step, and
/// one whole candidate tile.
const RUN_LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 256];

/// Bounds probing a run whose candidates score `exact`: ties with a few
/// candidates (the `<` vs `>=` edge), fractions of them that abandon at
/// every exit check, and the non-finite and zero bounds.
fn run_bounds(exact: &[f32]) -> Vec<f32> {
    let mut bounds = vec![f32::INFINITY, f32::NAN, 0.0, -0.0, f32::NEG_INFINITY];
    let n = exact.len();
    for k in [0, n / 2, n.saturating_sub(1)] {
        if let Some(&e) = exact.get(k) {
            bounds.extend([e, e * 0.25, e * 0.5, e * 0.9, e * 1.1]);
        }
    }
    bounds
}

/// Per-candidate addends: mostly ordinary relation-module scores, plus
/// zeros, values at or past any bound (`+∞` is the capped sentinel) and
/// NaN.
fn random_extras(rng: &mut SmallRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => 0.0,
            1 => f32::INFINITY,
            2 => 1e4,
            3 => f32::NAN,
            _ => rng.gen_range(0.0f32..3.0),
        })
        .collect()
}

/// `run_beats` at every level ≡ the loop over `scalar::translation_beats`
/// (heads: `c + r − t`; relations: the twin's `h + c − t`, the same IEEE
/// sums) for one run of `n` rows.
fn check_run_beats(
    rng: &mut SmallRng,
    d: usize,
    n: usize,
    subnormal: bool,
) -> Result<(), TestCaseError> {
    let (a, b) = (random_vec(rng, d, subnormal), random_vec(rng, d, subnormal));
    let rows = random_vec(rng, n * d, subnormal);
    let extra = random_extras(rng, n);
    let row = |i: usize| &rows[i * d..(i + 1) * d];
    let tr: Vec<f32> = (0..n)
        .map(|i| scalar::blocked_l1_translation(row(i), &a, &b) + extra[i])
        .collect();
    for bound in run_bounds(&tr) {
        let want_heads = (0..n)
            .filter(|&i| scalar::translation_beats(row(i), &a, &b, extra[i], bound))
            .count();
        let want_relations = (0..n)
            .filter(|&i| scalar::translation_beats(&a, row(i), &b, extra[i], bound))
            .count();
        prop_assert!(want_heads == want_relations, "c + h ≠ h + c at d={}", d);
        for simd in SimdDispatch::all_supported() {
            let tr = RunScan {
                a: &a,
                b: &b,
                extra: &extra,
                rows: &rows,
            };
            prop_assert!(
                (simd.run_beats)(tr, bound) == want_heads,
                "{} translation run diverged at d={} n={} bound={}",
                simd.level.name(),
                d,
                n,
                bound
            );
        }
    }
    Ok(())
}

/// The relation-module residual by definition: `Σ |kernel_dot(M_i, h) −
/// r_i|` in row order, `+∞` once a partial sum reaches `cap`.
fn capped_residual(m: &[f32], h: &[f32], r: &[f32], cap: f32) -> f32 {
    let d = r.len();
    let mut res = 0.0f32;
    for i in 0..d {
        res += (scalar::kernel_dot(&m[i * d..(i + 1) * d], h) - r[i]).abs();
        if res >= cap {
            return f32::INFINITY;
        }
    }
    res
}

/// `project_run` at every level ≡ [`capped_residual`] bitwise for one
/// shape: `caps.len()` matrices (`ms`, `rs`) against `n` candidates `hs`,
/// matrix `i` capped at `caps[i]`.
fn check_projection_shape(
    form: &str,
    d: usize,
    n: usize,
    (ms, rs, hs): (&[f32], &[f32], &[f32]),
    caps: &[f32],
) -> Result<(), TestCaseError> {
    let k = caps.len();
    let (ms, rs) = (&ms[..k * d * d], &rs[..k * d]);
    let want: Vec<f32> = (0..k * n)
        .map(|o| {
            let (i, c) = (o / n, o % n);
            let m = &ms[i * d * d..(i + 1) * d * d];
            capped_residual(m, &hs[c * d..(c + 1) * d], &rs[i * d..(i + 1) * d], caps[i])
        })
        .collect();
    for simd in SimdDispatch::all_supported() {
        let mut out = vec![-1.0f32; k * n];
        (simd.project_run)(Projection { ms, rs, caps, hs }, &mut out);
        for (o, (got, want)) in out.iter().zip(&want).enumerate() {
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "{} {} diverged at d={} k={} n={} matrix {} candidate {} cap={}: {} vs {}",
                simd.level.name(),
                form,
                d,
                k,
                n,
                o / n,
                o % n,
                caps[o / n],
                got,
                want
            );
        }
    }
    Ok(())
}

/// `project_run` at every level ≡ [`capped_residual`] bitwise, in three
/// shapes: one matrix against `n` candidates (what head ranking once ran
/// per relation), `n` matrices against one candidate (what relation
/// ranking once ran per head), and three matrices against `n` candidates
/// with distinct per-matrix caps. Caps tie, exit at every row depth, or
/// never fire.
fn check_projection(
    rng: &mut SmallRng,
    d: usize,
    n: usize,
    subnormal: bool,
) -> Result<(), TestCaseError> {
    const K: usize = 3;
    let (ms, rs) = (
        random_vec(rng, n.max(K) * d * d, subnormal),
        random_vec(rng, n.max(K) * d, subnormal),
    );
    let hs = random_vec(rng, n * d, subnormal);
    let h = random_vec(rng, d, subnormal);
    let mut uncapped = Vec::new();
    for i in 0..n.max(K) {
        let (m, r) = (&ms[i * d * d..(i + 1) * d * d], &rs[i * d..(i + 1) * d]);
        if i < K {
            for c in 0..n {
                let hc = &hs[c * d..(c + 1) * d];
                uncapped.push(capped_residual(m, hc, r, f32::INFINITY));
            }
        }
        if i < n {
            uncapped.push(capped_residual(m, &h, r, f32::INFINITY));
        }
    }
    let bounds = run_bounds(&uncapped);
    for (j, &cap) in bounds.iter().enumerate() {
        check_projection_shape("shared-matrix", d, n, (&ms, &rs, &hs), &[cap])?;
        check_projection_shape("shared-vector", d, 1, (&ms, &rs, &h), &vec![cap; n])?;
        let caps: Vec<f32> = (0..K).map(|i| bounds[(j + 5 * i) % bounds.len()]).collect();
        check_projection_shape("k matrices", d, n, (&ms, &rs, &hs), &caps)?;
    }
    Ok(())
}

/// A scan table of 300 rows with two outliers, which escape phase 1
/// (`row_err = +∞`).
fn scan_table(rng: &mut SmallRng, d: usize) -> (Vec<f32>, QuantScanTable) {
    let mut rows = random_vec(rng, 300 * d, false);
    for escape in [7usize, 140] {
        rows[escape * d..(escape + 1) * d]
            .iter_mut()
            .for_each(|x| *x *= 50.0);
    }
    let table = QuantScanTable::from_rows(&rows, d);
    (rows, table)
}

/// `prune_run` at every level ≡ the loop over `QuantScanTable::prunes`:
/// same candidate count, same survivors in the same order, appended to
/// what the buffer already held.
fn check_prune_run(
    rng: &mut SmallRng,
    rows: &[f32],
    table: &QuantScanTable,
    n: usize,
) -> Result<(), TestCaseError> {
    let d = table.row_len();
    let lo = rng.gen_range(0..=(300 - n) as u32);
    let ids = lo..lo + n as u32;
    let x = random_vec(rng, d, false);
    let mut q = vec![0i8; d];
    let query_err = table.quantize_query(&x, &mut q, rng.gen_range(0.0f32..0.1));
    let exact: Vec<f32> = ids
        .clone()
        .map(|c| scalar::blocked_l1(&x, &rows[c as usize * d..(c as usize + 1) * d]))
        .collect();
    let extra = random_extras(rng, n);
    for bound in run_bounds(&exact) {
        for extra in [None, Some(&extra[..])] {
            let mut want = vec![u32::MAX];
            let mut counted = 0u64;
            for (i, c) in ids.clone().enumerate() {
                let bound = match extra {
                    Some(e) if e[i] >= bound => continue,
                    Some(e) => bound - e[i],
                    None => bound,
                };
                counted += 1;
                if !table.prunes(&q, c, query_err, bound) {
                    want.push(c);
                }
            }
            for simd in SimdDispatch::all_supported() {
                let mut got = vec![u32::MAX];
                let run = table.run(&q, query_err, bound, ids.clone(), extra);
                let n_counted = (simd.prune_run)(run, &mut got);
                prop_assert!(
                    n_counted == counted && got == want,
                    "{} prune_run diverged at d={} run {:?} bound={} extra={}",
                    simd.level.name(),
                    d,
                    ids,
                    bound,
                    extra.is_some()
                );
            }
        }
    }
    Ok(())
}

/// `n` lane-scan candidates: ids drawn from `0..n_rows` (repeats allowed),
/// each live in a random subset of the first `valid` lanes — empty, full
/// and one-lane masks included — or, now and then, of all sixteen.
fn random_cands(rng: &mut SmallRng, n: usize, n_rows: u32, valid: usize) -> Vec<(u32, u16)> {
    let valid_mask = ((1u32 << valid) - 1) as u16;
    (0..n)
        .map(|_| {
            let mask = match rng.gen_range(0..8u32) {
                0 => 0,
                1 => valid_mask,
                2 => 1 << rng.gen_range(0..valid),
                3 => rng.gen::<u16>(),
                _ => rng.gen::<u16>() & valid_mask,
            };
            (rng.gen_range(0..n_rows), mask)
        })
        .collect()
}

/// One bound per lane, each drawn from that lane's list.
fn lane_bounds(rng: &mut SmallRng, per_lane: &[Vec<f32>]) -> [f32; QUERY_LANES] {
    std::array::from_fn(|s| per_lane[s][rng.gen_range(0..per_lane[s].len())])
}

/// The phase-1 knife edge of `(q, query_err)` against row `id`: the last
/// bound `prunes` still prunes at and the first it keeps, found by
/// bisection over positive f32 bit patterns (`prunes` is monotone in the
/// bound). `None` when even a zero bound is kept.
fn prune_edge(table: &QuantScanTable, q: &[i8], id: u32, query_err: f32) -> Option<[f32; 2]> {
    let prunes = |bits: u32| table.prunes(q, id, query_err, f32::from_bits(bits));
    if !prunes(0) {
        return None;
    }
    let (mut lo, mut hi) = (0u32, f32::INFINITY.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if prunes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some([f32::from_bits(lo), f32::from_bits(hi)])
}

/// `lanes_beats` at every level ≡ the loop over `scalar::l1_beats` for
/// `n` candidates of a 40-row table: 1–16 lanes holding queries (the rest
/// zero, as in a partial chunk), arbitrary live masks, counts added to
/// what the array already held.
fn check_lanes_beats(
    rng: &mut SmallRng,
    d: usize,
    n: usize,
    subnormal: bool,
) -> Result<(), TestCaseError> {
    const ROWS: usize = 40;
    let valid = rng.gen_range(1..=QUERY_LANES);
    let queries: Vec<Vec<f32>> = (0..QUERY_LANES)
        .map(|s| {
            if s < valid {
                random_vec(rng, d, subnormal)
            } else {
                vec![0.0; d]
            }
        })
        .collect();
    let x: Vec<LaneRow> = (0..d)
        .map(|j| LaneRow(std::array::from_fn(|s| queries[s][j])))
        .collect();
    let table = random_vec(rng, ROWS * d, subnormal);
    let row = |id: u32| &table[id as usize * d..(id as usize + 1) * d];
    let cands = random_cands(rng, n, ROWS as u32, valid);
    // Per lane, the bounds of its exact distances: ties, every exit depth,
    // `±∞`, `±0` and NaN.
    let per_lane: Vec<Vec<f32>> = queries
        .iter()
        .map(|q| {
            let exact: Vec<f32> = cands
                .iter()
                .map(|&(id, _)| scalar::blocked_l1(q, row(id)))
                .collect();
            run_bounds(&exact)
        })
        .collect();
    for _ in 0..6 {
        let bounds = lane_bounds(rng, &per_lane);
        let mut want = [3usize; QUERY_LANES];
        for &(id, live) in &cands {
            for (s, q) in queries.iter().enumerate() {
                if live & (1 << s) != 0 && scalar::l1_beats(q, row(id), 0.0, bounds[s]) {
                    want[s] += 1;
                }
            }
        }
        for simd in SimdDispatch::all_supported() {
            let mut got = [3usize; QUERY_LANES];
            let scan = LaneScan {
                x: &x,
                bounds: &bounds,
                table: &table,
                cands: &cands,
            };
            (simd.lanes_beats)(scan, &mut got);
            prop_assert!(
                got == want,
                "{} lanes_beats diverged at d={} n={} lanes={} bounds={:?}: {:?} vs {:?}",
                simd.level.name(),
                d,
                n,
                valid,
                bounds,
                got,
                want
            );
        }
    }
    Ok(())
}

/// `lanes_prune` at every level ≡ the loop over `QuantScanTable::prunes`
/// per live (candidate, lane) pair: same pair count, same survivors with
/// the same lanes in the same order, appended to what the buffer already
/// held. The table's two escape rows are always among the candidates.
fn check_lanes_prune(
    rng: &mut SmallRng,
    rows: &[f32],
    table: &QuantScanTable,
    n: usize,
) -> Result<(), TestCaseError> {
    let d = table.row_len();
    let valid = rng.gen_range(1..=QUERY_LANES);
    let mut qs = vec![vec![0i8; d]; QUERY_LANES];
    let mut errs = [0.0f32; QUERY_LANES];
    let mut xs = vec![vec![0.0f32; d]; QUERY_LANES];
    for s in 0..valid {
        xs[s] = random_vec(rng, d, false);
        errs[s] = table.quantize_query(&xs[s], &mut qs[s], rng.gen_range(0.0f32..0.1));
    }
    let mut cands = random_cands(rng, n, 300, valid);
    if let [first, .., last] = &mut cands[..] {
        (first.0, last.0) = (7, 140);
    }
    // Per lane, the bounds of its exact distances plus the knife edges of a
    // few candidates, where only the `SUM_SHAVE` margin decides.
    let per_lane: Vec<Vec<f32>> = (0..QUERY_LANES)
        .map(|s| {
            let exact: Vec<f32> = cands
                .iter()
                .map(|&(id, _)| scalar::blocked_l1(&xs[s], &rows[id as usize * d..][..d]))
                .collect();
            let edges = cands
                .iter()
                .take(4)
                .filter_map(|&(id, _)| prune_edge(table, &qs[s], id, errs[s]));
            [run_bounds(&exact), edges.flatten().collect()].concat()
        })
        .collect();
    let mut block = LaneQueries::default();
    for _ in 0..6 {
        let bounds = lane_bounds(rng, &per_lane);
        block.reset(d);
        for s in 0..QUERY_LANES {
            block.set_lane(s, &qs[s], errs[s], bounds[s]);
        }
        let mut want = vec![(u32::MAX, 0u16)];
        let mut counted = 0u64;
        for &(id, live) in &cands {
            let mut keep = 0u16;
            for s in (0..QUERY_LANES).filter(|&s| live & (1 << s) != 0) {
                counted += 1;
                if !table.prunes(&qs[s], id, errs[s], bounds[s]) {
                    keep |= 1 << s;
                }
            }
            if keep != 0 {
                want.push((id, keep));
            }
        }
        for simd in SimdDispatch::all_supported() {
            let mut got = vec![(u32::MAX, 0u16)];
            let n_counted = (simd.lanes_prune)(table.lanes(&block, &cands), &mut got);
            prop_assert!(
                n_counted == counted && got == want,
                "{} lanes_prune diverged at d={} n={} lanes={} bounds={:?}",
                simd.level.name(),
                d,
                n,
                valid,
                bounds
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every run entry at every level ≡ its per-candidate loop, at a
    /// random dim and every run length.
    #[test]
    fn run_entries_match_the_per_candidate_loops(
        seed in 0u64..1_000_000,
        d in 0usize..130,
        subnormal_q in 0u32..2,
    ) {
        let subnormal = subnormal_q == 1;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E57);
        for &n in RUN_LENS {
            check_run_beats(&mut rng, d, n, subnormal)?;
            check_lanes_beats(&mut rng, d, n, subnormal)?;
        }
        for n in [0usize, 1, 2, 5, 7, 8, 9, 15, 16, 17, 33] {
            check_projection(&mut rng, d.min(40), n, subnormal)?;
        }
        if d > 0 {
            let (rows, table) = scan_table(&mut rng, d);
            for &n in RUN_LENS {
                check_prune_run(&mut rng, &rows, &table, n)?;
                check_lanes_prune(&mut rng, &rows, &table, n)?;
            }
        }
    }
}

/// The run entries at every dim 0–129 (lane tails, ragged quantization
/// blocks, projection row remainders), on short runs and one whole tile.
#[test]
fn run_entries_match_at_every_dim() {
    let mut rng = SmallRng::seed_from_u64(0xD1A5);
    for d in 0..130 {
        for n in [0, 1, 4, 5, 9] {
            check_run_beats(&mut rng, d, n, d % 3 == 0).unwrap();
        }
        for n in [0, 1, 17, 256] {
            check_lanes_beats(&mut rng, d, n, d % 3 == 0).unwrap();
        }
        for n in [1, 5, 7, 8, 17] {
            check_projection(&mut rng, d, n, d % 3 == 0).unwrap();
        }
        if d > 0 {
            let (rows, table) = scan_table(&mut rng, d);
            // A whole tile where every block is 32 bytes (AVX2's
            // four-candidate path), short runs everywhere.
            let tile = if d % 32 == 0 { 256 } else { 9 };
            for n in [0, 3, 4, tile] {
                check_prune_run(&mut rng, &rows, &table, n).unwrap();
                check_lanes_prune(&mut rng, &rows, &table, n).unwrap();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sliced rank fan-out parity
// ---------------------------------------------------------------------------

fn random_store(seed: u64, n_items: u32, n_rels: u32, n_vals: u32) -> TripleStore {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = StoreBuilder::new();
    for i in 0..n_items {
        for _ in 0..rng.gen_range(1..4u32) {
            let r = rng.gen_range(0..n_rels);
            let v = n_items + rng.gen_range(0..n_vals);
            b.add_raw(i, r, v);
        }
    }
    b.build()
}

fn random_test_triples(store: &TripleStore, seed: u64, n: usize) -> Vec<Triple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ne = store.n_entities();
    let nr = store.n_relations();
    let all = store.triples();
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.6) {
                all[rng.gen_range(0..all.len())]
            } else {
                Triple::new(
                    EntityId(rng.gen_range(0..ne)),
                    RelationId(rng.gen_range(0..nr)),
                    EntityId(rng.gen_range(0..ne)),
                )
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Candidate-sliced rank fan-out ≡ serial reference for every slice
    /// count — the deterministic merge makes the decomposition invisible.
    #[test]
    fn sliced_ranks_equal_reference_for_every_slice_count(
        seed in 0u64..1_000_000,
        filtered_q in 0u32..2,
    ) {
        let store = random_store(seed, 24, 5, 9);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(13).with_seed(seed ^ 0xC3),
        );
        let test = random_test_triples(&store, seed ^ 0x7F, 40);
        let filter = (filtered_q == 1).then_some(&store);
        let ref_t = reference_rank_tails(&model, &test, filter).unwrap();
        let ref_h = reference_rank_heads(&model, &test, filter).unwrap();
        let ref_r = reference_rank_relations(&model, &test, filter).unwrap();
        for n_slices in [1usize, 2, 3, 7, 16] {
            prop_assert_eq!(
                &fused_rank_tails_sliced(&model, &test, filter, n_slices).unwrap(),
                &ref_t
            );
            prop_assert_eq!(
                &fused_rank_heads_sliced(&model, &test, filter, n_slices).unwrap(),
                &ref_h
            );
            prop_assert_eq!(
                &fused_rank_relations_sliced(&model, &test, filter, n_slices).unwrap(),
                &ref_r
            );
        }
    }

    /// The quantized two-phase kernels slice identically: ranks equal the
    /// reference and the prune stats are slice-count-invariant (integer
    /// per-candidate sums commute with any decomposition).
    #[test]
    fn sliced_quantized_ranks_and_stats_are_slice_invariant(
        seed in 0u64..1_000_000,
        filtered_q in 0u32..2,
    ) {
        let store = random_store(seed ^ 0x11, 20, 4, 8);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(seed ^ 0x2C),
        );
        let qmodel = QuantEvalModel::build(&model);
        let test = random_test_triples(&store, seed ^ 0x55, 24);
        let filter = (filtered_q == 1).then_some(&store);
        let (t1, st1) =
            quantized_rank_tails_with_stats_sliced(&model, &qmodel, &test, filter, 1).unwrap();
        let (h1, sh1) =
            quantized_rank_heads_with_stats_sliced(&model, &qmodel, &test, filter, 1).unwrap();
        let (r1, sr1) =
            quantized_rank_relations_with_stats_sliced(&model, &qmodel, &test, filter, 1).unwrap();
        prop_assert_eq!(&t1, &reference_rank_tails(&model, &test, filter).unwrap());
        prop_assert_eq!(&h1, &reference_rank_heads(&model, &test, filter).unwrap());
        prop_assert_eq!(&r1, &reference_rank_relations(&model, &test, filter).unwrap());
        for n_slices in [2usize, 3, 7, 16] {
            let (t, st) =
                quantized_rank_tails_with_stats_sliced(&model, &qmodel, &test, filter, n_slices)
                    .unwrap();
            prop_assert_eq!(&t, &t1);
            prop_assert_eq!(st, st1);
            let (h, sh) =
                quantized_rank_heads_with_stats_sliced(&model, &qmodel, &test, filter, n_slices)
                    .unwrap();
            prop_assert_eq!(&h, &h1);
            prop_assert_eq!(sh, sh1);
            let (r, sr) =
                quantized_rank_relations_with_stats_sliced(&model, &qmodel, &test, filter, n_slices)
                    .unwrap();
            prop_assert_eq!(&r, &r1);
            prop_assert_eq!(sr, sr1);
        }
    }
}

/// A store spanning many 256-entity candidate tiles, so slice boundaries
/// land both on and between tile edges and the filter cursors start
/// mid-list in later slices.
#[test]
fn sliced_ranks_equal_reference_across_many_tiles() {
    let store = random_store(4242, 600, 6, 40);
    assert!(store.n_entities() > 512, "store must span >2 tiles");
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(13).with_seed(77),
    );
    let test = random_test_triples(&store, 99, 48);
    for filter in [None, Some(&store)] {
        let ref_t = reference_rank_tails(&model, &test, filter).unwrap();
        let ref_h = reference_rank_heads(&model, &test, filter).unwrap();
        for n_slices in [1usize, 2, 3, 5, 16] {
            assert_eq!(
                fused_rank_tails_sliced(&model, &test, filter, n_slices).unwrap(),
                ref_t,
                "tails n_slices={n_slices}"
            );
            assert_eq!(
                fused_rank_heads_sliced(&model, &test, filter, n_slices).unwrap(),
                ref_h,
                "heads n_slices={n_slices}"
            );
        }
    }
}

/// The dispatch level sanity: forced-scalar runs report Scalar, and on
/// x86-64 hosts with AVX2 the detected table is the AVX2 one, or the
/// AVX-512 one where the host also has `avx512f` and `avx512bw` (this is
/// the assertion CI's `simd-smoke` job leans on from the outside via the
/// `pkgm simd` log line). Hosts without AVX2 get the scalar twins.
#[test]
fn dispatch_level_is_consistent_with_host() {
    let detected = SimdDispatch::detected();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            let wide = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw");
            let level = if wide {
                SimdLevel::Avx512
            } else {
                SimdLevel::Avx2
            };
            assert_eq!(detected.level, level);
        } else {
            assert_eq!(detected.level, SimdLevel::Scalar);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(detected.level, SimdLevel::Scalar);
    assert_eq!(SimdDispatch::scalar().level, SimdLevel::Scalar);
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

/// The definition: one message bit per step through the reflected IEEE
/// polynomial. No tables, nothing shared with the kernels under test.
fn crc32_bitwise(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    c
}

/// Assert that every CRC kernel maps `(state, bytes)` to `want`.
fn assert_crc_kernels(state: u32, bytes: &[u8], want: u32, what: &str) {
    let got = [
        ("bytewise", scalar::crc32_update_bytewise(state, bytes)),
        ("slice-by-8", scalar::crc32_update(state, bytes)),
        (
            "detected",
            (SimdDispatch::detected().crc32_update)(state, bytes),
        ),
        ("dispatched", simd::crc32_update(state, bytes)),
        ("artifact", artifact::crc32_update(state, bytes)),
    ];
    for (kernel, value) in got {
        assert_eq!(value, want, "{kernel} kernel, {what}");
    }
}

fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

#[test]
fn crc32_check_value() {
    assert_eq!(artifact::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(artifact::crc32(b""), 0);
    assert_crc_kernels(!0, b"123456789", !0xCBF4_3926, "check value");
}

#[test]
fn crc32_kernels_match_the_definition_at_every_length_and_alignment() {
    let buf = random_bytes(0xC4C_0001, 1024 + 32);
    let base = buf.as_ptr().align_offset(16);
    for align in 0..16 {
        for len in 0..=1024usize {
            let bytes = &buf[base + align..base + align + len];
            // The fresh state, and a mid-stream one (a nonzero state that
            // is not all ones exercises the state's entry into the fold).
            for state in [!0u32, 0x1234_5678 ^ len as u32] {
                let want = crc32_bitwise(state, bytes);
                assert_crc_kernels(state, bytes, want, &format!("len {len} align {align}"));
            }
        }
    }
}

#[test]
fn crc32_kernels_match_the_definition_on_large_buffers() {
    for seed in 0..3u64 {
        // Odd sizes around 1 MiB: many 64-byte steps, then blocks and tail.
        let buf = random_bytes(0xB16_0000 + seed, (1 << 20) + 16 * seed as usize + 7);
        assert_crc_kernels(!0, &buf, crc32_bitwise(!0, &buf), "1 MiB buffer");
        assert_eq!(artifact::crc32(&buf), !crc32_bitwise(!0, &buf));
    }
}

#[test]
fn crc32_update_chains_across_every_split_point() {
    let buf = random_bytes(0x5711_7000, 4096);
    let whole = crc32_bitwise(!0, &buf);
    let tables = [
        SimdDispatch::scalar(),
        SimdDispatch::detected(),
        simd::active(),
    ];
    for split in 0..=buf.len() {
        let (a, b) = buf.split_at(split);
        for t in tables {
            let chained = (t.crc32_update)((t.crc32_update)(!0, a), b);
            assert_eq!(chained, whole, "{} table, split at {split}", t.level.name());
        }
    }
}

/// The fold multipliers are `x^n mod P`. Recompute them in the
/// *unreflected* domain (polynomial `0x04C11DB7`, shifts go the other
/// way), reflect, pre-shift — a derivation that shares nothing with
/// `simd::crc_xpow_mod_p` — and also pin the values the literature
/// (Gopal et al., Intel 2009) lists for this polynomial.
#[test]
fn crc32_fold_keys_are_x_powers_mod_p() {
    fn xpow_mod_p_unreflected(n: u32) -> u32 {
        let mut r = 1u32;
        for _ in 0..n {
            let carry = r & 0x8000_0000 != 0;
            r <<= 1;
            if carry {
                r ^= 0x04C1_1DB7;
            }
        }
        r
    }
    let exponents = [4 * 128 + 32, 4 * 128 - 32, 128 + 32, 128 - 32];
    for (key, n) in simd::CRC_FOLD_KEYS.iter().zip(exponents) {
        let want = u64::from(xpow_mod_p_unreflected(n).reverse_bits()) << 1;
        assert_eq!(*key, want, "x^{n} mod P");
        assert_eq!(
            simd::crc_xpow_mod_p(n),
            xpow_mod_p_unreflected(n).reverse_bits()
        );
    }
    assert_eq!(
        simd::CRC_FOLD_KEYS,
        [0x1_5444_2BD4, 0x1_C6E4_1596, 0x1_7519_97D0, 0x0_CCAA_009E]
    );
}
