//! Runtime-dispatched SIMD kernels for the crate's hot loops.
//!
//! Every hot primitive — the eight-lane dot ([`kernel_dot`]), the blocked
//! L1 distances ([`blocked_l1`] / [`blocked_l1_translation`]), their
//! early-exit comparators ([`l1_beats`] / [`translation_beats`]), the
//! int8 absolute-difference sum behind `quant::prunes` ([`sad_i8`]) and
//! the CRC32 under every artifact, snapshot section and wire frame
//! ([`crc32_update`]) — has exactly one **scalar twin** (in [`scalar`]).
//! The five f32 primitives read their slices' common length, and their
//! blocked order is written once per register width: `scalar::fold8` over
//! eight accumulators and `x86::fold256` over one `f32x8` register.
//!
//! The link-prediction kernels do not call those primitives once per
//! candidate. They call five **run entries**, each over many candidates:
//!
//! * [`lanes_beats`] — tails: [`QUERY_LANES`] queries, one per lane of a
//!   register, against a list of candidates that are each live in some of
//!   the lanes; per lane, how many of its live candidates beat its bound
//!   under [`l1_beats`];
//! * [`lanes_prune`] — the int8 phase 1 of the same lane block: the live
//!   (candidate, lane) pairs `QuantScanTable::prunes` cannot rule out;
//! * [`run_beats`] — heads and relations: how many rows of a contiguous
//!   run beat a bound under [`translation_beats`];
//! * [`prune_run`] — the survivors of `QuantScanTable::prunes` over a run;
//! * [`project_run`] — the capped relation-module residual
//!   `‖M·h − r‖₁` of every (matrix, candidate) pair of `k` matrices
//!   against a tile of `n` candidate vectors, each row a [`kernel_dot`].
//!
//! A run entry's scalar twin is the loop over its per-candidate twin, and
//! that loop is the contract: the run form may interleave candidates or
//! queries, share row loads and decide many pairs at once, but every
//! (query, candidate) accumulator keeps its own lane order and combine
//! tree and every decision its early-exit cadence, so each count, survivor
//! and residual equals the loop's bit for bit.
//!
//! Every entry, primitive or run, has, on x86-64, explicit `std::arch`
//! implementations selected once at runtime:
//!
//! * **AVX-512** when `is_x86_feature_detected!` finds `avx512f` and
//!   `avx512bw` as well as `avx2`: the AVX2 table with its three lane
//!   entries widened to one 512-bit register — [`project_run`] with sixteen
//!   candidates in the lanes, [`lanes_beats`] and [`lanes_prune`] with the
//!   sixteen queries (DESIGN.md §11);
//! * **AVX2** when `is_x86_feature_detected!("avx2")`, the same lane
//!   bodies over eight lanes: [`project_run`] eight candidates per register,
//!   the lane entries the sixteen queries as two halves;
//! * the portable scalar twins otherwise, on non-x86 targets, or when the
//!   `PKGM_FORCE_SCALAR` environment variable is set (any value but `0`);
//! * independently of the float level, the CRC entry is the carry-less
//!   multiply folding kernel when `is_x86_feature_detected!("pclmulqdq")`.
//!
//! The binary itself stays portable: it builds for the baseline x86-64
//! target (no `-C target-cpu=native`) and lights up the wide paths only on
//! hosts that have them. Three loops that have no table entry — the
//! training gradient pass, the Adam leaf and the `S_R` table build — run
//! wide too: each is a `LevelBody` written once, which `at_level`
//! compiles inside one `#[target_feature]` wrapper per level.
//!
//! ## Why SIMD and scalar are bit-identical, not just close
//!
//! The scalar twins accumulate in eight independent lanes (`acc[j] += …`
//! per eight-element chunk) and combine them with the fixed tree
//! `((a₀+a₁)+(a₂+a₃)) + ((a₄+a₅)+(a₆+a₇))`, tail elements added serially
//! afterwards. One AVX2 `f32x8` register *is* those eight lanes: vertical
//! `vmulps`/`vaddps`/`vsubps`/`vandps` perform the identical IEEE-754
//! operation per lane in the identical order (no FMA contraction — the
//! intrinsics say `mul` then `add`, exactly like the scalar source), and
//! the horizontal reduction evaluates the same fixed tree in registers:
//! two `hadd`s form `(a₀+a₁)+(a₂+a₃)` in the low half and
//! `(a₄+a₅)+(a₆+a₇)` in the high half, one add joins them. IEEE addition
//! is commutative, so `hadd`'s `a₁+a₀` is the scalar `a₀+a₁` bit for bit.
//! Three `hadd`s combine four accumulators into one `f32x4` the same way,
//! which is how [`run_beats`] reduces four candidates per exit check. The
//! lane bodies never combine horizontally: each lane is one query (or one
//! projected candidate), its eight accumulators are eight registers, and
//! the `combine8` tree is seven vertical adds in the tree's own order. So
//! for every input the SIMD result is the *same deterministic function* as
//! the scalar twin, bit for bit; `tests/simd_parity.rs` enforces this at
//! every level the host supports ([`SimdDispatch::all_supported`]) across
//! non-lane-multiple dims, unequal slice lengths, subnormals, and
//! early-exit abandon points.
//!
//! The early-exit comparators keep their cadence: the partial lane sums
//! are combined and compared against the bound every
//! [`EXIT_STRIDE`] chunks, exactly where the scalar twin checks, so the
//! *decisions* (not just final values) are identical and ranks stay
//! bit-identical. (A coarser cadence would be exact too — a partial sum
//! only grows, so a check that fires proves the final comparison fails —
//! but the run entries keep this one.) The i8 scan is exact integer arithmetic
//! (`vpsadbw` over sign-flipped bytes — `|a−b|` is translation
//! invariant, so XOR with `0x80` maps signed SAD onto the unsigned
//! instruction); any summation order gives the same `u32`.
//!
//! The CRC is exact too: the folding kernel only ever replaces a block of
//! message bits by a shorter block that is congruent to it modulo the IEEE
//! polynomial (see [`CRC_FOLD_KEYS`]), then hands the last 16 bytes and the
//! tail to the scalar twin — the remainder, and with it every checksum on
//! disk and on the wire, is the same `u32` at every level.
//!
//! ## What stays scalar on purpose
//!
//! [`l1_dist`] — the serial, index-order L1 shared by the trainer, the
//! evaluation baselines and serving's tail completion — is pinned to its
//! scalar form: its contract is bit-identity with
//! `PkgmModel::score_relation`'s single-accumulator sum, and a serial f32
//! dependency chain cannot be vectorized without reassociating (changing
//! every trained model byte). It routes through this module so there is
//! one implementation, but both dispatch entries are the same scalar code.

use crate::quant::{PruneLanes, PruneRun};
use std::sync::OnceLock;

/// Early-exit cadence in eight-lane chunks: the comparators combine the
/// lanes and compare against the bound every `EXIT_STRIDE` chunks
/// (= 16 dimensions). Checking every chunk would spend more combine work
/// than it saves; the SIMD paths keep the same cadence so decisions match
/// the scalar twins exactly.
pub const EXIT_STRIDE: usize = 2;

/// Queries per lane block of [`lanes_beats`] and [`lanes_prune`]: one per
/// lane of a 512-bit register of f32.
pub const QUERY_LANES: usize = 16;

/// The instruction set a [`SimdDispatch`] table was built for, ordered
/// by width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar twins (also the `PKGM_FORCE_SCALAR` path).
    Scalar,
    /// 256-bit AVX2 paths (one `f32x8` lane register, `vpsadbw`).
    Avx2,
    /// The AVX2 table with 512-bit lane entries (one candidate or one
    /// query per lane).
    Avx512,
}

impl SimdLevel {
    /// Lower-case name used in logs and bench reports.
    pub fn name(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Entry type of [`SimdDispatch::translation_beats`]:
/// `(h, r, t, extra, bound) → beats`.
pub type TranslationBeatsFn = fn(&[f32], &[f32], &[f32], f32, f32) -> bool;

/// A contiguous run of candidate rows for [`run_beats`]: heads (`a = r`,
/// `b = t`) and relations (`a = h`, `b = t`), where row `i` beats when
/// `translation_beats(c_i, a, b, extra[i], bound)`. The relation twin is
/// `translation_beats(h, c_i, t, …)`; `c + h` and `h + c` are the same
/// IEEE sum, so the two decide alike.
#[derive(Debug, Clone, Copy)]
pub struct RunScan<'a> {
    /// Added to each candidate row.
    pub a: &'a [f32],
    /// Subtracted from each sum.
    pub b: &'a [f32],
    /// Per-candidate addend (the relation-module score); its length is the
    /// run length.
    pub extra: &'a [f32],
    /// `extra.len() × d` candidate rows, `d = a.len()`, row-major.
    pub rows: &'a [f32],
}

/// Element `j` of [`QUERY_LANES`] queries, lane `s` holding query `s`'s:
/// one row of a lane-major query block. Aligned to 64 bytes, so a 512-bit
/// load of a row never splits a cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C, align(64))]
pub struct LaneRow(pub [f32; QUERY_LANES]);

/// [`QUERY_LANES`] tail queries against a list of candidates for
/// [`lanes_beats`]: for every candidate and every lane `s` live in its
/// mask, lane `s` counts the candidate when
/// `l1_beats(query_s, row, 0.0, bounds[s])`.
#[derive(Debug, Clone, Copy)]
pub struct LaneScan<'a> {
    /// The queries, lane-major: `x[j].0[s]` is element `j` of query `s`,
    /// so `d = x.len()`.
    pub x: &'a [LaneRow],
    /// One bound per lane.
    pub bounds: &'a [f32; QUERY_LANES],
    /// The candidate table, `d`-wide rows, row-major.
    pub table: &'a [f32],
    /// The candidates as `(row id, live lanes)`: bit `s` of the mask set
    /// means lane `s` ranks the candidate.
    pub cands: &'a [(u32, u16)],
}

/// `k` relation-module projections against a tile of `n` candidate
/// vectors for [`project_run`]: `out[i·n + c]` becomes
/// `Σ_row |kernel_dot(M_i[row], h_c) − r_i[row]|`, summed serially in row
/// order, or `f32::INFINITY` once a partial sum reaches `caps[i]`.
#[derive(Debug, Clone, Copy)]
pub struct Projection<'a> {
    /// `k` transfer matrices, `k × d × d` row-major.
    pub ms: &'a [f32],
    /// The matching relation rows, `k × d`.
    pub rs: &'a [f32],
    /// One cap per matrix.
    pub caps: &'a [f32],
    /// `n` candidate vectors, `n × d` row-major.
    pub hs: &'a [f32],
}

/// A resolved table of kernel entry points, all computing the same
/// deterministic functions (see the module docs).
///
/// The crate's hot paths call the free functions ([`kernel_dot`],
/// [`run_beats`], …), which route through [`active`]; the parity suite
/// grabs [`SimdDispatch::all_supported`] / [`SimdDispatch::scalar`] to
/// compare implementations explicitly.
#[derive(Debug, Clone, Copy)]
pub struct SimdDispatch {
    /// Which instruction set this table's entries use.
    pub level: SimdLevel,
    /// Eight-lane fixed-order dot product.
    pub kernel_dot: fn(&[f32], &[f32]) -> f32,
    /// Eight-lane fixed-order `‖a − b‖₁`.
    pub blocked_l1: fn(&[f32], &[f32]) -> f32,
    /// Eight-lane fixed-order `‖h + r − t‖₁`.
    pub blocked_l1_translation: fn(&[f32], &[f32], &[f32]) -> f32,
    /// Decide `blocked_l1(a, b) + extra < bound` with the exact early exit.
    pub l1_beats: fn(&[f32], &[f32], f32, f32) -> bool,
    /// Decide `blocked_l1_translation(h, r, t) + extra < bound` likewise.
    pub translation_beats: TranslationBeatsFn,
    /// Exact `Σ |a_i − b_i|` over i8 slices (the quantized scan's block sum).
    pub sad_i8: fn(&[i8], &[i8]) -> u32,
    /// Raw IEEE CRC32 state update (see [`crc32_update`]).
    pub crc32_update: fn(u32, &[u8]) -> u32,
    /// Count the rows of a run that beat the bound (see [`run_beats`]).
    pub run_beats: fn(RunScan<'_>, f32) -> usize,
    /// Append a run's phase-1 survivors; returns its candidate count (see
    /// [`prune_run`]).
    pub prune_run: fn(PruneRun<'_>, &mut Vec<u32>) -> u64,
    /// Capped residuals of `k` matrices × `n` candidates ([`project_run`]).
    pub project_run: fn(Projection<'_>, &mut [f32]),
    /// Per lane, the live candidates that beat its bound ([`lanes_beats`]).
    pub lanes_beats: fn(LaneScan<'_>, &mut [usize; QUERY_LANES]),
    /// Append the live (candidate, lanes) pairs phase 1 keeps; returns the
    /// pairs it counted ([`lanes_prune`]).
    pub lanes_prune: fn(PruneLanes<'_>, &mut Vec<(u32, u16)>) -> u64,
}

static SCALAR: SimdDispatch = SimdDispatch {
    level: SimdLevel::Scalar,
    kernel_dot: scalar::kernel_dot,
    blocked_l1: scalar::blocked_l1,
    blocked_l1_translation: scalar::blocked_l1_translation,
    l1_beats: scalar::l1_beats,
    translation_beats: scalar::translation_beats,
    sad_i8: scalar::sad_i8,
    crc32_update: scalar::crc32_update,
    run_beats: scalar::run_beats,
    prune_run: scalar::prune_run,
    project_run: scalar::project_run,
    lanes_beats: scalar::lanes_beats,
    lanes_prune: scalar::lanes_prune,
};

impl SimdDispatch {
    /// The portable scalar table (every entry is a scalar twin).
    pub fn scalar() -> &'static SimdDispatch {
        &SCALAR
    }

    /// Every table this host can run, scalar first and
    /// [`SimdDispatch::detected`] last — on an AVX-512 host that is
    /// scalar, AVX2 and AVX-512, so the parity suite compares the AVX2
    /// bodies too although nothing else here would ever select them.
    pub fn all_supported() -> Vec<&'static SimdDispatch> {
        let mut tables = vec![SimdDispatch::scalar()];
        let best = SimdDispatch::detected();
        #[cfg(target_arch = "x86_64")]
        if best.level == SimdLevel::Avx512 {
            tables.push(&x86::AVX2);
        }
        if best.level != SimdLevel::Scalar {
            tables.push(best);
        }
        tables
    }

    /// The best table the host supports, ignoring `PKGM_FORCE_SCALAR` —
    /// what [`active`] would pick without the override. The parity suite
    /// compares this against [`SimdDispatch::scalar`] even when the test
    /// run itself is forced scalar.
    pub fn detected() -> &'static SimdDispatch {
        static DETECTED: OnceLock<SimdDispatch> = OnceLock::new();
        DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                let avx2 = std::arch::is_x86_feature_detected!("avx2");
                let avx512 = std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw");
                let mut table = if avx2 && avx512 {
                    x86::AVX512
                } else if avx2 {
                    x86::AVX2
                } else {
                    SCALAR
                };
                if std::arch::is_x86_feature_detected!("pclmulqdq") {
                    // SAFETY: the kernel's only requirement is the
                    // `pclmulqdq` feature, detected on the line above.
                    table.crc32_update = |state, bytes| unsafe { x86::crc32_fold(state, bytes) };
                }
                table
            }
            #[cfg(not(target_arch = "x86_64"))]
            SCALAR
        })
    }
}

/// Whether `PKGM_FORCE_SCALAR` requests the scalar fallback: set and
/// neither empty nor `0`.
pub fn force_scalar_requested() -> bool {
    force_scalar_value(std::env::var_os("PKGM_FORCE_SCALAR").as_deref())
}

/// Testable core of [`force_scalar_requested`].
fn force_scalar_value(v: Option<&std::ffi::OsStr>) -> bool {
    match v {
        None => false,
        Some(s) => !s.is_empty() && s != "0",
    }
}

/// The dispatch table every crate-internal kernel call routes through,
/// probed once per process: [`SimdDispatch::detected`] unless
/// [`force_scalar_requested`].
pub fn active() -> &'static SimdDispatch {
    static ACTIVE: OnceLock<&'static SimdDispatch> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        if force_scalar_requested() {
            SimdDispatch::scalar()
        } else {
            SimdDispatch::detected()
        }
    })
}

/// The one-line dispatch report the daemon, the benches and `pkgm simd`
/// print (and CI's `simd-smoke` job asserts on): `simd dispatch: avx512
/// (avx512f=yes, avx512bw=yes, avx2=yes, forced_scalar=no,
/// pclmulqdq=yes)`.
pub fn describe() -> String {
    fn yn(b: bool) -> &'static str {
        if b {
            "yes"
        } else {
            "no"
        }
    }
    #[cfg(target_arch = "x86_64")]
    let (avx512f, avx512bw, avx2, pclmulqdq) = (
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx512bw"),
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("pclmulqdq"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx512f, avx512bw, avx2, pclmulqdq) = (false, false, false, false);
    format!(
        "simd dispatch: {} (avx512f={}, avx512bw={}, avx2={}, forced_scalar={}, pclmulqdq={})",
        active().level.name(),
        yn(avx512f),
        yn(avx512bw),
        yn(avx2),
        yn(force_scalar_requested()),
        yn(pclmulqdq)
    )
}

// ---------------------------------------------------------------------------
// Dispatched entry points (what the rest of the crate calls)
// ---------------------------------------------------------------------------

/// Eight-lane multi-accumulator dot product with a **fixed** combine order,
/// dispatched to the active instruction set.
///
/// `pkgm_dot`'s single-accumulator reduction is a serial f32 dependency
/// chain (float addition is not associative); eight independent lane
/// accumulators break the chain and the fixed tree combine makes the
/// result a deterministic function of the inputs — the *same* function on
/// every dispatch level. Both training-kernel twins share this ordering,
/// which is what keeps them bit-equal. Every level reads the slices'
/// common length.
#[inline]
pub fn kernel_dot(a: &[f32], b: &[f32]) -> f32 {
    (active().kernel_dot)(a, b)
}

/// `‖a − b‖₁` with eight-lane fixed-order accumulation, dispatched — the
/// evaluation twin of [`kernel_dot`].
#[inline]
pub fn blocked_l1(a: &[f32], b: &[f32]) -> f32 {
    (active().blocked_l1)(a, b)
}

/// `‖h + r − t‖₁` in the same eight-lane blocked order, dispatched.
#[inline]
pub fn blocked_l1_translation(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    (active().blocked_l1_translation)(h, r, t)
}

/// Decide `blocked_l1(a, b) + extra < bound` with an exact early exit,
/// dispatched.
///
/// Aborts (returning `false`) as soon as the partially combined sum plus
/// `extra` reaches `bound` — sound because every L1 term is nonnegative
/// and IEEE-754 round-to-nearest addition is monotone, so the final value
/// can only be larger. When the loop runs to completion the returned
/// decision evaluates the exact blocked expression; every dispatch level
/// checks at the same [`EXIT_STRIDE`] cadence, so decisions are
/// bit-identical across levels.
#[inline]
pub fn l1_beats(a: &[f32], b: &[f32], extra: f32, bound: f32) -> bool {
    (active().l1_beats)(a, b, extra, bound)
}

/// Decide `blocked_l1_translation(h, r, t) + extra < bound` with the same
/// exact early exit as [`l1_beats`], dispatched.
#[inline]
pub fn translation_beats(h: &[f32], r: &[f32], t: &[f32], extra: f32, bound: f32) -> bool {
    (active().translation_beats)(h, r, t, extra, bound)
}

/// Exact `Σ_i |a_i − b_i|` over i8 slices, dispatched — the per-block
/// integer sum of the quantized pruning scan. Integer arithmetic is exact,
/// so every dispatch level returns the identical `u32`.
#[inline]
pub fn sad_i8(a: &[i8], b: &[i8]) -> u32 {
    (active().sad_i8)(a, b)
}

/// Raw IEEE 802.3 CRC32 state update (reflected polynomial
/// `0xEDB88320`), dispatched: feed chunks into `state` starting from
/// `!0u32` and finish with a bitwise not. `crate::artifact::crc32` /
/// `crc32_update` are this function; every dispatch level returns the
/// identical `u32` for every input.
#[inline]
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    (active().crc32_update)(state, bytes)
}

/// How many rows of `scan` beat `bound` under [`translation_beats`],
/// dispatched once for the whole run. AVX2 decides four candidates per
/// pass and reduces all four partial sums with one `hadd` tree at each
/// [`EXIT_STRIDE`] check.
///
/// # Panics
/// If the row slice is not exactly the run's candidates.
#[inline]
pub fn run_beats(scan: RunScan<'_>, bound: f32) -> usize {
    (active().run_beats)(scan, bound)
}

/// Append to `survivors` the ids of `run`'s candidates that
/// `QuantScanTable::prunes` cannot rule out, skipping (and not counting)
/// candidates whose `extra` already reaches the bound; returns how many
/// candidates it counted. Dispatched once per run, the block SAD inlined.
#[inline]
pub fn prune_run(run: PruneRun<'_>, survivors: &mut Vec<u32>) -> u64 {
    (active().prune_run)(run, survivors)
}

/// Fill `out[i·n + c]` with the relation-module residual
/// `‖M_i·h_c − r_i‖₁` of matrix `i` and candidate `c` (see
/// [`Projection`]), or `f32::INFINITY` once its partial sum reaches
/// `caps[i]`, dispatched once per tile. The wide levels run the candidates
/// in the lanes of a register, eight at AVX2 and sixteen at AVX-512, so
/// each matrix element is broadcast once per block of candidates.
///
/// # Panics
/// If the slices do not hold `k = caps.len()` matrices and
/// `out.len() / k` candidates of one dimension.
#[inline]
pub fn project_run(p: Projection<'_>, out: &mut [f32]) {
    (active().project_run)(p, out)
}

/// Add, per lane, the live candidates of `scan` that beat the lane's bound
/// to `counts` — [`l1_beats`] of every live (lane, candidate) pair,
/// dispatched once for the whole list. The wide bodies broadcast each
/// candidate element against all sixteen queries and decide the lanes at
/// once, so no candidate is transposed and no lane combines horizontally.
///
/// # Panics
/// If the table does not hold whole `d`-wide rows or a candidate id lies
/// past it.
#[inline]
pub fn lanes_beats(scan: LaneScan<'_>, counts: &mut [usize; QUERY_LANES]) {
    (active().lanes_beats)(scan, counts)
}

/// Append to `survivors` each candidate of `p` with the live lanes
/// `QuantScanTable::prunes` cannot rule it out for (candidates kept in no
/// lane are left out); returns how many live (candidate, lane) pairs it
/// counted. The wide bodies take one `vpsadbw` per eight queries and
/// eight candidate bytes, the bytes broadcast.
///
/// # Panics
/// If a candidate id lies past the table.
#[inline]
pub fn lanes_prune(p: PruneLanes<'_>, survivors: &mut Vec<(u32, u16)>) -> u64 {
    (active().lanes_prune)(p, survivors)
}

/// The lanes set in `mask`, ascending.
fn lanes(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let s = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (s < QUERY_LANES).then_some(s)
    })
}

/// The reflected IEEE CRC32 polynomial `P` (without its `x³²` term).
const CRC_POLY: u32 = 0xEDB8_8320;

/// `xⁿ mod P` in the reflected representation (bit 31 is `x⁰`, bit 0 is
/// `x³¹`): start from `1` and multiply by `x` — a right shift, reduced by
/// `P` whenever `x³¹` would become `x³²` — `n` times.
pub const fn crc_xpow_mod_p(n: u32) -> u32 {
    let mut c = 0x8000_0000u32;
    let mut i = 0;
    while i < n {
        c = if c & 1 != 0 {
            (c >> 1) ^ CRC_POLY
        } else {
            c >> 1
        };
        i += 1;
    }
    c
}

/// The folding kernel's multipliers `[k1, k2, k3, k4]`, derived from `P`.
///
/// A 128-bit register of message bytes is `L(x)·x⁶⁴ + H(x)` (low qword =
/// earlier bytes = higher powers). Moving it `D` bits up the message
/// multiplies it by `x^D`, and modulo `P`
/// `L·x^(D+64) + H·x^D ≡ L·(x^(D+64) mod P) + H·(x^D mod P)` — two
/// carry-less multiplies whose 96-bit products fit the register. A 32-bit
/// reflected remainder sitting in a 64-bit operand reads as `r(x)·x³²`, and
/// a carry-less multiply of two reflected operands lands one bit low
/// (`×x`), which the `<< 1` pre-shift cancels (`÷x`); so the operand for
/// `x^e` is `(x^(e−32) mod P) << 1`. `k1`/`k2` fold across the four
/// registers of a 64-byte step (`D = 512`), `k3`/`k4` across one
/// (`D = 128`).
pub const CRC_FOLD_KEYS: [u64; 4] = [
    (crc_xpow_mod_p(4 * 128 + 32) as u64) << 1,
    (crc_xpow_mod_p(4 * 128 - 32) as u64) << 1,
    (crc_xpow_mod_p(128 + 32) as u64) << 1,
    (crc_xpow_mod_p(128 - 32) as u64) << 1,
];

/// `Σ_i |a[i] − b[i]|` in index order — the crate's single serial L1
/// distance, **pinned to scalar** (see the module docs): its contract is
/// bit-identity with `PkgmModel::score_relation`'s serial sum, which no
/// vectorization can preserve. The trainer, the evaluation baselines and
/// serving's tail completion share this one implementation.
#[inline]
pub fn l1_dist(a: &[f32], b: &[f32]) -> f32 {
    let mut s = 0.0;
    for i in 0..a.len() {
        s += (a[i] - b[i]).abs();
    }
    s
}

/// Row `i` of a row-major table of `d`-wide rows.
#[inline]
fn row(rows: &[f32], d: usize, i: usize) -> &[f32] {
    &rows[i * d..(i + 1) * d]
}

impl RunScan<'_> {
    /// Candidates in the run, after checking every slice against the
    /// query's length — what makes the vector bodies' unchecked row
    /// loads sound.
    fn checked_len(&self) -> usize {
        assert_eq!(
            self.a.len(),
            self.b.len(),
            "translation operands differ in length"
        );
        assert_eq!(
            self.rows.len(),
            self.extra.len() * self.a.len(),
            "run rows must be n × d"
        );
        self.extra.len()
    }
}

impl LaneScan<'_> {
    /// The query length `d`, after checking the table holds whole `d`-wide
    /// rows.
    fn checked_dim(&self) -> usize {
        let d = self.x.len();
        assert!(
            d == 0 || self.table.len().is_multiple_of(d),
            "table must be whole d-wide rows"
        );
        d
    }

    /// Candidate `id`'s row.
    ///
    /// # Panics
    /// If the row lies past the table.
    #[inline]
    fn row(&self, id: u32, d: usize) -> &[f32] {
        let start = id as usize * d;
        &self.table[start..start + d]
    }
}

impl Projection<'_> {
    /// `(n, d)`, after checking every slice against `k = caps.len()`
    /// matrices and `out_len = k·n` residuals — what makes the vector
    /// bodies' unchecked loads sound.
    fn checked_shape(&self, out_len: usize) -> (usize, usize) {
        let k = self.caps.len();
        if k == 0 {
            assert_eq!(out_len, 0, "no matrices, so no residuals");
            return (0, 0);
        }
        let (n, d) = (out_len / k, self.rs.len() / k);
        assert_eq!(out_len, k * n, "out must hold k × n residuals");
        assert_eq!(self.rs.len(), k * d, "relation rows must be k × d");
        assert_eq!(
            self.ms.len(),
            k * d * d,
            "transfer matrices must be k × d × d"
        );
        assert_eq!(self.hs.len(), n * d, "candidate rows must be n × d");
        (n, d)
    }

    /// Matrix `i`'s `(M, r, cap)`.
    #[inline]
    fn matrix(&self, i: usize, d: usize) -> (&[f32], &[f32], f32) {
        (row(self.ms, d * d, i), row(self.rs, d, i), self.caps[i])
    }
}

// ---------------------------------------------------------------------------
// Loop bodies compiled once per level
// ---------------------------------------------------------------------------

/// The [`kernel_dot`] a [`LevelBody`] runs per matrix row, fixed at
/// compile time: [`scalar::kernel_dot`] at [`SimdLevel::Scalar`], the AVX2
/// body, inlined, at both wide levels. Same function, same lane order.
pub(crate) trait RowDot {
    /// [`kernel_dot`] of `a` and `b`.
    fn dot(a: &[f32], b: &[f32]) -> f32;
}

impl RowDot for scalar::Dot {
    #[inline(always)]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        scalar::kernel_dot(a, b)
    }
}

/// A hot loop that has no dispatch-table entry, written once: [`at_level`]
/// runs [`LevelBody::run`] inside one `#[target_feature]` wrapper per
/// [`SimdLevel`], so the compiler vectorizes the same source at each
/// level's width. `run` and everything it calls on the hot path must be
/// `#[inline(always)]`: a function that is not inlined into the wrapper
/// runs at baseline width.
pub(crate) trait LevelBody {
    /// What the loop returns.
    type Output;
    /// The loop, with `D` its per-row dot.
    fn run<D: RowDot>(self) -> Self::Output;
}

/// Run `body` compiled for `table`'s level, never above what the host has
/// ([`SimdDispatch::detected`]): the baseline build at scalar (also the
/// `PKGM_FORCE_SCALAR` path), with `avx2` enabled at AVX2, and with
/// `avx2,avx512f,avx512bw` at AVX-512 — only the features `detected`
/// checks. Every level computes the same bits: a body's loops are
/// elementwise (one multiply, then one add, per element), its serial folds
/// stay serial because the compiler never reassociates them, rustc never
/// contracts a multiply and an add into an FMA, packed `sqrt` and `div`
/// round like their scalar forms, and [`RowDot`] keeps `kernel_dot`'s lane
/// order (DESIGN.md §12).
pub(crate) fn at_level<B: LevelBody>(table: &SimdDispatch, body: B) -> B::Output {
    #[cfg(target_arch = "x86_64")]
    match table.level.min(SimdDispatch::detected().level) {
        // SAFETY: `detected` found every feature the wrapper enables.
        SimdLevel::Avx512 => return unsafe { x86::at_avx512(body) },
        SimdLevel::Avx2 => return unsafe { x86::at_avx2(body) },
        SimdLevel::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = table;
    body.run::<scalar::Dot>()
}

// ---------------------------------------------------------------------------
// Scalar twins (the portable contract arithmetic)
// ---------------------------------------------------------------------------

/// The portable scalar twins — one per primitive, the contract arithmetic
/// every SIMD path must reproduce bit-for-bit. These are the bodies the
/// pre-SIMD kernels used verbatim (`kernels.rs` / `eval_kernels.rs` /
/// `quant.rs` now route here), kept `pub` so parity tests and benches can
/// name them explicitly.
pub mod scalar {
    use super::{LaneScan, Projection, PruneLanes, PruneRun, RunScan, EXIT_STRIDE, QUERY_LANES};

    /// [`super::RowDot`] by [`kernel_dot`]: the scalar level's row dot.
    pub(crate) struct Dot;

    /// The fixed tree-shaped lane combine shared by every eight-lane
    /// primitive (and reproduced by the SIMD horizontal reductions).
    #[inline]
    pub fn combine8(acc: &[f32; 8]) -> f32 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    /// The eight-lane blocked order every per-candidate twin shares:
    /// `acc[j] += term(chunk, j)` per chunk of eight, in chunk order; with
    /// `exit = Some((extra, bound))`, `None` as soon as `combine8 + extra`
    /// reaches `bound` at an [`EXIT_STRIDE`] check; then the serial tail
    /// over the `rest_len` elements of `rest`, and `combine8 + tail`.
    #[inline(always)]
    fn fold8<C>(
        chunks: impl Iterator<Item = C>,
        (rest, rest_len): (C, usize),
        term: impl Fn(&C, usize) -> f32,
        exit: Option<(f32, f32)>,
    ) -> Option<f32> {
        let mut acc = [0.0f32; 8];
        for (c, chunk) in chunks.enumerate() {
            for (j, acc) in acc.iter_mut().enumerate() {
                *acc += term(&chunk, j);
            }
            if let Some((extra, bound)) = exit {
                if (c + 1) % EXIT_STRIDE == 0 && combine8(&acc) + extra >= bound {
                    return None;
                }
            }
        }
        let mut tail = 0.0f32;
        for j in 0..rest_len {
            tail += term(&rest, j);
        }
        Some(combine8(&acc) + tail)
    }

    /// Scalar twin of [`super::kernel_dot`], over the slices' common
    /// length (as every primitive here).
    #[inline]
    pub fn kernel_dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, b) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
        let rest = ((a.remainder(), b.remainder()), n % 8);
        fold8(a.zip(b), rest, |(a, b), j| a[j] * b[j], None)
            .expect("runs to the end without a bound")
    }

    /// [`fold8`] of `|a − b|`.
    #[inline(always)]
    fn l1(a: &[f32], b: &[f32], exit: Option<(f32, f32)>) -> Option<f32> {
        let n = a.len().min(b.len());
        let (a, b) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
        let rest = ((a.remainder(), b.remainder()), n % 8);
        fold8(a.zip(b), rest, |(a, b), j| (a[j] - b[j]).abs(), exit)
    }

    /// [`fold8`] of `|h + r − t|`.
    #[inline(always)]
    fn translation(h: &[f32], r: &[f32], t: &[f32], exit: Option<(f32, f32)>) -> Option<f32> {
        let n = h.len().min(r.len()).min(t.len());
        let [h, r, t] = [h, r, t].map(|x| x[..n].chunks_exact(8));
        let rest = ((h.remainder(), r.remainder(), t.remainder()), n % 8);
        let chunks = h.zip(r).zip(t).map(|((h, r), t)| (h, r, t));
        fold8(
            chunks,
            rest,
            |(h, r, t), j| (h[j] + r[j] - t[j]).abs(),
            exit,
        )
    }

    /// Scalar twin of [`super::blocked_l1`].
    #[inline]
    pub fn blocked_l1(a: &[f32], b: &[f32]) -> f32 {
        l1(a, b, None).expect("runs to the end without a bound")
    }

    /// Scalar twin of [`super::blocked_l1_translation`].
    #[inline]
    pub fn blocked_l1_translation(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        translation(h, r, t, None).expect("runs to the end without a bound")
    }

    /// Scalar twin of [`super::l1_beats`].
    #[inline]
    pub fn l1_beats(a: &[f32], b: &[f32], extra: f32, bound: f32) -> bool {
        l1(a, b, Some((extra, bound))).is_some_and(|l1| l1 + extra < bound)
    }

    /// Scalar twin of [`super::translation_beats`].
    #[inline]
    pub fn translation_beats(h: &[f32], r: &[f32], t: &[f32], extra: f32, bound: f32) -> bool {
        translation(h, r, t, Some((extra, bound))).is_some_and(|l1| l1 + extra < bound)
    }

    /// Scalar twin of [`super::run_beats`]: [`translation_beats`] on every
    /// row.
    pub fn run_beats(scan: RunScan<'_>, bound: f32) -> usize {
        let d = scan.a.len();
        scan.checked_len();
        scan.extra
            .iter()
            .enumerate()
            .filter(|&(i, &e)| {
                translation_beats(super::row(scan.rows, d, i), scan.a, scan.b, e, bound)
            })
            .count()
    }

    /// Scalar twin of [`super::lanes_beats`], and its contract:
    /// [`l1_beats`] of each lane's query against every candidate live in
    /// that lane.
    pub fn lanes_beats(scan: LaneScan<'_>, counts: &mut [usize; QUERY_LANES]) {
        let d = scan.checked_dim();
        let queries: Vec<Vec<f32>> = (0..QUERY_LANES)
            .map(|s| scan.x.iter().map(|e| e.0[s]).collect())
            .collect();
        for &(id, live) in scan.cands {
            let row = scan.row(id, d);
            for s in super::lanes(live) {
                counts[s] += usize::from(l1_beats(&queries[s], row, 0.0, scan.bounds[s]));
            }
        }
    }

    /// Scalar twin of [`super::lanes_prune`]: `QuantScanTable::prunes`
    /// per live (candidate, lane) pair, block sums by [`sad_i8`].
    pub fn lanes_prune(p: PruneLanes<'_>, survivors: &mut Vec<(u32, u16)>) -> u64 {
        p.survivors_with(survivors, sad_i8)
    }

    /// The contract of [`super::project_run`]: per (matrix, candidate),
    /// each matrix row's dot (the level's [`kernel_dot`]) minus `r_row`,
    /// absolute values summed serially in row order, the matrix's cap
    /// checked after every row.
    #[inline]
    pub(crate) fn project_run_by(
        p: Projection<'_>,
        out: &mut [f32],
        dot: impl Fn(&[f32], &[f32]) -> f32,
    ) {
        let (n, d) = p.checked_shape(out.len());
        for (i, out) in out.chunks_exact_mut(n.max(1)).enumerate() {
            let (m, r, cap) = p.matrix(i, d);
            for (c, o) in out.iter_mut().enumerate() {
                let h = super::row(p.hs, d, c);
                let mut res = 0.0f32;
                *o = 'rows: {
                    for (k, &rk) in r.iter().enumerate() {
                        res += (dot(super::row(m, d, k), h) - rk).abs();
                        if res >= cap {
                            break 'rows f32::INFINITY;
                        }
                    }
                    res
                };
            }
        }
    }

    /// Scalar twin of [`super::project_run`]: [`kernel_dot`] per row.
    pub fn project_run(p: Projection<'_>, out: &mut [f32]) {
        project_run_by(p, out, kernel_dot)
    }

    /// Scalar twin of [`super::prune_run`]: `QuantScanTable::prunes` per
    /// candidate, block sums by [`sad_i8`].
    pub fn prune_run(run: PruneRun<'_>, survivors: &mut Vec<u32>) -> u64 {
        run.survivors_with(survivors, sad_i8)
    }

    /// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
    /// table (`crc` of the single byte `i`), and `CRC_TABLES[k][i]` is that
    /// byte's contribution after `k` further zero bytes, so eight input
    /// bytes are absorbed with eight independent lookups.
    static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

    const fn build_crc_tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 {
                    super::CRC_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    }

    /// The table-driven bytewise CRC32 state update — the textbook
    /// definition the faster kernels are checked against, and the tail
    /// loop of [`crc32_update`].
    #[inline]
    pub fn crc32_update_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// Scalar twin of [`super::crc32_update`]: slice-by-8, then the
    /// bytewise loop over the last `len % 8` bytes.
    pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
        let t = &CRC_TABLES;
        let mut c = state;
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        crc32_update_bytewise(c, chunks.remainder())
    }

    /// Scalar twin of [`super::sad_i8`]: block sums fit u32 trivially
    /// (the scan blocks are ≤ 32 bytes of ≤ 254 each); `u8::abs_diff`
    /// keeps the lanes narrow for the autovectorizer.
    #[inline]
    pub fn sad_i8(a: &[i8], b: &[i8]) -> u32 {
        let mut d = 0u32;
        for (&x, &y) in a.iter().zip(b) {
            d += x.abs_diff(y) as u32;
        }
        d
    }
}

// ---------------------------------------------------------------------------
// x86-64 SIMD implementations
// ---------------------------------------------------------------------------

/// AVX2 and AVX-512 implementations. Every `unsafe` target-feature function
/// performs the identical per-lane IEEE-754 operations in the identical
/// order as its scalar twin (see the module docs); the safe entry wrappers
/// are only ever installed in a dispatch table after
/// `is_x86_feature_detected!` confirmed the feature, which is what makes
/// the calls sound.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        scalar, LaneScan, Projection, PruneLanes, PruneRun, RunScan, SimdDispatch, SimdLevel,
        CRC_FOLD_KEYS, EXIT_STRIDE, QUERY_LANES,
    };
    use crate::quant::SUM_SHAVE;
    use core::arch::x86_64::*;

    pub(super) static AVX2: SimdDispatch = SimdDispatch {
        level: SimdLevel::Avx2,
        kernel_dot: |a, b| unsafe { kernel_dot_avx2(a, b) },
        blocked_l1: |a, b| unsafe { blocked_l1_avx2(a, b) },
        blocked_l1_translation: |h, r, t| unsafe { blocked_l1_translation_avx2(h, r, t) },
        l1_beats: |a, b, extra, bound| unsafe { l1_beats_avx2(a, b, extra, bound) },
        translation_beats: |h, r, t, extra, bound| unsafe {
            translation_beats_avx2(h, r, t, extra, bound)
        },
        sad_i8: |a, b| unsafe { sad_i8_avx2(a, b) },
        // `SimdDispatch::detected` swaps in `crc32_fold` where the host
        // has `pclmulqdq`, which AVX2 does not imply.
        crc32_update: scalar::crc32_update,
        // SAFETY (all five): this table is only handed out after
        // `is_x86_feature_detected!("avx2")`, the bodies' one requirement.
        run_beats: |scan, bound| unsafe { run_beats_avx2(scan, bound) },
        prune_run: |run, survivors| unsafe { prune_run_avx2(run, survivors) },
        project_run: |p, out| unsafe { project_run_avx2(p, out) },
        lanes_beats: |scan, counts| unsafe { lanes_beats_avx2(scan, counts) },
        lanes_prune: |p, survivors| unsafe { lanes_prune_avx2(p, survivors) },
    };

    /// The AVX2 table with the 512-bit lane entries.
    pub(super) static AVX512: SimdDispatch = SimdDispatch {
        level: SimdLevel::Avx512,
        // SAFETY (all three): this table is only handed out after
        // `is_x86_feature_detected!` confirmed `avx512f` and `avx512bw`
        // (and `avx2`).
        project_run: |p, out| unsafe { project_run_avx512(p, out) },
        lanes_beats: |scan, counts| unsafe { lanes_beats_avx512(scan, counts) },
        lanes_prune: |p, survivors| unsafe { lanes_prune_avx512(p, survivors) },
        ..AVX2
    };

    /// [`super::RowDot`] by the AVX2 `kernel_dot` body. Private to this
    /// module: only [`at_avx2`] and [`at_avx512`] instantiate a body with
    /// it, and both run with AVX2 enabled.
    struct Avx2Dot;

    impl super::RowDot for Avx2Dot {
        #[inline(always)]
        fn dot(a: &[f32], b: &[f32]) -> f32 {
            // SAFETY: inlined only into `at_avx2` / `at_avx512`, which
            // enable AVX2.
            unsafe { kernel_dot_body(a, b) }
        }
    }

    /// `body` compiled with AVX2.
    ///
    /// # Safety
    /// AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn at_avx2<B: super::LevelBody>(body: B) -> B::Output {
        body.run::<Avx2Dot>()
    }

    /// `body` compiled with AVX-512 (the row dot stays the AVX2 body: a
    /// 512-bit register would change its lane order).
    ///
    /// # Safety
    /// AVX2, AVX-512F and AVX-512BW.
    #[target_feature(enable = "avx2,avx512f,avx512bw")]
    pub(super) unsafe fn at_avx512<B: super::LevelBody>(body: B) -> B::Output {
        body.run::<Avx2Dot>()
    }

    /// Clear the sign bit of every lane — bit-identical to `f32::abs`
    /// per lane (NaN payloads included).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn abs256(v: __m256) -> __m256 {
        _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)))
    }

    /// The scalar fixed tree combine of the eight lanes, in registers:
    /// `hadd` twice leaves `(a₀+a₁)+(a₂+a₃)` in the low half and
    /// `(a₄+a₅)+(a₆+a₇)` in the high half, one add joins them —
    /// `scalar::combine8`'s operand order (`hadd` adds `a₁+a₀`, the same
    /// IEEE sum).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn combine256(v: __m256) -> f32 {
        let pairs = _mm256_hadd_ps(v, v);
        let quads = _mm256_hadd_ps(pairs, pairs);
        _mm_cvtss_f32(_mm_add_ss(
            _mm256_castps256_ps128(quads),
            _mm256_extractf128_ps::<1>(quads),
        ))
    }

    /// [`combine256`] of four accumulators at once: lane `k` of the result
    /// is `scalar::combine8` of `v[k]`. Three `hadd`s and one add replace
    /// four separate trees.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn combine256x4(v: [__m256; 4]) -> __m128 {
        // Per 128-bit half: [v0 pairs, v1 pairs] and [v2 pairs, v3 pairs].
        let p01 = _mm256_hadd_ps(v[0], v[1]);
        let p23 = _mm256_hadd_ps(v[2], v[3]);
        // Low half: lane k = (a₀+a₁)+(a₂+a₃) of v[k]; high: (a₄+a₅)+(a₆+a₇).
        let quads = _mm256_hadd_ps(p01, p23);
        _mm_add_ps(
            _mm256_castps256_ps128(quads),
            _mm256_extractf128_ps::<1>(quads),
        )
    }

    /// [`scalar::fold8`] on one `__m256`: lane `j` of `chunk(i)` is the
    /// term of element `i + j`, added per chunk in chunk order; with
    /// `exit = Some((extra, bound))`, `None` as soon as [`combine256`] plus
    /// `extra` reaches `bound` at an [`EXIT_STRIDE`] check; then the serial
    /// `tail(i)` over the last `n % 8` elements, and `combine256 + tail`.
    ///
    /// # Safety
    /// AVX2, which the inlining caller must enable.
    #[inline(always)]
    unsafe fn fold256(
        n: usize,
        chunk: impl Fn(usize) -> __m256,
        tail: impl Fn(usize) -> f32,
        exit: Option<(f32, f32)>,
    ) -> Option<f32> {
        let mut acc = _mm256_setzero_ps();
        for c in 0..n / 8 {
            acc = _mm256_add_ps(acc, chunk(c * 8));
            if let Some((extra, bound)) = exit {
                if (c + 1) % EXIT_STRIDE == 0 && combine256(acc) + extra >= bound {
                    return None;
                }
            }
        }
        let mut rest = 0.0f32;
        for i in n / 8 * 8..n {
            rest += tail(i);
        }
        Some(combine256(acc) + rest)
    }

    /// The AVX2 `kernel_dot`, always inlined: the wide
    /// [`super::at_level`] wrappers run it in place of one dispatched call
    /// per projection row.
    ///
    /// # Safety
    /// AVX2, which the inlining caller must enable.
    #[inline(always)]
    unsafe fn kernel_dot_body(a: &[f32], b: &[f32]) -> f32 {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let chunk = |i| _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        fold256(a.len().min(b.len()), chunk, |i| a[i] * b[i], None)
            .expect("runs to the end without a bound")
    }

    /// [`fold256`] of `|a − b|`.
    ///
    /// # Safety
    /// AVX2, which the inlining caller must enable.
    #[inline(always)]
    unsafe fn l1(a: &[f32], b: &[f32], exit: Option<(f32, f32)>) -> Option<f32> {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let chunk = |i| {
            abs256(_mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i)),
                _mm256_loadu_ps(pb.add(i)),
            ))
        };
        fold256(a.len().min(b.len()), chunk, |i| (a[i] - b[i]).abs(), exit)
    }

    /// [`fold256`] of `|h + r − t|`.
    ///
    /// # Safety
    /// AVX2, which the inlining caller must enable.
    #[inline(always)]
    unsafe fn translation(
        h: &[f32],
        r: &[f32],
        t: &[f32],
        exit: Option<(f32, f32)>,
    ) -> Option<f32> {
        let (ph, pr, pt) = (h.as_ptr(), r.as_ptr(), t.as_ptr());
        let chunk = |i| {
            let sum = _mm256_add_ps(_mm256_loadu_ps(ph.add(i)), _mm256_loadu_ps(pr.add(i)));
            abs256(_mm256_sub_ps(sum, _mm256_loadu_ps(pt.add(i))))
        };
        let n = h.len().min(r.len()).min(t.len());
        fold256(n, chunk, |i| (h[i] + r[i] - t[i]).abs(), exit)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn kernel_dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        kernel_dot_body(a, b)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn blocked_l1_avx2(a: &[f32], b: &[f32]) -> f32 {
        l1(a, b, None).expect("runs to the end without a bound")
    }

    #[target_feature(enable = "avx2")]
    unsafe fn blocked_l1_translation_avx2(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        translation(h, r, t, None).expect("runs to the end without a bound")
    }

    #[target_feature(enable = "avx2")]
    unsafe fn l1_beats_avx2(a: &[f32], b: &[f32], extra: f32, bound: f32) -> bool {
        l1(a, b, Some((extra, bound))).is_some_and(|l1| l1 + extra < bound)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn translation_beats_avx2(
        h: &[f32],
        r: &[f32],
        t: &[f32],
        extra: f32,
        bound: f32,
    ) -> bool {
        translation(h, r, t, Some((extra, bound))).is_some_and(|l1| l1 + extra < bound)
    }

    /// `Σ |a − b|` over i8 via `vpsadbw`: XOR with `0x80` biases both
    /// operands into u8 (translation-invariant for `|a − b|`), then the
    /// unsigned SAD instruction sums 32 absolute differences into four
    /// u64 lanes per step. Integer arithmetic — exact in any order.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sad_i8_avx2(a: &[i8], b: &[i8]) -> u32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let flip = _mm256_set1_epi8(-128);
        let mut total = 0u64;
        let mut i = 0usize;
        while i + 32 <= n {
            let va = _mm256_loadu_si256(pa.add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(pb.add(i) as *const __m256i);
            let sad = _mm256_sad_epu8(_mm256_xor_si256(va, flip), _mm256_xor_si256(vb, flip));
            let s = _mm_add_epi64(
                _mm256_castsi256_si128(sad),
                _mm256_extracti128_si256::<1>(sad),
            );
            let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
            total += _mm_cvtsi128_si64(s) as u64;
            i += 32;
        }
        let mut rest = 0u32;
        while i < n {
            rest += a[i].abs_diff(b[i]) as u32;
            i += 1;
        }
        total as u32 + rest
    }

    /// Decide four candidates `c[k]` in one pass:
    /// `translation_beats(c[k], a, b, extra[k], bound)`. Every candidate
    /// keeps its own eight-lane accumulator and serial tail; every
    /// [`EXIT_STRIDE`] chunks one [`combine256x4`] checks all four, and the
    /// pass ends once all four are out. A candidate whose `extra` alone
    /// reaches the bound starts out — its L1 part is ≥ 0, so the
    /// comparator would reject it at any check. Returns a 4-bit mask of
    /// the candidates that beat the bound.
    ///
    /// # Safety
    /// AVX2; `a`, `b` and every `c[k]` readable for `d` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn beats4_avx2(
        a: *const f32,
        b: *const f32,
        c: [*const f32; 4],
        d: usize,
        extra: __m128,
        bound: f32,
    ) -> i32 {
        let bound4 = _mm_set1_ps(bound);
        let mut out = _mm_movemask_ps(_mm_cmp_ps::<_CMP_GE_OQ>(extra, bound4));
        if out == 0xF {
            return 0;
        }
        let chunks = d / 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut pending = 0usize;
        for i in 0..chunks {
            let va = _mm256_loadu_ps(a.add(i * 8));
            let vb = _mm256_loadu_ps(b.add(i * 8));
            for (acc, &ck) in acc.iter_mut().zip(&c) {
                let vc = _mm256_loadu_ps(ck.add(i * 8));
                let diff = _mm256_sub_ps(_mm256_add_ps(vc, va), vb);
                *acc = _mm256_add_ps(*acc, abs256(diff));
            }
            pending += 1;
            if pending == EXIT_STRIDE {
                pending = 0;
                let partial = _mm_add_ps(combine256x4(acc), extra);
                out |= _mm_movemask_ps(_mm_cmp_ps::<_CMP_GE_OQ>(partial, bound4));
                if out == 0xF {
                    return 0;
                }
            }
        }
        let mut tail = [0.0f32; 4];
        for (t, &ck) in tail.iter_mut().zip(&c) {
            for i in chunks * 8..d {
                *t += (*ck.add(i) + *a.add(i) - *b.add(i)).abs();
            }
        }
        let total = _mm_add_ps(
            _mm_add_ps(combine256x4(acc), _mm_loadu_ps(tail.as_ptr())),
            extra,
        );
        _mm_movemask_ps(_mm_cmp_ps::<_CMP_LT_OQ>(total, bound4)) & !out
    }

    /// `super::run_beats`: [`beats4_avx2`] over the run four candidates at
    /// a time, the last `n % 4` through the per-candidate bodies.
    ///
    /// # Safety
    /// AVX2. (Every row pointer is within the slices
    /// `RunScan::checked_len` verifies on entry.)
    #[target_feature(enable = "avx2")]
    unsafe fn run_beats_avx2(scan: RunScan<'_>, bound: f32) -> usize {
        let n = scan.checked_len();
        let RunScan { a, b, extra, rows } = scan;
        let d = a.len();
        let p = rows.as_ptr();
        let mut count = 0usize;
        let mut i = 0usize;
        while i + 4 <= n {
            let c = [
                p.add(i * d),
                p.add((i + 1) * d),
                p.add((i + 2) * d),
                p.add((i + 3) * d),
            ];
            let e = _mm_loadu_ps(extra.as_ptr().add(i));
            let beats = beats4_avx2(a.as_ptr(), b.as_ptr(), c, d, e, bound);
            count += beats.count_ones() as usize;
            i += 4;
        }
        for (j, &e) in extra.iter().enumerate().skip(i) {
            count += translation_beats_avx2(super::row(rows, d, j), a, b, e, bound) as usize;
        }
        count
    }

    /// `super::prune_run`. When every block is a full 32 bytes (the
    /// scan tables' block at any `d` that is a multiple of 32) four
    /// candidates go per pass: one `vpsadbw` per candidate and block, one
    /// `hadd` tree turning the four block sums into an `f32x4`, and each
    /// lane then runs `QuantScanTable::prunes`' own f32 sequence — block
    /// sums scaled and added in block order, the shaved total compared
    /// with `(bound − extra + query_err) + row_err` after every block. An
    /// escape row's `+∞` error makes its threshold unreachable, which is
    /// the twin's "never pruned". Other shapes, and the last `n % 4`
    /// candidates, take the contract loop with [`sad_i8_avx2`] inlined.
    ///
    /// # Safety
    /// AVX2. (Every load is within the slices `PruneRun::checked_len`
    /// verifies on entry.)
    #[target_feature(enable = "avx2")]
    unsafe fn prune_run_avx2(run: PruneRun<'_>, survivors: &mut Vec<u32>) -> u64 {
        let n = run.checked_len();
        let d = run.q.len();
        let whole = if run.block == 32 && d.is_multiple_of(32) {
            n / 4 * 4
        } else {
            0
        };
        let flip = _mm256_set1_epi8(-128);
        let bound = _mm_set1_ps(run.bound);
        let query_err = _mm_set1_ps(run.query_err);
        let shave = _mm_set1_ps(SUM_SHAVE);
        let (q, rows) = (run.q.as_ptr(), run.rows.as_ptr());
        let mut candidates = 0u64;
        for i in (0..whole).step_by(4) {
            let (bound, counted) = match run.extra {
                Some(extra) => {
                    let extra = _mm_loadu_ps(extra.as_ptr().add(i));
                    let out = _mm_movemask_ps(_mm_cmp_ps::<_CMP_GE_OQ>(extra, bound));
                    (_mm_sub_ps(bound, extra), !out & 0xF)
                }
                None => (bound, 0xF),
            };
            candidates += u64::from(counted.count_ones());
            let target = _mm_add_ps(
                _mm_add_ps(bound, query_err),
                _mm_loadu_ps(run.row_err.as_ptr().add(i)),
            );
            let mut sum = _mm_setzero_ps();
            let mut pruned = 0;
            for (b, &scale) in run.scales.iter().enumerate() {
                let vq = _mm256_xor_si256(_mm256_loadu_si256(q.add(b * 32).cast()), flip);
                let sad = |k: usize| {
                    let c = _mm256_loadu_si256(rows.add((i + k) * d + b * 32).cast());
                    _mm256_sad_epu8(_mm256_xor_si256(c, flip), vq)
                };
                let (s0, s1, s2, s3) = (sad(0), sad(1), sad(2), sad(3));
                // Each SAD is four u64 partial sums below 2¹⁶; as i32 lanes
                // [p₀, 0, p₁, 0 | p₂, 0, p₃, 0]. Two rounds of `hadd` and a
                // fold of the halves leave candidate k's total in lane k.
                let s = _mm256_hadd_epi32(_mm256_hadd_epi32(s0, s1), _mm256_hadd_epi32(s2, s3));
                let s = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
                sum = _mm_add_ps(sum, _mm_mul_ps(_mm_set1_ps(scale), _mm_cvtepi32_ps(s)));
                let shaved = _mm_sub_ps(sum, _mm_mul_ps(sum, shave));
                pruned |= _mm_movemask_ps(_mm_cmp_ps::<_CMP_GE_OQ>(shaved, target));
                if pruned & counted == counted {
                    break;
                }
            }
            let keep = counted & !pruned;
            for k in 0..4 {
                if keep & (1 << k) != 0 {
                    survivors.push(run.first + (i + k) as u32);
                }
            }
        }
        candidates
            + run
                .skip(whole)
                .survivors_with(survivors, |a, b| sad_i8_avx2(a, b))
    }

    /// A register of f32 lanes — sixteen (`__m512`) or eight (`__m256`) —
    /// over which the lane bodies [`lanes_beats_with`] and
    /// [`lanes_prune_with`] are written once. Mask bit `s` is lane `s`.
    ///
    /// # Safety
    /// Every method needs its impl's CPU features. `load` reads and `store`
    /// writes `N` floats at `p`; `block_sads` reads the four 8-byte groups of `N` queries from
    /// `q` on (groups `8·QUERY_LANES` bytes apart) and 32 bytes at `row`.
    trait F32Lanes: Copy {
        /// Lanes per register.
        const N: usize;
        unsafe fn splat(x: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(self, p: *mut f32);
        unsafe fn add(self, o: Self) -> Self;
        unsafe fn sub(self, o: Self) -> Self;
        unsafe fn mul(self, o: Self) -> Self;
        /// Clear every sign bit (`f32::abs`).
        unsafe fn abs(self) -> Self;
        /// The lanes where the ordered comparison `P` holds (never NaN's).
        unsafe fn cmp<const P: i32>(self, o: Self) -> u16;
        /// Each lane's exact SAD between its query's and the candidate's
        /// 32-byte block, both flipped into u8, as f32.
        unsafe fn block_sads(q: *const u8, row: *const i8) -> Self;
    }

    impl F32Lanes for __m512 {
        const N: usize = 16;
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn add(self, o: Self) -> Self {
            _mm512_add_ps(self, o)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn sub(self, o: Self) -> Self {
            _mm512_sub_ps(self, o)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn mul(self, o: Self) -> Self {
            _mm512_mul_ps(self, o)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn abs(self) -> Self {
            _mm512_abs_ps(self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn cmp<const P: i32>(self, o: Self) -> u16 {
            _mm512_cmp_ps_mask::<P>(self, o)
        }
        /// Per candidate group, broadcast as one u64, one `vpsadbw` against
        /// each 64-byte half of the queries' group (eight queries × eight
        /// bytes); `permutex2var` packs the sixteen sums' low dwords.
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        unsafe fn block_sads(q: *const u8, row: *const i8) -> Self {
            let (mut lo, mut hi) = (_mm512_setzero_si512(), _mm512_setzero_si512());
            for g in 0..4 {
                let c = _mm512_set1_epi64(flipped_group(row, g));
                let qg = q.add(g * 8 * QUERY_LANES);
                lo = _mm512_add_epi64(lo, _mm512_sad_epu8(_mm512_loadu_si512(qg.cast()), c));
                let upper = _mm512_loadu_si512(qg.add(64).cast());
                hi = _mm512_add_epi64(hi, _mm512_sad_epu8(upper, c));
            }
            let pack = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            _mm512_cvtepi32_ps(_mm512_permutex2var_epi32(lo, pack, hi))
        }
    }

    impl F32Lanes for __m256 {
        const N: usize = 8;
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_ps(self, o)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn sub(self, o: Self) -> Self {
            _mm256_sub_ps(self, o)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn mul(self, o: Self) -> Self {
            _mm256_mul_ps(self, o)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn abs(self) -> Self {
            abs256(self)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn cmp<const P: i32>(self, o: Self) -> u16 {
            _mm256_movemask_ps(_mm256_cmp_ps::<P>(self, o)) as u16
        }
        /// Per candidate group, one `vpsadbw` against each 32-byte quarter
        /// of the queries' group (four queries × eight bytes); a shuffle
        /// and a qword permute pack the eight sums' low dwords.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn block_sads(q: *const u8, row: *const i8) -> Self {
            let (mut s0, mut s1) = (_mm256_setzero_si256(), _mm256_setzero_si256());
            for g in 0..4 {
                let c = _mm256_set1_epi64x(flipped_group(row, g));
                let qg = q.add(g * 8 * QUERY_LANES);
                s0 = _mm256_add_epi64(s0, _mm256_sad_epu8(_mm256_loadu_si256(qg.cast()), c));
                let upper = _mm256_loadu_si256(qg.add(32).cast());
                s1 = _mm256_add_epi64(s1, _mm256_sad_epu8(upper, c));
            }
            // Low dwords per 128-bit half: [q0, q1, q4, q5 | q2, q3, q6, q7].
            let lows = _mm256_shuffle_ps::<0b10_00_10_00>(
                _mm256_castsi256_ps(s0),
                _mm256_castsi256_ps(s1),
            );
            let lows = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_castps_si256(lows));
            _mm256_cvtepi32_ps(lows)
        }
    }

    /// Candidate bytes `8g..8g + 8` from `row` on, flipped into u8 and read
    /// as one little-endian u64, ready to broadcast.
    ///
    /// # Safety
    /// `row` readable for `8g + 8` bytes.
    #[inline(always)]
    unsafe fn flipped_group(row: *const i8, g: usize) -> i64 {
        (row.add(8 * g).cast::<u64>().read_unaligned() ^ 0x8080_8080_8080_8080) as i64
    }

    /// `scalar::combine8` of eight registers, lane by lane:
    /// `((a₀+a₁)+(a₂+a₃)) + ((a₄+a₅)+(a₆+a₇))` in seven vertical adds.
    ///
    /// # Safety
    /// `V`'s CPU features.
    #[inline(always)]
    unsafe fn combine8<V: F32Lanes>([a0, a1, a2, a3, a4, a5, a6, a7]: [V; 8]) -> V {
        a0.add(a1).add(a2.add(a3)).add(a4.add(a5).add(a6.add(a7)))
    }

    /// The `live` lanes of one `V` whose query beats its bound against one
    /// candidate `row`: lane `s` performs `scalar::l1_beats(query_s, row,
    /// 0.0, bound_s)` — eight accumulators (`j mod 8`) in chunk order over
    /// `|query − candidate|`; every [`EXIT_STRIDE`] chunks the `combine8`
    /// tree, `+ 0.0` and an ordered `≥ bound` that retires the lane; at the
    /// end `(combine8 + tail) + 0.0 < bound`, ordered. Each candidate
    /// element is broadcast against the lanes, so no lane combines
    /// horizontally.
    ///
    /// # Safety
    /// `V`'s CPU features, and `x` readable for `V::N` floats at
    /// `x + j·QUERY_LANES` for every `j < row.len()`.
    #[inline(always)]
    unsafe fn beats_lanes<V: F32Lanes>(x: *const f32, row: &[f32], bound: V, live: u16) -> u16 {
        let d = row.len();
        let term = |j: usize| V::load(x.add(j * QUERY_LANES)).sub(V::splat(row[j])).abs();
        let zero = V::splat(0.0);
        let mut acc = [zero; 8];
        let mut alive = live;
        for c in 0..d / 8 {
            for (k, acc) in acc.iter_mut().enumerate() {
                *acc = acc.add(term(c * 8 + k));
            }
            if (c + 1) % EXIT_STRIDE == 0 {
                alive &= !combine8(acc).add(zero).cmp::<_CMP_GE_OQ>(bound);
                if alive == 0 {
                    return 0;
                }
            }
        }
        let mut tail = zero;
        for j in d / 8 * 8..d {
            tail = tail.add(term(j));
        }
        alive & combine8(acc).add(tail).add(zero).cmp::<_CMP_LT_OQ>(bound)
    }

    /// The part of `live` lane block `h` (lanes `h..h + N`) covers, shifted
    /// down to bit 0.
    #[inline(always)]
    fn lane_block<V: F32Lanes>(live: u16, h: usize) -> u16 {
        ((u32::from(live) >> h) & ((1 << V::N) - 1)) as u16
    }

    /// `super::lanes_beats`, the sixteen queries as `16 / V::N` registers of
    /// lanes decided one after the other ([`beats_lanes`]); a register with
    /// no live lane is skipped.
    ///
    /// # Safety
    /// `V`'s CPU features. (The query loads stay within the `d` rows of
    /// `scan.x`.)
    #[inline(always)]
    unsafe fn lanes_beats_with<V: F32Lanes>(scan: LaneScan<'_>, counts: &mut [usize; QUERY_LANES]) {
        let d = scan.checked_dim();
        let x = scan.x.as_ptr().cast::<f32>();
        for &(id, live) in scan.cands {
            let row = scan.row(id, d);
            for h in (0..QUERY_LANES).step_by(V::N) {
                let block = lane_block::<V>(live, h);
                if block != 0 {
                    let bound = V::load(scan.bounds.as_ptr().add(h));
                    let beats = beats_lanes::<V>(x.add(h), row, bound, block);
                    for s in super::lanes(beats << h) {
                        counts[s] += 1;
                    }
                }
            }
        }
    }

    /// `super::lanes_prune`, `V::N` queries per register: per 32-byte block
    /// [`F32Lanes::block_sads`], then each lane runs
    /// `QuantScanTable::prunes`' own f32 sequence — `sum = sum + scale·sad`
    /// and the ordered `sum − sum·SUM_SHAVE ≥ (bound + query_err) +
    /// row_err` — until every live lane is pruned. Escape rows
    /// (`row_err = +∞`) are kept in every live lane unscanned. Shapes other
    /// than 32-byte blocks over `d % 32 = 0` take the contract loop.
    ///
    /// # Safety
    /// `V`'s CPU features and AVX2. (Row reads stay within the rows
    /// `PruneLanes::row` returns, query reads within the groups
    /// `PruneLanes::checked_dim` verifies.)
    #[inline(always)]
    unsafe fn lanes_prune_with<V: F32Lanes>(
        p: PruneLanes<'_>,
        survivors: &mut Vec<(u32, u16)>,
    ) -> u64 {
        let d = p.checked_dim();
        if p.block() != 32 || !d.is_multiple_of(32) {
            return p.survivors_with(survivors, |a, b| sad_i8_avx2(a, b));
        }
        let q = p.query_bytes().as_ptr().cast::<u8>();
        let shave = V::splat(SUM_SHAVE);
        let mut counted = 0u64;
        for &(id, live) in p.cands() {
            let (row, row_err) = p.row(id);
            counted += u64::from(live.count_ones());
            if row_err == f32::INFINITY {
                if live != 0 {
                    survivors.push((id, live));
                }
                continue;
            }
            let mut keep = 0;
            for h in (0..QUERY_LANES).step_by(V::N) {
                let block = lane_block::<V>(live, h);
                if block == 0 {
                    continue;
                }
                let target = V::load(p.targets().as_ptr().add(h)).add(V::splat(row_err));
                let mut sum = V::splat(0.0);
                let mut pruned = 0;
                for (b, &scale) in p.scales().iter().enumerate() {
                    let qb = q.add(b * 32 * QUERY_LANES + 8 * h);
                    sum = sum.add(V::splat(scale).mul(V::block_sads(qb, row.as_ptr().add(32 * b))));
                    pruned |= sum.sub(sum.mul(shave)).cmp::<_CMP_GE_OQ>(target);
                    if pruned & block == block {
                        break;
                    }
                }
                keep |= (block & !pruned) << h;
            }
            if keep != 0 {
                survivors.push((id, keep));
            }
        }
        counted
    }

    /// Capped residuals `‖M·h_c − r‖₁` of a lane-major block of `V::N`
    /// candidates (`x[j·N + c]` is element `j` of candidate `c`), one per
    /// lane. Per row a lane runs `kernel_dot` (accumulator `j mod 8` in
    /// chunk order, the [`combine8`] tree, `+ tail`), then the serial
    /// residual and the ordered `res ≥ cap` (never true for NaN) into a
    /// sticky mask, until every `live` lane is out. Returns the residuals
    /// and that mask. No lane combines horizontally.
    ///
    /// # Safety
    /// `V`'s CPU features; `m` readable for `d × d` floats and `x` for
    /// `N·d`, `d = r.len()`.
    #[inline(always)]
    unsafe fn residuals_lanes<V: F32Lanes>(
        m: *const f32,
        r: &[f32],
        cap: f32,
        x: *const f32,
        live: u16,
    ) -> (V, u16) {
        let d = r.len();
        let zero = V::splat(0.0);
        let mut res = zero;
        let mut out = 0;
        for (row, &rk) in r.iter().enumerate() {
            let m = m.add(row * d);
            let term = |j: usize| V::splat(*m.add(j)).mul(V::load(x.add(j * V::N)));
            let mut acc = [zero; 8];
            for c in 0..d / 8 {
                for (k, acc) in acc.iter_mut().enumerate() {
                    *acc = acc.add(term(c * 8 + k));
                }
            }
            let mut tail = zero;
            for j in d / 8 * 8..d {
                tail = tail.add(term(j));
            }
            res = res.add(combine8(acc).add(tail).sub(V::splat(rk)).abs());
            out |= res.cmp::<_CMP_GE_OQ>(V::splat(cap));
            if out & live == live {
                break;
            }
        }
        (res, out)
    }

    /// `super::project_run` with `V::N` candidates in the lanes: each block
    /// is copied once into lane-major scratch and every matrix runs over it
    /// ([`residuals_lanes`]); a lane out at its cap stores `+∞`, and a last
    /// block of fewer than `N` stores only its own lanes.
    ///
    /// # Safety
    /// `V`'s CPU features. (Every load is within the slices
    /// `Projection::checked_shape` verifies on entry.)
    #[inline(always)]
    unsafe fn project_lanes<V: F32Lanes>(p: Projection<'_>, out: &mut [f32]) {
        let (n, d) = p.checked_shape(out.len());
        let mut x = vec![0.0f32; V::N * d];
        let mut lanes = [0.0f32; QUERY_LANES];
        for c0 in (0..n).step_by(V::N) {
            let width = (n - c0).min(V::N);
            for c in 0..width {
                for (j, &h) in super::row(p.hs, d, c0 + c).iter().enumerate() {
                    x[j * V::N + c] = h;
                }
            }
            let live = ((1u32 << width) - 1) as u16;
            for i in 0..p.caps.len() {
                let (m, r, cap) = p.matrix(i, d);
                let (res, capped) = residuals_lanes::<V>(m.as_ptr(), r, cap, x.as_ptr(), live);
                res.store(lanes.as_mut_ptr());
                for s in super::lanes(capped) {
                    lanes[s] = f32::INFINITY;
                }
                out[i * n + c0..][..width].copy_from_slice(&lanes[..width]);
            }
        }
    }

    /// `super::project_run` on AVX2: eight candidates per register.
    ///
    /// # Safety
    /// AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn project_run_avx2(p: Projection<'_>, out: &mut [f32]) {
        project_lanes::<__m256>(p, out)
    }

    /// `super::project_run` with sixteen candidates in one register.
    ///
    /// # Safety
    /// AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn project_run_avx512(p: Projection<'_>, out: &mut [f32]) {
        project_lanes::<__m512>(p, out)
    }

    /// `super::lanes_beats` on AVX2: two halves of eight lanes.
    ///
    /// # Safety
    /// AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_beats_avx2(scan: LaneScan<'_>, counts: &mut [usize; QUERY_LANES]) {
        lanes_beats_with::<__m256>(scan, counts)
    }

    /// `super::lanes_prune` on AVX2: two halves of eight lanes.
    ///
    /// # Safety
    /// AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_prune_avx2(p: PruneLanes<'_>, survivors: &mut Vec<(u32, u16)>) -> u64 {
        lanes_prune_with::<__m256>(p, survivors)
    }

    /// `super::lanes_beats` with the sixteen lanes in one register.
    ///
    /// # Safety
    /// AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn lanes_beats_avx512(scan: LaneScan<'_>, counts: &mut [usize; QUERY_LANES]) {
        lanes_beats_with::<__m512>(scan, counts)
    }

    /// `super::lanes_prune` with the sixteen lanes in one register.
    ///
    /// # Safety
    /// AVX-512F and AVX-512BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn lanes_prune_avx512(p: PruneLanes<'_>, survivors: &mut Vec<(u32, u16)>) -> u64 {
        lanes_prune_with::<__m512>(p, survivors)
    }

    /// Multiply both qwords of `x` up the message by the distance `keys`
    /// encodes (see [`CRC_FOLD_KEYS`]) and add them: the result is
    /// congruent, modulo the CRC polynomial, to `x` shifted that far.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(x: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, keys),
            _mm_clmulepi64_si128::<0x11>(x, keys),
        )
    }

    /// Unaligned load of `block[..16]`.
    ///
    /// # Panics
    /// If `block` is shorter than 16 bytes.
    #[inline]
    fn load16(block: &[u8]) -> __m128i {
        let lane: &[u8; 16] = block.first_chunk().expect("a whole 16-byte lane");
        // SAFETY: `lane` is 16 readable bytes, the load has no alignment
        // requirement, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// CRC32 state update by carry-less-multiply folding: four 128-bit
    /// registers absorb 64 bytes per iteration, fold into one, absorb the
    /// remaining whole 16-byte blocks, and the last register — 16 bytes
    /// congruent to everything consumed so far — goes through the scalar
    /// twin from a zero state, which performs the final reduction. The
    /// tail (< 16 bytes) and inputs under 64 bytes are the scalar twin's.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` (SSE2 is baseline on x86-64).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn crc32_fold(state: u32, bytes: &[u8]) -> u32 {
        let mut steps = bytes.chunks_exact(64);
        let Some(first) = steps.next() else {
            return scalar::crc32_update(state, bytes);
        };
        let [k1, k2, k3, k4] = CRC_FOLD_KEYS;
        // The running state enters exactly as the scalar twin's first
        // step takes it in: XORed into the first four message bytes.
        let mut x0 = _mm_xor_si128(load16(first), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load16(&first[16..]);
        let mut x2 = load16(&first[32..]);
        let mut x3 = load16(&first[48..]);
        let by_64 = _mm_set_epi64x(k2 as i64, k1 as i64);
        for step in &mut steps {
            x0 = _mm_xor_si128(fold(x0, by_64), load16(step));
            x1 = _mm_xor_si128(fold(x1, by_64), load16(&step[16..]));
            x2 = _mm_xor_si128(fold(x2, by_64), load16(&step[32..]));
            x3 = _mm_xor_si128(fold(x3, by_64), load16(&step[48..]));
        }
        let by_16 = _mm_set_epi64x(k4 as i64, k3 as i64);
        let mut x = _mm_xor_si128(fold(x0, by_16), x1);
        x = _mm_xor_si128(fold(x, by_16), x2);
        x = _mm_xor_si128(fold(x, by_16), x3);
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = _mm_xor_si128(fold(x, by_16), load16(block));
        }
        let mut last = [0u8; 16];
        // 16 writable bytes; the store has no alignment requirement.
        _mm_storeu_si128(last.as_mut_ptr().cast(), x);
        scalar::crc32_update(scalar::crc32_update(0, &last), blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_parsing() {
        use std::ffi::OsStr;
        assert!(!force_scalar_value(None));
        assert!(!force_scalar_value(Some(OsStr::new(""))));
        assert!(!force_scalar_value(Some(OsStr::new("0"))));
        assert!(force_scalar_value(Some(OsStr::new("1"))));
        assert!(force_scalar_value(Some(OsStr::new("true"))));
    }

    #[test]
    fn describe_names_the_active_level() {
        let line = describe();
        assert!(
            line.contains(&format!("simd dispatch: {}", active().level.name())),
            "{line}"
        );
        for feature in [
            "avx512f=",
            "avx512bw=",
            "avx2=",
            "forced_scalar=",
            "pclmulqdq=",
        ] {
            assert!(line.contains(feature), "{line}");
        }
    }

    #[test]
    fn scalar_table_is_scalar() {
        assert_eq!(SimdDispatch::scalar().level, SimdLevel::Scalar);
        // The detected table is whatever the host offers; at minimum it
        // computes the same functions (spot check one input).
        let a = [1.0f32, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.5];
        let b = [0.5f32, 2.0, -3.0, 4.0, -5.0, 6.0, -7.0, 8.0, -9.5];
        let s = SimdDispatch::scalar();
        let d = SimdDispatch::detected();
        assert_eq!(
            (s.blocked_l1)(&a, &b).to_bits(),
            (d.blocked_l1)(&a, &b).to_bits()
        );
        assert_eq!(
            (s.kernel_dot)(&a, &b).to_bits(),
            (d.kernel_dot)(&a, &b).to_bits()
        );
    }

    #[test]
    fn l1_dist_is_serial_index_order() {
        // The scalar-pinned serial sum must differ from the blocked order
        // only by its association — same terms, and for short inputs with
        // exact arithmetic, the same value.
        let a = [1.0f32, 2.0, 3.0];
        let b = [0.0f32, 0.0, 0.0];
        assert_eq!(l1_dist(&a, &b), 6.0);
    }
}
