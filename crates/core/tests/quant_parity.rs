//! Parity suite for the int8 quantized pruning layer.
//!
//! Five contracts, each load-bearing for the two-phase evaluation path
//! and the quantized `PKGMSS3` serving snapshots:
//!
//! 1. **Certified lower bound** — for arbitrary tables and queries, the
//!    int8 scan bound `QuantScanTable::lower_bound` never exceeds the
//!    blocked f32 L1 the exact kernels compute. Any violation would let
//!    phase 1 prune a candidate phase 2 would have kept, silently
//!    shifting ranks.
//! 2. **Bit-exact ranks** — the quantized two-phase kernels return ranks
//!    *exactly* equal to the reference scan across random graphs,
//!    dimensions, filter on/off, and all three ranking modes. Ranks are
//!    integers, so "exactly" means `==`; pruning must be invisible.
//! 3. **Snapshot round-trips** — dense → quantize → `PKGMSS3` bytes →
//!    load reproduces every `lookup_exact` answer bitwise, from a table a
//!    fraction of the dense one's bytes.
//! 4. **Pinned accounting** — `PruneStats` on fixed seed models equal
//!    golden counts, so a change in which candidates reach or survive
//!    phase 1 is seen even when ranks stay exact.
//! 5. **Fresh tables only** — a `QuantEvalModel` built before the model
//!    changed is refused with a typed error, never used.

use pkgm_core::eval::summarize_ranks;
use pkgm_core::eval_kernels::{
    fused_rank_heads, fused_rank_relations, fused_rank_tails, quantized_rank_heads,
    quantized_rank_heads_with_stats, quantized_rank_relations, quantized_rank_relations_with_stats,
    quantized_rank_tails, quantized_rank_tails_with_stats, reference_rank_heads,
    reference_rank_relations, reference_rank_tails,
};
use pkgm_core::{
    serialize, snapshot_to_ss3_bytes, EvalError, KnowledgeService, PkgmConfig, PkgmModel,
    QuantEvalModel, QuantScanTable, ServiceSnapshot, TrainConfig, Trainer,
};
use pkgm_store::{EntityId, KeyRelationSelector, RelationId, StoreBuilder, Triple, TripleStore};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random sparse product graph: `n_items` items, a handful of property
/// relations, random value entities.
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

/// Test triples mixing known positives (filtered protocol skips) with
/// random in-range triples (raw-style queries).
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

/// The eight-lane blocked L1 of the evaluation kernels — the contract
/// arithmetic the quantized lower bound must stay under, named via its
/// scalar twin so the crate states it exactly once.
use pkgm_core::simd::scalar::blocked_l1;

fn assert_all_modes_match(
    model: &PkgmModel,
    qmodel: &QuantEvalModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<(), TestCaseError> {
    let quant_t = quantized_rank_tails(model, qmodel, test, filter).unwrap();
    prop_assert_eq!(
        &quant_t,
        &reference_rank_tails(model, test, filter).unwrap()
    );
    // A second pass (fresh internal pools, reused scratch sizing paths)
    // must not drift.
    prop_assert_eq!(
        &quantized_rank_tails(model, qmodel, test, filter).unwrap(),
        &quant_t
    );
    prop_assert_eq!(
        &quantized_rank_heads(model, qmodel, test, filter).unwrap(),
        &reference_rank_heads(model, test, filter).unwrap()
    );
    prop_assert_eq!(
        &quantized_rank_relations(model, qmodel, test, filter).unwrap(),
        &reference_rank_relations(model, test, filter).unwrap()
    );
    Ok(())
}

fn snapshot_service(seed: u64, n_items: u32, dim: usize) -> KnowledgeService {
    let store = random_store(seed, n_items, 4, 8);
    let pairs: Vec<(EntityId, u32)> = (0..n_items).map(|i| (EntityId(i), 0)).collect();
    let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(dim).with_seed(seed ^ 0xA5),
    );
    KnowledgeService::new(model, sel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The int8 lower bound never exceeds the blocked f32 L1, for
    /// arbitrary row lengths (block remainders included), amplitudes
    /// (query clamping included), and extra formation slack.
    #[test]
    fn lower_bound_never_exceeds_blocked_l1(
        seed in 0u64..1_000_000,
        row_len in 1usize..80,
        amp_sel in 0usize..3,
        extra in 0f32..0.25,
    ) {
        let amp = [0.5f32, 2.0, 8.0][amp_sel];
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_rows = 12usize;
        let rows: Vec<f32> = (0..n_rows * row_len)
            .map(|_| rng.gen_range(-amp..amp))
            .collect();
        let table = QuantScanTable::from_rows(&rows, row_len);
        let mut q = vec![0i8; row_len];
        for _ in 0..4 {
            // Queries drawn wider than the table so clamping paths fire.
            let x: Vec<f32> = (0..row_len).map(|_| rng.gen_range(-2.0 * amp..2.0 * amp)).collect();
            let qerr = table.quantize_query(&x, &mut q, extra);
            // Net query error may dip below `extra` (or go negative): clamp
            // excess on out-of-range coords is a certified distance bonus.
            prop_assert!(qerr.is_finite());
            for r in 0..n_rows as u32 {
                let lb = table.lower_bound(&q, r, qerr);
                let exact = blocked_l1(&x, &rows[r as usize * row_len..(r as usize + 1) * row_len]);
                prop_assert!(
                    lb <= exact,
                    "bound {lb} exceeds exact {exact} (row {r}, row_len {row_len}, amp {amp})"
                );
            }
        }
    }

    /// Quantized two-phase ranks are exactly the reference ranks across
    /// random graphs, dims (remainder lanes included), filter on/off, and
    /// all three ranking modes.
    #[test]
    fn quantized_ranks_equal_reference_ranks(
        seed in 0u64..1_000_000,
        dim_sel in 0usize..3,
        filtered_q in 0u32..2,
    ) {
        let dim = [3, 8, 13][dim_sel];
        let store = random_store(seed, 24, 5, 9);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(dim).with_seed(seed ^ 0xC3),
        );
        let qmodel = QuantEvalModel::build(&model);
        let test = random_test_triples(&store, seed ^ 0x7F, 40);
        let filter = (filtered_q == 1).then_some(&store);
        assert_all_modes_match(&model, &qmodel, &test, filter)?;
    }

    /// The TransE ablation (relation module off) takes the same contract:
    /// head/relation ranking degenerate to pure translation scores, and
    /// the pruning bound must stay sound for the translated queries.
    #[test]
    fn quantized_matches_reference_without_relation_module(
        seed in 0u64..1_000_000,
        filtered_q in 0u32..2,
    ) {
        let store = random_store(seed, 16, 4, 7);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::transe(8).with_seed(seed),
        );
        let qmodel = QuantEvalModel::build(&model);
        let test = random_test_triples(&store, seed ^ 0x2B, 24);
        let filter = (filtered_q == 1).then_some(&store);
        assert_all_modes_match(&model, &qmodel, &test, filter)?;
    }

    /// Dense → quantize → `PKGMSS3` bytes → load preserves every
    /// `lookup_exact` answer bitwise (served rows, escapes, fallback for
    /// out-of-range ids), and so does the dense table's round trip.
    #[test]
    fn quantized_snapshot_roundtrip_preserves_lookups(
        seed in 0u64..1_000_000,
        dim in 3usize..20,
    ) {
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let svc = snapshot_service(seed, 12, dim);
        let dense = ServiceSnapshot::build(&svc);
        let quant = dense.quantize();
        let roundtrip = |snap: &ServiceSnapshot| {
            serialize::snapshot_from_bytes(&snapshot_to_ss3_bytes(snap).unwrap()).unwrap()
        };
        let back = roundtrip(&quant);
        prop_assert!(back.is_quantized());
        let dense_back = roundtrip(&dense);
        prop_assert!(!dense_back.is_quantized());
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        for id in 0..(dense.n_rows() + 2) as u32 {
            let hit = quant.lookup_exact(EntityId(id), &mut a);
            prop_assert_eq!(back.lookup_exact(EntityId(id), &mut b), hit);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(dense_back.lookup_exact(EntityId(id), &mut c), hit);
            dense.lookup_exact(EntityId(id), &mut a);
            prop_assert_eq!(bits(&c), bits(&a));
        }
    }
}

/// A store large enough that candidate scans span many 256-entity tiles,
/// so tile boundaries, cursor persistence across tiles, the shared
/// per-tile `f_R` cache, and phase-1 pruning across tiles all get
/// exercised together (the proptest graphs fit in one tile).
#[test]
fn quantized_ranks_equal_reference_across_many_tiles() {
    let store = random_store(4242, 600, 6, 40);
    assert!(store.n_entities() > 512, "store must span >2 tiles");
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(13).with_seed(77),
    );
    let qmodel = QuantEvalModel::build(&model);
    let test = random_test_triples(&store, 99, 48);
    for filter in [None, Some(&store)] {
        assert_eq!(
            quantized_rank_tails(&model, &qmodel, &test, filter).unwrap(),
            reference_rank_tails(&model, &test, filter).unwrap()
        );
        assert_eq!(
            quantized_rank_heads(&model, &qmodel, &test, filter).unwrap(),
            reference_rank_heads(&model, &test, filter).unwrap()
        );
        assert_eq!(
            quantized_rank_relations(&model, &qmodel, &test, filter).unwrap(),
            reference_rank_relations(&model, &test, filter).unwrap()
        );
    }
    // The prune must actually bite, even on this untrained random model —
    // a bound loose enough to keep everything would be correct but
    // useless. (Trained models prune far harder: `quant.prune_rate` in
    // the benchmark.)
    let (_, stats) = quantized_rank_tails_with_stats(&model, &qmodel, &test, Some(&store)).unwrap();
    assert!(
        (stats.candidates - stats.survivors) * 10 >= stats.candidates,
        "prune rate too weak to matter: {stats:?}"
    );
}

/// The prune accounting is pinned, not just self-consistent: on fixed
/// seed models the three `PruneStats` counts of every mode equal the
/// values the per-candidate kernels produced before candidates were
/// scanned in runs. A change in which candidates reach phase 1 (filtering,
/// the `f_R ≥ bound` skip) or survive it shows up here even when ranks
/// stay exact.
#[test]
fn prune_stats_match_golden_counts() {
    type Golden = [(u64, u64, u64); 3];
    let store = random_store(4242, 600, 6, 40);
    let test = random_test_triples(&store, 99, 48);
    let cases: [(PkgmConfig, Golden, Golden); 3] = [
        (
            PkgmConfig::new(13).with_seed(77),
            [
                (30672, 13678, 1109992),
                (30672, 14816, 1169168),
                (240, 131, 9932),
            ],
            [
                (30661, 13674, 1109641),
                (30531, 14740, 1163383),
                (238, 131, 9906),
            ],
        ),
        (
            PkgmConfig::new(64).with_seed(77),
            [
                (30672, 15618, 5961216),
                (30672, 14927, 5784320),
                (240, 157, 55552),
            ],
            [
                (30661, 15611, 5958720),
                (30531, 14858, 5757632),
                (238, 156, 55168),
            ],
        ),
        (
            PkgmConfig::transe(16).with_seed(77),
            [
                (30672, 16501, 1546816),
                (30672, 17051, 1582016),
                (240, 136, 12544),
            ],
            [
                (30661, 16495, 1546256),
                (30531, 16980, 1575216),
                (238, 134, 12384),
            ],
        ),
    ];
    for (cfg, raw, filtered) in cases {
        let dim = cfg.dim;
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            cfg,
        );
        let qmodel = QuantEvalModel::build(&model);
        for (filter, golden) in [(None, raw), (Some(&store), filtered)] {
            let got = [
                quantized_rank_tails_with_stats(&model, &qmodel, &test, filter),
                quantized_rank_heads_with_stats(&model, &qmodel, &test, filter),
                quantized_rank_relations_with_stats(&model, &qmodel, &test, filter),
            ]
            .map(|r| {
                let (_, s) = r.unwrap();
                (s.candidates, s.survivors, s.scanned_bytes)
            });
            assert_eq!(
                got,
                golden,
                "dim {dim}, filtered {}: [tails, heads, relations]",
                filter.is_some()
            );
        }
    }
}

/// FNV-1a over the ranks as little-endian `u64`s.
fn rank_digest(ranks: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &r in ranks {
        for b in (r as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The ranks themselves are pinned, not just fused ≡ quantized ≡
/// reference: at d = 64, 40 test triples (two full tail chunks of 16 and
/// a partial one of 8) and three candidate tiles, every direction's raw
/// and filtered per-triple ranks hash to the digests the scan produced
/// before its tails moved into lanes, and the filtered MRR and Hits@10
/// keep their exact `f64` bits. A kernel change that stays self-consistent
/// but moves a rank shows up here.
#[test]
fn ranks_match_golden_digests() {
    type Ranker =
        fn(&PkgmModel, &QuantEvalModel, &[Triple], Option<&TripleStore>) -> [Vec<usize>; 2];
    let store = random_store(4242, 600, 6, 40);
    let test = random_test_triples(&store, 99, 40);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(64).with_seed(77),
    );
    let qmodel = QuantEvalModel::build(&model);
    let rankers: [Ranker; 3] = [
        |m, q, t, f| {
            [
                fused_rank_tails(m, t, f).unwrap(),
                quantized_rank_tails(m, q, t, f).unwrap(),
            ]
        },
        |m, q, t, f| {
            [
                fused_rank_heads(m, t, f).unwrap(),
                quantized_rank_heads(m, q, t, f).unwrap(),
            ]
        },
        |m, q, t, f| {
            [
                fused_rank_relations(m, t, f).unwrap(),
                quantized_rank_relations(m, q, t, f).unwrap(),
            ]
        },
    ];
    // Per direction [tails, heads, relations]: raw digest, filtered digest,
    // filtered MRR bits, filtered Hits@10 bits.
    let golden: [(u64, u64, u64, u64); 3] = [
        (
            0x321ed4aefdfaae4f,
            0xdf52e91e444746e9,
            0x3f8e10f7ca73cad5,
            0x3f9999999999999a,
        ),
        (
            0x019f17decd4f4c69,
            0xb1c81575fc412b02,
            0x3f995a6c08ae0646,
            0x3fa999999999999a,
        ),
        (
            0x062780573378e201,
            0x1103774751b3ea46,
            0x3fdb555555555553,
            0x3ff0000000000000,
        ),
    ];
    let got = rankers.map(|rank| {
        let [raw, filtered] = [None, Some(&store)].map(|filter| {
            let [fused, quant] = rank(&model, &qmodel, &test, filter);
            assert_eq!(fused, quant, "fused and quantized ranks differ");
            fused
        });
        let report = summarize_ranks(&filtered, &[10]);
        (
            rank_digest(&raw),
            rank_digest(&filtered),
            report.mrr.to_bits(),
            report.hits_at(10).expect("Hits@10 requested").to_bits(),
        )
    });
    assert_eq!(got, golden, "[tails, heads, relations]");
}

/// Tables built before more training describe rows the model no longer
/// has; their bounds would certify distances to stale rows. Every
/// quantized ranking call refuses them with a typed error — shapes alone
/// cannot tell, since training changes values, not sizes.
#[test]
fn quant_model_built_before_more_training_is_a_typed_error() {
    let store = random_store(5, 40, 4, 12);
    let mut model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(8).with_seed(5),
    );
    let qmodel = QuantEvalModel::build(&model);
    let test = random_test_triples(&store, 6, 8);
    assert!(quantized_rank_tails(&model, &qmodel, &test, Some(&store)).is_ok());
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 64,
        seed: 5,
        ..TrainConfig::default()
    };
    Trainer::new(&model, cfg).train(&mut model, &store);
    let stale = Err(EvalError::StaleQuantModel);
    assert_eq!(
        quantized_rank_tails(&model, &qmodel, &test, Some(&store)),
        stale
    );
    assert_eq!(
        quantized_rank_heads(&model, &qmodel, &test, Some(&store)),
        stale
    );
    assert_eq!(
        quantized_rank_relations(&model, &qmodel, &test, Some(&store)),
        stale
    );
    // A different model of the same shape is just as stale.
    let other = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(8).with_seed(6),
    );
    assert_eq!(quantized_rank_tails(&other, &qmodel, &test, None), stale);
    // Rebuilt from the trained model, the tables are current again.
    let fresh = QuantEvalModel::build(&model);
    assert_eq!(
        quantized_rank_tails(&model, &fresh, &test, Some(&store)).unwrap(),
        reference_rank_tails(&model, &test, Some(&store)).unwrap()
    );
}

/// Duplicate test triples land in the same relation/head group and must
/// share cached candidate scores without perturbing each other's ranks.
#[test]
fn duplicate_test_triples_rank_identically() {
    let store = random_store(7, 24, 4, 8);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(8).with_seed(1),
    );
    let qmodel = QuantEvalModel::build(&model);
    let t = store.triples()[3];
    let test = vec![t; 5];
    for ranks in [
        quantized_rank_tails(&model, &qmodel, &test, Some(&store)).unwrap(),
        quantized_rank_heads(&model, &qmodel, &test, Some(&store)).unwrap(),
        quantized_rank_relations(&model, &qmodel, &test, Some(&store)).unwrap(),
    ] {
        assert_eq!(ranks.len(), 5);
        assert!(ranks.windows(2).all(|w| w[0] == w[1]), "{ranks:?}");
    }
}

/// The quantized table undercuts the dense one by the advertised margin:
/// at `dim = 32` (row length 64, two scale blocks per row) its stored
/// bytes must come in at or under ~30% of the dense table's. (The
/// `PKGMSS3` files pad every section to 4 KiB, so at fixture sizes their
/// on-disk ratio measures padding, not the table.)
#[test]
fn quantized_snapshot_bytes_are_a_fraction_of_dense() {
    let svc = snapshot_service(31, 44, 32);
    let dense = ServiceSnapshot::build(&svc);
    let quant = dense.quantize();
    let (dense_len, quant_len) = (dense.storage_bytes(), quant.storage_bytes());
    assert!(
        (quant_len as f64) <= (dense_len as f64) * 0.31,
        "quantized table {quant_len} B is more than 31% of dense {dense_len} B"
    );
}
