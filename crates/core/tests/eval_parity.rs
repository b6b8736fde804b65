//! Parity suite for the fused evaluation kernels.
//!
//! The contract, mirroring the training-kernel suite:
//!
//! 1. **Bit-exactness vs. the reference scan** — `fused_rank_*` must return
//!    per-triple ranks *exactly* equal to `reference_rank_*` (per-triple
//!    fresh compute, binary-search filtering, no tiling, no early exit)
//!    across random graphs, dimensions, filter on/off, and all three
//!    ranking modes. Ranks are integers, so "exactly" means `==` — any
//!    unsound early exit, stale scratch, broken merge cursor or grouping
//!    bug shifts a rank and fails here.
//! 2. **Kernel-independent metrics** — the fused path and a brute-force
//!    filtered rank over `PkgmModel::score` (serial L1 sums, written out
//!    below) agree on ranking metrics approximately: their scores differ in
//!    the last f32 bits, which can only flip a comparison when two
//!    candidates are ulp-close, so metric drift on random data stays
//!    negligible.

use pkgm_core::eval::summarize_ranks;
use pkgm_core::eval_kernels::{
    fused_rank_heads, fused_rank_heads_sliced, fused_rank_relations, fused_rank_relations_sliced,
    fused_rank_tails, fused_rank_tails_sliced, quantized_rank_heads,
    quantized_rank_heads_with_stats_sliced, quantized_rank_relations,
    quantized_rank_relations_with_stats_sliced, quantized_rank_tails,
    quantized_rank_tails_with_stats_sliced, reference_rank_heads, reference_rank_relations,
    reference_rank_tails,
};
use pkgm_core::{PkgmConfig, PkgmModel, QuantEvalModel};
use pkgm_store::{EntityId, RelationId, StoreBuilder, Triple, TripleStore};
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

/// Test triples mixing known positives (which the filtered protocol must
/// skip around) with random in-range triples (raw-style queries).
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

/// Filtered rank of each test triple by brute force: every candidate
/// `replace(t, c)` is scored through `PkgmModel::score` (serial L1,
/// `pkgm_dot` projection) and counted if it is strictly better and not
/// another known triple. Shares no code with the ranking kernels.
fn brute_force_ranks(
    model: &PkgmModel,
    store: &TripleStore,
    test: &[Triple],
    n_candidates: usize,
    replace: impl Fn(Triple, u32) -> Triple,
) -> Vec<usize> {
    test.iter()
        .map(|&t| {
            let true_score = model.score(t);
            let better = (0..n_candidates as u32)
                .map(|c| replace(t, c))
                .filter(|&cand| cand != t && !store.contains(cand))
                .filter(|&cand| model.score(cand) < true_score)
                .count();
            better + 1
        })
        .collect()
}

fn assert_all_modes_match(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<(), TestCaseError> {
    let fused_t = fused_rank_tails(model, test, filter).unwrap();
    prop_assert_eq!(
        &fused_t,
        &reference_rank_tails(model, test, filter).unwrap()
    );
    // A second pass (fresh internal pools, reused scratch sizing paths)
    // must not drift.
    prop_assert_eq!(&fused_rank_tails(model, test, filter).unwrap(), &fused_t);

    let fused_h = fused_rank_heads(model, test, filter).unwrap();
    prop_assert_eq!(
        &fused_h,
        &reference_rank_heads(model, test, filter).unwrap()
    );

    let fused_r = fused_rank_relations(model, test, filter).unwrap();
    prop_assert_eq!(
        &fused_r,
        &reference_rank_relations(model, test, filter).unwrap()
    );
    assert_sliced_modes_match(model, test, filter)
}

/// Fused and quantized ranks ≡ reference ranks in all three modes at
/// candidate-slice counts 1, 2 and 3.
fn assert_sliced_modes_match(
    model: &PkgmModel,
    test: &[Triple],
    filter: Option<&TripleStore>,
) -> Result<(), TestCaseError> {
    let qmodel = QuantEvalModel::build(model);
    let want = [
        reference_rank_tails(model, test, filter).unwrap(),
        reference_rank_heads(model, test, filter).unwrap(),
        reference_rank_relations(model, test, filter).unwrap(),
    ];
    for n_slices in [1, 2, 3] {
        let fused = [
            fused_rank_tails_sliced(model, test, filter, n_slices).unwrap(),
            fused_rank_heads_sliced(model, test, filter, n_slices).unwrap(),
            fused_rank_relations_sliced(model, test, filter, n_slices).unwrap(),
        ];
        let q = &qmodel;
        let quantized = [
            quantized_rank_tails_with_stats_sliced(model, q, test, filter, n_slices).unwrap(),
            quantized_rank_heads_with_stats_sliced(model, q, test, filter, n_slices).unwrap(),
            quantized_rank_relations_with_stats_sliced(model, q, test, filter, n_slices).unwrap(),
        ]
        .map(|(ranks, _)| ranks);
        prop_assert!(
            fused == want && quantized == want,
            "ranks diverged at n_slices={} d={} relation module {}",
            n_slices,
            model.dim(),
            model.cfg.relation_module
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fused ranks are exactly the reference ranks across random graphs,
    /// dims (remainder lanes and the production width included), filter
    /// on/off, relation module on/off, and all modes.
    #[test]
    fn fused_ranks_equal_reference_ranks(
        seed in 0u64..1_000_000,
        dim_sel in 0usize..5,
        filtered_q in 0u32..2,
    ) {
        let dim = [3, 8, 13, 16, 64][dim_sel];
        let store = random_store(seed, 24, 5, 9);
        // > TRIPLE_CHUNK triples so tail ranking spans several chunks and
        // several relation/head groups form.
        let test = random_test_triples(&store, seed ^ 0x7F, 40);
        let filter = (filtered_q == 1).then_some(&store);
        for cfg in [PkgmConfig::new(dim), PkgmConfig::transe(dim)] {
            let model = PkgmModel::new(
                store.n_entities() as usize,
                store.n_relations() as usize,
                cfg.with_seed(seed ^ 0xC3),
            );
            assert_all_modes_match(&model, &test, filter)?;
        }
    }

    /// The TransE ablation (relation module off) takes the same contract:
    /// head/relation ranking degenerate to pure translation scores.
    #[test]
    fn fused_matches_reference_without_relation_module(
        seed in 0u64..1_000_000,
        filtered_q in 0u32..2,
    ) {
        let store = random_store(seed, 16, 4, 7);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::transe(8).with_seed(seed),
        );
        let test = random_test_triples(&store, seed ^ 0x2B, 24);
        let filter = (filtered_q == 1).then_some(&store);
        assert_all_modes_match(&model, &test, filter)?;
    }

    /// Fused metrics track a brute-force rank over `model.score`:
    /// summation orders differ (blocked vs serial), so agreement is
    /// approximate, but on random data ulp-level score differences
    /// essentially never flip a strict comparison.
    #[test]
    fn fused_metrics_track_brute_force_scoring(
        seed in 0u64..1_000_000,
    ) {
        let store = random_store(seed, 20, 4, 8);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(seed ^ 0x6D),
        );
        let test = random_test_triples(&store, seed ^ 0x4C, 24);
        let ks = [1usize, 10];
        let (ne, nr) = (model.n_entities(), model.n_relations());
        let pairs = [
            (
                fused_rank_tails(&model, &test, Some(&store)).unwrap(),
                brute_force_ranks(&model, &store, &test, ne, |t, c| {
                    Triple::new(t.head, t.relation, EntityId(c))
                }),
            ),
            (
                fused_rank_heads(&model, &test, Some(&store)).unwrap(),
                brute_force_ranks(&model, &store, &test, ne, |t, c| {
                    Triple::new(EntityId(c), t.relation, t.tail)
                }),
            ),
            (
                fused_rank_relations(&model, &test, Some(&store)).unwrap(),
                brute_force_ranks(&model, &store, &test, nr, |t, c| {
                    Triple::new(t.head, RelationId(c), t.tail)
                }),
            ),
        ];
        for (fused, base) in pairs {
            let (fused, base) = (summarize_ranks(&fused, &ks), summarize_ranks(&base, &ks));
            prop_assert_eq!(fused.n, base.n);
            prop_assert!(
                (fused.mrr - base.mrr).abs() < 0.05,
                "mrr diverged: fused {} vs brute force {}",
                fused.mrr,
                base.mrr
            );
            prop_assert!(
                (fused.mean_rank - base.mean_rank).abs()
                    < 1.0 + 0.05 * base.mean_rank,
                "mean rank diverged: fused {} vs brute force {}",
                fused.mean_rank,
                base.mean_rank
            );
        }
    }
}

/// A store large enough that candidate scans span many 256-entity tiles,
/// so tile boundaries, cursor persistence across tiles, and the shared
/// per-tile `f_R` cache all get exercised (the proptest graphs fit in one
/// tile).
#[test]
fn fused_ranks_equal_reference_across_many_tiles() {
    let store = random_store(4242, 600, 6, 40);
    assert!(store.n_entities() > 512, "store must span >2 tiles");
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(13).with_seed(77),
    );
    let test = random_test_triples(&store, 99, 48);
    for filter in [None, Some(&store)] {
        assert_eq!(
            fused_rank_tails(&model, &test, filter).unwrap(),
            reference_rank_tails(&model, &test, filter).unwrap()
        );
        assert_eq!(
            fused_rank_heads(&model, &test, filter).unwrap(),
            reference_rank_heads(&model, &test, filter).unwrap()
        );
        assert_eq!(
            fused_rank_relations(&model, &test, filter).unwrap(),
            reference_rank_relations(&model, &test, filter).unwrap()
        );
    }
}

/// The production width over many tiles: d = 64, more than 16 distinct
/// query heads (several lane blocks of the relation projection), at least
/// 17 relations (a lane block plus a remainder of candidate matrices) and
/// an entity count that is not a multiple of 16 (a ragged last lane block
/// of head candidates), with the relation module on and off.
#[test]
fn production_width_ranks_equal_reference_at_every_slice_count() {
    let store = random_store(4242, 600, 20, 41);
    let test = random_test_triples(&store, 99, 48);
    let mut heads: Vec<u32> = test.iter().map(|t| t.head.0).collect();
    heads.sort_unstable();
    heads.dedup();
    assert!(heads.len() > 16, "{} distinct heads", heads.len());
    assert!(
        store.n_relations() >= 17,
        "{} relations",
        store.n_relations()
    );
    assert!(store.n_entities() > 512 && !store.n_entities().is_multiple_of(16));
    for cfg in [PkgmConfig::new(64), PkgmConfig::transe(64)] {
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            cfg.with_seed(77),
        );
        for filter in [None, Some(&store)] {
            assert_sliced_modes_match(&model, &test, filter).unwrap();
        }
    }
}

/// Known positives packed around the true id split the second candidate
/// tile into runs of every short length — empty between adjacent known
/// ids, a single candidate between two ids one apart, and the true id
/// itself in the middle of the packed stretch — in all three modes,
/// fused and quantized alike.
#[test]
fn packed_known_ids_split_tiles_into_empty_and_single_runs() {
    let mut b = StoreBuilder::new();
    // Tails of (0, r0): true tail 302 among 300, 301, 303, 305, 306.
    for t in [300u32, 301, 302, 303, 305, 306] {
        b.add_raw(0, 0, t);
    }
    // Heads of (r1, 400): true head 12 among 10, 11, 13, 15, 16.
    for h in [10u32, 11, 12, 13, 15, 16] {
        b.add_raw(h, 1, 400);
    }
    // Relations of (20, ·, 450): true relation 3 among 1, 2, 4, 6.
    for r in [1u32, 2, 3, 4, 6] {
        b.add_raw(20, r, 450);
    }
    b.add_raw(21, 7, 600);
    let store = b.build();
    let test = [
        Triple::new(EntityId(0), RelationId(0), EntityId(302)),
        Triple::new(EntityId(12), RelationId(1), EntityId(400)),
        Triple::new(EntityId(20), RelationId(3), EntityId(450)),
    ];
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(13).with_seed(3),
    );
    let qmodel = QuantEvalModel::build(&model);
    for filter in [None, Some(&store)] {
        let want = [
            reference_rank_tails(&model, &test, filter).unwrap(),
            reference_rank_heads(&model, &test, filter).unwrap(),
            reference_rank_relations(&model, &test, filter).unwrap(),
        ];
        let fused = [
            fused_rank_tails(&model, &test, filter).unwrap(),
            fused_rank_heads(&model, &test, filter).unwrap(),
            fused_rank_relations(&model, &test, filter).unwrap(),
        ];
        let quantized = [
            quantized_rank_tails(&model, &qmodel, &test, filter).unwrap(),
            quantized_rank_heads(&model, &qmodel, &test, filter).unwrap(),
            quantized_rank_relations(&model, &qmodel, &test, filter).unwrap(),
        ];
        assert_eq!(fused, want, "filtered: {}", filter.is_some());
        assert_eq!(quantized, want, "filtered: {}", filter.is_some());
    }
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
    let t = store.triples()[3];
    let test = vec![t; 5];
    for ranks in [
        fused_rank_tails(&model, &test, Some(&store)).unwrap(),
        fused_rank_heads(&model, &test, Some(&store)).unwrap(),
        fused_rank_relations(&model, &test, Some(&store)).unwrap(),
    ] {
        assert_eq!(ranks.len(), 5);
        assert!(ranks.windows(2).all(|w| w[0] == w[1]), "{ranks:?}");
    }
}
