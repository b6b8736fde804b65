//! Parity suite for the fused training kernels.
//!
//! Three layers of guarantee, strongest first:
//!
//! 1. **Bit-exactness vs. the naive path** — [`fused_chunk_grads_at`]
//!    must match [`reference_chunk_grads`] (per-pair `model.score` calls,
//!    fresh matvecs, no caching, no scratch) to *exact* f32 equality on
//!    randomized graphs, dimensions, margins and negative counts, compiled
//!    at every level the host supports
//!    ([`SimdDispatch::all_supported`]). Any caching or blocking bug that
//!    perturbs a single rounding step fails here.
//! 2. **Serial ≡ parallel** — `train_epoch` with `cfg.parallel` on and off
//!    produces bit-identical models and optimizer state: chunk layout is
//!    computed the same way in both paths and per-chunk gradients merge in
//!    ascending chunk order.
//! 3. **Kernel-independent math** — the fused path's loss and violation
//!    count agree with the margin loss written out over `PkgmModel::score`
//!    (`pkgm_dot` order, so ulp-approximate), which shares no code with
//!    the kernels.

use pkgm_core::kernels::{
    fused_chunk_grads, fused_chunk_grads_at, reference_chunk_grads, ChunkGrads, TrainScratch,
};
use pkgm_core::serialize::model_to_bytes;
use pkgm_core::{
    CorruptedPair, NegativeSampler, PkgmConfig, PkgmModel, SimdDispatch, TrainConfig, Trainer,
};
use pkgm_store::{StoreBuilder, TripleStore};
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
        // Every item gets 1..=3 property edges so the graph is connected
        // enough for filtered sampling to terminate quickly.
        for _ in 0..rng.gen_range(1..4u32) {
            let r = rng.gen_range(0..n_rels);
            let v = n_items + rng.gen_range(0..n_vals);
            b.add_raw(i, r, v);
        }
    }
    b.build()
}

fn random_pairs(
    store: &TripleStore,
    seed: u64,
    negatives: usize,
    relation_prob: f64,
) -> Vec<CorruptedPair> {
    let sampler = NegativeSampler::new(store).with_relation_prob(relation_prob);
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

fn assert_bitwise_eq(a: &ChunkGrads, b: &ChunkGrads) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.loss.to_bits(), b.loss.to_bits());
    prop_assert_eq!(a.violations, b.violations);
    prop_assert_eq!(a.pairs, b.pairs);
    for (name, xs, ys) in [
        ("ent", &a.ent, &b.ent),
        ("rel", &a.rel, &b.rel),
        ("mat", &a.mat, &b.mat),
    ] {
        prop_assert!(xs.len() == ys.len(), "{name}: row counts differ");
        for ((ka, ga), (kb, gb)) in xs.iter().zip(ys) {
            prop_assert!(ka == kb, "{name}: touched ids differ ({ka} vs {kb})");
            for (i, (x, y)) in ga.iter().zip(gb).enumerate() {
                prop_assert!(x.to_bits() == y.to_bits(), "{name}[{ka}][{i}]: {x} vs {y}");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused kernels are bit-identical to the naive per-pair score/gradient
    /// path across random graphs, dims, margins and corruption mixes, at
    /// every level.
    #[test]
    fn fused_is_bitwise_equal_to_naive_path(
        seed in 0u64..1_000_000,
        dim_sel in 0usize..4,
        negatives in 1usize..4,
        margin_q in 1u32..9,
        rel_prob_q in 0u32..6,
    ) {
        let dim = [3, 8, 13, 64][dim_sel];
        let margin = margin_q as f32 * 0.5;
        let relation_prob = rel_prob_q as f64 * 0.2; // 0.0 ..= 1.0
        let store = random_store(seed, 24, 5, 9);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(dim).with_seed(seed ^ 0xA5),
        );
        let pairs = random_pairs(&store, seed ^ 0x77, negatives, relation_prob);
        let reference = reference_chunk_grads(&model, &pairs, margin);
        let mut scratch = TrainScratch::new(&model);
        for table in SimdDispatch::all_supported() {
            let fused = fused_chunk_grads_at(table, &model, &mut scratch, &pairs, margin);
            assert_bitwise_eq(&fused, &reference)?;
            // Another pass through the same scratch must not leak state.
            let again = fused_chunk_grads_at(table, &model, &mut scratch, &pairs, margin);
            assert_bitwise_eq(&again, &reference)?;
        }
    }

    /// The TransE ablation (relation module off) takes the same contract.
    #[test]
    fn fused_matches_naive_without_relation_module(
        seed in 0u64..1_000_000,
        negatives in 1usize..3,
    ) {
        let store = random_store(seed, 16, 4, 7);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::transe(8).with_seed(seed),
        );
        let pairs = random_pairs(&store, seed ^ 0x31, negatives, 0.2);
        let reference = reference_chunk_grads(&model, &pairs, 4.0);
        let mut scratch = TrainScratch::new(&model);
        for table in SimdDispatch::all_supported() {
            let fused = fused_chunk_grads_at(table, &model, &mut scratch, &pairs, 4.0);
            assert_bitwise_eq(&fused, &reference)?;
            prop_assert!(fused.mat.is_empty());
        }
    }

    /// The fused kernel agrees with the margin loss `Σ [f(pos) + γ − f(neg)]₊`
    /// written out over `PkgmModel::score` on the violated set and,
    /// approximately, on the loss. Agreement is ulp-approximate, not exact:
    /// the fused path scores through `kernel_dot` (eight-lane dot) and sums
    /// per-pair loss terms in relation-blocked order, `score` goes through
    /// `pkgm_dot` and the sum here runs in original order. Per-pair scores
    /// therefore differ in the last f32 bits, which shifts each hinge term
    /// by ulps; the violated *set* still matches on all generated cases
    /// because margin boundaries are nowhere near ulp-tight on random data.
    #[test]
    fn fused_loss_matches_margin_loss_over_model_score(
        seed in 0u64..1_000_000,
        negatives in 1usize..3,
    ) {
        let store = random_store(seed, 20, 4, 8);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(seed ^ 0x13),
        );
        let pairs = random_pairs(&store, seed ^ 0x59, negatives, 0.2);
        let mut scratch = TrainScratch::new(&model);
        let fused = fused_chunk_grads(&model, &mut scratch, &pairs, 4.0);
        let hinges: Vec<f32> = pairs
            .iter()
            .map(|p| model.score(p.pos) + 4.0 - model.score(p.neg))
            .filter(|&viol| viol > 0.0)
            .collect();
        let loss: f64 = hinges.iter().map(|&v| v as f64).sum();
        prop_assert_eq!(fused.violations, hinges.len());
        prop_assert_eq!(fused.pairs, pairs.len());
        let tol = 1e-6 * loss.abs().max(1.0);
        prop_assert!(
            (fused.loss - loss).abs() < tol,
            "loss diverged: fused {} vs model.score {}",
            fused.loss,
            loss
        );
    }
}

/// `--parallel` and serial training produce bit-identical models: the chunk
/// layout (and with it every RNG stream) is independent of `cfg.parallel`,
/// and per-chunk gradients merge in ascending chunk order in both paths.
#[test]
fn parallel_and_serial_training_are_bit_identical() {
    let store = random_store(99, 64, 5, 12);
    let fresh = || {
        PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(12).with_seed(42),
        )
    };
    // Multiple batches per epoch and chunks per batch so the test actually
    // exercises the chunk merge, not a degenerate single-chunk layout.
    let cfg = |parallel: bool| TrainConfig {
        lr: 0.05,
        margin: 2.0,
        batch_size: 96,
        epochs: 4,
        negatives: 2,
        seed: 7,
        normalize_entities: true,
        parallel,
        chunk_size: Some(16),
    };

    let mut m_serial = fresh();
    let mut t_serial = Trainer::new(&m_serial, cfg(false));
    let r_serial = t_serial.train(&mut m_serial, &store);

    let mut m_par = fresh();
    let mut t_par = Trainer::new(&m_par, cfg(true));
    let r_par = t_par.train(&mut m_par, &store);

    assert_eq!(
        model_to_bytes(&m_serial).as_ref(),
        model_to_bytes(&m_par).as_ref(),
        "serial and parallel training diverged"
    );
    assert_eq!(t_serial.steps(), t_par.steps());
    for (a, b) in r_serial.epochs.iter().zip(&r_par.epochs) {
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        assert_eq!(a.violation_rate.to_bits(), b.violation_rate.to_bits());
        assert_eq!(a.pairs, b.pairs);
    }
}

/// Same, under the adaptive (`chunk_size: None`) layout — within one
/// process the rayon thread count is fixed, so the layout still matches.
#[test]
fn adaptive_chunk_layout_is_parallel_serial_invariant() {
    let store = random_store(123, 200, 4, 10);
    let fresh = || {
        PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(5),
        )
    };
    let cfg = |parallel: bool| TrainConfig {
        lr: 0.05,
        margin: 2.0,
        batch_size: 256,
        epochs: 2,
        negatives: 1,
        seed: 11,
        normalize_entities: true,
        parallel,
        chunk_size: None,
    };
    let mut m_serial = fresh();
    Trainer::new(&m_serial, cfg(false)).train(&mut m_serial, &store);
    let mut m_par = fresh();
    Trainer::new(&m_par, cfg(true)).train(&mut m_par, &store);
    assert_eq!(
        model_to_bytes(&m_serial).as_ref(),
        model_to_bytes(&m_par).as_ref()
    );
}
