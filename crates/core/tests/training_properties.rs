//! Integration/property tests for PKGM training, sampling, and serving.

use pkgm_core::{
    eval, serialize, CachedService, KnowledgeService, NegativeSampler, PkgmConfig, PkgmModel,
    ServiceSnapshot, SimdDispatch, TrainConfig, Trainer,
};
use pkgm_store::{EntityId, KeyRelationSelector, RelationId, StoreBuilder, Triple, TripleStore};
use pkgm_synth::{Catalog, CatalogConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bipartite_store(n_items: u32, n_rels: u32, n_vals: u32) -> TripleStore {
    let mut b = StoreBuilder::new();
    for i in 0..n_items {
        for r in 0..n_rels {
            b.add_raw(i, r, n_items + (i + r) % n_vals);
        }
    }
    b.build()
}

#[test]
fn negative_sampler_balances_head_and_tail_corruptions() {
    let store = bipartite_store(20, 3, 6);
    let sampler = NegativeSampler::new(&store).with_relation_prob(0.0);
    let mut rng = SmallRng::seed_from_u64(1);
    let pos = store.triples()[0];
    let mut heads = 0;
    let mut tails = 0;
    for _ in 0..2000 {
        match sampler.corrupt(pos, &store, &mut rng).1 {
            pkgm_core::negative::Corruption::Head => heads += 1,
            pkgm_core::negative::Corruption::Tail => tails += 1,
            pkgm_core::negative::Corruption::Relation => panic!("relation prob is 0"),
        }
    }
    let ratio = heads as f64 / (heads + tails) as f64;
    assert!(
        (ratio - 0.5).abs() < 0.05,
        "head/tail split {ratio} far from 0.5"
    );
}

#[test]
fn training_is_deterministic_in_serial_mode() {
    let store = bipartite_store(10, 2, 4);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        lr: 0.01,
        parallel: false,
        ..TrainConfig::default()
    };
    let run = || {
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(3),
        );
        Trainer::new(&model, cfg.clone()).train(&mut model, &store);
        model
    };
    let a = run();
    let b = run();
    assert_eq!(a.ent(EntityId(0)), b.ent(EntityId(0)));
    assert_eq!(a.rel(RelationId(0)), b.rel(RelationId(0)));
    assert_eq!(a.mat(RelationId(1)), b.mat(RelationId(1)));
}

/// FNV-1a of the serialized model: one identity per trained model.
fn model_fnv64(model: &PkgmModel) -> u64 {
    serialize::model_to_bytes(model)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The gradient pass and the Adam step compiled at each level the host
/// supports train one model: one `model_fnv64`, at dims with and without a
/// tail past the last eight-lane chunk, relation module on and off.
#[test]
fn every_simd_level_trains_the_same_model() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(21));
    let store = &catalog.store;
    for cfg in [
        PkgmConfig::new(13).with_seed(4),
        PkgmConfig::new(16).with_seed(5),
        PkgmConfig::transe(16).with_seed(6),
    ] {
        let digests: Vec<u64> = SimdDispatch::all_supported()
            .into_iter()
            .map(|table| {
                let mut model = PkgmModel::new(
                    store.n_entities() as usize,
                    store.n_relations() as usize,
                    cfg.clone(),
                );
                let train = TrainConfig {
                    epochs: 2,
                    batch_size: 96,
                    lr: 0.02,
                    chunk_size: Some(32),
                    ..TrainConfig::default()
                };
                Trainer::new(&model, train)
                    .with_simd(table)
                    .train(&mut model, store);
                model_fnv64(&model)
            })
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "levels trained different models at d={}: {digests:x?}",
            cfg.dim
        );
    }
}

#[test]
fn more_epochs_do_not_hurt_completion() {
    // Coarse monotonicity: 12 epochs should rank held-out facts at least as
    // well as 1 epoch on a structured world.
    let catalog = Catalog::generate(&CatalogConfig::tiny(12));
    let test: Vec<Triple> = catalog.heldout.clone();
    let mrr_after = |epochs: usize| {
        let mut model = PkgmModel::new(
            catalog.store.n_entities() as usize,
            catalog.store.n_relations() as usize,
            PkgmConfig::new(16).with_seed(5),
        );
        let cfg = TrainConfig {
            epochs,
            batch_size: 128,
            lr: 0.02,
            margin: 2.0,
            parallel: false,
            ..TrainConfig::default()
        };
        Trainer::new(&model, cfg).train(&mut model, &catalog.store);
        eval::rank_tails(&model, &test, Some(&catalog.store), &[1])
            .unwrap()
            .mrr
    };
    let short = mrr_after(1);
    let long = mrr_after(12);
    assert!(
        long > short * 0.9,
        "completion regressed with training: {short} → {long}"
    );
}

#[test]
fn service_of_saved_and_loaded_model_identical_on_every_item() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(13));
    let mut model = PkgmModel::new(
        catalog.store.n_entities() as usize,
        catalog.store.n_relations() as usize,
        PkgmConfig::new(8).with_seed(13),
    );
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 64,
        lr: 0.02,
        parallel: false,
        ..TrainConfig::default()
    };
    Trainer::new(&model, cfg).train(&mut model, &catalog.store);
    let service = KnowledgeService::new(model, catalog.key_relation_selector(3));
    let bytes = serialize::service_to_bytes(&service);
    let back = serialize::service_from_bytes(&bytes).unwrap();
    for m in &catalog.items {
        assert_eq!(
            back.sequence_service(m.entity),
            service.sequence_service(m.entity)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corruptions never return the positive and always change exactly one
    /// slot, for arbitrary graphs.
    #[test]
    fn corruption_invariants(
        triples in prop::collection::vec((0u32..10, 0u32..3, 10u32..16), 2..40),
        seed in 0u64..100,
    ) {
        let mut b = StoreBuilder::new();
        for &(h, r, t) in &triples {
            b.add_raw(h, r, t);
        }
        let store = b.build();
        let sampler = NegativeSampler::new(&store);
        let mut rng = SmallRng::seed_from_u64(seed);
        for &pos in store.triples().iter().take(10) {
            let (neg, _) = sampler.corrupt(pos, &store, &mut rng);
            prop_assert_ne!(neg, pos);
            let changed = [neg.head != pos.head, neg.tail != pos.tail, neg.relation != pos.relation];
            prop_assert_eq!(changed.iter().filter(|&&c| c).count(), 1);
        }
    }

    /// Scores and services stay finite through training for arbitrary tiny
    /// graphs (no NaN/Inf blow-ups from the L1 subgradients).
    #[test]
    fn training_keeps_parameters_finite(
        triples in prop::collection::vec((0u32..8, 0u32..3, 8u32..12), 2..30),
        seed in 0u64..50,
    ) {
        let mut b = StoreBuilder::new();
        for &(h, r, t) in &triples {
            b.add_raw(h, r, t);
        }
        let store = b.build();
        let mut model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(seed),
        );
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.1,
            parallel: false,
            ..TrainConfig::default()
        };
        Trainer::new(&model, cfg).train(&mut model, &store);
        for t in store.triples() {
            prop_assert!(model.score(*t).is_finite());
        }
        let svc = model.service_t(EntityId(0), RelationId(0));
        prop_assert!(svc.iter().all(|x| x.is_finite()));
    }

    /// The sharded cache and the snapshot table are transparent memos: for
    /// arbitrary graphs, cache capacities, and query orders, every vector
    /// they return is byte-identical to the uncached computation — single
    /// calls and batch entry points alike.
    #[test]
    fn sharded_cache_and_snapshot_are_transparent(
        triples in prop::collection::vec((0u32..10, 0u32..3, 10u32..16), 2..40),
        capacity in 1usize..40,
        queries in prop::collection::vec(0u32..12, 1..60),
    ) {
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let mut b = StoreBuilder::new();
        for &(h, r, t) in &triples {
            b.add_raw(h, r, t);
        }
        let store = b.build();
        let items: Vec<(EntityId, u32)> = (0..10).map(|i| (EntityId(i), i % 2)).collect();
        let selector = KeyRelationSelector::build(&store, &items, 2, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(7),
        );
        let service = KnowledgeService::new(model, selector);
        let snapshot = ServiceSnapshot::build(&service);
        for &q in &queries {
            if let Some(row) = snapshot.condensed(EntityId(q)) {
                prop_assert_eq!(bits(&row), bits(&service.condensed_service(EntityId(q))));
            }
        }
        // Ids past the table are degraded to the all-zero row, which is
        // what the service computes for an id with no key relations.
        let cached = CachedService::new(snapshot, capacity);
        for &q in &queries {
            let item = EntityId(q);
            prop_assert_eq!(
                bits(&cached.condensed_service(item)),
                bits(&service.condensed_service(item))
            );
        }
        let batch: Vec<EntityId> = queries.iter().map(|&q| EntityId(q)).collect();
        for (i, v) in cached.condensed_service_batch(&batch).iter().enumerate() {
            prop_assert_eq!(bits(v), bits(&service.condensed_service(batch[i])));
        }
    }
}
