//! End-to-end integration tests: catalog → pre-train → serve → downstream.

use pkgm::core::{eval, serialize};
use pkgm::prelude::*;
use pkgm::synth::ClassificationDataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn quick_train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 256,
        lr: 0.02,
        margin: 2.0,
        negatives: 1,
        seed: 1,
        normalize_entities: true,
        parallel: true,
        chunk_size: None,
    }
}

#[test]
fn pretrain_then_complete_heldout_facts() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(1));
    let service = pkgm::pretrain(
        &catalog,
        PkgmConfig::new(16).with_seed(1),
        quick_train_cfg(),
        4,
    );

    // Held-out facts are absent from the KG but true in the world; the
    // triple module should rank their tails far better than chance.
    let test: Vec<Triple> = catalog.heldout.clone();
    assert!(!test.is_empty());
    let report = eval::rank_tails(service.model(), &test, Some(&catalog.store), &[1, 10])
        .expect("held-out facts come from the catalog's entity/relation space");
    let chance_mrr = 2.0 / catalog.store.n_entities() as f64;
    assert!(
        report.mrr > chance_mrr * 4.0,
        "completion MRR {} not above chance {}",
        report.mrr,
        chance_mrr
    );
}

#[test]
fn relation_module_separates_existence_end_to_end() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(2));
    let service = pkgm::pretrain(
        &catalog,
        PkgmConfig::new(16).with_seed(2),
        quick_train_cfg(),
        4,
    );
    let mut rng = SmallRng::seed_from_u64(2);
    let auc = eval::relation_existence_auc(service.model(), &catalog.store, 300, &mut rng);
    assert!(
        auc.auc > 0.7,
        "existence AUC {} too close to chance",
        auc.auc
    );
}

#[test]
fn service_roundtrips_through_binary_snapshot() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(3));
    let service = pkgm::pretrain(
        &catalog,
        PkgmConfig::new(8).with_seed(3),
        quick_train_cfg(),
        3,
    );
    let bytes = serialize::service_to_bytes(&service);
    let back = serialize::service_from_bytes(&bytes).expect("roundtrip");
    for item in [0u32, 5, 17] {
        assert_eq!(
            back.sequence_service(EntityId(item)),
            service.sequence_service(EntityId(item))
        );
        assert_eq!(
            back.condensed_service(EntityId(item)),
            service.condensed_service(EntityId(item))
        );
    }
}

#[test]
fn trained_table_is_served_bit_exact_through_a_mapped_daemon() {
    use pkgm::core::{Daemon, DaemonClient, DaemonConfig, SnapshotBacking, StdIo};
    let catalog = Catalog::generate(&CatalogConfig::tiny(8));
    let train_cfg = TrainConfig {
        epochs: 2,
        ..quick_train_cfg()
    };
    let service = pkgm::pretrain(&catalog, PkgmConfig::new(8).with_seed(8), train_cfg, 3);
    let path = std::env::temp_dir().join(format!("pkgm-e2e-{}.pkgmss3", std::process::id()));
    serialize::write_snapshot_ss3_file(&StdIo, &path, &ServiceSnapshot::build(&service))
        .expect("write snapshot");
    let table = serialize::open_snapshot_file(&path).expect("open snapshot");
    assert_eq!(table.backing(), SnapshotBacking::Mapped);

    let cfg = DaemonConfig {
        cache_capacity: 16,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start("127.0.0.1:0", table.clone(), cfg).expect("start");
    let mut client = DaemonClient::connect(&daemon.local_addr().to_string()).expect("connect");

    // A repeated id, an id past the table, enough distinct ids to flush
    // every shard of the 16-entry cache, then ids the flush evicted.
    let past = table.n_rows() as u32 + 5;
    let sweep: Vec<u32> = (0..catalog.n_items() as u32).collect();
    let batches = [vec![0, 1, 2, 1, 0], vec![3, past, 4], sweep, vec![0, 1, 2]];
    let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (mut sent, mut want) = (0, Vec::new());
    for items in &batches {
        let rows = client.lookup(items).expect("lookup");
        assert_eq!(rows.len(), items.len());
        for (&id, row) in items.iter().zip(&rows) {
            // Past the table the daemon serves the documented all-zero row.
            if !table.lookup_exact(EntityId(id), &mut want) {
                want.fill(0.0);
            }
            assert_eq!(bits(row), bits(&want), "row of id {id}");
        }
        sent += items.len() as u64;
    }
    let stats = client.stats().expect("stats");
    let cache = |name: &str| {
        let counter = stats.get("cache").and_then(|c| c.get(name));
        counter.and_then(|v| v.as_u64()).expect("cache counter")
    };
    assert_eq!(cache("hits") + cache("misses") + cache("degraded"), sent);
    assert_eq!(cache("degraded"), 1);
    assert!(
        cache("hits") >= 2,
        "the repeats in the first batch are hits"
    );
    assert!(
        cache("evictions") > 0,
        "60 distinct ids must flush 16 entries"
    );

    client.shutdown().expect("shutdown");
    daemon.wait();
    std::fs::remove_file(&path).expect("remove snapshot");
}

#[test]
fn same_product_items_get_similar_service_vectors() {
    // Items of the same product share attribute values, so their condensed
    // triple-service vectors should be closer than cross-product pairs.
    let catalog = Catalog::generate(&CatalogConfig::tiny(4));
    let service = pkgm::pretrain(
        &catalog,
        PkgmConfig::new(16).with_seed(4),
        quick_train_cfg(),
        4,
    );
    let groups = catalog.product_groups();
    let l2 = |a: &[f32], b: &[f32]| -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    };
    let mut same = 0.0f32;
    let mut cross = 0.0f32;
    let mut n = 0;
    for pair in groups.windows(2).take(10) {
        let (g1, g2) = (&pair[0], &pair[1]);
        if g1.len() < 2 || g2.is_empty() {
            continue;
        }
        let a = service.condensed_triple(g1[0].entity);
        let b = service.condensed_triple(g1[1].entity);
        let c = service.condensed_triple(g2[0].entity);
        same += l2(&a, &b);
        cross += l2(&a, &c);
        n += 1;
    }
    assert!(n > 0);
    assert!(
        same < cross,
        "same-product service distance {same} ≥ cross-product {cross}"
    );
}

#[test]
fn classification_pipeline_runs_with_service() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(5));
    let dataset = ClassificationDataset::build(&catalog, 100, 5);
    let service = pkgm::pretrain(
        &catalog,
        PkgmConfig::new(16).with_seed(5),
        quick_train_cfg(),
        3,
    );
    let cfg = ClassifierTrainConfig {
        epochs: 4,
        batch_size: 16,
        lr: 3e-3,
        max_len: 32,
        seed: 5,
        encoder: Some(EncoderConfig {
            vocab_size: Vocab::build(dataset.train.iter().map(|e| e.title.as_slice()), 1).len(),
            hidden: 16,
            n_layers: 1,
            n_heads: 2,
            ff_dim: 32,
            max_len: 48,
            dropout: 0.0,
        }),
    };
    let model = ItemClassifier::train(&dataset, Some(service), PkgmVariant::PkgmAll, &cfg);
    let metrics = model.evaluate(&dataset.test);
    assert!(metrics.hit10 >= metrics.hit1);
    // The tiny test split is high-variance; memorization of the training
    // split is the robust learnability check here.
    let train_metrics = model.evaluate(&dataset.train);
    assert!(
        train_metrics.accuracy > 100.0 / dataset.n_classes as f64 * 1.5,
        "train accuracy {} shows no learning",
        train_metrics.accuracy
    );
}

#[test]
fn recommendation_pipeline_runs_with_service() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(6));
    let icfg = InteractionConfig {
        n_users: 40,
        ..InteractionConfig::tiny(6)
    };
    let data = InteractionData::generate(&catalog, &icfg);
    let service = pkgm::pretrain(
        &catalog,
        PkgmConfig::new(8).with_seed(6),
        quick_train_cfg(),
        3,
    );
    let cfg = NcfTrainConfig {
        gmf_dim: 8,
        mlp_dim: 16,
        hidden: vec![16, 8],
        lr: 8e-3,
        l2: 1e-4,
        epochs: 10,
        batch_size: 64,
        neg_ratio: 3,
        seed: 6,
    };
    let model = NcfModel::train(&data, Some(&service), PkgmVariant::PkgmR, &cfg);
    let m = model.evaluate(&data, &data.test, &[1, 10], 20, 6);
    assert_eq!(m.n, data.n_users);
    assert!(m.hr_at(10).unwrap() >= m.hr_at(1).unwrap());
}

#[test]
fn tsv_export_import_preserves_catalog_graph() {
    let catalog = Catalog::generate(&CatalogConfig::tiny(7));
    let mut out = Vec::new();
    pkgm::store::io::write_tsv(
        &catalog.store,
        &catalog.entities,
        &catalog.relations,
        &mut out,
    )
    .expect("export");
    let (store2, ..) = pkgm::store::io::read_tsv(out.as_slice()).expect("import");
    assert_eq!(store2.len(), catalog.store.len());
    let s1 = KgStats::of(&catalog.store);
    let s2 = KgStats::of(&store2);
    assert_eq!(s1.n_items, s2.n_items);
    assert_eq!(s1.n_relations, s2.n_relations);
}
