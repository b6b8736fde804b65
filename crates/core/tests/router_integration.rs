//! Router-tier integration: routed batch lookups against real shard
//! daemons are bit-identical to a single whole-table daemon, across shard
//! counts 1–8 and boundary-straddling batches, and `WrongShard` redirects
//! are followed through a live topology swap.

use pkgm_core::model::{PkgmConfig, PkgmModel};
use pkgm_core::snapshot::ServiceSnapshot;
use pkgm_core::{
    serialize, shard_ranges, Daemon, DaemonClient, DaemonConfig, KnowledgeService, RetryPolicy,
    ShardRouter, StdIo,
};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
use proptest::prelude::*;
use std::path::PathBuf;

const N_ITEMS: u32 = 45;
const DIM: usize = 8;

/// A small catalog-shaped service: items with two relations each, plus the
/// value entities they point at. Untrained — routing must be bit-exact on
/// any embedding values, and skipping training keeps the fleet tests fast.
fn service(seed: u64) -> KnowledgeService {
    let mut b = StoreBuilder::new();
    for i in 0..N_ITEMS {
        b.add_raw(i, 0, N_ITEMS + i % 7);
        b.add_raw(i, 1, N_ITEMS + 7 + i % 3);
    }
    let store = b.build();
    let pairs: Vec<(EntityId, u32)> = (0..N_ITEMS).map(|i| (EntityId(i), i % 2)).collect();
    let sel = KeyRelationSelector::build(&store, &pairs, 2, 2);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(DIM).with_seed(seed),
    );
    KnowledgeService::new(model, sel)
}

fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// One daemon per entity-range shard of `snap`.
fn start_fleet(snap: &ServiceSnapshot, n_shards: u32) -> Vec<Daemon> {
    shard_ranges(snap.n_rows() as u64, n_shards)
        .into_iter()
        .map(|(spec, len)| {
            let shard = if n_shards == 1 {
                snap.clone()
            } else {
                snap.shard_slice(spec, len).expect("valid shard slice")
            };
            Daemon::start("127.0.0.1:0", shard, DaemonConfig::default())
                .expect("daemon binds an ephemeral port")
        })
        .collect()
}

fn fleet_addrs(fleet: &[Daemon]) -> Vec<String> {
    fleet.iter().map(|d| d.local_addr().to_string()).collect()
}

#[test]
fn routed_fleet_matches_whole_table_daemon_across_shard_counts() {
    let svc = service(3);
    let snap = ServiceSnapshot::build(&svc);
    let n_rows = snap.n_rows() as u32;
    let whole = Daemon::start("127.0.0.1:0", snap.clone(), DaemonConfig::default()).unwrap();
    let mut direct = DaemonClient::connect(&whole.local_addr().to_string()).unwrap();
    let items: Vec<u32> = (0..n_rows).collect();
    let want = bits(&direct.lookup(&items).unwrap());

    for n_shards in 1..=8u32 {
        let fleet = start_fleet(&snap, n_shards);
        let mut router = ShardRouter::connect(&fleet_addrs(&fleet), RetryPolicy::default())
            .unwrap_or_else(|e| panic!("{n_shards} shards: {e}"));
        assert_eq!(router.map().n_shards(), n_shards);
        assert_eq!(router.map().total_rows(), n_rows as u64);
        let got = bits(&router.lookup(&items).unwrap());
        assert_eq!(got, want, "{n_shards} shards diverge from the whole table");
        let stats = router.stats();
        assert_eq!(stats.redirects, 0, "honest fleet never redirects");
        // The full-table batch touches every shard exactly once.
        assert_eq!(stats.sub_lookups, u64::from(n_shards));
        for d in fleet {
            d.shutdown();
        }
    }
    whole.shutdown();
}

#[test]
fn wrong_shard_redirects_refresh_map_and_reroute() {
    let svc = service(9);
    let snap = ServiceSnapshot::build(&svc);
    let n_rows = snap.n_rows() as u64;
    let shards: Vec<ServiceSnapshot> = shard_ranges(n_rows, 2)
        .into_iter()
        .map(|(spec, len)| snap.shard_slice(spec, len).unwrap())
        .collect();

    // Persist both shard files so the daemons can hot-swap to them.
    let dir = std::env::temp_dir().join(format!("pkgm-router-redirect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let p = dir.join(format!("shard{i}.pkgmss3"));
            serialize::write_snapshot_ss3_file(&StdIo, &p, s).unwrap();
            p
        })
        .collect();

    let fleet: Vec<Daemon> = shards
        .iter()
        .map(|s| Daemon::start("127.0.0.1:0", s.clone(), DaemonConfig::default()).unwrap())
        .collect();
    let addrs = fleet_addrs(&fleet);
    let mut router = ShardRouter::connect(&addrs, RetryPolicy::default()).unwrap();
    let items: Vec<u32> = (0..n_rows as u32).collect();
    let before = bits(&router.lookup(&items).unwrap());

    // Swap the daemons' shards behind the router's back: daemon 0 now
    // serves shard 1 and vice versa, so the cached map is stale for every
    // id in the batch.
    DaemonClient::connect(&addrs[0])
        .unwrap()
        .reload(paths[1].to_str().unwrap())
        .unwrap();
    DaemonClient::connect(&addrs[1])
        .unwrap()
        .reload(paths[0].to_str().unwrap())
        .unwrap();

    let after = bits(&router.lookup(&items).unwrap());
    assert_eq!(before, after, "rows must survive the swap bit-for-bit");
    let stats = router.stats();
    assert!(stats.redirects >= 1, "the swap must surface as WrongShard");
    assert!(stats.map_loads >= 2, "a redirect must refresh the map");
    // The refreshed map points each range at the swapped daemon.
    assert_eq!(router.map().entries()[0].addr, addrs[1]);
    assert_eq!(router.map().entries()[1].addr, addrs[0]);
    for d in fleet {
        d.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any batch — duplicates, arbitrary order, every shard boundary —
    /// routed across 1..=8 shards returns exactly the snapshot's rows.
    #[test]
    fn routed_lookups_are_bit_identical_for_any_batch(
        n_shards in 1u32..9,
        raw in proptest::collection::vec(0u32..10_000, 1..12),
    ) {
        let svc = service(5);
        let snap = ServiceSnapshot::build(&svc);
        let n_rows = snap.n_rows() as u32;
        let mut items: Vec<u32> = raw.into_iter().map(|x| x % n_rows).collect();
        // Straddle every shard boundary: first and last id of each range.
        for (spec, len) in shard_ranges(n_rows as u64, n_shards) {
            items.push(spec.row_start as u32);
            items.push((spec.row_start + len - 1) as u32);
        }
        let fleet = start_fleet(&snap, n_shards);
        let mut router =
            ShardRouter::connect(&fleet_addrs(&fleet), RetryPolicy::default()).unwrap();
        let rows = router.lookup(&items).unwrap();
        prop_assert_eq!(rows.len(), items.len());
        let mut want = Vec::new();
        for (&id, row) in items.iter().zip(&rows) {
            prop_assert!(snap.lookup_exact(EntityId(id), &mut want));
            let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
            let exact: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(got, exact);
        }
        for d in fleet {
            d.shutdown();
        }
    }
}
