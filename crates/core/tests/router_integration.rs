//! Router-tier integration: routed batch lookups against real shard
//! daemons are bit-identical to a single whole-table daemon, across shard
//! counts 1–8 and boundary-straddling batches; `WrongShard` redirects
//! are followed through a live topology swap; and the scatter contract
//! holds — a failed shard leaves no unread reply behind, and a shed
//! scatter write retries on that shard's own schedule.

use pkgm_core::model::{PkgmConfig, PkgmModel};
use pkgm_core::snapshot::ServiceSnapshot;
use pkgm_core::{
    protocol, serialize, shard_ranges, ClientError, Daemon, DaemonClient, DaemonConfig,
    KnowledgeService, Request, Response, RetryPolicy, RouterError, ShardRouter, StdIo,
};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
use proptest::prelude::*;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

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
    let shards: Vec<ServiceSnapshot> = shard_ranges(n_rows, 3)
        .into_iter()
        .map(|(spec, len)| snap.shard_slice(spec, len).unwrap())
        .collect();

    // Persist the swapped shard files so the daemons can hot-swap to them.
    let dir = std::env::temp_dir().join(format!("pkgm-router-redirect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = shards[..2]
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
    // The batch touches every shard, so shard 2's reply is in flight
    // while shards 0 and 1 answer WrongShard.
    let items: Vec<u32> = (0..n_rows as u32).collect();
    let before = bits(&router.lookup(&items).unwrap());

    // Swap daemons 0 and 1 behind the router's back: daemon 0 now serves
    // shard 1 and vice versa, so the cached map is stale for their ids;
    // daemon 2 keeps shard 2.
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
    assert_eq!(
        stats.redirects, 1,
        "one refresh re-routes both stale groups"
    );
    assert_eq!(stats.map_loads, 2, "a redirect must refresh the map");
    // 3 sub-lookups before the swap, 3 scattered after it, then only the
    // two redirected groups re-routed; shard 2's reply was merged as is.
    assert_eq!(stats.sub_lookups, 3 + 3 + 2);
    assert_eq!(stats.give_ups, 2, "each WrongShard answer ends its call");
    assert_eq!(stats.retries, 0, "WrongShard is never resent to its daemon");
    // The refreshed map points each range at the swapped daemon.
    assert_eq!(router.map().entries()[0].addr, addrs[1]);
    assert_eq!(router.map().entries()[1].addr, addrs[0]);
    assert_eq!(router.map().entries()[2].addr, addrs[2]);
    // Every reply of the redirected lookup was read: the next one is
    // served from the same connections, bit for bit.
    assert_eq!(bits(&router.lookup(&items).unwrap()), before);
    assert_eq!(router.stats().sub_lookups, 3 + 3 + 2 + 3);
    for d in fleet {
        d.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_shard_drops_the_replies_left_unread() {
    let svc = service(13);
    let snap = ServiceSnapshot::build(&svc);
    let n_rows = snap.n_rows() as u32;
    let whole = Daemon::start("127.0.0.1:0", snap.clone(), DaemonConfig::default()).unwrap();
    let mut direct = DaemonClient::connect(&whole.local_addr().to_string()).unwrap();
    let fleet = start_fleet(&snap, 4);
    let policy = RetryPolicy {
        budget: Some(Duration::from_millis(250)),
        ..RetryPolicy::default()
    };
    let mut router = ShardRouter::connect(&fleet_addrs(&fleet), policy).unwrap();

    // Shard 0 is read first and wedges past the budget, so the lookup
    // fails while shards 1–3 have written replies nobody has read.
    let wedge = Duration::from_millis(1000);
    fleet[0].inject_worker_wedge(wedge);
    let all: Vec<u32> = (0..n_rows).collect();
    match router.lookup(&all) {
        Err(RouterError::Lookup { addr, .. }) => assert_eq!(addr, fleet_addrs(&fleet)[0]),
        other => panic!("a wedged shard must fail the lookup typed, got {other:?}"),
    }
    assert_eq!(router.stats().give_ups, 1);
    std::thread::sleep(wedge);

    // Batches of other sizes and ids: a stale reply read as an answer
    // would show as a row-count mismatch or as the wrong rows.
    for j in 0..50u32 {
        let items: Vec<u32> = (0..8 + j % 20).map(|k| (k * 7 + j) % n_rows).collect();
        let want = bits(&direct.lookup(&items).unwrap());
        let got = bits(
            &router
                .lookup(&items)
                .unwrap_or_else(|e| panic!("lookup {j}: {e}")),
        );
        assert_eq!(got, want, "lookup {j} after the failure");
    }
    assert_eq!(router.stats().give_ups, 1);
    for d in fleet {
        d.shutdown();
    }
    whole.shutdown();
}

/// A proxy in front of one daemon that answers the next `shed` `Lookup`
/// frames with `Overloaded` itself and forwards every other frame.
fn shedding_proxy(upstream: String, shed: Arc<AtomicU32>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let (Ok(mut down), Ok(mut up)) = (conn, TcpStream::connect(&upstream)) else {
                continue;
            };
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                while let Ok(Some(body)) = protocol::read_frame(&mut down) {
                    let req = protocol::decode_request(&body).unwrap();
                    let reply = if matches!(req, Request::Lookup(_))
                        && shed
                            .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
                            .is_ok()
                    {
                        Response::Overloaded
                    } else {
                        protocol::write_frame(&mut up, &protocol::encode_request(&req)).unwrap();
                        let body = protocol::read_frame(&mut up).unwrap().unwrap();
                        protocol::decode_response(&body).unwrap()
                    };
                    if protocol::write_frame(&mut down, &protocol::encode_response(&reply)).is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_shed_scatter_attempt_retries_on_its_own_schedule() {
    let svc = service(17);
    let snap = ServiceSnapshot::build(&svc);
    let n_rows = snap.n_rows() as u32;
    let whole = Daemon::start("127.0.0.1:0", snap.clone(), DaemonConfig::default()).unwrap();
    let mut direct = DaemonClient::connect(&whole.local_addr().to_string()).unwrap();
    let fleet = start_fleet(&snap, 4);
    let shed = Arc::new(AtomicU32::new(0));
    let mut addrs = fleet_addrs(&fleet);
    addrs[2] = shedding_proxy(addrs[2].clone(), Arc::clone(&shed));
    let all: Vec<u32> = (0..n_rows).collect();
    let want = bits(&direct.lookup(&all).unwrap());

    // Shard 2's scatter write is shed; its retry re-sends while the other
    // shards' replies wait unread, and the merge is still exact.
    let mut router = ShardRouter::connect(&addrs, RetryPolicy::default()).unwrap();
    shed.store(1, SeqCst);
    assert_eq!(bits(&router.lookup(&all).unwrap()), want);
    let stats = router.stats();
    assert_eq!((stats.retries, stats.give_ups), (1, 0));
    assert_eq!(stats.sub_lookups, 4, "a retry is not another sub-lookup");

    // The scatter write is attempt 1 of the schedule, not a free try: with
    // no retries allowed, one shed ends the lookup.
    let no_retries = RetryPolicy {
        max_retries: 0,
        ..RetryPolicy::default()
    };
    let mut router = ShardRouter::connect(&addrs, no_retries).unwrap();
    shed.store(1, SeqCst);
    match router.lookup(&all) {
        Err(RouterError::Lookup { addr, error }) => {
            assert_eq!(addr, addrs[2]);
            assert!(matches!(error.last, ClientError::Overloaded), "{error}");
            assert_eq!(error.attempts, 1);
        }
        other => panic!("a shed with no retries left must fail typed, got {other:?}"),
    }
    assert_eq!((router.stats().retries, router.stats().give_ups), (0, 1));
    assert_eq!(bits(&router.lookup(&all).unwrap()), want);
    for d in fleet {
        d.shutdown();
    }
    whole.shutdown();
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
