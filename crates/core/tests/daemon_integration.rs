//! End-to-end daemon tests: a real TCP daemon on an ephemeral port, real
//! clients, hot-swaps under live traffic, and hostile byte streams.

use pkgm_core::artifact;
use pkgm_core::model::{PkgmConfig, PkgmModel};
use pkgm_core::protocol::{self, Response};
use pkgm_core::serialize;
use pkgm_core::snapshot::ServiceSnapshot;
use pkgm_core::{
    ClientError, Daemon, DaemonClient, DaemonConfig, KnowledgeService, RetryClient, RetryPolicy,
    SnapshotBacking, StdIo,
};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N_ITEMS: u32 = 24;
const DIM: usize = 8;

fn service(seed: u64) -> KnowledgeService {
    let mut b = StoreBuilder::new();
    for i in 0..N_ITEMS {
        b.add_raw(i, 0, N_ITEMS + i % 5);
        b.add_raw(i, 1, N_ITEMS + 5);
    }
    let store = b.build();
    let pairs: Vec<(EntityId, u32)> = (0..N_ITEMS).map(|i| (EntityId(i), 0)).collect();
    let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(DIM).with_seed(seed),
    );
    KnowledgeService::new(model, sel)
}

/// Frame a hand-written body the way `protocol` does: flagged length
/// prefix, CRC32 trailer, body. For bodies no encoder would produce.
fn hand_framed(body: &[u8]) -> Vec<u8> {
    let mut framed = (body.len() as u32 | protocol::FRAME_FLAG_CRC)
        .to_le_bytes()
        .to_vec();
    framed.extend_from_slice(&pkgm_core::artifact::crc32(body).to_le_bytes());
    framed.extend_from_slice(body);
    framed
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pkgm-daemon-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_daemon(svc: &KnowledgeService) -> Daemon {
    let snap = ServiceSnapshot::build(svc);
    Daemon::start("127.0.0.1:0", snap, DaemonConfig::default())
        .expect("daemon binds an ephemeral port")
}

#[test]
fn lookups_match_direct_service_bit_exactly() {
    let svc = service(7);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();
    client.ping().unwrap();

    let items: Vec<u32> = (0..N_ITEMS).collect();
    let rows = client.lookup(&items).unwrap();
    assert_eq!(rows.len(), items.len());
    let mut direct = Vec::new();
    let snap = ServiceSnapshot::build(&svc);
    for (&id, row) in items.iter().zip(&rows) {
        assert_eq!(row.len(), 2 * DIM);
        direct.clear();
        assert!(snap.lookup_exact(EntityId(id), &mut direct));
        let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = direct.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "item {id} differs from the snapshot row");
    }

    // Stats round-trips as JSON with the headline counters.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("dim").and_then(|v| v.as_u64()), Some(DIM as u64));
    assert!(stats.get("lookups").and_then(|v| v.as_u64()).unwrap() >= 1);
    assert_eq!(stats.get("swaps").and_then(|v| v.as_u64()), Some(0));

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn hot_swap_under_load_loses_no_lookups_and_keeps_rows_bit_identical() {
    let svc = service(11);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();

    // Two snapshot artifacts built from the *same* service: unchanged
    // entities must come back bit-identical across every swap.
    let dir = tmpdir("swap");
    let snap_a = dir.join("a.pkgmss");
    let snap_b = dir.join("b.pkgmss");
    let snap = ServiceSnapshot::build(&svc);
    serialize::write_snapshot_ss3_file(&StdIo, &snap_a, &snap).unwrap();
    serialize::write_snapshot_ss3_file(&StdIo, &snap_b, &snap).unwrap();

    let mut reference = Vec::new();
    let baseline: Vec<Vec<u32>> = (0..N_ITEMS)
        .map(|id| {
            reference.clear();
            assert!(snap.lookup_exact(EntityId(id), &mut reference));
            reference.iter().map(|x| x.to_bits()).collect()
        })
        .collect();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 60;
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let lookups: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.clone();
                let baseline = &baseline;
                s.spawn(move || {
                    let mut client = DaemonClient::connect(&addr).unwrap();
                    let items: Vec<u32> = (0..N_ITEMS).map(|i| (i + c as u32) % N_ITEMS).collect();
                    for round in 0..ROUNDS {
                        // Zero failed lookups: every response must be rows
                        // (Overloaded would surface as ClientError here).
                        let rows = client
                            .lookup(&items)
                            .unwrap_or_else(|e| panic!("client {c} round {round}: {e}"));
                        for (&id, row) in items.iter().zip(&rows) {
                            let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                            assert_eq!(
                                got, baseline[id as usize],
                                "client {c} round {round}: item {id} changed bits mid-swap"
                            );
                        }
                    }
                })
            })
            .collect();
        let swapper = {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let (snap_a, snap_b) = (snap_a.clone(), snap_b.clone());
            s.spawn(move || {
                let mut client = DaemonClient::connect(&addr).unwrap();
                let mut swaps = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let path = if swaps.is_multiple_of(2) {
                        &snap_a
                    } else {
                        &snap_b
                    };
                    let summary = client.reload(path.to_str().unwrap()).unwrap();
                    swaps = summary.get("swaps").and_then(|v| v.as_u64()).unwrap();
                }
                swaps
            })
        };
        for l in lookups {
            l.join().unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        let swaps = swapper.join().unwrap();
        assert!(swaps >= 1, "no hot-swap completed while clients were live");
    });

    assert!(daemon.swaps() >= 1);
    let mut client = DaemonClient::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("protocol_errors").and_then(|v| v.as_u64()),
        Some(0),
        "well-formed clients must not register protocol errors"
    );
    client.shutdown().unwrap();
    daemon.wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn reload_of_corrupt_snapshot_is_rejected_and_serving_continues() {
    let svc = service(5);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let dir = tmpdir("corrupt");

    // Truncated snapshot: the section bounds must reject it.
    let good = dir.join("good.pkgmss");
    serialize::write_snapshot_ss3_file(&StdIo, &good, &ServiceSnapshot::build(&svc)).unwrap();
    let bytes = std::fs::read(&good).unwrap();
    let bad = dir.join("bad.pkgmss");
    std::fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();

    let mut client = DaemonClient::connect(&addr).unwrap();
    match client.reload(bad.to_str().unwrap()) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("cannot load snapshot")),
        other => panic!("corrupt reload must fail server-side, got {other:?}"),
    }
    // A missing path fails the same typed way.
    assert!(matches!(
        client.reload(dir.join("missing.pkgmss").to_str().unwrap()),
        Err(ClientError::Server(_))
    ));
    // So does a valid snapshot of another dim: the live snapshot sets it.
    let mut b = StoreBuilder::new();
    b.add_raw(0, 0, 1);
    let store = b.build();
    let wide = KnowledgeService::new(
        PkgmModel::new(2, 1, PkgmConfig::new(2 * DIM).with_seed(1)),
        KeyRelationSelector::build(&store, &[(EntityId(0), 0)], 1, 1),
    );
    let other_dim = dir.join("wide.pkgmss");
    serialize::write_snapshot_ss3_file(&StdIo, &other_dim, &ServiceSnapshot::build(&wide)).unwrap();
    match client.reload(other_dim.to_str().unwrap()) {
        Err(ClientError::Server(msg)) => assert!(
            msg.contains(&format!("does not match serving dim {DIM}")),
            "{msg}"
        ),
        other => panic!(
            "a dim-{} reload must fail server-side, got {other:?}",
            2 * DIM
        ),
    }

    // The live table kept serving and no swap happened.
    assert_eq!(daemon.swaps(), 0);
    let rows = client.lookup(&[0, 1, 2]).unwrap();
    assert_eq!(rows.len(), 3);
    client.shutdown().unwrap();
    daemon.wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn reload_of_a_retired_format_is_refused_and_serving_is_unchanged() {
    let svc = service(9);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let dir = tmpdir("retired");
    let mut client = DaemonClient::connect(&addr).unwrap();
    // Serve a mapped PKGMSS3 file first: that is the snapshot to keep.
    let good = dir.join("good.ss3");
    serialize::write_snapshot_ss3_file(&StdIo, &good, &ServiceSnapshot::build(&svc)).unwrap();
    client.reload(good.to_str().unwrap()).unwrap();
    let items: Vec<u32> = (0..N_ITEMS + 8).collect();
    let bits = |rows: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
        rows.iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let before = bits(client.lookup(&items).unwrap());

    // What older builds wrote: the SS1/SS2 row streams (magic
    // "PKGMSS{n}\0", dim, k, n_rows, rows), a PKGMAF1 frame of the retired
    // snapshot kind 3, and an unframed payload.
    let stream = |n: u32| {
        let mut b = format!("PKGMSS{n}\0").into_bytes();
        b.extend_from_slice(&(DIM as u32).to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes()); // k
        b.extend_from_slice(&1u64.to_le_bytes()); // n_rows
        b.extend_from_slice(&[0u8; 2 * DIM * 4]);
        b
    };
    let payload = serialize::model_to_bytes(svc.model());
    let mut kind3 = artifact::ARTIFACT_MAGIC.to_vec();
    kind3.extend_from_slice(&artifact::ARTIFACT_VERSION.to_le_bytes());
    kind3.extend_from_slice(&3u32.to_le_bytes());
    kind3.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    kind3.extend_from_slice(&artifact::crc32(&payload).to_le_bytes());
    kind3.extend_from_slice(&payload);
    let retired = [
        ("ss1", stream(1)),
        ("ss2", stream(2)),
        ("kind3", kind3),
        ("raw", payload.to_vec()),
    ];
    for (name, bytes) in retired {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        match client.reload(path.to_str().unwrap()) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("not a PKGMSS3 snapshot"), "{name}: {msg}")
            }
            other => panic!("{name}: a retired-format reload must fail, got {other:?}"),
        }
    }

    // Only the good reload swapped; the mapped table serves the same bits.
    assert_eq!(daemon.swaps(), 1);
    assert_eq!(bits(client.lookup(&items).unwrap()), before);
    client.shutdown().unwrap();
    daemon.wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn mid_request_disconnects_and_garbage_leave_the_daemon_healthy() {
    let svc = service(3);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();

    // 1. Disconnect after the length prefix, mid-frame.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&(64 | protocol::FRAME_FLAG_CRC).to_le_bytes())
            .unwrap();
        raw.flush().unwrap();
    } // dropped: handler sees a truncated frame

    // 2. Disconnect partway through a declared body.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        let mut body = [0u8; 16];
        body[0] = protocol::op::LOOKUP;
        raw.write_all(&hand_framed(&body)[..8 + 3]).unwrap();
        raw.flush().unwrap();
    }

    // 3. Oversized length prefix: typed BadRequest response, then close.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let body = protocol::read_frame(&mut raw)
            .unwrap()
            .expect("daemon answers before closing");
        match protocol::decode_response(&body).unwrap() {
            Response::BadRequest(msg) => assert!(msg.contains("exceeds")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    // 4. Valid frame with a garbage opcode: typed BadRequest.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&hand_framed(&[0xEE])).unwrap();
        raw.flush().unwrap();
        let body = protocol::read_frame(&mut raw)
            .unwrap()
            .expect("daemon answers before closing");
        assert!(matches!(
            protocol::decode_response(&body).unwrap(),
            Response::BadRequest(_)
        ));
    }

    // 5. A well-formed lookup framed without the CRC flag (what a pre-CRC
    //    client sent): refused on the prefix, typed BadRequest, then close.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        let framed = protocol::encode_request(&protocol::Request::Lookup(vec![0, 1]));
        let len = (framed.len() - 8) as u32;
        raw.write_all(&len.to_le_bytes()).unwrap();
        raw.write_all(&framed[8..]).unwrap();
        raw.flush().unwrap();
        let body = protocol::read_frame(&mut raw)
            .unwrap()
            .expect("daemon answers before closing");
        match protocol::decode_response(&body).unwrap() {
            Response::BadRequest(msg) => assert!(msg.contains("CRC flag")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    // After all that abuse a well-formed client still gets service, and
    // every hostile stream above was counted. The two silent disconnects
    // are noticed asynchronously by their handler threads, so poll.
    let mut client = DaemonClient::connect(&addr).unwrap();
    client.ping().unwrap();
    let rows = client.lookup(&[0, 1]).unwrap();
    assert_eq!(rows.len(), 2);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        let errors = stats
            .get("protocol_errors")
            .and_then(|v| v.as_u64())
            .unwrap();
        if errors >= 5 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected >= 5 protocol errors, daemon reports {errors}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn oversized_lookup_is_rejected_without_executing() {
    let svc = service(9);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();

    // A count just above the item cap decodes into TooManyItems server-side.
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut body = vec![protocol::op::LOOKUP];
    body.extend_from_slice(&(protocol::MAX_LOOKUP_ITEMS + 1).to_le_bytes());
    raw.write_all(&hand_framed(&body)).unwrap();
    raw.flush().unwrap();
    let resp = protocol::read_frame(&mut raw)
        .unwrap()
        .expect("daemon answers the oversized lookup");
    match protocol::decode_response(&resp).unwrap() {
        Response::BadRequest(msg) => assert!(msg.contains("item cap")),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("lookups").and_then(|v| v.as_u64()), Some(0));
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn wide_rows_shrink_the_item_cap_to_what_fits_one_response_frame() {
    // d = 512 ⇒ 1024-float rows ⇒ a full MAX_LOOKUP_ITEMS response would
    // be ~256 MiB, far past MAX_FRAME_LEN. The daemon must reject the
    // excess up front with a typed BadRequest instead of building an
    // unsendable frame.
    let mut b = StoreBuilder::new();
    for i in 0..4u32 {
        b.add_raw(i, 0, 4);
        b.add_raw(i, 1, 5);
    }
    let store = b.build();
    let pairs: Vec<(EntityId, u32)> = (0..4).map(|i| (EntityId(i), 0)).collect();
    let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(512).with_seed(17),
    );
    let snap = ServiceSnapshot::build(&KnowledgeService::new(model, sel));
    let daemon = Daemon::start("127.0.0.1:0", snap, DaemonConfig::default()).unwrap();
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();

    let cap = protocol::max_lookup_items_for_row_len(2 * 512);
    assert!(cap < protocol::MAX_LOOKUP_ITEMS);
    // One past the dim-derived cap (still protocol-valid): typed rejection.
    let oversized: Vec<u32> = (0..=cap).map(|i| i % 4).collect();
    match client.lookup(&oversized) {
        Err(ClientError::BadRequest(msg)) => {
            assert!(msg.contains("item cap"), "unexpected message: {msg}")
        }
        other => panic!("expected BadRequest for {} items, got {other:?}", cap + 1),
    }
    // The connection survives and a small lookup still serves.
    let rows = client.lookup(&[0, 1, 2, 3]).unwrap();
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0].len(), 2 * 512);
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn health_and_ready_verbs_respond_over_the_wire() {
    let svc = service(21);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();

    let health = client.health().unwrap();
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert!(health.get("uptime_secs").and_then(|v| v.as_f64()).is_some());
    assert_eq!(
        health.get("worker_restarts").and_then(|v| v.as_u64()),
        Some(0)
    );

    assert!(client.ready().unwrap(), "fresh daemon must be ready");
    let ready = client.ready_json().unwrap();
    assert_eq!(ready.get("ready").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        ready.get("batcher_accepting").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        ready.get("swap_wedged").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert_eq!(ready.get("snapshot").and_then(|v| v.as_bool()), Some(true));

    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn max_conns_cap_sheds_with_typed_overloaded_at_accept() {
    let svc = service(23);
    let snap = ServiceSnapshot::build(&svc);
    let cfg = DaemonConfig {
        max_conns: 2,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start("127.0.0.1:0", snap, cfg).unwrap();
    let addr = daemon.local_addr().to_string();

    // Two admitted connections, proven registered by a served round trip.
    let mut a = DaemonClient::connect(&addr).unwrap();
    let mut b = DaemonClient::connect(&addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // The third is past the cap: the daemon answers a typed Overloaded
    // frame at accept time and closes without reading the request.
    let mut c = DaemonClient::connect(&addr).unwrap();
    match c.ping() {
        Err(ClientError::Overloaded) => {}
        // The shed frame may race the client's write; a transport error is
        // the only other legal outcome — never a served ping.
        Err(ClientError::Io(_)) => {}
        other => panic!("expected an accept-time shed, got {other:?}"),
    }
    drop(c);

    // Freeing a slot readmits, and the shed was counted.
    drop(b);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let stats = loop {
        match DaemonClient::connect(&addr).and_then(|mut d| d.stats()) {
            Ok(stats) => break stats,
            Err(_) => {
                // The daemon notices the dropped handler asynchronously.
                assert!(
                    std::time::Instant::now() < deadline,
                    "slot never freed after dropping an admitted connection"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    };
    assert!(
        stats
            .get("conns_rejected")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1,
        "accept-time shed must be counted"
    );
    a.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn shutdown_joins_while_idle_connections_fill_the_cap() {
    // Shutdown wakes the acceptor with one self-connect. With the cap full
    // that connect must still end the accept loop rather than be shed as
    // one connection too many — or the acceptor blocks in accept() and the
    // join never returns. Several rounds, because whether the wake-up sees
    // the cap full races the handlers closing their connections.
    let snap = ServiceSnapshot::build(&service(31));
    for round in 0..10 {
        let cfg = DaemonConfig {
            max_conns: 2,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start("127.0.0.1:0", snap.clone(), cfg).unwrap();
        let addr = daemon.local_addr().to_string();
        let mut idle: Vec<DaemonClient> = (0..2)
            .map(|_| DaemonClient::connect(&addr).unwrap())
            .collect();
        // A served round trip proves each connection is registered.
        for c in &mut idle {
            c.ping().unwrap();
        }
        let (joined, rx) = std::sync::mpsc::channel();
        // Not joined: a hung shutdown is the failure, reported by the
        // timeout below; the thread dies with the test process.
        std::thread::spawn(move || {
            daemon.shutdown();
            let _ = joined.send(());
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok(),
            "round {round}: shutdown did not join with the connection cap full"
        );
    }
}

/// `(misses, hits, degraded)` from the daemon's `stats` verb.
fn cache_counts(client: &mut DaemonClient) -> (u64, u64, u64) {
    let stats = client.stats().unwrap();
    let n = |k: &str| {
        let counter = stats.get("cache").and_then(|c| c.get(k));
        counter.and_then(|v| v.as_u64()).expect("cache counter")
    };
    (n("misses"), n("hits"), n("degraded"))
}

/// The cache's accounting as the `stats` verb reports it, for every
/// backing: an id repeated within one batch is one miss, then hits; an id
/// past the table end is an all-zero row counted as degraded, never
/// cached; a non-item entity inside the table is its stored all-zero row,
/// counted as a miss, then cached.
#[test]
fn stats_pin_cache_accounting_for_dense_mapped_and_quantized_snapshots() {
    let dense = ServiceSnapshot::build(&service(41));
    let dir = tmpdir("accounting");
    let path = dir.join("dense.pkgmss3");
    serialize::write_snapshot_ss3_file(&StdIo, &path, &dense).unwrap();
    let mapped = serialize::open_snapshot_file(&path).unwrap();
    assert_eq!(mapped.backing(), SnapshotBacking::Mapped);
    let past = dense.n_rows() as u32 + 3;
    let value_entity = N_ITEMS + 1;
    assert!(dense.covers(value_entity) && !dense.covers(past));
    let all_zero = |row: &[f32]| row.iter().all(|x| x.to_bits() == 0);

    for (name, snap) in [
        ("dense", dense.clone()),
        ("mapped", mapped),
        ("quantized", dense.quantize()),
    ] {
        let daemon = Daemon::start("127.0.0.1:0", snap.clone(), DaemonConfig::default()).unwrap();
        let mut client = DaemonClient::connect(&daemon.local_addr().to_string()).unwrap();
        // Each lookup with (misses, hits, degraded) after it.
        let steps = [
            (vec![5, 5, 7, 5], (2, 2, 0)),
            (vec![past], (2, 2, 1)),
            (vec![past], (2, 2, 2)),
            (vec![value_entity], (3, 2, 2)),
            (vec![value_entity], (3, 3, 2)),
        ];
        let mut want = Vec::new();
        for (items, expect) in steps {
            let rows = client.lookup(&items).unwrap();
            for (&id, row) in items.iter().zip(&rows) {
                if snap.lookup_exact(EntityId(id), &mut want) {
                    let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                    let exact: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, exact, "{name}: id {id}");
                }
                if id == past || id == value_entity {
                    assert!(all_zero(row), "{name}: id {id} must be an all-zero row");
                }
            }
            assert_eq!(
                cache_counts(&mut client),
                expect,
                "{name}: after looking up {items:?}"
            );
        }
        client.shutdown().unwrap();
        daemon.wait();
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deadline_lookups_round_trip_and_zero_budget_is_shed_typed() {
    let svc = service(27);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();
    let items: Vec<u32> = (0..N_ITEMS).collect();

    // A generous budget serves identically to a plain lookup.
    let plain = client.lookup(&items).unwrap();
    let budgeted = client
        .lookup_with_deadline(&items, std::time::Duration::from_secs(5))
        .unwrap();
    for (p, b) in plain.iter().zip(&budgeted) {
        let p_bits: Vec<u32> = p.iter().map(|x| x.to_bits()).collect();
        let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(p_bits, b_bits, "deadline path changed the served bits");
    }

    // A zero budget is expired on arrival: typed shed, counted, and the
    // connection survives for the next request.
    match client.lookup_with_deadline(&items, std::time::Duration::ZERO) {
        Err(ClientError::DeadlineExceeded(stage)) => {
            assert_eq!(
                stage.name(),
                "at-enqueue",
                "zero budget sheds before queueing"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    let expired = stats
        .get("batch")
        .and_then(|b| b.get("expired_enqueue"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(expired >= 1, "expired-at-enqueue work must be counted");
    let rows = client.lookup(&items[..3]).unwrap();
    assert_eq!(rows.len(), 3);

    // Through the retry layer a deadline miss is final and counted.
    let mut rc = RetryClient::new(addr, RetryPolicy::default());
    let err = rc
        .lookup_with_deadline(&items, std::time::Duration::ZERO)
        .expect_err("a zero budget cannot be served in time");
    assert!(
        matches!(err.last, ClientError::DeadlineExceeded(_)),
        "{err}"
    );
    assert_eq!(
        (rc.stats().deadline_misses, rc.stats().retries),
        (1, 0),
        "deadline failures are counted and never retried"
    );
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn watchdog_restart_counters_surface_in_stats_over_the_wire() {
    let svc = service(29);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();

    daemon.inject_worker_panic();
    // Queued work survives the panic (the hook fires before dequeue), so
    // this lookup is served, bit-exact, by a surviving or respawned worker.
    let rows = client.lookup(&[0, 1, 2]).unwrap();
    let snap = ServiceSnapshot::build(&svc);
    let mut want = Vec::new();
    for (id, row) in (0..3).zip(&rows) {
        assert!(snap.lookup_exact(EntityId(id), &mut want));
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(row), bits(&want), "item {id}");
    }

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = client.stats().unwrap();
        if stats
            .get("worker_restarts")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker restart never surfaced in the stats JSON"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        client.ready().unwrap(),
        "daemon must be ready after recovery"
    );
    client.shutdown().unwrap();
    daemon.wait();
}

#[test]
fn shutdown_races_with_incoming_connections_without_hanging() {
    // Regression test for the accept/shutdown race: a connection accepted
    // around initiate_shutdown must still be closed, or its handler blocks
    // in read_frame forever and shutdown() never joins.
    let svc = service(13);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let connectors: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        // Connect, ping, drop — a constant stream of fresh
                        // connections for shutdown to race against.
                        if let Ok(mut c) = DaemonClient::connect(&addr) {
                            let _ = c.ping();
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Joins the acceptor, workers, and every handler; a leaked blocked
        // handler turns this into a hang (caught by the test harness).
        daemon.shutdown();
        stop.store(true, Ordering::SeqCst);
        for c in connectors {
            c.join().unwrap();
        }
    });
}

#[test]
fn sharded_mapped_snapshot_serves_its_range_and_redirects_the_rest() {
    let svc = service(37);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let dir = tmpdir("shard");

    // Shard 1 of 3 written as a PKGMSS3 artifact; reload maps it.
    let full = ServiceSnapshot::build(&svc);
    let ranges = pkgm_core::shard_ranges(full.n_rows() as u64, 3);
    let (spec, len) = ranges[1];
    let shard = full.shard_slice(spec, len).unwrap();
    let path = dir.join("shard1.pkgmss3");
    serialize::write_snapshot_ss3_file(&StdIo, &path, &shard).unwrap();

    let mut client = DaemonClient::connect(&addr).unwrap();
    let summary = client.reload(path.to_str().unwrap()).unwrap();
    let snap_json = summary.get("snapshot").unwrap();
    assert_eq!(
        snap_json.get("backing").and_then(|v| v.as_str()),
        Some("mapped"),
        "a PKGMSS3 reload must come up memory-mapped: {summary:?}"
    );
    assert_eq!(
        snap_json
            .get("shard")
            .and_then(|s| s.get("shard_id"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );

    // In-range ids serve bit-identically to the resident full table.
    let in_range: Vec<u32> = (spec.row_start..spec.row_start + 2)
        .map(|r| r as u32)
        .collect();
    let rows = client.lookup(&in_range).unwrap();
    let mut reference = Vec::new();
    for (&id, row) in in_range.iter().zip(&rows) {
        assert!(full.lookup_exact(EntityId(id), &mut reference));
        let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = reference.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "item {id} differs from the resident row");
        reference.clear();
    }

    // An id on another shard gets a typed redirect carrying the topology,
    // never a silently-degraded fallback row.
    match client.lookup(&[0]) {
        Err(ClientError::WrongShard {
            id,
            shard_id,
            n_shards,
            row_start,
            ..
        }) => {
            assert_eq!(id, 0);
            assert_eq!(shard_id, 1);
            assert_eq!(n_shards, 3);
            assert_eq!(row_start, spec.row_start);
        }
        other => panic!("expected WrongShard for an out-of-range id, got {other:?}"),
    }

    // The stats verb surfaces the same backing/shard detail.
    let stats = client.stats().unwrap();
    let snap_stats = stats.get("snapshot").unwrap();
    assert_eq!(
        snap_stats.get("backing").and_then(|v| v.as_str()),
        Some("mapped")
    );
    assert_eq!(
        snap_stats
            .get("shard")
            .and_then(|s| s.get("n_shards"))
            .and_then(|v| v.as_u64()),
        Some(3)
    );

    // The connection survives the typed rejection.
    let rows = client.lookup(&in_range).unwrap();
    assert_eq!(rows.len(), in_range.len());
    client.shutdown().unwrap();
    daemon.wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_request_stops_the_daemon_and_fails_queued_work_typed() {
    let svc = service(2);
    let daemon = start_daemon(&svc);
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();
    client.shutdown().unwrap();
    daemon.wait();
    // The port is released: a fresh connect must fail (or be refused on
    // first use) — the daemon is really gone, not wedged.
    match DaemonClient::connect(&addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err()),
    }
}
