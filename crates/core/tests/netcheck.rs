//! Network chaos: a deterministic in-process [`ChaosProxy`] sits between a
//! real client and a real [`Daemon`] and plays a scripted [`NetFaultPlan`]
//! — dropped frames, mid-frame truncations (resets), delays, single-bit
//! corruption, slowloris dribbles — keyed by frame index per direction, so
//! every case is reproducible.
//!
//! The contract each test asserts a piece of:
//!
//! * every lookup the client reports as *successful* is bit-exact against
//!   the snapshot — corruption is detected (CRC), never served;
//! * every failure surfaces as a *typed* error — no client panic, no
//!   daemon panic (injected daemon-thread panics are absorbed by the
//!   watchdog);
//! * the retry layer never re-sends a possibly-executed request, retries
//!   shed/unsent work to success, and bounds its attempts;
//! * daemon stats stay monotone while chaos rages.
//!
//! Zero deadline budgets and worker panics are covered in
//! `daemon_integration` (`deadline_lookups_round_trip_and_zero_budget_is_shed_typed`,
//! `watchdog_restart_counters_surface_in_stats_over_the_wire`).

use pkgm_core::protocol::{ProtocolError, FRAME_FLAG_CRC, MAX_FRAME_LEN};
use pkgm_core::{
    ClientError, Daemon, DaemonClient, DaemonConfig, KnowledgeService, PkgmConfig, PkgmModel,
    RetryClient, RetryPolicy, ServiceSnapshot,
};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One scripted fault, applied to a single whole frame crossing the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetFault {
    /// The frame vanishes and the connection is reset — the sender's write
    /// succeeded, the receiver never sees a byte of it.
    DropBeforeForward,
    /// Only the first `keep` bytes are forwarded, then the connection is
    /// reset mid-frame.
    TruncateForward { keep: usize },
    /// The frame arrives intact but late.
    Delay { millis: u64 },
    /// One bit past the length prefix is flipped (byte offset taken modulo
    /// the post-prefix length, bit masked to 0..8); the frame CRC must
    /// catch it at the receiver.
    CorruptByte { byte: usize, bit: u8 },
    /// The frame dribbles out `chunk` bytes at a time with a pause between
    /// chunks — a slow-writer peer the receiver must tolerate.
    Slowloris { chunk: usize, gap_millis: u64 },
}

/// A deterministic schedule of [`NetFault`]s, keyed by frame index counted
/// per direction across the proxy's lifetime (0-based; retries on fresh
/// connections keep counting, so "fault frame 0, spare frame 1" scripts a
/// fail-once-then-recover history).
#[derive(Debug, Clone, Default)]
struct NetFaultPlan {
    /// Faults on client→server frames (requests).
    up: BTreeMap<u64, NetFault>,
    /// Faults on server→client frames (responses).
    down: BTreeMap<u64, NetFault>,
}

impl NetFaultPlan {
    /// Script `fault` for the `nth` client→server frame.
    fn with_up(mut self, nth: u64, fault: NetFault) -> Self {
        self.up.insert(nth, fault);
        self
    }

    /// Script `fault` for the `nth` server→client frame.
    fn with_down(mut self, nth: u64, fault: NetFault) -> Self {
        self.down.insert(nth, fault);
        self
    }

    /// A seeded random plan: one fault of a random kind on a random early
    /// frame in a random direction. Same seed, same plan.
    fn seeded(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4E7C);
        let nth = rng.gen_range(0u64..3);
        let fault = match rng.gen_range(0u32..5) {
            0 => NetFault::DropBeforeForward,
            1 => NetFault::TruncateForward {
                keep: rng.gen_range(0..32),
            },
            2 => NetFault::Delay {
                millis: rng.gen_range(1..40),
            },
            3 => NetFault::CorruptByte {
                byte: rng.gen_range(0..4096),
                bit: rng.gen_range(0u32..8) as u8,
            },
            _ => NetFault::Slowloris {
                chunk: rng.gen_range(1..7),
                gap_millis: rng.gen_range(1..4),
            },
        };
        if rng.gen_bool(0.5) {
            Self::default().with_up(nth, fault)
        } else {
            Self::default().with_down(nth, fault)
        }
    }
}

/// A frame-aware TCP proxy that executes a [`NetFaultPlan`] between a real
/// client and a real daemon. Each accepted connection gets two pump
/// threads (one per direction) that read whole wire frames, consult the
/// plan by global per-direction frame index, and forward / mangle / drop
/// accordingly. Pumps die with their sockets; dropping the proxy stops the
/// acceptor.
struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an ephemeral localhost port, forwarding to the
    /// daemon at `upstream`.
    fn start(upstream: &str, plan: NetFaultPlan) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let up_plan = Arc::new(plan.up);
        let down_plan = Arc::new(plan.down);
        let up_frames = Arc::new(AtomicU64::new(0));
        let down_frames = Arc::new(AtomicU64::new(0));
        let upstream = upstream.to_string();
        let stop_flag = Arc::clone(&stop);
        let acceptor = thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = conn else { continue };
                // An unreachable upstream manifests to the client as an
                // immediate close — the connect-level fault.
                let Ok(server) = TcpStream::connect(&upstream) else {
                    continue;
                };
                let (Ok(client_rx), Ok(server_rx)) = (client.try_clone(), server.try_clone())
                else {
                    continue;
                };
                let (plan, frames) = (Arc::clone(&up_plan), Arc::clone(&up_frames));
                thread::spawn(move || pump(client_rx, server, &plan, &frames));
                let (plan, frames) = (Arc::clone(&down_plan), Arc::clone(&down_frames));
                thread::spawn(move || pump(server_rx, client, &plan, &frames));
            }
        });
        Self {
            addr,
            stop,
            acceptor: Some(acceptor),
        }
    }

    /// The proxy's listen address — point clients here.
    fn addr(&self) -> String {
        self.addr.to_string()
    }
}

impl Drop for ChaosProxy {
    /// Stop accepting and join the acceptor. In-flight pump threads finish
    /// with their sockets.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Fill `buf` from `r`, tolerating EOF: returns how many bytes landed.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(m) => n += m,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// One direction of one proxied connection: read whole frames from `src`,
/// apply the plan, forward to `dst`. Exiting resets both sockets so the
/// peer observes the fault promptly.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    plan: &BTreeMap<u64, NetFault>,
    frames: &AtomicU64,
) {
    'conn: loop {
        let mut prefix = [0u8; 4];
        let got = match read_some(&mut src, &mut prefix) {
            Ok(n) => n,
            Err(_) => break,
        };
        if got == 0 {
            break; // clean close
        }
        if got < 4 {
            // Torn prefix from a dying peer: forward verbatim and close.
            let _ = dst.write_all(&prefix[..got]);
            break;
        }
        let word = u32::from_le_bytes(prefix);
        let len = word & !FRAME_FLAG_CRC;
        if word & FRAME_FLAG_CRC == 0 || len > MAX_FRAME_LEN {
            // Garbage prefix (hostile peer): forward it for the daemon to
            // reject, then degrade to an unframed byte pipe.
            if dst.write_all(&prefix).is_err() {
                break;
            }
            let mut buf = [0u8; 4096];
            loop {
                match src.read(&mut buf) {
                    Ok(0) | Err(_) => break 'conn,
                    Ok(n) => {
                        if dst.write_all(&buf[..n]).is_err() {
                            break 'conn;
                        }
                    }
                }
            }
        }
        let body_len = len as usize + 4; // CRC trailer + body
        let mut frame = vec![0u8; 4 + body_len];
        frame[..4].copy_from_slice(&prefix);
        let got = match read_some(&mut src, &mut frame[4..]) {
            Ok(n) => n,
            Err(_) => break,
        };
        frame.truncate(4 + got);
        if got < body_len {
            // The sender died mid-frame on its own; pass the torn bytes on.
            let _ = dst.write_all(&frame);
            break;
        }
        let idx = frames.fetch_add(1, Ordering::SeqCst);
        match plan.get(&idx).copied() {
            None => {
                if dst.write_all(&frame).is_err() {
                    break;
                }
            }
            Some(NetFault::Delay { millis }) => {
                thread::sleep(Duration::from_millis(millis));
                if dst.write_all(&frame).is_err() {
                    break;
                }
            }
            Some(NetFault::DropBeforeForward) => break,
            Some(NetFault::TruncateForward { keep }) => {
                let keep = keep.min(frame.len());
                let _ = dst.write_all(&frame[..keep]);
                break;
            }
            Some(NetFault::CorruptByte { byte, bit }) => {
                // Flip past the prefix so the CRC check sees it at once (a
                // prefix flip that lengthens the frame is only detected when
                // the stream ends).
                let off = 4 + byte % (frame.len() - 4);
                frame[off] ^= 1 << (bit & 7);
                if dst.write_all(&frame).is_err() {
                    break;
                }
            }
            Some(NetFault::Slowloris { chunk, gap_millis }) => {
                for piece in frame.chunks(chunk.max(1)) {
                    if dst.write_all(piece).is_err() {
                        break 'conn;
                    }
                    let _ = dst.flush();
                    thread::sleep(Duration::from_millis(gap_millis));
                }
            }
        }
        let _ = dst.flush();
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

const SEED: u64 = 42;
const N_ITEMS: u32 = 16;
const DIM: usize = 6;

/// Deterministic toy snapshot.
fn fixture(seed: u64) -> ServiceSnapshot {
    let mut b = StoreBuilder::new();
    for i in 0..N_ITEMS {
        b.add_raw(i, 0, N_ITEMS + i % 3);
        b.add_raw(i, 1, N_ITEMS + 3);
    }
    let store = b.build();
    let pairs: Vec<(EntityId, u32)> = (0..N_ITEMS).map(|i| (EntityId(i), 0)).collect();
    let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
    let model = PkgmModel::new(
        store.n_entities() as usize,
        store.n_relations() as usize,
        PkgmConfig::new(DIM).with_seed(seed),
    );
    ServiceSnapshot::build(&KnowledgeService::new(model, sel))
}

fn items() -> Vec<u32> {
    (0..N_ITEMS).collect()
}

fn start_daemon(snap: &ServiceSnapshot, cfg: DaemonConfig) -> Daemon {
    Daemon::start("127.0.0.1:0", snap.clone(), cfg).expect("daemon binds an ephemeral port")
}

/// A daemon over the fixture, and a proxy in front of it playing `plan`.
fn proxied(plan: NetFaultPlan) -> (ServiceSnapshot, Daemon, ChaosProxy) {
    let snap = fixture(SEED);
    let daemon = start_daemon(&snap, DaemonConfig::default());
    let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan);
    (snap, daemon, proxy)
}

/// Assert `rows` for `items` match the snapshot bit for bit.
fn assert_bit_exact(snap: &ServiceSnapshot, items: &[u32], rows: &[Vec<f32>]) {
    assert_eq!(rows.len(), items.len());
    let mut want = Vec::new();
    for (&id, row) in items.iter().zip(rows) {
        assert!(snap.lookup_exact(EntityId(id), &mut want), "item {id}");
        let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
        let expect: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            got, expect,
            "item {id}: served bits differ from the snapshot"
        );
    }
}

/// A quick policy for cases that should not retry long.
fn quick_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        budget: None,
        seed: SEED,
    }
}

#[test]
fn a_faithful_proxy_is_invisible_and_the_clean_path_never_retries() {
    let (snap, daemon, proxy) = proxied(NetFaultPlan::default());
    let mut client = DaemonClient::connect(&proxy.addr()).unwrap();
    client.ping().unwrap();
    assert_bit_exact(&snap, &items(), &client.lookup(&items()).unwrap());
    let mut rc = RetryClient::new(proxy.addr(), quick_policy());
    assert_bit_exact(&snap, &items(), &rc.lookup(&items()).unwrap());
    assert_eq!(rc.stats().retries, 0, "the clean path retried");
    client.shutdown().unwrap();
    drop(proxy);
    daemon.wait();
}

#[test]
fn delayed_frames_arrive_bit_exact() {
    let plan = NetFaultPlan::default()
        .with_up(0, NetFault::Delay { millis: 30 })
        .with_down(0, NetFault::Delay { millis: 30 });
    let (snap, daemon, proxy) = proxied(plan);
    let mut rc = RetryClient::new(proxy.addr(), quick_policy());
    assert_bit_exact(&snap, &items(), &rc.lookup(&items()).unwrap());
    drop(proxy);
    daemon.shutdown();
}

#[test]
fn a_slowloris_response_decodes_bit_exact() {
    let slow = NetFault::Slowloris {
        chunk: 5,
        gap_millis: 2,
    };
    let (snap, daemon, proxy) = proxied(NetFaultPlan::default().with_down(0, slow));
    let mut rc = RetryClient::new(proxy.addr(), quick_policy());
    assert_bit_exact(&snap, &items()[..4], &rc.lookup(&items()[..4]).unwrap());
    drop(proxy);
    daemon.shutdown();
}

#[test]
fn a_corrupt_response_is_a_crc_mismatch_and_never_retried() {
    let flip = NetFault::CorruptByte { byte: 11, bit: 3 };
    let (_, daemon, proxy) = proxied(NetFaultPlan::default().with_down(0, flip));
    let mut rc = RetryClient::new(proxy.addr(), quick_policy());
    let err = rc
        .lookup(&items())
        .expect_err("a corrupted response decoded");
    assert!(
        matches!(
            err.last,
            ClientError::Protocol(ProtocolError::CrcMismatch { .. })
        ),
        "expected CrcMismatch, got {}",
        err.last
    );
    assert_eq!(err.attempts, 1, "possibly-executed corruption was retried");
    // A raw client on the next response frame sees the same typed error.
    let flip = NetFault::CorruptByte { byte: 7, bit: 1 };
    let proxy = ChaosProxy::start(
        &daemon.local_addr().to_string(),
        NetFaultPlan::default().with_down(0, flip),
    );
    let mut client = DaemonClient::connect(&proxy.addr()).unwrap();
    match client.lookup(&[0, 1, 2]) {
        Err(ClientError::Protocol(ProtocolError::CrcMismatch { .. })) => {}
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
    drop(proxy);
    daemon.shutdown();
}

#[test]
fn a_dropped_request_is_not_retried() {
    let (_, daemon, proxy) =
        proxied(NetFaultPlan::default().with_up(0, NetFault::DropBeforeForward));
    let mut rc = RetryClient::new(proxy.addr(), quick_policy());
    let err = rc
        .lookup(&items())
        .expect_err("a dropped request succeeded");
    // The full frame left the client before the proxy dropped it, so the
    // failure is ambiguous — exactly the case that must not retry.
    assert_eq!(
        err.attempts, 1,
        "an ambiguous post-write failure was retried"
    );
    assert_eq!(rc.stats().retries, 0);
    drop(proxy);
    daemon.shutdown();
}

#[test]
fn a_truncated_response_is_typed_and_not_retried() {
    let cut = NetFault::TruncateForward { keep: 6 };
    let (_, daemon, proxy) = proxied(NetFaultPlan::default().with_down(0, cut));
    let mut rc = RetryClient::new(proxy.addr(), quick_policy());
    let err = rc
        .lookup(&items())
        .expect_err("a truncated response decoded");
    assert!(
        matches!(err.last, ClientError::Protocol(_) | ClientError::Io(_)),
        "expected a typed transport error, got {}",
        err.last
    );
    assert_eq!(err.attempts, 1, "a truncated response was retried");
    drop(proxy);
    daemon.shutdown();
}

#[test]
fn a_refused_connect_gives_up_after_bounded_retries() {
    // A port with nothing behind it: bind, learn the address, drop.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let policy = quick_policy();
    let max_retries = policy.max_retries;
    let mut rc = RetryClient::new(dead, policy);
    let started = Instant::now();
    let err = rc.lookup(&items()).expect_err("a dead port answered");
    assert_eq!(err.attempts, max_retries + 1);
    assert_eq!(err.reason, "retry count exhausted");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "unbounded retries"
    );
}

#[test]
fn retries_ride_out_an_overload_shed() {
    // One worker, a two-item queue, and a wedged first batch: fresh
    // lookups shed with Overloaded until the wedge clears, and the retry
    // layer must ride it out.
    let snap = fixture(SEED);
    let cfg = DaemonConfig {
        workers: 1,
        max_batch_items: 1,
        queue_capacity: 2,
        ..DaemonConfig::default()
    };
    let daemon = start_daemon(&snap, cfg);
    let addr = daemon.local_addr().to_string();
    daemon.inject_worker_wedge(Duration::from_millis(400));
    let fillers: Vec<_> = (0..3u32)
        .map(|i| {
            let addr = addr.clone();
            let h = thread::spawn(move || {
                let mut c = DaemonClient::connect(&addr)?;
                c.lookup(&[i]).map(|rows| rows.len())
            });
            // Stagger so the first filler wedges the worker before the rest
            // land in the queue.
            thread::sleep(Duration::from_millis(40));
            h
        })
        .collect();
    thread::sleep(Duration::from_millis(60));
    let policy = RetryPolicy {
        max_retries: 10,
        base_backoff: Duration::from_millis(60),
        max_backoff: Duration::from_millis(500),
        budget: None,
        seed: SEED,
    };
    let mut rc = RetryClient::new(addr, policy);
    let rows = rc
        .lookup(&items()[..2])
        .expect("retry under overload gave up");
    // The shed may or may not hit, depending on scheduling; the rows must
    // be bit-exact either way.
    assert_bit_exact(&snap, &items()[..2], &rows);
    for f in fillers {
        // Fillers are raw clients racing a two-item queue: being shed
        // themselves is legal; anything else is not.
        match f.join().expect("a filler client panicked") {
            Ok(_) | Err(ClientError::Overloaded) => {}
            Err(e) => panic!("filler lookup failed: {e}"),
        }
    }
    daemon.shutdown();
}

#[test]
fn an_accept_panic_is_recovered_by_the_watchdog() {
    let snap = fixture(SEED);
    let daemon = start_daemon(&snap, DaemonConfig::default());
    let addr = daemon.local_addr().to_string();
    daemon.inject_accept_panic();
    // The sacrificial connection kills the acceptor; its socket dies with
    // it. Keep connecting until the respawned acceptor answers.
    let _ = DaemonClient::connect(&addr).map(|mut c| c.ping());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !DaemonClient::connect(&addr).is_ok_and(|mut c| c.ping().is_ok()) {
        assert!(Instant::now() < deadline, "no accept after the panic");
        thread::sleep(Duration::from_millis(10));
    }
    assert!(daemon.restarts().1 >= 1, "acceptor restart not counted");
    daemon.shutdown();
}

#[test]
fn seeded_plans_are_reproducible() {
    for seed in [1u64, 7, 99] {
        let a = format!("{:?}", NetFaultPlan::seeded(seed));
        let b = format!("{:?}", NetFaultPlan::seeded(seed));
        assert_eq!(a, b);
    }
    assert_ne!(
        format!("{:?}", NetFaultPlan::seeded(1)),
        format!("{:?}", NetFaultPlan::seeded(2))
    );
}

#[test]
fn a_seeded_random_fault_is_bit_exact_or_typed() {
    for seed in [SEED, 0xC4A05] {
        let plan = NetFaultPlan::seeded(seed);
        let what = format!("{plan:?}");
        let (snap, daemon, proxy) = proxied(plan);
        let mut rc = RetryClient::new(proxy.addr(), quick_policy());
        // A success is bit-exact; a failure is a typed `RetryError`.
        if let Ok(rows) = rc.lookup(&items()) {
            assert_bit_exact(&snap, &items(), &rows);
        }
        // Whatever the proxy did, the daemon itself still serves.
        let mut direct = DaemonClient::connect(&daemon.local_addr().to_string()).unwrap();
        let rows = direct
            .lookup(&items())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_bit_exact(&snap, &items(), &rows);
        drop(proxy);
        daemon.shutdown();
    }
}

#[test]
fn stats_stay_monotone_under_chaos() {
    let snap = fixture(SEED);
    let daemon = start_daemon(&snap, DaemonConfig::default());
    let addr = daemon.local_addr().to_string();
    let mut client = DaemonClient::connect(&addr).unwrap();
    let keys = [
        "lookups",
        "frames",
        "connections",
        "protocol_errors",
        "worker_restarts",
        "acceptor_restarts",
        "conns_rejected",
        "quiesce_timeouts",
    ];
    let sample = |client: &mut DaemonClient| -> Vec<u64> {
        let stats = client.stats().unwrap();
        keys.iter()
            .map(|k| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0))
            .collect()
    };
    let mut last = sample(&mut client);
    for round in 0..4u32 {
        let _ = client.lookup(&items());
        if round == 1 {
            daemon.inject_worker_panic();
        }
        if round == 2 {
            // A hostile raw stream bumps protocol_errors.
            if let Ok(mut raw) = TcpStream::connect(&addr) {
                let _ = raw.write_all(&u32::MAX.to_le_bytes());
            }
        }
        thread::sleep(Duration::from_millis(30));
        let now = sample(&mut client);
        for (i, key) in keys.iter().enumerate() {
            assert!(
                now[i] >= last[i],
                "{key} went backwards: {} -> {} (round {round})",
                last[i],
                now[i]
            );
        }
        last = now;
    }
    daemon.shutdown();
}
