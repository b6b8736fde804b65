//! Network-layer chaos battery behind `pkgm netcheck`.
//!
//! [`fault`](crate::fault) proves the *disk* recovery story; this module
//! proves the *wire* one. A deterministic in-process [`ChaosProxy`] sits
//! between a real [`DaemonClient`](crate::daemon::DaemonClient) and a real
//! [`Daemon`](crate::daemon::Daemon) and plays a scripted
//! [`NetFaultPlan`] — dropped frames, mid-frame truncations (resets),
//! delays, single-bit corruption, slowloris dribbles — keyed by frame
//! index per direction, so every scenario is reproducible from a seed.
//!
//! [`run_netcheck`] asserts the end-to-end resilience contract:
//!
//! * every lookup the client reports as *successful* is bit-exact against
//!   the snapshot — corruption is detected (CRC), never served;
//! * every failure surfaces as a *typed* error — no client panic, no
//!   daemon panic (each scenario runs under `catch_unwind`, and injected
//!   daemon-thread panics must be absorbed by the watchdog);
//! * the retry layer never re-sends a possibly-executed request, retries
//!   shed/unsent work to success, and bounds its attempts;
//! * daemon stats stay monotone while chaos rages.

use crate::daemon::{ClientError, Daemon, DaemonClient, DaemonConfig};
use crate::fault::Scenario;
use crate::model::{PkgmConfig, PkgmModel};
use crate::protocol::{ProtocolError, FRAME_FLAG_CRC, MAX_FRAME_LEN};
use crate::retry::{RetryClient, RetryPolicy};
use crate::service::KnowledgeService;
use crate::snapshot::ServiceSnapshot;
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
pub enum NetFault {
    /// The frame vanishes and the connection is reset — the sender's write
    /// succeeded, the receiver never sees a byte of it.
    DropBeforeForward,
    /// Only the first `keep` bytes are forwarded, then the connection is
    /// reset mid-frame.
    TruncateForward {
        /// Bytes forwarded before the reset (clamped to the frame length).
        keep: usize,
    },
    /// The frame arrives intact but late.
    Delay {
        /// Added latency.
        millis: u64,
    },
    /// One bit past the length prefix is flipped; the frame CRC must catch
    /// it at the receiver.
    CorruptByte {
        /// Byte offset (taken modulo the post-prefix length).
        byte: usize,
        /// Bit index, masked to 0..8.
        bit: u8,
    },
    /// The frame dribbles out `chunk` bytes at a time with a pause between
    /// chunks — a slow-writer peer the receiver must tolerate.
    Slowloris {
        /// Bytes per write (min 1).
        chunk: usize,
        /// Pause between chunks.
        gap_millis: u64,
    },
}

/// A deterministic schedule of [`NetFault`]s, keyed by frame index counted
/// per direction across the proxy's lifetime (0-based; retries on fresh
/// connections keep counting, so "fault frame 0, spare frame 1" scripts a
/// fail-once-then-recover history).
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Faults on client→server frames (requests).
    up: BTreeMap<u64, NetFault>,
    /// Faults on server→client frames (responses).
    down: BTreeMap<u64, NetFault>,
}

impl NetFaultPlan {
    /// An empty plan (a faithful proxy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Script `fault` for the `nth` client→server frame.
    pub fn with_up(mut self, nth: u64, fault: NetFault) -> Self {
        self.up.insert(nth, fault);
        self
    }

    /// Script `fault` for the `nth` server→client frame.
    pub fn with_down(mut self, nth: u64, fault: NetFault) -> Self {
        self.down.insert(nth, fault);
        self
    }

    /// A seeded random plan: one fault of a random kind on a random early
    /// frame in a random direction. Same seed, same plan.
    pub fn seeded(seed: u64) -> Self {
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
            Self::new().with_up(nth, fault)
        } else {
            Self::new().with_down(nth, fault)
        }
    }
}

/// A frame-aware TCP proxy that executes a [`NetFaultPlan`] between a real
/// client and a real daemon. Each accepted connection gets two pump
/// threads (one per direction) that read whole wire frames, consult the
/// plan by global per-direction frame index, and forward / mangle / drop
/// accordingly. Pumps die with their sockets; `shutdown` (or drop) stops
/// the acceptor.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an ephemeral localhost port, forwarding to the
    /// daemon at `upstream`.
    pub fn start(upstream: &str, plan: NetFaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let up_plan = Arc::new(plan.up);
        let down_plan = Arc::new(plan.down);
        let up_frames = Arc::new(AtomicU64::new(0));
        let down_frames = Arc::new(AtomicU64::new(0));
        let upstream = upstream.to_string();
        let stop_flag = Arc::clone(&stop);
        let acceptor = thread::Builder::new()
            .name("pkgm-chaos-proxy".into())
            .spawn(move || {
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
            })?;
        Ok(Self {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the acceptor. In-flight pump threads finish
    /// with their sockets.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_inner();
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

/// Results of the full network chaos battery.
#[derive(Debug)]
pub struct NetCheckReport {
    /// The seed the battery ran under (reproduces every scenario).
    pub seed: u64,
    /// Every scenario, in execution order.
    pub scenarios: Vec<Scenario>,
}

impl NetCheckReport {
    /// True iff every scenario passed.
    pub fn passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.passed)
    }

    fn run(&mut self, name: &'static str, f: impl FnOnce() -> Result<String, String>) {
        // A panic anywhere in a scenario — client, proxy, or a daemon
        // thread surfacing through join — is itself a failed resilience
        // claim: chaos must produce typed errors, not unwinding.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let (passed, detail) = match outcome {
            Ok(Ok(summary)) => (true, summary),
            Ok(Err(why)) => (false, why),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                (false, format!("panicked: {msg}"))
            }
        };
        self.scenarios.push(Scenario {
            name,
            passed,
            detail,
        });
    }
}

const N_ITEMS: u32 = 16;
const DIM: usize = 6;

/// Deterministic toy snapshot shared by every scenario.
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

fn start_daemon(snap: &ServiceSnapshot, cfg: DaemonConfig) -> Daemon {
    Daemon::start("127.0.0.1:0", snap.clone(), cfg).expect("daemon binds an ephemeral port")
}

/// Assert `rows` for `items` match the snapshot bit-for-bit.
fn check_bit_exact(snap: &ServiceSnapshot, items: &[u32], rows: &[Vec<f32>]) -> Result<(), String> {
    if rows.len() != items.len() {
        return Err(format!("{} rows for {} items", rows.len(), items.len()));
    }
    let mut want = Vec::new();
    for (&id, row) in items.iter().zip(rows) {
        want.clear();
        if !snap.lookup_exact(EntityId(id), &mut want) {
            return Err(format!("item {id} missing from the snapshot"));
        }
        let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
        let expect: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
        if got != expect {
            return Err(format!("item {id}: served bits differ from the snapshot"));
        }
    }
    Ok(())
}

/// A quick policy for scenarios that should not retry long.
fn quick_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        budget: None,
        seed,
    }
}

/// Run the full chaos battery. Deterministic given `seed`; each scenario
/// builds its own daemon (and usually a [`ChaosProxy`] in front of it).
pub fn run_netcheck(seed: u64) -> NetCheckReport {
    let mut report = NetCheckReport {
        seed,
        scenarios: Vec::new(),
    };
    let snap = fixture(seed);
    let items: Vec<u32> = (0..N_ITEMS).collect();

    report.run("clean-path-bit-exact", || {
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), NetFaultPlan::new())
            .map_err(|e| format!("proxy: {e}"))?;
        let mut rc = RetryClient::new(proxy.local_addr().to_string(), quick_policy(seed));
        let rows = rc
            .lookup(&items)
            .map_err(|e| format!("clean lookup: {e}"))?;
        check_bit_exact(&snap, &items, &rows)?;
        if rc.stats().retries != 0 {
            return Err("clean path must not retry".into());
        }
        let mut direct =
            DaemonClient::connect(&daemon.local_addr().to_string()).map_err(|e| e.to_string())?;
        if !direct.ready().map_err(|e| e.to_string())? {
            return Err("fresh daemon reports not ready".into());
        }
        let health = direct.health().map_err(|e| e.to_string())?;
        if health.get("status").and_then(|v| v.as_str()) != Some("ok") {
            return Err(format!("health: {health:?}"));
        }
        proxy.shutdown();
        daemon.shutdown();
        Ok("proxied lookup bit-exact; health ok; ready".into())
    });

    report.run("delayed-frames-bit-exact", || {
        let plan = NetFaultPlan::new()
            .with_up(0, NetFault::Delay { millis: 30 })
            .with_down(0, NetFault::Delay { millis: 30 });
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan)
            .map_err(|e| format!("proxy: {e}"))?;
        let mut rc = RetryClient::new(proxy.local_addr().to_string(), quick_policy(seed));
        let rows = rc
            .lookup(&items)
            .map_err(|e| format!("delayed lookup: {e}"))?;
        check_bit_exact(&snap, &items, &rows)?;
        proxy.shutdown();
        daemon.shutdown();
        Ok("60 ms of injected latency, rows still bit-exact".into())
    });

    report.run("slowloris-response-tolerated", || {
        let plan = NetFaultPlan::new().with_down(
            0,
            NetFault::Slowloris {
                chunk: 5,
                gap_millis: 2,
            },
        );
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan)
            .map_err(|e| format!("proxy: {e}"))?;
        let mut rc = RetryClient::new(proxy.local_addr().to_string(), quick_policy(seed));
        let rows = rc
            .lookup(&items[..4])
            .map_err(|e| format!("slowloris lookup: {e}"))?;
        check_bit_exact(&snap, &items[..4], &rows)?;
        proxy.shutdown();
        daemon.shutdown();
        Ok("response dribbled 5 bytes at a time decodes bit-exactly".into())
    });

    report.run("corrupt-response-crc-detected", || {
        let plan = NetFaultPlan::new().with_down(0, NetFault::CorruptByte { byte: 11, bit: 3 });
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan)
            .map_err(|e| format!("proxy: {e}"))?;
        let mut rc = RetryClient::new(proxy.local_addr().to_string(), quick_policy(seed));
        let err = match rc.lookup(&items) {
            Ok(_) => return Err("corrupted response must not decode as success".into()),
            Err(e) => e,
        };
        if !matches!(
            err.last,
            ClientError::Protocol(ProtocolError::CrcMismatch { .. })
        ) {
            return Err(format!("expected CrcMismatch, got {}", err.last));
        }
        if err.attempts != 1 {
            return Err(format!(
                "possibly-executed corruption was retried ({} attempts)",
                err.attempts
            ));
        }
        proxy.shutdown();
        daemon.shutdown();
        Ok("flipped response bit caught by CRC, not retried".into())
    });

    report.run("dropped-request-not-retried", || {
        let plan = NetFaultPlan::new().with_up(0, NetFault::DropBeforeForward);
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan)
            .map_err(|e| format!("proxy: {e}"))?;
        let mut rc = RetryClient::new(proxy.local_addr().to_string(), quick_policy(seed));
        let err = match rc.lookup(&items) {
            Ok(_) => return Err("dropped request cannot have succeeded".into()),
            Err(e) => e,
        };
        // The full frame left the client before the proxy dropped it, so
        // the failure is ambiguous — exactly the case that must not retry.
        if err.attempts != 1 {
            return Err(format!(
                "ambiguous post-write failure was retried ({} attempts)",
                err.attempts
            ));
        }
        if rc.stats().retries != 0 {
            return Err("retry counter moved on a non-retryable failure".into());
        }
        proxy.shutdown();
        daemon.shutdown();
        Ok("request dropped after full write: typed error, zero retries".into())
    });

    report.run("truncated-response-typed", || {
        let plan = NetFaultPlan::new().with_down(0, NetFault::TruncateForward { keep: 6 });
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan)
            .map_err(|e| format!("proxy: {e}"))?;
        let mut rc = RetryClient::new(proxy.local_addr().to_string(), quick_policy(seed));
        let err = match rc.lookup(&items) {
            Ok(_) => return Err("truncated response must not decode as success".into()),
            Err(e) => e,
        };
        match err.last {
            ClientError::Protocol(_) | ClientError::Io(_) => {}
            other => return Err(format!("expected a typed transport error, got {other}")),
        }
        if err.attempts != 1 {
            return Err(format!(
                "truncated response retried ({} attempts)",
                err.attempts
            ));
        }
        proxy.shutdown();
        daemon.shutdown();
        Ok("mid-frame reset surfaced as a typed error, not retried".into())
    });

    report.run("connect-refused-bounded-retries", || {
        // A port with nothing behind it: bind, learn the address, drop.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            l.local_addr().map_err(|e| e.to_string())?.to_string()
        };
        let policy = quick_policy(seed);
        let max_retries = policy.max_retries;
        let mut rc = RetryClient::new(dead, policy);
        let started = Instant::now();
        let err = match rc.lookup(&items) {
            Ok(_) => return Err("lookup against a dead port cannot succeed".into()),
            Err(e) => e,
        };
        if err.attempts != max_retries + 1 {
            return Err(format!(
                "expected {} attempts, made {}",
                max_retries + 1,
                err.attempts
            ));
        }
        if err.reason != "retry count exhausted" {
            return Err(format!("unexpected give-up reason: {}", err.reason));
        }
        if started.elapsed() > Duration::from_secs(5) {
            return Err("bounded retries took unreasonably long".into());
        }
        Ok(format!(
            "{} attempts against a dead port, then a typed give-up",
            err.attempts
        ))
    });

    report.run("overload-shed-retry-succeeds", || {
        // One worker, a two-item queue, and a wedged first batch: fresh
        // lookups shed with Overloaded until the wedge clears, and the
        // retry layer must ride it out.
        let cfg = DaemonConfig {
            workers: 1,
            max_batch_items: 1,
            queue_capacity: 2,
            ..DaemonConfig::default()
        };
        let daemon = start_daemon(&snap, cfg);
        let addr = daemon.local_addr().to_string();
        daemon.inject_worker_wedge(Duration::from_millis(400));
        let fillers: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                let h = thread::spawn(move || {
                    let mut c = DaemonClient::connect(&addr)?;
                    c.lookup(&[i as u32]).map(|rows| rows.len())
                });
                // Stagger so the first filler wedges the worker before the
                // rest land in the queue.
                thread::sleep(Duration::from_millis(40));
                h
            })
            .collect();
        thread::sleep(Duration::from_millis(60));
        let mut rc = RetryClient::new(
            addr,
            RetryPolicy {
                max_retries: 10,
                base_backoff: Duration::from_millis(60),
                max_backoff: Duration::from_millis(500),
                budget: None,
                seed,
            },
        );
        let rows = rc
            .lookup(&items[..2])
            .map_err(|e| format!("retry under overload gave up: {e}"))?;
        check_bit_exact(&snap, &items[..2], &rows)?;
        let retries = rc.stats().retries;
        for f in fillers {
            match f.join().map_err(|_| "filler client panicked".to_string())? {
                // Fillers are raw clients racing a two-item queue: getting
                // shed themselves is legal; anything else is not.
                Ok(_) | Err(ClientError::Overloaded) => {}
                Err(e) => return Err(format!("filler lookup failed: {e}")),
            }
        }
        daemon.shutdown();
        // The shed may or may not hit depending on scheduling, but when it
        // does the result must still be bit-exact; assert the common case
        // loosely and the correctness invariant strictly (above).
        Ok(format!("recovered through {retries} retries under shed"))
    });

    report.run("deadline-zero-budget-typed", || {
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let addr = daemon.local_addr().to_string();
        // Server side: a zero budget is expired on arrival — typed shed.
        let mut direct = DaemonClient::connect(&addr).map_err(|e| e.to_string())?;
        match direct.lookup_with_deadline(&items, Duration::ZERO) {
            Err(ClientError::DeadlineExceeded(stage)) => {
                let _ = stage; // any stage is legal; AtEnqueue is typical
            }
            Ok(_) => return Err("zero-budget lookup cannot be served in time".into()),
            Err(other) => return Err(format!("expected DeadlineExceeded, got {other}")),
        }
        // Retry layer: deadline failures are final and counted.
        let mut rc = RetryClient::new(addr, quick_policy(seed));
        match rc.lookup_with_deadline(&items, Duration::ZERO) {
            Err(e) if matches!(e.last, ClientError::DeadlineExceeded(_)) => {}
            Err(e) => return Err(format!("expected DeadlineExceeded, got {}", e.last)),
            Ok(_) => return Err("zero-budget retry lookup cannot succeed".into()),
        }
        if rc.stats().deadline_misses != 1 {
            return Err(format!(
                "expected 1 deadline miss, counted {}",
                rc.stats().deadline_misses
            ));
        }
        if rc.stats().retries != 0 {
            return Err("deadline failures must not be retried".into());
        }
        daemon.shutdown();
        Ok("zero budget: typed DeadlineExceeded, no retry, counted".into())
    });

    report.run("worker-panic-recovered-by-watchdog", || {
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let addr = daemon.local_addr().to_string();
        daemon.inject_worker_panic();
        let mut client = DaemonClient::connect(&addr).map_err(|e| e.to_string())?;
        // The doomed worker dies before dequeue, so queued work survives
        // and this lookup is served by a surviving or respawned worker.
        let rows = client
            .lookup(&items)
            .map_err(|e| format!("lookup after worker panic: {e}"))?;
        check_bit_exact(&snap, &items, &rows)?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if daemon.restarts().0 >= 1 {
                break;
            }
            if Instant::now() > deadline {
                return Err("watchdog never recorded the worker restart".into());
            }
            thread::sleep(Duration::from_millis(10));
        }
        daemon.shutdown();
        Ok("worker panic absorbed; lookup served; restart counted".into())
    });

    report.run("accept-panic-recovered-by-watchdog", || {
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let addr = daemon.local_addr().to_string();
        daemon.inject_accept_panic();
        // The sacrificial connection kills the acceptor; its socket dies
        // with it. Keep connecting until the respawned acceptor answers.
        let _ = DaemonClient::connect(&addr).map(|mut c| c.ping());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(mut c) = DaemonClient::connect(&addr) {
                if c.ping().is_ok() {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("daemon never accepted again after the acceptor panic".into());
            }
            thread::sleep(Duration::from_millis(10));
        }
        if daemon.restarts().1 < 1 {
            return Err("watchdog never recorded the acceptor restart".into());
        }
        daemon.shutdown();
        Ok("acceptor panic absorbed; connections accepted again".into())
    });

    report.run("seeded-random-fault-is-safe", || {
        let plan = NetFaultPlan::seeded(seed);
        let detail = format!("{plan:?}");
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan)
            .map_err(|e| format!("proxy: {e}"))?;
        let mut rc = RetryClient::new(proxy.local_addr().to_string(), quick_policy(seed));
        match rc.lookup(&items) {
            // Successes must be bit-exact, failures typed — nothing else.
            Ok(rows) => check_bit_exact(&snap, &items, &rows)?,
            Err(e) => {
                let _ = e.to_string();
            }
        }
        // Whatever the proxy did, the daemon itself must still serve.
        let mut direct =
            DaemonClient::connect(&daemon.local_addr().to_string()).map_err(|e| e.to_string())?;
        let rows = direct
            .lookup(&items)
            .map_err(|e| format!("daemon unhealthy after chaos: {e}"))?;
        check_bit_exact(&snap, &items, &rows)?;
        proxy.shutdown();
        daemon.shutdown();
        Ok(format!("survived {detail}"))
    });

    report.run("stats-monotone-under-chaos", || {
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let addr = daemon.local_addr().to_string();
        let mut client = DaemonClient::connect(&addr).map_err(|e| e.to_string())?;
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
        let sample = |client: &mut DaemonClient| -> Result<Vec<u64>, String> {
            let stats = client.stats().map_err(|e| e.to_string())?;
            Ok(keys
                .iter()
                .map(|k| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0))
                .collect())
        };
        let mut last = sample(&mut client)?;
        for round in 0..4u32 {
            let _ = client.lookup(&items);
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
            let now = sample(&mut client)?;
            for (i, key) in keys.iter().enumerate() {
                if now[i] < last[i] {
                    return Err(format!(
                        "{key} went backwards: {} -> {} (round {round})",
                        last[i], now[i]
                    ));
                }
            }
            last = now;
        }
        daemon.shutdown();
        Ok("8 counters sampled across chaos rounds, all monotone".into())
    });

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_proxy_is_invisible() {
        let snap = fixture(41);
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let proxy =
            ChaosProxy::start(&daemon.local_addr().to_string(), NetFaultPlan::new()).unwrap();
        let mut client = DaemonClient::connect(&proxy.local_addr().to_string()).unwrap();
        client.ping().unwrap();
        let items: Vec<u32> = (0..N_ITEMS).collect();
        let rows = client.lookup(&items).unwrap();
        check_bit_exact(&snap, &items, &rows).unwrap();
        client.shutdown().unwrap();
        proxy.shutdown();
        daemon.wait();
    }

    #[test]
    fn corrupting_proxy_yields_crc_mismatch_not_bad_rows() {
        let snap = fixture(43);
        let daemon = start_daemon(&snap, DaemonConfig::default());
        let plan = NetFaultPlan::new().with_down(0, NetFault::CorruptByte { byte: 7, bit: 1 });
        let proxy = ChaosProxy::start(&daemon.local_addr().to_string(), plan).unwrap();
        let mut client = DaemonClient::connect(&proxy.local_addr().to_string()).unwrap();
        match client.lookup(&[0, 1, 2]) {
            Err(ClientError::Protocol(ProtocolError::CrcMismatch { .. })) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
        proxy.shutdown();
        daemon.shutdown();
        let _ = snap;
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
    fn full_battery_passes() {
        let report = run_netcheck(0xC4A05);
        for s in &report.scenarios {
            assert!(s.passed, "scenario {} failed: {}", s.name, s.detail);
        }
        assert!(report.scenarios.len() >= 8);
    }
}
