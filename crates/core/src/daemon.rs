//! `pkgm daemon` — the network serving front end.
//!
//! A daemon is its snapshot: it serves exactly one [`ServiceSnapshot`] at a
//! time and holds nothing else — no model, no key-relation selector. The
//! serving dim, each shard's id range and the degraded rule (an id the
//! snapshot does not cover is an all-zero row) all come from the live
//! snapshot, so a shard daemon's memory is its shard's.
//!
//! A thread-per-connection TCP server speaking the [`crate::protocol`]
//! frame format. Connection handlers never compute service vectors
//! themselves: lookups go through the [`DynamicBatcher`], which coalesces
//! concurrent requests — across connections — into single
//! [`CachedService::condensed_rows_into`] calls executed by a small pool
//! of batch workers; a handler encodes its response frame straight from
//! its range of the batch's flat row buffer, so a served row is never
//! allocated on its own. Admission control sheds (typed `Overloaded`
//! response) instead of stalling, so an overloaded daemon keeps answering
//! pings, stats, and reloads.
//!
//! ## Snapshot hot-swap
//!
//! The serving state lives behind a [`ServiceHolder`]: an
//! `RwLock<Arc<CachedService>>` where readers clone the `Arc` (one brief
//! shared lock per batch) and a reload installs a new `Arc` under the
//! write lock. Batches already in flight finish against the snapshot they
//! started with; the next batch picks up the new one — lookups never fail
//! or block during a swap. After the old service quiesces its
//! [`CacheStats`] are folded into a cumulative total, so statistics
//! survive swaps without double- or under-counting (see
//! [`CachedService::stats`] for the memory-ordering contract).
//!
//! A reload is driven over the wire: `pkgm daemon reload --addr …
//! --snapshot path` sends a [`Request::Reload`] with a **daemon-local**
//! path, and the daemon maps the `PKGMSS3` file through the same
//! CRC-validated [`crate::serialize::open_snapshot_file`] used everywhere
//! else — a corrupt, truncated or retired-format file, or one whose dim
//! differs from the live snapshot's, is rejected with a typed error and
//! the live table keeps serving.

use crate::batcher::{BatchStats, DynamicBatcher, SubmitError, WaitError};
use crate::protocol::{self, DeadlineStage, ProtocolError, Request, Response};
use crate::serialize;
use crate::serving::{CacheStats, CachedService};
use crate::snapshot::ServiceSnapshot;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Batch worker threads draining the queue (a batch is row copies, so
    /// a handful saturates a host).
    pub workers: usize,
    /// Max items coalesced into one service call.
    pub max_batch_items: usize,
    /// Max items queued before admission control sheds.
    pub queue_capacity: usize,
    /// Cache capacity of each [`CachedService`] generation, including the
    /// ones built by reloads.
    pub cache_capacity: usize,
    /// Admission cap on concurrent connections: a connect past this is
    /// answered with a typed `Overloaded` frame and closed at accept time,
    /// instead of spawning an unbounded handler thread per socket.
    pub max_conns: usize,
    /// How long the batch queue may sit non-empty with zero batch progress
    /// before the watchdog declares the workers wedged and reinforces the
    /// pool.
    pub stall_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch_items: 1024,
            queue_capacity: 16_384,
            cache_capacity: 65_536,
            max_conns: 1024,
            stall_timeout: Duration::from_secs(2),
        }
    }
}

/// Atomic, stats-preserving holder of the current serving generation.
///
/// `get` takes one shared lock to clone the `Arc`; `swap` installs a new
/// generation under the write lock, waits for in-flight batches on the old
/// one to quiesce, then folds the old generation's [`CacheStats`] into a
/// cumulative total so [`ServiceHolder::cumulative_stats`] never loses
/// counts across hot-swaps.
pub struct ServiceHolder {
    current: RwLock<Arc<CachedService>>,
    folded: Mutex<CacheStats>,
    swaps: AtomicU64,
    /// Swaps whose quiesce wait timed out — late increments from batches
    /// still holding the retired generation were dropped from the
    /// cumulative stats. Nonzero means a worker wedged past
    /// [`SWAP_QUIESCE_TIMEOUT`].
    quiesce_timeouts: AtomicU64,
    /// In-progress swap tracking for the readiness probe: how many swaps
    /// are quiescing and when the earliest began.
    swap_track: Mutex<SwapTrack>,
}

#[derive(Default)]
struct SwapTrack {
    active: u32,
    earliest: Option<Instant>,
}

/// How long [`ServiceHolder::swap`] waits for in-flight batches on the old
/// generation before folding its stats anyway. Batches are bounded by
/// `max_batch_items`, so this is hit only if a worker wedged.
const SWAP_QUIESCE_TIMEOUT: Duration = Duration::from_secs(5);

impl ServiceHolder {
    /// Start with `service` as the live generation.
    pub fn new(service: CachedService) -> Self {
        Self {
            current: RwLock::new(Arc::new(service)),
            folded: Mutex::new(CacheStats::default()),
            swaps: AtomicU64::new(0),
            quiesce_timeouts: AtomicU64::new(0),
            swap_track: Mutex::new(SwapTrack::default()),
        }
    }

    /// The live generation (cloned `Arc`; callers keep batches consistent
    /// by resolving this once per batch).
    pub fn get(&self) -> Arc<CachedService> {
        Arc::clone(&self.current.read())
    }

    /// Install `next` as the live generation. In-flight batches finish
    /// against the generation they started with.
    ///
    /// The retired generation's counters fold in two steps so that
    /// [`ServiceHolder::cumulative_stats`] (which reads under the same
    /// `folded` lock) never observes a window where they are in neither
    /// place — a snapshot of the old counters is folded *atomically with*
    /// the generation replacement, and the increments still landing from
    /// in-flight batches are folded as a delta once the old generation
    /// quiesces. Totals are monotone throughout; only increments arriving
    /// after a (pathological, see [`SWAP_QUIESCE_TIMEOUT`]) quiesce
    /// timeout can be dropped.
    pub fn swap(&self, next: CachedService) {
        {
            let mut track = self.swap_track.lock();
            track.active += 1;
            track.earliest.get_or_insert_with(Instant::now);
        }
        // A mapped table is never resident twice over. The retiring one
        // sheds its pages before the new one goes live, and is retired
        // under the write lock, before any lookup can fault the new one
        // in; from then on its in-flight batches give back every page
        // they fault (`CachedService::retire`). The first pass keeps the
        // second, and so the lock, short.
        self.current.read().snapshot().release_mapped_pages();
        let (old, pre) = {
            let mut folded = self.folded.lock();
            let old = {
                let mut cur = self.current.write();
                let old = std::mem::replace(&mut *cur, Arc::new(next));
                old.retire();
                old
            };
            let pre = old.stats();
            *folded += pre;
            (old, pre)
        };
        // Quiesce: batch workers hold transient clones only while a batch
        // executes. Once ours is the last reference, every increment to the
        // old generation's counters is visible to the Acquire read inside
        // `stats()` (the increments are Release).
        let deadline = Instant::now() + SWAP_QUIESCE_TIMEOUT;
        while Arc::strong_count(&old) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        if Arc::strong_count(&old) > 1 {
            // In-flight batches still hold the retired generation: their
            // late stat increments are dropped. Count the event instead of
            // losing it silently.
            self.quiesce_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        *self.folded.lock() += old.stats().since(&pre);
        self.swaps.fetch_add(1, Ordering::Release);
        {
            let mut track = self.swap_track.lock();
            track.active -= 1;
            if track.active == 0 {
                track.earliest = None;
            }
        }
    }

    /// Completed hot-swaps.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Acquire)
    }

    /// Swaps whose quiesce wait hit [`SWAP_QUIESCE_TIMEOUT`] and folded
    /// stats anyway (late increments dropped).
    pub fn quiesce_timeouts(&self) -> u64 {
        self.quiesce_timeouts.load(Ordering::Relaxed)
    }

    /// Whether a hot-swap has been quiescing longer than
    /// [`SWAP_QUIESCE_TIMEOUT`] — the readiness probe's "swap wedged"
    /// signal.
    pub fn wedged(&self) -> bool {
        self.swap_track
            .lock()
            .earliest
            .is_some_and(|t| t.elapsed() > SWAP_QUIESCE_TIMEOUT)
    }

    /// Cache statistics across every generation: retired generations'
    /// folded totals plus the live generation's counters, read under the
    /// same lock [`ServiceHolder::swap`] folds under (lock order: `folded`,
    /// then `current`) so the total is consistent — and therefore monotone
    /// — across concurrent hot-swaps.
    pub fn cumulative_stats(&self) -> CacheStats {
        let folded = self.folded.lock();
        let current = Arc::clone(&self.current.read());
        let mut total = *folded;
        total += current.stats();
        total
    }
}

/// Monotonic counters the daemon exposes via the `Stats` request.
#[derive(Default)]
struct DaemonCounters {
    connections: AtomicU64,
    frames: AtomicU64,
    protocol_errors: AtomicU64,
    lookups: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    /// Connections shed at accept time by the `max_conns` admission cap.
    conns_rejected: AtomicU64,
    /// Batch workers the watchdog respawned (panicked) or reinforced
    /// (wedged).
    worker_restarts: AtomicU64,
    /// Accept loops the watchdog respawned after a panic.
    acceptor_restarts: AtomicU64,
}

/// State shared by the acceptor, connection handlers, and batch workers.
struct Shared {
    holder: ServiceHolder,
    batcher: DynamicBatcher,
    cfg: DaemonConfig,
    addr: SocketAddr,
    counters: DaemonCounters,
    started: Instant,
    shutting_down: AtomicBool,
    /// Open connections, keyed by a connection id, so shutdown can unblock
    /// handler reads by closing the sockets.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    /// Signaled when shutdown is initiated; `Daemon::wait` blocks on it.
    done: (StdMutex<bool>, Condvar),
    /// Chaos hook: pending accept-loop panics (each accepted connection
    /// consumes one and panics, killing the acceptor thread).
    inject_accept_panics: AtomicU64,
}

impl Shared {
    /// Idempotently begin shutdown: refuse new work, wake the acceptor,
    /// and close every open connection so blocked reads return.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.batcher.stop();
        // Wake the acceptor out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        for (_, stream) in self.conns.lock().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let mut done = self
            .done
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *done = true;
        self.done.1.notify_all();
    }

    /// Map a `PKGMSS3` snapshot file (O(header) open) and hot-swap it in.
    /// Returns a summary for the reload response.
    ///
    /// Every reload checks its dim against the live snapshot's, so the
    /// serving dim is the one the daemon started with for its lifetime.
    fn reload(&self, path: &str) -> Result<serde_json::Value, String> {
        let snap = serialize::open_snapshot_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot load snapshot {path}: {e}"))?;
        let dim = self.holder.get().snapshot().dim();
        if snap.dim() != dim {
            return Err(format!(
                "snapshot dim {} does not match serving dim {dim}",
                snap.dim()
            ));
        }
        let summary = snapshot_summary_json(&snap, Some(path));
        self.holder
            .swap(CachedService::new(snap, self.cfg.cache_capacity));
        self.counters.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(serde_json::json!({
            "swaps": self.holder.swaps(),
            "snapshot": summary,
        }))
    }

    /// Whether the daemon can serve a lookup right now: a live serving
    /// generation, an accepting batcher, and no hot-swap wedged past its
    /// quiesce timeout.
    fn is_ready(&self) -> bool {
        !self.shutting_down.load(Ordering::SeqCst)
            && !self.batcher.is_stopped()
            && !self.holder.wedged()
    }

    /// The JSON answering a `Health` request: process-level liveness plus
    /// the supervision counters.
    fn health_json(&self) -> serde_json::Value {
        serde_json::json!({
            "status": "ok",
            "uptime_secs": self.started.elapsed().as_secs_f64(),
            "worker_restarts": self.counters.worker_restarts.load(Ordering::Relaxed),
            "acceptor_restarts": self.counters.acceptor_restarts.load(Ordering::Relaxed),
        })
    }

    /// The JSON answering a `Ready` request, with the individual gates so
    /// an operator can see *why* a daemon is not ready.
    fn ready_json(&self) -> serde_json::Value {
        serde_json::json!({
            "ready": self.is_ready(),
            "batcher_accepting": !self.batcher.is_stopped(),
            "swap_wedged": self.holder.wedged(),
            "shutting_down": self.shutting_down.load(Ordering::SeqCst),
            "queued_items": self.batcher.queued_items() as u64,
            "snapshot": true,
        })
    }

    /// The JSON answering a `ShardMap` request: the entity-range shard the
    /// live snapshot covers, in the exact shape the router tier consumes.
    fn shard_map_json(&self) -> serde_json::Value {
        let current = self.holder.get();
        let snap = current.snapshot();
        serde_json::json!({
            "dim": snap.dim(),
            "ready": self.is_ready(),
            "swaps": self.holder.swaps(),
            "snapshot": snapshot_summary_json(snap, None),
        })
    }

    /// The stats JSON answering a `Stats` request.
    fn stats_json(&self) -> serde_json::Value {
        let cache = self.holder.cumulative_stats();
        let batch: BatchStats = self.batcher.stats();
        let current = self.holder.get();
        let snap = current.snapshot();
        let batch_json = serde_json::json!({
            "batches": batch.batches,
            "requests": batch.requests,
            "items": batch.items,
            "shed": batch.shed,
            "max_batch_items": batch.max_batch_items,
            "mean_batch_items": batch.mean_batch_items(),
            "expired_enqueue": batch.expired_enqueue,
            "expired_queued": batch.expired_queued,
            "expired_executing": batch.expired_executing,
        });
        let cache_json = serde_json::json!({
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "degraded": cache.degraded,
            "total_requests": cache.total_requests(),
        });
        serde_json::json!({
            "uptime_secs": self.started.elapsed().as_secs_f64(),
            "dim": snap.dim(),
            "workers": self.cfg.workers,
            "connections": self.counters.connections.load(Ordering::Relaxed),
            "frames": self.counters.frames.load(Ordering::Relaxed),
            "protocol_errors": self.counters.protocol_errors.load(Ordering::Relaxed),
            "lookups": self.counters.lookups.load(Ordering::Relaxed),
            "reloads": self.counters.reloads.load(Ordering::Relaxed),
            "reload_failures": self.counters.reload_failures.load(Ordering::Relaxed),
            "swaps": self.holder.swaps(),
            "quiesce_timeouts": self.holder.quiesce_timeouts(),
            "conns_rejected": self.counters.conns_rejected.load(Ordering::Relaxed),
            "worker_restarts": self.counters.worker_restarts.load(Ordering::Relaxed),
            "acceptor_restarts": self.counters.acceptor_restarts.load(Ordering::Relaxed),
            "ready": self.is_ready(),
            "batch": batch_json,
            "cache": cache_json,
            "snapshot": snapshot_summary_json(snap, None),
        })
    }
}

/// The JSON summary of a serving snapshot shared by `stats` and `reload`
/// responses: row count, quantization, backing mode (resident vs mapped)
/// and — when the snapshot is an entity-range shard — which slice of the
/// table it covers.
fn snapshot_summary_json(snap: &ServiceSnapshot, path: Option<&str>) -> serde_json::Value {
    let shard = snap.shard();
    let shard_json = serde_json::json!({
        "shard_id": shard.shard_id,
        "n_shards": shard.n_shards,
        "row_start": shard.row_start,
    });
    match path {
        Some(p) => serde_json::json!({
            "path": p,
            "rows": snap.n_rows(),
            "quantized": snap.is_quantized(),
            "backing": snap.backing().label(),
            "shard": shard_json,
        }),
        None => serde_json::json!({
            "rows": snap.n_rows(),
            "quantized": snap.is_quantized(),
            "backing": snap.backing().label(),
            "shard": shard_json,
        }),
    }
}

/// The supervised thread pool: the acceptor and the batch workers, shared
/// between the daemon handle (for joining) and the watchdog (for
/// respawning).
struct Supervised {
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// A running serving daemon. Dropping the handle does **not** stop it;
/// call [`Daemon::shutdown`] or let a `Shutdown` request arrive and
/// [`Daemon::wait`] return.
pub struct Daemon {
    shared: Arc<Shared>,
    supervised: Arc<Mutex<Supervised>>,
    watchdog: Option<JoinHandle<()>>,
    /// Handler threads for accepted connections; finished handles are
    /// reaped opportunistically as new connections arrive.
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `snapshot`. A zero `cache_capacity`, `queue_capacity` or
    /// `max_batch_items` is rejected as `InvalidInput` naming the field.
    pub fn start(addr: &str, snapshot: ServiceSnapshot, cfg: DaemonConfig) -> io::Result<Daemon> {
        for (field, value) in [
            ("cache_capacity", cfg.cache_capacity),
            ("queue_capacity", cfg.queue_capacity),
            ("max_batch_items", cfg.max_batch_items),
        ] {
            if value == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("daemon config: {field} must be positive"),
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            holder: ServiceHolder::new(CachedService::new(snapshot, cfg.cache_capacity)),
            batcher: DynamicBatcher::new(cfg.queue_capacity, cfg.max_batch_items),
            cfg: cfg.clone(),
            addr: local,
            counters: DaemonCounters::default(),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            done: (StdMutex::new(false), Condvar::new()),
            inject_accept_panics: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| spawn_worker(&shared, i))
            .collect();
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let watchdog_listener = listener.try_clone()?;
        let acceptor = spawn_acceptor(listener, &shared, &handlers);
        let supervised = Arc::new(Mutex::new(Supervised {
            acceptor: Some(acceptor),
            workers,
        }));
        let watchdog = {
            let shared = Arc::clone(&shared);
            let supervised = Arc::clone(&supervised);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("pkgm-watchdog".into())
                .spawn(move || watchdog_loop(&shared, &supervised, &handlers, watchdog_listener))
                .expect("spawn watchdog")
        };
        Ok(Daemon {
            shared,
            supervised,
            watchdog: Some(watchdog),
            handlers,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Completed hot-swaps so far.
    pub fn swaps(&self) -> u64 {
        self.shared.holder.swaps()
    }

    /// Chaos hook: make the next batch pickup panic. The watchdog is
    /// expected to respawn the dead worker; queued work survives.
    pub fn inject_worker_panic(&self) {
        self.shared.batcher.inject_worker_panic();
    }

    /// Chaos hook: wedge the next batch pickup for `wedge` before it
    /// executes.
    pub fn inject_worker_wedge(&self, wedge: Duration) {
        self.shared.batcher.inject_worker_wedge(wedge);
    }

    /// Chaos hook: make the accept loop panic on its next accepted
    /// connection (that connection is dropped unanswered). The watchdog is
    /// expected to respawn the acceptor.
    pub fn inject_accept_panic(&self) {
        self.shared
            .inject_accept_panics
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Watchdog restart counters so far: `(worker_restarts,
    /// acceptor_restarts)`.
    pub fn restarts(&self) -> (u64, u64) {
        (
            self.shared.counters.worker_restarts.load(Ordering::Relaxed),
            self.shared
                .counters
                .acceptor_restarts
                .load(Ordering::Relaxed),
        )
    }

    /// Block until shutdown is initiated (by [`Daemon::shutdown`] or a
    /// `Shutdown` request over the wire), then join every thread.
    pub fn wait(mut self) {
        {
            let (lock, cv) = &self.shared.done;
            let mut done = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while !*done {
                done = cv
                    .wait(done)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.join();
    }

    /// Initiate shutdown and join every thread. Queued requests fail with
    /// a typed error; open connections are closed.
    pub fn shutdown(mut self) {
        self.shared.initiate_shutdown();
        self.join();
    }

    fn join(&mut self) {
        // The watchdog first: once it exits, nothing respawns threads
        // behind our back while we drain the supervised pool.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        {
            let mut sup = self.supervised.lock();
            if let Some(a) = sup.acceptor.take() {
                let _ = a.join();
            }
            for w in sup.workers.drain(..) {
                let _ = w.join();
            }
        }
        for h in self.handlers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn one batch worker serving the holder's current generation.
fn spawn_worker(shared: &Arc<Shared>, i: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("pkgm-batch-{i}"))
        .spawn(move || {
            let holder = &shared.holder;
            shared.batcher.run_worker(|| holder.get());
        })
        .expect("spawn batch worker")
}

/// Spawn the accept loop on `listener`.
fn spawn_acceptor(
    listener: TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let handlers = Arc::clone(handlers);
    std::thread::Builder::new()
        .name("pkgm-accept".into())
        .spawn(move || accept_loop(&listener, &shared, &handlers))
        .expect("spawn acceptor")
}

/// How often the watchdog polls the supervised threads.
const WATCHDOG_TICK: Duration = Duration::from_millis(20);

/// Supervision loop: respawn panicked batch workers and a panicked
/// acceptor, and reinforce the worker pool when the queue stalls (work
/// pending, zero batch progress for `stall_timeout` — a wedged worker
/// cannot be killed, but it can be rendered harmless). Every restart is
/// counted in the stats JSON. Exits when shutdown begins.
fn watchdog_loop(
    shared: &Arc<Shared>,
    supervised: &Arc<Mutex<Supervised>>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    listener: TcpListener,
) {
    let mut next_worker_id = shared.cfg.workers.max(1);
    let mut last_batches = shared.batcher.stats().batches;
    let mut last_progress = Instant::now();
    // Reinforcements are bounded so a pathologically slow host can never
    // trigger an unbounded thread spiral.
    let max_workers = shared.cfg.workers.max(1) * 2;
    loop {
        std::thread::sleep(WATCHDOG_TICK);
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut sup = supervised.lock();
            // Dead workers: join (collecting the panic) and replace.
            let mut alive = Vec::with_capacity(sup.workers.len());
            for w in sup.workers.drain(..) {
                if w.is_finished() {
                    let _ = w.join();
                    shared
                        .counters
                        .worker_restarts
                        .fetch_add(1, Ordering::Relaxed);
                    alive.push(spawn_worker(shared, next_worker_id));
                    next_worker_id += 1;
                } else {
                    alive.push(w);
                }
            }
            sup.workers = alive;
            // Dead acceptor: respawn against the same listener.
            if sup.acceptor.as_ref().is_some_and(JoinHandle::is_finished) {
                let _ = sup.acceptor.take().expect("checked above").join();
                if let Ok(l) = listener.try_clone() {
                    shared
                        .counters
                        .acceptor_restarts
                        .fetch_add(1, Ordering::Relaxed);
                    sup.acceptor = Some(spawn_acceptor(l, shared, handlers));
                }
            }
            // Stall detection: work is queued but no batch has completed
            // for stall_timeout. Dead workers were already replaced above,
            // so this catches *wedged* ones — reinforce the pool (bounded)
            // so queued work drains past the stuck thread.
            let batches = shared.batcher.stats().batches;
            let queued = shared.batcher.queued_items();
            if batches != last_batches || queued == 0 {
                last_batches = batches;
                last_progress = Instant::now();
            } else if last_progress.elapsed() > shared.cfg.stall_timeout {
                if sup.workers.len() < max_workers {
                    shared
                        .counters
                        .worker_restarts
                        .fetch_add(1, Ordering::Relaxed);
                    sup.workers.push(spawn_worker(shared, next_worker_id));
                    next_worker_id += 1;
                }
                last_progress = Instant::now();
            }
        }
        // Shutdown may have begun while we held the lock — if we just
        // respawned an acceptor it would block in accept() forever, so
        // poke it awake the same way initiate_shutdown does.
        if shared.shutting_down.load(Ordering::SeqCst) {
            let _ = TcpStream::connect(shared.addr);
            return;
        }
    }
}

/// Consume one pending accept-panic injection, if any.
fn chaos_take_accept_panic(shared: &Shared) -> bool {
    shared
        .inject_accept_panics
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Accept connections until shutdown; each gets its own handler thread.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if shared.shutting_down.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        // Chaos hook: die here, dropping the accepted connection, so the
        // netcheck battery can prove the watchdog resurrects the acceptor.
        if chaos_take_accept_panic(shared) {
            panic!("injected accept-loop panic (chaos hook)");
        }
        // Checked before the shed below: shutdown wakes this loop with one
        // self-connect, which a full cap would otherwise shed, leaving the
        // acceptor blocked in `accept()` and the daemon's join hung.
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        // Admission control at the socket layer: past `max_conns` live
        // connections, answer with a typed Overloaded frame and close —
        // never spawn an unbounded handler thread per connect-storm socket.
        if shared.conns.lock().len() >= shared.cfg.max_conns {
            shared
                .counters
                .conns_rejected
                .fetch_add(1, Ordering::Relaxed);
            let mut writer = BufWriter::new(stream);
            let resp = protocol::encode_response(&Response::Overloaded);
            let _ = protocol::write_frame(&mut writer, &resp);
            continue;
        }
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        {
            // Check the flag and register the connection under one `conns`
            // lock: `initiate_shutdown` sets the flag *before* taking the
            // lock to close registered streams, so either we see the flag
            // here, or shutdown sees our entry — a connection accepted
            // mid-shutdown can never be left open with a blocked handler.
            let mut conns = shared.conns.lock();
            if shared.shutting_down.load(Ordering::SeqCst) {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            if let Ok(clone) = stream.try_clone() {
                conns.insert(id, clone);
            }
        }
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("pkgm-conn-{id}"))
            .spawn(move || {
                handle_connection(stream, &shared_conn);
                shared_conn.conns.lock().remove(&id);
            })
            .expect("spawn connection handler");
        let mut hs = handlers.lock();
        // Reap finished handlers so the vector stays proportional to the
        // number of *live* connections, not total ever accepted.
        hs.retain(|h| !h.is_finished());
        hs.push(handle);
    }
}

/// Serve one connection until clean close, protocol error, or shutdown.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let body = match protocol::read_frame(&mut reader) {
            Ok(Some(body)) => body,
            // Clean close between frames.
            Ok(None) => return,
            Err(e) => {
                // A mid-request disconnect or malformed frame: count it,
                // try to tell the client (often already gone), and close —
                // the framing is unrecoverable after a bad prefix.
                if !shared.shutting_down.load(Ordering::SeqCst) {
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                let resp = protocol::encode_response(&Response::BadRequest(e.to_string()));
                let _ = protocol::write_frame(&mut writer, &resp);
                return;
            }
        };
        shared.counters.frames.fetch_add(1, Ordering::Relaxed);
        let mut shutdown_after_reply = false;
        let framed = match protocol::decode_request(&body) {
            Ok(req) => {
                // Acknowledge a shutdown *before* initiating it — the
                // initiation closes every connection, including this one.
                shutdown_after_reply = matches!(req, Request::Shutdown);
                respond(req, shared)
            }
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                protocol::encode_response(&Response::BadRequest(e.to_string()))
            }
        };
        let wrote = protocol::write_frame(&mut writer, &framed).is_ok();
        if shutdown_after_reply {
            shared.initiate_shutdown();
            return;
        }
        if !wrote || shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Execute one decoded request and encode its response frame.
fn respond(req: Request, shared: &Arc<Shared>) -> Vec<u8> {
    match req {
        Request::Lookup(items) => serve_lookup(items, None, shared),
        Request::LookupDeadline {
            budget_micros,
            items,
        } => {
            // The budget is measured from frame decode; saturate so a
            // hostile u64::MAX budget cannot overflow Instant arithmetic.
            let deadline = Instant::now()
                .checked_add(Duration::from_micros(budget_micros))
                .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400));
            serve_lookup(items, Some(deadline), shared)
        }
        Request::Ping => protocol::encode_response(&Response::Empty),
        Request::Health => {
            let body = serde_json::to_string(&shared.health_json())
                .expect("health json literal serializes");
            protocol::encode_response(&Response::Json(body))
        }
        Request::Ready => {
            let body =
                serde_json::to_string(&shared.ready_json()).expect("ready json literal serializes");
            protocol::encode_response(&Response::Json(body))
        }
        Request::Stats => {
            let body =
                serde_json::to_string(&shared.stats_json()).expect("stats json literal serializes");
            protocol::encode_response(&Response::Json(body))
        }
        Request::ShardMap => {
            let body = serde_json::to_string(&shared.shard_map_json())
                .expect("shard-map json literal serializes");
            protocol::encode_response(&Response::Json(body))
        }
        Request::Reload(path) => match shared.reload(&path) {
            Ok(summary) => {
                let body = serde_json::to_string(&summary).expect("reload json literal serializes");
                protocol::encode_response(&Response::Json(body))
            }
            Err(why) => {
                shared
                    .counters
                    .reload_failures
                    .fetch_add(1, Ordering::Relaxed);
                protocol::encode_response(&Response::ServerError(why))
            }
        },
        // Acknowledged by the connection handler, which initiates the
        // shutdown only after the reply is on the wire.
        Request::Shutdown => protocol::encode_response(&Response::Empty),
    }
}

/// Serve a (possibly deadline-carrying) lookup through the batcher.
fn serve_lookup(items: Vec<u32>, deadline: Option<Instant>, shared: &Arc<Shared>) -> Vec<u8> {
    let current = shared.holder.get();
    let snap = current.snapshot();
    let row_len = 2 * snap.dim() as u32;
    // The protocol-wide MAX_LOOKUP_ITEMS was already enforced at decode
    // time, but at this serving width the response frame caps the batch
    // tighter: reject — don't build a response the framing layer could
    // never send.
    let cap = protocol::max_lookup_items_for_row_len(row_len);
    if items.len() > cap as usize {
        return protocol::encode_response(&Response::BadRequest(format!(
            "lookup of {} items exceeds the {cap}-item cap for {row_len}-float rows \
             (one response frame is capped at {} bytes)",
            items.len(),
            protocol::MAX_FRAME_LEN,
        )));
    }
    // Entity-range shards hold only a slice of the global id space. An id
    // outside this shard's range would silently degrade to the all-zero
    // row, so answer with a typed redirect carrying the shard topology the
    // client needs to re-route instead.
    let shard = snap.shard();
    if !shard.is_whole_table() {
        if let Some(&id) = items.iter().find(|&&id| !snap.covers(id)) {
            return protocol::encode_response(&Response::WrongShard {
                id,
                shard_id: shard.shard_id,
                n_shards: shard.n_shards,
                row_start: shard.row_start,
                n_rows: snap.n_rows() as u64,
            });
        }
    }
    // Hold no generation across the batch: a swap quiesces on it.
    drop(current);
    shared.counters.lookups.fetch_add(1, Ordering::Relaxed);
    match shared.batcher.submit_with_deadline(items, deadline) {
        Ok(ticket) => match ticket.wait() {
            Ok(rows) => {
                protocol::encode_rows_response(row_len, rows.chunks_exact(row_len as usize))
            }
            Err(WaitError::DeadlineExceeded(stage)) => {
                protocol::encode_response(&Response::DeadlineExceeded(stage))
            }
            Err(WaitError::Failed(why)) => protocol::encode_response(&Response::ServerError(why)),
        },
        Err(SubmitError::Overloaded) => protocol::encode_response(&Response::Overloaded),
        Err(SubmitError::DeadlineExceeded) => {
            protocol::encode_response(&Response::DeadlineExceeded(DeadlineStage::AtEnqueue))
        }
        Err(SubmitError::Stopped) => {
            protocol::encode_response(&Response::ServerError("daemon shutting down".into()))
        }
    }
}

/// Client-side failure modes, separating shed load (retryable, expected
/// under overload) from real errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The daemon's response could not be decoded.
    Protocol(ProtocolError),
    /// Admission control shed the request; retry later.
    Overloaded,
    /// The request's deadline budget expired at this stage on the daemon;
    /// it was not executed, and a retry cannot beat the same budget.
    DeadlineExceeded(DeadlineStage),
    /// The request named an entity outside the daemon's shard; re-route
    /// to the shard covering `id` (retrying here can never succeed).
    WrongShard {
        /// The first requested id outside this shard's range.
        id: u32,
        /// The responding shard's index.
        shard_id: u32,
        /// Total shards in the topology.
        n_shards: u32,
        /// First global row the responding shard covers.
        row_start: u64,
        /// Number of rows the responding shard covers.
        n_rows: u64,
    },
    /// The daemon rejected the request as malformed.
    BadRequest(String),
    /// The daemon failed internally.
    Server(String),
    /// The response did not match the request kind.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Overloaded => write!(f, "request shed (daemon overloaded)"),
            ClientError::DeadlineExceeded(stage) => {
                write!(f, "deadline exceeded ({})", stage.name())
            }
            ClientError::WrongShard {
                id,
                shard_id,
                n_shards,
                row_start,
                n_rows,
            } => write!(
                f,
                "wrong shard: id {id} is outside shard {shard_id} of {n_shards} \
                 (covers rows {row_start}..{})",
                row_start + n_rows
            ),
            ClientError::BadRequest(m) => write!(f, "bad request: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl ClientError {
    /// The typed redirect payload, when this error is a
    /// [`ClientError::WrongShard`]. The router (and any caller holding a
    /// multi-shard topology) re-routes from this instead of parsing the
    /// display string.
    pub fn wrong_shard(&self) -> Option<ShardRedirect> {
        match *self {
            ClientError::WrongShard {
                id,
                shard_id,
                n_shards,
                row_start,
                n_rows,
            } => Some(ShardRedirect {
                id,
                shard_id,
                n_shards,
                row_start,
                n_rows,
            }),
            _ => None,
        }
    }
}

/// The payload of a typed `WrongShard` redirect: which id missed, which
/// shard answered, and the row range that shard actually covers. Extracted
/// via [`ClientError::wrong_shard`] / `RetryError::wrong_shard` so callers
/// re-route without string-parsing the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRedirect {
    /// The first requested id outside the responding shard's range.
    pub id: u32,
    /// The responding shard's index.
    pub shard_id: u32,
    /// Total shards in the topology.
    pub n_shards: u32,
    /// First global row the responding shard covers.
    pub row_start: u64,
    /// Number of rows the responding shard covers.
    pub n_rows: u64,
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other),
        }
    }
}

/// Default socket read/write timeout for [`DaemonClient`] — generous next
/// to any healthy round trip, so it only fires against a wedged or
/// unresponsive daemon instead of blocking `stop`/`stats`/`reload` (and
/// the bench clients) forever.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A failed [`DaemonClient::attempt`], tagged with whether the request
/// frame was fully written before the failure. `request_sent == false`
/// proves the daemon never saw a complete frame — the retry layer's
/// "provably unexecuted" signal for transport errors.
#[derive(Debug)]
pub struct AttemptError {
    /// What went wrong.
    pub error: ClientError,
    /// Whether the request frame was fully handed to the kernel first.
    pub request_sent: bool,
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({})",
            self.error,
            if self.request_sent {
                "after full request write"
            } else {
                "before full request write"
            }
        )
    }
}

impl std::error::Error for AttemptError {}

/// Blocking client for the daemon protocol, one request in flight at a
/// time per connection (load generators open one per closed-loop worker).
pub struct DaemonClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl DaemonClient {
    /// Connect to a running daemon with [`DEFAULT_CLIENT_TIMEOUT`] on
    /// socket reads and writes; a daemon that stops answering surfaces as
    /// [`ClientError::Io`] instead of a hang.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Some(DEFAULT_CLIENT_TIMEOUT))
    }

    /// Connect with an explicit socket read/write timeout (`None` blocks
    /// indefinitely, the pre-timeout behaviour).
    pub fn connect_with_timeout(
        addr: &str,
        timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let read_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Reset the socket read/write timeout mid-connection — the retry
    /// layer derives per-attempt timeouts from the remaining deadline
    /// budget.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        let stream = self.writer.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(())
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.attempt(req).map_err(|e| e.error)
    }

    /// One request/response exchange, reporting whether the request frame
    /// had been fully handed to the kernel when a failure struck. A
    /// write-phase failure (`request_sent == false`) means only a strict
    /// prefix of the frame could have left this process — the daemon can
    /// never assemble and execute it, so retrying cannot double-execute.
    /// Any failure after the frame was fully written is ambiguous: the
    /// daemon may have executed the request even though the response never
    /// arrived.
    pub fn attempt(&mut self, req: &Request) -> Result<Response, AttemptError> {
        self.send(req)?;
        self.receive()
    }

    /// The write half of [`DaemonClient::attempt`]: hand the request frame
    /// to the kernel. Every failure here is `request_sent == false`.
    pub fn send(&mut self, req: &Request) -> Result<(), AttemptError> {
        protocol::write_frame(&mut self.writer, &protocol::encode_request(req)).map_err(|e| {
            AttemptError {
                error: e.into(),
                request_sent: false,
            }
        })
    }

    /// The read half of [`DaemonClient::attempt`]: the reply to the request
    /// [`DaemonClient::send`] wrote. Every failure here is
    /// `request_sent == true`.
    pub fn receive(&mut self) -> Result<Response, AttemptError> {
        let sent = |error: ClientError| AttemptError {
            error,
            request_sent: true,
        };
        let body = match protocol::read_frame(&mut self.reader) {
            Ok(Some(body)) => body,
            Ok(None) => {
                return Err(sent(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ))))
            }
            Err(e) => return Err(sent(e.into())),
        };
        match protocol::decode_response(&body) {
            Ok(Response::Overloaded) => Err(sent(ClientError::Overloaded)),
            Ok(Response::DeadlineExceeded(stage)) => {
                Err(sent(ClientError::DeadlineExceeded(stage)))
            }
            Ok(Response::WrongShard {
                id,
                shard_id,
                n_shards,
                row_start,
                n_rows,
            }) => Err(sent(ClientError::WrongShard {
                id,
                shard_id,
                n_shards,
                row_start,
                n_rows,
            })),
            Ok(Response::BadRequest(m)) => Err(sent(ClientError::BadRequest(m))),
            Ok(Response::ServerError(m)) => Err(sent(ClientError::Server(m))),
            Ok(ok) => Ok(ok),
            Err(e) => Err(sent(e.into())),
        }
    }

    /// Condensed service vectors for `items`, in order.
    pub fn lookup(&mut self, items: &[u32]) -> Result<Vec<Vec<f32>>, ClientError> {
        match self.round_trip(&Request::Lookup(items.to_vec()))? {
            Response::Rows { rows, .. } => {
                if rows.len() == items.len() {
                    Ok(rows)
                } else {
                    Err(ClientError::Unexpected("row count mismatch"))
                }
            }
            _ => Err(ClientError::Unexpected("lookup expects rows")),
        }
    }

    /// Condensed service vectors for `items` under a deadline budget: the
    /// daemon sheds the work with a typed
    /// [`ClientError::DeadlineExceeded`] once `budget` elapses on its side.
    pub fn lookup_with_deadline(
        &mut self,
        items: &[u32],
        budget: Duration,
    ) -> Result<Vec<Vec<f32>>, ClientError> {
        let req = Request::LookupDeadline {
            budget_micros: budget.as_micros().min(u64::MAX as u128) as u64,
            items: items.to_vec(),
        };
        match self.round_trip(&req)? {
            Response::Rows { rows, .. } => {
                if rows.len() == items.len() {
                    Ok(rows)
                } else {
                    Err(ClientError::Unexpected("row count mismatch"))
                }
            }
            _ => Err(ClientError::Unexpected("lookup expects rows")),
        }
    }

    /// Liveness probe with a JSON body (uptime, restart counters).
    pub fn health(&mut self) -> Result<serde_json::Value, ClientError> {
        match self.round_trip(&Request::Health)? {
            Response::Json(json) => serde_json::from_str(&json)
                .map_err(|_| ClientError::Unexpected("health payload is not JSON")),
            _ => Err(ClientError::Unexpected("health expects json")),
        }
    }

    /// Readiness probe: `Ok(true)` only when the daemon reports it can
    /// serve a lookup right now.
    pub fn ready(&mut self) -> Result<bool, ClientError> {
        let v = self.ready_json()?;
        Ok(v.get("ready").and_then(serde_json::Value::as_bool) == Some(true))
    }

    /// Readiness probe with the individual gates (`batcher_accepting`,
    /// `swap_wedged`, …) so an operator can see *why* a daemon says no.
    pub fn ready_json(&mut self) -> Result<serde_json::Value, ClientError> {
        match self.round_trip(&Request::Ready)? {
            Response::Json(json) => serde_json::from_str(&json)
                .map_err(|_| ClientError::Unexpected("ready payload is not JSON")),
            _ => Err(ClientError::Unexpected("ready expects json")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Empty => Ok(()),
            _ => Err(ClientError::Unexpected("ping expects empty ok")),
        }
    }

    /// Shard-topology query: which entity range does the daemon's live
    /// snapshot cover? The router tier builds its shard map from this.
    pub fn shard_map(&mut self) -> Result<serde_json::Value, ClientError> {
        match self.round_trip(&Request::ShardMap)? {
            Response::Json(json) => serde_json::from_str(&json)
                .map_err(|_| ClientError::Unexpected("shard-map payload is not JSON")),
            _ => Err(ClientError::Unexpected("shard-map expects json")),
        }
    }

    /// Daemon statistics.
    pub fn stats(&mut self) -> Result<serde_json::Value, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Json(json) => serde_json::from_str(&json)
                .map_err(|_| ClientError::Unexpected("stats payload is not JSON")),
            _ => Err(ClientError::Unexpected("stats expects json")),
        }
    }

    /// Hot-swap the daemon's snapshot from a daemon-local path.
    pub fn reload(&mut self, snapshot_path: &str) -> Result<serde_json::Value, ClientError> {
        match self.round_trip(&Request::Reload(snapshot_path.to_string()))? {
            Response::Json(json) => serde_json::from_str(&json)
                .map_err(|_| ClientError::Unexpected("reload payload is not JSON")),
            _ => Err(ClientError::Unexpected("reload expects json")),
        }
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Empty => Ok(()),
            _ => Err(ClientError::Unexpected("shutdown expects empty ok")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PkgmConfig, PkgmModel};
    use crate::service::KnowledgeService;
    use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};

    /// Items 0..16 and their value entities: rows 0..21.
    fn snapshot() -> ServiceSnapshot {
        let mut b = StoreBuilder::new();
        for i in 0..16u32 {
            b.add_raw(i, 0, 16 + i % 3);
            b.add_raw(i, 1, 20);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..16).map(|i| (EntityId(i), 0)).collect();
        let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(3),
        );
        ServiceSnapshot::build(&KnowledgeService::new(model, sel))
    }

    #[test]
    fn holder_swap_preserves_every_stat_under_concurrent_batches() {
        // Regression test for the stats/hot-swap race: requests served
        // around repeated swaps must all land in cumulative_stats —
        // nothing lost when a retired generation's counters are folded.
        let snap = snapshot();
        let holder = Arc::new(ServiceHolder::new(CachedService::new(snap.clone(), 64)));
        let stop = Arc::new(AtomicBool::new(false));
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 200;
        const BATCH: u64 = 8;
        let total_requests = std::thread::scope(|s| {
            let swapper = {
                let holder = Arc::clone(&holder);
                let stop = Arc::clone(&stop);
                let snap = snap.clone();
                s.spawn(move || {
                    let mut swaps = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        holder.swap(CachedService::new(snap.clone(), 64));
                        swaps += 1;
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    swaps
                })
            };
            let clients: Vec<_> = (0..THREADS)
                .map(|t| {
                    let holder = Arc::clone(&holder);
                    s.spawn(move || {
                        // Mix items, value entities, and out-of-range
                        // (degraded) ids.
                        let items: Vec<EntityId> = (0..BATCH)
                            .map(|i| EntityId(((t * BATCH + i) % 24) as u32))
                            .collect();
                        for _ in 0..ROUNDS {
                            let svc = holder.get();
                            let rows = svc.condensed_service_batch(&items);
                            assert_eq!(rows.len(), items.len());
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
            stop.store(true, Ordering::SeqCst);
            let swaps = swapper.join().unwrap();
            assert!(swaps >= 1, "swapper must complete at least one swap");
            THREADS * ROUNDS * BATCH
        });
        // One final swap quiesces and folds the last live generation too,
        // making the cumulative total exact.
        holder.swap(CachedService::new(snap, 64));
        let stats = holder.cumulative_stats();
        assert_eq!(
            stats.total_requests(),
            total_requests,
            "stats lost or duplicated across hot-swaps: {stats:?}"
        );
        assert!(stats.degraded > 0, "id mix must exercise degraded path");
    }

    #[test]
    fn cumulative_stats_are_monotone_while_swaps_race_readers() {
        // Regression test for the fold window: between installing a new
        // generation and folding the retired one's counters, a Stats
        // reader once saw totals dip (the old generation's counts were in
        // neither `folded` nor `current`). Totals must never go backwards.
        let snap = snapshot();
        let holder = ServiceHolder::new(CachedService::new(snap.clone(), 64));
        let stop = AtomicBool::new(false);
        let samples = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (holder, stop) = (&holder, &stop);
                s.spawn(move || {
                    let items: Vec<EntityId> =
                        (0..8).map(|i| EntityId((t * 8 + i) as u32)).collect();
                    while !stop.load(Ordering::SeqCst) {
                        let svc = holder.get();
                        let rows = svc.condensed_service_batch(&items);
                        assert_eq!(rows.len(), items.len());
                    }
                });
            }
            let reader = {
                let (holder, stop, samples) = (&holder, &stop, &samples);
                s.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let total = holder.cumulative_stats().total_requests();
                        assert!(
                            total >= last,
                            "cumulative total went backwards: {last} -> {total}"
                        );
                        last = total;
                        samples.fetch_add(1, Ordering::Relaxed);
                    }
                })
            };
            // Keep swapping until the reader has provably sampled while
            // swaps were in flight; sleep between swaps so the reader and
            // clients get scheduled even on a single-CPU host, and bound
            // by wall clock so a wedged reader cannot spin this forever.
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut swaps = 0u64;
            while (swaps < 40 || samples.load(Ordering::Relaxed) < 50) && Instant::now() < deadline
            {
                holder.swap(CachedService::new(snap.clone(), 64));
                swaps += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            stop.store(true, Ordering::SeqCst);
            reader.join().unwrap();
            assert!(
                samples.load(Ordering::Relaxed) > 0,
                "reader must sample totals"
            );
        });
    }

    #[test]
    fn daemon_rejects_a_zero_capacity_with_a_typed_error_naming_the_field() {
        for field in ["cache_capacity", "queue_capacity", "max_batch_items"] {
            let mut cfg = DaemonConfig::default();
            match field {
                "cache_capacity" => cfg.cache_capacity = 0,
                "queue_capacity" => cfg.queue_capacity = 0,
                _ => cfg.max_batch_items = 0,
            }
            let err = Daemon::start("127.0.0.1:0", snapshot(), cfg)
                .err()
                .unwrap_or_else(|| panic!("zero {field} must be rejected"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(field), "{err}");
        }
    }
}
