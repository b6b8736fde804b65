//! `serve-hot`, `serve-cold` and `serve-routed`: client → (router →)
//! daemon → batcher → snapshot row, over loopback TCP against spawned
//! `pkgm daemon serve` processes.
//!
//! The three share one table and differ only in what the issue names:
//!
//! * `serve-hot` — batch 32, Zipf keys over 512 hot items through the
//!   retrying client, default daemon, a reload every 250 ms;
//! * `serve-cold` — batch 256, keys uniform over every item, plain client,
//!   a cache a quarter the size of the table (the 65 536 : 240 000 ratio of
//!   the full-size design), so most items miss;
//! * `serve-routed` — the same key stream and batch through a
//!   `ShardRouter` over 4 shard daemons whose caches sum to `serve-cold`'s.

use crate::keys::{shards_touched, KeyStream};
use crate::layers::protocol_spans;
use crate::report::Outcome;
use crate::stats::{percentile, summarize, supported_percentile};
use crate::trace::Recorder;
use crate::world::{bits_equal, fresh_model, serve_catalog, timed_setups, CALLERS, K};
use crate::{sys, RunArgs};
use pkgm_core::retry::RetryStats;
use pkgm_core::serialize::{open_snapshot_file, write_service_file, write_snapshot_ss3_file};
use pkgm_core::{
    shard_ranges, CachedService, DaemonClient, DaemonConfig, DynamicBatcher, KnowledgeService,
    RetryClient, RetryPolicy, RouterStats, ServiceSnapshot, ShardRouter, StdIo,
};
use pkgm_store::EntityId;
use pkgm_synth::Catalog;
use serde_json::{json, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Cold,
    Routed,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve-hot",
            Kind::Cold => "serve-cold",
            Kind::Routed => "serve-routed",
        }
    }

    fn batch(self) -> usize {
        match self {
            Kind::Hot => 32,
            Kind::Cold | Kind::Routed => 256,
        }
    }

    fn keys(self, seed: u64, caller: u64, n_items: u32) -> KeyStream {
        match self {
            Kind::Hot => KeyStream::hot(seed, caller, n_items),
            Kind::Cold | Kind::Routed => KeyStream::uniform(seed, caller, n_items),
        }
    }
}

const N_SHARDS: u32 = 4;
/// Cache entries of the `serve-cold` daemon; each `serve-routed` shard
/// gets a quarter. `serve-hot` runs the default.
const COLD_CACHE: usize = 16_384;
const WARMUP: Duration = Duration::from_secs(1);
const WINDOW_S: f64 = 1.0;
const RELOAD_GAP: Duration = Duration::from_millis(250);
/// Deadline carried by `serve-hot` lookups: generous for a healthy daemon,
/// short enough that a wedged one fails typed instead of hanging the run.
const LOOKUP_BUDGET: Duration = Duration::from_secs(5);
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);
/// Lookups of the traced ladder (one unloaded caller).
const LADDER_LOOKUPS: u64 = 1_000;
/// Seconds of the loaded phase in a traced run; the recorder is on in
/// every second window.
const TRACED_LOAD_S: f64 = 6.0;

/// One spawned `pkgm daemon serve`.
struct DaemonProc {
    child: Child,
    addr: String,
}

impl DaemonProc {
    fn spawn(
        bin: &Path,
        service: &Path,
        snapshot: &Path,
        cache_capacity: usize,
    ) -> Result<Self, String> {
        let addr_file = PathBuf::from(format!("{}.addr", snapshot.display()));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(bin)
            .args(["daemon", "serve", "--addr", "127.0.0.1:0"])
            .arg("--service")
            .arg(service)
            .arg("--snapshot")
            .arg(snapshot)
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--cache-capacity")
            .arg(cache_capacity.to_string())
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Self {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + SPAWN_TIMEOUT;
        while daemon.addr.is_empty() {
            daemon.addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "daemon for {} exited: {status}",
                    snapshot.display()
                ));
            }
            if Instant::now() >= deadline {
                return Err(format!("daemon for {} never bound", snapshot.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        while !DaemonClient::connect(&daemon.addr).is_ok_and(|mut c| c.ready().unwrap_or(false)) {
            if Instant::now() >= deadline {
                return Err(format!("daemon at {} never became ready", daemon.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }
}

impl Drop for DaemonProc {
    /// Stop the daemon and wait until it has ended: a protocol `Shutdown`
    /// first, a kill if it does not take it.
    fn drop(&mut self) {
        let polite = DaemonClient::connect(&self.addr).is_ok_and(|mut c| c.shutdown().is_ok());
        if !polite {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Everything set-up produces: the table in memory (the truth served rows
/// are compared with), the files, and the running daemons.
struct Fixture {
    n_items: u32,
    service: KnowledgeService,
    truth: ServiceSnapshot,
    /// The whole table as PKGMSS3, in two copies so reloads can alternate.
    whole: [PathBuf; 2],
    service_file: PathBuf,
    /// The daemons lookups go to: one, or the shard fleet in shard order.
    fleet: Vec<DaemonProc>,
    stages: Stages,
}

#[derive(Default, Clone, Copy)]
struct Stages {
    catalog_gen_s: f64,
    build_s: f64,
    write_s: f64,
    /// Bytes of one PKGMSS3 copy of the table (all its shard files).
    file_bytes: u64,
    /// Bytes written in `write_s` (`serve-hot` writes two copies, to
    /// alternate reloads).
    written_bytes: u64,
}

fn set_up(kind: Kind, seed: u64, dir: &Path, bin: &Path) -> Result<Fixture, String> {
    let mut stages = Stages::default();
    let started = Instant::now();
    let catalog = Catalog::generate(&serve_catalog(seed));
    stages.catalog_gen_s = started.elapsed().as_secs_f64();
    // Served bytes and their cost do not depend on training, so the model
    // is the seed-initialised one.
    let service = KnowledgeService::new(
        fresh_model(&catalog, seed),
        catalog.key_relation_selector(K),
    );
    let started = Instant::now();
    let truth = ServiceSnapshot::build(&service);
    stages.build_s = started.elapsed().as_secs_f64();

    let service_file = dir.join("service.pkgm");
    write_service_file(&StdIo, &service_file, &service).map_err(|e| e.to_string())?;
    let whole = [dir.join("table-a.pkgmss3"), dir.join("table-b.pkgmss3")];
    let mut files: Vec<(PathBuf, usize)> = Vec::new();
    let started = Instant::now();
    match kind {
        Kind::Hot => {
            for path in &whole {
                write_snapshot_ss3_file(&StdIo, path, &truth).map_err(|e| e.to_string())?;
            }
            files.push((whole[0].clone(), DaemonConfig::default().cache_capacity));
        }
        Kind::Cold => {
            write_snapshot_ss3_file(&StdIo, &whole[0], &truth).map_err(|e| e.to_string())?;
            files.push((whole[0].clone(), COLD_CACHE));
        }
        Kind::Routed => {
            for (spec, len) in shard_ranges(truth.n_rows() as u64, N_SHARDS) {
                let path = pkgm_core::ooc::shard_file_path(&whole[0], spec.shard_id, N_SHARDS);
                let shard = truth.shard_slice(spec, len)?;
                write_snapshot_ss3_file(&StdIo, &path, &shard).map_err(|e| e.to_string())?;
                files.push((path, COLD_CACHE / N_SHARDS as usize));
            }
        }
    }
    stages.write_s = started.elapsed().as_secs_f64();
    stages.file_bytes = files
        .iter()
        .map(|(f, _)| std::fs::metadata(f).map_or(0, |m| m.len()))
        .sum();
    stages.written_bytes = stages.file_bytes * if kind == Kind::Hot { 2 } else { 1 };
    let fleet = files
        .iter()
        .map(|(file, cache)| DaemonProc::spawn(bin, &service_file, file, *cache))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fixture {
        n_items: catalog.n_items() as u32,
        service,
        truth,
        whole,
        service_file,
        fleet,
        stages,
    })
}

/// The client each workload's callers hold.
enum Client {
    Retry(RetryClient),
    Direct(DaemonClient),
    Router(ShardRouter),
}

impl Client {
    fn connect(kind: Kind, addrs: &[String], caller: u64) -> Result<Self, String> {
        let policy = RetryPolicy {
            seed: 0x9e37 + caller,
            ..RetryPolicy::default()
        };
        Ok(match kind {
            Kind::Hot => Client::Retry(RetryClient::new(addrs[0].clone(), policy)),
            Kind::Cold => {
                Client::Direct(DaemonClient::connect(&addrs[0]).map_err(|e| e.to_string())?)
            }
            Kind::Routed => {
                Client::Router(ShardRouter::connect(addrs, policy).map_err(|e| e.to_string())?)
            }
        })
    }

    fn lookup(&mut self, items: &[u32]) -> Result<Vec<Vec<f32>>, String> {
        match self {
            Client::Retry(c) => c
                .lookup_with_deadline(items, LOOKUP_BUDGET)
                .map_err(|e| e.to_string()),
            Client::Direct(c) => c.lookup(items).map_err(|e| e.to_string()),
            Client::Router(c) => c.lookup(items).map_err(|e| e.to_string()),
        }
    }
}

/// Whether every served row equals the in-process table's row, bit for bit.
fn rows_match(truth: &ServiceSnapshot, items: &[u32], rows: &[Vec<f32>]) -> bool {
    let table = truth.dense_table().expect("the built table is dense");
    let row_len = 2 * truth.dim();
    rows.len() == items.len()
        && items.iter().zip(rows).all(|(&id, row)| {
            let at = id as usize * row_len;
            bits_equal(row, &table[at..at + row_len])
        })
}

/// Daemon-side counters summed over the fleet: the `stats` verb plus
/// `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default)]
struct FleetCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    degraded: f64,
    batches: f64,
    batch_items: f64,
    shed: f64,
    expired: f64,
    swaps: f64,
    quiesce_timeouts: f64,
    protocol_errors: f64,
    worker_restarts: f64,
    cpu_s: f64,
    minor_faults: f64,
}

impl FleetCounters {
    fn read(fleet: &[DaemonProc]) -> Result<Self, String> {
        let mut c = FleetCounters::default();
        for d in fleet {
            let stats = DaemonClient::connect(&d.addr)
                .and_then(|mut cl| cl.stats())
                .map_err(|e| format!("daemon stats at {}: {e}", d.addr))?;
            let num = |path: &[&str]| {
                path.iter()
                    .try_fold(&stats, |v, k| v.get(k))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            c.hits += num(&["cache", "hits"]);
            c.misses += num(&["cache", "misses"]);
            c.evictions += num(&["cache", "evictions"]);
            c.degraded += num(&["cache", "degraded"]);
            c.batches += num(&["batch", "batches"]);
            c.batch_items += num(&["batch", "items"]);
            c.shed += num(&["batch", "shed"]);
            c.expired += num(&["batch", "expired_enqueue"])
                + num(&["batch", "expired_queued"])
                + num(&["batch", "expired_executing"]);
            c.swaps += num(&["swaps"]);
            c.quiesce_timeouts += num(&["quiesce_timeouts"]);
            c.protocol_errors += num(&["protocol_errors"]);
            c.worker_restarts += num(&["worker_restarts"]) + num(&["acceptor_restarts"]);
            let cpu = sys::proc_cpu(d.child.id());
            c.cpu_s += cpu.total_s();
            c.minor_faults += cpu.minor_faults as f64;
        }
        Ok(c)
    }

    fn since(&self, e: &FleetCounters) -> FleetCounters {
        FleetCounters {
            hits: self.hits - e.hits,
            misses: self.misses - e.misses,
            evictions: self.evictions - e.evictions,
            degraded: self.degraded - e.degraded,
            batches: self.batches - e.batches,
            batch_items: self.batch_items - e.batch_items,
            shed: self.shed - e.shed,
            expired: self.expired - e.expired,
            swaps: self.swaps - e.swaps,
            quiesce_timeouts: self.quiesce_timeouts - e.quiesce_timeouts,
            protocol_errors: self.protocol_errors - e.protocol_errors,
            worker_restarts: self.worker_restarts - e.worker_restarts,
            cpu_s: self.cpu_s - e.cpu_s,
            minor_faults: self.minor_faults - e.minor_faults,
        }
    }

    fn hit_share(&self) -> f64 {
        self.hits / (self.hits + self.misses).max(1.0)
    }
}

/// The window a moment `ns` nanoseconds into the timed phase falls in.
fn window_of(ns: u64) -> usize {
    (ns as f64 / 1e9 / WINDOW_S) as usize
}

const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_DONE: u8 = 2;

/// What one closed-loop caller hands back.
struct CallerLog {
    /// Per measured lookup: latency, and completion time on the run's
    /// clock, both in nanoseconds.
    lat_ns: Vec<u64>,
    done_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    straddled_all_shards: bool,
    retry: RetryStats,
    router: RouterStats,
    spans: Option<Recorder>,
}

/// The timed phase of a serve workload.
struct Loaded {
    /// Completed, bit-verified lookups per second, per window.
    windows: Vec<f64>,
    /// Latency of every measured lookup in milliseconds, ascending.
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    reload_ms: Vec<f64>,
    straddled_all_shards: bool,
    client_cpu_s: f64,
    fleet: FleetCounters,
    retry: RetryStats,
    router: RouterStats,
    spans: Option<Recorder>,
}

impl Loaded {
    fn lookups(&self) -> f64 {
        self.lat_ms.len() as f64
    }
}

/// Drive the fleet with [`CALLERS`] closed-loop callers (plus, on
/// `serve-hot`, a connection that reloads every [`RELOAD_GAP`]) for a
/// warm-up and then `seconds`. With `record`, every lookup of every second
/// window is also a span, so recorded and unrecorded windows alternate on
/// the same connections and cache state.
fn run_loaded(
    kind: Kind,
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    record: bool,
) -> Result<Loaded, String> {
    let addrs: Vec<String> = fx.fleet.iter().map(|d| d.addr.clone()).collect();
    let phase = AtomicU8::new(PHASE_WARMUP);
    let origin = Instant::now();
    // Nanoseconds after `origin` at which the timed phase began.
    let measure_from = AtomicU64::new(0);
    let n_rows = fx.truth.n_rows() as u64;

    let caller = |id: u64| -> Result<CallerLog, String> {
        let mut client = Client::connect(kind, &addrs, id)?;
        let mut keys = kind.keys(seed, id, fx.n_items);
        let mut items = vec![0u32; kind.batch()];
        let mut log = CallerLog {
            lat_ns: Vec::new(),
            done_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            straddled_all_shards: true,
            retry: RetryStats::default(),
            router: RouterStats::default(),
            spans: record.then(|| Recorder::with_origin(origin)),
        };
        loop {
            let now = phase.load(Ordering::Acquire);
            if now == PHASE_DONE {
                break;
            }
            keys.fill(&mut items);
            if kind == Kind::Routed {
                log.straddled_all_shards &=
                    shards_touched(&items, n_rows, N_SHARDS) == N_SHARDS as usize;
            }
            let started = Instant::now();
            let in_window =
                origin.elapsed().as_nanos() as u64 - measure_from.load(Ordering::Acquire);
            let recorded = now == PHASE_MEASURE && window_of(in_window) % 2 == 1;
            let rows = match log.spans.as_mut().filter(|_| recorded) {
                Some(rec) => {
                    rec.span("client.lookup", None, log.attempted, || {
                        client.lookup(&items)
                    })
                    .1
                }
                None => client.lookup(&items),
            };
            let lat = started.elapsed();
            log.attempted += 1;
            match rows {
                Ok(rows) if rows_match(&fx.truth, &items, &rows) => {
                    if now == PHASE_MEASURE {
                        log.lat_ns.push(lat.as_nanos() as u64);
                        log.done_ns.push(origin.elapsed().as_nanos() as u64);
                    }
                }
                Ok(_) => log.failed += 1,
                Err(e) => {
                    log.failed += 1;
                    if log.failed == 1 {
                        eprintln!("[{}] caller {id}: lookup failed: {e}", kind.name());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        match &client {
            Client::Retry(c) => log.retry = c.stats(),
            Client::Router(c) => log.router = c.stats(),
            Client::Direct(_) => {}
        }
        Ok(log)
    };

    // (attempted, failed, measured reload walls in ms)
    let reloader = || -> Result<(u64, u64, Vec<f64>), String> {
        let mut client = DaemonClient::connect(&addrs[0]).map_err(|e| e.to_string())?;
        let (mut attempted, mut failed, mut walls) = (0, 0, Vec::new());
        loop {
            let now = phase.load(Ordering::Acquire);
            if now == PHASE_DONE {
                return Ok((attempted, failed, walls));
            }
            let path = fx.whole[(attempted as usize + 1) % 2]
                .to_str()
                .expect("utf-8 scratch path");
            let started = Instant::now();
            let reloaded = client.reload(path);
            let wall = started.elapsed();
            attempted += 1;
            match reloaded {
                Ok(_) if now == PHASE_MEASURE => walls.push(wall.as_secs_f64() * 1e3),
                Ok(_) => {}
                Err(e) => {
                    failed += 1;
                    eprintln!("[{}] reload failed: {e}", kind.name());
                }
            }
            std::thread::sleep(RELOAD_GAP);
        }
    };

    std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS as u64)
            .map(|id| s.spawn(move || caller(id)))
            .collect();
        let reloads = (kind == Kind::Hot).then(|| s.spawn(reloader));
        std::thread::sleep(WARMUP);
        let before = (sys::proc_cpu(0), FleetCounters::read(&fx.fleet));
        measure_from.store(origin.elapsed().as_nanos() as u64, Ordering::Release);
        phase.store(PHASE_MEASURE, Ordering::Release);
        std::thread::sleep(Duration::from_secs_f64(seconds));
        phase.store(PHASE_DONE, Ordering::Release);
        let after = (sys::proc_cpu(0), FleetCounters::read(&fx.fleet));

        let mut loaded = Loaded {
            windows: Vec::new(),
            lat_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            reload_ms: Vec::new(),
            straddled_all_shards: true,
            client_cpu_s: after.0.since(&before.0).total_s(),
            fleet: after.1?.since(&before.1?),
            retry: RetryStats::default(),
            router: RouterStats::default(),
            spans: record.then(|| Recorder::with_origin(origin)),
        };
        let mut done_ns = Vec::new();
        for c in callers {
            let log = c
                .join()
                .map_err(|_| "a caller thread panicked".to_string())??;
            loaded
                .lat_ms
                .extend(log.lat_ns.iter().map(|&ns| ns as f64 / 1e6));
            done_ns.extend(log.done_ns);
            loaded.attempted += log.attempted;
            loaded.failed += log.failed;
            loaded.straddled_all_shards &= log.straddled_all_shards;
            loaded.retry.retries += log.retry.retries;
            loaded.retry.give_ups += log.retry.give_ups;
            loaded.retry.deadline_misses += log.retry.deadline_misses;
            loaded.router.lookups += log.router.lookups;
            loaded.router.sub_lookups += log.router.sub_lookups;
            loaded.router.redirects += log.router.redirects;
            loaded.router.map_loads += log.router.map_loads;
            if let (Some(all), Some(own)) = (loaded.spans.as_mut(), log.spans) {
                all.absorb(own);
            }
        }
        if let Some(r) = reloads {
            let (attempted, failed, walls) = r
                .join()
                .map_err(|_| "the reload thread panicked".to_string())??;
            loaded.attempted += attempted;
            loaded.failed += failed;
            loaded.reload_ms = walls;
        }
        loaded.lat_ms.sort_by(f64::total_cmp);
        let mut counts = vec![0u64; window_of((seconds * 1e9) as u64).max(1)];
        let from = measure_from.load(Ordering::Acquire);
        for ns in done_ns {
            if let Some(c) = counts.get_mut(window_of(ns - from)) {
                *c += 1;
            }
        }
        loaded.windows = counts.iter().map(|&c| c as f64 / WINDOW_S).collect();
        Ok(loaded)
    })
}

/// The asserts that make a loaded phase a valid instance of its workload.
fn require_valid(kind: Kind, l: &Loaded, seconds: f64, out: &mut Outcome) {
    let f = &l.fleet;
    out.require(f.degraded == 0.0, || {
        format!(
            "cache.degraded rose by {}: keys outside the item range were looked up",
            f.degraded
        )
    });
    out.require(f.worker_restarts == 0.0 && f.protocol_errors == 0.0, || {
        format!(
            "daemon restarts {} / protocol errors {} during the run",
            f.worker_restarts, f.protocol_errors
        )
    });
    match kind {
        Kind::Hot => {
            out.require(f.hit_share() >= 0.95, || {
                format!(
                    "serving.hit_share = {:.3} (< 0.95) on serve-hot",
                    f.hit_share()
                )
            });
            let wanted = (seconds.floor() as usize).clamp(1, 10);
            out.require(l.reload_ms.len() >= wanted, || {
                format!(
                    "{} reloads completed in the timed phase (< {wanted})",
                    l.reload_ms.len()
                )
            });
        }
        Kind::Cold | Kind::Routed => out.require(f.hit_share() <= 0.35, || {
            format!(
                "serving.hit_share = {:.3} (> 0.35) on {}",
                f.hit_share(),
                kind.name()
            )
        }),
    }
    if kind == Kind::Routed {
        let per = l.router.sub_lookups as f64 / (l.router.lookups as f64).max(1.0);
        out.require(per >= 3.9 && l.straddled_all_shards, || {
            format!("router.sub_lookups_per_lookup = {per:.2} (< 3.9): batches do not straddle the shards")
        });
        out.require(l.router.redirects == 0, || {
            format!("{} router redirects", l.router.redirects)
        });
    }
}

pub fn run(args: &RunArgs, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (bin, build_s, compiled) = sys::build_pkgm()?;
    out.extra("pkgm_build_s", json!(build_s));
    out.extra("pkgm_compiled", json!(compiled));
    let dir = sys::scratch_dir(kind.name()).map_err(|e| e.to_string())?;
    let (fixture, setup) = timed_setups(args.trace, || set_up(kind, args.seed, &dir, &bin));
    let fx = fixture?;

    if args.trace {
        traced(args, kind, &fx, &bin, &mut out)?;
    } else {
        let l = run_loaded(kind, &fx, args.seed, args.seconds, false)?;
        require_valid(kind, &l, args.seconds, &mut out);
        out.attempted += l.attempted;
        out.failed += l.failed;
        let p = |q: f64| supported_percentile(&l.lat_ms, q);
        out.set_summary("setup_s", setup);
        out.set_summary("work_per_s", summarize(&l.windows));
        out.set_counted("op_p50_ms", percentile(&l.lat_ms, 50.0), l.lat_ms.len());
        out.set(
            "cpu_us_per_work",
            (l.client_cpu_s + l.fleet.cpu_s) / l.lookups().max(1.0) * 1e6,
        );
        out.set(
            "peak_rss_mb",
            fx.fleet
                .iter()
                .map(|d| sys::peak_rss_mib(d.child.id()))
                .sum::<f64>(),
        );
        out.extra("lookups_per_s", json!(out.get("work_per_s")));
        out.extra("lookup_p50_ms", json!(out.get("op_p50_ms")));
        out.extra("lookup_p99_ms", json!(p(99.0)));
        out.extra("lookup_p999_ms", json!(p(99.9)));
        out.extra("lookup_samples", json!(l.lat_ms.len()));
        out.extra("windows_lookups_per_s", json!(l.windows.clone()));
        out.extra("serving.hit_share", json!(l.fleet.hit_share()));
        if kind == Kind::Hot {
            out.extra("reload_ms", json!(summarize(&l.reload_ms).median));
            out.extra("reloads", json!(l.reload_ms.len()));
        }
    }
    out.extra("table_rows", json!(fx.truth.n_rows()));
    out.extra("items", json!(fx.n_items));
    Ok(out)
}

/// The traced run: the layer ladder on one unloaded caller, then the
/// loaded loop with the recorder off and on.
fn traced(
    args: &RunArgs,
    kind: Kind,
    fx: &Fixture,
    bin: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let batch = kind.batch();
    let mut rec = Recorder::new();
    let cache = match kind {
        Kind::Hot => DaemonConfig::default().cache_capacity,
        Kind::Cold | Kind::Routed => COLD_CACHE,
    };
    // The rung below the router is the same batch against one whole-table
    // daemon; the other workloads already run one.
    let whole_daemon = match kind {
        Kind::Routed => {
            write_snapshot_ss3_file(&StdIo, &fx.whole[0], &fx.truth).map_err(|e| e.to_string())?;
            Some(DaemonProc::spawn(
                bin,
                &fx.service_file,
                &fx.whole[0],
                cache,
            )?)
        }
        Kind::Hot | Kind::Cold => None,
    };
    let whole_addr = whole_daemon.as_ref().map_or(&fx.fleet[0].addr, |d| &d.addr);
    let mut direct = DaemonClient::connect(whole_addr).map_err(|e| e.to_string())?;
    let mut outer = match kind {
        Kind::Cold => None,
        Kind::Hot | Kind::Routed => {
            let addrs: Vec<String> = fx.fleet.iter().map(|d| d.addr.clone()).collect();
            Some(Client::connect(kind, &addrs, 0)?)
        }
    };
    let outer_name = if kind == Kind::Routed {
        "router.lookup"
    } else {
        "retry.lookup"
    };

    let (_, mapped) = rec.span("serialize.open", None, u64::MAX, || {
        let mapped = open_snapshot_file(&fx.whole[0])?;
        let mut row = Vec::new();
        mapped.lookup_exact(EntityId(0), &mut row);
        Ok::<_, pkgm_core::ArtifactError>(mapped)
    });
    let mapped = mapped.map_err(|e| e.to_string())?;
    // In-process stand-ins for the daemon's inner layers, one per rung so
    // each sees every batch exactly once, as the daemon's cache does.
    let replica = || {
        Arc::new(CachedService::with_snapshot(
            fx.service.clone(),
            cache,
            mapped.clone(),
        ))
    };
    let (behind_batcher, bare) = (replica(), replica());
    let defaults = DaemonConfig::default();
    let batcher = DynamicBatcher::new(defaults.queue_capacity, defaults.max_batch_items);
    let mut keys = kind.keys(args.seed, 0, fx.n_items);
    let mut items = vec![0u32; batch];
    let mut row = Vec::new();

    std::thread::scope(|s| -> Result<(), String> {
        let worker = s.spawn(|| batcher.run_worker(|| Arc::clone(&behind_batcher)));
        for id in 0..LADDER_LOOKUPS {
            keys.fill(&mut items);
            let mut parent = None;
            if let Some(client) = outer.as_mut() {
                let (span, rows) = rec.span(outer_name, None, id, || client.lookup(&items));
                out.check(rows.is_ok_and(|r| rows_match(&fx.truth, &items, &r)));
                parent = Some(span);
            }
            let (root, rows) = rec.span("client.lookup", parent, id, || direct.lookup(&items));
            out.check(rows.is_ok_and(|r| rows_match(&fx.truth, &items, &r)));
            let (_, pong) = rec.span("daemon.ping", Some(root), id, || direct.ping());
            out.check(pong.is_ok());
            let owned = items.clone();
            let (rung, rows) = rec.span("batcher.submit_wait", Some(root), id, || {
                batcher
                    .submit(owned)
                    .map_err(|e| e.to_string())?
                    .wait()
                    .map_err(|e| e.to_string())
            });
            out.check(rows.is_ok());
            let ids: Vec<EntityId> = items.iter().map(|&i| EntityId(i)).collect();
            let (rung, rows) = rec.span("serving.batch", Some(rung), id, || {
                bare.condensed_service_batch(&ids)
            });
            rec.span("snapshot.rows", Some(rung), id, || {
                for &i in &items {
                    mapped.lookup_exact(EntityId(i), &mut row);
                    black_box(&row);
                }
            });
            out.check(protocol_spans(&mut rec, root, id, &items, &rows));
        }
        batcher.stop();
        worker
            .join()
            .map_err(|_| "the batch worker panicked".to_string())
    })?;

    let dur = rec.median_duration_ns();
    let own = rec.median_self_ns();
    let us = |m: &std::collections::BTreeMap<&'static str, f64>, name: &str| {
        m.get(name).copied().unwrap_or(0.0) / 1e3
    };
    let roundtrip_us = us(&dur, "client.lookup");
    out.set("serialize.open_ms", us(&dur, "serialize.open") / 1e3);
    out.set("daemon.ping_us", us(&dur, "daemon.ping"));
    out.set("daemon.roundtrip_us", roundtrip_us);
    out.set("daemon.self_us", us(&own, "client.lookup"));
    out.set("batcher.handoff_us", us(&own, "batcher.submit_wait"));
    out.set(
        "serving.batch_ns_per_item",
        us(&dur, "serving.batch") * 1e3 / batch as f64,
    );
    out.set(
        "snapshot.row_read_ns_per_item",
        us(&dur, "snapshot.rows") * 1e3 / batch as f64,
    );
    out.set(
        "protocol.request_codec_ns",
        us(&dur, "protocol.request_codec") * 1e3,
    );
    out.set(
        "protocol.rows_codec_ns",
        us(&dur, "protocol.rows_codec") * 1e3,
    );
    out.set(
        "protocol.frame_crc_ns",
        us(&dur, "protocol.frame_crc") * 1e3,
    );
    match kind {
        Kind::Hot => out.set("retry.overhead_us", us(&own, "retry.lookup")),
        Kind::Routed => {
            out.set("router.lookup_us", us(&dur, "router.lookup"));
            out.set("router.hop_ratio", us(&dur, "router.lookup") / roundtrip_us);
        }
        Kind::Cold => {}
    }
    // The rungs sum to the root by construction; a rung whose replay cost
    // more than the real call it is part of shows as negative self time.
    for rung in ["client.lookup", "batcher.submit_wait", "serving.batch"] {
        out.require(us(&own, rung) >= -0.05 * roundtrip_us, || {
            format!(
                "self time of {rung} is {:.1} us, below -5% of the {roundtrip_us:.1} us root",
                us(&own, rung)
            )
        });
    }
    drop(direct);
    drop(whole_daemon);

    let mut load = run_loaded(kind, fx, args.seed, TRACED_LOAD_S, true)?;
    require_valid(kind, &load, TRACED_LOAD_S, out);
    out.attempted += load.attempted;
    out.failed += load.failed;
    // Window rates on two shared cores differ by several percent from one
    // second to the next, far more than a span costs, so the recorder's
    // share is taken from its measured cost per span against the recorded
    // lookups' median latency; the alternating windows are printed beside it.
    let calibration = Instant::now();
    let mut scratch = Recorder::new();
    for id in 0..100_000 {
        scratch.span("calibrate", None, id, || black_box(id));
    }
    let span_cost_ns = calibration.elapsed().as_nanos() as f64 / 1e5;
    let recorded_ns = load
        .spans
        .as_ref()
        .and_then(|r| r.median_duration_ns().get("client.lookup").copied())
        .unwrap_or(f64::NAN);
    out.set("trace.overhead_share", span_cost_ns / recorded_ns);
    out.extra("trace.span_cost_ns", json!(span_cost_ns));
    out.extra("windows_lookups_per_s", json!(load.windows.clone()));
    if let Some(spans) = load.spans.take() {
        rec.absorb(spans);
    }
    rec.write_jsonl(&Path::new(sys::OUT_DIR).join(format!("{}.trace.jsonl", kind.name())))
        .map_err(|e| e.to_string())?;

    let f = &load.fleet;
    let klookups = load.lookups().max(1.0) / 1e3;
    let st = &fx.stages;
    out.set("synth.catalog_gen_s", st.catalog_gen_s);
    out.set(
        "snapshot.build_rows_per_s",
        fx.truth.n_rows() as f64 / st.build_s,
    );
    out.set(
        "snapshot3.write_mb_per_s",
        st.written_bytes as f64 / 1e6 / st.write_s,
    );
    out.set(
        "snapshot3.file_bytes_per_row",
        st.file_bytes as f64 / fx.truth.n_rows() as f64,
    );
    out.set("serving.hit_share", f.hit_share());
    out.set(
        "serving.evictions_per_item",
        f.evictions / (f.hits + f.misses).max(1.0),
    );
    out.set(
        "batcher.mean_batch_items",
        f.batch_items / f.batches.max(1.0),
    );
    out.set("batcher.shed", f.shed);
    out.set("batcher.expired", f.expired);
    out.set("daemon.cpu_ms_per_klookup", f.cpu_s * 1e3 / klookups);
    out.set(
        "client.cpu_ms_per_klookup",
        load.client_cpu_s * 1e3 / klookups,
    );
    out.set("daemon.minor_faults_per_klookup", f.minor_faults / klookups);
    out.set("daemon.swaps", f.swaps);
    out.set("daemon.quiesce_timeouts", f.quiesce_timeouts);
    out.set("daemon.protocol_errors", f.protocol_errors);
    out.set("daemon.worker_restarts", f.worker_restarts);
    out.set("daemon.reload_ms", summarize(&load.reload_ms).median);
    out.set("retry.retries", load.retry.retries as f64);
    out.set("retry.give_ups", load.retry.give_ups as f64);
    out.set(
        "router.sub_lookups_per_lookup",
        load.router.sub_lookups as f64 / (load.router.lookups as f64).max(1.0),
    );
    out.set("router.redirects", load.router.redirects as f64);
    out.set("router.map_loads", load.router.map_loads as f64);
    out.set(
        "client.lookup_p99_ms",
        supported_percentile(&load.lat_ms, 99.0),
    );
    out.set(
        "client.lookup_p999_ms",
        supported_percentile(&load.lat_ms, 99.9),
    );
    Ok(())
}
