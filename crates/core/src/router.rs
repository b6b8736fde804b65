//! The shard-router tier: one logical lookup endpoint over N shard daemons.
//!
//! PR 8 made serving out-of-core — entity-range `PKGMSS3` shards, each
//! served by its own daemon, with typed [`Response::WrongShard`] redirects
//! for ids outside a daemon's range — but left the re-routing to the
//! caller. [`ShardRouter`] closes that gap:
//!
//! * it loads each daemon's shard topology through the `ShardMap` protocol
//!   verb (the same JSON `daemon stats` embeds) and validates the ranges
//!   into one contiguous map of the global id space;
//! * a batch lookup is **split** by entity range and **scattered**: every
//!   shard's sub-lookup is written before any reply is read, so the
//!   shards serve one batch at the same time. The replies are then
//!   **gathered** and the rows merged back into request order — callers
//!   see exactly the semantics of a single whole-table daemon, bit for
//!   bit. Each connection carries at most one request in flight, so a
//!   reply needs no correlation id; when one shard fails terminally, every
//!   connection whose reply is still unread is dropped before the error
//!   returns, so a later lookup never reads a stale reply as its own;
//! * a `WrongShard` answer (the map went stale under us — a daemon was
//!   hot-swapped to a different range) invalidates the cached map,
//!   reloads it, and re-routes the missed items, bounded by
//!   [`ShardRouter::max_redirects`] hops so a confused topology degrades
//!   to a typed error instead of a livelock;
//! * per-shard transport runs through [`RetryClient`], so shed requests
//!   and pre-write transport failures retry under the usual
//!   provably-unexecuted policy — the scatter write is attempt 1 of that
//!   shard's schedule, and each shard client jitters from its own seed.
//!
//! [`Supervisor`] is the process-level counterpart: given the shard files
//! `base.shard{K}of{N}` produced by `pkgm snapshot --shards N`, it spawns
//! one `pkgm daemon serve --snapshot` per shard on an ephemeral port and
//! gates on the daemons' readiness probes before reporting the fleet up.
//! A shard daemon holds its shard file and nothing else — no model.
//!
//! [`Response::WrongShard`]: crate::protocol::Response::WrongShard

use crate::daemon::{ClientError, DaemonClient, ShardRedirect};
use crate::protocol::Request;
use crate::retry::{RetryClient, RetryError, RetryPolicy};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One daemon's entry in a validated [`ShardMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Index into the router's address list.
    pub addr_index: usize,
    /// The daemon's address, verbatim.
    pub addr: String,
    /// The shard's index in the topology.
    pub shard_id: u32,
    /// First global row the shard covers.
    pub row_start: u64,
    /// Rows the shard covers (`[row_start, row_start + n_rows)`).
    pub n_rows: u64,
}

/// A validated, contiguous entity-range shard topology: every global id in
/// `[0, total_rows)` maps to exactly one daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    entries: Vec<ShardEntry>,
    total_rows: u64,
}

impl ShardMap {
    /// Validate `entries` into a map: shard ids `0..n` each present once,
    /// ranges non-empty, sorted by `row_start`, and contiguous from 0.
    pub fn new(mut entries: Vec<ShardEntry>) -> Result<Self, RouterError> {
        if entries.is_empty() {
            return Err(RouterError::BadMap("no shard entries".into()));
        }
        entries.sort_by_key(|e| e.row_start);
        let n = entries.len() as u32;
        let mut next_start = 0u64;
        for (i, e) in entries.iter().enumerate() {
            if e.shard_id != i as u32 {
                return Err(RouterError::BadMap(format!(
                    "shard ids must be 0..{n} in row order; position {i} has shard id {}",
                    e.shard_id
                )));
            }
            if e.n_rows == 0 {
                return Err(RouterError::BadMap(format!("shard {i} covers zero rows")));
            }
            if e.row_start != next_start {
                return Err(RouterError::BadMap(format!(
                    "shard {i} starts at row {} but the previous shard ends at {next_start}",
                    e.row_start
                )));
            }
            next_start = e.row_start + e.n_rows;
        }
        Ok(Self {
            entries,
            total_rows: next_start,
        })
    }

    /// The shards, in row order (index = shard id).
    pub fn entries(&self) -> &[ShardEntry] {
        &self.entries
    }

    /// Shards in the topology.
    pub fn n_shards(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Total rows covered (`sum of n_rows`; ids `0..total_rows` route).
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// The shard covering global id `id`.
    pub fn shard_for(&self, id: u32) -> Result<&ShardEntry, RouterError> {
        if (id as u64) >= self.total_rows {
            return Err(RouterError::OutOfRange {
                id,
                total_rows: self.total_rows,
            });
        }
        // Ranges are contiguous from 0, so partition_point finds the
        // first shard starting past `id`; the one before it covers it.
        let idx = self.entries.partition_point(|e| e.row_start <= id as u64);
        Ok(&self.entries[idx - 1])
    }
}

/// Why a routed operation failed.
#[derive(Debug)]
pub enum RouterError {
    /// The daemons' reported topology does not assemble into a contiguous
    /// map.
    BadMap(String),
    /// A requested id lies past the end of the mapped table.
    OutOfRange {
        /// The offending id.
        id: u32,
        /// Rows the assembled map covers.
        total_rows: u64,
    },
    /// Redirects kept arriving after the map was refreshed
    /// `max_redirects` times — the topology is inconsistent.
    RedirectLoop {
        /// Refresh-and-re-route rounds performed.
        hops: u32,
        /// The redirect that exhausted the budget.
        redirect: ShardRedirect,
    },
    /// A per-shard lookup failed terminally (after its own retries).
    Lookup {
        /// The shard daemon's address.
        addr: String,
        /// The final retry-layer error.
        error: RetryError,
    },
    /// Talking to a daemon outside the lookup path (map load, probe)
    /// failed.
    Client {
        /// The daemon's address.
        addr: String,
        /// The client error.
        error: ClientError,
    },
    /// Spawning or supervising shard daemons failed.
    Supervise(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::BadMap(why) => write!(f, "invalid shard map: {why}"),
            RouterError::OutOfRange { id, total_rows } => {
                write!(f, "id {id} is past the mapped table ({total_rows} rows)")
            }
            RouterError::RedirectLoop { hops, redirect } => write!(
                f,
                "still redirected after {hops} shard-map refreshes \
                 (id {} answered by shard {} of {})",
                redirect.id, redirect.shard_id, redirect.n_shards
            ),
            RouterError::Lookup { addr, error } => write!(f, "lookup via {addr} failed: {error}"),
            RouterError::Client { addr, error } => write!(f, "daemon {addr}: {error}"),
            RouterError::Supervise(why) => write!(f, "supervisor: {why}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Cumulative counters over a [`ShardRouter`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Logical batch lookups served.
    pub lookups: u64,
    /// Per-shard sub-lookups issued (≥ `lookups`).
    pub sub_lookups: u64,
    /// `WrongShard` redirects followed (each also refreshed the map).
    pub redirects: u64,
    /// Shard-map loads, initial and refresh.
    pub map_loads: u64,
    /// Sub-lookup retries (sleep-and-resend), summed over the shard
    /// clients.
    pub retries: u64,
    /// Sub-lookups that failed after their retries — a `WrongShard`
    /// answer included — summed over the shard clients.
    pub give_ups: u64,
}

/// Routes batch lookups across N shard daemons by entity range. See the
/// module docs for the splitting/merging and redirect contract.
pub struct ShardRouter {
    addrs: Vec<String>,
    policy: RetryPolicy,
    map: ShardMap,
    /// Lazily-connected per-address retry clients (index = addr index).
    clients: Vec<Option<RetryClient>>,
    stats: RouterStats,
    /// Map-refresh-and-re-route rounds allowed per logical lookup before a
    /// persisting redirect becomes a typed [`RouterError::RedirectLoop`].
    pub max_redirects: u32,
}

impl ShardRouter {
    /// Connect to `addrs`, load every daemon's shard topology, and
    /// validate the combined map. Per-shard lookups retry under `policy`.
    pub fn connect(addrs: &[String], policy: RetryPolicy) -> Result<Self, RouterError> {
        let mut router = Self {
            addrs: addrs.to_vec(),
            policy,
            map: ShardMap {
                entries: Vec::new(),
                total_rows: 0,
            },
            clients: addrs.iter().map(|_| None).collect(),
            stats: RouterStats::default(),
            max_redirects: 4,
        };
        router.refresh_map()?;
        Ok(router)
    }

    /// The currently-cached shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Cumulative routing counters.
    pub fn stats(&self) -> RouterStats {
        let mut stats = self.stats;
        for client in self.clients.iter().flatten() {
            stats.retries += client.stats().retries;
            stats.give_ups += client.stats().give_ups;
        }
        stats
    }

    /// Drop the cached map and reload it from every daemon.
    pub fn refresh_map(&mut self) -> Result<(), RouterError> {
        self.stats.map_loads += 1;
        let mut entries = Vec::with_capacity(self.addrs.len());
        for (addr_index, addr) in self.addrs.iter().enumerate() {
            entries.push(load_shard_entry(addr, addr_index)?);
        }
        self.map = ShardMap::new(entries)?;
        Ok(())
    }

    /// Condensed service vectors for `items`, split by shard and merged
    /// back into request order — bit-identical to asking one whole-table
    /// daemon. Every shard's sub-lookup is written before any reply is
    /// read. Follows `WrongShard` redirects by refreshing the map and
    /// re-routing the missed items, bounded by `max_redirects` rounds.
    pub fn lookup(&mut self, items: &[u32]) -> Result<Vec<Vec<f32>>, RouterError> {
        self.stats.lookups += 1;
        let mut out: Vec<Option<Vec<f32>>> = vec![None; items.len()];
        let mut pending: Vec<(usize, u32)> = items.iter().copied().enumerate().collect();
        let mut hops = 0u32;
        while !pending.is_empty() {
            // Split the pending items by shard, preserving request order
            // inside each group.
            let mut groups: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.map.entries().len()];
            for &(orig, id) in &pending {
                let shard = self.map.shard_for(id)?;
                groups[shard.shard_id as usize].push((orig, id));
            }
            // Scatter: one group per address, so each connection carries
            // at most one unread reply and the shards serve at once.
            let mut calls = Vec::with_capacity(groups.len());
            for (shard_idx, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let addr_index = self.map.entries()[shard_idx].addr_index;
                let ids: Vec<u32> = group.iter().map(|&(_, id)| id).collect();
                self.stats.sub_lookups += 1;
                let call = self
                    .client(addr_index)
                    .send(Request::Lookup(ids), group.len(), None);
                calls.push((addr_index, group, call));
            }
            // Gather, in request order.
            let mut redo: Vec<(usize, u32)> = Vec::new();
            let mut last_redirect: Option<ShardRedirect> = None;
            let mut calls = calls.into_iter();
            while let Some((addr_index, group, call)) = calls.next() {
                match self.client(addr_index).finish(call) {
                    Ok(rows) => {
                        for ((orig, _), row) in group.iter().zip(rows) {
                            out[*orig] = Some(row);
                        }
                    }
                    Err(error) => match error.wrong_shard() {
                        // The daemon no longer covers the range our map
                        // says it does — the topology changed under us.
                        Some(redirect) => {
                            last_redirect = Some(redirect);
                            redo.extend(group);
                        }
                        None => {
                            // Replies still unread would answer a later
                            // lookup; drop their connections instead.
                            for (unread, _, _) in calls {
                                self.client(unread).disconnect();
                            }
                            return Err(RouterError::Lookup {
                                addr: self.addrs[addr_index].clone(),
                                error,
                            });
                        }
                    },
                }
            }
            if let Some(redirect) = last_redirect {
                if hops >= self.max_redirects {
                    return Err(RouterError::RedirectLoop { hops, redirect });
                }
                hops += 1;
                self.stats.redirects += 1;
                // The stale map misled us once; every cached range is now
                // suspect. Reload before re-routing the missed items.
                self.refresh_map()?;
            }
            pending = redo;
        }
        Ok(out
            .into_iter()
            .map(|row| row.expect("every pending item was served or errored"))
            .collect())
    }

    fn client(&mut self, addr_index: usize) -> &mut RetryClient {
        self.clients[addr_index].get_or_insert_with(|| {
            // Every lookup calls every shard, so equal call counts would
            // give the shard clients equal jitter: mix in the address.
            let policy = RetryPolicy {
                seed: self.policy.seed ^ (addr_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..self.policy.clone()
            };
            RetryClient::new(self.addrs[addr_index].clone(), policy)
        })
    }
}

/// Load one daemon's shard topology via the `ShardMap` protocol verb.
fn load_shard_entry(addr: &str, addr_index: usize) -> Result<ShardEntry, RouterError> {
    let client_err = |error: ClientError| RouterError::Client {
        addr: addr.to_string(),
        error,
    };
    let mut client = DaemonClient::connect(addr).map_err(client_err)?;
    let map = client.shard_map().map_err(client_err)?;
    let snapshot = map
        .get("snapshot")
        .cloned()
        .unwrap_or(serde_json::Value::Null);
    if matches!(snapshot, serde_json::Value::Null) {
        return Err(RouterError::BadMap(format!(
            "daemon {addr} serves no snapshot, so it reports no entity range"
        )));
    }
    let field_u64 = |v: &serde_json::Value, key: &str| -> Result<u64, RouterError> {
        v.get(key)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| RouterError::BadMap(format!("daemon {addr}: missing {key}")))
    };
    let shard = snapshot
        .get("shard")
        .cloned()
        .ok_or_else(|| RouterError::BadMap(format!("daemon {addr}: missing shard block")))?;
    Ok(ShardEntry {
        addr_index,
        addr: addr.to_string(),
        shard_id: field_u64(&shard, "shard_id")? as u32,
        row_start: field_u64(&shard, "row_start")?,
        n_rows: field_u64(&snapshot, "rows")?,
    })
}

/// How long [`Supervisor::spawn`] waits for each daemon to write its addr
/// file and pass its readiness probe.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// One spawned shard daemon under a [`Supervisor`].
pub struct SupervisedDaemon {
    /// The shard snapshot file the daemon serves.
    pub snapshot: PathBuf,
    /// The daemon's bound address (read back from its addr file).
    pub addr: String,
    child: std::process::Child,
}

/// Spawns and tears down one `pkgm daemon serve` per shard file.
pub struct Supervisor {
    daemons: Vec<SupervisedDaemon>,
}

/// Discover the shard files `base.shard{K}of{N}` next to `base`, sorted by
/// shard index and validated as a complete `0..n` set. A plain `base` that
/// exists with no shard siblings is returned alone (single-shard set).
pub fn discover_shard_files(base: &Path) -> Result<Vec<PathBuf>, RouterError> {
    let dir = base.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = base
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| RouterError::Supervise(format!("bad base path {}", base.display())))?;
    let prefix = format!("{file_name}.shard");
    let mut found: Vec<(u32, u32, PathBuf)> = Vec::new();
    let entries = std::fs::read_dir(dir.unwrap_or(Path::new(".")))
        .map_err(|e| RouterError::Supervise(format!("cannot list shard dir: {e}")))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some((k, n)) = rest.split_once("of") else {
            continue;
        };
        if let (Ok(k), Ok(n)) = (k.parse::<u32>(), n.parse::<u32>()) {
            found.push((k, n, entry.path()));
        }
    }
    if found.is_empty() {
        if base.exists() {
            return Ok(vec![base.to_path_buf()]);
        }
        return Err(RouterError::Supervise(format!(
            "no shard files matching {}.shard<K>of<N> and no base file",
            base.display()
        )));
    }
    found.sort_by_key(|&(k, _, _)| k);
    let n = found[0].1;
    if found.len() != n as usize
        || found
            .iter()
            .enumerate()
            .any(|(i, &(k, of, _))| k != i as u32 || of != n)
    {
        return Err(RouterError::Supervise(format!(
            "incomplete shard set for {}: found {} file(s), expected shards 0..{n}",
            base.display(),
            found.len()
        )));
    }
    Ok(found.into_iter().map(|(_, _, p)| p).collect())
}

impl Supervisor {
    /// Spawn `daemon_bin daemon serve --snapshot` for every shard file,
    /// each on an ephemeral port with an addr file, and block until every
    /// daemon passes its readiness probe (or [`SPAWN_TIMEOUT`] expires).
    pub fn spawn(daemon_bin: &Path, shard_files: &[PathBuf]) -> Result<Self, RouterError> {
        let mut daemons = Vec::with_capacity(shard_files.len());
        let pid = std::process::id();
        for (i, shard) in shard_files.iter().enumerate() {
            let addr_file = std::env::temp_dir().join(format!("pkgm-router-{pid}-{i}.addr"));
            let _ = std::fs::remove_file(&addr_file);
            let child = std::process::Command::new(daemon_bin)
                .arg("daemon")
                .arg("serve")
                .arg("--snapshot")
                .arg(shard)
                .arg("--addr")
                .arg("127.0.0.1:0")
                .arg("--addr-file")
                .arg(&addr_file)
                .spawn()
                .map_err(|e| {
                    RouterError::Supervise(format!(
                        "cannot spawn daemon for {}: {e}",
                        shard.display()
                    ))
                })?;
            daemons.push((shard.clone(), addr_file, child));
        }
        // Two-phase readiness: first every addr file (the daemon bound its
        // socket), then every readiness probe (it can actually serve).
        let deadline = Instant::now() + SPAWN_TIMEOUT;
        let mut spawned = Vec::with_capacity(daemons.len());
        for (snapshot, addr_file, child) in daemons {
            let addr = wait_for_addr_file(&addr_file, deadline);
            let _ = std::fs::remove_file(&addr_file);
            match addr {
                Ok(addr) => spawned.push(SupervisedDaemon {
                    snapshot,
                    addr,
                    child,
                }),
                Err(e) => {
                    let mut sup = Supervisor { daemons: spawned };
                    sup.push_for_teardown(child);
                    sup.kill();
                    return Err(e);
                }
            }
        }
        let mut sup = Supervisor { daemons: spawned };
        for i in 0..sup.daemons.len() {
            if let Err(e) = wait_for_ready(&sup.daemons[i].addr, deadline) {
                sup.kill();
                return Err(e);
            }
        }
        Ok(sup)
    }

    fn push_for_teardown(&mut self, child: std::process::Child) {
        self.daemons.push(SupervisedDaemon {
            snapshot: PathBuf::new(),
            addr: String::new(),
            child,
        });
    }

    /// The spawned daemons, in shard order.
    pub fn daemons(&self) -> &[SupervisedDaemon] {
        &self.daemons
    }

    /// The daemons' addresses, in shard order — [`ShardRouter::connect`]
    /// input.
    pub fn addrs(&self) -> Vec<String> {
        self.daemons.iter().map(|d| d.addr.clone()).collect()
    }

    /// Gracefully shut every daemon down (protocol `Shutdown`, then reap);
    /// daemons that refuse the handshake are killed.
    pub fn shutdown(mut self) -> io::Result<()> {
        for d in &mut self.daemons {
            let polite = DaemonClient::connect(&d.addr)
                .and_then(|mut c| c.shutdown())
                .is_ok();
            if !polite {
                let _ = d.child.kill();
            }
            let _ = d.child.wait();
        }
        self.daemons.clear();
        Ok(())
    }

    fn kill(&mut self) {
        for d in &mut self.daemons {
            let _ = d.child.kill();
            let _ = d.child.wait();
        }
        self.daemons.clear();
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Poll for the daemon's addr file (written once its socket is bound).
fn wait_for_addr_file(path: &Path, deadline: Instant) -> Result<String, RouterError> {
    loop {
        if let Ok(addr) = std::fs::read_to_string(path) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return Ok(addr);
            }
        }
        if Instant::now() >= deadline {
            return Err(RouterError::Supervise(format!(
                "daemon never wrote its addr file {}",
                path.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Poll the daemon's readiness probe until it reports it can serve.
fn wait_for_ready(addr: &str, deadline: Instant) -> Result<(), RouterError> {
    loop {
        if let Ok(mut client) = DaemonClient::connect(addr) {
            if client.ready().unwrap_or(false) {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(RouterError::Supervise(format!(
                "daemon at {addr} never became ready"
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(addr_index: usize, shard_id: u32, row_start: u64, n_rows: u64) -> ShardEntry {
        ShardEntry {
            addr_index,
            addr: format!("127.0.0.1:{}", 9000 + addr_index),
            shard_id,
            row_start,
            n_rows,
        }
    }

    #[test]
    fn map_validates_contiguity_and_routes_boundaries() {
        let map = ShardMap::new(vec![
            entry(1, 1, 7, 5),
            entry(0, 0, 0, 7),
            entry(2, 2, 12, 3),
        ])
        .unwrap();
        assert_eq!(map.n_shards(), 3);
        assert_eq!(map.total_rows(), 15);
        // Boundary ids land on the right side of each split.
        for (id, shard) in [(0, 0), (6, 0), (7, 1), (11, 1), (12, 2), (14, 2)] {
            assert_eq!(map.shard_for(id).unwrap().shard_id, shard, "id {id}");
        }
        assert!(matches!(
            map.shard_for(15),
            Err(RouterError::OutOfRange { id: 15, .. })
        ));
    }

    #[test]
    fn gapped_overlapping_or_empty_maps_are_rejected() {
        // Gap between shards.
        assert!(ShardMap::new(vec![entry(0, 0, 0, 5), entry(1, 1, 6, 5)]).is_err());
        // Overlap.
        assert!(ShardMap::new(vec![entry(0, 0, 0, 5), entry(1, 1, 4, 5)]).is_err());
        // Not starting at zero.
        assert!(ShardMap::new(vec![entry(0, 0, 1, 5)]).is_err());
        // Empty shard.
        assert!(ShardMap::new(vec![entry(0, 0, 0, 0)]).is_err());
        // Duplicate shard id.
        assert!(ShardMap::new(vec![entry(0, 0, 0, 5), entry(1, 0, 5, 5)]).is_err());
        // No shards at all.
        assert!(ShardMap::new(Vec::new()).is_err());
    }

    #[test]
    fn single_shard_map_covers_everything_it_declares() {
        let map = ShardMap::new(vec![entry(0, 0, 0, 100)]).unwrap();
        assert_eq!(map.shard_for(0).unwrap().shard_id, 0);
        assert_eq!(map.shard_for(99).unwrap().shard_id, 0);
        assert!(map.shard_for(100).is_err());
    }

    #[test]
    fn shard_clients_of_one_router_jitter_apart() {
        use crate::retry::{Decision, FailureKind, RetryDecider};
        let addrs: Vec<String> = (0..2).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let mut router = ShardRouter {
            addrs,
            policy: RetryPolicy::default(),
            map: ShardMap::new(vec![entry(0, 0, 0, 5), entry(1, 1, 5, 5)]).unwrap(),
            clients: vec![None, None],
            stats: RouterStats::default(),
            max_redirects: 4,
        };
        // Both clients are on their first call, as after every routed
        // lookup: only the per-address seed can tell them apart.
        let mut first_backoff = |addr_index: usize| {
            let policy = router.client(addr_index).call_policy(None);
            match RetryDecider::new(policy).decide(FailureKind::Shed, Duration::ZERO) {
                Decision::Retry { backoff } => backoff,
                Decision::GiveUp(why) => panic!("a shed first attempt retries: {why}"),
            }
        };
        assert_ne!(first_backoff(0), first_backoff(1));
    }

    #[test]
    fn discover_rejects_incomplete_shard_sets() {
        let dir = std::env::temp_dir().join(format!("pkgm-router-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("cat.snap");
        std::fs::write(dir.join("cat.snap.shard0of3"), b"x").unwrap();
        std::fs::write(dir.join("cat.snap.shard2of3"), b"x").unwrap();
        assert!(discover_shard_files(&base).is_err(), "missing shard 1");
        std::fs::write(dir.join("cat.snap.shard1of3"), b"x").unwrap();
        let files = discover_shard_files(&base).unwrap();
        assert_eq!(files.len(), 3);
        for (i, f) in files.iter().enumerate() {
            assert!(f
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .ends_with(&format!("shard{i}of3")));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
