//! Thread-safe memo cache over one serving snapshot.
//!
//! In the paper's deployment, PKGM serves the *same* per-item vectors to many
//! downstream consumers (classification, alignment, recommendation all query
//! the items in their batches). The serving daemon answers them from a
//! precomputed [`ServiceSnapshot`]; [`CachedService`] is a small cache in
//! front of that table, and the snapshot is all it holds — no model, no
//! key-relation selector.
//!
//! The cache is **sharded**: items are distributed over up to
//! [`MAX_SHARDS`] independent `RwLock`-protected shards keyed by a
//! multiplicative hash of the item id. Counters are atomics, so the hot
//! path never contends on a global statistics lock.
//!
//! Rows live in a **slab** per shard: an `id → slot` index beside one flat
//! `Vec<f32>` holding slot `s`'s row at `[s·2d, (s+1)·2d)`. A served row
//! costs one probe and two `memcpy`s and no heap allocation:
//!
//! * a **hit** copies the row out of the slab into the caller's buffer
//!   *under the shard read lock* (shared, so readers never serialize; the
//!   copy is what makes a concurrent flush unable to tear the row);
//! * a **miss** reads the snapshot row (a copy, or deterministic
//!   dequantization) straight into the caller's buffer outside any lock,
//!   then takes the shard write lock once to publish it
//!   (`extend_from_slice`) — flushing the shard first when it is full
//!   (`index.clear(); rows.clear()`: no per-entry free, capacity kept);
//! * an id the snapshot does **not** cover (past the table, or outside an
//!   entity-range shard) is **degraded**: an all-zero row, counted in
//!   [`CacheStats::degraded`] and never cached. A non-item entity inside
//!   the table is not degraded: its stored row is all zeros too (the
//!   condensed service of an id without key relations), served and cached
//!   like any other.
//!
//! [`CachedService::condensed_rows_into`] is the one implementation; the
//! `Arc`-returning [`CachedService::condensed_service`] and
//! [`CachedService::condensed_service_batch`] are adapters that copy its
//! rows out into per-row allocations. The daemon must not go through them:
//! 32–256 `Arc<Vec<f32>>` per batch, allocated on the batch worker and
//! freed on a connection handler, measured −26 % lookups/s on `serve-hot`
//! (EXPERIMENTS.md, "Rows without allocations").

use crate::service::KnowledgeService;
use crate::snapshot::ServiceSnapshot;
use parking_lot::RwLock;
use pkgm_store::fxhash::FxHashMap;
use pkgm_store::EntityId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on cache shards; small caches use fewer so each shard still
/// holds a useful number of entries.
pub const MAX_SHARDS: usize = 16;

/// Cache statistics.
///
/// Every request bumps **exactly one** of `hits`/`misses`/`degraded`, so
/// [`CacheStats::total_requests`] is the number of requests whose counter
/// increment the reader observed. Counters are written with `Release` and
/// read with `Acquire` (see [`CachedService::stats`]), so a reader that is
/// ordered after a request — through any synchronizing edge, such as the
/// hot-swap quiesce in the serving daemon — is guaranteed to count it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that read their row from the snapshot.
    pub misses: u64,
    /// Entries evicted due to the capacity bound.
    pub evictions: u64,
    /// Requests for ids the snapshot does not cover, answered with an
    /// all-zero row. Counted separately from hits and misses so operators
    /// can alert on catalog/table skew.
    pub degraded: u64,
}

impl CacheStats {
    /// Requests observed: each bumps exactly one of hits/misses/degraded.
    pub fn total_requests(&self) -> u64 {
        self.hits + self.misses + self.degraded
    }

    /// Counts accumulated beyond an `earlier` snapshot of these counters
    /// (field-wise saturating difference) — how the serving daemon folds
    /// the increments that land between a hot-swap's stats snapshot and
    /// the retired generation's quiescence.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            degraded: self.degraded.saturating_sub(earlier.degraded),
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    /// Fold another generation's counters in — how the serving daemon
    /// accumulates stats across snapshot hot-swaps.
    fn add_assign(&mut self, rhs: CacheStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
        self.degraded += rhs.degraded;
    }
}

/// One shard's cached rows. Invariant: `index` holds the slots
/// `0..index.len()` and `rows.len() == index.len() * 2d`; slot `s`'s row is
/// `rows[s * 2d..(s + 1) * 2d]`. Grows on demand, never pre-sized.
#[derive(Default)]
struct CondensedSlab {
    index: FxHashMap<u32, u32>,
    rows: Vec<f32>,
}

impl CondensedSlab {
    /// Copy `key`'s row into `out` (one `2d` row); `false` if not cached.
    fn copy_row(&self, key: u32, out: &mut [f32]) -> bool {
        let Some(&slot) = self.index.get(&key) else {
            return false;
        };
        let at = slot as usize * out.len();
        out.copy_from_slice(&self.rows[at..at + out.len()]);
        true
    }
}

/// A memoizing, thread-safe cache over one [`ServiceSnapshot`].
///
/// Eviction is per-shard whole-generation: when a shard reaches its share of
/// the capacity it is cleared (a "flush" cache). That keeps the hot path to
/// one hash probe with no LRU bookkeeping — appropriate for serving scans
/// where batches sweep items in waves — while sharding confines each flush
/// to `1/n_shards` of the cached entries.
pub struct CachedService {
    /// The condensed table every row is read from: dense row copies, or
    /// deterministic dequantization for quantized snapshots.
    snapshot: ServiceSnapshot,
    shards: Vec<RwLock<CondensedSlab>>,
    /// Capacity bound applied independently to each shard.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    degraded: AtomicU64,
    /// Set by [`CachedService::retire`]: a miss then gives the pages it
    /// faulted in straight back, so the batches still in flight on a
    /// swapped-out generation keep none of its mapped table resident.
    retired: AtomicBool,
}

impl CachedService {
    /// A cache of at most `capacity` rows in front of `snapshot`.
    ///
    /// The shard count scales with capacity (one shard per four entries, up
    /// to [`MAX_SHARDS`]) so tiny caches keep their full capacity in a
    /// single shard.
    pub fn new(snapshot: ServiceSnapshot, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let n_shards = (capacity / 4).clamp(1, MAX_SHARDS);
        Self {
            snapshot,
            shards: (0..n_shards).map(|_| RwLock::default()).collect(),
            shard_capacity: capacity / n_shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }

    /// [`CachedService::new`] for callers that still hold the model the
    /// snapshot was built from: `service` is only checked for a matching
    /// dim, then dropped — the cache never computes a row.
    pub fn with_snapshot(
        service: KnowledgeService,
        capacity: usize,
        snapshot: ServiceSnapshot,
    ) -> Self {
        assert_eq!(
            snapshot.dim(),
            service.dim(),
            "snapshot dim must match the service"
        );
        Self::new(snapshot, capacity)
    }

    /// The snapshot every row is served from.
    pub fn snapshot(&self) -> &ServiceSnapshot {
        &self.snapshot
    }

    /// Number of shards the cache was built with.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Fibonacci-style multiplicative hash: consecutive item ids (the common
    /// access pattern for catalog sweeps) land in different shards.
    fn shard_of(&self, item: u32) -> &RwLock<CondensedSlab> {
        let h = (item.wrapping_mul(0x9E37_79B1) >> 16) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Cached condensed services (`2d` vectors, Fig. 3 shape) for a batch,
    /// written as `items.len()` consecutive rows into `out` (cleared first)
    /// — the single implementation behind every entry point; see the
    /// module docs for the per-row cost and lock discipline.
    ///
    /// Ids the snapshot does not cover get an all-zero row and increment
    /// [`CacheStats::degraded`]. Items are resolved in order, each probe
    /// seeing the rows published before it, so an id repeated within one
    /// batch is one miss followed by hits.
    pub fn condensed_rows_into(&self, items: &[EntityId], out: &mut Vec<f32>) {
        let row_len = 2 * self.snapshot.dim();
        out.clear();
        out.resize(items.len() * row_len, 0.0);
        for (&item, row) in items.iter().zip(out.chunks_exact_mut(row_len)) {
            let counter = if !self.snapshot.covers(item.0) {
                &self.degraded
            } else if self.shard_of(item.0).read().copy_row(item.0, row) {
                &self.hits
            } else {
                self.snapshot.row_into(item, row);
                if self.retired.load(Ordering::Acquire) {
                    self.snapshot.release_mapped_pages();
                }
                self.publish(item.0, row);
                &self.misses
            };
            counter.fetch_add(1, Ordering::Release);
        }
    }

    /// Append `row` to `key`'s shard under its write lock, flushing the
    /// shard first when it is full. Does nothing when the key is already
    /// cached — a concurrent miss published it first.
    fn publish(&self, key: u32, row: &[f32]) {
        let mut slab = self.shard_of(key).write();
        if slab.index.contains_key(&key) {
            return;
        }
        if slab.index.len() >= self.shard_capacity {
            self.evictions
                .fetch_add(slab.index.len() as u64, Ordering::Release);
            slab.index.clear();
            slab.rows.clear();
        }
        let slot = slab.index.len() as u32;
        slab.index.insert(key, slot);
        slab.rows.extend_from_slice(row);
    }

    /// Mark this generation as swapped out and release its mapped table's
    /// resident pages (a no-op for a heap image). Lookups still serve the
    /// same bits; each later miss releases the pages it faulted in again,
    /// so a retired mapped table holds no memory while its last in-flight
    /// batches drain.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
        self.snapshot.release_mapped_pages();
    }

    /// [`CachedService::condensed_rows_into`] for one item, copied into its
    /// own allocation.
    pub fn condensed_service(&self, item: EntityId) -> Arc<Vec<f32>> {
        let mut row = Vec::new();
        self.condensed_rows_into(&[item], &mut row);
        Arc::new(row)
    }

    /// [`CachedService::condensed_rows_into`] with every row copied into
    /// its own allocation, order preserved. Allocates per row — batch
    /// consumers on a hot path should take the flat rows instead.
    pub fn condensed_service_batch(&self, items: &[EntityId]) -> Vec<Arc<Vec<f32>>> {
        let mut flat = Vec::new();
        self.condensed_rows_into(items, &mut flat);
        flat.chunks_exact(2 * self.snapshot.dim())
            .map(|row| Arc::new(row.to_vec()))
            .collect()
    }

    /// Snapshot of hit/miss/eviction/degraded counters.
    ///
    /// Increments are `Release` and these loads are `Acquire`, so any
    /// request whose completion is ordered before this call — e.g. every
    /// batch that finished before a hot-swap quiesced this generation —
    /// is guaranteed to be counted. Concurrent in-flight requests may or
    /// may not appear (they are still monotonic: a later read never shows
    /// less), which is why the serving daemon folds a retired
    /// generation's stats only after its last batch reference drops.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Acquire),
            misses: self.misses.load(Ordering::Acquire),
            evictions: self.evictions.load(Ordering::Acquire),
            degraded: self.degraded.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PkgmConfig, PkgmModel};
    use pkgm_store::{KeyRelationSelector, StoreBuilder};

    /// Items `0..n`, then three value entities `n..n + 3` (in the table,
    /// never registered as items: their stored rows are all zeros).
    fn service_n(n: u32) -> KnowledgeService {
        let mut b = StoreBuilder::new();
        for i in 0..n {
            b.add_raw(i, 0, n + i % 2);
            b.add_raw(i, 1, n + 2);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..n).map(|i| (EntityId(i), 0)).collect();
        let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(1),
        );
        KnowledgeService::new(model, sel)
    }

    /// The dense table of [`service_n`]`(8)`: rows `0..11`.
    fn snapshot() -> ServiceSnapshot {
        ServiceSnapshot::build(&service_n(8))
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// `id`'s stored row, which must be covered.
    fn exact(snap: &ServiceSnapshot, id: u32) -> Vec<f32> {
        let mut row = Vec::new();
        assert!(snap.lookup_exact(EntityId(id), &mut row), "id {id} covered");
        row
    }

    #[test]
    fn cache_evicts_at_capacity() {
        let snap = snapshot();
        let cached = CachedService::new(snap.clone(), 2);
        for i in 0..6u32 {
            cached.condensed_service(EntityId(i));
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 6);
        assert!(stats.evictions >= 2, "expected evictions, got {stats:?}");
        // correctness survives eviction
        assert_eq!(*cached.condensed_service(EntityId(0)), exact(&snap, 0));
    }

    #[test]
    fn cache_is_thread_safe() {
        use rayon::prelude::*;
        let snap = snapshot();
        let cached = CachedService::new(snap.clone(), 64);
        let results: Vec<Arc<Vec<f32>>> = (0..64u32)
            .into_par_iter()
            .map(|i| cached.condensed_service(EntityId(i % 8)))
            .collect();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(**r, exact(&snap, i as u32 % 8));
        }
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 64);
        assert!(stats.hits > 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CachedService::new(snapshot(), 0);
    }

    #[test]
    #[should_panic(expected = "snapshot dim must match the service")]
    fn with_snapshot_rejects_a_service_of_another_dim() {
        let mut b = StoreBuilder::new();
        b.add_raw(0, 0, 1);
        let store = b.build();
        let other = KnowledgeService::new(
            PkgmModel::new(2, 1, PkgmConfig::new(16).with_seed(1)),
            KeyRelationSelector::build(&store, &[(EntityId(0), 0)], 1, 1),
        );
        CachedService::with_snapshot(other, 16, snapshot());
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        let snap = snapshot();
        assert_eq!(CachedService::new(snap.clone(), 1).n_shards(), 1);
        assert_eq!(CachedService::new(snap.clone(), 16).n_shards(), 4);
        assert_eq!(CachedService::new(snap, 8192).n_shards(), MAX_SHARDS);
    }

    #[test]
    fn batch_matches_per_item_and_counts_stats() {
        let snap = snapshot();
        let cached = CachedService::new(snap.clone(), 64);
        let items: Vec<EntityId> = (0..8u32).chain(0..8u32).map(EntityId).collect();
        let cond = cached.condensed_service_batch(&items);
        for (i, &item) in items.iter().enumerate() {
            assert_eq!(*cond[i], exact(&snap, item.0));
        }
        // 16 requests over 8 unique ids: the first occurrence of an id is
        // the miss, its repeat in the batch a hit.
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (8, 8));
        // A second batch is all hits.
        let before = cached.stats().hits;
        cached.condensed_service_batch(&items);
        assert_eq!(cached.stats().hits, before + items.len() as u64);
    }

    /// The degraded rule is snapshot coverage: an id past the table is an
    /// all-zero row counted as degraded and never cached; a value entity
    /// inside the table serves its stored all-zero row as a miss, then hits.
    #[test]
    fn only_ids_the_snapshot_does_not_cover_are_degraded() {
        let snap = snapshot();
        let cached = CachedService::new(snap.clone(), 16);
        let zero = vec![0u32; 2 * snap.dim()];
        let (past, value_entity) = (EntityId(u32::MAX), EntityId(9));
        assert!(!snap.covers(past.0) && snap.covers(value_entity.0));
        for _ in 0..2 {
            assert_eq!(bits(&cached.condensed_service(past)), zero);
            assert_eq!(bits(&cached.condensed_service(value_entity)), zero);
        }
        let stats = cached.stats();
        assert_eq!((stats.degraded, stats.misses, stats.hits), (2, 1, 1));
        // Order and length survive degraded ids inside a batch.
        let items = [EntityId(0), past, EntityId(1), value_entity];
        let cond = cached.condensed_service_batch(&items);
        assert_eq!(cond.len(), items.len());
        assert_eq!(*cond[0], exact(&snap, 0));
        assert_eq!(bits(&cond[1]), zero);
        assert_eq!(*cond[2], exact(&snap, 1));
        assert_eq!(cached.stats().degraded, 3);
    }

    #[test]
    fn serving_survives_a_panic_while_a_shard_lock_is_held() {
        let cached = CachedService::new(snapshot(), 16);
        let item = EntityId(1);
        let before = cached.condensed_service(item);
        // Panic while holding the shard's write lock: with std locks this
        // would poison the shard; serving must keep answering regardless.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cached.shard_of(item.0).write();
            panic!("worker died mid-publish");
        }));
        assert!(panicked.is_err());
        let after = cached.condensed_service(item);
        assert_eq!(*before, *after);
        let batch = cached.condensed_service_batch(&[item, EntityId(2)]);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn quantized_snapshot_rows_are_served_as_misses_then_hits() {
        let snap = snapshot().quantize();
        let cached = CachedService::new(snap.clone(), 16);
        assert!(cached.snapshot().is_quantized());
        for i in 0..8u32 {
            let expect = exact(&snap, i);
            let got = cached.condensed_service(EntityId(i));
            assert_eq!(*got, expect, "miss for item {i} must serve snapshot row");
            // Second call is a cache hit returning the same bits.
            assert_eq!(*cached.condensed_service(EntityId(i)), expect);
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn concurrent_stress_mixes_batch_and_single() {
        let snap = snapshot();
        let cached = Arc::new(CachedService::new(snap.clone(), 64));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (cached, snap) = (Arc::clone(&cached), &snap);
                s.spawn(move || {
                    for round in 0..20u32 {
                        let base = (t + round) % 8;
                        if round % 2 == 0 {
                            let items: Vec<EntityId> =
                                (0..8u32).map(|i| EntityId((base + i) % 8)).collect();
                            for (j, v) in cached.condensed_service_batch(&items).iter().enumerate()
                            {
                                assert_eq!(**v, exact(snap, items[j].0));
                            }
                        } else {
                            let v = cached.condensed_service(EntityId(base));
                            assert_eq!(*v, exact(snap, base));
                        }
                    }
                });
            }
        });
        let stats = cached.stats();
        assert!(stats.hits > 0, "stress run should hit the cache: {stats:?}");
        assert!(stats.misses > 0);
    }

    /// The documented cache, item by item: probe the id's shard; on a miss
    /// flush the shard if it is full, then insert.
    struct FlushSim {
        shards: Vec<Vec<u32>>,
        shard_capacity: usize,
        stats: CacheStats,
    }

    impl FlushSim {
        fn new(capacity: usize) -> Self {
            let n_shards = (capacity / 4).clamp(1, MAX_SHARDS);
            Self {
                shards: vec![Vec::new(); n_shards],
                shard_capacity: capacity / n_shards,
                stats: CacheStats::default(),
            }
        }

        fn request(&mut self, id: u32, degraded: bool) {
            if degraded {
                self.stats.degraded += 1;
                return;
            }
            let n_shards = self.shards.len();
            let shard = &mut self.shards[(id.wrapping_mul(0x9E37_79B1) >> 16) as usize % n_shards];
            if shard.contains(&id) {
                self.stats.hits += 1;
                return;
            }
            self.stats.misses += 1;
            if shard.len() >= self.shard_capacity {
                self.stats.evictions += shard.len() as u64;
                shard.clear();
            }
            shard.push(id);
        }
    }

    #[test]
    fn counters_follow_the_reference_flush_cache_batch_by_batch() {
        // 96 items and 3 value entities: rows 0..99.
        let snap = ServiceSnapshot::build(&service_n(96));
        let n_rows = snap.n_rows() as u32;
        let cached = CachedService::new(snap, 24);
        let mut sim = FlushSim::new(24);
        assert_eq!(cached.n_shards(), sim.shards.len());
        let (mut state, mut out) = (7u32, Vec::new());
        for _ in 0..400 {
            // 16 distinct ids per batch: a stride walk modulo a prime that
            // also reaches value entities (96..99) and ids past the table.
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let (start, stride) = (state >> 8, 1 + (state >> 20) % 100);
            let items: Vec<EntityId> = (0..16)
                .map(|j| EntityId((start + j * stride) % 101))
                .collect();
            cached.condensed_rows_into(&items, &mut out);
            for item in &items {
                sim.request(item.0, item.0 >= n_rows);
            }
            assert_eq!(cached.stats(), sim.stats);
        }
        let stats = cached.stats();
        assert!(stats.hits > 0 && stats.evictions > 0 && stats.degraded > 0);
    }

    #[test]
    fn a_repeat_within_one_batch_is_one_miss_then_hits() {
        let items = [5, 5, 7, 5].map(EntityId);
        for snap in [snapshot(), snapshot().quantize()] {
            let cached = CachedService::new(snap, 16);
            let rows = cached.condensed_service_batch(&items);
            assert_eq!(rows[0], rows[1]);
            assert_eq!(rows[0], rows[3]);
            let stats = cached.stats();
            assert_eq!((stats.misses, stats.hits), (2, 2));
        }
    }

    /// Every condensed entry point — the flat rows (as misses, then as
    /// hits), both `Arc` adapters and a batcher ticket — serves `ids` with
    /// exactly `expect`'s bits.
    fn assert_every_path_serves(
        cached: CachedService,
        ids: &[u32],
        expect: impl Fn(u32) -> Vec<f32>,
    ) {
        let cached = Arc::new(cached);
        let row_len = 2 * cached.snapshot().dim();
        let items: Vec<EntityId> = ids.iter().map(|&i| EntityId(i)).collect();
        let want: Vec<u32> = ids.iter().flat_map(|&i| bits(&expect(i))).collect();
        let mut flat = Vec::new();
        for pass in ["misses", "hits"] {
            cached.condensed_rows_into(&items, &mut flat);
            assert_eq!(bits(&flat), want, "condensed_rows_into ({pass})");
        }
        let batch = cached.condensed_service_batch(&items);
        assert_eq!(batch.len(), ids.len());
        for (i, &item) in items.iter().enumerate() {
            let one = &want[i * row_len..(i + 1) * row_len];
            assert_eq!(bits(&batch[i]), one, "condensed_service_batch");
            assert_eq!(
                bits(&cached.condensed_service(item)),
                one,
                "condensed_service"
            );
        }
        let batcher = crate::batcher::DynamicBatcher::new(1024, 64);
        std::thread::scope(|s| {
            s.spawn(|| batcher.run_worker(|| Arc::clone(&cached)));
            let rows = batcher.submit(ids.to_vec()).unwrap().wait().unwrap();
            batcher.stop();
            assert_eq!(bits(&rows), want, "Ticket::wait");
        });
    }

    #[test]
    fn every_path_serves_the_snapshot_row_bits_for_every_backing() {
        use crate::snapshot::{ShardSpec, SnapshotBacking};
        let svc = service_n(200);
        let dense = ServiceSnapshot::build(&svc);
        let ids = [0, 199, 17, 17, 64];
        // Dense, resident.
        let cached = CachedService::new(dense.clone(), 16);
        assert_every_path_serves(cached, &ids, |id| exact(&dense, id));
        // Dense, mapped PKGMSS3.
        let path = std::env::temp_dir().join(format!("pkgm-serving-{}.ss3", std::process::id()));
        crate::serialize::write_snapshot_ss3_file(&crate::StdIo, &path, &dense).unwrap();
        let mapped = crate::serialize::open_snapshot_file(&path).unwrap();
        assert_eq!(mapped.backing(), SnapshotBacking::Mapped);
        let cached = CachedService::new(mapped.clone(), 16);
        assert_every_path_serves(cached, &ids, |id| exact(&mapped, id));
        // A retired generation releases its pages on every miss and
        // still serves the same bits.
        let retired = CachedService::new(mapped.clone(), 16);
        retired.retire();
        assert_every_path_serves(retired, &ids, |id| exact(&mapped, id));
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
        // Quantized: a verbatim escape row (an outlier) and dequantized rows.
        let (escape, plain) = (17u32, 18u32);
        let row_len = 2 * svc.dim();
        let mut table = dense.dense_table().expect("dense snapshot").to_vec();
        table[escape as usize * row_len] = 50.0;
        let outlier =
            ServiceSnapshot::from_rows(svc.dim(), svc.k(), ShardSpec::default(), &table).unwrap();
        let quant = outlier.quantize();
        assert_eq!(quant.quant_rows().expect("quantized").0, &[escape]);
        assert_eq!(bits(&exact(&quant, escape)), bits(&exact(&outlier, escape)));
        assert_ne!(bits(&exact(&quant, plain)), bits(&exact(&outlier, plain)));
        let cached = CachedService::new(quant.clone(), 16);
        assert_every_path_serves(cached, &[escape, plain, 3, escape], |id| exact(&quant, id));
        // Every stored row is the model's condensed service bit for bit.
        for id in [0, 3, 99, 100, 150, 199] {
            assert_eq!(
                bits(&exact(&dense, id)),
                bits(&svc.condensed_service(EntityId(id)))
            );
        }
        // Entity-range shard: covered ids are its rows, the rest are the
        // degraded all-zero row.
        let spec = ShardSpec {
            n_shards: 2,
            shard_id: 1,
            row_start: 100,
        };
        let shard = dense.shard_slice(spec, 100).unwrap();
        let zero = || vec![0.0; row_len];
        let cached = CachedService::new(shard.clone(), 16);
        assert_every_path_serves(cached, &[150, 3, 100, 99, 3, 199], |id| {
            if shard.covers(id) {
                exact(&shard, id)
            } else {
                zero()
            }
        });
        // A value entity (200) serves its stored all-zero row; an id past
        // the table the degraded all-zero row, never cached.
        assert_eq!(bits(&exact(&dense, 200)), bits(&zero()));
        let cached = CachedService::new(dense.clone(), 16);
        cached.condensed_service_batch(&[200, u32::MAX, 5].map(EntityId));
        assert_eq!(cached.stats().degraded, 1);
        assert_every_path_serves(cached, &[200, 5, u32::MAX], |id| {
            if dense.covers(id) {
                exact(&dense, id)
            } else {
                zero()
            }
        });
    }

    #[test]
    fn no_row_is_torn_across_a_flush() {
        // 4 readers × 12 500 batches over a 64-entry cache in front of a
        // 200-row table: shards flush constantly while other threads copy
        // rows out of them.
        let snap = ServiceSnapshot::build(&service_n(200));
        let cached = CachedService::new(snap.clone(), 64);
        let table = snap.dense_table().expect("dense snapshot");
        let row_len = 2 * snap.dim();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (cached, start) = (&cached, &start);
                s.spawn(move || {
                    let (mut state, mut out) = (t + 1, Vec::new());
                    start.wait();
                    for _ in 0..12_500 {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        let items: Vec<EntityId> = (0..8)
                            .map(|j| EntityId(((state >> 8) + j * 37) % 200))
                            .collect();
                        cached.condensed_rows_into(&items, &mut out);
                        for (item, row) in items.iter().zip(out.chunks_exact(row_len)) {
                            let at = item.0 as usize * row_len;
                            assert_eq!(bits(row), bits(&table[at..at + row_len]));
                        }
                    }
                });
            }
        });
        let stats = cached.stats();
        assert_eq!(stats.total_requests(), 4 * 12_500 * 8);
        assert!(stats.hits > 0 && stats.evictions > 0, "{stats:?}");
    }
}
