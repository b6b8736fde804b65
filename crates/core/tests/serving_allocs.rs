//! The served-row path allocates per request, never per row: a counting
//! global allocator around a `CachedService` over a snapshot behind a
//! one-worker `DynamicBatcher`.
//!
//! One `#[test]` only — the counter is process-wide, so a second test
//! running beside it would be counted too.

use pkgm_core::model::{PkgmConfig, PkgmModel};
use pkgm_core::{CachedService, DynamicBatcher, KnowledgeService, ServiceSnapshot};
use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation (`realloc` and `alloc_zeroed` default to
/// `alloc`) and forwards to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N_ITEMS: u32 = 1024;

fn service() -> KnowledgeService {
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
        PkgmConfig::new(8).with_seed(5),
    );
    KnowledgeService::new(model, sel)
}

/// Allocations per request, measured over warm requests that alternate
/// between two disjoint `batch`-id sets; that every row was a hit (`hit`)
/// or a miss is checked on the cache's own counters.
fn allocations_per_request(snap: &ServiceSnapshot, capacity: usize, batch: u32, hit: bool) -> u64 {
    let cached = Arc::new(CachedService::new(snap.clone(), capacity));
    let batcher = DynamicBatcher::new(16_384, 1024);
    let sets = [0, batch].map(|from| (from..from + batch).collect::<Vec<u32>>());
    let row_len = 2 * snap.dim();
    std::thread::scope(|s| {
        s.spawn(|| batcher.run_worker(|| Arc::clone(&cached)));
        let mut per_request = Vec::new();
        for round in 0..24 {
            let ids = sets[round % 2].clone();
            let stats = cached.stats();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let rows = batcher.submit(ids).unwrap().wait().unwrap();
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            let served = cached.stats().since(&stats);
            assert_eq!(rows.len(), batch as usize * row_len);
            drop(rows);
            // The first rounds fill the cache and grow its storage.
            if round >= 4 {
                let want = if hit { served.hits } else { served.misses };
                assert_eq!(want, u64::from(batch), "round {round}: {served:?}");
                per_request.push(after - before);
            }
        }
        batcher.stop();
        let first = per_request[0];
        assert!(
            per_request.iter().all(|&n| n == first),
            "allocations vary between warm requests: {per_request:?}"
        );
        first
    })
}

#[test]
fn lookups_allocate_per_request_not_per_row() {
    let snap = ServiceSnapshot::build(&service());

    // A cache that holds both id sets serves hits; a 16-entry cache has
    // flushed every id of one set by the time the other has gone through.
    let counts = [
        allocations_per_request(&snap, 4096, 32, true),
        allocations_per_request(&snap, 4096, 256, true),
        allocations_per_request(&snap, 16, 32, false),
        allocations_per_request(&snap, 16, 256, false),
    ];
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "allocations per request depend on batch size or hit/miss: {counts:?}"
    );
    assert!(counts[0] <= 8, "{} allocations per request", counts[0]);
}
