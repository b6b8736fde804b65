//! Dynamic request batching with admission control.
//!
//! The daemon's connection handlers are thread-per-connection, but the
//! serving layer is most efficient when lookups arrive in batches
//! ([`CachedService::condensed_rows_into`] fills one buffer per call). The
//! [`DynamicBatcher`] bridges the two: handlers [`DynamicBatcher::submit`]
//! their item lists into a bounded queue and block on a per-request
//! completion slot; a small pool
//! of batch workers drains the queue, **coalescing whatever is pending** —
//! across connections — into one `condensed_rows_into` call.
//!
//! A coalesced batch's rows are **one flat `Vec<f32>`**; each request gets
//! a [`BatchRows`] view — the shared buffer plus its own range — so fanning
//! the rows back out allocates nothing per row and a handler encodes its
//! response straight from the batch buffer. The buffer is freed when the
//! last request of the batch drops its view.
//!
//! Admission control is shed-not-stall: when the queue already holds
//! `queue_capacity` items, `submit` fails immediately with
//! [`SubmitError::Overloaded`] and the daemon answers with the typed
//! `Overloaded` status. A full queue never blocks the socket threads, so
//! an overloaded daemon stays responsive to pings, stats, and reloads.
//!
//! Requests may carry a **deadline** ([`DynamicBatcher::submit_with_deadline`]).
//! Expired work is shed at three points, each counted separately in
//! [`BatchStats`]: dead on arrival at submit (`AtEnqueue`), skipped when a
//! worker dequeues it (`Queued`), and discarded when the batch call
//! finishes past the deadline (`Executing`) — the rows exist but the
//! caller's budget is spent, so delivering them would only masquerade as a
//! success the client never saw. [`Ticket::wait`] also self-releases at
//! the deadline, so a wedged worker can never pin a handler thread past
//! the caller's budget.

use crate::protocol::DeadlineStage;
use crate::serving::CachedService;
use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Recover the guard from a poisoned std lock: batcher state is a queue of
/// plain data, valid at every instruction boundary.
fn lock_recover<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write a final state into a slot and wake its waiter.
fn deliver(slot: &Slot, state: SlotState) {
    *lock_recover(&slot.state) = state;
    slot.done.notify_one();
}

/// Consume one pending chaos injection (saturating at zero).
fn chaos_take_one(counter: &AtomicU64) -> bool {
    counter
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Fails every still-held request if dropped mid-execution (i.e. the
/// service call panicked); the normal path takes the batch back out first.
struct DeliveryGuard {
    batch: Vec<Pending>,
}

impl Drop for DeliveryGuard {
    fn drop(&mut self) {
        for p in self.batch.drain(..) {
            deliver(&p.slot, SlotState::Failed("batch worker panicked".into()));
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the request was shed without side effects.
    Overloaded,
    /// The batcher has been stopped (daemon shutting down).
    Stopped,
    /// The request's deadline had already passed at submit time — dead on
    /// arrival, shed without side effects.
    DeadlineExceeded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "queue full — request shed"),
            SubmitError::Stopped => write!(f, "batcher stopped"),
            SubmitError::DeadlineExceeded => write!(f, "deadline already expired at enqueue"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a [`Ticket::wait`] did not return rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The request's deadline expired at this pipeline stage.
    DeadlineExceeded(DeadlineStage),
    /// The batch worker failed the request (shutdown, panic).
    Failed(String),
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::DeadlineExceeded(stage) => {
                write!(f, "deadline exceeded ({})", stage.name())
            }
            WaitError::Failed(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for WaitError {}

/// One request's condensed rows: its range of the flat row-major buffer
/// its coalesced batch filled. Dereferences to the request's floats —
/// `rows.chunks_exact(2 * dim)` yields its rows in submission order.
#[derive(Debug, Default)]
pub struct BatchRows {
    flat: Arc<Vec<f32>>,
    range: Range<usize>,
}

impl Deref for BatchRows {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.flat[self.range.clone()]
    }
}

/// Completion state of one submitted request.
enum SlotState {
    Pending,
    Done(BatchRows),
    Failed(String),
    /// The deadline expired at this stage; the rows (if any were computed)
    /// were discarded.
    Expired(DeadlineStage),
}

/// One submitted request's rendezvous point.
struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
}

/// Blocking handle for a submitted request.
pub struct Ticket {
    slot: Arc<Slot>,
    /// Mirrors the queued request's deadline so the waiter can self-release
    /// even if every worker is wedged.
    deadline: Option<Instant>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Block until a batch worker completes this request. Returns the
    /// condensed rows in submission order (a view into the batch's shared
    /// buffer), or a typed [`WaitError`].
    ///
    /// A ticket with a deadline never blocks past it: if no worker has
    /// delivered by then — every worker wedged or dead — the wait returns
    /// `DeadlineExceeded(Queued)` and the eventual delivery (if any) goes
    /// to an abandoned slot.
    pub fn wait(self) -> Result<BatchRows, WaitError> {
        let mut state = lock_recover(&self.slot.state);
        loop {
            match std::mem::replace(&mut *state, SlotState::Pending) {
                SlotState::Done(rows) => return Ok(rows),
                SlotState::Failed(why) => return Err(WaitError::Failed(why)),
                SlotState::Expired(stage) => return Err(WaitError::DeadlineExceeded(stage)),
                SlotState::Pending => match self.deadline {
                    None => {
                        state = self
                            .slot
                            .done
                            .wait(state)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(WaitError::DeadlineExceeded(DeadlineStage::Queued));
                        }
                        let (guard, _timeout) = self
                            .slot
                            .done
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        state = guard;
                    }
                },
            }
        }
    }
}

/// A queued request: the items to look up, where to deliver the rows, and
/// how long the caller will still care.
struct Pending {
    items: Vec<u32>,
    slot: Arc<Slot>,
    deadline: Option<Instant>,
}

impl Pending {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Queue state under the batcher's mutex.
struct Queue {
    pending: VecDeque<Pending>,
    /// Total items across `pending` — the admission-control quantity.
    queued_items: usize,
    stopped: bool,
}

/// Batch-execution statistics (relaxed counters; see
/// [`CachedService::stats`] for the consistency discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches executed.
    pub batches: u64,
    /// Requests admitted and completed.
    pub requests: u64,
    /// Items served across all batches.
    pub items: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Largest single batch (items) executed so far.
    pub max_batch_items: u64,
    /// Requests whose deadline had already passed at submit.
    pub expired_enqueue: u64,
    /// Requests whose deadline passed while waiting in the queue.
    pub expired_queued: u64,
    /// Requests whose deadline passed during batch execution (rows were
    /// computed but discarded as dead on arrival).
    pub expired_executing: u64,
}

impl BatchStats {
    /// Mean items per executed batch — the coalescing factor.
    pub fn mean_batch_items(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.items as f64 / self.batches as f64
        }
    }
}

/// The shared batching queue. Workers are driven externally (the daemon
/// owns the threads) via [`DynamicBatcher::run_worker`].
pub struct DynamicBatcher {
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Admission cap: max items queued (not yet picked up by a worker).
    queue_capacity: usize,
    /// Max items a worker coalesces into one service call.
    max_batch_items: usize,
    batches: AtomicU64,
    requests: AtomicU64,
    items: AtomicU64,
    shed: AtomicU64,
    max_batch: AtomicU64,
    expired_enqueue: AtomicU64,
    expired_queued: AtomicU64,
    expired_executing: AtomicU64,
    /// Chaos hook: pending worker panics to inject (each next batch pickup
    /// consumes one and panics *before* dequeuing, so no request is lost).
    inject_panics: AtomicU64,
    /// Chaos hook: microseconds the next batch pickups stall before
    /// executing (consumed one pickup at a time).
    inject_wedge_micros: AtomicU64,
}

impl DynamicBatcher {
    /// A batcher admitting up to `queue_capacity` queued items and
    /// coalescing up to `max_batch_items` per service call.
    ///
    /// # Panics
    /// If either bound is zero.
    pub fn new(queue_capacity: usize, max_batch_items: usize) -> Self {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        assert!(max_batch_items > 0, "max batch must be positive");
        Self {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                queued_items: 0,
                stopped: false,
            }),
            ready: Condvar::new(),
            queue_capacity,
            max_batch_items,
            batches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            items: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            expired_enqueue: AtomicU64::new(0),
            expired_queued: AtomicU64::new(0),
            expired_executing: AtomicU64::new(0),
            inject_panics: AtomicU64::new(0),
            inject_wedge_micros: AtomicU64::new(0),
        }
    }

    /// Admit a lookup, or shed it. An admitted request is guaranteed a
    /// completion (rows or a typed failure) as long as a worker runs — and
    /// a deadline-carrying request is guaranteed one even if no worker
    /// ever does.
    ///
    /// An empty item list completes immediately without queuing.
    pub fn submit(&self, items: Vec<u32>) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(items, None)
    }

    /// [`DynamicBatcher::submit`] with an optional deadline: once `deadline`
    /// passes, every pipeline stage sheds the request with a typed
    /// [`DeadlineStage`] instead of serving dead-on-arrival rows. A request
    /// whose deadline has already passed is rejected here with
    /// [`SubmitError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &self,
        items: Vec<u32>,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.expired_enqueue.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::DeadlineExceeded);
        }
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Pending),
            done: Condvar::new(),
        });
        if items.is_empty() {
            *lock_recover(&slot.state) = SlotState::Done(BatchRows::default());
            return Ok(Ticket {
                slot,
                deadline: None,
            });
        }
        {
            let mut q = lock_recover(&self.queue);
            if q.stopped {
                return Err(SubmitError::Stopped);
            }
            // A single request larger than the whole queue is still
            // admitted when the queue is empty — otherwise it could never
            // be served at all.
            if q.queued_items + items.len() > self.queue_capacity && q.queued_items > 0 {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded);
            }
            q.queued_items += items.len();
            q.pending.push_back(Pending {
                items,
                slot: Arc::clone(&slot),
                deadline,
            });
        }
        self.ready.notify_one();
        Ok(Ticket { slot, deadline })
    }

    /// Worker loop: coalesce pending requests and serve them against the
    /// service returned by `service` — re-read **per batch**, so a hot
    /// swap takes effect at the next batch boundary and every batch runs
    /// against one consistent snapshot. Returns when [`DynamicBatcher::stop`]
    /// is called.
    pub fn run_worker(&self, service: impl Fn() -> Arc<CachedService>) {
        loop {
            let batch = {
                let mut q = lock_recover(&self.queue);
                loop {
                    if !q.pending.is_empty() {
                        break;
                    }
                    if q.stopped {
                        return;
                    }
                    q = self
                        .ready
                        .wait(q)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                // Chaos hook: panic *before* dequeuing, so the queued work
                // survives for whoever the watchdog respawns.
                if chaos_take_one(&self.inject_panics) {
                    drop(q);
                    panic!("injected batch-worker panic (chaos hook)");
                }
                let now = Instant::now();
                let mut batch: Vec<Pending> = Vec::new();
                let mut taken = 0usize;
                while let Some(front) = q.pending.front() {
                    // Shed work that expired while queued without letting
                    // it count against the batch cap.
                    if front.expired(now) {
                        let p = q.pending.pop_front().expect("front exists");
                        q.queued_items -= p.items.len();
                        self.expired_queued.fetch_add(1, Ordering::Relaxed);
                        deliver(&p.slot, SlotState::Expired(DeadlineStage::Queued));
                        continue;
                    }
                    // Always take at least one request; stop once the next
                    // would push the batch past the cap.
                    if !batch.is_empty() && taken + front.items.len() > self.max_batch_items {
                        break;
                    }
                    let p = q.pending.pop_front().expect("front exists");
                    taken += p.items.len();
                    batch.push(p);
                }
                q.queued_items -= taken;
                batch
            };
            // More work may remain; hand it to a sibling worker.
            self.ready.notify_one();
            // Chaos hook: stall before executing — from the outside this
            // is a wedged worker (queue backs up, no batch progress).
            let wedge = self.inject_wedge_micros.swap(0, Ordering::Relaxed);
            if wedge > 0 {
                std::thread::sleep(Duration::from_micros(wedge));
            }
            if batch.is_empty() {
                continue;
            }
            self.execute(batch, &service);
        }
    }

    /// Serve one coalesced batch and deliver per-request results. If the
    /// service re-read or the batch call panics, the delivery guard fails
    /// every slot in the batch before the panic unwinds the worker — a
    /// dying worker never strands a waiting handler.
    fn execute(&self, batch: Vec<Pending>, service: &impl Fn() -> Arc<CachedService>) {
        let mut guard = DeliveryGuard { batch };
        let ids: Vec<pkgm_store::EntityId> = guard
            .batch
            .iter()
            .flat_map(|p| p.items.iter().copied().map(pkgm_store::EntityId))
            .collect();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests
            .fetch_add(guard.batch.len() as u64, Ordering::Relaxed);
        self.items.fetch_add(ids.len() as u64, Ordering::Relaxed);
        self.max_batch
            .fetch_max(ids.len() as u64, Ordering::Relaxed);
        let mut flat = Vec::new();
        service().condensed_rows_into(&ids, &mut flat);
        // Queued requests are never empty, so neither is `ids`.
        let (row_len, flat) = (flat.len() / ids.len(), Arc::new(flat));
        let batch = std::mem::take(&mut guard.batch);
        drop(guard);
        let done = Instant::now();
        let mut start = 0;
        for p in batch {
            let range = start..start + p.items.len() * row_len;
            start = range.end;
            let state = if p.expired(done) {
                // The rows exist, but the caller's budget ran out while we
                // computed them: deliver the expiry, not a dead-on-arrival
                // success.
                self.expired_executing.fetch_add(1, Ordering::Relaxed);
                SlotState::Expired(DeadlineStage::Executing)
            } else {
                let flat = Arc::clone(&flat);
                SlotState::Done(BatchRows { flat, range })
            };
            deliver(&p.slot, state);
        }
    }

    /// Stop the batcher: wake all workers, fail any still-queued requests
    /// so no handler waits forever, and refuse new submissions.
    pub fn stop(&self) {
        let drained: Vec<Pending> = {
            let mut q = lock_recover(&self.queue);
            q.stopped = true;
            q.queued_items = 0;
            q.pending.drain(..).collect()
        };
        self.ready.notify_all();
        for p in drained {
            deliver(&p.slot, SlotState::Failed("daemon shutting down".into()));
        }
    }

    /// Whether [`DynamicBatcher::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        lock_recover(&self.queue).stopped
    }

    /// Items currently queued and not yet picked up by a worker — the
    /// watchdog's stall signal.
    pub fn queued_items(&self) -> usize {
        lock_recover(&self.queue).queued_items
    }

    /// Chaos hook: make the next batch pickup panic (before dequeuing, so
    /// no queued request is lost). Used by the netcheck battery to prove
    /// the watchdog restarts a dead worker.
    pub fn inject_worker_panic(&self) {
        self.inject_panics.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
    }

    /// Chaos hook: stall the next batch pickup for `wedge` before it
    /// executes — an externally-observable wedged worker.
    pub fn inject_worker_wedge(&self, wedge: Duration) {
        self.inject_wedge_micros.store(
            wedge.as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Batch-execution counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            max_batch_items: self.max_batch.load(Ordering::Relaxed),
            expired_enqueue: self.expired_enqueue.load(Ordering::Relaxed),
            expired_queued: self.expired_queued.load(Ordering::Relaxed),
            expired_executing: self.expired_executing.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PkgmConfig, PkgmModel};
    use crate::service::KnowledgeService;
    use crate::snapshot::ServiceSnapshot;
    use pkgm_store::{EntityId, KeyRelationSelector, StoreBuilder};

    fn cached() -> Arc<CachedService> {
        let mut b = StoreBuilder::new();
        for i in 0..8u32 {
            b.add_raw(i, 0, 8 + i % 2);
            b.add_raw(i, 1, 10);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..8).map(|i| (EntityId(i), 0)).collect();
        let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(1),
        );
        let snapshot = ServiceSnapshot::build(&KnowledgeService::new(model, sel));
        Arc::new(CachedService::new(snapshot, 64))
    }

    /// Run `f` with one live worker thread serving `svc`.
    fn with_worker<R>(
        batcher: &Arc<DynamicBatcher>,
        svc: &Arc<CachedService>,
        f: impl FnOnce() -> R,
    ) -> R {
        let worker = {
            let batcher = Arc::clone(batcher);
            let svc = Arc::clone(svc);
            std::thread::spawn(move || batcher.run_worker(move || Arc::clone(&svc)))
        };
        let out = f();
        batcher.stop();
        worker.join().expect("worker exits cleanly");
        out
    }

    #[test]
    fn submitted_requests_get_correct_rows() {
        let svc = cached();
        let batcher = Arc::new(DynamicBatcher::new(1024, 64));
        with_worker(&batcher, &svc, || {
            let rows = batcher.submit(vec![0, 3, 7]).unwrap().wait().unwrap();
            let row_len = 2 * svc.snapshot().dim();
            assert_eq!(rows.len(), 3 * row_len);
            for (row, id) in rows.chunks_exact(row_len).zip([0u32, 3, 7]) {
                assert_eq!(row, &svc.condensed_service(EntityId(id))[..]);
            }
        });
    }

    #[test]
    fn empty_lookup_completes_without_a_worker() {
        let batcher = DynamicBatcher::new(4, 4);
        let rows = batcher.submit(vec![]).unwrap().wait().unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        // No worker draining: the queue fills and must shed, not stall.
        let batcher = DynamicBatcher::new(4, 4);
        let _held = batcher.submit(vec![1, 2, 3, 4]).unwrap();
        let err = batcher.submit(vec![5]).unwrap_err();
        assert_eq!(err, SubmitError::Overloaded);
        assert_eq!(batcher.stats().shed, 1);
        // An oversized request is still admitted when the queue is empty.
        let big = DynamicBatcher::new(2, 2);
        assert!(big.submit(vec![1, 2, 3, 4, 5]).is_ok());
    }

    #[test]
    fn stop_fails_queued_requests_and_refuses_new_ones() {
        let batcher = DynamicBatcher::new(16, 16);
        let t = batcher.submit(vec![1]).unwrap();
        batcher.stop();
        assert!(t.wait().is_err());
        assert_eq!(batcher.submit(vec![2]).unwrap_err(), SubmitError::Stopped);
    }

    #[test]
    fn concurrent_submissions_coalesce_and_all_complete() {
        let svc = cached();
        let batcher = Arc::new(DynamicBatcher::new(4096, 32));
        with_worker(&batcher, &svc, || {
            std::thread::scope(|s| {
                for t in 0..8u32 {
                    let batcher = Arc::clone(&batcher);
                    let svc = Arc::clone(&svc);
                    s.spawn(move || {
                        for round in 0..50u32 {
                            let ids = vec![(t + round) % 8, (t + round + 1) % 8];
                            let rows = batcher.submit(ids.clone()).unwrap().wait().unwrap();
                            let row_len = 2 * svc.snapshot().dim();
                            assert_eq!(rows.len(), ids.len() * row_len);
                            for (row, &id) in rows.chunks_exact(row_len).zip(&ids) {
                                assert_eq!(row, &svc.condensed_service(EntityId(id))[..]);
                            }
                        }
                    });
                }
            });
        });
        let stats = batcher.stats();
        assert_eq!(stats.requests, 8 * 50);
        assert_eq!(stats.items, 8 * 50 * 2);
        assert!(stats.batches <= stats.requests);
        assert!(stats.max_batch_items >= 2);
    }

    #[test]
    #[should_panic(expected = "queue capacity must be positive")]
    fn zero_capacity_rejected() {
        DynamicBatcher::new(0, 1);
    }

    #[test]
    fn already_expired_deadline_is_shed_at_enqueue() {
        let batcher = DynamicBatcher::new(16, 16);
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(
            batcher
                .submit_with_deadline(vec![1, 2], Some(past))
                .unwrap_err(),
            SubmitError::DeadlineExceeded
        );
        let stats = batcher.stats();
        assert_eq!(stats.expired_enqueue, 1);
        assert_eq!(stats.expired_queued, 0);
        assert_eq!(stats.expired_executing, 0);
        // Nothing was queued.
        assert_eq!(batcher.queued_items(), 0);
    }

    #[test]
    fn deadline_expiring_while_queued_is_skipped_at_dequeue() {
        let svc = cached();
        let batcher = Arc::new(DynamicBatcher::new(1024, 64));
        // No worker yet: the request sits in the queue past its deadline.
        let t = batcher
            .submit_with_deadline(vec![1], Some(Instant::now() + Duration::from_millis(10)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        with_worker(&batcher, &svc, || {
            // A fresh request forces the worker through the queue; the
            // expired one in front of it must be skipped, not served.
            let rows = batcher.submit(vec![2]).unwrap().wait().unwrap();
            assert_eq!(rows.len(), 2 * svc.snapshot().dim());
        });
        assert_eq!(
            t.wait().unwrap_err(),
            WaitError::DeadlineExceeded(DeadlineStage::Queued)
        );
        let stats = batcher.stats();
        assert_eq!(stats.expired_queued, 1);
        assert_eq!(stats.expired_executing, 0);
        // The expired request never reached a batch.
        assert_eq!(stats.requests, 1);
        assert_eq!(batcher.queued_items(), 0);
    }

    #[test]
    fn deadline_expiring_during_execution_discards_the_rows() {
        let svc = cached();
        let batcher = Arc::new(DynamicBatcher::new(1024, 64));
        // The wedge stalls the pickup after the dequeue-time expiry check,
        // so the deadline passes while the batch is "executing".
        batcher.inject_worker_wedge(Duration::from_millis(400));
        with_worker(&batcher, &svc, || {
            let t = batcher
                .submit_with_deadline(vec![3], Some(Instant::now() + Duration::from_millis(150)))
                .unwrap();
            // The waiter self-releases at its deadline (stage Queued from
            // its view — no worker had delivered yet).
            assert!(matches!(t.wait(), Err(WaitError::DeadlineExceeded(_))));
            // The worker's own accounting must land on Executing.
            let deadline = Instant::now() + Duration::from_secs(5);
            while batcher.stats().expired_executing == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(batcher.stats().expired_executing, 1);
        });
        assert_eq!(batcher.stats().expired_queued, 0);
    }

    #[test]
    fn waiter_self_releases_at_deadline_when_no_worker_runs() {
        let batcher = DynamicBatcher::new(16, 16);
        let start = Instant::now();
        let t = batcher
            .submit_with_deadline(vec![1], Some(start + Duration::from_millis(40)))
            .unwrap();
        assert_eq!(
            t.wait().unwrap_err(),
            WaitError::DeadlineExceeded(DeadlineStage::Queued)
        );
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(40), "released early");
        assert!(waited < Duration::from_secs(5), "blocked far past deadline");
    }

    #[test]
    fn panicking_service_call_fails_the_batch_instead_of_stranding_it() {
        let batcher = Arc::new(DynamicBatcher::new(64, 64));
        let t = batcher.submit(vec![1, 2]).unwrap();
        let worker = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                batcher.run_worker(|| -> Arc<CachedService> { panic!("service blew up mid-batch") })
            })
        };
        match t.wait() {
            Err(WaitError::Failed(why)) => assert!(why.contains("panicked"), "{why}"),
            other => panic!("expected panic failure, got {other:?}"),
        }
        assert!(worker.join().is_err(), "worker thread must have panicked");
    }

    #[test]
    fn injected_panic_hook_preserves_queued_work() {
        let svc = cached();
        let batcher = Arc::new(DynamicBatcher::new(64, 64));
        let t = batcher.submit(vec![4]).unwrap();
        batcher.inject_worker_panic();
        // First worker consumes the injection and dies without dequeuing.
        let doomed = {
            let batcher = Arc::clone(&batcher);
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || batcher.run_worker(move || Arc::clone(&svc)))
        };
        assert!(
            doomed.join().is_err(),
            "injected panic must kill the worker"
        );
        // A replacement worker serves the still-queued request.
        with_worker(&batcher, &svc, || {
            let rows = t.wait().unwrap();
            assert_eq!(&rows[..], &svc.condensed_service(EntityId(4))[..]);
        });
    }
}
