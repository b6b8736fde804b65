//! Client-side resilience: policy-driven retries that can never
//! double-execute.
//!
//! The core invariant is **provable non-execution**: a failure is
//! retryable only when the daemon demonstrably never executed the request.
//! Three failure shapes qualify:
//!
//! | failure                                   | why it cannot have executed            |
//! |-------------------------------------------|----------------------------------------|
//! | connect refused / reset before connect    | no connection, no request              |
//! | write failed before the full frame left   | the daemon cannot assemble the frame   |
//! | typed `Overloaded` response               | the daemon *attests* it shed the work  |
//!
//! Everything else — a read timeout after a fully-written request, a torn
//! response, a server error — is *possibly executed*: the daemon may have
//! served the lookup even though the response never arrived. Those are
//! never retried, no matter how tempting; `pkgm` lookups are reads today,
//! but the retry layer refuses to rely on that. A typed
//! `DeadlineExceeded` is also final: the caller's budget is spent, so a
//! retry could only arrive later still.
//!
//! Retries back off exponentially with full jitter
//! (`min(max, base·2ᵃᵗᵗᵉᵐᵖᵗ) · U[0.5, 1.0)`, seeded and deterministic per
//! [`RetryPolicy::seed`]) and respect two budgets: a retry-count cap and
//! an optional wall-clock deadline that bounds total time including every
//! backoff sleep. The decision logic lives in the pure [`RetryDecider`]
//! state machine so the property tests exercise exactly the code the
//! [`RetryClient`] runs.

use crate::daemon::{AttemptError, ClientError, DaemonClient, DEFAULT_CLIENT_TIMEOUT};
use crate::protocol::Request;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Retry tuning. The defaults suit an interactive client: up to 4 retries,
/// 5 ms first backoff, capped at 320 ms, no deadline.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Max retries *after* the first attempt (total attempts ≤ 1 + this).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
    /// Optional wall-clock budget across every attempt *and* backoff
    /// sleep; once `elapsed + next_backoff` would cross it, the decider
    /// gives up instead of sleeping into a deadline it cannot meet.
    pub budget: Option<Duration>,
    /// Jitter seed — a fixed seed makes a retry schedule reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(320),
            budget: None,
            seed: 0x9E3779B97F4A7C15,
        }
    }
}

/// What kind of failure an attempt produced, as seen by the retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Could not connect at all — no request existed.
    Connect,
    /// The transport failed before the full request frame was written —
    /// the daemon can never assemble it.
    SentNothing,
    /// The daemon answered `Overloaded` — it attests the request was shed
    /// unexecuted.
    Shed,
    /// The request was fully written and then something failed — the
    /// daemon *may* have executed it. Never retried.
    PossiblyExecuted,
    /// The daemon answered `DeadlineExceeded` — unexecuted, but the
    /// caller's budget is spent; retrying cannot help.
    DeadlineSpent,
    /// A permanent, typed rejection (bad request, server error, protocol
    /// mismatch) a retry would only repeat.
    Permanent,
}

impl FailureKind {
    /// Whether this failure is provably unexecuted *and* worth retrying.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            FailureKind::Connect | FailureKind::SentNothing | FailureKind::Shed
        )
    }

    /// Classify a failed [`DaemonClient::attempt`].
    pub fn classify(err: &AttemptError) -> Self {
        match (&err.error, err.request_sent) {
            (ClientError::Overloaded, _) => FailureKind::Shed,
            (ClientError::DeadlineExceeded(_), _) => FailureKind::DeadlineSpent,
            (ClientError::Io(_), false) | (ClientError::Protocol(_), false) => {
                FailureKind::SentNothing
            }
            (ClientError::Io(_), true) | (ClientError::Protocol(_), true) => {
                FailureKind::PossiblyExecuted
            }
            // WrongShard is permanent *to this daemon*: the id lives on a
            // different shard, so resending here can only repeat the
            // rejection — re-routing is the caller's job.
            (ClientError::BadRequest(_), _)
            | (ClientError::Server(_), _)
            | (ClientError::WrongShard { .. }, _)
            | (ClientError::Unexpected(_), _) => FailureKind::Permanent,
        }
    }
}

/// One verdict from the [`RetryDecider`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Sleep `backoff`, then try again.
    Retry { backoff: Duration },
    /// Stop; the reason names which bound was hit.
    GiveUp(&'static str),
}

/// The pure retry state machine: feed it each failure plus the wall-clock
/// elapsed since the first attempt, get back sleep-and-retry or give-up.
/// Owns no sockets, performs no sleeps — [`RetryClient`] executes its
/// verdicts, and the property tests drive it with synthetic histories.
#[derive(Debug)]
pub struct RetryDecider {
    policy: RetryPolicy,
    rng: SmallRng,
    retries: u32,
    total_backoff: Duration,
}

impl RetryDecider {
    /// A fresh decider for one logical request.
    pub fn new(policy: RetryPolicy) -> Self {
        let rng = SmallRng::seed_from_u64(policy.seed ^ 0x5EED_4E77);
        Self {
            policy,
            rng,
            retries: 0,
            total_backoff: Duration::ZERO,
        }
    }

    /// Retries granted so far.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Total backoff granted so far (the property tests bound this).
    pub fn total_backoff(&self) -> Duration {
        self.total_backoff
    }

    /// Decide what to do about a failure observed `elapsed` after the
    /// first attempt began.
    pub fn decide(&mut self, kind: FailureKind, elapsed: Duration) -> Decision {
        if !kind.retryable() {
            return Decision::GiveUp(match kind {
                FailureKind::PossiblyExecuted => "possibly executed — retry could double-execute",
                FailureKind::DeadlineSpent => "deadline budget already spent",
                _ => "permanent failure",
            });
        }
        if self.retries >= self.policy.max_retries {
            return Decision::GiveUp("retry count exhausted");
        }
        if self.policy.budget.is_some_and(|budget| elapsed >= budget) {
            return Decision::GiveUp("deadline budget exhausted");
        }
        let backoff = self.jittered_backoff();
        if self
            .policy
            .budget
            .is_some_and(|budget| elapsed + backoff >= budget)
        {
            // Sleeping would carry us past the deadline; failing now is
            // strictly better than failing later.
            return Decision::GiveUp("backoff would overrun the deadline budget");
        }
        self.retries += 1;
        self.total_backoff += backoff;
        Decision::Retry { backoff }
    }

    /// `min(max, base·2ᵃᵗᵗᵉᵐᵖᵗ)` scaled by uniform jitter in `[0.5, 1.0)`.
    fn jittered_backoff(&mut self) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << self.retries.min(20))
            .min(self.policy.max_backoff);
        let jitter: f64 = 0.5 + 0.5 * self.rng.gen_range(0.0..1.0);
        Duration::from_secs_f64(exp.as_secs_f64() * jitter)
    }
}

/// Why a [`RetryClient`] call ultimately failed.
#[derive(Debug)]
pub struct RetryError {
    /// The last attempt's error.
    pub last: ClientError,
    /// Why the decider stopped.
    pub reason: &'static str,
    /// Attempts performed (≥ 1).
    pub attempts: u32,
}

impl RetryError {
    /// The typed `WrongShard` redirect payload, when the final failure was
    /// a shard miss. `WrongShard` is (correctly) permanent *to this
    /// daemon* — this accessor is how a router or multi-shard caller gets
    /// the topology needed to re-route, without string-parsing the error.
    pub fn wrong_shard(&self) -> Option<crate::daemon::ShardRedirect> {
        self.last.wrong_shard()
    }
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} attempt(s): {}",
            self.reason, self.attempts, self.last
        )
    }
}

impl std::error::Error for RetryError {}

/// Cumulative counters across a [`RetryClient`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Individual retries performed (sleep-and-resend events).
    pub retries: u64,
    /// Calls that ultimately failed after exhausting their retries.
    pub give_ups: u64,
    /// Calls that failed with a typed deadline exceedance.
    pub deadline_misses: u64,
}

/// A [`DaemonClient`] wrapper that reconnects and retries under a
/// [`RetryPolicy`]. Only provably-unexecuted failures are retried; see the
/// module docs for the matrix.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<DaemonClient>,
    calls: u64,
    stats: RetryStats,
}

impl RetryClient {
    /// A retrying client for the daemon at `addr`. Connects lazily on the
    /// first call, so constructing one cannot fail.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        Self {
            addr: addr.into(),
            policy,
            client: None,
            calls: 0,
            stats: RetryStats::default(),
        }
    }

    /// Cumulative retry counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Condensed service vectors for `items`, retried under the policy.
    pub fn lookup(&mut self, items: &[u32]) -> Result<Vec<Vec<f32>>, RetryError> {
        let call = self.send(Request::Lookup(items.to_vec()), items.len(), None);
        self.finish(call)
    }

    /// Deadline-budgeted lookup: the budget rides in the request frame
    /// (the daemon sheds expired work server-side) *and* bounds the whole
    /// retry schedule client-side.
    pub fn lookup_with_deadline(
        &mut self,
        items: &[u32],
        budget: Duration,
    ) -> Result<Vec<Vec<f32>>, RetryError> {
        let req = Request::LookupDeadline {
            budget_micros: budget.as_micros().min(u64::MAX as u128) as u64,
            items: items.to_vec(),
        };
        let call = self.send(req, items.len(), Some(budget));
        self.finish(call)
    }

    /// The retry policy of this client's next logical request: the
    /// client's policy with a per-call jitter seed, its budget shrunk to
    /// `deadline_budget`.
    pub(crate) fn call_policy(&mut self, deadline_budget: Option<Duration>) -> RetryPolicy {
        self.calls += 1;
        let mut policy = self.policy.clone();
        // Derive a per-call jitter stream so concurrent clients sharing a
        // seed do not retry in lockstep.
        policy.seed = policy.seed.wrapping_add(self.calls.wrapping_mul(0x9E37));
        if let Some(budget) = deadline_budget {
            policy.budget = Some(match policy.budget {
                Some(b) => b.min(budget),
                None => budget,
            });
        }
        policy
    }

    /// Start one logical request: write it as attempt 1 of its retry
    /// schedule and return without reading the reply. [`RetryClient::finish`]
    /// reads it; until then this client's connection carries an unread
    /// reply, so a caller that abandons the call must
    /// [`RetryClient::disconnect`].
    pub(crate) fn send(
        &mut self,
        req: Request,
        n_items: usize,
        deadline_budget: Option<Duration>,
    ) -> Call {
        let policy = self.call_policy(deadline_budget);
        let start = Instant::now();
        let sent = self.send_once(&req, &policy, start);
        Call {
            req,
            n_items,
            decider: RetryDecider::new(policy),
            start,
            attempts: 1,
            sent,
        }
    }

    /// Read the reply to `call`, then classify → decide, sleeping and
    /// re-sending between retries on the schedule [`RetryClient::send`]
    /// started.
    pub(crate) fn finish(&mut self, mut call: Call) -> Result<Vec<Vec<f32>>, RetryError> {
        loop {
            let error = match call.sent.and_then(|()| self.receive_once(call.n_items)) {
                Ok(rows) => return Ok(rows),
                Err(e) => e,
            };
            let kind = match &error {
                AttemptFailure::Connect(_) => FailureKind::Connect,
                AttemptFailure::Request(a) => FailureKind::classify(a),
            };
            match call.decider.decide(kind, call.start.elapsed()) {
                Decision::Retry { backoff } => {
                    self.stats.retries += 1;
                    std::thread::sleep(backoff);
                    call.attempts += 1;
                    call.sent = self.send_once(&call.req, &call.decider.policy, call.start);
                }
                Decision::GiveUp(reason) => {
                    self.stats.give_ups += 1;
                    let last = error.into_client_error();
                    if matches!(last, ClientError::DeadlineExceeded(_)) {
                        self.stats.deadline_misses += 1;
                    }
                    return Err(RetryError {
                        last,
                        reason,
                        attempts: call.attempts,
                    });
                }
            }
        }
    }

    /// Drop the connection, and with it any reply still unread on it, so
    /// the next call reconnects instead of reading a stale frame.
    pub(crate) fn disconnect(&mut self) {
        self.client = None;
    }

    /// The write half of one attempt: (re)connect if needed, bound the
    /// socket timeout by the remaining budget, and send.
    fn send_once(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
        start: Instant,
    ) -> Result<(), AttemptFailure> {
        // Per-attempt socket timeout: the default, shrunk to whatever of
        // the deadline budget remains.
        let timeout = match policy.budget {
            Some(budget) => {
                let remaining = budget.saturating_sub(start.elapsed());
                if remaining.is_zero() {
                    // Out of budget before even connecting.
                    return Err(AttemptFailure::Request(AttemptError {
                        error: ClientError::DeadlineExceeded(
                            crate::protocol::DeadlineStage::AtEnqueue,
                        ),
                        request_sent: false,
                    }));
                }
                DEFAULT_CLIENT_TIMEOUT.min(remaining)
            }
            None => DEFAULT_CLIENT_TIMEOUT,
        };
        if self.client.is_none() {
            match DaemonClient::connect_with_timeout(&self.addr, Some(timeout)) {
                Ok(c) => self.client = Some(c),
                Err(e) => return Err(AttemptFailure::Connect(e)),
            }
        }
        let client = self.client.as_mut().expect("connected above");
        if let Err(e) = client.set_io_timeout(Some(timeout)) {
            self.client = None;
            return Err(AttemptFailure::Connect(e));
        }
        client.send(req).map_err(|e| self.poisoned(e))
    }

    /// The read half of one attempt: the reply, validated to `n_items` rows.
    fn receive_once(&mut self, n_items: usize) -> Result<Vec<Vec<f32>>, AttemptFailure> {
        let client = self
            .client
            .as_mut()
            .expect("a sent request has a connection");
        let unexpected = |why| {
            AttemptFailure::Request(AttemptError {
                error: ClientError::Unexpected(why),
                request_sent: true,
            })
        };
        match client.receive() {
            Ok(crate::protocol::Response::Rows { rows, .. }) if rows.len() == n_items => Ok(rows),
            Ok(crate::protocol::Response::Rows { .. }) => Err(unexpected("row count mismatch")),
            Ok(_) => Err(unexpected("lookup expects rows")),
            Err(e) => Err(self.poisoned(e)),
        }
    }

    /// Transport and protocol failures poison the connection's framing;
    /// drop it so the next attempt reconnects.
    fn poisoned(&mut self, e: AttemptError) -> AttemptFailure {
        if matches!(e.error, ClientError::Io(_) | ClientError::Protocol(_)) {
            self.client = None;
        }
        AttemptFailure::Request(e)
    }
}

/// A logical request [`RetryClient::send`] has written and
/// [`RetryClient::finish`] has yet to read: its retry schedule, and the
/// outcome of its latest write.
pub(crate) struct Call {
    req: Request,
    n_items: usize,
    decider: RetryDecider,
    start: Instant,
    attempts: u32,
    sent: Result<(), AttemptFailure>,
}

/// Where an attempt failed: before a connection existed, or on one.
enum AttemptFailure {
    Connect(ClientError),
    Request(AttemptError),
}

impl AttemptFailure {
    fn into_client_error(self) -> ClientError {
        match self {
            AttemptFailure::Connect(e) => e,
            AttemptFailure::Request(a) => a.error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            budget: None,
            seed: 7,
        }
    }

    #[test]
    fn possibly_executed_failures_are_never_retried() {
        let mut d = RetryDecider::new(quick_policy());
        assert!(matches!(
            d.decide(FailureKind::PossiblyExecuted, Duration::ZERO),
            Decision::GiveUp(_)
        ));
        assert_eq!(d.retries(), 0);
    }

    #[test]
    fn retryable_failures_back_off_then_exhaust() {
        let mut d = RetryDecider::new(quick_policy());
        let mut backoffs = Vec::new();
        loop {
            match d.decide(FailureKind::Shed, Duration::ZERO) {
                Decision::Retry { backoff } => backoffs.push(backoff),
                Decision::GiveUp(reason) => {
                    assert_eq!(reason, "retry count exhausted");
                    break;
                }
            }
        }
        assert_eq!(backoffs.len(), 3);
        for b in &backoffs {
            assert!(*b <= Duration::from_millis(4));
            assert!(*b >= Duration::from_micros(500), "jitter floor is 0.5×");
        }
    }

    #[test]
    fn budget_caps_total_time_including_backoff() {
        let mut policy = quick_policy();
        policy.max_retries = 100;
        policy.budget = Some(Duration::from_millis(10));
        let mut d = RetryDecider::new(policy);
        // Claim 9 ms already elapsed: a ≥1 ms backoff must be refused once
        // it would cross the 10 ms budget; elapsed at the budget always is.
        let verdict = d.decide(FailureKind::Connect, Duration::from_millis(10));
        assert!(matches!(verdict, Decision::GiveUp(_)));
    }

    #[test]
    fn same_seed_same_schedule() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut p = quick_policy();
            p.seed = seed;
            let mut d = RetryDecider::new(p);
            std::iter::from_fn(|| match d.decide(FailureKind::Shed, Duration::ZERO) {
                Decision::Retry { backoff } => Some(backoff),
                Decision::GiveUp(_) => None,
            })
            .collect()
        };
        assert_eq!(schedule(11), schedule(11));
        assert_ne!(
            schedule(11),
            schedule(12),
            "different seeds must jitter apart"
        );
    }

    #[test]
    fn classification_matrix() {
        use std::io;
        let attempt = |error: ClientError, request_sent: bool| AttemptError {
            error,
            request_sent,
        };
        // Provably unexecuted.
        assert_eq!(
            FailureKind::classify(&attempt(ClientError::Overloaded, true)),
            FailureKind::Shed
        );
        assert_eq!(
            FailureKind::classify(&attempt(
                ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "x")),
                false
            )),
            FailureKind::SentNothing
        );
        // Possibly executed.
        assert_eq!(
            FailureKind::classify(&attempt(
                ClientError::Io(io::Error::new(io::ErrorKind::TimedOut, "x")),
                true
            )),
            FailureKind::PossiblyExecuted
        );
        // Final.
        assert_eq!(
            FailureKind::classify(&attempt(
                ClientError::DeadlineExceeded(crate::protocol::DeadlineStage::Queued),
                true
            )),
            FailureKind::DeadlineSpent
        );
        assert_eq!(
            FailureKind::classify(&attempt(ClientError::BadRequest("no".into()), true)),
            FailureKind::Permanent
        );
        assert_eq!(
            FailureKind::classify(&attempt(
                ClientError::WrongShard {
                    id: 42,
                    shard_id: 1,
                    n_shards: 4,
                    row_start: 10,
                    n_rows: 10,
                },
                true
            )),
            FailureKind::Permanent
        );
        // The redirect payload stays reachable through the retry error —
        // typed, not string-parsed.
        let err = RetryError {
            last: ClientError::WrongShard {
                id: 42,
                shard_id: 1,
                n_shards: 4,
                row_start: 10,
                n_rows: 10,
            },
            reason: "permanent failure",
            attempts: 1,
        };
        let redirect = err.wrong_shard().expect("wrong-shard payload");
        assert_eq!(
            (redirect.id, redirect.shard_id, redirect.n_shards),
            (42, 1, 4)
        );
        assert_eq!((redirect.row_start, redirect.n_rows), (10, 10));
        let other = RetryError {
            last: ClientError::Overloaded,
            reason: "retry count exhausted",
            attempts: 2,
        };
        assert!(other.wrong_shard().is_none());
        assert!(!FailureKind::PossiblyExecuted.retryable());
        assert!(!FailureKind::DeadlineSpent.retryable());
        assert!(!FailureKind::Permanent.retryable());
        assert!(FailureKind::Connect.retryable());
        assert!(FailureKind::SentNothing.retryable());
        assert!(FailureKind::Shed.retryable());
    }
}
