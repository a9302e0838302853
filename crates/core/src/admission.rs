//! Admission control for fleet-scale checkpoint serving: QoS classes,
//! token-bucket rate limiting, bounded queues, typed rejection.
//!
//! A serving fleet multiplexes hundreds of checkpoint/restore streams onto a
//! handful of pooled expander cards. Without a front door, Background scrub
//! traffic queues in front of checkpoints and the tail latency of the thing
//! that matters — committing a compute node's state before its next failure —
//! explodes. The [`AdmissionController`] is that front door:
//!
//! * every request belongs to a [`QosClass`] (`Checkpoint` > `Restore` >
//!   `Background`);
//! * each class owns an independent **token bucket** ([`ClassConfig`]): a
//!   sustained byte rate plus a burst allowance. A request that fits the
//!   available tokens is admitted immediately; one that does not is queued —
//!   up to the class's bounded queue depth — or **rejected with a typed
//!   error** ([`AdmissionError`], surfaced as
//!   [`ClusterError::Admission`](crate::ClusterError::Admission));
//! * [`AdmissionController::poll`] drains the queues **priority-first,
//!   FIFO within a class**, granting whatever the refilled buckets cover.
//!
//! # Starvation freedom
//!
//! Priority ordering alone would let a checkpoint storm starve Background
//! forever. The buckets prevent that *structurally*: a class's tokens refill
//! at its own configured rate and are spent only by its own admissions, so a
//! Background stream with a nonzero rate always makes progress — overload in
//! a higher class consumes the higher class's budget, not Background's. The
//! high-priority class is protected in the other direction by the same
//! mechanism: Background cannot spend Checkpoint's tokens, so checkpoint
//! admission latency is bounded by its own queue, not by the scrub backlog.
//! `tests::background_is_not_starved_by_checkpoint_overload` pins this.
//!
//! # Time
//!
//! The controller is driven by **caller-supplied virtual time** (seconds as
//! `f64`): `submit(class, bytes, now)` and `poll(now)`. The fleet scenario
//! advances time tick-by-tick deterministically; nothing inside reads a
//! clock, so every test and benchmark is exactly reproducible.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Quality-of-service class of a fleet request, in descending priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QosClass {
    /// A compute node committing its state — the fleet's reason to exist;
    /// highest priority.
    Checkpoint,
    /// A (spare) node restoring after a failure; latency-sensitive but not
    /// on the failure-window critical path.
    Restore,
    /// Scrubbing, re-tiering, prefetch — pure best-effort.
    Background,
}

impl QosClass {
    /// All classes, highest priority first (the drain order of
    /// [`AdmissionController::poll`]).
    pub const ALL: [QosClass; 3] = [
        QosClass::Checkpoint,
        QosClass::Restore,
        QosClass::Background,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            QosClass::Checkpoint => "Checkpoint",
            QosClass::Restore => "Restore",
            QosClass::Background => "Background",
        }
    }

    /// Dense index (priority order).
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class token-bucket and queue configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassConfig {
    /// Sustained admission rate (bytes per second of virtual time). Zero
    /// means the class is administratively closed: every submit is rejected
    /// with [`AdmissionError::ClassClosed`].
    pub rate_bytes_per_sec: f64,
    /// Burst allowance: the bucket's capacity (bytes). Also the largest
    /// admissible single request — anything bigger can never fit and is
    /// rejected up front with [`AdmissionError::RequestTooLarge`].
    pub burst_bytes: u64,
    /// Bounded queue depth for requests that arrive while the bucket is dry.
    /// A full queue rejects with [`AdmissionError::QueueFull`].
    pub queue_depth: usize,
}

impl ClassConfig {
    /// A closed class: zero rate, zero burst, zero queue.
    pub fn closed() -> Self {
        ClassConfig {
            rate_bytes_per_sec: 0.0,
            burst_bytes: 0,
            queue_depth: 0,
        }
    }
}

/// Typed admission failures (surfaced to cluster callers as
/// [`ClusterError::Admission`](crate::ClusterError::Admission)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The class is configured with zero capacity; nothing is ever admitted.
    ClassClosed {
        /// The closed class.
        class: QosClass,
    },
    /// The request exceeds the class's burst allowance and can never fit.
    RequestTooLarge {
        /// The offending class.
        class: QosClass,
        /// Requested bytes.
        requested: u64,
        /// The class's burst capacity.
        burst: u64,
    },
    /// The bucket is dry and the class's bounded queue is full — the typed
    /// "server is overloaded, back off" signal.
    QueueFull {
        /// The overloaded class.
        class: QosClass,
        /// The configured queue depth that is exhausted.
        depth: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::ClassClosed { class } => {
                write!(f, "admission: class {class} is closed (zero capacity)")
            }
            AdmissionError::RequestTooLarge {
                class,
                requested,
                burst,
            } => write!(
                f,
                "admission: {requested} B request exceeds class {class}'s burst of {burst} B"
            ),
            AdmissionError::QueueFull { class, depth } => write!(
                f,
                "admission: class {class} overloaded (queue of {depth} full); back off"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Proof of admission: the request may go to service. Carries the identity
/// the controller minted so "admitted exactly once" is checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Permit {
    /// Unique (per controller) grant id.
    pub grant: u64,
    /// The admitted class.
    pub class: QosClass,
    /// Admitted payload size (bytes).
    pub bytes: u64,
}

/// A queued request's claim ticket; its permit arrives from a later
/// [`poll`](AdmissionController::poll).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    /// Unique (per controller) grant id — the eventual [`Permit`] carries the
    /// same id.
    pub grant: u64,
    /// The queued class.
    pub class: QosClass,
}

/// Outcome of a successful [`submit`](AdmissionController::submit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Tokens were available: the request is admitted right now.
    Admitted(Permit),
    /// The bucket was dry: the request waits in its class's bounded queue.
    Queued(Ticket),
}

/// One class's bucket + queue.
#[derive(Debug)]
struct ClassState {
    config: ClassConfig,
    /// Current token level (bytes). Refilled lazily from `last_refill`.
    tokens: f64,
    last_refill: f64,
    /// FIFO of (grant id, bytes) waiting for tokens.
    queue: VecDeque<(u64, u64)>,
}

impl ClassState {
    fn refill(&mut self, now: f64) {
        if now > self.last_refill {
            self.tokens = (self.tokens + (now - self.last_refill) * self.config.rate_bytes_per_sec)
                .min(self.config.burst_bytes as f64);
        }
        self.last_refill = self.last_refill.max(now);
    }
}

/// The fleet's front door: per-class token buckets with bounded queues and
/// priority-then-FIFO granting. Internally synchronised — submit/poll freely
/// from many host threads. See the [module docs](self).
#[derive(Debug)]
pub struct AdmissionController {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    classes: [ClassState; 3],
    next_grant: u64,
}

impl AdmissionController {
    /// Creates a controller with one [`ClassConfig`] per [`QosClass`], in
    /// [`QosClass::ALL`] order. Virtual time starts at 0 with full buckets.
    pub fn new(configs: [ClassConfig; 3]) -> Self {
        AdmissionController {
            inner: Mutex::new(Inner {
                classes: configs.map(|config| ClassState {
                    tokens: config.burst_bytes as f64,
                    last_refill: 0.0,
                    queue: VecDeque::new(),
                    config,
                }),
                next_grant: 1,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configuration of a class.
    pub fn config(&self, class: QosClass) -> ClassConfig {
        self.lock().classes[class.index()].config
    }

    /// Submits a request of `bytes` in `class` at virtual time `now`
    /// (seconds, monotone per caller). Immediate admission if the bucket
    /// covers it; otherwise queued up to the class's depth; otherwise a typed
    /// rejection.
    pub fn submit(
        &self,
        class: QosClass,
        bytes: u64,
        now: f64,
    ) -> Result<Decision, AdmissionError> {
        self.lock().submit(class, bytes, now)
    }

    /// Advances virtual time to `now`, refills every bucket, and grants
    /// queued requests — classes drained highest-priority-first, FIFO within
    /// a class, each grant spending its own class's tokens. Returns the
    /// permits granted by this poll (each queued grant id is returned at most
    /// once across the controller's lifetime).
    pub fn poll(&self, now: f64) -> Vec<Permit> {
        self.lock().poll(now)
    }

    /// [`submit`](Self::submit), then — unless the submit was refused —
    /// [`poll`](Self::poll) at the same `now`, under one lock: the two calls
    /// a served op makes, taking the lock every host's ops share once. The
    /// result is what the two calls would return one after the other.
    pub fn submit_and_poll(
        &self,
        class: QosClass,
        bytes: u64,
        now: f64,
    ) -> Result<(Decision, Vec<Permit>), AdmissionError> {
        let mut inner = self.lock();
        let decision = inner.submit(class, bytes, now)?;
        Ok((decision, inner.poll(now)))
    }

    /// Number of requests currently queued in `class`.
    pub fn queued(&self, class: QosClass) -> usize {
        self.lock().classes[class.index()].queue.len()
    }
}

impl Inner {
    /// The body of [`AdmissionController::submit`].
    fn submit(
        &mut self,
        class: QosClass,
        bytes: u64,
        now: f64,
    ) -> Result<Decision, AdmissionError> {
        let grant = self.next_grant;
        let state = &mut self.classes[class.index()];
        if state.config.rate_bytes_per_sec <= 0.0 {
            return Err(AdmissionError::ClassClosed { class });
        }
        if bytes > state.config.burst_bytes {
            return Err(AdmissionError::RequestTooLarge {
                class,
                requested: bytes,
                burst: state.config.burst_bytes,
            });
        }
        state.refill(now);
        // Admit directly only when nothing is already waiting — otherwise a
        // late-arriving small request would overtake queued work (unfair, and
        // it would let a stream of small requests starve a big queued one).
        if state.queue.is_empty() && state.tokens >= bytes as f64 {
            state.tokens -= bytes as f64;
            self.next_grant += 1;
            return Ok(Decision::Admitted(Permit {
                grant,
                class,
                bytes,
            }));
        }
        if state.queue.len() >= state.config.queue_depth {
            return Err(AdmissionError::QueueFull {
                class,
                depth: state.config.queue_depth,
            });
        }
        state.queue.push_back((grant, bytes));
        self.next_grant += 1;
        Ok(Decision::Queued(Ticket { grant, class }))
    }

    /// The body of [`AdmissionController::poll`].
    fn poll(&mut self, now: f64) -> Vec<Permit> {
        let mut granted = Vec::new();
        for class in QosClass::ALL {
            let state = &mut self.classes[class.index()];
            state.refill(now);
            while let Some(&(grant, bytes)) = state.queue.front() {
                if state.tokens < bytes as f64 {
                    break;
                }
                state.tokens -= bytes as f64;
                state.queue.pop_front();
                granted.push(Permit {
                    grant,
                    class,
                    bytes,
                });
            }
        }
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const MIB: u64 = 1024 * 1024;

    /// 100 MiB/s + 100 MiB burst per class, depth 4.
    fn controller() -> AdmissionController {
        let class = ClassConfig {
            rate_bytes_per_sec: 100.0 * MIB as f64,
            burst_bytes: 100 * MIB,
            queue_depth: 4,
        };
        AdmissionController::new([class; 3])
    }

    #[test]
    fn admits_within_burst_queues_then_rejects() {
        let c = controller();
        // Burst covers two 50 MiB requests...
        for _ in 0..2 {
            assert!(matches!(
                c.submit(QosClass::Checkpoint, 50 * MIB, 0.0).unwrap(),
                Decision::Admitted(_)
            ));
        }
        // ...then the bucket is dry: the next four queue (depth 4)...
        for _ in 0..4 {
            assert!(matches!(
                c.submit(QosClass::Checkpoint, 50 * MIB, 0.0).unwrap(),
                Decision::Queued(_)
            ));
        }
        assert_eq!(c.queued(QosClass::Checkpoint), 4);
        // ...and the fifth is rejected with the typed overload error.
        assert_eq!(
            c.submit(QosClass::Checkpoint, 50 * MIB, 0.0).unwrap_err(),
            AdmissionError::QueueFull {
                class: QosClass::Checkpoint,
                depth: 4
            }
        );
    }

    #[test]
    fn zero_capacity_class_rejects_everything() {
        let open = ClassConfig {
            rate_bytes_per_sec: 100.0 * MIB as f64,
            burst_bytes: 100 * MIB,
            queue_depth: 4,
        };
        let c = AdmissionController::new([open, open, ClassConfig::closed()]);
        // Even a zero-byte request: the class is closed, not merely dry.
        assert_eq!(
            c.submit(QosClass::Background, 0, 0.0).unwrap_err(),
            AdmissionError::ClassClosed {
                class: QosClass::Background
            }
        );
        assert_eq!(
            c.submit(QosClass::Background, MIB, 100.0).unwrap_err(),
            AdmissionError::ClassClosed {
                class: QosClass::Background
            }
        );
        // Other classes are unaffected.
        assert!(c.submit(QosClass::Checkpoint, MIB, 0.0).is_ok());
    }

    #[test]
    fn burst_exactly_at_the_limit_is_admitted_one_byte_over_is_not() {
        let c = controller();
        // Exactly the burst: admitted (the bucket starts full).
        match c.submit(QosClass::Restore, 100 * MIB, 0.0).unwrap() {
            Decision::Admitted(p) => assert_eq!(p.bytes, 100 * MIB),
            other => panic!("exact-burst request not admitted: {other:?}"),
        }
        // One byte over the burst can never fit: typed rejection up front,
        // not an eternal queue entry.
        assert_eq!(
            c.submit(QosClass::Restore, 100 * MIB + 1, 1000.0)
                .unwrap_err(),
            AdmissionError::RequestTooLarge {
                class: QosClass::Restore,
                requested: 100 * MIB + 1,
                burst: 100 * MIB,
            }
        );
        // After a full refill interval the exact-burst request fits again.
        assert!(matches!(
            c.submit(QosClass::Restore, 100 * MIB, 1.0).unwrap(),
            Decision::Admitted(_)
        ));
    }

    #[test]
    fn poll_grants_priority_first_fifo_within_class() {
        let c = controller();
        // Drain all three buckets.
        for class in QosClass::ALL {
            assert!(matches!(
                c.submit(class, 100 * MIB, 0.0).unwrap(),
                Decision::Admitted(_)
            ));
        }
        // Queue in deliberately inverted priority order; remember grant ids.
        let mut queued = Vec::new();
        for class in [
            QosClass::Background,
            QosClass::Restore,
            QosClass::Checkpoint,
        ] {
            for _ in 0..2 {
                match c.submit(class, 10 * MIB, 0.0).unwrap() {
                    Decision::Queued(t) => queued.push(t),
                    other => panic!("expected queue, got {other:?}"),
                }
            }
        }
        // One poll after a full refill: everything fits; grants must come
        // back Checkpoint → Restore → Background, FIFO within each.
        let permits = c.poll(1.0);
        assert_eq!(permits.len(), 6);
        let classes: Vec<QosClass> = permits.iter().map(|p| p.class).collect();
        assert_eq!(
            classes,
            vec![
                QosClass::Checkpoint,
                QosClass::Checkpoint,
                QosClass::Restore,
                QosClass::Restore,
                QosClass::Background,
                QosClass::Background
            ]
        );
        for pair in permits.chunks(2) {
            assert!(pair[0].grant < pair[1].grant, "FIFO within class broken");
        }
        // Granted tickets correspond to queued ones, exactly once.
        let queued_ids: HashSet<u64> = queued.iter().map(|t| t.grant).collect();
        let granted_ids: HashSet<u64> = permits.iter().map(|p| p.grant).collect();
        assert_eq!(queued_ids, granted_ids);
    }

    #[test]
    fn simultaneous_overload_rejects_each_class_with_its_own_error() {
        let c = controller();
        let mut rejections = Vec::new();
        for class in QosClass::ALL {
            // Fill bucket + queue, then overflow.
            c.submit(class, 100 * MIB, 0.0).unwrap();
            for _ in 0..4 {
                c.submit(class, 100 * MIB, 0.0).unwrap();
            }
            rejections.push(c.submit(class, 100 * MIB, 0.0).unwrap_err());
        }
        for (class, rejection) in QosClass::ALL.into_iter().zip(rejections) {
            assert_eq!(rejection, AdmissionError::QueueFull { class, depth: 4 });
        }
    }

    #[test]
    fn background_is_not_starved_by_checkpoint_overload() {
        let c = controller();
        // Sustained Checkpoint overload: every tick, more checkpoint work
        // arrives than its bucket refills.
        let mut background_grants = 0u64;
        let mut t = 0.0;
        // Background submits one modest request per tick.
        for step in 0..200 {
            t = step as f64 * 0.1;
            for _ in 0..4 {
                let _ = c.submit(QosClass::Checkpoint, 50 * MIB, t);
            }
            if let Ok(Decision::Admitted(_)) = c.submit(QosClass::Background, 5 * MIB, t) {
                background_grants += 1;
            }
            background_grants += c
                .poll(t)
                .iter()
                .filter(|p| p.class == QosClass::Background)
                .count() as u64;
        }
        let _ = t;
        // Background kept flowing: its bucket refills from its own rate and
        // checkpoint spend cannot touch it.
        assert!(
            background_grants > 50,
            "background starved: only {background_grants} grants under checkpoint overload"
        );
    }

    #[test]
    fn queued_work_is_not_overtaken_by_fresh_arrivals() {
        let c = controller();
        c.submit(QosClass::Checkpoint, 100 * MIB, 0.0).unwrap(); // drain
        let big = match c.submit(QosClass::Checkpoint, 80 * MIB, 0.0).unwrap() {
            Decision::Queued(t) => t,
            other => panic!("expected queue, got {other:?}"),
        };
        // A tiny request arriving later must not jump the queued big one,
        // even though the bucket could cover it after a partial refill.
        match c.submit(QosClass::Checkpoint, MIB, 0.5).unwrap() {
            Decision::Queued(t) => assert!(t.grant > big.grant),
            Decision::Admitted(_) => panic!("small arrival overtook queued work"),
        }
        let permits = c.poll(1.0);
        assert_eq!(permits.first().map(|p| p.grant), Some(big.grant));
    }

    #[test]
    fn submit_and_poll_is_a_submit_then_a_poll_and_a_refusal_skips_the_poll() {
        // Two controllers take the same requests: one through submit and
        // then (when it admitted or queued) poll, one through
        // submit_and_poll. Every decision, permit and queue length agrees.
        let tight = ClassConfig {
            rate_bytes_per_sec: 10.0 * MIB as f64,
            burst_bytes: 20 * MIB,
            queue_depth: 3,
        };
        let configs = [tight, tight, ClassConfig::closed()];
        let (apart, together) = (
            AdmissionController::new(configs),
            AdmissionController::new(configs),
        );
        let mut seed = 0x5eed_u64;
        let (mut refused, mut granted) = (0, 0);
        for step in 0..400u32 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let class = QosClass::ALL[(seed >> 33) as usize % 3];
            let bytes = (seed >> 40) % (24 * MIB);
            let now = f64::from(step) * 0.05;
            let one = apart
                .submit(class, bytes, now)
                .map(|d| (d, apart.poll(now)));
            let both = together.submit_and_poll(class, bytes, now);
            assert_eq!(one, both, "step {step}");
            refused += usize::from(one.is_err());
            granted += one.map_or(0, |(_, permits)| permits.len());
            for class in QosClass::ALL {
                assert_eq!(apart.queued(class), together.queued(class));
            }
        }
        assert!(
            refused > 0 && granted > 0,
            "{refused} refused, {granted} granted"
        );
        assert_eq!(apart.poll(1e3), together.poll(1e3));

        // A refused submit polls nothing: the queued request it would have
        // granted waits for the next poll.
        let c = AdmissionController::new([tight; 3]);
        c.submit(QosClass::Checkpoint, 20 * MIB, 0.0).unwrap();
        let queued = match c.submit(QosClass::Checkpoint, MIB, 0.0).unwrap() {
            Decision::Queued(t) => t,
            other => panic!("expected queue, got {other:?}"),
        };
        assert!(c
            .submit_and_poll(QosClass::Checkpoint, 21 * MIB, 1.0)
            .is_err());
        assert_eq!(c.queued(QosClass::Checkpoint), 1);
        let permits = c.poll(1.0);
        assert_eq!(
            permits.iter().map(|p| p.grant).collect::<Vec<_>>(),
            vec![queued.grant]
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Admitted work is never lost and never double-served: every
            /// submit that returns `Admitted` or eventually gets polled is
            /// granted under a unique id, exactly once, and every queued
            /// ticket either surfaces in a later poll or is still queued at
            /// the end — never dropped, never duplicated.
            #[test]
            fn admitted_work_is_never_lost_or_double_served(
                ops in proptest::collection::vec(any::<u64>(), 1..80)
            ) {
                let c = controller();
                let mut now = 0.0f64;
                let mut admitted: HashSet<u64> = HashSet::new();
                let mut queued: HashSet<u64> = HashSet::new();
                for op in ops {
                    // Decode (class, bytes, time advance) from one raw u64.
                    let class = QosClass::ALL[(op % 3) as usize];
                    let bytes = (op >> 2) % (40 * MIB) + 1;
                    now += ((op >> 32) % 4) as f64 * 0.05;
                    match c.submit(class, bytes, now) {
                        Ok(Decision::Admitted(p)) => {
                            prop_assert!(admitted.insert(p.grant), "grant {} reissued", p.grant);
                            prop_assert_eq!(p.bytes, bytes);
                            prop_assert_eq!(p.class, class);
                        }
                        Ok(Decision::Queued(t)) => {
                            prop_assert!(queued.insert(t.grant), "ticket {} reissued", t.grant);
                        }
                        Err(_) => {} // typed rejection: the caller backs off
                    }
                    for p in c.poll(now) {
                        prop_assert!(
                            queued.remove(&p.grant),
                            "poll granted {} which was never queued (or twice)",
                            p.grant
                        );
                        prop_assert!(admitted.insert(p.grant), "grant {} double-served", p.grant);
                    }
                }
                // Drain with generous time: everything still queued must
                // surface exactly once (bounded requests always fit a burst).
                for round in 1..=64u32 {
                    for p in c.poll(now + round as f64 * 10.0) {
                        prop_assert!(queued.remove(&p.grant));
                        prop_assert!(admitted.insert(p.grant));
                    }
                    if queued.is_empty() {
                        break;
                    }
                }
                prop_assert!(queued.is_empty(), "{} tickets lost", queued.len());
                // And nothing new materialises once the queues are empty.
                prop_assert!(c.poll(now + 1e6).is_empty());
            }
        }
    }
}
