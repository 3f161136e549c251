//! Deterministic multi-producer request sequencing.
//!
//! A serving layer that accepts requests from many concurrent client threads
//! has a problem the worker pool cannot solve: the *arrival order* of
//! requests depends on OS scheduling, so "execute in arrival order" makes
//! same-trace runs diverge. [`SequencedQueue`] removes the OS from the
//! ordering: every producer stamps its submissions with a **logical
//! timestamp** (from the trace, not the wall clock), and the queue releases
//! items in the total order
//!
//! ```text
//! (timestamp, producer id, per-producer submission index)
//! ```
//!
//! regardless of which thread submitted first physically. Consumers only
//! receive an item once it is *safe*: no open producer can still submit
//! anything that would sort earlier. Each producer therefore promises
//! **strictly increasing timestamps** (enforced; [`SequenceError`]), which
//! makes the safety condition a simple watermark: item `(t, p)` is
//! deliverable when every other open producer has already submitted beyond
//! `t` — or equals `t`, since its next submission must then exceed `t` — or
//! has closed.
//!
//! The result is the concurrency-side analogue of the worker pool's
//! determinism contract (CONCURRENCY.md): physical threads race, the
//! *observable order* never does. The `moctopus-server` crate builds its
//! session layer on this queue; SERVING.md §2 walks the full argument.
//!
//! # Backpressure (bounded queues)
//!
//! An open-loop producer can outrun the consumer without bound. A queue built
//! with [`SequencedQueue::bounded`] caps every producer's **pending** (not yet
//! delivered) items: a submission that would exceed the cap is **shed** — the
//! item is dropped and [`Admission::Shed`] returned — but the producer's
//! watermark still advances as if the item had been accepted. Shedding at the
//! watermark is what keeps the queue live: a flooding producer keeps promising
//! "nothing earlier than `t` is coming" even while its excess load is refused,
//! so other producers' items stay deliverable. Because the bound is **per
//! producer**, one flooding client sheds only its own traffic — every other
//! client's items are admitted and delivered exactly as on an unbounded queue
//! (see `bounded_queue_sheds_only_the_flooding_producer`).
//!
//! # Examples
//!
//! ```
//! use moctopus_runtime::SequencedQueue;
//!
//! let q = SequencedQueue::new();
//! let a = q.register();
//! let b = q.register();
//! q.submit(b, 2, "b@2").unwrap();
//! q.submit(a, 1, "a@1").unwrap();
//! // a@1 is deliverable: b's last timestamp (2) is beyond 1.
//! assert_eq!(q.try_pop(), Some("a@1"));
//! // b@2 is NOT deliverable yet: a (still open, last at 1) may submit at 2.
//! assert_eq!(q.try_pop(), None);
//! q.close(a);
//! assert_eq!(q.try_pop(), Some("b@2"));
//! q.close(b);
//! assert_eq!(q.pop(), None); // all producers closed, queue empty
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Identifier of one registered producer (returned by
/// [`SequencedQueue::register`]). Doubles as the tie-breaker of the total
/// order: equal timestamps deliver in ascending producer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProducerId(usize);

impl ProducerId {
    /// The producer's position in registration order (0-based).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceError {
    /// The timestamp was not strictly greater than the producer's previous
    /// one — the monotonicity promise the watermark rule depends on.
    NonMonotonicTimestamp {
        /// The producer's previous (and still current) timestamp.
        last: u64,
        /// The rejected timestamp.
        submitted: u64,
    },
    /// The producer was already closed.
    Closed,
}

impl std::fmt::Display for SequenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequenceError::NonMonotonicTimestamp { last, submitted } => write!(
                f,
                "timestamp {submitted} is not strictly greater than the producer's last ({last})"
            ),
            SequenceError::Closed => write!(f, "producer is closed"),
        }
    }
}

impl std::error::Error for SequenceError {}

/// What [`SequencedQueue::submit`] did with an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The item was enqueued and will be delivered in total order.
    Accepted,
    /// The producer's pending items were at the queue's per-producer capacity:
    /// the item was dropped, but the producer's watermark advanced to its
    /// timestamp (see the module docs on backpressure). Never returned by an
    /// unbounded queue.
    Shed,
}

/// Per-producer state: the pending items, the last submitted timestamp, and
/// whether the producer closed.
#[derive(Debug)]
struct Producer<T> {
    /// Pending `(timestamp, item)` pairs in submission (= timestamp) order.
    pending: VecDeque<(u64, T)>,
    /// Last submitted timestamp; `None` before the first submission. Sheds
    /// advance it too — the watermark promise covers refused items.
    last_at: Option<u64>,
    /// Submissions shed by the per-producer capacity bound.
    shed: u64,
    closed: bool,
}

impl<T> Producer<T> {
    fn new() -> Self {
        Producer { pending: VecDeque::new(), last_at: None, shed: 0, closed: false }
    }
}

/// A multi-producer queue that delivers items in a deterministic total order
/// keyed by logical timestamps (see the module docs).
///
/// All methods take `&self`; the queue is internally synchronized and meant
/// to be shared across threads (e.g. inside an `Arc`).
#[derive(Debug)]
pub struct SequencedQueue<T> {
    inner: Mutex<Vec<Producer<T>>>,
    /// Signalled on every submit/close so blocked [`SequencedQueue::pop`]
    /// calls re-evaluate the watermark.
    changed: Condvar,
    /// Per-producer pending-item bound; `None` = unbounded (never sheds).
    capacity: Option<usize>,
}

impl<T> Default for SequencedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SequencedQueue<T> {
    /// Creates an empty unbounded queue with no producers.
    pub fn new() -> Self {
        SequencedQueue { inner: Mutex::new(Vec::new()), changed: Condvar::new(), capacity: None }
    }

    /// Creates an empty queue that sheds any submission arriving while the
    /// submitting producer already has `capacity` items pending (see the
    /// module docs on backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (it would shed every submission).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded queue needs capacity for at least one item");
        SequencedQueue {
            inner: Mutex::new(Vec::new()),
            changed: Condvar::new(),
            capacity: Some(capacity),
        }
    }

    /// The per-producer pending capacity; `None` for an unbounded queue.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Registers a new producer and returns its id.
    ///
    /// Registration order defines the tie-breaking order for equal
    /// timestamps, so register producers deterministically (e.g. client 0
    /// first) when byte-identical runs matter.
    pub fn register(&self) -> ProducerId {
        let mut inner = self.inner.lock().expect("sequence queue poisoned");
        inner.push(Producer::new());
        ProducerId(inner.len() - 1)
    }

    /// Submits an item at a logical timestamp.
    ///
    /// Timestamps must be strictly increasing per producer; ties *across*
    /// producers are fine (they deliver in producer-id order). On a bounded
    /// queue the item may be refused with [`Admission::Shed`]: the producer's
    /// watermark still advances to `at` (and strict monotonicity still binds
    /// its next submission), but nothing is enqueued. Unbounded queues always
    /// return [`Admission::Accepted`].
    ///
    /// # Panics
    ///
    /// Panics if `producer` was not returned by this queue's
    /// [`SequencedQueue::register`].
    pub fn submit(
        &self,
        producer: ProducerId,
        at: u64,
        item: T,
    ) -> Result<Admission, SequenceError> {
        let mut inner = self.inner.lock().expect("sequence queue poisoned");
        let p = &mut inner[producer.0];
        if p.closed {
            return Err(SequenceError::Closed);
        }
        if let Some(last) = p.last_at {
            if at <= last {
                return Err(SequenceError::NonMonotonicTimestamp { last, submitted: at });
            }
        }
        // The watermark advances before the capacity check: a shed item was
        // still *promised* — the producer can no longer submit at or before
        // `at`, so delivery of other producers' items keeps progressing even
        // under sustained overload.
        p.last_at = Some(at);
        let admission = if self.capacity.is_some_and(|cap| p.pending.len() >= cap) {
            p.shed += 1;
            Admission::Shed
        } else {
            p.pending.push_back((at, item));
            Admission::Accepted
        };
        drop(inner);
        self.changed.notify_all();
        Ok(admission)
    }

    /// Submissions the per-producer capacity bound has shed so far, summed
    /// over all producers (always zero on an unbounded queue).
    pub fn shed_total(&self) -> u64 {
        let inner = self.inner.lock().expect("sequence queue poisoned");
        inner.iter().map(|p| p.shed).sum()
    }

    /// Submissions shed from one producer.
    ///
    /// # Panics
    ///
    /// Panics if `producer` was not returned by this queue's
    /// [`SequencedQueue::register`].
    pub fn shed_count(&self, producer: ProducerId) -> u64 {
        let inner = self.inner.lock().expect("sequence queue poisoned");
        inner[producer.0].shed
    }

    /// Closes a producer: it will submit nothing further, so its watermark
    /// stops gating other producers' items. Closing twice is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `producer` was not returned by this queue's
    /// [`SequencedQueue::register`].
    pub fn close(&self, producer: ProducerId) {
        let mut inner = self.inner.lock().expect("sequence queue poisoned");
        inner[producer.0].closed = true;
        drop(inner);
        self.changed.notify_all();
    }

    /// Pops the next item of the total order if it is already deliverable
    /// (see the module docs for the watermark rule); `None` if the queue is
    /// empty or the head item must still wait for a lagging producer.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("sequence queue poisoned");
        let item = Self::pop_deliverable(&mut inner);
        if item.is_some() {
            // Wake waiters so a `wait_deliverable` that observed the
            // pre-pop state re-evaluates (the queue may now be drained).
            drop(inner);
            self.changed.notify_all();
        }
        item
    }

    /// Pops the next item of the total order, blocking until one becomes
    /// deliverable. Returns `None` once every producer has closed and no
    /// items remain (the queue is drained for good).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("sequence queue poisoned");
        loop {
            if let Some(item) = Self::pop_deliverable(&mut inner) {
                drop(inner);
                self.changed.notify_all();
                return Some(item);
            }
            if inner.iter().all(|p| p.closed && p.pending.is_empty()) {
                return None;
            }
            inner = self.changed.wait(inner).expect("sequence queue poisoned");
        }
    }

    /// Blocks until an item is deliverable (`true`) or the queue is drained
    /// for good (`false`), without popping anything.
    ///
    /// This exists for consumers that must pop and *process* under their own
    /// lock to keep processing order deterministic (pop-then-lock would let
    /// two consumer threads reorder): wait here lock-free, then pop with
    /// [`SequencedQueue::try_pop`] under the processing lock. A `true` return
    /// is a hint, not a reservation — another consumer may take the item
    /// first, so loop.
    pub fn wait_deliverable(&self) -> bool {
        let mut inner = self.inner.lock().expect("sequence queue poisoned");
        loop {
            if Self::deliverable_head(&inner).is_some() {
                return true;
            }
            if inner.iter().all(|p| p.closed && p.pending.is_empty()) {
                return false;
            }
            inner = self.changed.wait(inner).expect("sequence queue poisoned");
        }
    }

    /// Core delivery rule, called under the lock: the producer whose head
    /// item has the minimal `(timestamp, producer)` key, if no open producer
    /// could still submit an earlier-sorting item.
    fn deliverable_head(inner: &[Producer<T>]) -> Option<usize> {
        // The minimal pending head across producers (ties: lowest id, which
        // `<` on (at, index) gives for free since iteration is in id order).
        let (idx, at) = inner
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.pending.front().map(|&(at, _)| (i, at)))
            .min_by_key(|&(i, at)| (at, i))?;
        // Safe iff every *other* open producer has advanced to `at` or
        // beyond: strictly increasing timestamps mean its future submissions
        // land strictly after its last one, and an equal-timestamp future
        // submission is impossible once last_at == at.
        let safe = inner
            .iter()
            .enumerate()
            .all(|(i, p)| i == idx || p.closed || p.last_at.is_some_and(|last| last >= at));
        safe.then_some(idx)
    }

    /// Pops the deliverable head item, if there is one.
    fn pop_deliverable(inner: &mut [Producer<T>]) -> Option<T> {
        let idx = Self::deliverable_head(inner)?;
        let (_, item) = inner[idx].pending.pop_front()?;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The producer's current watermark: the last timestamp it submitted
    /// (accepted *or* shed), `None` before its first submission.
    fn last_timestamp<T>(q: &SequencedQueue<T>, producer: ProducerId) -> Option<u64> {
        q.inner.lock().expect("sequence queue poisoned")[producer.0].last_at
    }

    #[test]
    fn single_producer_is_fifo() {
        let q = SequencedQueue::new();
        let p = q.register();
        for t in 1..=5u64 {
            q.submit(p, t, t).unwrap();
        }
        q.close(p);
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn items_wait_for_lagging_open_producers() {
        let q = SequencedQueue::new();
        let a = q.register();
        let b = q.register();
        q.submit(b, 10, "b@10").unwrap();
        // `a` has submitted nothing: b@10 must wait (a could submit at 1).
        assert_eq!(q.try_pop(), None);
        q.submit(a, 3, "a@3").unwrap();
        // a@3 is deliverable (b is at 10); b@10 still waits for a.
        assert_eq!(q.try_pop(), Some("a@3"));
        assert_eq!(q.try_pop(), None);
        q.close(a);
        assert_eq!(q.try_pop(), Some("b@10"));
    }

    #[test]
    fn equal_timestamps_deliver_in_producer_order() {
        let q = SequencedQueue::new();
        let a = q.register();
        let b = q.register();
        q.submit(b, 5, "b@5").unwrap();
        q.submit(a, 5, "a@5").unwrap();
        // Both producers are at 5; strict monotonicity forbids either from
        // submitting at 5 again, so both are deliverable — a first.
        assert_eq!(q.try_pop(), Some("a@5"));
        assert_eq!(q.try_pop(), Some("b@5"));
    }

    #[test]
    fn monotonicity_and_close_are_enforced() {
        let q = SequencedQueue::new();
        let p = q.register();
        q.submit(p, 2, ()).unwrap();
        assert_eq!(
            q.submit(p, 2, ()),
            Err(SequenceError::NonMonotonicTimestamp { last: 2, submitted: 2 })
        );
        assert_eq!(
            q.submit(p, 1, ()),
            Err(SequenceError::NonMonotonicTimestamp { last: 2, submitted: 1 })
        );
        q.close(p);
        q.close(p); // idempotent
        assert_eq!(q.submit(p, 3, ()), Err(SequenceError::Closed));
    }

    /// Shed-at-the-watermark: a refused submission still advances the
    /// producer's watermark, so other producers' items become deliverable
    /// exactly as if the shed item had been accepted and delivered.
    #[test]
    fn sheds_advance_the_watermark() {
        let q = SequencedQueue::bounded(1);
        let a = q.register();
        let b = q.register();
        q.submit(b, 5, "b@5").unwrap();
        // b@5 must wait: `a` is open and has submitted nothing.
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.submit(a, 1, "a@1").unwrap(), Admission::Accepted);
        assert_eq!(q.submit(a, 9, "a@9").unwrap(), Admission::Shed, "capacity 1 is exhausted");
        assert_eq!(last_timestamp(&q, a), Some(9), "the shed still promised `nothing before 9`");
        assert_eq!(q.shed_count(a), 1);
        assert_eq!(q.shed_total(), 1);
        // a@1 delivers first (b is at 5), and then — because a's watermark
        // moved to 9 *despite the shed* — b@5 delivers without a closing.
        assert_eq!(q.try_pop(), Some("a@1"));
        assert_eq!(q.try_pop(), Some("b@5"));
        // Monotonicity now binds against the shed timestamp, not the last
        // accepted one.
        assert_eq!(
            q.submit(a, 9, "a@9 again"),
            Err(SequenceError::NonMonotonicTimestamp { last: 9, submitted: 9 })
        );
    }

    /// Per-producer bounds are the fairness mechanism: a flooding producer
    /// sheds only its own traffic, and every other producer's submissions are
    /// admitted and delivered exactly as on an unbounded queue.
    #[test]
    fn bounded_queue_sheds_only_the_flooding_producer() {
        let q = SequencedQueue::bounded(4);
        let flooder = q.register();
        let steady = q.register();
        // The flooder dumps 16 submissions without anyone consuming.
        let mut accepted = 0;
        for t in 1..=16u64 {
            if q.submit(flooder, t, (0usize, t)).unwrap() == Admission::Accepted {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "only `capacity` items fit while nothing drains");
        assert_eq!(q.shed_count(flooder), 12);
        // The steady producer interleaves at later timestamps: all admitted.
        for t in 17..=20u64 {
            assert_eq!(q.submit(steady, t, (1usize, t)).unwrap(), Admission::Accepted);
        }
        assert_eq!(q.shed_count(steady), 0, "the flood must not steal the steady client's slots");
        q.close(flooder);
        q.close(steady);
        let mut out = Vec::new();
        while let Some(item) = q.pop() {
            out.push(item);
        }
        // The flooder's *accepted prefix* and the steady producer's full
        // submission sequence drain in total order.
        assert_eq!(out, vec![(0, 1), (0, 2), (0, 3), (0, 4), (1, 17), (1, 18), (1, 19), (1, 20)]);
    }

    /// Capacity 1 alternates accept/shed under a flood, and draining reopens
    /// the slot: shed is about *pending* load, not a permanent penalty.
    #[test]
    fn capacity_one_drains_after_shed() {
        let q = SequencedQueue::bounded(1);
        let p = q.register();
        assert_eq!(q.submit(p, 1, 1u64).unwrap(), Admission::Accepted);
        assert_eq!(q.submit(p, 2, 2).unwrap(), Admission::Shed);
        assert_eq!(q.submit(p, 3, 3).unwrap(), Admission::Shed);
        assert_eq!(q.try_pop(), Some(1));
        // The pending slot is free again.
        assert_eq!(q.submit(p, 4, 4).unwrap(), Admission::Accepted);
        assert_eq!(q.submit(p, 5, 5).unwrap(), Admission::Shed);
        assert_eq!(q.try_pop(), Some(4));
        q.close(p);
        assert_eq!(q.pop(), None);
        assert_eq!(q.shed_count(p), 3);
        assert_eq!(SequencedQueue::<u64>::bounded(1).capacity(), Some(1));
        assert_eq!(SequencedQueue::<u64>::new().capacity(), None);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_capacity_is_rejected() {
        let _ = SequencedQueue::<u64>::bounded(0);
    }

    /// Watermark monotonicity under racing producers and a racing consumer:
    /// whatever interleaving the OS produces, (a) every delivered sequence is
    /// strictly increasing in the `(at, producer)` total order — sheds never
    /// let an earlier-sorting item slip out after a later one — and (b) each
    /// producer's final watermark covers its last submission even when that
    /// submission was shed.
    #[test]
    fn watermark_stays_monotone_under_racing_producers_with_sheds() {
        for _round in 0..4 {
            let q = Arc::new(SequencedQueue::bounded(2));
            let producers: Vec<ProducerId> = (0..3).map(|_| q.register()).collect();
            std::thread::scope(|scope| {
                for (c, &pid) in producers.iter().enumerate() {
                    let q = Arc::clone(&q);
                    scope.spawn(move || {
                        let mut last_watermark = None;
                        for j in 0..40u64 {
                            let at = 1 + j * 3 + c as u64;
                            q.submit(pid, at, (at, c)).unwrap();
                            let seen = last_timestamp(&q, pid);
                            assert!(seen >= Some(at), "watermark must cover every submission");
                            assert!(seen >= last_watermark, "watermark must never regress");
                            last_watermark = seen;
                        }
                        q.close(pid);
                    });
                }
                let mut out: Vec<(u64, usize)> = Vec::new();
                while let Some(item) = q.pop() {
                    out.push(item);
                }
                assert!(
                    out.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
                    "delivery must follow the total order even around sheds"
                );
                let delivered = out.len() as u64;
                assert_eq!(
                    delivered + q.shed_total(),
                    3 * 40,
                    "every submission sheds or delivers"
                );
            });
            for &pid in &producers {
                // Final watermark = the last submission (1 + 39*3 + c), shed or not.
                assert_eq!(last_timestamp(&q, pid), Some(118 + pid.index() as u64));
            }
        }
    }

    /// The determinism claim itself: racing producer threads always yield
    /// the same consumption order.
    #[test]
    fn racing_producers_always_drain_in_the_same_order() {
        let expected: Vec<(u64, usize)> = {
            // The total order of the schedule below, computed by sorting.
            let mut all: Vec<(u64, usize)> = (0..4usize)
                .flat_map(|c| (0..25u64).map(move |j| (1 + j * 4 + c as u64, c)))
                .collect();
            all.sort();
            all
        };
        for _round in 0..8 {
            let q = Arc::new(SequencedQueue::new());
            let producers: Vec<ProducerId> = (0..4).map(|_| q.register()).collect();
            std::thread::scope(|scope| {
                for (c, &pid) in producers.iter().enumerate() {
                    let q = Arc::clone(&q);
                    scope.spawn(move || {
                        for j in 0..25u64 {
                            let at = 1 + j * 4 + c as u64;
                            q.submit(pid, at, (at, c)).unwrap();
                            if j % 7 == c as u64 % 7 {
                                std::thread::yield_now();
                            }
                        }
                        q.close(pid);
                    });
                }
                let mut out = Vec::new();
                while let Some(item) = q.pop() {
                    out.push(item);
                }
                assert_eq!(out, expected, "drain order must not depend on thread timing");
            });
        }
    }
}
