//! Concurrent client sessions over a [`QueryServer`].
//!
//! Many client threads submit interleaved queries and updates; the server
//! executes them in the deterministic total order `(at, client, seq)` and
//! routes each response back to the submitting client. The ordering problem
//! is delegated to [`moctopus_runtime::SequencedQueue`] (logical timestamps,
//! watermark delivery); this module adds the serving glue:
//!
//! * **Pumping.** There is no dedicated server thread. Whoever touches the
//!   server — a session submitting or draining, or [`ConcurrentServer::run`]
//!   — *pumps*: takes the execution lock, pops every deliverable request,
//!   executes it on the [`QueryServer`], and files the response in the
//!   submitting client's outbox. Popping **under** the execution lock is
//!   what keeps execution order equal to delivery order no matter how many
//!   threads pump (see `SequencedQueue::wait_deliverable`'s docs for the
//!   pop-then-lock hazard this avoids).
//! * **Outboxes.** One FIFO per client; responses arrive in the client's own
//!   submission order (the total order restricted to one client preserves
//!   its sequence order).
//!
//! Determinism: the executed request order, every response, and the server
//! totals depend only on the submitted `(at, client, seq)` triples — never on
//! thread timing. `tests/serve_cache_equivalence.rs` races real threads
//! against a sequential replay to enforce this.

use crate::request::{ClientId, Request, RequestId, Response};
use crate::server::QueryServer;
use moctopus_runtime::{Admission, ProducerId, SequenceError, SequencedQueue};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Shared state behind the `Arc`: the sequencer, the serving core, and the
/// per-client outboxes.
///
/// Lock order (strict): `core` → queue internals → `outboxes`. Every path
/// that takes more than one follows it, so the layer cannot deadlock.
#[derive(Debug)]
struct Shared {
    queue: SequencedQueue<(RequestId, Request)>,
    core: Mutex<QueryServer>,
    outboxes: Mutex<Vec<VecDeque<Response>>>,
}

impl Shared {
    /// Executes every currently deliverable request in total order.
    fn pump(&self) {
        let mut core = self.core.lock().expect("server core poisoned");
        while let Some((id, request)) = self.queue.try_pop() {
            let response = core.execute(id, request);
            let mut outboxes = self.outboxes.lock().expect("outboxes poisoned");
            outboxes[id.client.0 as usize].push_back(response);
        }
    }
}

/// A concurrently usable server: shareable handle creating client
/// [`Session`]s over one [`QueryServer`].
///
/// # Examples
///
/// ```
/// use graph_store::{Label, NodeId};
/// use moctopus::{MoctopusConfig, MoctopusSystem};
/// use moctopus_server::{ConcurrentServer, QueryServer, RequestKind, ServerConfig};
///
/// let engine = MoctopusSystem::new(MoctopusConfig::small_test());
/// let server = ConcurrentServer::new(QueryServer::new(Box::new(engine), ServerConfig::default()));
/// let mut alice = server.session();
/// let mut bob = server.session();
/// std::thread::scope(|scope| {
///     scope.spawn(|| {
///         alice
///             .submit(1, RequestKind::Insert { edges: vec![(NodeId(0), NodeId(1), Label(1))] })
///             .unwrap();
///         alice.finish();
///     });
///     scope.spawn(|| {
///         bob.submit(2, RequestKind::Query {
///             expr: rpq::parser::parse("1").unwrap(),
///             sources: vec![NodeId(0)],
///         })
///         .unwrap();
///         bob.finish();
///     });
/// });
/// server.run();
/// let responses = server.take_responses();
/// // Bob's query ran after Alice's insert (logical time 2 > 1): it sees the edge.
/// assert_eq!(responses[1][0].results().unwrap()[0], vec![NodeId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct ConcurrentServer {
    shared: Arc<Shared>,
}

impl ConcurrentServer {
    /// Wraps a serving core for concurrent use with an unbounded queue
    /// (every submission is admitted).
    pub fn new(server: QueryServer) -> Self {
        Self::with_queue(server, SequencedQueue::new())
    }

    /// Wraps a serving core with **bounded backpressure**: each client may
    /// have at most `capacity` requests waiting (submitted but not yet
    /// executable because the server is still waiting on slower clients'
    /// watermarks). A submission beyond the bound is **shed** — refused with
    /// [`SubmitOutcome::Shed`], never silently dropped — and still advances
    /// the client's watermark, so a flooding client sheds only its own
    /// traffic and cannot stall anyone else (see
    /// `moctopus_runtime::SequencedQueue::bounded`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(server: QueryServer, capacity: usize) -> Self {
        Self::with_queue(server, SequencedQueue::bounded(capacity))
    }

    fn with_queue(server: QueryServer, queue: SequencedQueue<(RequestId, Request)>) -> Self {
        ConcurrentServer {
            shared: Arc::new(Shared {
                queue,
                core: Mutex::new(server),
                outboxes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Total submissions shed by the bounded queue so far (0 when unbounded).
    pub fn shed_total(&self) -> u64 {
        self.shared.queue.shed_total()
    }

    /// Opens a new client session.
    ///
    /// Register sessions in a deterministic order (e.g. client 0 first):
    /// the registration index is the client id, which tie-breaks equal
    /// logical timestamps.
    pub fn session(&self) -> Session {
        let producer = self.shared.queue.register();
        let client = ClientId(producer.index() as u32);
        // Grow-on-demand rather than push: concurrent `session()` calls may
        // reach this lock out of registration order, and a racing sibling may
        // already have grown the vector past this producer's slot.
        let mut outboxes = self.shared.outboxes.lock().expect("outboxes poisoned");
        if outboxes.len() <= producer.index() {
            outboxes.resize_with(producer.index() + 1, VecDeque::new);
        }
        drop(outboxes);
        Session { shared: Arc::clone(&self.shared), producer, client, seq: 0 }
    }

    /// Drives the server until every session has finished and every request
    /// is executed. Call after the client threads are done (or from a
    /// dedicated thread); returns once the queue is drained for good.
    pub fn run(&self) {
        while self.shared.queue.wait_deliverable() {
            self.shared.pump();
        }
    }

    /// Takes every delivered response, grouped by client id, in each
    /// client's submission order. Pumps first, so after [`ConcurrentServer::run`]
    /// this is the complete response set.
    pub fn take_responses(&self) -> Vec<Vec<Response>> {
        self.shared.pump();
        let mut outboxes = self.shared.outboxes.lock().expect("outboxes poisoned");
        outboxes.iter_mut().map(|q| q.drain(..).collect()).collect()
    }

    /// Runs `f` on the serving core (totals, cache statistics). Pumps first
    /// so the numbers include every deliverable request.
    pub fn with_core<T>(&self, f: impl FnOnce(&QueryServer) -> T) -> T {
        self.shared.pump();
        let core = self.shared.core.lock().expect("server core poisoned");
        f(&core)
    }
}

/// What became of one submission: admitted into the total order, or refused
/// by a bounded server's backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Enqueued; the response will arrive in this session's outbox.
    Accepted(RequestId),
    /// Shed by the bounded queue ([`ConcurrentServer::bounded`]): the request
    /// will **not** execute and no response will arrive, but the session's
    /// watermark still advanced — re-submit later (at a later timestamp) if
    /// the request still matters.
    Shed,
}

impl SubmitOutcome {
    /// The request id, if the submission was admitted.
    pub fn id(&self) -> Option<RequestId> {
        match self {
            SubmitOutcome::Accepted(id) => Some(*id),
            SubmitOutcome::Shed => None,
        }
    }
}

/// One client's handle: submit requests, drain responses, close.
///
/// Dropping a session without calling [`Session::finish`] keeps the server
/// waiting on its watermark — always finish (consumed by value) when the
/// client is done.
#[derive(Debug)]
pub struct Session {
    shared: Arc<Shared>,
    producer: ProducerId,
    client: ClientId,
    seq: u64,
}

impl Session {
    /// This session's client id.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Submits a request at a logical timestamp (strictly increasing per
    /// session) and opportunistically serves deliverable work. On an
    /// unbounded server every submission is
    /// [`SubmitOutcome::Accepted`]; a bounded server
    /// ([`ConcurrentServer::bounded`]) may shed instead. The sequence number
    /// advances only on acceptance, so the requests that *execute* carry
    /// dense per-client sequence numbers regardless of shedding.
    pub fn submit(
        &mut self,
        at: u64,
        kind: crate::request::RequestKind,
    ) -> Result<SubmitOutcome, SequenceError> {
        let id = RequestId { client: self.client, seq: self.seq };
        let admission = self.shared.queue.submit(self.producer, at, (id, Request { at, kind }))?;
        let outcome = match admission {
            Admission::Accepted => {
                self.seq += 1;
                SubmitOutcome::Accepted(id)
            }
            Admission::Shed => SubmitOutcome::Shed,
        };
        self.shared.pump();
        Ok(outcome)
    }

    /// Submissions of this session shed by a bounded server so far.
    pub fn shed_count(&self) -> u64 {
        self.shared.queue.shed_count(self.producer)
    }

    /// Takes the responses delivered to this session so far (submission
    /// order), pumping first. A submitted request whose turn has not come —
    /// the server may be waiting on slower clients — is not yet here; drain
    /// again later or after [`ConcurrentServer::run`].
    pub fn drain(&mut self) -> Vec<Response> {
        self.shared.pump();
        let mut outboxes = self.shared.outboxes.lock().expect("outboxes poisoned");
        outboxes[self.client.0 as usize].drain(..).collect()
    }

    /// Closes the session: no further submissions, and the server stops
    /// waiting on this client's watermark. Responses still in flight remain
    /// collectable via [`ConcurrentServer::take_responses`].
    pub fn finish(self) {
        self.shared.queue.close(self.producer);
        self.shared.pump();
    }
}

impl Drop for Session {
    /// Closes the producer if the session is dropped without
    /// [`Session::finish`] — a panicking or early-returning client thread
    /// must not leave the server waiting on its watermark forever
    /// ([`ConcurrentServer::run`] would never return). Close is idempotent,
    /// so the explicit `finish` path is unaffected; no pump here (pumping
    /// takes locks, which is unsafe during unwinding).
    fn drop(&mut self) {
        self.shared.queue.close(self.producer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CacheOutcome, RequestKind};
    use crate::server::ServerConfig;
    use graph_store::{Label, NodeId};
    use moctopus::{MoctopusConfig, MoctopusSystem};

    fn new_server() -> ConcurrentServer {
        let engine = MoctopusSystem::new(MoctopusConfig::small_test());
        ConcurrentServer::new(QueryServer::new(Box::new(engine), ServerConfig::default()))
    }

    fn insert(edges: &[(u64, u64, u16)]) -> RequestKind {
        RequestKind::Insert {
            edges: edges.iter().map(|&(s, d, l)| (NodeId(s), NodeId(d), Label(l))).collect(),
        }
    }

    fn query(text: &str, sources: &[u64]) -> RequestKind {
        RequestKind::Query {
            expr: rpq::parser::parse(text).expect("test query parses"),
            sources: sources.iter().copied().map(NodeId).collect(),
        }
    }

    #[test]
    fn logical_time_orders_across_sessions() {
        let server = new_server();
        let mut writer = server.session();
        let mut reader = server.session();
        // The reader submits *first physically* but at a later logical time:
        // it must observe the writer's insert.
        reader.submit(10, query("1", &[0])).unwrap();
        writer.submit(5, insert(&[(0, 1, 1)])).unwrap();
        writer.finish();
        reader.finish();
        server.run();
        let responses = server.take_responses();
        assert_eq!(responses[1][0].results().unwrap()[0], vec![NodeId(1)]);
        assert_eq!(responses[0].len(), 1);
        assert_eq!(responses[1].len(), 1);
    }

    #[test]
    fn responses_come_back_in_submission_order_per_client() {
        let server = new_server();
        let mut s = server.session();
        s.submit(1, insert(&[(0, 1, 1), (1, 2, 1)])).unwrap();
        s.submit(2, query("1/1", &[0])).unwrap();
        s.submit(3, query("1/1", &[0])).unwrap();
        let responses = s.drain();
        assert_eq!(responses.len(), 3, "single-session work is deliverable immediately");
        assert_eq!(responses[1].cache_outcome(), Some(CacheOutcome::Miss));
        assert_eq!(responses[2].cache_outcome(), Some(CacheOutcome::Hit));
        assert_eq!(responses[1].results(), responses[2].results());
        assert!(responses.windows(2).all(|w| w[0].id.seq < w[1].id.seq));
        s.finish();
        server.run();
        server.with_core(|core| {
            assert_eq!(core.totals().queries, 2);
            assert_eq!(core.cache_stats().unwrap().hits, 1);
        });
    }

    #[test]
    fn racing_clients_produce_deterministic_outcomes() {
        // The same 3-client trace, submitted from racing threads, must yield
        // identical responses and totals on every run.
        let traces: Vec<Vec<(u64, RequestKind)>> = (0..3u64)
            .map(|c| {
                (0..10u64)
                    .map(|j| {
                        let at = 1 + j * 3 + c;
                        let kind = if j % 4 == c % 4 {
                            insert(&[(at % 16, (at + 1) % 16, 1 + (at % 3) as u16)])
                        } else {
                            query(if c == 0 { "1+" } else { "1/2" }, &[at % 16])
                        };
                        (at, kind)
                    })
                    .collect()
            })
            .collect();

        let run_once = || {
            let server = new_server();
            let mut sessions: Vec<Session> = (0..3).map(|_| server.session()).collect();
            std::thread::scope(|scope| {
                for (session, trace) in sessions.drain(..).zip(traces.clone()) {
                    scope.spawn(move || {
                        let mut session = session;
                        for (at, kind) in trace {
                            session.submit(at, kind).unwrap();
                        }
                        session.finish();
                    });
                }
            });
            server.run();
            let responses = server.take_responses();
            let totals = server.with_core(|core| core.totals());
            (responses, totals)
        };

        let (first_responses, first_totals) = run_once();
        for _ in 0..3 {
            let (responses, totals) = run_once();
            assert_eq!(responses, first_responses, "responses must not depend on thread timing");
            assert_eq!(totals, first_totals);
        }
    }

    #[test]
    fn bounded_server_sheds_only_the_flooder_and_stays_live() {
        let engine = MoctopusSystem::new(MoctopusConfig::small_test());
        let server = ConcurrentServer::bounded(
            QueryServer::new(Box::new(engine), ServerConfig::default()),
            2,
        );
        let mut flooder = server.session();
        let mut steady = server.session();

        // The steady client is silent, so nothing of the flooder's is
        // deliverable yet — its pending backlog grows until the bound bites.
        let mut accepted = 0;
        for at in 1..=6u64 {
            let outcome = flooder.submit(at, query("1", &[0])).unwrap();
            accepted += usize::from(outcome != SubmitOutcome::Shed);
        }
        assert_eq!(accepted, 2, "capacity 2 admits exactly two waiting requests");
        assert_eq!(flooder.shed_count(), 4);
        assert_eq!(server.shed_total(), 4);

        // The shed submissions still advanced the flooder's watermark, so the
        // steady client's later request is deliverable — no livelock.
        let outcome = steady.submit(50, insert(&[(0, 1, 1)])).unwrap();
        assert_eq!(outcome.id().map(|id| id.seq), Some(0));
        assert_eq!(steady.shed_count(), 0, "only the flooder pays for flooding");

        flooder.finish();
        steady.finish();
        server.run();
        let responses = server.take_responses();
        // Exactly the accepted requests executed, with dense sequence numbers.
        assert_eq!(responses[0].len(), 2);
        assert_eq!(responses[0][0].id.seq, 0);
        assert_eq!(responses[0][1].id.seq, 1);
        assert_eq!(responses[1].len(), 1);
        server.with_core(|core| assert_eq!(core.totals().queries, 2));
    }
}
