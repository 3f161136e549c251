//! Concurrent query serving for the Moctopus engines, with an
//! update-consistent RPQ result cache.
//!
//! The engines in `moctopus` execute one batch at a time for one caller; a
//! production deployment serves interleaved regular path queries and graph
//! updates from many clients, and real RPQ traffic is heavily repetitive —
//! the same path expressions over the same popular start sets, between
//! updates that touch a tiny fraction of the graph. This crate adds that
//! serving layer:
//!
//! * [`QueryServer`] — the sequential serving core: normalizes each query
//!   ([`rpq::RpqExpr::normalize`]), answers repeats from a [`ResultCache`],
//!   executes misses and updates on any [`moctopus::GraphEngine`], and keeps
//!   deterministic simulated-time totals ([`ServeTotals`]).
//! * [`ResultCache`] — keyed by normalized expression + source batch,
//!   invalidated *precisely* through the engine-reported dependency
//!   footprints (`moctopus::deps`): per-label source buckets for answers,
//!   label-blind structural buckets plus a host-store flag for simulated
//!   costs. Two consistency modes ([`ConsistencyMode`]): under the default
//!   cost-exact mode a hit is bit-identical — results *and* stats — to
//!   re-executing the query; row-exact mode caches per *(expression,
//!   source)* row, so overlapping batches share entries.
//! * [`ConcurrentServer`] / [`Session`] — many client threads submitting at
//!   logical timestamps, executed in the deterministic total order
//!   `(at, client, seq)` via `moctopus_runtime::SequencedQueue`, so
//!   same-trace runs are byte-identical no matter how the OS schedules the
//!   clients. [`ConcurrentServer::bounded`] adds per-producer admission
//!   control: a flooding session is shed at its capacity
//!   ([`SubmitOutcome::Shed`]) without ever stalling other sessions.
//! * [`ShardedEngine`] / [`ShardPlan`] — the sharded execution plane: N
//!   lockstep engine replicas behind a frozen node → placement-group plan,
//!   with canonical scatter/merge so every served byte is shard-count
//!   invariant and only [`ShardThroughput`] (a JSON-only observable) scales
//!   with N.
//! * [`DurableEngine`] — the durable storage plane: a write-ahead log of
//!   every update batch plus periodic versioned snapshots
//!   (`graph_store::durable`), recovering after a crash to a state that is
//!   byte-identical — results, stats, dependency footprints — to a server
//!   that never crashed (STORAGE.md).
//!
//! Same-timestamp miss collapsing ([`CacheOutcome::Collapsed`]) absorbs
//! viral duplicate queries even with the cache disabled.
//!
//! SERVING.md walks the architecture, the cache-consistency argument (why
//! stale reads are impossible), the cost accounting, and the scale-out
//! story (collapsing §6, sharding §7, backpressure §8); the `serve` binary
//! in `moctopus_bench` drives a mixed open-loop trace through this layer.
//!
//! # Quick start
//!
//! ```
//! use graph_store::{Label, NodeId};
//! use moctopus::{MoctopusConfig, MoctopusSystem};
//! use moctopus_server::{CacheOutcome, QueryServer, Request, RequestKind, ServerConfig};
//!
//! let engine = MoctopusSystem::new(MoctopusConfig::small_test());
//! let mut server = QueryServer::new(Box::new(engine), ServerConfig::default());
//!
//! // Ingest a small cycle, then serve the same query twice.
//! let edges = (0..6u64).map(|i| (NodeId(i), NodeId((i + 1) % 6), Label(1))).collect();
//! server.execute_next(Request { at: 1, kind: RequestKind::Insert { edges } });
//! let query = || RequestKind::Query {
//!     expr: rpq::parser::parse("1/1").unwrap(),
//!     sources: vec![NodeId(0)],
//! };
//! let miss = server.execute_next(Request { at: 2, kind: query() });
//! let hit = server.execute_next(Request { at: 3, kind: query() });
//! assert_eq!(miss.results(), hit.results());
//! assert_eq!(hit.cache_outcome(), Some(CacheOutcome::Hit));
//! assert!(server.totals().saved_nanos() > 0.0);
//! ```
#![forbid(unsafe_code)]

pub mod cache;
pub mod durability;
pub mod request;
pub mod server;
pub mod session;
pub mod shard;

pub use cache::{CacheConfig, CacheKey, CacheStats, ConsistencyMode, ResultCache};
pub use durability::{DurabilityOptions, DurableEngine, RecoveryReport};
pub use request::{
    CacheOutcome, ClientId, Request, RequestId, RequestKind, Response, ResponseBody,
};
pub use server::{QueryServer, ServeTotals, ServerConfig};
pub use session::{ConcurrentServer, Session, SubmitOutcome};
pub use shard::{ShardPlan, ShardThroughput, ShardedEngine};
