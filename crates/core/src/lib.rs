//! Moctopus: a PIM-based data management system for regular path queries over
//! graph databases — reproduction of the DAC 2024 paper.
//!
//! The crate assembles the workspace's substrates into the three systems the
//! paper evaluates:
//!
//! * [`MoctopusSystem`] — the paper's contribution: the query processor
//!   dispatches matrix-based operators to simulated PIM modules, the
//!   PIM-friendly greedy-adaptive partitioner with labor division places
//!   low-degree rows on PIM modules and high-degree rows on the host, the node
//!   migrator promotes hubs and repairs incorrectly partitioned nodes, and the
//!   heterogeneous graph storage amortises host-side update cost to the PIM
//!   side.
//! * [`PimHashSystem`] — the contrast system: the identical PIM execution
//!   engine but hash partitioning and no labor division.
//! * [`HostBaseline`] — the RedisGraph-like baseline: GraphBLAS-style sparse
//!   matrix execution on a single dedicated host core.
//!
//! The two PIM systems are one engine written once:
//! [`distributed::DistributedPimEngine`], generic over its
//! [`graph_partition::StreamingPartitioner`]. `MoctopusSystem` and
//! `PimHashSystem` are type aliases of its greedy-adaptive and hash
//! instantiations; they differ in their constructors, their `name()` and
//! Moctopus' refinement pass, never in how a query or an update executes.
//!
//! All three implement the [`GraphEngine`] trait so experiments can sweep over
//! them uniformly, and all three charge their work to the same
//! [`pim_sim`] cost model, which reports a per-phase [`pim_sim::Timeline`]
//! (host compute, PIM compute, CPC, IPC, reduction) as the paper does.
//!
//! # Quick start
//!
//! ```
//! use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem};
//! use graph_store::NodeId;
//!
//! // A small ring graph, streamed in as a graph database would ingest it.
//! let edges: Vec<(NodeId, NodeId)> = (0..64u64)
//!     .map(|i| (NodeId(i), NodeId((i + 1) % 64)))
//!     .collect();
//! let mut system = MoctopusSystem::new(MoctopusConfig::small_test());
//! system.insert_edges(&edges);
//!
//! let (results, stats) = system.k_hop_batch(&[NodeId(0), NodeId(5)], 2);
//! assert_eq!(results[0], vec![NodeId(2)]);
//! assert_eq!(results[1], vec![NodeId(7)]);
//! assert!(stats.timeline.total().as_nanos() > 0.0);
//! ```
#![forbid(unsafe_code)]

pub mod config;
pub mod deps;
pub mod distributed;
pub mod engine;
pub mod host_baseline;
pub mod pim_hash;
pub mod stats;
pub mod system;

pub use config::MoctopusConfig;
pub use deps::{dep_bucket, DepMask, QueryDeps, UpdateFootprint};
pub use engine::GraphEngine;
pub use host_baseline::HostBaseline;
pub use pim_hash::PimHashSystem;
pub use stats::{QueryStats, StatsDelta, UpdateStats};
pub use system::MoctopusSystem;

pub use graph_store::{Label, NodeId, PartitionId};
pub use pim_sim::{Phase, SimTime, Timeline};
