//! Cost-model simulator of an UPMEM-like processing-in-memory (PIM) platform.
//!
//! The Moctopus paper evaluates on real UPMEM DIMMs: a powerful host CPU plus
//! ranks of 64 PIM modules, each with a wimpy general-purpose core and 64 MB
//! of local MRAM. That hardware is not available here, so this crate provides
//! a *functional + analytic* substitute: callers execute their algorithms
//! normally (the data structures live in ordinary process memory) and charge
//! every memory access, computation, and transfer to the simulator, which
//! converts the charges into simulated time using published UPMEM bandwidth
//! and latency figures.
//!
//! The crate models the three properties the paper's evaluation hinges on:
//!
//! 1. **Abundant intra-PIM bandwidth** — every module has its own MRAM link
//!    (~625 MB/s), so aggregate bandwidth scales with the number of modules.
//! 2. **Scarce CPU↔PIM bandwidth** — all CPC (CPU–PIM communication) and IPC
//!    (inter-PIM communication, realised by CPU forwarding) share one narrow
//!    bus (<2 % of aggregate intra-PIM bandwidth).
//! 3. **Parallel execution with stragglers** — a batch step completes when the
//!    *slowest* module finishes, which is how load imbalance from graph
//!    skewness turns into latency. [`PimSystem`] keeps each module's
//!    accumulated busy time for its load-imbalance report.
//!
//! MRAM capacity is not modelled: the engines build their module stores
//! without a cap.
//!
//! # Examples
//!
//! ```
//! use pim_sim::{PimConfig, PimSystem, SimTime};
//!
//! let mut sys = PimSystem::new(PimConfig::upmem_rank());
//! // Charge a parallel step: module 0 reads 1 KiB, the rest are idle.
//! let times: Vec<_> = (0..sys.module_count())
//!     .map(|m| if m == 0 { sys.mram_read_cost(1024) } else { SimTime::ZERO })
//!     .collect();
//! let step = sys.parallel_step(&times);
//! assert!(step > SimTime::ZERO);
//! ```
#![forbid(unsafe_code)]

pub mod config;
pub mod system;
pub mod time;
pub mod timeline;
pub mod transfer;

pub use config::{HostConfig, PimConfig};
pub use system::PimSystem;
pub use time::SimTime;
pub use timeline::{Phase, Timeline};
pub use transfer::TransferStats;
