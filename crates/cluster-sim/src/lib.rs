#![warn(missing_docs)]

//! # cluster-sim — a deterministic BSP distributed-memory simulator
//!
//! The paper evaluates μDBSCAN-D on a 32-node MPI cluster. This crate is
//! the workspace's substitute: a **bulk-synchronous-parallel** engine in
//! which `p` ranks own private state and communicate only through typed
//! messages routed by the engine between supersteps.
//!
//! Why BSP is a faithful model here: the phases of μDBSCAN-D after
//! partitioning (independent local clustering, the per-rank merge
//! summary, the exchange of cross-partition merge facts) are
//! bulk-synchronous in the original MPI code too — computation
//! alternates with collective communication.
//!
//! ## Virtual time
//!
//! Each rank carries a **virtual clock**. The engine runs ranks one
//! after another on the calling thread, measures each rank's compute
//! time per superstep, and advances the *makespan* by the per-step
//! maximum plus an α–β communication cost (`latency + max-per-rank-bytes
//! / bandwidth`, the BSP `L + g·h` term) — exact on any host, including
//! a single-core one. Speedup numbers derived from the makespan therefore
//! reproduce the *shape* of real cluster scaling. (Real OS-thread
//! execution of the same shard programs is `dist::ShardedMuDbscan`.)
//!
//! ```
//! use cluster_sim::{Bsp, Envelope};
//!
//! // Four ranks compute locally, then shift their results around a ring.
//! let mut bsp = Bsp::new(vec![0u64; 4]);
//! bsp.phase("compute");
//! bsp.run(|rank, state| *state = (rank as u64 + 1) * 100);
//! bsp.phase("shift");
//! bsp.exchange(
//!     |rank, state| vec![Envelope::new((rank + 1) % 4, *state)],
//!     |_rank, state, inbox| *state = inbox[0].1,
//! );
//! assert_eq!(bsp.states(), &[400, 100, 200, 300]);
//! assert!(bsp.makespan() > 0.0);
//! assert!(bsp.phase_times().secs("shift") > 0.0);
//! ```
//!
//! ## Fault injection
//!
//! The [`fault`] module injects deterministic, seed-addressed
//! [`FaultPlan`]s at the router: fail-stop crashes at a chosen
//! superstep, message drop/duplication/reorder on chosen links, and
//! stragglers that skew a rank's virtual clock. A reliable delivery
//! layer (timeout/retry-with-backoff, [`RetryConfig`]) and
//! [`Bsp::recover`] (re-execute a crashed rank without advancing the
//! superstep counter) let the distributed algorithms produce
//! bit-identical output under faults; [`FaultStats::replay_signature`]
//! pins the exact counter trace for replay gating. See
//! `docs/API.md` for the cookbook.

pub mod bsp;
pub mod fault;
pub mod msgsize;

pub use bsp::{Bsp, CommModel, Envelope, RankClock};
pub use fault::{Fault, FaultPlan, FaultStats, RetryConfig};
pub use msgsize::MsgSize;
