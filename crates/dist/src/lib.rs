#![warn(missing_docs)]

//! Distributed DBSCAN algorithms over the BSP cluster simulator, and
//! the out-of-core sharded executor on OS threads.
//!
//! Every exact algorithm here is one partition → local → merge engine:
//! [`partition::plan_shards`] cuts kd shards with ε-halos, each shard is
//! clustered by an exact local stage, [`merge::summarize`] condenses the
//! local result, and [`merge::merge`] stitches the summaries together
//! with one union–find.
//!
//! * [`MuDbscanD`] — the paper's μDBSCAN-D: kd partition with p shards
//!   (one per simulated rank), independent local μDBSCAN per rank, and a
//!   query-light merge over cross-partition ε-pairs.
//! * [`PdsDbscanD`] — Patwary et al.'s PDSDBSCAN-D: same partitioning and
//!   merge, but the local stage is classical R-tree DBSCAN (every point
//!   queried, no wndq-core savings).
//! * [`GridDbscanD`] — distributed GridDBSCAN (inherits the exponential
//!   neighbour-cell memory, so high-d runs return the paper's "Mem Err").
//! * [`HpDbscan`] — HPDBSCAN-style: grid-cell block partitioning with a
//!   load-cost heuristic instead of kd splits, grid-based local stage,
//!   same driver and merge.
//! * [`ShardedMuDbscan`] — the same shard programs on real OS threads
//!   over a chunked source, with shards sized to a memory budget.
//! * [`RpDbscan`] — RP-DBSCAN-style ρ-approximate algorithm on *random*
//!   (non-spatial) partitioning with a global cell dictionary; the one
//!   intentionally approximate baseline (its cluster-count deviation is
//!   reported, mirroring the paper's observations about approximate
//!   competitors), with its own BSP program.
//!
//! ## Exactness of the merge (paper §V-C)
//!
//! The merge reproduces `mudbscan::naive_dbscan` *bit for bit* — labels,
//! core flags and noise — for any partition, rank count, shard count or
//! thread count:
//!
//! 1. **Core flags are exact.** A shard's ε-halo holds every remote
//!    point strictly within ε of its region, so an owned point's whole
//!    ε-neighbourhood is local and its core flag is the true one.
//! 2. **The core partition is exact.** A shard sees only a *subset* of a
//!    halo point's neighbourhood, so it can only under-mark halo cores:
//!    every locally-core point is truly core, and each local cluster's
//!    core members (own cores plus locally-core halo points) form a
//!    valid seed group. Every core–core ε-pair is either inside one
//!    shard's view (the local stage connects it) or crosses a boundary
//!    (the halo point's ε-query collects it as a core→halo edge, and the
//!    merge unions it once the owner confirms the far end is core).
//! 3. **Borders resolve canonically.** The oracle attaches each non-core
//!    point to its minimum-id core ε-neighbour. Each shard records, per
//!    owned non-core point, the sorted global ids of its ε-neighbours
//!    that can be core — owned cores and halo points (complete, by halo
//!    completeness; short, since a non-core point has fewer than MinPts
//!    neighbours) — and the merge picks the first globally-core one. No
//!    partition-dependent tie-break survives into the output.
//!
//! `Clustering::from_union_find` then numbers clusters in point-id
//! order. Against the single-heap μDBSCAN families the output is
//! paper-exact (identical cores, core partition and noise): a border
//! point within ε of cores in two clusters may join the other one,
//! because μDBSCAN resolves that tie by processing order. DBSCAN leaves
//! the choice order-defined; `check_exact` accepts both.
//!
//! ```
//! use dist::{DistConfig, MuDbscanD};
//! use geom::DbscanParams;
//!
//! let rows: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![0.1 * (i % 50) as f64 + 10.0 * (i / 50) as f64, 0.0])
//!     .collect();
//! let data = geom::Dataset::from_rows(&rows);
//! let out = MuDbscanD::from_params(DbscanParams::new(0.3, 4), DistConfig::new(4))
//!     .run(&data)
//!     .unwrap();
//! assert_eq!(out.clustering.n_clusters, 2); // two strips, one per group of 50
//! assert!(out.runtime_secs > 0.0);
//! ```

pub mod driver;
pub mod hpdbscan;
pub mod merge;
pub mod mudbscan_d;
pub mod recovery;
pub mod rpdbscan;
pub mod sharded;

pub use driver::{run_distributed, DistError, DistOutput, LocalRun};
pub use hpdbscan::HpDbscan;
pub use merge::LocalView;
pub use mudbscan_d::{DistConfig, GridDbscanD, MuDbscanD, PdsDbscanD};
pub use recovery::{Checkpoint, FaultConfig};
pub use rpdbscan::RpDbscan;
pub use sharded::{ShardedMuDbscan, ShardedOptions, ShardedOutput};
