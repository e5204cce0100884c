#![warn(missing_docs)]

//! # mudbscan-repro — μDBSCAN (CLUSTER 2019) in Rust
//!
//! Umbrella crate re-exporting the whole workspace. Most users want:
//!
//! * [`mudbscan::prelude::Runner`] — the unified entry point over all
//!   six algorithm families (μDBSCAN on one or more threads, distributed,
//!   out-of-core sharded — fed from a memory-mapped chunk store via
//!   [`mudbscan::prelude::Runner::run_source`] — streaming, OPTICS,
//!   serving — the last via [`mudbscan::prelude::Runner::serve`], see
//!   `docs/SERVING.md`);
//! * [`data`] — synthetic dataset generators;
//! * [`baselines`] — R-DBSCAN / G-DBSCAN / GridDBSCAN comparators.
//!
//! ```
//! use mudbscan_repro::prelude::*;
//!
//! let dataset = data::gaussian_mixture(2_000, 3, 4, 1.5, 0.05, 42);
//! let out = Runner::new(DbscanParams::new(1.0, 5)).run(&dataset).unwrap();
//! println!("{} clusters, {} noise points, {:.1}% queries saved",
//!          out.clustering.n_clusters,
//!          out.clustering.noise_count(),
//!          out.counters.pct_queries_saved());
//! ```

pub use baselines;
pub use cluster_sim;
pub use data;
pub use dist;
pub use geom;
pub use mcs;
pub use metrics;
pub use mudbscan;
pub use optics;
pub use partition;
pub use rtree;
pub use stream;
pub use unionfind;

/// The items most programs need.
pub mod prelude {
    pub use baselines::{GDbscan, GridDbscan, RDbscan};
    pub use data;
    pub use dist::DistConfig;
    pub use mudbscan::prelude::{
        write_store, ChunkedStore, Clustering, Counters, DataSource, Dataset, DbscanParams, Family,
        Fault, FaultConfig, FaultPlan, FaultStats, Membership, MuDbscanError, RetryConfig,
        RunDetails, RunOutput, Runner, ServeHandle, ServeOp, ServeOptions, Snapshot, StoreError,
        NOISE,
    };
    pub use mudbscan::{check_exact, naive_dbscan};
}
