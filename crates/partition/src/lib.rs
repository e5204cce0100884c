#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // dimension-indexed numeric loops are clearer as index loops

//! Spatial data partitioning for μDBSCAN-D (paper §V-A) plus ε-halos
//! (§V-B).
//!
//! [`plan_shards`] splits the source's kd cells on the axis with the
//! largest spread, at a **sampling-based median** (Patwary et al.'s
//! BD-CATS trick: exact medians of billions of points are too expensive,
//! a strided sample's median is used instead), until it has cut the
//! requested shard count and every shard fits an optional byte bound.
//! The paper's p-rank partition is the plan with `min_shards = p`.
//!
//! [`gather_shard`] then materializes one shard: its owned points plus
//! every remote point strictly within ε of its region box, so every
//! local ε-query is answerable without further communication.
//! [`gather_shards`] materializes all of them in one pass.
//!
//! ```
//! use geom::Dataset;
//! use partition::{gather_shard, plan_shards, ShardingOptions};
//!
//! let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 8) as f64]).collect();
//! let data = Dataset::from_rows(&rows);
//! let opts = ShardingOptions { min_shards: 4, max_shard_bytes: None };
//! let plan = plan_shards(&data, 1.5, &opts);
//! assert_eq!(plan.n_shards(), 4);
//! let shards: Vec<_> = (0..4).map(|s| gather_shard(&data, &plan, s)).collect();
//! let owned: usize = shards.iter().map(|s| s.len()).sum();
//! assert_eq!(owned, 64); // every point owned exactly once
//! for shard in &shards {
//!     // halo points sit strictly within ε of the shard's region
//!     for h in 0..shard.halo_ids.len() {
//!         assert!(shard.region.min_dist_sq(shard.halo.point(h as u32)) < 1.5 * 1.5);
//!     }
//! }
//! ```

pub mod sharding;

pub use sharding::{gather_shard, gather_shards, plan_shards, Shard, ShardPlan, ShardingOptions};
