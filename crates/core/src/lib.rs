#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // dimension-indexed numeric loops are clearer as index loops

//! # μDBSCAN — exact micro-cluster-based DBSCAN
//!
//! Reproduction of *μDBSCAN: An Exact Scalable DBSCAN Algorithm for Big
//! Data Exploiting Spatial Locality* (Sarma et al., IEEE CLUSTER 2019).
//!
//! The algorithm produces **exactly** the clustering of classical DBSCAN
//! (same core points, same core→cluster membership, same cluster count,
//! same noise set) while skipping the ε-neighbourhood query for a large
//! fraction of points:
//!
//! 1. the dataset is partitioned into ε-ball **micro-clusters** indexed by
//!    a two-level **μR-tree** (crate [`mcs`]);
//! 2. *dense* and *core* micro-clusters prove their inner-circle points /
//!    centers core **without any query** (paper Lemmas 1–2) — these are
//!    the "wndq-core" points;
//! 3. the remaining points run ε-queries restricted to **reachable**
//!    micro-clusters (Lemma 3), dynamically promoting more wndq-cores;
//! 4. two post-processing passes stitch wndq-core clusters together and
//!    rescue mislabelled noise, establishing every DBSCAN connection
//!    (paper Theorem 1).
//!
//! ## Quickstart
//!
//! ```
//! use geom::{Dataset, DbscanParams};
//! use mudbscan_core::MuDbscan;
//!
//! let data = Dataset::from_rows(&[
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1], // a small blob
//!     vec![9.0, 9.0],                                  // an outlier
//! ]);
//! let out = MuDbscan::from_params(DbscanParams::new(0.5, 3)).run(&data);
//! assert_eq!(out.clustering.n_clusters, 1);
//! assert!(out.clustering.is_noise(3));
//! ```

pub mod algorithm;
pub mod clustering;
pub mod params;
pub mod quality;
pub mod reference;

pub use algorithm::{MuDbscan, MuDbscanOutput};
pub use clustering::{check_exact, Clustering, ExactnessReport, NOISE};
pub use params::{k_dist_curve, suggest_eps};
pub use quality::{adjusted_rand_index, normalized_mutual_information};
pub use reference::naive_dbscan;
