#![warn(missing_docs)]

//! Micro-clusters and the two-level μR-tree (paper §IV-A/§IV-B).
//!
//! A **micro-cluster** `MC(p)` is the set of points lying strictly within
//! ε of a chosen *center point* `p` (including `p` itself); every point
//! belongs to exactly one MC. The **μR-tree** indexes MC centers in a
//! level-1 index — a hashed 2ε grid on the first three coordinates at
//! every d ([`level1`]) — and each MC's member points in one column-major
//! block, so an ε-query scans a few small blocks ([`scan_block`]) after
//! the reachable-list and MBR filters.
//!
//! Classification (with `MinPts`):
//!
//! * **DMC** (dense): the *inner circle* `IC` — members strictly within
//!   ε/2 of the center, center included — has `|IC| >= MinPts`. Then every
//!   IC point is core (Lemma 1): any two IC points are `< ε` apart, so
//!   `IC ⊆ N_ε(q)` for each `q ∈ IC`.
//! * **CMC** (core): `|MC| >= MinPts`; the center is core (Lemma 2).
//! * **SMC** (sparse): everything else.
//!
//! Note on strictness: the paper writes `IC = {s : DIST(s,p) <= ε/2}`, but
//! with the strict `< ε` neighbourhood definition two points at exactly
//! ε/2 from the center could be exactly ε apart and *not* neighbours. We
//! use strict `< ε/2`, which makes Lemma 1 hold unconditionally and keeps
//! the clustering exact (see DESIGN.md).
//!
//! ```
//! use geom::Dataset;
//! use mcs::{build_micro_clusters, BuildOptions};
//! use metrics::Counters;
//!
//! let data = Dataset::from_rows(&[
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.2, 0.1], // tight knot
//!     vec![9.0, 9.0],                                  // far away
//! ]);
//! let counters = Counters::new();
//! let mut tree = build_micro_clusters(&data, 1.0, &BuildOptions::default(), &counters);
//! tree.compute_reachable(&data, &counters);
//! assert_eq!(tree.mc_count(), 2); // the knot shares one MC, the loner gets its own
//!
//! let mut nbhrs = Vec::new();
//! tree.neighborhood(&data, 0, &mut nbhrs);
//! nbhrs.sort_unstable();
//! assert_eq!(nbhrs, vec![0, 1, 2]);
//! ```

pub mod build;
pub mod level1;
pub mod micro;
pub mod murtree;

pub use build::{build_micro_clusters, build_micro_clusters_par, BuildOptions};
pub use level1::CenterGrid;
pub use micro::{scan_block, McId, McKind, MicroCluster, NO_MC};
pub use murtree::MuRTree;
