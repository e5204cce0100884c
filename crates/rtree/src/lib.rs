#![warn(missing_docs)]

//! A point R-tree (Guttman, SIGMOD'84) implemented from scratch.
//!
//! Every tree in the workspace indexes points. Its main roles:
//!
//! * the **single flat R-tree** used by the classical R-DBSCAN baseline,
//! * OPTICS' core-point tree, RP-DBSCAN's cell tree, the distributed
//!   merge's halo tree and the k-dist ε sampler.
//!
//! Neither level of the μR-tree is an R-tree: level 1 is
//! `mcs::CenterGrid`, a hashed 2ε grid on the first three coordinates
//! at every d, and each micro-cluster's members are one
//! [`geom::PointBlock`], scanned by `mcs::scan_block`.
//!
//! Features: ChooseLeaf insertion with Guttman's quadratic split,
//! Sort-Tile-Recursive (STR) bulk loading for static point sets,
//! open ε-ball range queries and k-NN. Internal nodes are pruned with the
//! exact box/sphere distance test, and leaf points are tested with the
//! strict `DIST < ε` membership predicate, so query results need no
//! re-verification.
//!
//! Nodes live in an arena (`Vec<Node>`), children are `u32` indices; no
//! `Box`/`Rc` pointer chasing, and every write is in place. Every leaf
//! stores its points column-major in one shared block
//! ([`geom::soa::PointBlock`]), so sphere queries evaluate a whole leaf
//! with one batched, autovectorizing distance-kernel call; ε-range and
//! k-NN queries share a best-first MINDIST-heap traversal
//! ([`traversal`]).
//!
//! ```
//! use rtree::{RTree, RTreeConfig};
//!
//! // Index four 2-d points, query the open ball around the origin.
//! let mut tree = RTree::new(2);
//! for (id, p) in [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [5.0, 5.0]].iter().enumerate() {
//!     tree.insert_point(id as u32, p);
//! }
//! let mut hits = tree.sphere_neighbors(&[0.0, 0.0], 1.5);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 1]); // strict < 1.5: the point at y=2 is out
//!
//! // Static sets are better served by STR bulk loading.
//! let bulk = RTree::bulk_load_points(
//!     2,
//!     RTreeConfig::default(),
//!     (0..100u32).map(|i| (i, vec![i as f64, 0.0])),
//! );
//! assert_eq!(bulk.len(), 100);
//! assert_eq!(bulk.knn(&[42.2, 0.0], 1)[0].0, 42);
//! ```

pub mod bulk;
pub mod knn;
mod node;
pub mod query;
pub mod traversal;
pub mod tree;

pub use query::QueryCost;
pub use traversal::{force_scalar_leaf_eval, scalar_leaf_eval_forced};
pub use tree::{RTree, RTreeConfig};
