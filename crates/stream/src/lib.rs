#![deny(missing_docs)]

//! # stream — insertion-incremental μDBSCAN and its serving layer
//!
//! The paper closes with "this approach can also be adopted to fast
//! clustering of data streams". This crate implements that extension
//! twice over:
//!
//! * [`StreamingMuDbscan`] — the single-owner engine: ingest points one
//!   at a time and, **after every insertion, hold exactly the DBSCAN
//!   clustering of the points seen so far** (validated against the
//!   batch oracle in the tests);
//! * [`serve::ServingMuDbscan`] — the concurrent serving layer on top:
//!   a writer thread applies batched inserts **plus deletions and
//!   TTL expiry**, publishing immutable epoch [`serve::Snapshot`]s that
//!   any number of reader threads answer from without blocking on
//!   writers. Reach it through `Runner::serve` on the facade (see
//!   `docs/SERVING.md`).
//!
//! The incremental semantics follow Ester et al.'s IncrementalDBSCAN
//! (1998) specialised to insertions, accelerated with the paper's
//! micro-cluster machinery:
//!
//! * points are assigned to ε-ball micro-clusters maintained online
//!   (the center index is `mcs::CenterGrid`: a hashed 2ε grid on the
//!   first three coordinates at every d), and each MC's live members
//!   are one column-major block that grows on insert and shrinks on
//!   removal;
//! * an ε-query for a point only searches MCs whose center is strictly
//!   within 2ε (a point within ε of `p` is within ε of its own center,
//!   so its center is within 2ε of `p`);
//! * per-point ε-neighbour **counts** are maintained instead of lists:
//!   inserting `p` increments the count of each of its neighbours;
//!   points whose count crosses `MinPts` are *promoted* to core and run
//!   one ε-query each to wire up their cluster edges — everything else
//!   needs no recomputation.
//!
//! Deletions are exact too, and **local**: removing a point
//! ([`StreamingMuDbscan::try_remove`]) tombstones it, deletes it from
//! its MC's block, decrements its live neighbours' counts and
//! demotes cores that fall below `MinPts` — then, because a deletion
//! can split clusters and the union–find cannot unsplit, walks the
//! surviving core graph from the cores around the removed ones until
//! it has found the pieces a split leaves, and moves each piece that
//! split off to a fresh set. The serving layer applies removals
//! through this repair per-op and falls back to an exact rebuild over
//! the compacted live set when the blast radius exceeds its budget
//! (see [`serve`]); either way every published epoch stays
//! bit-identical to a batch run on the same points.
//!
//! ```
//! use geom::DbscanParams;
//! use stream::StreamingMuDbscan;
//!
//! let mut s = StreamingMuDbscan::empty(1, DbscanParams::new(1.0, 3));
//! s.insert(&[0.0]);
//! s.insert(&[0.5]);
//! assert_eq!(s.canonical_snapshot().n_clusters, 0); // two points, nobody core yet
//! s.insert(&[-0.5]);
//! let c = s.canonical_snapshot();
//! assert_eq!(c.n_clusters, 1); // the middle point crossed MinPts
//! assert!(c.is_core[0]);
//! ```

pub mod incremental;
pub mod serve;

pub use incremental::{RemoveOutcome, StreamingMuDbscan};
pub use serve::{
    Drained, ExtId, Membership, ServeError, ServeHandle, ServeOp, ServeOptions, ServeStats,
    ServingMuDbscan, Snapshot,
};
