#![deny(missing_docs)]

//! # μDBSCAN — unified entry-point facade
//!
//! This crate is the single front door to the μDBSCAN reproduction. It
//! re-exports the whole core API (`mudbscan-core`: [`MuDbscan`],
//! [`Clustering`], [`naive_dbscan`], …) so existing
//! `use mudbscan::…` code keeps compiling unchanged, and adds:
//!
//! * [`prelude::Runner`] — one fluent builder that runs any of the six
//!   algorithm families (μDBSCAN on one or more threads, distributed,
//!   out-of-core sharded, streaming, OPTICS, serving) and returns the
//!   common [`prelude::RunOutput`], plus [`prelude::Runner::serve`] for
//!   the long-running concurrent service shape (`docs/SERVING.md`);
//! * [`prelude::Runner::run_source`] — clustering over any
//!   [`geom::DataSource`], including the memory-mapped on-disk chunk
//!   store ([`data::ChunkedStore`]) that feeds the sharded executor
//!   without materialising the dataset;
//! * [`MuDbscanError`] — the shared error enum every facade-driven `run`
//!   returns (wrapping [`dist::DistError`], `stream::ServeError`,
//!   `data::StoreError`, and configuration errors).
//!
//! The per-family constructors (`MuDbscan::from_params`, with
//! `.threads(t)` for the parallel run, `MuDbscanD::from_params`,
//! `StreamingMuDbscan::empty` / `from_dataset`, `Optics::from_params`)
//! remain available as low-level entry points — the facade itself and
//! crates that cannot depend on `mudbscan` (e.g. `dist`) build on them —
//! but applications should reach for [`prelude::Runner`] first; see
//! `docs/API.md`.
//!
//! ```
//! use mudbscan::prelude::*;
//!
//! let data = Dataset::from_rows(&[
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1], // a small blob
//!     vec![9.0, 9.0],                                  // an outlier
//! ]);
//! let out = Runner::new(DbscanParams::new(0.5, 3)).run(&data).unwrap();
//! assert_eq!(out.clustering.n_clusters, 1);
//! assert!(out.clustering.is_noise(3));
//! ```

pub mod error;
pub mod prelude;

/// Compiles and runs the worked example in `docs/SERVING.md` as a
/// doctest, so the serving-layer documentation cannot drift from the
/// real API.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/SERVING.md")]
mod serving_doc {}

pub use error::MuDbscanError;
pub use mudbscan_core::*;
