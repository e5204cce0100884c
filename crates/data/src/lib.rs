#![warn(missing_docs)]

//! Dataset generators, the catalog of paper-dataset analogues, and
//! simple file IO.
//!
//! The paper's evaluation uses real datasets we cannot redistribute
//! (Millennium-run galaxy catalogues, a road network, UCI datasets).
//! Each generator below is a *seeded synthetic analogue* reproducing the
//! spatial character that drives the measured phenomena — cluster
//! granularity (number of micro-clusters), density contrast (% queries
//! saved), dimensionality (grid blow-up) — as justified in DESIGN.md §2.

//! ```
//! // Deterministic: the same seed reproduces the same dataset.
//! let a = data::galaxy(1_000, 3, 42);
//! let b = data::galaxy(1_000, 3, 42);
//! assert_eq!(a, b);
//! assert_eq!(a.dim(), 3);
//!
//! // The catalog carries the paper's Table II rows as scaled analogues.
//! let specs = data::paper_table2_specs();
//! assert_eq!(specs.len(), 8);
//! assert_eq!(specs[0].name, "3DSRN");
//! ```

pub mod catalog;
pub mod generators;
pub mod io;
pub mod plot;
pub mod store;

pub use catalog::{paper_table2_specs, DatasetSpec, GeneratorKind};
pub use generators::{
    drifting_stream, galaxy, gaussian_mixture, household, kddbio, road_network, uniform, Normal,
};
pub use store::{write_store, ChunkedStore, StoreError, StoreWriter};
