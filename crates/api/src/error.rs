//! The shared error type of the facade.

use data::StoreError;
use dist::DistError;
use stream::ServeError;

/// Everything a facade-driven run can fail with.
///
/// Algorithms in this workspace are total over valid inputs — the
/// runtime failures are configuration mistakes caught by
/// [`crate::prelude::Runner::run`] before the run starts, input a run
/// cannot cluster (a NaN or ±∞ coordinate, caught by
/// [`crate::prelude::Runner::run_source`] before any family sees it),
/// distributed local-stage errors
/// (e.g. a rank's GridDBSCAN exceeding its memory budget) surfaced as
/// [`DistError`], and serving-layer failures surfaced as
/// [`ServeError`] — a dimension mismatch or a NaN/±∞ coordinate at
/// ingest/query time, a handle used after its writer thread shut down,
/// or a postmortem artifact that could not be written
/// ([`stream::ServeError::Postmortem`], an I/O failure that leaves the
/// engine itself serving), and on-disk dataset failures surfaced as
/// [`StoreError`] — a truncated or corrupt chunk store, a dimension
/// mismatch between the store header and the runner, or a plain
/// filesystem error while writing or mapping chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuDbscanError {
    /// The builder was given an inconsistent configuration (the message
    /// names the offending knob and the family it clashes with).
    InvalidConfig(String),
    /// The input cannot be clustered (the message names the first
    /// non-finite coordinate).
    InvalidInput(String),
    /// A distributed run failed.
    Dist(DistError),
    /// A serving-layer operation failed.
    Serve(ServeError),
    /// An on-disk dataset (chunked store) operation failed.
    Io(StoreError),
}

impl std::fmt::Display for MuDbscanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuDbscanError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MuDbscanError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            MuDbscanError::Dist(e) => write!(f, "distributed run failed: {e}"),
            MuDbscanError::Serve(e) => write!(f, "serving operation failed: {e}"),
            MuDbscanError::Io(e) => write!(f, "dataset store operation failed: {e}"),
        }
    }
}

impl std::error::Error for MuDbscanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MuDbscanError::Dist(e) => Some(e),
            MuDbscanError::Serve(e) => Some(e),
            MuDbscanError::Io(e) => Some(e),
            MuDbscanError::InvalidConfig(_) | MuDbscanError::InvalidInput(_) => None,
        }
    }
}

impl From<DistError> for MuDbscanError {
    fn from(e: DistError) -> Self {
        MuDbscanError::Dist(e)
    }
}

impl From<ServeError> for MuDbscanError {
    fn from(e: ServeError) -> Self {
        MuDbscanError::Serve(e)
    }
}

impl From<StoreError> for MuDbscanError {
    fn from(e: StoreError) -> Self {
        MuDbscanError::Io(e)
    }
}
