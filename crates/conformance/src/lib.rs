#![warn(missing_docs)]

//! Differential conformance harness for the workspace's exact DBSCAN
//! implementations.
//!
//! Every algorithm that claims paper-exactness is registered behind the
//! [`ExactDbscan`] trait ([`registry()`] enumerates them all: sequential
//! μDBSCAN under every ablation-knob combination, `MuDbscan` at several
//! thread counts, the three sequential baselines, and μDBSCAN-D at several
//! simulated rank counts). The harness runs each of them against the O(n²)
//! [`mudbscan::naive_dbscan`] oracle on randomized datasets drawn from the
//! families in [`datasets`] and checks the result with
//! [`mudbscan::check_exact`].
//!
//! When an implementation disagrees with the oracle, the failing dataset is
//! first minimized with the delta-debugging shrinker in [`shrink`] (rows
//! are greedily removed while the disagreement persists — re-validated
//! against the oracle at every step), then dumped as a JSON artifact to
//! `results/failures/<test>-<seed>.json` by [`artifact`]. The
//! `tests/replay.rs` suite replays every artifact found there, so each
//! past counterexample becomes a standing regression test.
//!
//! Determinism: dataset generation is seeded ([`datasets::DatasetSpec`]),
//! and the proptest shim derives its case seeds from the test name —
//! `PROPTEST_SEED` reproduces a run, `PROPTEST_CASES` caps CI cost.

pub mod artifact;
pub mod datasets;
pub mod harness;
pub mod registry;
pub mod shrink;

pub use artifact::FailureArtifact;
pub use datasets::{DatasetSpec, Family, FAMILIES};
pub use harness::{differential, run_case, CaseOutcome};
pub use registry::{registry, ExactDbscan};
pub use shrink::minimize;
