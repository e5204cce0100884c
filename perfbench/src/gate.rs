//! The exactness gate: every operation the benchmark times is attempted
//! through [`Gate::run`], and every clustering it produces is verified
//! with `check_exact` outside the timed region. An `Err`, a panic, an
//! exactness mismatch or a deterministic count that does not repeat
//! marks the operation failed.

use mudbscan::check_exact;
use mudbscan::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// Attempt one operation; `None` (and one failure) on `Err` or panic.
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, &e);
                None
            }
            Err(_) => {
                self.fail(what, "panicked");
                None
            }
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {why}");
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Verifies candidates against one reference clustering, remembering
/// every candidate already shown exact so that a repeated, bit-identical
/// output costs one comparison instead of another `check_exact`.
pub struct Verifier<'a> {
    reference: &'a Clustering,
    data: &'a Dataset,
    params: DbscanParams,
    passed: Vec<Clustering>,
}

impl<'a> Verifier<'a> {
    pub fn new(reference: &'a Clustering, data: &'a Dataset, params: DbscanParams) -> Self {
        Verifier { reference, data, params, passed: Vec::new() }
    }

    /// Paper exactness of `candidate` (same cores, core partition and
    /// noise; every border next to a core of its cluster).
    pub fn check(&mut self, gate: &mut Gate, what: &str, candidate: &Clustering) -> bool {
        if self.passed.iter().any(|c| c == candidate) {
            return true;
        }
        let exact = candidate.len() == self.reference.len()
            && check_exact(candidate, self.reference, self.data, &self.params).is_exact();
        if exact {
            self.passed.push(candidate.clone());
        } else {
            gate.fail(what, "clustering is not exact");
        }
        exact
    }
}

/// Fails the run when a deterministic count differs between two
/// repetitions with the same seed.
pub fn same_counts(gate: &mut Gate, what: &str, first: &[(&str, f64)], again: &[(&str, f64)]) {
    for ((name, a), (_, b)) in first.iter().zip(again) {
        if a.to_bits() != b.to_bits() {
            gate.fail(what, &format!("deterministic count {name} changed: {a} then {b}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Dataset, DbscanParams) {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64 * 0.01, 0.0]);
            rows.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        rows.push(vec![20.0, 20.0]);
        (Dataset::from_rows(&rows), DbscanParams::new(0.1, 4))
    }

    #[test]
    fn exact_output_passes_and_is_not_counted() {
        let (data, p) = blobs();
        let reference = naive_dbscan(&data, &p);
        let out = Runner::new(p).run(&data).unwrap();
        let mut gate = Gate::default();
        let mut v = Verifier::new(&reference, &data, p);
        assert!(gate.run("seq", || Ok(())).is_some());
        assert!(v.check(&mut gate, "seq", &out.clustering));
        assert_eq!((gate.attempted, gate.failed), (1, 0));
    }

    #[test]
    fn corrupted_clustering_is_counted_as_failed() {
        let (data, p) = blobs();
        let reference = naive_dbscan(&data, &p);
        let mut corrupted = reference.clone();
        // Move one core point of cluster 0 into noise.
        let core = corrupted.is_core.iter().position(|&c| c).unwrap();
        corrupted.labels[core] = NOISE;
        let mut gate = Gate::default();
        let mut v = Verifier::new(&reference, &data, p);
        gate.run("corrupted", || Ok(())).unwrap();
        assert!(!v.check(&mut gate, "corrupted", &corrupted));
        assert_eq!((gate.attempted, gate.failed), (1, 1));
        assert_eq!(gate.failed_frac(), 1.0);
    }

    #[test]
    fn errors_panics_and_count_drift_are_failures() {
        let mut gate = Gate::default();
        assert!(gate.run::<()>("err", || Err("boom".into())).is_none());
        assert!(gate.run::<()>("panic", || panic!("boom")).is_none());
        same_counts(&mut gate, "counts", &[("core.range_queries", 7.0)], &[("x", 8.0)]);
        assert_eq!((gate.attempted, gate.failed), (2, 3));
    }
}
