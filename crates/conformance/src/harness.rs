//! The differential driver: one dataset, every implementation, one oracle.

use geom::{Dataset, DbscanParams};
use mudbscan::{check_exact, naive_dbscan, ExactnessReport};

use crate::artifact::FailureArtifact;
use crate::datasets::DatasetSpec;
use crate::registry::registry;
use crate::shrink::minimize;

/// What running the full registry on one dataset produced.
#[derive(Debug)]
pub struct CaseOutcome {
    /// Implementations that declined the input, with their reason (e.g.
    /// GridDBSCAN's memory budget at high dimension).
    pub skipped: Vec<(String, String)>,
    /// Implementations whose clustering was not exact, with the failed
    /// criteria.
    pub disagreements: Vec<(String, ExactnessReport)>,
}

/// Run every registered implementation on `rows` and compare each result
/// against the [`naive_dbscan`] oracle.
pub fn run_case(rows: &[Vec<f64>], params: &DbscanParams) -> CaseOutcome {
    let data = Dataset::from_rows(rows);
    let reference = naive_dbscan(&data, params);
    let mut outcome = CaseOutcome { skipped: Vec::new(), disagreements: Vec::new() };
    for imp in registry() {
        match imp.run(&data, params) {
            Err(reason) => outcome.skipped.push((imp.name().to_string(), reason)),
            Ok((clustering, _)) => {
                let report = check_exact(&clustering, &reference, &data, params);
                if !report.is_exact() {
                    outcome.disagreements.push((imp.name().to_string(), report));
                }
            }
        }
    }
    outcome
}

/// Run one differential case end to end: generate the dataset from `spec`,
/// compare every implementation against the oracle, and on any
/// disagreement minimize the dataset, dump a replay artifact, and return
/// an error describing where it was written.
pub fn differential(test: &str, spec: &DatasetSpec, params: &DbscanParams) -> Result<(), String> {
    let rows = spec.rows();
    let outcome = run_case(&rows, params);
    if outcome.disagreements.is_empty() {
        return Ok(());
    }

    // Shrink while *any* implementation still disagrees with the oracle —
    // every candidate is re-clustered and re-checked, so the minimized
    // rows are a genuine counterexample, not an artifact of the shrinker.
    let minimized = minimize(rows, |rs| !run_case(rs, params).disagreements.is_empty());
    let final_outcome = run_case(&minimized, params);
    let disagreeing: Vec<String> =
        final_outcome.disagreements.iter().map(|(name, _)| name.clone()).collect();

    let artifact = FailureArtifact {
        test: test.to_string(),
        seed: spec.seed,
        family: spec.family.as_str().to_string(),
        dim: spec.dim,
        eps: params.eps,
        min_pts: params.min_pts,
        disagreeing: disagreeing.clone(),
        rows: minimized,
    };
    let location = match artifact.dump() {
        Ok(path) => path.display().to_string(),
        Err(e) => format!("<artifact dump failed: {e}>"),
    };
    Err(format!(
        "{} implementation(s) disagree with naive_dbscan on a {}-point {} dataset \
         (eps={}, min_pts={}, seed={}): [{}]; minimized counterexample written to {} — \
         replay it with `cargo test -p conformance --test replay`",
        disagreeing.len(),
        artifact.rows.len(),
        artifact.family,
        params.eps,
        params.min_pts,
        spec.seed,
        disagreeing.join(", "),
        location,
    ))
}

/// Re-run a stored artifact against the current registry.
pub fn replay(artifact: &FailureArtifact) -> CaseOutcome {
    let params = DbscanParams::new(artifact.eps, artifact.min_pts);
    run_case(&artifact.rows, &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Family;

    #[test]
    fn clean_case_reports_no_disagreements() {
        let spec = DatasetSpec { family: Family::Blobs, n: 24, dim: 2, seed: 11 };
        differential("harness-smoke", &spec, &DbscanParams::new(0.4, 3)).unwrap();
    }

    #[test]
    fn grid_baseline_skip_is_recorded_not_failed() {
        // GridDBSCAN declines very high dimensions (3^d neighbour cells);
        // that must surface as a skip, never a disagreement.
        let spec = DatasetSpec { family: Family::Uniform, n: 16, dim: 8, seed: 3 };
        let outcome = run_case(&spec.rows(), &DbscanParams::new(0.8, 3));
        assert!(outcome.disagreements.is_empty(), "{:?}", outcome.disagreements);
    }
}
