//! Proptest: fault injection never changes the answer.
//!
//! For randomized [`FaultPlan`]s — covering every fault class the
//! μDBSCAN-D program shape admits (crash, halo-message drop, duplication,
//! inbox reorder, straggler) — across the Blobs / Uniform / Chains dataset
//! families and ranks ∈ {2, 4}:
//!
//! 1. the recovered clustering must be bit-identical to the fault-free
//!    run of the same configuration, and
//! 2. replaying the same plan seed must reproduce the same retry and
//!    recovery counters ([`FaultStats::replay_signature`]).

use conformance::{DatasetSpec, Family};
use geom::{Dataset, DbscanParams};
use mudbscan::prelude::{Fault, FaultPlan, RunDetails, Runner};
use mudbscan::Clustering;
use proptest::prelude::*;

/// μDBSCAN-D's superstep layout: local clustering (0) and the merge
/// summary (1) are compute supersteps; the exchange of cross-partition
/// merge facts is superstep 2. Mirrors `dist/tests/fault_recovery.rs`.
const COMPUTE_STEPS: &[usize] = &[0, 1];
const EXCHANGE_STEPS: &[usize] = &[2];

/// Runs μDBSCAN-D on `data`, optionally under `plan`, returning the
/// clustering and the fault-layer replay signature.
fn dist_run(
    params: DbscanParams,
    ranks: usize,
    plan: Option<FaultPlan>,
    data: &Dataset,
) -> Result<(Clustering, [u64; 10]), TestCaseError> {
    let mut runner = Runner::new(params).ranks(ranks);
    if let Some(plan) = plan {
        runner = runner.fault_plan(plan);
    }
    let out = match runner.run(data) {
        Ok(out) => out,
        Err(e) => return Err(TestCaseError::fail(format!("distributed run failed: {e}"))),
    };
    let RunDetails::Distributed { ref fault_stats, .. } = out.details else {
        return Err(TestCaseError::fail("ranks() run must report distributed details"));
    };
    Ok((out.clustering, fault_stats.replay_signature()))
}

fn check(
    family: Family,
    n: usize,
    dim: usize,
    seed: u64,
    eps: f64,
    min_pts: usize,
    ranks: usize,
) -> Result<(), TestCaseError> {
    let spec = DatasetSpec { family, n, dim, seed };
    let data = Dataset::from_rows(&spec.rows());
    let params = DbscanParams::new(eps, min_pts);

    let (clean, clean_sig) = dist_run(params, ranks, None, &data)?;
    prop_assert_eq!(clean_sig, [0u64; 10], "fault-free run must be quiet");

    let plan = FaultPlan::generate(seed, ranks, COMPUTE_STEPS, EXCHANGE_STEPS);
    let (faulted, sig) = dist_run(params, ranks, Some(plan.clone()), &data)?;
    prop_assert_eq!(
        &faulted,
        &clean,
        "recovery must be exact: family={:?} n={} dim={} seed={} ranks={} plan={:?}",
        family,
        n,
        dim,
        seed,
        ranks,
        plan
    );
    // Message faults aimed at idle links leave no counter trace, but a
    // scheduled crash or straggler always manifests.
    let has_crash = plan.faults.iter().any(|f| matches!(f, Fault::Crash { .. }));
    let has_straggler = plan.faults.iter().any(|f| matches!(f, Fault::Straggler { .. }));
    prop_assert!(!has_crash || sig[0] >= 1, "scheduled crash left no counter trace: {:?}", sig);
    prop_assert!(
        !has_straggler || sig[8] >= 1,
        "scheduled straggler left no counter trace: {:?}",
        sig
    );

    // Replay: the same plan seed must reproduce the exact counters.
    let replay_plan = FaultPlan::generate(seed, ranks, COMPUTE_STEPS, EXCHANGE_STEPS);
    let (replayed, replay_sig) = dist_run(params, ranks, Some(replay_plan), &data)?;
    prop_assert_eq!(replay_sig, sig, "replaying seed {} must reproduce the counters", seed);
    prop_assert_eq!(replayed, faulted);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blobs_recover_exactly(seed in 0u64..u64::MAX / 2, n in 8usize..48, dim in 1usize..5,
                             eps_steps in 1usize..10, min_pts in 1usize..6,
                             four_ranks in any::<bool>()) {
        let ranks = if four_ranks { 4 } else { 2 };
        check(Family::Blobs, n, dim, seed, eps_steps as f64 * 0.15, min_pts, ranks)?;
    }

    #[test]
    fn uniform_recover_exactly(seed in 0u64..u64::MAX / 2, n in 8usize..48, dim in 1usize..5,
                               eps_steps in 1usize..10, min_pts in 1usize..6,
                               four_ranks in any::<bool>()) {
        let ranks = if four_ranks { 4 } else { 2 };
        check(Family::Uniform, n, dim, seed, eps_steps as f64 * 0.15, min_pts, ranks)?;
    }

    #[test]
    fn chains_recover_exactly(seed in 0u64..u64::MAX / 2, n in 8usize..48, dim in 1usize..5,
                              eps_steps in 1usize..10, min_pts in 1usize..6,
                              four_ranks in any::<bool>()) {
        let ranks = if four_ranks { 4 } else { 2 };
        check(Family::Chains, n, dim, seed, eps_steps as f64 * 0.15, min_pts, ranks)?;
    }
}
