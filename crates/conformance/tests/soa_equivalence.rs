//! SoA kernel equivalence: the batched column-major distance kernel used
//! at point leaves must be **bit-identical** to the per-point scalar
//! fallback — same labels, same core flags, same operation counters,
//! same `query/*` histograms — for every Runner family.
//!
//! Why this holds by construction (and what the test pins): both kernels
//! accumulate the squared distance over dimensions in the same ascending
//! order per point, so every `f64` they produce is the same bit pattern;
//! pruning decisions, emission order and all accounting then agree
//! exactly. A regression in either kernel (reordered accumulation, FMA
//! contraction, a wrong stride) shows up here as a bitwise diff long
//! before it becomes a visible clustering difference.
//!
//! The switch is `rtree::force_scalar_leaf_eval` — process-global, so
//! the whole compare runs under one lock together with the obs windows.

use conformance::{DatasetSpec, Family as DataFamily, FAMILIES};
use geom::{Dataset, DbscanParams};
use mudbscan::prelude::{Family, Runner};
use mudbscan::Clustering;
use obs::Histogram;
use proptest::prelude::*;
use std::sync::Mutex;

/// The obs collector and the scalar-kernel switch are process-global:
/// serialize every measured window.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Everything a run observably produces.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    clustering: Clustering,
    /// (node_visits, range_queries, queries_saved, dist_computations,
    /// union_ops).
    counters: (u64, u64, u64, u64, u64),
    hists: Vec<(String, Histogram)>,
}

/// Run `runner` with the leaf-evaluation kernel pinned to `scalar`,
/// capturing clustering, counters and histograms. Caller must hold
/// `OBS_LOCK`.
fn fingerprint(runner: &Runner, data: &Dataset, scalar: bool) -> Fingerprint {
    rtree::force_scalar_leaf_eval(scalar);
    obs::disable_tracing();
    obs::disable();
    obs::reset();
    obs::enable();
    let out = runner.run(data).expect("run failed");
    obs::disable();
    rtree::force_scalar_leaf_eval(false);
    let mut hists = obs::take_report().hists;
    hists.sort_by(|(a, _), (b, _)| a.cmp(b));
    Fingerprint {
        clustering: out.clustering,
        counters: (
            out.counters.node_visits(),
            out.counters.range_queries(),
            out.counters.queries_saved(),
            out.counters.dist_computations(),
            out.counters.union_ops(),
        ),
        hists,
    }
}

/// Four Runner families, each in a deterministic configuration
/// (μDBSCAN on its default single worker — at t=1 there is no
/// interleaving, so any scalar/batched diff is attributable to the
/// kernels alone).
fn runners(params: DbscanParams) -> Vec<(&'static str, Runner)> {
    vec![
        ("sequential", Runner::new(params)),
        ("distributed-p2", Runner::new(params).ranks(2)),
        ("streaming", Runner::new(params).family(Family::Streaming)),
        ("optics", Runner::new(params).family(Family::Optics)),
    ]
}

fn check_case(
    test: &str,
    family: DataFamily,
    n: usize,
    dim: usize,
    seed: u64,
    eps: f64,
    min_pts: usize,
) -> Result<(), TestCaseError> {
    let spec = DatasetSpec { family, n, dim, seed };
    let data = Dataset::from_rows(&spec.rows());
    let params = DbscanParams::new(eps, min_pts);

    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (label, runner) in runners(params) {
        let scalar = fingerprint(&runner, &data, true);
        let batched = fingerprint(&runner, &data, false);
        prop_assert_eq!(
            &scalar.clustering,
            &batched.clustering,
            "{}/{}: clustering drifted between scalar and batched kernels",
            test,
            label
        );
        prop_assert_eq!(
            scalar.counters,
            batched.counters,
            "{}/{}: counters drifted between scalar and batched kernels",
            test,
            label
        );
        prop_assert_eq!(
            &scalar.hists,
            &batched.hists,
            "{}/{}: histograms drifted between scalar and batched kernels",
            test,
            label
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn blobs_soa_equivalence(seed in 0u64..u64::MAX / 2, n in 8usize..80, dim in 1usize..9,
                             eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("blobs_soa", DataFamily::Blobs, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn uniform_soa_equivalence(seed in 0u64..u64::MAX / 2, n in 8usize..80, dim in 1usize..9,
                               eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("uniform_soa", DataFamily::Uniform, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn chains_soa_equivalence(seed in 0u64..u64::MAX / 2, n in 8usize..80, dim in 1usize..9,
                              eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("chains_soa", DataFamily::Chains, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn duplicates_soa_equivalence(seed in 0u64..u64::MAX / 2, n in 8usize..80, dim in 1usize..9,
                                  eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("duplicates_soa", DataFamily::Duplicates, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn mixed_soa_equivalence(seed in 0u64..u64::MAX / 2, n in 8usize..80, dim in 1usize..9,
                             eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("mixed_soa", DataFamily::Mixed, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }
}

/// Deterministic anchor: every dimension 1..=8 and every dataset family
/// on a fixed seed, so the full dim sweep runs on every CI pass (the
/// proptest cases above sample dims randomly).
#[test]
fn soa_equivalence_all_dims_fixed_seed() {
    for dim in 1..=8usize {
        for family in FAMILIES {
            check_case("fixed_seed", family, 48, dim, 0xB0A + dim as u64, 0.6, 4)
                .unwrap_or_else(|e| panic!("dim {dim} {}: {e}", family.as_str()));
        }
    }
}
