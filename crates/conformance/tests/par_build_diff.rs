//! Differential suite for the micro-cluster builder with its member
//! blocks filled on worker threads (`mcs::build_micro_clusters_par`), over the same
//! randomized dataset families the main conformance sweep uses. Three
//! properties per case:
//!
//! 1. **partition invariants** — exclusive membership, every member
//!    strictly within ε of its center, centers pairwise ≥ ε apart,
//!    `center == members[0]`, no point unassigned;
//! 2. **one builder** — at threads ∈ {1, 2, 4, 8} the result equals
//!    `build_micro_clusters`'s: the same centers, member lists,
//!    `assignment` and `inner_count`, the same block-scan answers, and the
//!    same construction counters;
//! 3. **downstream exactness** — `MuDbscan` at two threads running on
//!    top of the build still matches the O(n²) `naive_dbscan` oracle.
//!
//! The one-thread engine's work counters are pinned by `engine_golden`.

use conformance::{DatasetSpec, Family, FAMILIES};
use geom::{dist_euclidean, Dataset, DbscanParams};
use mcs::{
    build_micro_clusters, build_micro_clusters_par, scan_block, BuildOptions, McId, MuRTree,
};
use metrics::Counters;
use mudbscan::{check_exact, naive_dbscan, MuDbscan};
use proptest::prelude::*;

/// Assert the μR-tree is a valid MC partition of `data` for `eps`.
fn assert_partition(label: &str, data: &Dataset, t: &MuRTree, eps: f64) {
    let mut seen = vec![false; data.len()];
    for (id, mc) in t.mcs.iter().enumerate() {
        assert_eq!(mc.center, mc.block.item(0), "{label}: center must be first member");
        for &m in mc.block.items() {
            assert!(!seen[m as usize], "{label}: point {m} in two MCs");
            seen[m as usize] = true;
            assert_eq!(t.assignment[m as usize], id as McId, "{label}: assignment mismatch");
            assert!(
                dist_euclidean(data.point(m), data.point(mc.center)) < eps,
                "{label}: member outside its MC ball"
            );
        }
    }
    assert!(seen.iter().all(|&s| s), "{label}: unassigned point");
    for (i, a) in t.mcs.iter().enumerate() {
        for b in t.mcs.iter().skip(i + 1) {
            assert!(
                dist_euclidean(data.point(a.center), data.point(b.center)) >= eps,
                "{label}: two MC centers within eps"
            );
        }
    }
}

/// Per MC: center, member list, `inner_count`, and the answer of its
/// block scan to an ε-query around every member — the identity of a
/// build result as the clustering steps see it.
type Fingerprint = Vec<(u32, Vec<u32>, u32, Vec<Vec<u32>>)>;

fn fingerprint(data: &Dataset, t: &MuRTree, eps: f64) -> Fingerprint {
    t.mcs
        .iter()
        .map(|mc| {
            let answers = mc
                .block
                .items()
                .iter()
                .map(|&m| {
                    let mut hits = Vec::new();
                    scan_block(&mc.block, data.point(m), eps * eps, |q| hits.push(q));
                    hits
                })
                .collect();
            (mc.center, mc.block.items().to_vec(), mc.inner_count, answers)
        })
        .collect()
}

fn check_case(
    test: &str,
    family: Family,
    n: usize,
    dim: usize,
    seed: u64,
    eps: f64,
    min_pts: usize,
) -> Result<(), TestCaseError> {
    let spec = DatasetSpec { family, n, dim, seed };
    let data = Dataset::from_rows(&spec.rows());
    let params = DbscanParams::new(eps, min_pts);

    let counts = |c: &Counters| (c.node_visits(), c.dist_computations(), c.range_queries());
    let c = Counters::new();
    let seq = build_micro_clusters(&data, eps, &BuildOptions::default(), &c);
    let want = (fingerprint(&data, &seq, eps), seq.assignment.clone(), counts(&c));
    for threads in [1usize, 2, 4, 8] {
        let c = Counters::new();
        let t = build_micro_clusters_par(&data, eps, &BuildOptions::default(), threads, &c);
        assert_partition(&format!("{test}/t{threads}"), &data, &t, eps);
        let got = (fingerprint(&data, &t, eps), t.assignment.clone(), counts(&c));
        prop_assert_eq!(
            &got.0,
            &want.0,
            "{}: MCs differ from build_micro_clusters at t{}",
            test,
            threads
        );
        prop_assert_eq!(&got.1, &want.1, "{}: assignment differs at t{}", test, threads);
        prop_assert_eq!(&got.2, &want.2, "{}: counters differ at t{}", test, threads);
    }

    // Downstream exactness on top of the parallel build.
    let reference = naive_dbscan(&data, &params);
    let out = MuDbscan::from_params(params).threads(2).run(&data);
    let rep = check_exact(&out.clustering, &reference, &data, &params);
    prop_assert!(rep.is_exact(), "{}: parallel clustering inexact: {:?}", test, rep);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn blobs_par_build(seed in 0u64..u64::MAX / 2, n in 4usize..64, dim in 1usize..9,
                       eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("blobs_par_build", Family::Blobs, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn uniform_par_build(seed in 0u64..u64::MAX / 2, n in 4usize..64, dim in 1usize..9,
                         eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("uniform_par_build", Family::Uniform, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn chains_par_build(seed in 0u64..u64::MAX / 2, n in 4usize..64, dim in 1usize..9,
                        eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("chains_par_build", Family::Chains, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn duplicates_par_build(seed in 0u64..u64::MAX / 2, n in 4usize..64, dim in 1usize..9,
                            eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("duplicates_par_build", Family::Duplicates, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }

    #[test]
    fn mixed_par_build(seed in 0u64..u64::MAX / 2, n in 4usize..64, dim in 1usize..9,
                       eps_steps in 1usize..12, min_pts in 1usize..8) {
        check_case("mixed_par_build", Family::Mixed, n, dim, seed,
                   eps_steps as f64 * 0.15, min_pts)?;
    }
}

/// The proptest cases hold fewer than 64 points, so their blocks are
/// all filled on the calling thread. This anchor runs every family at a
/// size whose MCs fill several worker chunks (all but `duplicates`, whose
/// few distinct points form few MCs).
#[test]
fn every_family_at_worker_scale() {
    for family in FAMILIES {
        let label = format!("{}_worker_scale", family.as_str());
        check_case(&label, family, 2_000, 2, 2019, 0.05, 5).expect(&label);
    }
}
