//! Integration: distributed algorithms vs the sequential oracle across
//! rank counts, generators and parameters.

use dist::{DistConfig, GridDbscanD, HpDbscan, MuDbscanD, PdsDbscanD, RpDbscan};
use geom::DbscanParams;
use mudbscan::prelude::{RunDetails, Runner};
use mudbscan::{check_exact, naive_dbscan, MuDbscan};

#[test]
fn mudbscan_d_exact_across_generators_and_ranks() {
    let cases = [
        (data::galaxy(2_500, 3, 1), DbscanParams::new(0.8, 5)),
        (data::road_network(2_500, 2), DbscanParams::new(0.4, 5)),
        (data::household(2_000, 3), DbscanParams::new(2.5, 6)),
        (data::kddbio(1_200, 14, 4), DbscanParams::new(18.0, 5)),
    ];
    for (i, (dataset, params)) in cases.iter().enumerate() {
        let reference = naive_dbscan(dataset, params);
        for p in [2, 5, 8] {
            let out = MuDbscanD::from_params(*params, DistConfig::new(p)).run(dataset).unwrap();
            let rep = check_exact(&out.clustering, &reference, dataset, params);
            assert!(rep.is_exact(), "case {i} p={p}: {rep:?}");
            assert_eq!(out.clustering, reference, "case {i} p={p}: not bit-identical");
        }
    }
}

#[test]
fn all_exact_distributed_algorithms_agree() {
    let dataset = data::galaxy(3_000, 3, 9);
    let params = DbscanParams::new(0.8, 5);
    let seq = MuDbscan::from_params(params).run(&dataset).clustering;
    let reference = naive_dbscan(&dataset, &params);

    let mu = MuDbscanD::from_params(params, DistConfig::new(6)).run(&dataset).unwrap().clustering;
    let pds = PdsDbscanD::new(params, DistConfig::new(6)).run(&dataset).unwrap().clustering;
    let grid = GridDbscanD::new(params, DistConfig::new(6)).run(&dataset).unwrap().clustering;
    let hp = HpDbscan::new(params, 6).run(&dataset).unwrap().clustering;

    for (tag, c) in
        [("μDBSCAN-D", &mu), ("PDSDBSCAN-D", &pds), ("GridDBSCAN-D", &grid), ("HPDBSCAN", &hp)]
    {
        assert_eq!(c.n_clusters, seq.n_clusters, "{tag} cluster count");
        assert_eq!(c.is_core, seq.is_core, "{tag} core flags");
        assert_eq!(c.noise_count(), seq.noise_count(), "{tag} noise count");
        assert_eq!(*c, reference, "{tag} not bit-identical to the oracle");
    }
}

#[test]
fn virtual_speedup_shape_holds() {
    // More ranks => shorter virtual runtime (monotone up to noise): the
    // Fig. 7 shape at miniature scale.
    let dataset = data::galaxy(12_000, 3, 13);
    let params = DbscanParams::new(0.8, 5);
    let t1 = MuDbscanD::from_params(params, DistConfig::new(1)).run(&dataset).unwrap().runtime_secs;
    let t8 = MuDbscanD::from_params(params, DistConfig::new(8)).run(&dataset).unwrap().runtime_secs;
    assert!(
        t8 < t1 * 0.6,
        "8 ranks should be much faster than 1 in virtual time: t1={t1:.3}s t8={t8:.3}s"
    );
}

#[test]
fn rpdbscan_is_approximate_but_sane() {
    let dataset = data::gaussian_mixture(3_000, 3, 3, 1.2, 0.05, 8);
    let params = DbscanParams::new(1.0, 5);
    let exact = naive_dbscan(&dataset, &params);
    let approx = RpDbscan::new(params, 4).run(&dataset);
    // Must find a comparable number of clusters for well-separated blobs.
    assert!(approx.clustering.n_clusters >= 1);
    let delta = (approx.clustering.n_clusters as i64 - exact.n_clusters as i64).abs();
    assert!(delta <= exact.n_clusters as i64 + 3, "cluster count wildly off: {delta}");
}

#[test]
fn rpdbscan_quality_quantified_by_ari() {
    // On well-separated blobs the approximate algorithm should agree
    // with exact DBSCAN almost everywhere (high ARI); on no account may
    // it look like random labels (ARI near 0).
    let dataset = data::gaussian_mixture(4_000, 3, 3, 1.0, 0.02, 11);
    let params = DbscanParams::new(1.2, 5);
    let exact = naive_dbscan(&dataset, &params);
    let approx = RpDbscan::new(params, 4).run(&dataset);
    let ari = mudbscan::adjusted_rand_index(&approx.clustering, &exact);
    let nmi = mudbscan::normalized_mutual_information(&approx.clustering, &exact);
    assert!(ari > 0.5, "ARI {ari:.3} too low — approximation broken");
    assert!(nmi > 0.5, "NMI {nmi:.3} too low");
    // And the exact algorithms must score a perfect 1.0.
    let mu = MuDbscan::from_params(params).run(&dataset).clustering;
    assert!((mudbscan::adjusted_rand_index(&mu, &exact) - 1.0).abs() < 1e-12);
}

#[test]
fn merge_counters_aggregate_rank_work() {
    let dataset = data::galaxy(4_000, 3, 17);
    let params = DbscanParams::new(0.8, 5);
    let out = MuDbscanD::from_params(params, DistConfig::new(4)).run(&dataset).unwrap();
    // Every non-saved local point (own + halo copies) ran one query, plus
    // one per halo point and one per locally-attached owned non-core
    // point in the merge summary.
    assert!(out.counters.range_queries() > 0);
    assert!(out.counters.union_ops() > 0);
    assert!(out.counters.dist_computations() > 0);
}

/// Each rank reports the structure bytes of its local stage (Table IV's
/// per-rank memory) whether that stage runs on one thread or several.
#[test]
fn rank_heap_is_reported_at_every_local_thread_count() {
    let dataset = data::galaxy(4_000, 3, 2019);
    let params = DbscanParams::new(0.8, 5);
    for threads in [1, 2] {
        let out = Runner::new(params).ranks(2).threads(threads).run(&dataset).unwrap();
        let RunDetails::Distributed { max_rank_heap_bytes, .. } = out.details else {
            panic!("ranks(2) must report distributed details");
        };
        assert!(max_rank_heap_bytes > 0, "threads({threads}): max_rank_heap_bytes is 0");
    }
}
