//! Focused tests of the distributed merge semantics on hand-built
//! geometries where the correct cross-partition behaviour is known by
//! construction.

use dist::{DistConfig, MuDbscanD};
use geom::{Dataset, DbscanParams};
use mudbscan::{check_exact, naive_dbscan};

/// A dense chain crossing the partition boundary: the two halves MUST be
/// merged into one cluster by the merge phase.
#[test]
fn chain_across_partition_boundary_merges() {
    let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![0.4 * i as f64, 0.0]).collect();
    let data = Dataset::from_rows(&rows);
    let params = DbscanParams::new(0.5, 3);
    let reference = naive_dbscan(&data, &params);
    for p in [2, 3, 4, 8] {
        let out = MuDbscanD::from_params(params, DistConfig::new(p)).run(&data).unwrap();
        assert_eq!(out.clustering.n_clusters, 1, "p={p}: chain split by partitioning");
        assert_eq!(out.clustering.noise_count(), 0);
        assert_eq!(out.clustering, reference, "p={p}");
    }
}

/// Two dense blobs separated by slightly more than ε, each split across
/// ranks: the merge must NOT join them.
#[test]
fn separate_blobs_stay_separate() {
    let mut rows = Vec::new();
    for i in 0..30 {
        rows.push(vec![0.01 * i as f64, 0.0]);
        rows.push(vec![0.01 * i as f64, 2.0]); // 2.0 > eps away
    }
    let data = Dataset::from_rows(&rows);
    let params = DbscanParams::new(0.5, 4);
    let out = MuDbscanD::from_params(params, DistConfig::new(4)).run(&data).unwrap();
    assert_eq!(out.clustering.n_clusters, 2);
    assert_eq!(out.clustering, naive_dbscan(&data, &params));
}

/// A border point sitting exactly between two dense blobs, with the kd
/// split likely running through it: it must join exactly one cluster and
/// must not merge them (the minimum-id border rule across ranks).
#[test]
fn shared_border_point_does_not_merge_clusters() {
    let mut rows = Vec::new();
    for i in 0..6 {
        rows.push(vec![-1.0 - 0.05 * i as f64]); // left blob
        rows.push(vec![1.0 + 0.05 * i as f64]); // right blob
    }
    rows.push(vec![0.0]); // the contested border point
    let data = Dataset::from_rows(&rows);
    // eps 1.05: the middle point sees one core on each side but has only
    // 3 neighbours < MinPts 4.
    let params = DbscanParams::new(1.05, 4);
    let reference = naive_dbscan(&data, &params);
    assert_eq!(reference.n_clusters, 2);
    for p in [2, 3, 5] {
        let out = MuDbscanD::from_params(params, DistConfig::new(p)).run(&data).unwrap();
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        assert!(rep.is_exact(), "p={p}: {rep:?}");
        assert_eq!(out.clustering, reference, "p={p}");
        assert_eq!(out.clustering.n_clusters, 2, "p={p}: clusters merged via border");
        assert!(out.clustering.is_border(12), "p={p}");
    }
}

/// A point whose ONLY core neighbour lives on another rank: the noise
/// rescue must work across the partition boundary.
#[test]
fn cross_rank_noise_rescue() {
    let mut rows = Vec::new();
    // A tight core blob.
    for i in 0..5 {
        rows.push(vec![0.1 * i as f64, 0.0]);
    }
    // A lone point within eps of the blob edge only.
    rows.push(vec![0.4 + 0.8, 0.0]); // index 5
                                     // Far-away filler so partitioning has something to split.
    for i in 0..6 {
        rows.push(vec![50.0 + i as f64, 50.0]);
    }
    let data = Dataset::from_rows(&rows);
    let params = DbscanParams::new(0.9, 5);
    let reference = naive_dbscan(&data, &params);
    assert!(reference.is_border(5), "test geometry: point 5 should be border");
    for p in [2, 4] {
        let out = MuDbscanD::from_params(params, DistConfig::new(p)).run(&data).unwrap();
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        assert!(rep.is_exact(), "p={p}: {rep:?}");
        assert_eq!(out.clustering, reference, "p={p}");
        assert!(out.clustering.is_border(5), "p={p}: border point lost to noise");
    }
}

/// Duplicated coordinates across the boundary region must not confuse
/// ownership or the halo (regression guard for id/coordinate mixups).
#[test]
fn duplicate_points_across_ranks() {
    let mut rows = vec![vec![1.0, 1.0]; 12];
    rows.extend(vec![vec![9.0, 9.0]; 12]);
    rows.push(vec![5.0, 5.0]);
    let data = Dataset::from_rows(&rows);
    let params = DbscanParams::new(0.5, 5);
    let reference = naive_dbscan(&data, &params);
    for p in [2, 5] {
        let out = MuDbscanD::from_params(params, DistConfig::new(p)).run(&data).unwrap();
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        assert!(rep.is_exact(), "p={p}: {rep:?}");
        assert_eq!(out.clustering, reference, "p={p}");
        assert_eq!(out.clustering.n_clusters, 2);
        assert!(out.clustering.is_noise(24));
    }
}

/// More ranks than points: empty shards must be handled gracefully.
#[test]
fn more_ranks_than_points() {
    let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![0.2 * i as f64]).collect();
    let data = Dataset::from_rows(&rows);
    let params = DbscanParams::new(0.5, 2);
    let out = MuDbscanD::from_params(params, DistConfig::new(8)).run(&data).unwrap();
    let reference = naive_dbscan(&data, &params);
    assert!(check_exact(&out.clustering, &reference, &data, &params).is_exact());
    assert_eq!(out.clustering, reference);
    assert_eq!(out.ranks, 8, "empty shards pad the plan to p ranks");
}
