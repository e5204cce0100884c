//! Degenerate-input audit: `n = 0`, `n < MinPts`, and all-points-identical
//! at n ≥ 10⁴, pushed through micro-cluster construction (sequential and
//! parallel), `MuDbscan` at one and four threads and `MuDbscanD`.
//!
//! These are the inputs where index construction historically panics
//! (empty bounding boxes, `members[0]` on empty MC lists, zero distances
//! everywhere) — each case is pinned here so a regression fails loudly
//! instead of resurfacing in a user's first `run()` on an empty frame.

use dist::{DistConfig, MuDbscanD};
use geom::{Dataset, DbscanParams};
use mcs::{build_micro_clusters, build_micro_clusters_par, BuildOptions};
use metrics::Counters;
use mudbscan::{check_exact, naive_dbscan, Clustering, MuDbscan};

fn params() -> DbscanParams {
    DbscanParams::new(0.5, 5)
}

/// Run every algorithm family and hand each clustering to `verify`.
fn all_algorithms(data: &Dataset, params: &DbscanParams, mut verify: impl FnMut(&str, Clustering)) {
    verify("mu-seq", MuDbscan::from_params(*params).run(data).clustering);
    verify("mu-par/t4", MuDbscan::from_params(*params).threads(4).run(data).clustering);
    for ranks in [1, 4] {
        verify(
            &format!("mu-dist/r{ranks}"),
            MuDbscanD::from_params(*params, DistConfig::new(ranks))
                .run(data)
                .expect("dist run on degenerate input")
                .clustering,
        );
    }
}

#[test]
fn empty_dataset_yields_empty_clustering() {
    let data = Dataset::empty(3);
    let p = params();

    let c = Counters::new();
    let tree = build_micro_clusters(&data, p.eps, &BuildOptions::default(), &c);
    assert_eq!(tree.mc_count(), 0);
    assert!(tree.assignment.is_empty());

    let ptree = build_micro_clusters_par(&data, p.eps, &BuildOptions::default(), 4, &c);
    assert_eq!(ptree.mc_count(), 0);

    all_algorithms(&data, &p, |name, clustering| {
        assert_eq!(clustering.n_clusters, 0, "{name}");
        assert_eq!(clustering.noise_count(), 0, "{name}");
        assert!(clustering.labels.is_empty(), "{name}");
        assert!(clustering.is_core.is_empty(), "{name}");
    });
}

#[test]
fn below_min_pts_is_all_noise() {
    // Three mutually-within-ε points with MinPts = 5: nothing can be core,
    // everything is noise, and the oracle agrees.
    let data = Dataset::from_rows(&[vec![0.0, 0.0, 0.0], vec![0.1, 0.0, 0.0], vec![0.2, 0.0, 0.0]]);
    let p = params();
    let reference = naive_dbscan(&data, &p);
    assert_eq!(reference.n_clusters, 0);
    assert_eq!(reference.noise_count(), 3);

    all_algorithms(&data, &p, |name, clustering| {
        let rep = check_exact(&clustering, &reference, &data, &p);
        assert!(rep.is_exact(), "{name}: {rep:?}");
        assert_eq!(clustering.n_clusters, 0, "{name}");
        assert_eq!(clustering.noise_count(), 3, "{name}");
    });
}

#[test]
fn single_point_is_noise() {
    let data = Dataset::from_rows(&[vec![1.0, 2.0, 3.0]]);
    let p = params();

    let c = Counters::new();
    let tree = build_micro_clusters(&data, p.eps, &BuildOptions::default(), &c);
    assert_eq!(tree.mc_count(), 1);
    assert_eq!(tree.mcs[0].block.items(), [0]);

    all_algorithms(&data, &p, |name, clustering| {
        assert_eq!(clustering.n_clusters, 0, "{name}");
        assert_eq!(clustering.noise_count(), 1, "{name}");
        assert!(!clustering.is_core[0], "{name}");
    });
}

#[test]
fn ten_thousand_identical_points_form_one_cluster() {
    // All-points-identical at n = 10⁴: one MC with 10⁴ coincident members,
    // every pairwise distance zero. The O(n²) oracle is deliberately
    // skipped at this size — the structural outcome is forced: every point
    // has 10⁴ - 1 zero-distance neighbours, so all are core and the whole
    // dataset is one cluster.
    let n = 10_000;
    let data = Dataset::from_rows(&vec![vec![7.0, 7.0, 7.0]; n]);
    let p = params();

    let c = Counters::new();
    let tree = build_micro_clusters(&data, p.eps, &BuildOptions::default(), &c);
    assert_eq!(tree.mc_count(), 1);
    assert_eq!(tree.mcs[0].len(), n);
    assert_eq!(tree.mcs[0].inner_count as usize, n);

    let ptree = build_micro_clusters_par(&data, p.eps, &BuildOptions::default(), 4, &c);
    assert_eq!(ptree.mc_count(), 1);
    assert_eq!(ptree.mcs[0].len(), n);

    all_algorithms(&data, &p, |name, clustering| {
        assert_eq!(clustering.n_clusters, 1, "{name}");
        assert_eq!(clustering.noise_count(), 0, "{name}");
        assert!(clustering.is_core.iter().all(|&c| c), "{name}: every point must be core");
        assert!(
            clustering.labels.iter().all(|&l| l == clustering.labels[0]),
            "{name}: one cluster label"
        );
    });
}
