//! Property-based exactness: for ANY dataset and ANY (ε, MinPts),
//! μDBSCAN must produce the classical DBSCAN clustering (paper Theorem 1).
//! This is the strongest single test in the repository.

use geom::{Dataset, DbscanParams};
use mudbscan_core::{check_exact, naive_dbscan, MuDbscan};
use proptest::prelude::*;

fn points(dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0..10.0f64, dim), 1..max_n)
}

/// Clustered datasets: a few blob centers with points jittered around
/// them, plus uniform background — stresses DMC/CMC/SMC classification.
fn clustered(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(prop::collection::vec(-8.0..8.0f64, dim), 1..4),
        prop::collection::vec((0usize..4, prop::collection::vec(-0.7..0.7f64, dim)), 10..120),
        prop::collection::vec(prop::collection::vec(-10.0..10.0f64, dim), 0..15),
    )
        .prop_map(|(centers, offsets, background)| {
            let mut rows = Vec::new();
            for (ci, off) in offsets {
                let c = &centers[ci % centers.len()];
                rows.push(c.iter().zip(&off).map(|(a, b)| a + b).collect());
            }
            rows.extend(background);
            rows
        })
}

fn run_check(rows: Vec<Vec<f64>>, eps: f64, min_pts: usize) -> Result<(), TestCaseError> {
    let data = Dataset::from_rows(&rows);
    let params = DbscanParams::new(eps, min_pts);
    let out = MuDbscan::from_params(params).run(&data);
    let reference = naive_dbscan(&data, &params);
    let rep = check_exact(&out.clustering, &reference, &data, &params);
    prop_assert!(
        rep.is_exact(),
        "inexact: {rep:?} (n={}, eps={eps}, min_pts={min_pts}, got {} clusters want {})",
        data.len(),
        out.clustering.n_clusters,
        reference.n_clusters
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_on_uniform_2d(rows in points(2, 150), eps in 0.2..4.0f64, min_pts in 1usize..8) {
        run_check(rows, eps, min_pts)?;
    }

    #[test]
    fn exact_on_uniform_3d(rows in points(3, 120), eps in 0.3..5.0f64, min_pts in 2usize..7) {
        run_check(rows, eps, min_pts)?;
    }

    #[test]
    fn exact_on_clustered_2d(rows in clustered(2), eps in 0.2..2.5f64, min_pts in 2usize..9) {
        run_check(rows, eps, min_pts)?;
    }

    #[test]
    fn exact_on_clustered_5d(rows in clustered(5), eps in 0.5..3.0f64, min_pts in 2usize..6) {
        run_check(rows, eps, min_pts)?;
    }

    #[test]
    fn parallel_exact(rows in clustered(2), eps in 0.2..2.0f64, min_pts in 2usize..7, threads in 1usize..6) {
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(eps, min_pts);
        let out = MuDbscan::from_params(params).threads(threads).run(&data);
        let reference = naive_dbscan(&data, &params);
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        prop_assert!(rep.is_exact(), "threads={threads}: {rep:?}");
    }

    #[test]
    fn exact_without_promotion(rows in clustered(2), eps in 0.2..2.0f64, min_pts in 2usize..7) {
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(eps, min_pts);
        let mut alg = MuDbscan::from_params(params);
        alg.disable_dynamic_promotion = true;
        let out = alg.run(&data);
        let reference = naive_dbscan(&data, &params);
        prop_assert!(check_exact(&out.clustering, &reference, &data, &params).is_exact());
    }
}
