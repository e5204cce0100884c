//! The `stream` and `optics` front-ends build their μR-tree with its
//! member blocks filled on worker threads when the full dataset is
//! available up front. OPTICS extraction must stay exact on top of that
//! build, and the streaming bulk loader, which replays the same union
//! rules the incremental path applies, must agree with point-at-a-time
//! ingestion. These tests pin both, and that ingestion after a bulk load
//! stays exact.

use conformance::{DatasetSpec, FAMILIES};
use geom::{Dataset, DbscanParams};
use mudbscan::{check_exact, naive_dbscan};
use optics::Optics;
use stream::StreamingMuDbscan;

#[test]
fn optics_parallel_build_extraction_stays_exact() {
    let spec = DatasetSpec { family: FAMILIES[0], n: 250, dim: 3, seed: 7 };
    let data = Dataset::from_rows(&spec.rows());
    let out = Optics::from_params(DbscanParams::new(0.8, 5)).run(&data);
    for eps_prime in [0.4, 0.8] {
        let got = optics::extract_dbscan(&out, &data, eps_prime);
        let params = DbscanParams::new(eps_prime, 5);
        let want = naive_dbscan(&data, &params);
        let rep = check_exact(&got, &want, &data, &params);
        assert!(rep.is_exact(), "eps'={eps_prime}: {rep:?}");
    }
}

#[test]
fn stream_bulk_load_equals_incremental_ingestion() {
    for family in FAMILIES {
        let spec = DatasetSpec { family, n: 250, dim: 3, seed: 2019 };
        let data = Dataset::from_rows(&spec.rows());
        let params = DbscanParams::new(0.6, 5);

        let bulk = StreamingMuDbscan::from_dataset(&data, params);
        let mut incr = StreamingMuDbscan::empty(data.dim(), params);
        incr.extend_from(&data);

        let a = bulk.canonical_snapshot();
        let b = incr.canonical_snapshot();
        let label = family.as_str();
        // Canonical quantities must match exactly; the label partition is
        // additionally pinned against the oracle (border ties may attach
        // differently between ingestion orders, which DBSCAN allows).
        assert_eq!(a.is_core, b.is_core, "{label}: core flags depend on the build path");
        assert_eq!(a.n_clusters, b.n_clusters, "{label}: cluster count drifted");
        assert_eq!(a.noise_count(), b.noise_count(), "{label}: noise count drifted");
        let want = naive_dbscan(&data, &params);
        let rep = check_exact(&a, &want, &data, &params);
        assert!(rep.is_exact(), "{label}: bulk load inexact: {rep:?}");
    }
}

#[test]
fn stream_inserts_after_bulk_load_stay_exact() {
    let spec = DatasetSpec { family: FAMILIES[0], n: 260, dim: 3, seed: 11 };
    let data = Dataset::from_rows(&spec.rows());
    let params = DbscanParams::new(0.6, 5);
    let split = 200;
    let head_rows: Vec<Vec<f64>> = (0..split).map(|j| data.point(j).to_vec()).collect();
    let head = Dataset::from_rows(&head_rows);

    let mut s = StreamingMuDbscan::from_dataset(&head, params);
    for j in split..data.len() as u32 {
        s.insert(data.point(j));
    }
    let got = s.canonical_snapshot();
    let want = naive_dbscan(&data, &params);
    let rep = check_exact(&got, &want, &data, &params);
    assert!(rep.is_exact(), "incremental continuation after bulk load inexact: {rep:?}");
}
