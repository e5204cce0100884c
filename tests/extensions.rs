//! Integration across the extension algorithms: batch, parallel,
//! streaming, distributed and OPTICS-extracted clusterings must all
//! coincide on the canonical quantities for the same data + parameters.

use geom::DbscanParams;
use mudbscan::{Clustering, MuDbscan};
use optics::{extract_dbscan, Optics};
use stream::StreamingMuDbscan;

fn canon(c: &Clustering) -> (usize, usize, Vec<bool>) {
    (c.n_clusters, c.noise_count(), c.is_core.clone())
}

#[test]
fn five_ways_to_the_same_clustering() {
    let dataset = data::galaxy(3_000, 3, 101);
    let params = DbscanParams::new(0.8, 5);

    let batch = MuDbscan::from_params(params).run(&dataset).clustering;

    let par = MuDbscan::from_params(params).threads(3).run(&dataset).clustering;
    assert_eq!(canon(&par), canon(&batch), "parallel");

    let mut s = StreamingMuDbscan::empty(3, params);
    s.extend_from(&dataset);
    let streamed = s.canonical_snapshot();
    assert_eq!(canon(&streamed), canon(&batch), "streaming");

    let d = dist::MuDbscanD::from_params(params, dist::DistConfig::new(6))
        .run(&dataset)
        .unwrap()
        .clustering;
    assert_eq!(canon(&d), canon(&batch), "distributed");

    let optics_out = Optics::from_params(params).run(&dataset);
    let extracted = extract_dbscan(&optics_out, &dataset, params.eps);
    assert_eq!(canon(&extracted), canon(&batch), "optics extraction");
}

#[test]
fn quality_indices_confirm_equivalence() {
    let dataset = data::road_network(2_500, 33);
    let params = DbscanParams::new(0.4, 5);
    let a = MuDbscan::from_params(params).run(&dataset).clustering;
    let b = MuDbscan::from_params(params).threads(4).run(&dataset).clustering;
    // Border assignment is order-dependent (threads race for contested
    // borders), so compare the CANONICAL core partition: mask non-core
    // points to noise on both sides; the masked partitions must then be
    // identical and score exactly 1.0 on both indices.
    let core_only = |c: &Clustering| {
        let mut m = c.clone();
        for (p, l) in m.labels.iter_mut().enumerate() {
            if !m.is_core[p] {
                *l = mudbscan::NOISE;
            }
        }
        m
    };
    let (ca, cb) = (core_only(&a), core_only(&b));
    assert!((mudbscan::adjusted_rand_index(&ca, &cb) - 1.0).abs() < 1e-12);
    assert!((mudbscan::normalized_mutual_information(&ca, &cb) - 1.0).abs() < 1e-9);
    // And on the full labelings the agreement must still be near-perfect
    // (only contested borders may differ).
    assert!(mudbscan::adjusted_rand_index(&a, &b) > 0.98);
}

#[test]
fn eps_suggestion_feeds_the_pipeline() {
    let dataset = data::gaussian_mixture(2_000, 2, 3, 1.0, 0.05, 9);
    let min_pts = 5;
    let eps = mudbscan::suggest_eps(&dataset, min_pts, 2).expect("knee exists");
    assert!(eps > 0.0 && eps.is_finite());
    let c = MuDbscan::from_params(DbscanParams::new(eps, min_pts)).run(&dataset).clustering;
    // The k-dist knee on three well-separated blobs must find real
    // structure: at least one cluster, and the blobs not all merged with
    // the background into a single everything-cluster.
    assert!(c.n_clusters >= 1);
    assert!(c.n_clusters <= 12, "eps suggestion fragmenting: {}", c.n_clusters);
}

#[test]
fn streaming_matches_distributed_on_catalog_analogue() {
    let spec = &data::paper_table2_specs()[0]; // 3DSRN
    let dataset = spec.generate_n(2_000, 5);
    let params = spec.params;
    let mut s = StreamingMuDbscan::empty(dataset.dim(), params);
    s.extend_from(&dataset);
    let streamed = s.canonical_snapshot();
    let d = dist::MuDbscanD::from_params(params, dist::DistConfig::new(4))
        .run(&dataset)
        .unwrap()
        .clustering;
    assert_eq!(canon(&streamed), canon(&d));
}
