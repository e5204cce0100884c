//! Cross-crate integration: every exact algorithm in the workspace must
//! produce the identical DBSCAN clustering on every catalog analogue.

use baselines::{GDbscan, GridDbscan, RDbscan};
use geom::{Dataset, DbscanParams};
use mudbscan::{check_exact, naive_dbscan, Clustering, MuDbscan};

fn exactness(
    c: &Clustering,
    reference: &Clustering,
    data: &Dataset,
    params: &DbscanParams,
    tag: &str,
) {
    let rep = check_exact(c, reference, data, params);
    assert!(rep.is_exact(), "{tag}: {rep:?}");
}

#[test]
fn all_exact_algorithms_agree_on_catalog_analogues() {
    for spec in data::paper_table2_specs() {
        // Small instances keep the O(n²) oracle affordable.
        let n = 1_000;
        let dataset = spec.generate_n(n, 7);
        let params = spec.params;
        let reference = naive_dbscan(&dataset, &params);

        let mu = MuDbscan::from_params(params).run(&dataset);
        exactness(&mu.clustering, &reference, &dataset, &params, spec.name);

        let rd = RDbscan::new(params).run(&dataset);
        exactness(&rd.clustering, &reference, &dataset, &params, spec.name);

        let gd = GDbscan::new(params).run(&dataset);
        exactness(&gd.clustering, &reference, &dataset, &params, spec.name);

        // GridDBSCAN only where the neighbour-cell structure fits (it
        // memory-errors at d >= 14, reproducing the paper).
        match GridDbscan::new(params).run(&dataset) {
            Ok(grid) => exactness(&grid.clustering, &reference, &dataset, &params, spec.name),
            Err(e) => assert!(spec.dim >= 10, "{}: unexpected grid failure {e}", spec.name),
        }
    }
}

#[test]
fn query_savings_match_paper_regimes() {
    // The paper's Table II: dense, locally-uniform datasets save most
    // queries (3DSRN 81%, KDDB >96%); the diffuse DGB galaxy data saves
    // the least (43.6%).
    let specs = data::paper_table2_specs();
    let mut savings = std::collections::HashMap::new();
    for spec in &specs {
        let dataset = spec.generate_n(4_000, 3);
        let out = MuDbscan::from_params(spec.params).run(&dataset);
        savings.insert(spec.name, out.counters.pct_queries_saved());
    }
    assert!(savings["KDDB145K14D"] > 60.0, "KDDB14 saved {:.1}%", savings["KDDB145K14D"]);
    assert!(savings["3DSRN"] > 40.0, "3DSRN saved {:.1}%", savings["3DSRN"]);
    for (name, pct) in &savings {
        assert!(*pct > 5.0 && *pct <= 100.0, "{name}: implausible saving {pct:.1}%");
    }
}

#[test]
fn micro_cluster_counts_are_far_below_n() {
    for spec in data::paper_table2_specs().into_iter().take(4) {
        let n = 4_000;
        let dataset = spec.generate_n(n, 5);
        let out = MuDbscan::from_params(spec.params).run(&dataset);
        assert!(out.mc_count * 2 < n, "{}: m = {} not << n = {n}", spec.name, out.mc_count);
    }
}

#[test]
fn io_roundtrip_preserves_clustering() {
    let dataset = data::galaxy(2_000, 3, 21);
    let params = DbscanParams::new(0.8, 5);
    let tmp = std::env::temp_dir().join("mudbscan_integration_io.muds");
    data::write_store(&dataset, &tmp, geom::DEFAULT_CHUNK_CAP).unwrap();
    let back = geom::gather_dense(&data::ChunkedStore::open(&tmp).unwrap());
    std::fs::remove_file(&tmp).ok();
    let a = MuDbscan::from_params(params).run(&dataset);
    let b = MuDbscan::from_params(params).run(&back);
    assert_eq!(a.clustering, b.clustering);
}

#[test]
fn clustering_invariant_under_point_order() {
    // "Exact" means order-independent cores/partition/noise: shuffle the
    // dataset and compare canonical quantities.
    let dataset = data::gaussian_mixture(2_000, 3, 3, 1.5, 0.1, 77);
    let params = DbscanParams::new(1.0, 5);
    let ids: Vec<u32> = {
        let mut v: Vec<u32> = dataset.ids().collect();
        // Deterministic shuffle.
        let mut s = 1234u64;
        for i in (1..v.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    };
    let shuffled = dataset.gather(&ids);

    let a = MuDbscan::from_params(params).run(&dataset);
    let b = MuDbscan::from_params(params).run(&shuffled);
    assert_eq!(a.clustering.n_clusters, b.clustering.n_clusters);
    assert_eq!(a.clustering.noise_count(), b.clustering.noise_count());
    assert_eq!(a.clustering.core_count(), b.clustering.core_count());
    // Per-point core flags map through the permutation.
    for (new_idx, &old_id) in ids.iter().enumerate() {
        assert_eq!(
            a.clustering.is_core[old_id as usize], b.clustering.is_core[new_idx],
            "core flag changed under reordering"
        );
    }
}
