//! Quickstart: cluster a synthetic dataset with μDBSCAN, inspect the
//! result, and verify it is exactly the classical DBSCAN clustering.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mudbscan_repro::prelude::*;

fn main() {
    // 5,000 points: four Gaussian blobs plus 5 % uniform noise.
    let dataset = data::gaussian_mixture(5_000, 3, 4, 1.5, 0.05, 42);
    let params = DbscanParams::new(1.0, 5);

    println!("μDBSCAN quickstart — n={}, dim={}", dataset.len(), dataset.dim());
    println!("parameters: eps={}, MinPts={}\n", params.eps, params.min_pts);

    let out = Runner::new(params).run(&dataset).unwrap();

    println!("clusters found   : {}", out.clustering.n_clusters);
    println!("core points      : {}", out.clustering.core_count());
    println!("noise points     : {}", out.clustering.noise_count());
    if let RunDetails::MuDbscan { mc_count, avg_mc_size, .. } = out.details {
        println!("micro-clusters   : {mc_count} (avg {avg_mc_size:.1} points each)");
    }
    println!("queries saved    : {:.1}% (wndq-core labelling)", out.counters.pct_queries_saved());

    let mut sizes = out.clustering.cluster_sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("cluster sizes    : {:?}", &sizes[..sizes.len().min(8)]);

    println!("\nphase split-up:");
    for (name, secs, pct) in out.phases.split_up() {
        println!("  {name:<20} {secs:>8.4}s  {pct:>5.1}%");
    }

    // The headline guarantee: the clustering equals classical DBSCAN.
    let reference = naive_dbscan(&dataset, &params);
    let report = check_exact(&out.clustering, &reference, &dataset, &params);
    println!(
        "\nexactness vs naive DBSCAN: {}",
        if report.is_exact() { "EXACT ✓" } else { "MISMATCH ✗" }
    );
    assert!(report.is_exact());
}
