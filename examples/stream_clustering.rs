//! Streaming scenario: points arrive one at a time (e.g. live GPS
//! pings) and the clustering is kept **exactly** up to date after every
//! insertion — the paper's future-work extension implemented in the
//! `stream` crate.
//!
//! ```text
//! cargo run --release --example stream_clustering
//! ```

use geom::DbscanParams;
use mudbscan_repro::prelude::*;
use stream::StreamingMuDbscan;

fn main() {
    let params = DbscanParams::new(0.35, 5);
    let feed = data::road_network(12_000, 77);

    println!("streaming μDBSCAN — ingesting {} GPS points one by one\n", feed.len());
    let mut s = StreamingMuDbscan::empty(3, params);

    println!("{:>8} {:>10} {:>8} {:>7} {:>8}", "ingested", "clusters", "noise", "cores", "MCs");
    let mut t = std::time::Instant::now();
    let mut last = 0usize;
    for (i, coords) in feed.iter() {
        s.insert(coords);
        let n = i as usize + 1;
        if n.is_multiple_of(2_000) {
            let snap = s.canonical_snapshot();
            let rate = (n - last) as f64 / t.elapsed().as_secs_f64();
            println!(
                "{n:>8} {:>10} {:>8} {:>7} {:>8}   ({rate:.0} pts/s)",
                snap.n_clusters,
                snap.noise_count(),
                snap.core_count(),
                s.mc_count()
            );
            t = std::time::Instant::now();
            last = n;
        }
    }

    // The headline guarantee, live: the final state equals batch DBSCAN.
    let final_snapshot = s.canonical_snapshot();
    let batch = Runner::new(params).run(&feed).expect("sequential run");
    assert_eq!(final_snapshot.n_clusters, batch.clustering.n_clusters);
    assert_eq!(final_snapshot.is_core, batch.clustering.is_core);
    assert_eq!(final_snapshot.noise_count(), batch.clustering.noise_count());
    println!("\nfinal streaming state equals batch μDBSCAN exactly ✓");
    println!(
        "({} ε-queries for {} insertions — {:.2} queries/point incl. promotions)",
        s.counters().range_queries(),
        s.len(),
        s.counters().range_queries() as f64 / s.len() as f64
    );
}
