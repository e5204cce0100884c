//! Ablation: query cost of the two-level μR-tree vs a single flat R-tree
//! (DESIGN.md §7.2) and of the reachable-MC filtration (§7.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geom::DbscanParams;
use mcs::{build_micro_clusters, scan_block, BuildOptions};
use metrics::Counters;
use rtree::{RTree, RTreeConfig};
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let n = 20_000;
    let eps = 0.8;
    let dataset = data::galaxy(n, 3, 7);
    let _params = DbscanParams::new(eps, 5);

    // Flat R-tree over all points.
    let flat = RTree::bulk_load_points(
        3,
        RTreeConfig::default(),
        dataset.iter().map(|(i, p)| (i, p.to_vec())),
    );

    // μR-tree with reachable lists.
    let counters = Counters::new();
    let mut mur = build_micro_clusters(&dataset, eps, &BuildOptions::default(), &counters);
    mur.compute_reachable(&dataset, &counters);

    let queries: Vec<u32> = (0..200).map(|i| (i * 97) % n as u32).collect();

    let mut g = c.benchmark_group("eps_query");
    g.bench_function(BenchmarkId::new("flat_rtree", n), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &q in &queries {
                let mut out = Vec::new();
                flat.search_sphere(dataset.point(q), eps, |i| out.push(i));
                acc += out.len();
            }
            black_box(acc)
        })
    });
    g.bench_function(BenchmarkId::new("murtree_reachable", n), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            let mut out = Vec::new();
            for &q in &queries {
                out.clear();
                mur.neighborhood(&dataset, q, &mut out);
                acc += out.len();
            }
            black_box(acc)
        })
    });
    // Ablation: scan every MC's block instead of only reachable ones.
    g.bench_function(BenchmarkId::new("murtree_no_filter", n), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &q in &queries {
                let coords = dataset.point(q);
                let eps_sq = eps * eps;
                for mc in &mur.mcs {
                    if mc.mbr.min_dist_sq(coords) < eps_sq {
                        let mut out = Vec::new();
                        scan_block(&mc.block, coords, eps_sq, |i| out.push(i));
                        acc += out.len();
                    }
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_queries
}
criterion_main!(benches);
