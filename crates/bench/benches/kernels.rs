//! Distance-kernel micro-benchmarks: the autovectorizing column-major
//! batch kernel vs its per-point scalar reference, at leaf granularity
//! (`PointBlock`, the unit the μR-tree actually evaluates) and through
//! ε-queries on a real tree. The two kernels are bit-identical by
//! construction (same ascending-dimension accumulation per point —
//! pinned by `conformance/tests/soa_equivalence.rs`); this bench
//! measures the throughput gap that justifies keeping both.
//!
//! CI runs one pass in `--test` mode as a smoke check; run the full
//! statistics locally with `cargo bench -p bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geom::soa::PointBlock;
use geom::Dataset;
use std::hint::black_box;

/// Leaf-sized blocks: distances from one query to every point of a
/// block, batched vs scalar, across the dimensionalities the paper's
/// workloads use (3-d road network, 5-d household power, 8-d analogue).
fn bench_leaf_kernels(c: &mut Criterion) {
    let cap = 64; // typical μR-tree leaf fanout
    let mut g = c.benchmark_group("leaf_dist_sq");
    for dim in [2usize, 3, 5, 8] {
        let dataset = data::galaxy(cap, dim.min(3), 11);
        let mut block = PointBlock::with_capacity(dim, cap);
        for (i, p) in dataset.iter() {
            let mut coords = vec![0.0; dim];
            for (k, c) in coords.iter_mut().enumerate() {
                *c = p[k % p.len()] + k as f64 * 0.01;
            }
            block.push(i, &coords);
        }
        let q: Vec<f64> = (0..dim).map(|k| 0.3 + k as f64 * 0.1).collect();
        let mut out = vec![0.0; cap];

        g.bench_function(BenchmarkId::new("batch", dim), |b| {
            b.iter(|| {
                block.dist_sq_batch(black_box(&q), &mut out);
                black_box(out[cap - 1])
            })
        });
        g.bench_function(BenchmarkId::new("scalar", dim), |b| {
            b.iter(|| {
                block.dist_sq_scalar(black_box(&q), &mut out);
                black_box(out[cap - 1])
            })
        });
    }
    g.finish();
}

/// End-to-end ε-query on a real tree, batched leaves vs the forced
/// scalar fallback — the quantity the PR-6 wall-time gate tracks.
fn bench_tree_queries(c: &mut Criterion) {
    let n = 20_000;
    let eps = 0.8;
    let dataset = data::galaxy(n, 3, 7);
    let tree = rtree::RTree::bulk_load_points(
        3,
        rtree::RTreeConfig::default(),
        dataset.iter().map(|(i, p)| (i, p.to_vec())),
    );
    let queries: Vec<u32> = (0..200).map(|i| (i * 97) % n as u32).collect();
    let run = |tree: &rtree::RTree, dataset: &Dataset| {
        let mut acc = 0usize;
        for &q in &queries {
            let mut hits = 0usize;
            tree.search_sphere(dataset.point(q), eps, |_| hits += 1);
            acc += hits;
        }
        acc
    };

    let mut g = c.benchmark_group("eps_query_kernel");
    g.bench_function(BenchmarkId::new("batched_leaves", n), |b| {
        rtree::force_scalar_leaf_eval(false);
        b.iter(|| black_box(run(&tree, &dataset)))
    });
    g.bench_function(BenchmarkId::new("scalar_leaves", n), |b| {
        rtree::force_scalar_leaf_eval(true);
        b.iter(|| black_box(run(&tree, &dataset)));
        rtree::force_scalar_leaf_eval(false);
    });
    g.finish();
}

criterion_group!(kernels, bench_leaf_kernels, bench_tree_queries);
criterion_main!(kernels);
