//! Ablation: kd-tree partitioning (the shard planner's median splits,
//! μDBSCAN-D) vs HPDBSCAN-style cell-block partitioning — cost and halo
//! volume.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dist::hpdbscan::cell_partition;
use partition::{gather_shards, plan_shards, ShardingOptions};
use std::hint::black_box;

fn bench_partitioning(c: &mut Criterion) {
    let dataset = data::galaxy(30_000, 3, 17);
    let eps = 0.8;

    let mut g = c.benchmark_group("partitioning");
    for p in [8usize, 32] {
        g.bench_function(BenchmarkId::new("kd_tree", p), |b| {
            b.iter(|| {
                let opts = ShardingOptions { min_shards: p, max_shard_bytes: None };
                let plan = plan_shards(&dataset, eps, &opts);
                let shards = gather_shards(&dataset, &plan);
                black_box(shards.iter().map(|s| s.halo_ids.len()).sum::<usize>())
            })
        });
        g.bench_function(BenchmarkId::new("cell_blocks", p), |b| {
            b.iter(|| {
                let shards = cell_partition(&dataset, p, eps);
                black_box(shards.iter().map(|s| s.halo_ids.len()).sum::<usize>())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partitioning
}
criterion_main!(benches);
