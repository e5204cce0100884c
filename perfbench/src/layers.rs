//! Per-layer probes for the traced run: each times one public entry
//! point of a crate from outside it, on the workload's own inputs.

use crate::util::{timed, Rng};
use mudbscan::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// `geom::kernels::dist_sq_batch` on 64-point column-major blocks at
/// dimension `dim`: nanoseconds per point-distance evaluation.
pub fn kernel_ns_per_eval(dim: usize, seed: u64) -> f64 {
    const BLOCK: usize = 64;
    const BLOCKS: usize = 256;
    let mut rng = Rng::new(seed);
    let cols: Vec<f64> = (0..BLOCKS * BLOCK * dim).map(|_| rng.unit() * 100.0).collect();
    let q: Vec<f64> = (0..dim).map(|_| rng.unit() * 100.0).collect();
    let mut out = [0.0f64; BLOCK];
    let mut evals = 0u64;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < 0.25 {
        for b in 0..BLOCKS {
            let block = &cols[b * BLOCK * dim..(b + 1) * BLOCK * dim];
            geom::kernels::dist_sq_batch(black_box(block), BLOCK, BLOCK, dim, &q, &mut out);
            black_box(&out);
        }
        evals += (BLOCKS * BLOCK) as u64;
    }
    t.elapsed().as_secs_f64() * 1e9 / evals as f64
}

/// `RTree::bulk_load_points` over the dataset (seconds) and the mean
/// `sphere_neighbors` latency at ε from strided dataset points (µs).
pub fn rtree(data: &Dataset, eps: f64) -> (f64, f64) {
    let (load_s, tree) = timed(|| {
        rtree::RTree::bulk_load_points(
            data.dim(),
            rtree::RTreeConfig::default(),
            data.iter().map(|(p, c)| (p, c.to_vec())),
        )
    });
    let queries = 5_000.min(data.len());
    let stride = data.len() / queries;
    let (query_s, _) = timed(|| {
        for i in 0..queries {
            black_box(tree.sphere_neighbors(data.point((i * stride) as PointId), eps));
        }
    });
    (load_s, query_s * 1e6 / queries as f64)
}

/// `build_micro_clusters` seconds and MC count.
pub fn mcs_build(data: &Dataset, eps: f64) -> (f64, usize) {
    let (s, tree) =
        timed(|| mcs::build_micro_clusters(data, eps, &BuildOptions::default(), &Counters::new()));
    (s, tree.mc_count())
}

/// `build_micro_clusters_par` seconds at `threads`.
pub fn mcs_par_build(data: &Dataset, eps: f64, threads: usize) -> f64 {
    timed(|| {
        mcs::build_micro_clusters_par(
            data,
            eps,
            &BuildOptions::default(),
            threads,
            &Counters::new(),
        )
    })
    .0
}

/// `plan_shards` on the store with the options the sharded executor
/// derives from `budget` and `threads`.
pub fn plan_s(store: &ChunkedStore, eps: f64, budget: usize, threads: usize) -> f64 {
    let opts = partition::ShardingOptions {
        min_shards: threads,
        max_shard_bytes: Some((budget / (2 * threads)).max(1)),
    };
    timed(|| black_box(partition::plan_shards(store, eps, &opts))).0
}

/// One pass over every chunk of the store, reading every coordinate:
/// MB of coordinates per second.
pub fn chunk_scan_mb_per_s(store: &ChunkedStore) -> f64 {
    let (s, sum) = timed(|| {
        let mut sum = 0.0;
        for c in 0..store.n_chunks() {
            let ch = store.chunk(c);
            for k in 0..ch.dim {
                sum += ch.col(k).iter().sum::<f64>();
            }
        }
        sum
    });
    black_box(sum);
    store.coord_bytes() as f64 / 1e6 / s
}

/// `obs::live::Registry::record_hist` from `threads` threads at once:
/// nanoseconds per record as seen by one thread.
pub fn registry_record_ns(threads: usize) -> f64 {
    const RECORDS: u64 = 200_000;
    let reg = obs::Registry::new();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for i in 0..RECORDS {
                    reg.record_hist("perfbench/record", black_box(i & 1023));
                }
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e9 / RECORDS as f64
}
