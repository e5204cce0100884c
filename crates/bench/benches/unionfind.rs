//! Union–find micro-benchmark (DESIGN.md §7.4): the sequential
//! structure with path halving against the lock-free concurrent one on
//! a single thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use unionfind::{ConcurrentUnionFind, UnionFind};

fn edges(n: usize, m: usize) -> Vec<(u32, u32)> {
    (0..m as u64)
        .map(|i| {
            let a = (i.wrapping_mul(2654435761) % n as u64) as u32;
            let b = (i.wrapping_mul(40503).wrapping_add(7) % n as u64) as u32;
            (a, b)
        })
        .collect()
}

fn bench_unionfind(c: &mut Criterion) {
    let n = 100_000;
    let es = edges(n, 400_000);

    let mut g = c.benchmark_group("unionfind");
    g.bench_function(BenchmarkId::new("sequential", "halving"), |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(n);
            for &(x, y) in &es {
                uf.union(x, y);
            }
            black_box(uf.find(0))
        })
    });
    g.bench_function("concurrent_single_thread", |b| {
        b.iter(|| {
            let uf = ConcurrentUnionFind::new(n);
            for &(x, y) in &es {
                uf.union(x, y);
            }
            black_box(uf.find(0))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_unionfind
}
criterion_main!(benches);
