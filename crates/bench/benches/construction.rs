//! Ablation: micro-cluster construction — the 2ε deferral rule
//! (DESIGN.md §7.1).

use criterion::{criterion_group, criterion_main, Criterion};
use mcs::{build_micro_clusters, BuildOptions};
use metrics::Counters;
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let dataset = data::galaxy(20_000, 3, 11);
    let eps = 0.8;

    let mut g = c.benchmark_group("mc_construction");
    let variants = [
        ("default", BuildOptions::default()),
        ("no_2eps_deferral", BuildOptions { two_eps_deferral: false }),
    ];
    for (name, opts) in variants {
        g.bench_function(name, |b| {
            b.iter(|| {
                let counters = Counters::new();
                let t = build_micro_clusters(&dataset, eps, &opts, &counters);
                black_box(t.mc_count())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_construction
}
criterion_main!(benches);
