//! Benchmarks of the extension algorithms: streaming ingestion, OPTICS
//! ordering, and the shared-memory parallel variant — all against the
//! batch sequential μDBSCAN on the same workload.

use criterion::{criterion_group, criterion_main, Criterion};
use geom::DbscanParams;
use mudbscan::MuDbscan;
use optics::Optics;
use std::hint::black_box;
use stream::StreamingMuDbscan;

fn bench_extensions(c: &mut Criterion) {
    let dataset = data::galaxy(8_000, 3, 23);
    let params = DbscanParams::new(0.8, 5);

    let mut g = c.benchmark_group("extensions");
    g.bench_function("batch_mudbscan", |b| {
        b.iter(|| black_box(MuDbscan::from_params(params).run(&dataset).clustering.n_clusters))
    });
    g.bench_function("parallel_mudbscan_4t", |b| {
        b.iter(|| {
            black_box(MuDbscan::from_params(params).threads(4).run(&dataset).clustering.n_clusters)
        })
    });
    g.bench_function("streaming_ingest_all", |b| {
        b.iter(|| {
            let mut s = StreamingMuDbscan::empty(3, params);
            s.extend_from(&dataset);
            black_box(s.canonical_snapshot().n_clusters)
        })
    });
    g.bench_function("optics_ordering", |b| {
        b.iter(|| black_box(Optics::from_params(params).run(&dataset).order.len()))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_extensions
}
criterion_main!(benches);
