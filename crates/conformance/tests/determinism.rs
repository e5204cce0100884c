//! Replay determinism: the same input run twice gives the same run.
//!
//! Exactness (`check_exact`) accepts any border claim order and says
//! nothing about work done, so it cannot see a run that drifts between
//! two replays. These tests run each item twice on fixed seeded inputs,
//! each run in its own obs window, and compare everything that is a pure
//! function of the input:
//!
//! 1. every family of `conformance::registry`: labels, core flags,
//!    cluster and noise counts, the five work counters and every
//!    histogram. At t ≥ 2 the μDBSCAN engine's executed-query set
//!    depends on which worker promotes a core first, so the
//!    `mu-par/t{2,4,8}` arms keep their core flags and cluster and noise
//!    counts exact, and hold their counters and `query/*` histogram
//!    sample counts within [`INTERLEAVED_REL`] on the benchmark
//!    trajectory's three workloads. On the small conformance shapes a
//!    run executes a few dozen queries, and a swing of a few queries
//!    there is already more than the band;
//! 2. a served trace with TTLs and deletes, at the default and the zero
//!    repair budget: the `serve/*` census of the cumulative stats, the
//!    final epoch and live count, labels, the writer's counters and the
//!    histograms;
//! 3. a sharded run at fixed shards, threads and memory budget: shard
//!    count, halo points, merge edges, clusters, noise, labels (equal
//!    labels also mean equal border ties against any reference run) and
//!    the histograms;
//! 4. a four-rank μDBSCAN-D run under a fault plan with one fault of
//!    every class: the fault layer's replay signature, the work counters,
//!    labels and the histograms.
//!
//! Histograms compare bucket for bucket, except the wall-clock ones
//! (see [`is_wall_clock`]), whose sample counts alone replay.
//! `hist_determinism.rs` pins histogram merging across thread counts and
//! `engine_golden.rs` pins the one-thread engine to recorded values.

use std::sync::Mutex;

use conformance::{registry, DatasetSpec, Family as Data, FAMILIES};
use data::paper_table2_specs;
use geom::{Dataset, DbscanParams};
use metrics::Counters;
use mudbscan::prelude::{Fault, FaultPlan, RunDetails, Runner, ServeOp, ServeOptions};
use obs::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest relative drift of a work counter or histogram sample count
/// between two runs of a thread-interleaved arm: `|a − b| / max(a, 1)`.
const INTERLEAVED_REL: f64 = 0.25;

/// The benchmark trajectory's workloads (`emit_bench`), at its CI
/// smoke size.
const BENCH_WORKLOADS: [&str; 3] = ["3DSRN", "DGB0.5M3D", "HHP0.5M5D"];
const BENCH_SMOKE_N: usize = 1_500;

/// `(n, dim, eps, min_pts)`: a 3-d shape and a 2-d shape with core,
/// border and noise points in most families.
const SHAPES: [(usize, usize, f64, usize); 2] = [(300, 3, 0.6, 5), (1_000, 2, 0.15, 5)];

/// The obs collector is process-global and the test harness runs tests
/// on parallel threads, so every run here happens inside [`observed`],
/// which holds this lock for the length of its window.
static OBS_LOCK: Mutex<()> = Mutex::new(());

type Hists = Vec<(String, Histogram)>;

/// Run `f` in a fresh obs window and return its result with the
/// histograms it recorded.
fn observed<T>(f: impl FnOnce() -> T) -> (T, Hists) {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable_tracing();
    obs::disable();
    obs::reset();
    obs::enable();
    let out = f();
    obs::disable();
    (out, obs::take_report().hists)
}

/// Histograms of wall-clock timings, which no replay reproduces: the
/// lost rank's re-execution (`recovery/compute_us`) and the serving
/// engine's per-operation latencies (`serve/*_us`).
fn is_wall_clock(key: &str) -> bool {
    key == "recovery/compute_us" || (key.starts_with("serve/") && key.ends_with("_us"))
}

fn keys(hists: &Hists) -> Vec<&str> {
    hists.iter().map(|(key, _)| key.as_str()).collect()
}

fn hist<'a>(hists: &'a Hists, key: &str) -> &'a Histogram {
    &hists.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing histogram {key}")).1
}

/// Two runs recorded the same histograms: the same keys and sample
/// counts, and the same buckets wherever the samples are not timings.
fn assert_same_hists(ctx: &str, a: &Hists, b: &Hists) {
    assert_eq!(keys(a), keys(b), "{ctx}: histogram keys");
    for ((key, x), (_, y)) in a.iter().zip(b) {
        assert_eq!(x.count(), y.count(), "{ctx}: {key} sample count");
        if !is_wall_clock(key) {
            assert!(x == y, "{ctx}: histogram {key} differs");
        }
    }
}

fn counts(c: &Counters) -> [u64; 5] {
    [c.range_queries(), c.queries_saved(), c.dist_computations(), c.node_visits(), c.union_ops()]
}

fn drift(x: u64, y: u64) -> f64 {
    x.abs_diff(y) as f64 / x.max(1) as f64
}

fn dataset(family: Data, n: usize, dim: usize) -> Dataset {
    Dataset::from_rows(&DatasetSpec { family, n, dim, seed: 2019 }.rows())
}

#[test]
fn every_registry_family_repeats_its_run() {
    for (n, dim, eps, min_pts) in SHAPES {
        let params = DbscanParams::new(eps, min_pts);
        for family in FAMILIES {
            let data = dataset(family, n, dim);
            for imp in registry() {
                let ctx = format!("{} on {} n={n} d={dim}", imp.name(), family.as_str());
                let run = || observed(|| imp.run(&data, &params));
                let ((a, ha), (b, hb)) = (run(), run());
                let ((ca, wa), (cb, wb)) = match (a, b) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(_), Err(_)) => continue,
                    _ => panic!("{ctx}: declined the input on one run only"),
                };
                assert!(ca.is_core == cb.is_core, "{ctx}: core flags differ");
                assert_eq!(ca.n_clusters, cb.n_clusters, "{ctx}: n_clusters");
                assert_eq!(ca.noise_count(), cb.noise_count(), "{ctx}: noise count");
                if imp.name().starts_with("mu-par/") {
                    continue; // see `interleaved_arms_hold_their_work_within_the_band`
                }
                assert!(ca.labels == cb.labels, "{ctx}: labels differ");
                assert_eq!(counts(&wa), counts(&wb), "{ctx}: counters");
                assert_same_hists(&ctx, &ha, &hb);
            }
        }
    }
}

#[test]
fn interleaved_arms_hold_their_work_within_the_band() {
    let specs = paper_table2_specs();
    for workload in BENCH_WORKLOADS {
        let spec = specs.iter().find(|s| s.name == workload).expect("catalog spec");
        let data = spec.generate_n(BENCH_SMOKE_N, 2019);
        for imp in registry().into_iter().filter(|imp| imp.name().starts_with("mu-par/")) {
            let ctx = format!("{} on {}", imp.name(), spec.name);
            let run = || observed(|| imp.run(&data, &spec.params).expect("μDBSCAN never declines"));
            let (((ca, wa), ha), ((cb, wb), hb)) = (run(), run());
            assert!(ca.is_core == cb.is_core, "{ctx}: core flags differ");
            assert_eq!(ca.n_clusters, cb.n_clusters, "{ctx}: n_clusters");
            assert_eq!(ca.noise_count(), cb.noise_count(), "{ctx}: noise count");
            let (wa, wb) = (counts(&wa), counts(&wb));
            for (x, y) in wa.iter().zip(&wb) {
                assert!(
                    drift(*x, *y) <= INTERLEAVED_REL,
                    "{ctx}: counters {wa:?} vs {wb:?} drift past {INTERLEAVED_REL}"
                );
            }
            // Every executed query records one sample in each `query/*`
            // histogram, so their counts move with the query counters.
            // Their percentiles, and the two or three samples of
            // `postproc/node_visits`, are not compared: a log bucket is a
            // 12–45% step here, and a swing of a few queries moves a
            // percentile across one.
            for key in ["query/node_visits", "query/candidates", "query/leaf_evals"] {
                let (x, y) = (hist(&ha, key).count(), hist(&hb, key).count());
                assert!(
                    drift(x, y) <= INTERLEAVED_REL,
                    "{ctx}: {key} counts {x} vs {y} drift past {INTERLEAVED_REL}"
                );
            }
        }
    }
}

/// The `serve/*` counters of the cumulative stats the replay compares.
const SERVE_KEYS: [&str; 8] = [
    "serve/inserts",
    "serve/deletes",
    "serve/deletes_ignored",
    "serve/expiries",
    "serve/repairs",
    "serve/repair_touched_points",
    "serve/rebuilds",
    "serve/fallback_rebuilds",
];

const SERVE_BATCHES: usize = 12;
const SERVE_PER_BATCH: usize = 80;

/// A seeded served trace: batch `b` inserts the next 80 points of a
/// mixed 2-d dataset (every seventh with a two-epoch TTL) and, from
/// `b = 2` on, deletes 12 ids drawn from those inserted before it.
/// Some drawn ids have already expired or been deleted, so the engine
/// ignores them.
fn serve_trace() -> Vec<Vec<ServeOp>> {
    let rows =
        DatasetSpec { family: Data::Mixed, n: SERVE_BATCHES * SERVE_PER_BATCH, dim: 2, seed: 2019 }
            .rows();
    let mut rng = StdRng::seed_from_u64(2019);
    let mut rows = rows.into_iter().enumerate();
    (0..SERVE_BATCHES)
        .map(|b| {
            let inserted = (b * SERVE_PER_BATCH) as u64;
            let mut ops: Vec<ServeOp> = if b >= 2 {
                (0..12).map(|_| ServeOp::delete(rng.gen_range(0..inserted))).collect()
            } else {
                Vec::new()
            };
            ops.extend(rows.by_ref().take(SERVE_PER_BATCH).map(|(id, coords)| {
                if id % 7 == 3 {
                    ServeOp::insert_ttl(coords, 2)
                } else {
                    ServeOp::insert(coords)
                }
            }));
            ops
        })
        .collect()
}

/// Everything a served replay is compared on.
struct Served {
    census: [u64; 8],
    epoch: u64,
    len: usize,
    labels: Vec<u32>,
    counters: [u64; 5],
}

fn replay(repair_budget: Option<usize>) -> Served {
    let handle = Runner::new(DbscanParams::new(0.3, 4))
        .serve_options(ServeOptions { repair_budget, ..Default::default() })
        .serve(2)
        .expect("serving configuration");
    for batch in serve_trace() {
        handle.ingest(batch).expect("writer alive");
    }
    let drained = handle.drain().expect("writer alive");
    let stats = handle.stats();
    Served {
        census: SERVE_KEYS.map(|k| stats.cumulative.count(k)),
        epoch: drained.snapshot.epoch(),
        len: drained.snapshot.len(),
        labels: drained.snapshot.clustering().labels.clone(),
        counters: counts(&drained.counters),
    }
}

#[test]
fn a_served_trace_replays_to_the_same_census() {
    for budget in [None, Some(0)] {
        let ((a, ha), (b, hb)) = (observed(|| replay(budget)), observed(|| replay(budget)));
        let ctx = format!("budget {budget:?}");
        assert_eq!(a.census, b.census, "{ctx}: census {SERVE_KEYS:?}");
        assert_eq!((a.epoch, a.len), (b.epoch, b.len), "{ctx}: final epoch and live count");
        assert_eq!(a.counters, b.counters, "{ctx}: writer counters");
        assert!(a.labels == b.labels, "{ctx}: final labels differ");
        assert_same_hists(&ctx, &ha, &hb);
        let census = |k: &str| a.census[SERVE_KEYS.iter().position(|key| *key == k).unwrap()];
        // The trace exercises what it claims to.
        for key in ["serve/deletes", "serve/deletes_ignored", "serve/expiries", "serve/repairs"] {
            assert!(census(key) > 0, "{ctx}: {key} never counted");
        }
        assert_eq!(a.epoch, SERVE_BATCHES as u64, "one epoch per batch");
        if budget == Some(0) {
            assert!(census("serve/fallback_rebuilds") > 0, "{ctx}: never rebuilt");
        }
    }
}

#[test]
fn a_sharded_run_repeats_its_plan_and_merge() {
    let data = dataset(Data::Mixed, 4_000, 3);
    let budget = data.len() * data.dim() * std::mem::size_of::<f64>() / 2;
    let runner = Runner::new(DbscanParams::new(0.3, 5)).shards(8).threads(4).memory_budget(budget);
    let sharded = || {
        let out = runner.run(&data).expect("sharded run");
        let RunDetails::Sharded { n_shards, halo_points, edges, .. } = out.details else {
            panic!("expected Sharded details, got {:?}", out.details);
        };
        (n_shards, halo_points, edges, out.clustering)
    };
    let ((a, ha), (b, hb)) = (observed(sharded), observed(sharded));
    assert!(a.0 >= 8 && a.1 > 0 && a.2 > 0, "the run must cut shards, gather halos and merge");
    assert_eq!((a.0, a.1, a.2), (b.0, b.1, b.2), "shards, halo points, merge edges");
    assert_eq!(a.3.n_clusters, b.3.n_clusters, "clusters");
    assert_eq!(a.3.noise_count(), b.3.noise_count(), "noise");
    assert!(a.3 == b.3, "labels or core flags differ");
    assert_same_hists("sharded", &ha, &hb);
}

/// One fault of every class on four ranks, all recoverable under the
/// default retry budget (`emit_bench`'s `mudbscan_d_p4_faults` plan):
/// superstep 0 is the local clustering, superstep 2 the merge exchange.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(2019)
        .with(Fault::Crash { rank: 1, superstep: 0 })
        .with(Fault::Drop { superstep: 2, from: 1, to: 0, attempts: 3 })
        .with(Fault::Drop { superstep: 2, from: 2, to: 0, attempts: 3 })
        .with(Fault::Drop { superstep: 2, from: 3, to: 0, attempts: 3 })
        .with(Fault::Duplicate { superstep: 2, from: 3, to: 0 })
        .with(Fault::Reorder { superstep: 2, to: 0 })
        .with(Fault::Straggler { rank: 2, slowdown: 4.0 })
}

#[test]
fn a_faulted_distributed_run_replays_its_work() {
    let data = dataset(Data::Mixed, 2_000, 3);
    let runner = Runner::new(DbscanParams::new(0.3, 5)).ranks(4).fault_plan(fault_plan());
    let faulted = || {
        let out = runner.run(&data).expect("faulted run");
        let RunDetails::Distributed { fault_stats, .. } = out.details else {
            panic!("expected Distributed details, got {:?}", out.details);
        };
        (fault_stats.replay_signature(), counts(&out.counters), out.clustering)
    };
    let ((a, ha), (b, hb)) = (observed(faulted), observed(faulted));
    assert_eq!(a.0, b.0, "fault counters (replay signature)");
    assert_eq!(a.1, b.1, "work counters");
    assert!(a.2 == b.2, "labels or core flags differ");
    assert_same_hists("faulted", &ha, &hb);
    // The plan exercises what it claims to.
    for key in ["fault/retry_delay_us", "recovery/compute_us", "recovery/rerequest_bytes"] {
        assert!(keys(&ha).contains(&key), "{key} never recorded");
    }
}
