//! Instrumentation must be behaviour-neutral: the `obs` spans and
//! counters woven through the hot paths only read clocks and write to
//! their own maps, so clustering output with collection **on** must be
//! bit-identical to output with collection **off**, for every algorithm
//! family the trajectory file covers.

use conformance::{DatasetSpec, Family};
use dist::{DistConfig, MuDbscanD};
use geom::{Dataset, DbscanParams};
use mudbscan::{Clustering, MuDbscan};

fn seeded_dataset() -> Dataset {
    let spec = DatasetSpec { family: Family::Blobs, n: 400, dim: 3, seed: 2019 };
    Dataset::from_rows(&spec.rows())
}

/// The obs collector is process-global and the test harness runs tests on
/// parallel threads: serialize every enable/disable window.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with obs disabled, with aggregate collection enabled, and with
/// aggregates + event tracing enabled, asserting identical clusterings in
/// all three arms. Leaves the global collector disabled and drained.
fn assert_neutral(label: &str, f: impl Fn() -> Clustering) {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable_tracing();
    obs::disable();
    obs::reset();
    let plain = f();

    obs::reset();
    obs::enable();
    let instrumented = f();
    obs::disable();
    let report = obs::take_report();

    // Third arm: everything on at once — aggregates, histograms (span
    // durations and hot-path samples feed them automatically) and the
    // event-trace ring. Must still be bit-identical.
    obs::reset();
    obs::enable();
    obs::enable_tracing();
    let traced = f();
    obs::disable_tracing();
    obs::disable();
    let trace = obs::take_trace();
    obs::reset();

    assert_eq!(plain, instrumented, "{label}: clustering changed when obs collection was enabled");
    assert_eq!(plain.n_clusters, instrumented.n_clusters, "{label}: cluster count drifted");
    assert!(!report.spans.is_empty(), "{label}: the instrumented run must actually record spans");
    assert_eq!(plain, traced, "{label}: clustering changed when event tracing was enabled");
    assert!(!trace.is_empty(), "{label}: the traced run must actually record events");
    trace.validate().unwrap_or_else(|e| panic!("{label}: emitted trace is inconsistent: {e}"));
    let span_paths: Vec<&str> = report.spans.iter().map(|(k, _)| k.as_str()).collect();
    assert!(
        report.spans.iter().any(|(_, s)| !s.dur_ns.is_empty()),
        "{label}: span durations must feed a histogram; spans: {span_paths:?}"
    );
}

#[test]
fn sequential_mudbscan_is_obs_neutral() {
    let data = seeded_dataset();
    let params = DbscanParams::new(0.6, 5);
    assert_neutral("mudbscan_seq", || MuDbscan::from_params(params).run(&data).clustering);
}

#[test]
fn parallel_mudbscan_is_obs_neutral() {
    let data = seeded_dataset();
    let params = DbscanParams::new(0.6, 5);
    for threads in [1, 4] {
        assert_neutral(&format!("par_mudbscan_t{threads}"), || {
            MuDbscan::from_params(params).threads(threads).run(&data).clustering
        });
    }
}

#[test]
fn distributed_mudbscan_is_obs_neutral() {
    let data = seeded_dataset();
    let params = DbscanParams::new(0.6, 5);
    for ranks in [1, 4] {
        assert_neutral(&format!("mudbscan_d_p{ranks}"), || {
            MuDbscanD::from_params(params, DistConfig::new(ranks))
                .run(&data)
                .expect("dist run")
                .clustering
        });
    }
}

/// The live-telemetry layer must be observation-only: draining windowed
/// snapshots off the global collector *while the algorithm runs* — the
/// way `serve_top` or a metrics endpoint would — must perturb neither
/// the clustering nor the drained aggregates. The quiet arm and the
/// polled arm run the same deterministic workload, so their counters
/// and (count-valued) histograms must drain bit-identically; and the
/// poller's merged windows can never exceed the cumulative stream they
/// partition.
#[test]
fn live_snapshot_polling_is_obs_neutral() {
    let data = seeded_dataset();
    let params = DbscanParams::new(0.6, 5);
    let run = || MuDbscan::from_params(params).run(&data).clustering;

    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable_tracing();

    // Quiet arm: instrumented, nobody polling.
    obs::reset();
    obs::enable();
    let quiet = run();
    obs::disable();
    let quiet_report = obs::take_report();

    // Polled arm: the same run with a racing poller draining windowed
    // snapshots and rendering the Prometheus exposition the whole time.
    obs::reset();
    obs::enable();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (polled, windows) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut cursor = obs::WindowCursor::new();
            let mut series = obs::LiveSeries::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = cursor.poll_global();
                let _ = obs::render_prom(&snap.window, "mudbscan");
                series.push(snap.window);
                std::thread::yield_now();
            }
            // One final drain after the run stops: on a one-core host
            // the scheduler may never run this thread mid-workload, so
            // without it the series could legitimately be empty.
            let snap = cursor.poll_global();
            let _ = obs::render_prom(&snap.window, "mudbscan");
            series.push(snap.window);
            series
        });
        let polled = run();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (polled, poller.join().expect("poller thread"))
    });
    obs::disable();
    let polled_report = obs::take_report();
    obs::reset();

    assert_eq!(quiet, polled, "clustering changed under live snapshot polling");
    assert_eq!(
        quiet_report.counts, polled_report.counts,
        "drained counters perturbed by mid-run polling"
    );
    assert_eq!(
        quiet_report.hists, polled_report.hists,
        "drained histograms perturbed by mid-run polling"
    );
    assert!(!windows.is_empty(), "the poller must actually drain windows");
    // Window algebra: the deltas partition a monotone prefix of the
    // cumulative stream — merging them can reproduce at most what the
    // final drain saw.
    let merged = windows.merged();
    for (k, v) in &merged.counts {
        assert!(
            polled_report.count(k) >= *v,
            "merged windows over-counted {k}: {v} > {}",
            polled_report.count(k)
        );
    }
}

#[test]
fn baselines_are_obs_neutral() {
    let data = seeded_dataset();
    let params = DbscanParams::new(0.6, 5);
    assert_neutral("rdbscan", || baselines::RDbscan::new(params).run(&data).clustering);
    assert_neutral("gdbscan", || baselines::GDbscan::new(params).run(&data).clustering);
    assert_neutral("griddbscan", || {
        baselines::GridDbscan::new(params).run(&data).expect("within budget").clustering
    });
}
