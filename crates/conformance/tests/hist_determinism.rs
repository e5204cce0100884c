//! Determinism of the obs histograms at the conformance level.
//!
//! The histogram layer promises *exact, order-independent merges*: every
//! per-thread recording drains into the same fixed bucket layout, so the
//! final buckets (and therefore every reported percentile) must be
//! bit-identical no matter how work was interleaved. Two pins:
//!
//! 1. concurrent per-thread recording of a fixed sample multiset equals
//!    sequential recording of the same samples;
//! 2. `MuDbscan` at t ∈ {1, 2, 4} produces identical `query/*`
//!    histograms on a promotion-free dataset, where the step-3 query set
//!    is thread-count-invariant by construction.
//!
//! (`postproc/node_visits` is deliberately excluded from pin 2: the
//! post-processing block scans' execution depends on the union order,
//! which is interleaving-dependent at t > 1.) The one-thread engine's
//! histograms are pinned by `engine_golden`.

use geom::{Dataset, DbscanParams};
use mudbscan::MuDbscan;
use obs::Histogram;

/// The obs collector is process-global and the test harness runs tests on
/// parallel threads: serialize every enable/disable window.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` in a fresh enabled window (caller must hold `OBS_LOCK`) and
/// return the drained histograms.
fn hists_of(f: impl FnOnce()) -> Vec<(String, Histogram)> {
    obs::disable_tracing();
    obs::disable();
    obs::reset();
    obs::enable();
    f();
    obs::disable();
    obs::take_report().hists
}

fn hist<'a>(hists: &'a [(String, Histogram)], key: &str) -> &'a Histogram {
    &hists.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing hist {key}")).1
}

#[test]
fn threaded_recording_matches_sequential_recording() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A spread of magnitudes crossing many octaves, recorded twice: once
    // sequentially, once split over 8 threads in racy order.
    let samples: Vec<u64> = (0..4000u64).map(|i| (i * i * 2654435761) % 1_000_003 + 1).collect();

    let seq = hists_of(|| {
        for &v in &samples {
            obs::record_hist("pin/threaded_vs_seq", v);
        }
    });

    let par = hists_of(|| {
        std::thread::scope(|scope| {
            for chunk in samples.chunks(samples.len().div_ceil(8)) {
                scope.spawn(move || {
                    for &v in chunk {
                        obs::record_hist("pin/threaded_vs_seq", v);
                    }
                });
            }
        });
    });

    let (a, b) = (hist(&seq, "pin/threaded_vs_seq"), hist(&par, "pin/threaded_vs_seq"));
    assert_eq!(a, b, "concurrent merge drifted from sequential recording");
    assert_eq!(a.count(), samples.len() as u64);
    for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
        assert_eq!(a.percentile(q), b.percentile(q));
    }
}

/// A 2-d grid with 0.45 spacing at ε = 0.6: axis neighbours are within ε,
/// diagonals (≈0.636) are not, and **no** point other than itself lies
/// within ε/2 = 0.3 — so the step-3 dynamic wndq promotion rule can never
/// fire and the saved-query set is identical for every thread count.
fn promotion_free_grid() -> Dataset {
    let mut rows = Vec::new();
    for i in 0..18 {
        for j in 0..18 {
            rows.push(vec![0.45 * i as f64, 0.45 * j as f64]);
        }
    }
    Dataset::from_rows(&rows)
}

#[test]
fn par_query_histograms_identical_across_thread_counts() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = promotion_free_grid();
    let params = DbscanParams::new(0.6, 5);

    let runs: Vec<(usize, Vec<(String, Histogram)>)> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let h = hists_of(|| {
                MuDbscan::from_params(params).threads(threads).run(&data);
            });
            (threads, h)
        })
        .collect();

    let (_, base) = &runs[0];
    for (threads, h) in &runs[1..] {
        for key in ["query/node_visits", "query/candidates", "query/leaf_evals"] {
            let (a, b) = (hist(base, key), hist(h, key));
            assert_eq!(a, b, "t={threads}: histogram {key} drifted from t=1");
            assert!(a.count() > 0, "{key} must have samples");
        }
    }
}
