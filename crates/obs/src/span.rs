//! The span layer: a process-global switch, a thread-local span stack,
//! and the global [`Registry`] every record lands in.
//!
//! Design constraints (in priority order):
//!
//! 1. **Zero-cost when off.** Every entry point loads one relaxed
//!    `AtomicBool` and returns; no allocation, no lock, no clock read.
//!    Library code can therefore stay permanently instrumented.
//! 2. **Behaviour-neutral.** Instrumentation only reads clocks and writes
//!    to its own maps — it never touches algorithm state. The
//!    `conformance` crate pins this with a differential test (identical
//!    clustering with collection on and off).
//! 3. **Thread-safe.** Spans may be opened and dropped on any thread;
//!    every record goes to one `static` [`Registry`], whose maps sit
//!    behind one mutex. What that lock costs per record, on one thread
//!    and on all of them at once, is the `obs.registry_record_ns_t1` /
//!    `obs.registry_record_ns_tN` layer of the repository benchmark.
//!
//! Hierarchy comes from a thread-local stack of open span names: a span
//! opened while another is open on the *same thread* is charged to the
//! slash-joined path (`"mudbscan/tree_construction/mc_build/mc_blocks"`). Spans
//! opened on freshly spawned worker threads start a new root — worker
//! phases therefore appear as their own top-level paths, which is what
//! the per-rank/per-thread breakdowns want anyway.

use crate::live::Registry;
use crate::report::Report;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global store behind the free functions of this module.
static GLOBAL: Registry = Registry::new();

thread_local! {
    /// Names of the spans currently open on this thread, outermost
    /// first, and the buffer their slash-joined path is built in (reused,
    /// so closing a span on a known path allocates nothing).
    static STACK: RefCell<(Vec<&'static str>, String)> =
        const { RefCell::new((Vec::new(), String::new())) };
}

/// Turn collection on. Instrumented code starts recording at the next
/// span/record call; spans already open keep their (pre-enable) path.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn collection off. Spans currently open will still record on drop
/// (they captured their start when opened); new ones become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether collection is currently on. Callers that must *build* data to
/// record (format a name, compute a byte count) should check this first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discard all collected data (spans, counts, values, histograms) and
/// any buffered trace events. Open spans will still record on drop.
pub fn reset() {
    GLOBAL.take();
    crate::trace::clear();
}

/// Fold the trace-layer drop counter into `r` as
/// `obs/trace_dropped_events`, in sorted position (only when non-zero,
/// so clean runs keep their exact key set).
fn with_dropped(mut r: Report, dropped: u64) -> Report {
    if dropped > 0 {
        const KEY: &str = "obs/trace_dropped_events";
        let at = r.counts.partition_point(|(k, _)| k.as_str() < KEY);
        r.counts.insert(at, (KEY.to_string(), dropped));
    }
    r
}

/// Swap the collected data out into a [`Report`], leaving the collector
/// empty (and draining the trace-layer drop counter). The enabled flag
/// is not changed; the event-trace buffers are separate (see
/// [`crate::trace::take_trace`]). With [`snapshot_report`] this is the
/// "window from the beginning" special case: drain ≡ snapshot + clear.
pub fn take_report() -> Report {
    with_dropped(GLOBAL.take(), crate::trace::take_dropped())
}

/// Clone the collected data into a [`Report`] **without draining it** —
/// the live-telemetry primitive: a poll observes the cumulative state
/// mid-run and perturbs nothing (neither the collector nor any open
/// span). Successive snapshots are monotone, so
/// [`Report::delta_since`] between them yields exact per-window deltas;
/// a later [`take_report`] still returns the full cumulative state.
pub fn snapshot_report() -> Report {
    with_dropped(GLOBAL.cumulative(), crate::trace::dropped_events())
}

/// Add `n` to the named monotone counter. No-op while disabled.
///
/// ```
/// obs::reset();
/// obs::enable();
/// obs::record_count("mc_dense", 3);
/// obs::record_count("mc_dense", 4);
/// obs::disable();
/// assert_eq!(obs::take_report().count("mc_dense"), 7);
/// ```
pub fn record_count(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    GLOBAL.add_count(name, n);
}

/// Add `v` to the named additive value (virtual seconds, ratios, bytes
/// that want to stay fractional). No-op while disabled.
pub fn record_value(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    GLOBAL.add_value(name, v);
}

/// Record one sample into the named log-bucketed [`crate::Histogram`]
/// (per-query node visits, candidate counts, per-superstep comm bytes).
/// No-op while disabled.
///
/// ```
/// obs::reset();
/// obs::enable();
/// obs::record_hist("query/node_visits", 12);
/// obs::record_hist("query/node_visits", 300);
/// obs::disable();
/// let r = obs::take_report();
/// assert_eq!(r.hist("query/node_visits").unwrap().count(), 2);
/// ```
pub fn record_hist(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    GLOBAL.record_hist(name, v);
}

/// An open phase span. Created by [`span`] / the `span!` macro; records
/// its wall-clock duration under its hierarchical path when dropped.
///
/// The guard is intentionally not `Send`: a span must be dropped on the
/// thread that opened it, because the hierarchy lives in a thread-local
/// stack.
#[must_use = "binding to `_` drops the span immediately; use `let _s = span(..)`"]
#[derive(Debug)]
pub struct Span {
    /// `None` when collection was disabled at open time (no-op guard).
    start: Option<Instant>,
    /// Whether a trace begin event was emitted (so the drop emits the
    /// balancing end even if tracing is toggled off mid-span).
    traced: bool,
    /// Marker making the type `!Send` (raw pointers are not `Send`).
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a phase span named `name`, nested under the spans currently open
/// on this thread. See the crate docs for an example.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None, traced: false, _not_send: std::marker::PhantomData };
    }
    STACK.with(|s| s.borrow_mut().0.push(name));
    let traced = crate::trace::tracing_enabled();
    if traced {
        crate::trace::span_begin(name);
    }
    Span { start: Some(Instant::now()), traced, _not_send: std::marker::PhantomData }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        if self.traced {
            crate::trace::span_end();
        }
        STACK.with(|s| {
            let (stack, path) = &mut *s.borrow_mut();
            path.clear();
            for (i, name) in stack.iter().enumerate() {
                if i > 0 {
                    path.push('/');
                }
                path.push_str(name);
            }
            stack.pop();
            GLOBAL.record_span(path, elapsed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_support::locked;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        reset();
        disable();
        {
            let _s = span("ghost");
            record_count("ghost_count", 5);
            record_value("ghost_value", 1.0);
        }
        let r = take_report();
        assert!(r.spans.is_empty());
        assert!(r.counts.is_empty());
        assert!(r.values.is_empty());
    }

    #[test]
    fn nested_spans_join_paths() {
        let _g = locked();
        reset();
        enable();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        disable();
        let r = take_report();
        assert_eq!(r.span_count("outer"), 1);
        assert_eq!(r.span_count("outer/inner"), 2);
        assert!(r.span_secs("outer") >= r.span_secs("outer/inner"));
    }

    #[test]
    fn spans_from_threads_aggregate() {
        let _g = locked();
        reset();
        enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        let _s = span("worker_phase");
                    }
                });
            }
        });
        disable();
        let r = take_report();
        assert_eq!(r.span_count("worker_phase"), 32);
    }

    #[test]
    fn counts_and_values_accumulate() {
        let _g = locked();
        reset();
        enable();
        record_count("c", 1);
        record_count("c", 2);
        record_value("v", 0.5);
        record_value("v", 0.25);
        disable();
        let r = take_report();
        assert_eq!(r.count("c"), 3);
        assert!((r.value("v") - 0.75).abs() < 1e-12);
        // Missing names read as zero.
        assert_eq!(r.count("absent"), 0);
        assert_eq!(r.value("absent"), 0.0);
    }

    #[test]
    fn take_report_drains() {
        let _g = locked();
        reset();
        enable();
        record_count("once", 1);
        disable();
        assert_eq!(take_report().count("once"), 1);
        assert_eq!(take_report().count("once"), 0);
    }

    #[test]
    fn snapshot_report_does_not_drain() {
        let _g = locked();
        reset();
        enable();
        record_count("live", 2);
        record_hist("lat", 40);
        let s1 = snapshot_report();
        record_count("live", 3);
        record_hist("lat", 7);
        let s2 = snapshot_report();
        disable();
        assert_eq!(s1.count("live"), 2);
        assert_eq!(s2.count("live"), 5);
        let w = s2.delta_since(&s1);
        assert_eq!(w.count("live"), 3);
        assert_eq!(w.hist("lat").unwrap().count(), 1);
        // The one-shot drain is unchanged by any number of snapshots.
        assert_eq!(take_report().count("live"), 5);
        assert_eq!(take_report().count("live"), 0);
    }

    #[test]
    fn histograms_accumulate_and_drain() {
        let _g = locked();
        reset();
        enable();
        for v in [1u64, 2, 3, 1000] {
            record_hist("h", v);
        }
        disable();
        record_hist("h", 99); // ignored: disabled
        let r = take_report();
        let h = r.hist("h").expect("histogram recorded");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1000);
        assert!(take_report().hist("h").is_none(), "take_report drains hists");
    }

    #[test]
    fn span_durations_feed_a_histogram() {
        let _g = locked();
        reset();
        enable();
        for _ in 0..5 {
            let _s = span("timed");
        }
        disable();
        let r = take_report();
        let (_, stat) = r.spans.iter().find(|(p, _)| p == "timed").unwrap();
        assert_eq!(stat.dur_ns.count(), 5);
        assert!(stat.dur_ns.percentile(0.5) <= stat.dur_ns.max());
    }

    /// Records racing a drain: workers record counts and histogram
    /// samples while another thread calls `take_report` over and over.
    /// A barrier forces one drain between the workers' two halves; the
    /// rest race freely. Every record lands in exactly one drained
    /// report, so the drains plus one final report add up to exactly
    /// what was recorded.
    #[test]
    fn drains_racing_records_lose_and_duplicate_nothing() {
        const WORKERS: u64 = 4;
        const HALF: u64 = 2_500;
        let _g = locked();
        reset();
        enable();
        let done = &AtomicBool::new(false);
        let halfway = std::sync::Barrier::new(WORKERS as usize + 1);
        let record = |w: u64, range: std::ops::Range<u64>| {
            for i in range {
                record_count("race/n", 1);
                record_hist("race/h", w * 2 * HALF + i);
            }
        };
        let mut total = std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let (halfway, record) = (&halfway, &record);
                    s.spawn(move || {
                        record(w, 0..HALF);
                        halfway.wait(); // the first halves are in ...
                        halfway.wait(); // ... and drained
                        record(w, HALF..2 * HALF);
                    })
                })
                .collect();
            halfway.wait();
            let mut drained = take_report();
            assert_eq!(drained.count("race/n"), WORKERS * HALF, "the forced drain sees the halves");
            halfway.wait();
            let drainer = s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    drained.merge(&take_report());
                    std::thread::yield_now();
                }
                drained
            });
            for w in workers {
                w.join().expect("worker panicked");
            }
            done.store(true, Ordering::Relaxed);
            drainer.join().expect("drainer panicked")
        });
        disable();
        total.merge(&take_report());
        let mut expected = crate::Histogram::new();
        for v in 0..WORKERS * 2 * HALF {
            expected.record(v);
        }
        assert_eq!(total.count("race/n"), WORKERS * 2 * HALF);
        assert_eq!(total.hist("race/h"), Some(&expected), "drained histograms must add up exactly");
    }

    /// Satellite: a panic inside a nested span (caught with
    /// `catch_unwind`) must leave the thread-local span stack and the
    /// global collector consistent — later spans get correct
    /// slash-joined paths and no lock stays poisoned.
    #[test]
    fn unwind_through_nested_spans_keeps_state_consistent() {
        let _g = locked();
        reset();
        enable();
        let _outer = crate::span!("outer");
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _mid = crate::span!("mid");
            let _inner = crate::span!("inner");
            // Take the collector lock mid-panic path: record something,
            // then panic while the guards are live.
            record_count("before_panic", 1);
            panic!("injected");
        }));
        std::panic::set_hook(prev_hook);
        assert!(result.is_err(), "the injected panic must propagate to catch_unwind");

        // The unwound guards popped themselves: a new span nests directly
        // under "outer", and every record call still works (no poison).
        {
            let _after = crate::span!("after");
            record_count("after_panic", 1);
            record_value("after_value", 1.5);
            record_hist("after_hist", 7);
        }
        drop(_outer);
        disable();
        let r = take_report();
        assert_eq!(r.span_count("outer"), 1);
        assert_eq!(r.span_count("outer/mid"), 1, "unwound span still recorded");
        assert_eq!(r.span_count("outer/mid/inner"), 1);
        assert_eq!(r.span_count("outer/after"), 1, "stack must be clean after unwind");
        assert_eq!(r.span_count("after"), 0, "path must still nest under outer");
        assert_eq!(r.count("before_panic"), 1);
        assert_eq!(r.count("after_panic"), 1);
        assert_eq!(r.value("after_value"), 1.5);
        assert_eq!(r.hist("after_hist").unwrap().count(), 1);
    }

    /// A panic on a worker thread (poisoning scenario for plain mutexes)
    /// must not wedge the global collector for other threads.
    #[test]
    fn panic_on_worker_thread_does_not_poison_collector() {
        let _g = locked();
        reset();
        enable();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
        let worker = std::thread::spawn(|| {
            let _s = span("doomed");
            panic!("worker dies with a span open");
        });
        assert!(worker.join().is_err());
        std::panic::set_hook(prev_hook);
        {
            let _s = span("survivor");
        }
        disable();
        let r = take_report();
        assert_eq!(r.span_count("doomed"), 1, "unwound worker span recorded");
        assert_eq!(r.span_count("survivor"), 1);
    }
}
