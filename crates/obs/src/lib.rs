#![deny(missing_docs)]

//! # obs — three-layer observability for the μDBSCAN workspace
//!
//! The paper's whole evaluation (§VI, Tables II–VIII) is about *where time
//! goes*: micro-cluster construction vs classification vs the restricted
//! step-3 queries vs post-processing and merge, and how many ε-queries the
//! wndq-core machinery saves. This crate is the measurement substrate that
//! turns those quantities into machine-readable data, in three layers
//! (see `docs/OBSERVABILITY.md` at the repository root):
//!
//! * **aggregates** — hierarchical RAII phase spans that nest via a
//!   thread-local stack (total seconds + enter count per slash-joined
//!   path), monotone `u64` counters and additive `f64` values
//!   (DMC/CMC/SMC classification counts, halo bytes, wndq query saves,
//!   virtual BSP clocks);
//! * **mergeable log-bucketed histograms** ([`hist`]) — HDR-style fixed
//!   bucket layout so per-thread/per-rank merges are exact and
//!   deterministic; span durations feed one automatically, and hot paths
//!   record per-query node visits, candidate counts and per-superstep
//!   comm bytes via [`record_hist`];
//! * **event tracing** ([`trace`]) — per-thread append-only buffers of
//!   span begin/end and instant events plus virtual-clock BSP rank
//!   segments, drained into a [`Trace`] and exported as Chrome
//!   trace-event JSON (Perfetto-loadable) or rendered as an ASCII
//!   timeline/flamegraph ([`render`]).
//!
//! All aggregates live in one kind of store, the [`Registry`]: the
//! process-global collector behind [`span()`], [`record_count`] and
//! [`take_report`] is a `static` registry, and a serving engine owns
//! registries of its own. On top of it sits the **live layer** for
//! long-running serving engines: [`live`] provides windowed polling
//! (cumulative + per-window snapshots without draining, JSON
//! time-series and a Prometheus-style text exposition via
//! [`live::render_prom`]), and [`recorder`] a bounded flight-recorder
//! ring of recent serve epochs that dumps a schema'd postmortem
//! artifact on faults. The one-shot [`take_report`] is the degenerate
//! case: a single window, polled once, that also clears the state;
//! [`snapshot_report`] is the non-draining variant.
//!
//! A dependency-free **JSON emitter and parser** ([`json`]) underpins the
//! exports; the `bench` crate's `emit_bench` driver uses it to write the
//! schema-versioned `BENCH_*.json` trajectory (see `docs/BENCH_SCHEMA.md`).
//!
//! Collection is **off by default** and controlled by a process-global
//! switch: every instrumentation point first reads one relaxed atomic and
//! does nothing else when disabled, so instrumented library code pays a
//! few nanoseconds per phase when nobody is observing. Event tracing has
//! a second switch ([`trace::enable_tracing`]) checked only inside the
//! already-enabled branch, so it costs nothing when off. The spans
//! themselves are *phase-level* (a handful to a few thousand per run, not
//! one per point); the enabled overhead of a whole run is the
//! `obs.enabled_overhead_pct` layer of the repository benchmark.
//!
//! ## Recording spans
//!
//! ```
//! obs::reset();
//! obs::enable();
//! {
//!     let _run = obs::span("mudbscan");
//!     {
//!         let _s = obs::span("tree_construction");
//!         // ... build the micro-clusters ...
//!     } // dropped: charged to "mudbscan/tree_construction"
//!     obs::record_count("mc_dense", 17);
//! }
//! obs::disable();
//!
//! let report = obs::take_report();
//! assert_eq!(report.span_count("mudbscan/tree_construction"), 1);
//! assert_eq!(report.count("mc_dense"), 17);
//! assert!(report.span_secs("mudbscan") >= report.span_secs("mudbscan/tree_construction"));
//! ```
//!
//! ## Exporting a report as JSON
//!
//! ```
//! obs::reset();
//! obs::enable();
//! obs::record_value("bsp/local/compute_virtual_secs", 0.25);
//! obs::disable();
//!
//! let js = obs::take_report().to_json();
//! let text = js.render_pretty();
//! let back = obs::json::Json::parse(&text).unwrap();
//! let v = back.get("values").and_then(|v| v.get("bsp/local/compute_virtual_secs"));
//! assert_eq!(v.and_then(|v| v.as_f64()), Some(0.25));
//! ```

pub mod hist;
pub mod json;
pub mod live;
pub mod recorder;
pub mod render;
pub mod report;
pub mod span;
pub mod trace;

pub use hist::Histogram;
pub use json::Json;
pub use live::{render_prom, LiveSeries, LiveSnapshot, Registry, WindowCursor};
pub use recorder::{
    parse_dump, validate_postmortem, EpochDigest, FlightEntry, FlightRecorder, RemovalDecision,
};
pub use report::{Report, SpanStat};
pub use span::{
    disable, enable, enabled, record_count, record_hist, record_value, reset, snapshot_report,
    span, take_report, Span,
};
pub use trace::{
    disable_tracing, dropped_events, enable_tracing, take_trace, tracing_enabled, Trace,
};

/// Open a phase span: `span!("name")` is shorthand for [`span()`]`("name")`.
///
/// The returned guard must be bound (`let _s = span!(...)`) — binding to
/// `_` drops it immediately and records a zero-length phase.
///
/// ```
/// obs::reset();
/// obs::enable();
/// {
///     let _s = obs::span!("mc_build");
/// }
/// obs::disable();
/// assert_eq!(obs::take_report().span_count("mc_build"), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// The global registry, trace sink and drop counter are process-global, so
/// unit tests that toggle or drain them must not interleave — every
/// such test (across modules) serialises on this one lock.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> MutexGuard<'static, ()> {
        GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
