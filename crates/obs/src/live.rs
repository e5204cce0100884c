//! Live telemetry: windowed metrics snapshots over cumulative state.
//!
//! A long-running serving writer needs to poll its metrics *while they
//! keep accumulating*, without draining or perturbing anything. This
//! module provides that in three pieces:
//!
//! * [`Registry`] — the one keyed metrics store of the crate: span
//!   statistics, counters, additive values and histograms behind one
//!   mutex, in ordered maps so a snapshot needs no sort pass. The
//!   process-global collector behind [`crate::record_count`],
//!   [`crate::span()`] and [`crate::take_report`] is a `static` registry
//!   gated by the crate's on/off switch; an engine may also own a
//!   registry of its own, which has no switch and so is always
//!   observable. [`Registry::add_counts`] records a *batch* of counter
//!   increments under a single lock acquisition, so logically paired
//!   counters (e.g. an epoch's op census) can never be observed torn by
//!   a concurrent poller.
//! * [`WindowCursor`] — turns cumulative snapshots into per-window
//!   deltas ([`Report::delta_since`]). The **window algebra** is the
//!   contract: every poll advances the cursor's baseline, so the
//!   windows of any poll sequence *partition* the cumulative state —
//!   merging them all ([`Report::merge`]) reproduces the cumulative
//!   counters and histograms **bit-identically**. Multiple pollers
//!   sharing one cursor (behind a mutex) therefore split the stream
//!   between them without ever double- or under-counting.
//! * Exports — [`LiveSeries`] collects polled windows into a JSON
//!   time-series, and [`render_prom`] renders any [`Report`] as a
//!   dependency-free Prometheus-style text exposition.
//!
//! The one-shot report is the degenerate case of all this: a single
//! window polled once, from the beginning of time, that also clears the
//! state (`take_report` ≡ snapshot + clear).

use crate::hist::Histogram;
use crate::json::Json;
use crate::report::{Report, SpanStat};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A keyed metrics store: cumulative span statistics, counters,
/// additive values and log-bucketed histograms behind one mutex,
/// snapshotted on demand without draining. Recording on a key that
/// already exists allocates nothing; a key's `String` is allocated on
/// its first use only.
///
/// ```
/// use obs::live::{Registry, WindowCursor};
/// let reg = Registry::new();
/// reg.add_counts(&[("ops/a", 2), ("ops/b", 2)]);
/// reg.record_hist("lat_us", 15);
/// let mut cursor = WindowCursor::new();
/// let s1 = cursor.poll(&reg);
/// assert_eq!(s1.window.count("ops/a"), 2);
/// reg.add_count("ops/a", 3);
/// let s2 = cursor.poll(&reg);
/// assert_eq!(s2.window.count("ops/a"), 3); // delta since the last poll
/// assert_eq!(s2.cumulative.count("ops/a"), 5);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<State>,
}

#[derive(Debug, Default, Clone)]
struct State {
    spans: BTreeMap<String, SpanStat>,
    counts: BTreeMap<String, u64>,
    values: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl State {
    /// The maps are ordered, so the report comes out sorted by name.
    fn into_report(self) -> Report {
        Report {
            spans: self.spans.into_iter().collect(),
            counts: self.counts.into_iter().collect(),
            values: self.values.into_iter().collect(),
            hists: self.hists.into_iter().collect(),
        }
    }
}

/// Apply `f` to the entry `name` of `map`, creating it on first use.
/// The lookup comes first, so only a new key allocates its `String`.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

impl Registry {
    /// An empty registry. `const`, so a registry can be a `static`.
    pub const fn new() -> Self {
        let state = State {
            spans: BTreeMap::new(),
            counts: BTreeMap::new(),
            values: BTreeMap::new(),
            hists: BTreeMap::new(),
        };
        Self { inner: Mutex::new(state) }
    }

    /// Lock the store, recovering from poisoning: the critical sections
    /// below are short and panic-free, so a poisoned lock (a panic
    /// elsewhere while a span guard was live) leaves the maps
    /// consistent. This is what keeps `obs` usable after a
    /// `catch_unwind` — see the `unwind_safety` tests.
    fn state(&self) -> MutexGuard<'_, State> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `n` to the named monotone counter.
    pub fn add_count(&self, name: &str, n: u64) {
        update(&mut self.state().counts, name, |c| *c += n);
    }

    /// Add a batch of counter increments under **one** lock
    /// acquisition: a concurrent poller observes either none or all of
    /// them, so logically paired counters can never tear.
    pub fn add_counts(&self, pairs: &[(&str, u64)]) {
        let mut s = self.state();
        for &(name, n) in pairs {
            update(&mut s.counts, name, |c| *c += n);
        }
    }

    /// Add `v` to the named additive value.
    pub fn add_value(&self, name: &str, v: f64) {
        update(&mut self.state().values, name, |x| *x += v);
    }

    /// Record one sample into the named histogram.
    pub fn record_hist(&self, name: &str, v: u64) {
        update(&mut self.state().hists, name, |h| h.record(v));
    }

    /// Charge one closed span of length `elapsed` to `path`.
    pub(crate) fn record_span(&self, path: &str, elapsed: Duration) {
        update(&mut self.state().spans, path, |stat| {
            stat.secs += elapsed.as_secs_f64();
            stat.count += 1;
            stat.dur_ns.record(elapsed.as_nanos() as u64);
        });
    }

    /// A sorted, non-draining snapshot of the cumulative state.
    pub fn cumulative(&self) -> Report {
        self.state().clone().into_report()
    }

    /// Swap the state out into a sorted report, leaving the store empty.
    pub(crate) fn take(&self) -> Report {
        std::mem::take(&mut *self.state()).into_report()
    }
}

/// One poll result: the delta since the previous poll through the same
/// cursor, plus the cumulative state both were computed from — taken
/// from a single registry snapshot, so the pair is always coherent
/// (`cumulative` = sum of every window polled so far, bit-identically
/// for counters and histograms).
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// What accumulated since the previous poll (everything since the
    /// beginning, on the first poll).
    pub window: Report,
    /// The cumulative state at poll time.
    pub cumulative: Report,
}

/// The windowing state of one poll sequence: remembers the cumulative
/// snapshot of the previous poll so the next one returns a delta. Share
/// one cursor (behind a mutex) between concurrent pollers and their
/// windows partition the metric stream exactly; give each poller its
/// own cursor and each sees the full stream independently.
#[derive(Debug, Default)]
pub struct WindowCursor {
    baseline: Report,
}

impl WindowCursor {
    /// A cursor whose first poll returns everything recorded so far.
    pub fn new() -> Self {
        Self::default()
    }

    /// Poll a [`Registry`]: snapshot, delta against the baseline,
    /// advance the baseline.
    pub fn poll(&mut self, reg: &Registry) -> LiveSnapshot {
        self.advance(reg.cumulative())
    }

    /// Poll the process-global collector ([`crate::snapshot_report`])
    /// the same way — mid-run polling of the global aggregates without
    /// draining them.
    pub fn poll_global(&mut self) -> LiveSnapshot {
        self.advance(crate::snapshot_report())
    }

    fn advance(&mut self, cumulative: Report) -> LiveSnapshot {
        let window = cumulative.delta_since(&self.baseline);
        self.baseline = cumulative.clone();
        LiveSnapshot { window, cumulative }
    }
}

/// An ordered collection of polled windows — the JSON time-series
/// export of a poll sequence.
#[derive(Debug, Default)]
pub struct LiveSeries {
    windows: Vec<Report>,
}

impl LiveSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one polled window.
    pub fn push(&mut self, window: Report) {
        self.windows.push(window);
    }

    /// Number of windows collected.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no windows were collected.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The windows in poll order.
    pub fn windows(&self) -> &[Report] {
        &self.windows
    }

    /// Merge every window into one report. When the windows come from a
    /// single shared cursor this equals the cumulative state at the
    /// last poll — counters and histograms bit-identically.
    pub fn merged(&self) -> Report {
        let mut out = Report::default();
        for w in &self.windows {
            out.merge(w);
        }
        out
    }

    /// JSON time-series: `{"windows": [<report>, ...]}` with one
    /// [`Report::to_json`] object per window, in poll order.
    pub fn to_json(&self) -> Json {
        Json::obj_from([(
            "windows".to_string(),
            Json::Arr(self.windows.iter().map(Report::to_json).collect()),
        )])
    }
}

/// Sanitise a metric name for the Prometheus exposition format:
/// `[a-zA-Z0-9_:]` pass through, everything else (the workspace's `/`
/// separators in particular) becomes `_`.
fn prom_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    for c in prefix.chars().chain(Some('_')).chain(name.chars()) {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9e15 {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

/// Render a [`Report`] as a dependency-free Prometheus-style text
/// exposition: counters as `counter`, values as `gauge`, histograms as
/// `summary` (quantiles plus `_sum`/`_count`), and spans as a pair of
/// counters (`_seconds_total`, `_entries_total`). Names are prefixed
/// and sanitised (characters outside `[a-zA-Z0-9_:]` map to `_`, so
/// `serve/inserts` renders as `serve_inserts`).
///
/// ```
/// use obs::live::{render_prom, Registry};
/// let reg = Registry::new();
/// reg.add_count("serve/inserts", 7);
/// let text = render_prom(&reg.cumulative(), "mudbscan");
/// assert!(text.contains("# TYPE mudbscan_serve_inserts counter"));
/// assert!(text.contains("mudbscan_serve_inserts 7"));
/// ```
pub fn render_prom(report: &Report, prefix: &str) -> String {
    let mut out = String::new();
    for (name, v) in &report.counts {
        let n = prom_name(prefix, name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &report.values {
        let n = prom_name(prefix, name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_num(*v)));
    }
    for (name, h) in &report.hists {
        let n = prom_name(prefix, name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", h.percentile(q)));
        }
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.count()));
    }
    for (path, s) in &report.spans {
        let n = prom_name(prefix, path);
        out.push_str(&format!("# TYPE {n}_seconds_total counter\n"));
        out.push_str(&format!("{n}_seconds_total {}\n", prom_num(s.secs)));
        out.push_str(&format!("# TYPE {n}_entries_total counter\n"));
        out.push_str(&format!("{n}_entries_total {}\n", s.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_stream() {
        let reg = Registry::new();
        let mut cursor = WindowCursor::new();
        let mut series = LiveSeries::new();
        for round in 1..=5u64 {
            reg.add_counts(&[("a", round), ("b", 1)]);
            reg.record_hist("h", round * 100);
            series.push(cursor.poll(&reg).window);
        }
        let last = cursor.poll(&reg); // empty window, same cumulative
        assert_eq!(last.window.count("a"), 0);
        assert!(last.window.hist("h").unwrap().is_empty());
        let merged = series.merged();
        assert_eq!(merged.counts, last.cumulative.counts, "window sums must be bit-identical");
        assert_eq!(merged.hists, last.cumulative.hists);
        assert_eq!(merged.count("a"), 15);
        assert_eq!(merged.count("b"), 5);
    }

    #[test]
    fn concurrent_pollers_never_observe_a_torn_window() {
        // Writers bump two paired counters through `add_counts`; any
        // window in which the pair differs was torn. Pollers share one
        // cursor, so their windows must also partition the stream.
        let reg = Registry::new();
        let cursor = Mutex::new(WindowCursor::new());
        let windows = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..500 {
                        reg.add_counts(&[("pair/a", 1), ("pair/b", 1)]);
                    }
                });
            }
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..40 {
                        let snap = cursor.lock().unwrap_or_else(|e| e.into_inner()).poll(&reg);
                        assert_eq!(
                            snap.window.count("pair/a"),
                            snap.window.count("pair/b"),
                            "torn window: paired counters split across polls"
                        );
                        assert_eq!(
                            snap.cumulative.count("pair/a"),
                            snap.cumulative.count("pair/b"),
                            "torn cumulative snapshot"
                        );
                        windows.lock().unwrap_or_else(|e| e.into_inner()).push(snap.window);
                        std::thread::yield_now();
                    }
                });
            }
        });
        // Final poll catches whatever the racing pollers missed.
        let last = cursor.lock().unwrap_or_else(|e| e.into_inner()).poll(&reg);
        let mut merged = Report::default();
        for w in windows.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            merged.merge(w);
        }
        merged.merge(&last.window);
        assert_eq!(merged.count("pair/a"), 1000);
        assert_eq!(merged.counts, last.cumulative.counts);
    }

    #[test]
    fn series_exports_a_json_time_series() {
        let reg = Registry::new();
        let mut cursor = WindowCursor::new();
        let mut series = LiveSeries::new();
        reg.add_count("x", 1);
        series.push(cursor.poll(&reg).window);
        reg.add_count("x", 2);
        series.push(cursor.poll(&reg).window);
        assert_eq!(series.len(), 2);
        let js = series.to_json();
        let text = js.render_pretty();
        let back = Json::parse(&text).unwrap();
        let windows = back.get("windows").and_then(Json::as_array).unwrap();
        assert_eq!(windows.len(), 2);
        let w1 = windows[1].get("counts").and_then(|c| c.get("x")).and_then(Json::as_f64);
        assert_eq!(w1, Some(2.0));
    }

    #[test]
    fn render_prom_covers_every_kind() {
        use crate::report::SpanStat;
        let reg = Registry::new();
        reg.add_count("serve/inserts", 42);
        reg.add_value("ratio", 0.5);
        for v in [10u64, 20, 30] {
            reg.record_hist("serve/query_us", v);
        }
        let mut report = reg.cumulative();
        report.spans.push((
            "serve/publish".to_string(),
            SpanStat { secs: 1.25, count: 3, dur_ns: Histogram::new() },
        ));
        let text = render_prom(&report, "mudbscan");
        assert!(text.contains("# TYPE mudbscan_serve_inserts counter"));
        assert!(text.contains("mudbscan_serve_inserts 42"));
        assert!(text.contains("# TYPE mudbscan_ratio gauge"));
        assert!(text.contains("mudbscan_ratio 0.5"));
        assert!(text.contains("# TYPE mudbscan_serve_query_us summary"));
        assert!(text.contains("mudbscan_serve_query_us{quantile=\"0.5\"}"));
        assert!(text.contains("mudbscan_serve_query_us_count 3"));
        assert!(text.contains("mudbscan_serve_query_us_sum 60"));
        assert!(text.contains("mudbscan_serve_publish_seconds_total 1.25"));
        assert!(text.contains("mudbscan_serve_publish_entries_total 3"));
        // No raw slashes survive in metric names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(!name.contains('/'), "unsanitised name: {name}");
        }
    }

    #[test]
    fn global_polling_coexists_with_the_one_shot_drain() {
        let _g = crate::test_support::locked();
        crate::reset();
        crate::enable();
        crate::record_count("g", 4);
        let mut cursor = WindowCursor::new();
        let s1 = cursor.poll_global();
        crate::record_count("g", 6);
        let s2 = cursor.poll_global();
        crate::disable();
        assert_eq!(s1.window.count("g"), 4);
        assert_eq!(s2.window.count("g"), 6);
        assert_eq!(s2.cumulative.count("g"), 10);
        // Polling drained nothing: the one-shot report still sees it all.
        assert_eq!(crate::take_report().count("g"), 10);
        crate::reset();
    }
}
