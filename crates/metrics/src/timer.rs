//! Phase timing.
//!
//! [`PhaseTimer`] accumulates wall-clock time per named phase and renders
//! the percentage split-ups reported in Tables III and VII of the paper.

use std::time::{Duration, Instant};

/// A simple restartable stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { started: Instant::now() }
    }

    /// Elapsed time since start (or last reset).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Reset the start point to now.
    pub fn reset(&mut self) {
        self.started = Instant::now();
    }

    /// Elapsed seconds, then reset — convenient for phase-to-phase timing.
    pub fn lap(&mut self) -> f64 {
        let s = self.secs();
        self.reset();
        s
    }
}

/// CPU time consumed by the *calling thread* so far, in seconds.
///
/// On Linux this reads `CLOCK_THREAD_CPUTIME_ID`, so the value excludes
/// time the thread spent descheduled. That distinction is what makes
/// per-worker busy times meaningful on machines with fewer cores than
/// worker threads: wall clock cannot show a parallel phase shrinking
/// when all workers share one core, but the per-worker busy maximum (the
/// phase's critical path, the same convention the distributed simulator
/// uses for per-rank phase maxima) can. Off Linux it falls back to wall
/// time from a process-wide epoch, which degrades gracefully to "busy ==
/// wall" semantics.
pub fn thread_cpu_secs() -> f64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec matching the libc ABI.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    wall_epoch_secs()
}

/// Seconds since a lazily initialised process-wide epoch (the fallback
/// clock for [`thread_cpu_secs`] on non-Linux targets).
fn wall_epoch_secs() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Measures the calling thread's busy (on-CPU) time across a region.
///
/// Start it at the top of a worker's run loop and read [`BusyTimer::secs`]
/// when the worker finishes; the maximum over workers is the stage's
/// critical-path cost.
#[derive(Debug)]
pub struct BusyTimer {
    start: f64,
}

impl BusyTimer {
    /// Start measuring from the calling thread's current CPU time.
    pub fn start() -> Self {
        Self { start: thread_cpu_secs() }
    }

    /// Busy seconds since [`BusyTimer::start`], clamped non-negative.
    pub fn secs(&self) -> f64 {
        (thread_cpu_secs() - self.start).max(0.0)
    }
}

/// Accumulates durations under phase names, preserving first-seen order.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: Vec<(String, Duration)>,
}

impl PhaseTimer {
    /// Empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to phase `name`, creating the phase on first use.
    pub fn add(&mut self, name: &str, d: Duration) {
        if let Some(e) = self.phases.iter_mut().find(|(n, _)| n == name) {
            e.1 += d;
        } else {
            self.phases.push((name.to_string(), d));
        }
    }

    /// Add seconds to phase `name`.
    pub fn add_secs(&mut self, name: &str, secs: f64) {
        self.add(name, Duration::from_secs_f64(secs.max(0.0)));
    }

    /// Time the closure and charge it to `name`, returning its result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    /// Open phase `name`: until the returned guard drops, the phase
    /// runs inside the `obs` span of the same name, and the drop adds
    /// the phase's wall time to this timer. One call both traces and
    /// times a phase, so the two can never disagree on its name.
    ///
    /// ```
    /// let mut phases = metrics::PhaseTimer::new();
    /// let build = phases.phase("build");
    /// // ... the phase's work ...
    /// drop(build);
    /// assert_eq!(phases.iter().next().map(|(name, _)| name), Some("build"));
    /// ```
    pub fn phase(&mut self, name: &'static str) -> Phase<'_> {
        Phase { _span: obs::span(name), start: Instant::now(), name, timer: self }
    }

    /// Seconds recorded for `name` (0 when absent).
    pub fn secs(&self, name: &str) -> f64 {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, d)| d.as_secs_f64()).unwrap_or(0.0)
    }

    /// Total seconds across all phases.
    pub fn total_secs(&self) -> f64 {
        self.phases.iter().map(|(_, d)| d.as_secs_f64()).sum()
    }

    /// `(name, seconds, percent-of-total)` rows in first-seen order.
    pub fn split_up(&self) -> Vec<(String, f64, f64)> {
        let total = self.total_secs();
        self.phases
            .iter()
            .map(|(n, d)| {
                let s = d.as_secs_f64();
                let pct = if total > 0.0 { 100.0 * s / total } else { 0.0 };
                (n.clone(), s, pct)
            })
            .collect()
    }

    /// Take the per-phase maxima of two timers — the BSP makespan rule:
    /// each superstep costs as much as its slowest rank.
    pub fn max_merge(&mut self, other: &PhaseTimer) {
        for (name, d) in &other.phases {
            if let Some(e) = self.phases.iter_mut().find(|(n, _)| n == name) {
                if *d > e.1 {
                    e.1 = *d;
                }
            } else {
                self.phases.push((name.clone(), *d));
            }
        }
    }

    /// Iterate phases in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.phases.iter().map(|(n, d)| (n.as_str(), *d))
    }
}

/// An open phase of a [`PhaseTimer`], made by [`PhaseTimer::phase`].
#[must_use = "binding to `_` ends the phase at once; use `let p = timer.phase(..)`"]
#[derive(Debug)]
pub struct Phase<'a> {
    timer: &'a mut PhaseTimer,
    name: &'static str,
    start: Instant,
    /// Closes after the timer is charged, so the span covers the phase.
    _span: obs::Span,
}

impl Drop for Phase<'_> {
    fn drop(&mut self) {
        self.timer.add(self.name, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotone() {
        let mut sw = Stopwatch::start();
        let a = sw.secs();
        let b = sw.secs();
        assert!(b >= a);
        let lap = sw.lap();
        assert!(lap >= 0.0);
        assert!(sw.secs() <= lap + 1.0);
    }

    #[test]
    fn phases_accumulate_in_order() {
        let mut t = PhaseTimer::new();
        t.add_secs("build", 1.0);
        t.add_secs("query", 3.0);
        t.add_secs("build", 1.0);
        assert_eq!(t.secs("build"), 2.0);
        assert_eq!(t.secs("query"), 3.0);
        assert_eq!(t.secs("absent"), 0.0);
        assert_eq!(t.total_secs(), 5.0);
        let rows = t.split_up();
        assert_eq!(rows[0].0, "build");
        assert!((rows[0].2 - 40.0).abs() < 1e-9);
        assert!((rows[1].2 - 60.0).abs() < 1e-9);
    }

    #[test]
    fn time_closure_returns_value() {
        let mut t = PhaseTimer::new();
        let v = t.time("work", || 42);
        assert_eq!(v, 42);
        assert!(t.secs("work") >= 0.0);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn phase_is_one_span_and_one_timed_phase() {
        obs::reset();
        obs::enable();
        let mut t = PhaseTimer::new();
        {
            let _run = obs::span("run");
            let build = t.phase("build");
            drop(build);
            let _query = t.phase("query");
        }
        obs::disable();
        let r = obs::take_report();
        assert_eq!(r.span_count("run/build"), 1);
        assert_eq!(r.span_count("run/query"), 1);
        let names: Vec<&str> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["build", "query"]);
        assert!(t.secs("build") <= r.span_secs("run/build"), "the span encloses the timed phase");
    }

    #[test]
    fn max_merge_takes_per_phase_max() {
        let mut a = PhaseTimer::new();
        a.add_secs("x", 1.0);
        a.add_secs("y", 5.0);
        let mut b = PhaseTimer::new();
        b.add_secs("x", 3.0);
        b.add_secs("z", 2.0);
        a.max_merge(&b);
        assert_eq!(a.secs("x"), 3.0);
        assert_eq!(a.secs("y"), 5.0);
        assert_eq!(a.secs("z"), 2.0);
    }

    #[test]
    fn busy_timer_tracks_cpu_work() {
        let t = BusyTimer::start();
        // Monotone and non-negative even with no work done.
        assert!(t.secs() >= 0.0);
        // Spin enough that the thread-CPU clock must advance.
        let mut acc = 0u64;
        while t.secs() < 1e-4 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(acc);
        }
        let a = t.secs();
        let b = t.secs();
        assert!(a > 0.0);
        assert!(b >= a);
    }

    #[test]
    fn busy_time_excludes_sleep_on_linux() {
        // On Linux the busy clock must not advance (much) across a sleep;
        // on the wall-clock fallback it degenerates to wall time, so only
        // assert the Linux behaviour where we know the clock is real.
        if cfg!(target_os = "linux") {
            let t = BusyTimer::start();
            std::thread::sleep(Duration::from_millis(30));
            assert!(t.secs() < 0.025, "sleep counted as busy: {}", t.secs());
        }
    }

    #[test]
    fn empty_split_up() {
        let t = PhaseTimer::new();
        assert!(t.split_up().is_empty());
        assert_eq!(t.total_secs(), 0.0);
    }
}
