//! The thread-backed, out-of-core sharded executor.
//!
//! [`crate::MuDbscanD`] runs the partition → local μDBSCAN → merge
//! pipeline as BSP rank programs on a *simulated* cluster, charging a
//! virtual clock. This module runs the same shard programs on real OS
//! threads over a chunked [`DataSource`] that never needs to fit in
//! memory: a deterministic [`partition::ShardPlan`] cuts budget-sized
//! spatial cells, each worker thread claims shards off a shared queue,
//! materializes one shard at a time (owned points + ε-halo), clusters it
//! with the exact sequential μDBSCAN, and emits a compact
//! [`ShardSummary`]; a final sequential [`merge`] stitches the summaries
//! into the global clustering. Planner, summary and merge are the ones
//! the BSP driver uses, so the output is bit-identical to `naive_dbscan`
//! for any shard count, memory budget or thread count (see the
//! [crate docs](crate#exactness-of-the-merge)); the conformance suite
//! (`conformance/tests/sharded_equivalence.rs`) pins it.
//!
//! ## Timing: wall vs makespan
//!
//! Worker wall-clock on a loaded or single-core host is not a stable
//! CI observable (see `docs/BENCH_SCHEMA.md`). The executor therefore
//! reports, alongside real `wall_secs`, a **makespan**: sequential
//! planning wall + the *maximum per-worker thread-CPU busy time*
//! ([`metrics::BusyTimer`]) + sequential merge wall. On an idle
//! multi-core host the two coincide; on a single-core host the makespan
//! is what the wall-clock would be with real cores, which is what the
//! t1→t4 speedup gate measures.

use crate::merge::{merge, summarize, LocalView, ShardSummary};
use geom::{DataSource, DbscanParams};
use metrics::{BusyTimer, Counters, Stopwatch};
use mudbscan::{Clustering, MuDbscan};
use partition::{gather_shard, plan_shards, ShardPlan, ShardingOptions};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of a sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedOptions {
    /// Minimum shard count (`None` → the worker thread count).
    pub shards: Option<usize>,
    /// Bound on resident shard coordinate bytes across in-flight
    /// workers; the planner cuts shards so one shard's owned
    /// coordinates fit `budget / (2 * threads)`, leaving the other half
    /// for halos and slack. `None` → shard sizes follow `shards` alone.
    pub memory_budget: Option<usize>,
    /// Worker threads clustering shards concurrently.
    pub threads: usize,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        Self { shards: None, memory_budget: None, threads: 1 }
    }
}

/// Result of [`ShardedMuDbscan::run_source`].
#[derive(Debug)]
pub struct ShardedOutput {
    /// The global clustering, bit-identical to the in-memory oracle.
    pub clustering: Clustering,
    /// Aggregated operation counters over all shards (local stages plus
    /// halo/border merge queries).
    pub counters: Counters,
    /// Number of shards the plan cut.
    pub n_shards: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall seconds spent planning (scan + sample splits + count passes).
    pub plan_wall_secs: f64,
    /// Wall seconds spent in the final sequential merge.
    pub merge_wall_secs: f64,
    /// Maximum per-worker thread-CPU busy seconds (gather + local
    /// clustering + edge/border queries).
    pub busy_max_secs: f64,
    /// Total thread-CPU busy seconds across workers.
    pub busy_total_secs: f64,
    /// `plan_wall + busy_max + merge_wall` — the multi-core-equivalent
    /// runtime the t1→t4 speedup gate compares (see module docs).
    pub makespan_secs: f64,
    /// Real end-to-end wall seconds (host- and load-dependent).
    pub wall_secs: f64,
    /// High-water mark of tracked resident shard bytes (combined
    /// own+halo coordinates + ids of all in-flight shards).
    pub peak_resident_bytes: usize,
    /// Total halo points materialized across shards.
    pub halo_points: u64,
    /// Cross-shard candidate edges collected.
    pub edges: u64,
}

/// One shard's summary plus the counters of its local stage and
/// summary queries.
struct ShardResult {
    shard: usize,
    summary: ShardSummary,
    counters: Counters,
}

/// The out-of-core sharded μDBSCAN executor. Prefer the facade:
/// `mudbscan::prelude::Runner::new(params).shards(8).run_source(&store)`.
#[derive(Debug, Clone)]
pub struct ShardedMuDbscan {
    params: DbscanParams,
    opts: ShardedOptions,
}

impl ShardedMuDbscan {
    /// New executor with the given density parameters and options.
    pub fn new(params: DbscanParams, opts: ShardedOptions) -> Self {
        assert!(opts.threads >= 1, "threads must be at least 1");
        Self { params, opts }
    }

    /// Cluster every point of `src`.
    pub fn run_source(&self, src: &dyn DataSource) -> ShardedOutput {
        let run_span = obs::span!("sharded");
        let total_sw = Stopwatch::start();
        let n = src.len();
        let threads = self.opts.threads.max(1);

        // Plan: deterministic function of (source, eps, shards, budget).
        let plan_sw = Stopwatch::start();
        let min_shards = self.opts.shards.unwrap_or(threads).max(1);
        let max_shard_bytes = self.opts.memory_budget.map(|b| (b / (2 * threads)).max(1));
        let plan =
            plan_shards(src, self.params.eps, &ShardingOptions { min_shards, max_shard_bytes });
        let plan_wall_secs = plan_sw.secs();
        let n_shards = plan.n_shards();

        // Workers claim shards off a shared counter; each materializes,
        // clusters, and summarizes one shard at a time.
        let next = AtomicUsize::new(0);
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let workers = threads.min(n_shards).max(1);
        let params = self.params;
        let mut results: Vec<ShardResult> = Vec::with_capacity(n_shards);
        let mut busy: Vec<f64> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let resident = &resident;
                    let peak = &peak;
                    let plan = &plan;
                    scope.spawn(move || {
                        let timer = BusyTimer::start();
                        let mut out = Vec::new();
                        loop {
                            let s = next.fetch_add(1, Ordering::Relaxed);
                            if s >= n_shards {
                                break;
                            }
                            out.push(run_shard(src, plan, s, &params, resident, peak));
                        }
                        (out, timer.secs())
                    })
                })
                .collect();
            for h in handles {
                let (mut out, secs) = h.join().expect("shard worker panicked");
                results.append(&mut out);
                busy.push(secs);
            }
        });
        results.sort_by_key(|r| r.shard);
        let busy_max_secs = busy.iter().copied().fold(0.0, f64::max);
        let busy_total_secs: f64 = busy.iter().sum();

        // Sequential merge: exact flags, core-partition unions, canonical
        // border resolution.
        let merge_sw = Stopwatch::start();
        let counters = Counters::new();
        let clustering = merge(
            n,
            results.iter().map(|r| &r.summary.own),
            results.iter().map(|r| &r.summary.cross),
            &counters,
        );
        let (mut edges, mut halo_points) = (0u64, 0u64);
        for r in &results {
            counters.absorb(&r.counters);
            edges += r.summary.cross.edges.len() as u64;
            halo_points += r.summary.halo_len as u64;
        }
        let merge_wall_secs = merge_sw.secs();

        let makespan_secs = plan_wall_secs + busy_max_secs + merge_wall_secs;
        let wall_secs = total_sw.secs();
        let peak_resident_bytes = peak.load(Ordering::Relaxed);
        if obs::enabled() {
            obs::record_count("shard/shards", n_shards as u64);
            obs::record_count("shard/halo_points", halo_points);
            obs::record_count("shard/edges", edges);
            obs::record_count("shard/peak_resident_bytes", peak_resident_bytes as u64);
            obs::record_value("shard/plan_secs", plan_wall_secs);
            obs::record_value("shard/merge_secs", merge_wall_secs);
            obs::record_value("shard/busy_max_secs", busy_max_secs);
            obs::record_value("shard/makespan_secs", makespan_secs);
            for &c in plan.counts() {
                obs::record_hist("shard/owned_points", c as u64);
            }
        }
        drop(run_span);

        ShardedOutput {
            clustering,
            counters,
            n_shards,
            threads,
            plan_wall_secs,
            merge_wall_secs,
            busy_max_secs,
            busy_total_secs,
            makespan_secs,
            wall_secs,
            peak_resident_bytes,
            halo_points,
            edges,
        }
    }
}

/// Materialize, cluster and summarize one shard.
fn run_shard(
    src: &dyn DataSource,
    plan: &ShardPlan,
    s: usize,
    params: &DbscanParams,
    resident: &AtomicUsize,
    peak: &AtomicUsize,
) -> ShardResult {
    let shard_span = obs::span!("shard");
    let view = LocalView::from(gather_shard(src, plan, s));
    // Tracked residency is what's actually held: combined coordinates +
    // the id vectors.
    let bytes = view.resident_bytes();
    let now = resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
    peak.fetch_max(now, Ordering::Relaxed);

    // Exact local clustering over the combined view, then the summary.
    let out = MuDbscan::from_params(*params).run(&view.combined);
    let summary = summarize(&view, &out.clustering, params.eps, &out.counters);

    resident.fetch_sub(bytes, Ordering::Relaxed);
    drop(shard_span);
    ShardResult { shard: s, summary, counters: out.counters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Dataset;
    use mudbscan::naive_dbscan;

    fn blob(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rows = Vec::new();
        let mut s = seed;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(29);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for _ in 0..n {
            rows.push((0..dim).map(|_| 6.0 * r()).collect());
        }
        Dataset::from_rows(&rows)
    }

    fn run(d: &Dataset, params: DbscanParams, opts: ShardedOptions) -> ShardedOutput {
        ShardedMuDbscan::new(params, opts).run_source(d)
    }

    #[test]
    fn bit_identical_to_naive_across_shard_counts() {
        let d = blob(500, 3, 9);
        let params = DbscanParams::new(0.9, 5);
        let want = naive_dbscan(&d, &params);
        for shards in [1, 2, 4, 7] {
            let out = run(
                &d,
                params,
                ShardedOptions { shards: Some(shards), threads: 2, ..Default::default() },
            );
            assert_eq!(out.clustering, want, "shards={shards}");
            assert!(out.n_shards >= shards || out.n_shards >= 1);
            assert!(out.makespan_secs > 0.0);
        }
    }

    #[test]
    fn bit_identical_under_memory_budget() {
        let d = blob(800, 2, 4);
        let params = DbscanParams::new(0.7, 4);
        let want = naive_dbscan(&d, &params);
        // ~100 points per shard bound → many shards.
        let out = run(
            &d,
            params,
            ShardedOptions {
                memory_budget: Some(100 * 2 * 8 * 2 * 2),
                threads: 2,
                ..Default::default()
            },
        );
        assert!(out.n_shards > 2, "budget did not induce splitting: {}", out.n_shards);
        assert_eq!(out.clustering, want);
        assert!(out.peak_resident_bytes > 0);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let d = blob(600, 3, 17);
        let params = DbscanParams::new(0.8, 5);
        let a =
            run(&d, params, ShardedOptions { shards: Some(6), threads: 1, ..Default::default() });
        let b =
            run(&d, params, ShardedOptions { shards: Some(6), threads: 4, ..Default::default() });
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.n_shards, b.n_shards);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.halo_points, b.halo_points);
    }

    #[test]
    fn min_pts_one_has_no_borders() {
        let d = blob(200, 2, 3);
        let params = DbscanParams::new(0.5, 1);
        let want = naive_dbscan(&d, &params);
        let out = run(&d, params, ShardedOptions { shards: Some(3), ..Default::default() });
        assert_eq!(out.clustering, want);
        assert_eq!(out.clustering.noise_count(), 0); // min_pts=1: everything core
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let params = DbscanParams::new(0.5, 3);
        let empty = Dataset::empty(2);
        let out = run(&empty, params, ShardedOptions { shards: Some(4), ..Default::default() });
        assert_eq!(out.clustering.labels.len(), 0);
        let one = Dataset::from_rows(&[vec![1.0, 2.0]]);
        let out = run(&one, params, ShardedOptions { shards: Some(4), ..Default::default() });
        assert_eq!(out.clustering, naive_dbscan(&one, &params));
    }
}
