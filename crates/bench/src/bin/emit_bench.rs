//! Machine-readable benchmark pipeline: run a pinned, seeded workload
//! matrix through sequential μDBSCAN, the shared-memory parallel variant
//! and the distributed simulator (all constructed via
//! [`mudbscan::prelude::Runner`]), collect per-phase times and `obs`
//! reports, verify exactness against the naive oracle, and write the
//! schema-versioned `BENCH_PR10.json` trajectory file. Schema v6 added a
//! served-traffic arm per workload: a seeded trace of batched inserts,
//! TTL expiries and deletions replayed through `Runner::serve` while
//! reader threads race the writer (see [`run_serve_traffic`]). Schema v7
//! adds the delete-heavy twin arms ([`run_serve_delete_heavy`]): the
//! same workload driven through delete-only epochs once with the
//! micro-cluster-local repair path and once with `repair_budget:
//! Some(0)` (a rebuild on every removal that needs a repair region),
//! gated on the repair arm's batch-latency p99 beating the rebuild
//! baseline by ≥ 2×. Schema v8
//! adds the live-telemetry contract: every serving arm polls
//! `ServeHandle::stats` while the trace replays and carries a
//! `live_telemetry` block whose merged window deltas must sum back to
//! the cumulative registry counters bit-for-bit (fail-closed at
//! emission), plus a k-distance sample summary and a live-polling arm
//! in the overhead probe.
//!
//! Parallel runs carry a `tree_construction_makespan` field: the wall
//! time of the `tree_construction` phase (Algorithm 3's scans plus the
//! per-MC member blocks filled on the worker threads), the minimum over
//! `EMIT_BENCH_MAKESPAN_REPS` runs. It is a measured wall time, not a
//! model.
//!
//! The JSON schema is documented in `docs/BENCH_SCHEMA.md`; the committed
//! `BENCH_PR10.json` is validated by `crates/bench/tests/bench_schema.rs`
//! and regenerated with
//!
//! ```text
//! cargo run --release -p bench --bin emit_bench
//! ```
//!
//! Environment knobs (all optional, for the CI perf-smoke job):
//!
//! * `EMIT_BENCH_N`     — points per workload (default 4000)
//! * `EMIT_BENCH_OUT`   — output path (default `BENCH_PR10.json`)
//! * `EMIT_BENCH_REPS`  — repetitions for the overhead measurement
//!   (default 5)
//! * `EMIT_BENCH_MAKESPAN_REPS` — runs per parallel arm for the
//!   `tree_construction_makespan` statistic: the minimum `tree_construction`
//!   phase wall time over these, which strips scheduler noise from a
//!   quantity measured in single-digit milliseconds (default 5)
//! * `EMIT_BENCH_TRACE_OUT` — when set, additionally run one fully traced
//!   distributed run on the last workload and write the event trace as
//!   Chrome trace-event JSON (Perfetto-loadable; viewable with the
//!   `trace_view` binary) to this path
//! * `EMIT_BENCH_SHARDED_N` — points for the out-of-core sharded arm
//!   (default 1_000_000; the speedup/residency gates only engage at
//!   ≥ 10⁶ — the CI smoke job runs a reduced size and just reports)
//! * `EMIT_BENCH_SHARDED_REPS` — repetitions per sharded arm; the
//!   reported makespan is the minimum over these (default 1 — at 10⁶
//!   points the quantity is tens of seconds and scheduler noise is
//!   negligible)
//!
//! Exactness drift is fatal: any run whose clustering disagrees with the
//! naive-DBSCAN oracle aborts the process with a non-zero exit code, so
//! the CI job fails on behavioural regressions, not just schema ones.
//! The faulted distributed arm is additionally required to match its
//! fault-free twin bit-for-bit — the recovery-exactness contract.

use bench::{secs, timed, SEED};
use data::paper_table2_specs;
use geom::{Dataset, DbscanParams};
use metrics::Counters;
use mudbscan::prelude::{
    write_store, ChunkedStore, Family, Fault, FaultPlan, FaultStats, RunDetails, RunOutput, Runner,
    ServeOp, ServeOptions, ServeStats,
};
use mudbscan::{check_exact, naive_dbscan, Clustering, NOISE};
use obs::Json;

/// The JSON schema version written to the trajectory file. Bump when the
/// structure changes and update `docs/BENCH_SCHEMA.md` in the same PR.
/// v2: parallel runs gained `tree_construction_makespan` (since the
/// single MC builder: the minimum `tree_construction` phase wall time)
/// next to the wall-clock phase times.
/// v3: every run carries a `histograms` block (log-bucketed percentile
/// summaries of per-query costs, span durations and comm bytes),
/// distributed runs carry a per-rank `bsp_timeline`, and the overhead
/// probe gained a tracing-enabled arm.
/// v4: each workload gains a faulted distributed arm
/// (`mudbscan_d_p4_faults`) carrying a `fault` block — the replay
/// signature of the injected plan plus the recovery-overhead quantities —
/// whose clustering must stay bit-identical to the fault-free arm.
/// v5: the `histograms` block gains `query/leaf_evals` (exact point–point
/// distance evaluations charged per restricted ε-query, recorded by the
/// SoA leaf kernels); the committed trajectory file is `BENCH_PR6.json`.
/// v6: each workload gains a served-traffic arm (`serve_traffic`): a
/// deterministic trace of batched inserts, TTLs and deletions replayed
/// through the concurrent serving layer while reader threads race the
/// writer. The run record carries `final_matches_batch`, `epochs`,
/// `live_points`, an `ops` block of trace-determined operation totals,
/// and the wall-clock `serve/*_us` latency histograms; the committed
/// trajectory file was `BENCH_PR7.json`.
/// v7: deletions repair locally instead of rebuilding every epoch. The
/// serving `ops` block gains the repair census (`repairs`,
/// `repair_touched_points`, `fallback_rebuilds`), and each workload
/// gains two delete-heavy arms replaying the same delete-only trace —
/// `serve_delete_heavy` through the micro-cluster-local repair path and
/// `serve_delete_heavy_rebuild` at `repair_budget: Some(0)` (the
/// rebuild baseline: every removal that needs a repair region
/// rebuilds). At full bench size the repair arm's
/// `serve/ingest_batch_us` p99 must beat the baseline's by ≥ 2×
/// (fail-closed at emission); the committed trajectory file was
/// `BENCH_PR8.json`.
/// v8: every serving arm carries a `live_telemetry` block — the windowed
/// `ServeHandle::stats` snapshots polled while the trace replays, whose
/// merged window deltas must sum back to the cumulative registry
/// counters bit-for-bit (`window_sums_match`, fail-closed at emission).
/// The served-traffic arm adds a `kdist` summary (the facade's
/// `Runner::kdist_sample` at k = MinPts), and the overhead probe gains
/// a live arm (aggregates on plus a racing poller rendering the
/// Prometheus exposition and noting into a flight recorder) whose
/// `live_overhead_pct` is budgeted < 5% at full bench size; the
/// committed trajectory file was `BENCH_PR9.json`.
/// v9: the out-of-core sharded arm. The file gains a top-level
/// `sharded_scale` block ([`run_sharded_scale`]): the DGB analogue at
/// `EMIT_BENCH_SHARDED_N` points (default 10⁶) is written to a
/// memory-mapped chunk store in a temp dir and clustered through
/// `Runner::run_source` with `.shards(8)` and a memory budget of half
/// the raw coordinate bytes, once on 1 thread and once on 4. Exactness
/// is fail-closed at *every* size: both arms paper-exact against the
/// in-memory sequential run (identical cores, core partition and noise
/// — border ties are order-defined in DBSCAN, counted per arm as
/// `border_ties`), bit-identical to each other, and bit-identical to
/// the naive oracle at the overlap size (≤ 10⁴ points). Gates at full
/// sharded size: peak resident
/// shard bytes within the budget, and the modelled t1→t4 makespan
/// speedup ≥ 1.5× (on oversubscribed hosts the *wall* cannot shrink —
/// the makespan is plan + max per-worker thread-CPU busy + merge, a
/// model reported next to the wall time). The committed
/// trajectory file is `BENCH_PR10.json`.
const SCHEMA_VERSION: i64 = 9;

/// Below this sharded-arm size the makespan speedup and the residency
/// budget are fixed-cost noise; the CI smoke run only reports them.
const SHARDED_GATE_MIN_N: usize = 1_000_000;

/// The acceptance bar for the sharded executor: the t4 makespan must
/// beat t1 by at least this factor at full sharded size.
const SHARDED_MIN_SPEEDUP: f64 = 1.5;

/// Datasets from the Table II catalog used for the matrix (a subset keeps
/// the oracle check and the CI smoke run fast while still covering a
/// road-network, a galaxy and a higher-dimensional analogue).
const WORKLOAD_NAMES: [&str; 3] = ["3DSRN", "DGB0.5M3D", "HHP0.5M5D"];

/// The pinned fault plan of the `mudbscan_d_p4_faults` arm: one of every
/// fault class, all recoverable under the default retry budget. Superstep
/// 0 is the local-clustering compute step; superstep 2 is the
/// merge-fact exchange (see `dist::driver`).
fn bench_fault_plan() -> FaultPlan {
    // Drops cover every inbound link of the merge root: whether a given
    // rank sends merge facts depends on the dataset's cross-partition
    // structure (a rank with none sends nothing), so dropping on all
    // three links guarantees the retry path is exercised at any workload
    // size.
    FaultPlan::new(SEED)
        .with(Fault::Crash { rank: 1, superstep: 0 })
        .with(Fault::Drop { superstep: 2, from: 1, to: 0, attempts: 3 })
        .with(Fault::Drop { superstep: 2, from: 2, to: 0, attempts: 3 })
        .with(Fault::Drop { superstep: 2, from: 3, to: 0, attempts: 3 })
        .with(Fault::Duplicate { superstep: 2, from: 3, to: 0 })
        .with(Fault::Reorder { superstep: 2, to: 0 })
        .with(Fault::Straggler { rank: 2, slowdown: 4.0 })
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn count(v: u64) -> Json {
    Json::Num(v as f64)
}

fn counters_json(c: &Counters) -> Json {
    Json::obj_from([
        ("range_queries".to_string(), count(c.range_queries())),
        ("queries_saved".to_string(), count(c.queries_saved())),
        ("pct_queries_saved".to_string(), num(c.pct_queries_saved())),
        ("dist_computations".to_string(), count(c.dist_computations())),
        ("node_visits".to_string(), count(c.node_visits())),
        ("union_ops".to_string(), count(c.union_ops())),
    ])
}

/// Verify exactness against the oracle; abort loudly on drift.
fn must_be_exact(
    label: &str,
    dataset: &str,
    clustering: &Clustering,
    reference: &Clustering,
    data: &Dataset,
    params: &DbscanParams,
) {
    let rep = check_exact(clustering, reference, data, params);
    if !rep.is_exact() {
        eprintln!("EXACTNESS DRIFT: {label} on {dataset}: {rep:?}");
        std::process::exit(1);
    }
}

/// Per-run quantities beyond the clustering itself.
struct RunMeta {
    counters: Counters,
    phases: metrics::PhaseTimer,
    /// BSP virtual clock (distributed runs only).
    virtual_secs: Option<f64>,
    /// `tree_construction` phase wall time (the `par_mudbscan_t*` arms
    /// only, which set it).
    tree_construction_makespan: Option<f64>,
    /// Per-rank virtual-clock summaries + superstep count (distributed
    /// runs only) — rendered as the schema-v3 `bsp_timeline` block.
    bsp_timeline: Option<(Vec<cluster_sim::RankClock>, usize)>,
    peak_heap: u64,
    /// Schema-v4 fault/recovery block (the faulted arm only).
    fault: Option<Json>,
}

impl RunMeta {
    /// Meta of a facade run, shared across every arm shape.
    fn from_output(out: &RunOutput) -> Self {
        let mut meta = RunMeta {
            counters: Counters::new(),
            phases: out.phases.clone(),
            virtual_secs: None,
            tree_construction_makespan: None,
            bsp_timeline: None,
            peak_heap: 0,
            fault: None,
        };
        meta.counters.absorb(&out.counters);
        match &out.details {
            RunDetails::MuDbscan { peak_heap_bytes, .. } => {
                meta.peak_heap = *peak_heap_bytes as u64;
            }
            RunDetails::Distributed {
                runtime_secs,
                max_rank_heap_bytes,
                rank_clocks,
                supersteps,
                ..
            } => {
                meta.virtual_secs = Some(*runtime_secs);
                meta.peak_heap = *max_rank_heap_bytes as u64;
                meta.bsp_timeline = Some((rank_clocks.clone(), *supersteps));
            }
            // The sharded arm has its own emitter (`run_sharded_scale`)
            // and never flows through RunMeta.
            RunDetails::Sharded { .. } | RunDetails::Streaming | RunDetails::Optics { .. } => {}
        }
        meta
    }
}

fn bsp_timeline_json(clocks: &[cluster_sim::RankClock], supersteps: usize) -> Json {
    let ranks: Vec<Json> = clocks
        .iter()
        .enumerate()
        .map(|(r, c)| {
            Json::obj_from([
                ("rank".to_string(), count(r as u64)),
                ("compute_virtual_secs".to_string(), num(c.compute_secs)),
                ("comm_virtual_secs".to_string(), num(c.comm_secs)),
                ("bytes_sent".to_string(), count(c.bytes_sent)),
                ("bytes_received".to_string(), count(c.bytes_received)),
            ])
        })
        .collect();
    Json::obj_from([
        ("supersteps".to_string(), count(supersteps as u64)),
        ("ranks".to_string(), Json::Arr(ranks)),
    ])
}

/// The schema-v4 `fault` block: the plan seed, every replay-deterministic
/// integer counter of [`FaultStats`], the virtual-second recovery costs,
/// and the recovery-overhead comparison against the fault-free twin arm.
fn fault_json(
    plan_seed: u64,
    stats: &FaultStats,
    recovery_virtual_secs: f64,
    faulted_runtime: f64,
    fault_free_runtime: f64,
    clusters_match: bool,
) -> Json {
    let overhead_pct = if fault_free_runtime > 0.0 {
        100.0 * (faulted_runtime - fault_free_runtime) / fault_free_runtime
    } else {
        0.0
    };
    Json::obj_from([
        ("plan_seed".to_string(), count(plan_seed)),
        ("crashes".to_string(), count(stats.crashes)),
        ("recoveries".to_string(), count(stats.recoveries)),
        ("drops_injected".to_string(), count(stats.drops_injected)),
        ("retries".to_string(), count(stats.retries)),
        ("messages_lost".to_string(), count(stats.messages_lost)),
        ("duplicates_injected".to_string(), count(stats.duplicates_injected)),
        ("duplicates_discarded".to_string(), count(stats.duplicates_discarded)),
        ("reorders_injected".to_string(), count(stats.reorders_injected)),
        ("straggled_steps".to_string(), count(stats.straggled_steps)),
        ("recovery_comm_bytes".to_string(), count(stats.recovery_comm_bytes)),
        ("retry_delay_virtual_secs".to_string(), num(stats.retry_delay_secs)),
        ("recovery_compute_virtual_secs".to_string(), num(stats.recovery_compute_secs)),
        ("recovery_comm_virtual_secs".to_string(), num(stats.recovery_comm_secs)),
        ("recovery_virtual_secs".to_string(), num(recovery_virtual_secs)),
        ("overhead_vs_fault_free_pct".to_string(), num(overhead_pct)),
        ("clusters_match_fault_free".to_string(), Json::Bool(clusters_match)),
    ])
}

/// One algorithm run: returns the JSON record for the `runs` array.
///
/// Wall and per-phase times are single-digit-millisecond quantities at
/// bench size, so a single shot is at the mercy of the scheduler. The
/// run repeats `EMIT_BENCH_TIME_REPS` times (observability off after the
/// first — counters, obs and histograms reflect exactly one run) and the
/// reported `wall_secs` and `phases` are the per-metric minima, the same
/// noise-stripping convention `tree_construction_makespan` uses.
fn run_one(
    label: &str,
    dataset: &str,
    data: &Dataset,
    params: &DbscanParams,
    reference: &Clustering,
    mut run: impl FnMut() -> (Clustering, RunMeta),
) -> Json {
    obs::reset();
    obs::enable();
    let ((clustering, meta), mut wall) = timed(&mut run);
    obs::disable();
    let report = obs::take_report();
    must_be_exact(label, dataset, &clustering, reference, data, params);
    let RunMeta {
        counters,
        phases,
        mut virtual_secs,
        tree_construction_makespan,
        bsp_timeline,
        peak_heap,
        fault,
    } = meta;

    let mut phase_mins: Vec<(String, f64)> =
        phases.split_up().into_iter().map(|(name, secs, _pct)| (name, secs)).collect();
    let mut makespan_min = tree_construction_makespan;
    for _ in 1..env_usize("EMIT_BENCH_TIME_REPS", 3).max(1) {
        obs::disable();
        let ((extra_clustering, extra), w) = timed(&mut run);
        must_be_exact(label, dataset, &extra_clustering, reference, data, params);
        wall = wall.min(w);
        for (name, secs, _pct) in extra.phases.split_up() {
            if let Some((_, m)) = phase_mins.iter_mut().find(|(n, _)| *n == name) {
                *m = m.min(secs);
            }
        }
        if let (Some(v), Some(ev)) = (virtual_secs.as_mut(), extra.virtual_secs) {
            *v = v.min(ev);
        }
        if let (Some(m), Some(em)) = (makespan_min.as_mut(), extra.tree_construction_makespan) {
            *m = m.min(em);
        }
    }
    // Drop anything the timing reps recorded (a rerun closure may toggle
    // the collector); the emitted report is the first run's.
    obs::disable();
    obs::reset();
    let tree_construction_makespan = makespan_min;

    let mut rec = Json::obj();
    rec.set("algorithm", Json::Str(label.to_string()));
    rec.set("exact", Json::Bool(true));
    rec.set("clusters", count(clustering.n_clusters as u64));
    rec.set("noise", count(clustering.noise_count() as u64));
    rec.set("wall_secs", num(wall));
    rec.set("phases", Json::obj_from(phase_mins.into_iter().map(|(name, secs)| (name, num(secs)))));
    if let Some(v) = virtual_secs {
        rec.set("virtual_secs", num(v));
    }
    if let Some(m) = tree_construction_makespan {
        rec.set("tree_construction_makespan", num(m));
    }
    if let Some((clocks, steps)) = &bsp_timeline {
        rec.set("bsp_timeline", bsp_timeline_json(clocks, *steps));
    }
    if let Some(f) = fault {
        rec.set("fault", f);
    }
    rec.set("pct_queries_saved", num(counters.pct_queries_saved()));
    rec.set("counters", counters_json(&counters));
    rec.set("peak_heap_bytes", count(peak_heap));
    // Schema v3: log-bucketed percentile summaries of the per-query
    // costs, comm bytes and any other histograms the run recorded.
    rec.set(
        "histograms",
        Json::obj_from(report.hists.iter().map(|(k, h)| (k.clone(), h.summary_json()))),
    );
    rec.set("obs", report.to_json());
    rec
}

/// Serving counters summarised in the `live_telemetry` block (the
/// registry keys without the `serve/` prefix).
const LIVE_COUNTER_KEYS: [&str; 9] = [
    "epochs",
    "inserts",
    "deletes",
    "deletes_ignored",
    "expiries",
    "repairs",
    "repair_touched_points",
    "rebuilds",
    "fallback_rebuilds",
];

/// The schema-v8 `live_telemetry` block: every window a `stats` poll
/// returned during the instrumented replay, merged, must reproduce the
/// final cumulative registry counters *and* histograms bit-for-bit —
/// that is the windowed-export contract (`obs::live`), so a mismatch is
/// fatal at emission and a committed file can only say
/// `window_sums_match: true`.
fn live_telemetry_json(ctx: &str, series: &obs::LiveSeries, fin: &ServeStats) -> Json {
    let merged = series.merged();
    if merged.counts != fin.cumulative.counts || merged.hists != fin.cumulative.hists {
        eprintln!(
            "TELEMETRY DRIFT: {ctx}: merged stats windows do not sum to the cumulative registry"
        );
        std::process::exit(1);
    }
    let totals = |r: &obs::Report| {
        Json::obj_from(
            LIVE_COUNTER_KEYS.map(|k| (k.to_string(), count(r.count(&format!("serve/{k}"))))),
        )
    };
    Json::obj_from([
        ("polls".to_string(), count(series.len() as u64)),
        ("window_sums_match".to_string(), Json::Bool(true)),
        ("windows".to_string(), totals(&merged)),
        ("cumulative".to_string(), totals(&fin.cumulative)),
    ])
}

/// Batches in the served-traffic trace (also its final logical epoch).
const SERVE_BATCHES: usize = 8;
/// Reader threads racing the writer in the served-traffic arm.
const SERVE_READERS: usize = 4;

/// The schema-v6 served-traffic arm: replay a deterministic trace of
/// batched inserts, TTL expiries and deletions through the concurrent
/// serving layer (`Runner::serve`) while reader threads race the writer
/// with ε-queries and membership lookups against whatever epoch happens
/// to be published.
///
/// The trace is a pure function of the workload: points are ingested in
/// [`SERVE_BATCHES`] contiguous batches in id order (single-handle
/// ingest, so external ids equal dataset ids), every id ≡ 3 (mod 11)
/// carries a two-epoch TTL, and each batch `b ≥ 2` deletes the ids
/// ≡ 5 (mod 13) inserted exactly two batches earlier (the ones whose
/// TTL already fired count as `deletes_ignored` — also
/// trace-determined). Reader *answers* depend on which epoch each query
/// pins — that is the point of snapshot isolation — so only
/// trace-determined totals are emitted as work metrics, while the
/// `serve/*_us` histograms are wall-clock timings.
///
/// Exactness is fail-closed twice over: the drained final snapshot must
/// be oracle-exact on the live set and bit-identical to a batch
/// streaming run over the same points (`final_matches_batch`).
fn run_serve_traffic(name: &str, data: &Dataset, params: &DbscanParams) -> Json {
    let n = data.len();
    let chunk = n.div_ceil(SERVE_BATCHES).max(1);
    let batch_ops = |b: usize| -> Vec<ServeOp> {
        let mut ops = Vec::new();
        if b >= 2 {
            let (lo, hi) = (((b - 2) * chunk).min(n), ((b - 1) * chunk).min(n));
            ops.extend((lo..hi).filter(|id| id % 13 == 5).map(|id| ServeOp::delete(id as u64)));
        }
        let (lo, hi) = ((b * chunk).min(n), ((b + 1) * chunk).min(n));
        ops.extend((lo..hi).map(|id| {
            let coords = data.point(id as u32).to_vec();
            if id % 11 == 3 {
                ServeOp::insert_ttl(coords, 2)
            } else {
                ServeOp::insert(coords)
            }
        }));
        ops
    };

    // One replay of the whole trace: spawn the engine, race the readers
    // against the ingest loop, rendezvous via `drain`. The instrumented
    // shot additionally races a telemetry poller draining windowed
    // `ServeHandle::stats` snapshots off the engine's shared cursor —
    // the schema-v8 live-telemetry contract — with one last poll after
    // the drain so the merged windows cover the whole trace. The handle
    // drop at the end joins the writer thread.
    let replay = |poll: bool| {
        let handle = Runner::new(*params).serve(data.dim()).expect("serving configuration");
        let t0 = std::time::Instant::now();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (drained, series) = std::thread::scope(|s| {
            let poller = poll.then(|| {
                let h = handle.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut series = obs::LiveSeries::new();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        series.push(h.stats().window);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    series
                })
            });
            for r in 0..SERVE_READERS {
                let h = handle.clone();
                s.spawn(move || {
                    let quota = n / SERVE_READERS + usize::from(r < n % SERVE_READERS);
                    for i in 0..quota {
                        let k = r + i * SERVE_READERS;
                        let mut probe =
                            data.point(((k.wrapping_mul(104_729) + 12_345) % n) as u32).to_vec();
                        // Deterministic jitter keeps the probes off the
                        // ingested points without leaving the ε-scale.
                        for (d, x) in probe.iter_mut().enumerate() {
                            *x += params.eps * 0.25 * ((((k + d) % 7) as f64) - 3.0) / 3.0;
                        }
                        let _ = h.query(&probe).expect("probe dimension matches");
                        let _ = h.membership((k.wrapping_mul(7_919) % n) as u64);
                    }
                });
            }
            for b in 0..SERVE_BATCHES {
                handle.ingest(batch_ops(b)).expect("writer alive");
            }
            let drained = handle.drain().expect("writer alive");
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            (drained, poller.map(|p| p.join().expect("telemetry poller")))
        });
        let wall = t0.elapsed().as_secs_f64();
        let telemetry = series.map(|mut series| {
            let fin = handle.stats();
            series.push(fin.window.clone());
            (series, fin)
        });
        (drained, wall, telemetry)
    };

    // One instrumented shot (the reported ops, counters and histograms
    // reflect exactly one replay), then untraced reruns for the minimum
    // wall — the same noise-stripping convention `run_one` uses.
    obs::reset();
    obs::enable();
    let (drained, mut wall, telemetry) = replay(true);
    obs::disable();
    let report = obs::take_report();
    obs::reset();
    for _ in 1..env_usize("EMIT_BENCH_TIME_REPS", 3).max(1) {
        wall = wall.min(replay(false).1);
    }
    let (series, final_stats) = telemetry.expect("the instrumented replay polls");

    // Fail-closed exactness on the final live set, checked with
    // instrumentation off so the verification runs stay out of the
    // report: oracle-exact AND bit-identical to the batch twin.
    let live = drained.snapshot.dataset();
    let reference = naive_dbscan(live, params);
    must_be_exact("serve_traffic", name, drained.snapshot.clustering(), &reference, live, params);
    let batch =
        Runner::new(*params).family(Family::Streaming).run(live).expect("batch streaming twin");
    if *drained.snapshot.clustering() != batch.clustering {
        eprintln!(
            "EPOCH DRIFT: serve_traffic final snapshot diverged from its batch twin on {name}"
        );
        std::process::exit(1);
    }

    let hist_count =
        |key: &str| report.hists.iter().find(|(k, _)| k == key).map_or(0, |(_, h)| h.count());
    let mut rec = Json::obj();
    rec.set("algorithm", Json::Str("serve_traffic".to_string()));
    rec.set("exact", Json::Bool(true));
    rec.set("final_matches_batch", Json::Bool(true));
    rec.set("clusters", count(drained.snapshot.clustering().n_clusters as u64));
    rec.set("noise", count(drained.snapshot.clustering().noise_count() as u64));
    rec.set("epochs", count(drained.snapshot.epoch()));
    rec.set("live_points", count(live.len() as u64));
    rec.set("wall_secs", num(wall));
    rec.set("phases", Json::obj_from([("serve_replay".to_string(), num(wall))]));
    rec.set(
        "ops",
        Json::obj_from([
            ("inserts".to_string(), count(report.count("serve/inserts"))),
            ("deletes".to_string(), count(report.count("serve/deletes"))),
            ("deletes_ignored".to_string(), count(report.count("serve/deletes_ignored"))),
            ("expiries".to_string(), count(report.count("serve/expiries"))),
            ("rebuilds".to_string(), count(report.count("serve/rebuilds"))),
            ("repairs".to_string(), count(report.count("serve/repairs"))),
            (
                "repair_touched_points".to_string(),
                count(report.count("serve/repair_touched_points")),
            ),
            ("fallback_rebuilds".to_string(), count(report.count("serve/fallback_rebuilds"))),
            ("reader_queries".to_string(), count(hist_count("serve/query_us"))),
            ("reader_memberships".to_string(), count(hist_count("serve/membership_us"))),
            ("reader_threads".to_string(), count(SERVE_READERS as u64)),
        ]),
    );
    // Schema v8: the live-telemetry contract, plus the k-distance sample
    // behind ε selection (`Runner::kdist_sample` at k = MinPts) —
    // sorted ascending here so the summary percentiles read like the
    // latency ones.
    let mut lt = live_telemetry_json(&format!("serve_traffic/{name}"), &series, &final_stats);
    let mut kdist = Runner::new(*params).kdist_sample(data, params.min_pts).expect("k-dist sample");
    kdist.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    let pick = |q: f64| kdist[((kdist.len() - 1) as f64 * q).round() as usize];
    lt.set(
        "kdist",
        Json::obj_from([
            ("k".to_string(), count(params.min_pts as u64)),
            ("samples".to_string(), count(kdist.len() as u64)),
            ("p50".to_string(), num(pick(0.5))),
            ("p90".to_string(), num(pick(0.9))),
            ("p99".to_string(), num(pick(0.99))),
        ]),
    );
    rec.set("live_telemetry", lt);
    rec.set("pct_queries_saved", num(drained.counters.pct_queries_saved()));
    rec.set("counters", counters_json(&drained.counters));
    rec.set(
        "histograms",
        Json::obj_from(report.hists.iter().map(|(k, h)| (k.clone(), h.summary_json()))),
    );
    rec.set("obs", report.to_json());
    rec
}

/// Delete-only epochs in the delete-heavy twin arms (after the single
/// insert epoch that loads the whole workload).
const DELETE_HEAVY_BATCHES: usize = 48;
/// Deletions per delete-only epoch. Kept small so a batch measures
/// per-deletion repair latency: the rebuild baseline's fallback absorbs
/// a whole batch into one rebuild, so large delete batches would
/// amortise the rebuild instead of exposing the per-op contrast.
const DELETE_HEAVY_PER_BATCH: usize = 2;

/// The schema-v7 delete-heavy arm: load the workload in one epoch, then
/// drive [`DELETE_HEAVY_BATCHES`] delete-only epochs of
/// [`DELETE_HEAVY_PER_BATCH`] evenly-strided deletions each (single
/// handle ingest, so external ids equal dataset ids — the stride
/// scatters the deletions across the workload's clusters). Run once per
/// budget: `None` (adaptive — the micro-cluster-local repair path) and
/// `Some(0)` (every removal that needs a repair region falls back to a
/// full rebuild, the baseline the repair path is measured against;
/// noise points and borders that demote no core are still repaired in
/// place). Returns the run record plus the `serve/ingest_batch_us`
/// p99 for the ≥ 2× emission gate.
///
/// No racing readers here: the arm isolates *writer* deletion latency,
/// and a reader-free trace keeps every ops total and engine counter
/// replay-deterministic.
fn run_serve_delete_heavy(
    label: &str,
    name: &str,
    data: &Dataset,
    params: &DbscanParams,
    budget: Option<usize>,
) -> (Json, f64) {
    let n = data.len();
    let total = (DELETE_HEAVY_BATCHES * DELETE_HEAVY_PER_BATCH).min(n / 2).max(1);
    let stride = (n / total).max(1);
    let targets: Vec<u64> = (0..total).map(|j| (j * stride) as u64).collect();
    let batches = 1 + total.div_ceil(DELETE_HEAVY_PER_BATCH);
    let batch_ops = |b: usize| -> Vec<ServeOp> {
        if b == 0 {
            (0..n).map(|id| ServeOp::insert(data.point(id as u32).to_vec())).collect()
        } else {
            let lo = ((b - 1) * DELETE_HEAVY_PER_BATCH).min(total);
            let hi = (b * DELETE_HEAVY_PER_BATCH).min(total);
            targets[lo..hi].iter().map(|&id| ServeOp::delete(id)).collect()
        }
    };

    // The load epoch runs *outside* the measured window (obs off, wall
    // clock not started): the arm isolates the delete-only epochs, so
    // `serve/ingest_batch_us` percentiles compare repair vs rebuild
    // latency instead of being dominated by the one big insert epoch
    // both arms share. The census consequently takes `inserts` from the
    // trace itself (it is trace-determined either way).
    let replay = |instrument: bool| {
        let handle = Runner::new(*params)
            .serve_options(ServeOptions { repair_budget: budget, ..Default::default() })
            .serve(data.dim())
            .expect("serving configuration");
        handle.ingest(batch_ops(0)).expect("writer alive");
        handle.drain().expect("writer alive");
        if instrument {
            obs::enable();
        }
        // The instrumented shot polls `stats` once per delete batch plus
        // once after the drain — a reader-free trace keeps the poll
        // count itself deterministic, and the merged windows must still
        // sum back to the cumulative registry (schema v8).
        let mut series = obs::LiveSeries::new();
        let t0 = std::time::Instant::now();
        for b in 1..batches {
            handle.ingest(batch_ops(b)).expect("writer alive");
            if instrument {
                series.push(handle.stats().window);
            }
        }
        let drained = handle.drain().expect("writer alive");
        let wall = t0.elapsed().as_secs_f64();
        if instrument {
            obs::disable();
        }
        let telemetry = instrument.then(|| {
            let fin = handle.stats();
            series.push(fin.window.clone());
            (series, fin)
        });
        (drained, wall, telemetry)
    };

    // One instrumented shot, then untraced reruns for the minimum wall —
    // the same noise-stripping convention the other serving arm uses.
    obs::reset();
    let (drained, mut wall, telemetry) = replay(true);
    let report = obs::take_report();
    obs::reset();
    for _ in 1..env_usize("EMIT_BENCH_TIME_REPS", 3).max(1) {
        wall = wall.min(replay(false).1);
    }
    let (series, final_stats) = telemetry.expect("the instrumented replay polls");

    // Fail-closed exactness on the surviving live set: oracle-exact AND
    // bit-identical to the batch twin (instrumentation already off).
    let live = drained.snapshot.dataset();
    let reference = naive_dbscan(live, params);
    must_be_exact(label, name, drained.snapshot.clustering(), &reference, live, params);
    let batch =
        Runner::new(*params).family(Family::Streaming).run(live).expect("batch streaming twin");
    if *drained.snapshot.clustering() != batch.clustering {
        eprintln!("EPOCH DRIFT: {label} final snapshot diverged from its batch twin on {name}");
        std::process::exit(1);
    }

    let p99 = report.hist("serve/ingest_batch_us").map_or(0.0, |h| h.percentile(0.99) as f64);
    let mut rec = Json::obj();
    rec.set("algorithm", Json::Str(label.to_string()));
    rec.set("exact", Json::Bool(true));
    rec.set("final_matches_batch", Json::Bool(true));
    rec.set("clusters", count(drained.snapshot.clustering().n_clusters as u64));
    rec.set("noise", count(drained.snapshot.clustering().noise_count() as u64));
    rec.set("epochs", count(drained.snapshot.epoch()));
    rec.set("live_points", count(live.len() as u64));
    rec.set("wall_secs", num(wall));
    rec.set("phases", Json::obj_from([("serve_replay".to_string(), num(wall))]));
    rec.set(
        "ops",
        Json::obj_from([
            // The load epoch sits outside the obs window; its size is a
            // trace constant.
            ("inserts".to_string(), count(n as u64)),
            ("deletes".to_string(), count(report.count("serve/deletes"))),
            ("deletes_ignored".to_string(), count(report.count("serve/deletes_ignored"))),
            ("expiries".to_string(), count(report.count("serve/expiries"))),
            ("rebuilds".to_string(), count(report.count("serve/rebuilds"))),
            ("repairs".to_string(), count(report.count("serve/repairs"))),
            (
                "repair_touched_points".to_string(),
                count(report.count("serve/repair_touched_points")),
            ),
            ("fallback_rebuilds".to_string(), count(report.count("serve/fallback_rebuilds"))),
        ]),
    );
    rec.set(
        "live_telemetry",
        live_telemetry_json(&format!("{label}/{name}"), &series, &final_stats),
    );
    rec.set("pct_queries_saved", num(drained.counters.pct_queries_saved()));
    rec.set("counters", counters_json(&drained.counters));
    rec.set(
        "histograms",
        Json::obj_from(report.hists.iter().map(|(k, h)| (k.clone(), h.summary_json()))),
    );
    rec.set("obs", report.to_json());
    (rec, p99)
}

/// Measure the overhead of the obs instrumentation on the
/// repro_table2-style workload: median wall time over `reps` runs of
/// sequential μDBSCAN with collection off, with aggregate collection
/// (spans + counters + histograms) on, with event tracing on top, and
/// (schema v8) with the live-telemetry machinery racing the run — a
/// poller thread draining windowed snapshots off the global collector,
/// rendering the Prometheus exposition and noting into a flight
/// recorder, the worst case the serving layer's always-on registry and
/// recorder add to a computation.
fn measure_overhead(data: &Dataset, params: &DbscanParams, reps: usize) -> Json {
    let runner = Runner::new(*params);
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        xs[xs.len() / 2]
    };
    let time_runs = |enabled: bool, tracing: bool| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                obs::reset();
                if enabled {
                    obs::enable();
                }
                if tracing {
                    obs::enable_tracing();
                }
                let (_, t) = timed(|| runner.run(data).expect("sequential run"));
                obs::disable_tracing();
                obs::disable();
                let _ = obs::take_trace();
                obs::reset();
                t
            })
            .collect()
    };
    // The poller is paced at a dashboard cadence: each `poll_global`
    // clones the whole collector state under the global lock, so an
    // adversarial spin-poll measures lock-hammering, not the
    // steady-state cost of live export. 25ms guarantees at least one
    // full poll+render+note cycle per rep at any workload size.
    let time_live_runs = || -> Vec<f64> {
        (0..reps)
            .map(|_| {
                obs::reset();
                obs::enable();
                let stop = std::sync::atomic::AtomicBool::new(false);
                let recorder = obs::FlightRecorder::new(64);
                let t = std::thread::scope(|s| {
                    s.spawn(|| {
                        let mut cursor = obs::WindowCursor::new();
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let snap = cursor.poll_global();
                            let _ = obs::render_prom(&snap.cumulative, "mudbscan");
                            recorder.note("overhead-probe poll");
                            std::thread::sleep(std::time::Duration::from_millis(25));
                        }
                    });
                    let (_, t) = timed(|| runner.run(data).expect("sequential run"));
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                    t
                });
                obs::disable();
                obs::reset();
                t
            })
            .collect()
    };
    // Warm-up run so no arm pays first-touch costs.
    let _ = runner.run(data).expect("sequential run");
    let off = median(time_runs(false, false));
    let on = median(time_runs(true, false));
    let traced = median(time_runs(true, true));
    let live = median(time_live_runs());
    let pct = if off > 0.0 { 100.0 * (on - off) / off } else { 0.0 };
    let tracing_pct = if off > 0.0 { 100.0 * (traced - off) / off } else { 0.0 };
    let live_pct = if off > 0.0 { 100.0 * (live - off) / off } else { 0.0 };
    println!(
        "instrumentation overhead: disabled {} vs enabled {} ({pct:+.2}%) vs traced {} \
         ({tracing_pct:+.2}%) vs live-polled {} ({live_pct:+.2}%)",
        secs(off),
        secs(on),
        secs(traced),
        secs(live)
    );
    Json::obj_from([
        ("reps".to_string(), count(reps as u64)),
        ("median_disabled_secs".to_string(), num(off)),
        ("median_enabled_secs".to_string(), num(on)),
        ("median_traced_secs".to_string(), num(traced)),
        ("median_live_secs".to_string(), num(live)),
        ("overhead_pct".to_string(), num(pct)),
        ("tracing_overhead_pct".to_string(), num(tracing_pct)),
        ("live_overhead_pct".to_string(), num(live_pct)),
    ])
}

/// Optional trace export: one fully traced distributed run (wall spans on
/// pid 1, per-rank BSP virtual timeline on pid 2), written as Chrome
/// trace-event JSON.
fn export_trace(path: &str, data: &Dataset, params: &DbscanParams) {
    obs::reset();
    obs::enable();
    obs::enable_tracing();
    let _ = Runner::new(*params).ranks(4).run(data).expect("traced dist run");
    obs::disable_tracing();
    obs::disable();
    let trace = obs::take_trace();
    obs::reset();
    trace.validate().expect("emitted trace must be internally consistent");
    let text = trace.to_chrome_json().render_pretty();
    std::fs::write(path, &text).expect("write trace file");
    println!("wrote {path} ({} events, {} bytes)", trace.len(), text.len());
}

/// Schema v9: the out-of-core sharded arm. Writes the DGB analogue at
/// `n` points to a memory-mapped chunk store in a temp dir, clusters it
/// through `Runner::run_source` with `.shards(8)` and a memory budget
/// of half the raw coordinate bytes on 1 and 4 worker threads, and
/// verifies — fail-closed at emission, at every size — that both arms
/// are bit-identical to each other and to the in-memory sequential run
/// on the same points, plus a naive-oracle equivalence check at the
/// overlap size (naive is O(n²), so it caps at 10⁴ points). At
/// [`SHARDED_GATE_MIN_N`] two more gates engage: peak resident shard
/// bytes within the budget, and t1→t4 makespan speedup ≥
/// [`SHARDED_MIN_SPEEDUP`] (makespan = plan wall + max per-worker
/// thread-CPU busy + merge wall — a model of the quantity that scales
/// on oversubscribed hosts).
/// Cheap structural paper-exactness: identical core flags, identical
/// noise set, identical core partition (label bijection over core
/// points), and every label disagreement confined to border points.
/// Returns `(ok, border_ties)` where `border_ties` counts border points
/// the two clusterings attach to different (bijection-mapped) clusters
/// — a border strictly within ε of cores in two clusters is
/// order-defined in DBSCAN itself, so the sharded executor's canonical
/// minimum-id choice can legitimately differ from sequential μDBSCAN's
/// processing-order choice. `check_exact` would also re-verify border
/// validity geometrically, but that is O(borders × n) — far too slow at
/// 10⁶ points; the merge's border rule is pinned bitwise against the
/// naive oracle by the conformance suite and the overlap check below.
fn paper_exact_structural(a: &Clustering, b: &Clustering) -> (bool, u64) {
    if a.is_core != b.is_core || a.n_clusters != b.n_clusters {
        return (false, 0);
    }
    let n = a.labels.len();
    let mut fwd = vec![NOISE; a.n_clusters];
    let mut bwd = vec![NOISE; b.n_clusters];
    for p in 0..n {
        if !a.is_core[p] {
            continue;
        }
        let (la, lb) = (a.labels[p], b.labels[p]);
        if la == NOISE || lb == NOISE {
            return (false, 0); // a core point must be clustered
        }
        if fwd[la as usize] == NOISE {
            fwd[la as usize] = lb;
        } else if fwd[la as usize] != lb {
            return (false, 0);
        }
        if bwd[lb as usize] == NOISE {
            bwd[lb as usize] = la;
        } else if bwd[lb as usize] != la {
            return (false, 0);
        }
    }
    let mut ties = 0u64;
    for p in 0..n {
        let (la, lb) = (a.labels[p], b.labels[p]);
        if (la == NOISE) != (lb == NOISE) {
            return (false, 0); // noise sets must agree
        }
        if la == NOISE || a.is_core[p] {
            continue;
        }
        if fwd[la as usize] != lb {
            ties += 1;
        }
    }
    (true, ties)
}

fn run_sharded_scale(n: usize) -> Json {
    let specs = paper_table2_specs();
    let spec = specs.iter().find(|s| s.name == "DGB0.5M3D").expect("catalog spec");
    let data = spec.generate_n(n, SEED);
    let params = spec.params;
    let raw_bytes = data.len() * data.dim() * std::mem::size_of::<f64>();
    let budget = (raw_bytes / 2).max(1);
    println!(
        "[sharded_scale] n={n} dim={} eps={} min_pts={} raw={raw_bytes}B budget={budget}B",
        spec.dim, params.eps, params.min_pts
    );

    let dir = std::env::temp_dir().join(format!("mudbscan-emit-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("sharded temp dir");
    let path = dir.join("sharded_scale.muds");
    let chunk_cap = 4096usize;
    write_store(&data, &path, chunk_cap).expect("write chunk store");
    let store = ChunkedStore::open(&path).expect("open chunk store");

    // The in-memory reference this arm must reproduce bit-for-bit.
    let (mem, mem_wall) = timed(|| Runner::new(params).run(&data).expect("in-memory run"));

    let reps = env_usize("EMIT_BENCH_SHARDED_REPS", 1).max(1);
    let mut arms = Vec::new();
    let mut makespans = Vec::new();
    let mut clusterings = Vec::new();
    let mut budget_ok = true;
    for threads in [1usize, 4] {
        let runner = Runner::new(params).shards(8).threads(threads).memory_budget(budget);
        let mut best: Option<RunOutput> = None;
        let mut arm_ties = 0u64;
        for _ in 0..reps {
            let out = runner.run_source(&store).expect("sharded run");
            let (exact, ties) = paper_exact_structural(&out.clustering, &mem.clustering);
            if !exact {
                eprintln!("SHARDED DRIFT: t{threads} diverged from the in-memory run at n={n}");
                std::process::exit(1);
            }
            arm_ties = ties;
            let keep = match &best {
                Some(b) => makespan_of(&out.details) < makespan_of(&b.details),
                None => true,
            };
            if keep {
                best = Some(out);
            }
        }
        let out = best.expect("at least one rep");
        let RunDetails::Sharded {
            n_shards,
            threads: t,
            plan_secs,
            merge_secs,
            busy_max_secs,
            makespan_secs,
            wall_secs,
            peak_resident_bytes,
            halo_points,
            edges,
        } = out.details
        else {
            unreachable!("a sharded runner produces Sharded details");
        };
        println!(
            "[sharded_scale] t{t}: {n_shards} shards, makespan {makespan_secs:.3}s \
             (plan {plan_secs:.3}s busy {busy_max_secs:.3}s merge {merge_secs:.3}s), \
             peak resident {peak_resident_bytes}B"
        );
        budget_ok &= peak_resident_bytes <= budget;
        if n >= SHARDED_GATE_MIN_N && peak_resident_bytes > budget {
            eprintln!(
                "SHARDED RESIDENCY: t{t} peak {peak_resident_bytes}B exceeds the {budget}B budget"
            );
            std::process::exit(1);
        }
        let mut arm = Json::obj();
        arm.set("label", Json::Str(format!("sharded_t{t}")));
        arm.set("threads", count(t as u64));
        arm.set("n_shards", count(n_shards as u64));
        arm.set("plan_secs", num(plan_secs));
        arm.set("merge_secs", num(merge_secs));
        arm.set("busy_max_secs", num(busy_max_secs));
        arm.set("makespan_secs", num(makespan_secs));
        arm.set("wall_secs", num(wall_secs));
        arm.set("peak_resident_bytes", count(peak_resident_bytes as u64));
        arm.set("halo_points", count(halo_points));
        arm.set("edges", count(edges));
        arm.set("clusters", count(out.clustering.n_clusters as u64));
        arm.set("noise", count(out.clustering.noise_count() as u64));
        arm.set("matches_in_memory", Json::Bool(true));
        arm.set("border_ties", count(arm_ties));
        arms.push(arm);
        makespans.push(makespan_secs);
        clusterings.push(out.clustering);
    }
    let identical = clusterings[0] == clusterings[1];
    if !identical {
        // Unreachable while both match `mem`, but keep the direct check:
        // the t1 ≡ t4 bit is the contract this arm exists to pin.
        eprintln!("SHARDED DRIFT: t1 and t4 clusterings differ at n={n}");
        std::process::exit(1);
    }
    let speedup = makespans[0] / makespans[1].max(1e-12);
    println!("[sharded_scale] makespan speedup t1→t4: {speedup:.2}x");
    if n >= SHARDED_GATE_MIN_N && speedup < SHARDED_MIN_SPEEDUP {
        eprintln!(
            "SHARDED SCALING: t1→t4 makespan speedup {speedup:.2}x below {SHARDED_MIN_SPEEDUP}x"
        );
        std::process::exit(1);
    }

    // Naive-oracle equivalence at the overlap size, in every mode.
    let overlap_n = n.min(10_000);
    let overlap = spec.generate_n(overlap_n, SEED);
    let oracle = naive_dbscan(&overlap, &params);
    let small =
        Runner::new(params).shards(8).threads(4).run(&overlap).expect("overlap sharded run");
    if small.clustering != oracle {
        eprintln!("SHARDED DRIFT: overlap run at n={overlap_n} diverged from the naive oracle");
        std::process::exit(1);
    }

    let store_bytes = store.file_bytes();
    let mapped = store.is_mapped();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let mut block = Json::obj();
    block.set("dataset", Json::Str(spec.name.to_string()));
    block.set("n", count(n as u64));
    block.set("dim", count(spec.dim as u64));
    block.set("eps", num(params.eps));
    block.set("min_pts", count(params.min_pts as u64));
    block.set("raw_bytes", count(raw_bytes as u64));
    block.set("memory_budget_bytes", count(budget as u64));
    block.set("store_file_bytes", count(store_bytes as u64));
    block.set("chunk_cap", count(chunk_cap as u64));
    block.set("store_mapped", Json::Bool(mapped));
    block.set("shards_requested", count(8));
    block.set("reps", count(reps as u64));
    block.set("in_memory_wall_secs", num(mem_wall));
    block.set("arms", Json::Arr(arms));
    block.set("identical_t1_t4", Json::Bool(true));
    block.set("budget_respected", Json::Bool(budget_ok));
    block.set("speedup_t1_t4", num(speedup));
    block.set(
        "oracle_overlap",
        Json::obj_from([
            ("n".to_string(), count(overlap_n as u64)),
            ("matches_oracle".to_string(), Json::Bool(true)),
        ]),
    );
    block
}

fn makespan_of(details: &RunDetails) -> f64 {
    match details {
        RunDetails::Sharded { makespan_secs, .. } => *makespan_secs,
        _ => f64::INFINITY,
    }
}

fn main() {
    let n = env_usize("EMIT_BENCH_N", 4000);
    let reps = env_usize("EMIT_BENCH_REPS", 5);
    let out_path =
        std::env::var("EMIT_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR10.json".to_string());

    bench::banner(
        "emit_bench",
        "machine-readable per-phase trajectory (all tables feed from these quantities)",
        &format!("{n} points per workload, seed {SEED}"),
    );

    let specs = paper_table2_specs();
    let mut workloads = Vec::new();
    let mut overhead_input: Option<(Dataset, DbscanParams)> = None;

    for name in WORKLOAD_NAMES {
        let spec = specs.iter().find(|s| s.name == name).expect("catalog spec");
        let data = spec.generate_n(n, SEED);
        let params = spec.params;
        println!("[{name}] n={n} dim={} eps={} min_pts={}", spec.dim, params.eps, params.min_pts);
        let reference = naive_dbscan(&data, &params);

        let mut runs = Vec::new();
        runs.push(run_one("mudbscan_seq", name, &data, &params, &reference, || {
            let out = Runner::new(params).run(&data).expect("sequential run");
            let meta = RunMeta::from_output(&out);
            (out.clustering, meta)
        }));
        let makespan_reps = env_usize("EMIT_BENCH_MAKESPAN_REPS", 5);
        for threads in [1usize, 4] {
            let label = format!("par_mudbscan_t{threads}");
            let runner = Runner::new(params).threads(threads);
            runs.push(run_one(&label, name, &data, &params, &reference, || {
                let out = runner.run(&data).expect("parallel run");
                let mut meta = RunMeta::from_output(&out);
                // The parallel arms report the construction wall time in
                // place of the heap estimate the sequential arm reports.
                meta.peak_heap = 0;
                meta.tree_construction_makespan = Some(out.phases.secs("tree_construction"));
                // The construction is a single-digit-millisecond quantity,
                // so a single shot is at the mercy of the scheduler. Repeat
                // the run (observability paused: counters and obs must
                // reflect exactly one run) and keep the minimum.
                obs::disable();
                for _ in 1..makespan_reps.max(1) {
                    let extra = runner.run(&data).expect("parallel run");
                    if let Some(m) = meta.tree_construction_makespan.as_mut() {
                        *m = m.min(extra.phases.secs("tree_construction"));
                    }
                }
                obs::enable();
                (out.clustering, meta)
            }));
        }
        let mut fault_free_p4: Option<(Clustering, f64)> = None;
        for ranks in [1usize, 4] {
            let label = format!("mudbscan_d_p{ranks}");
            runs.push(run_one(&label, name, &data, &params, &reference, || {
                let out = Runner::new(params).ranks(ranks).run(&data).expect("dist run");
                let meta = RunMeta::from_output(&out);
                if ranks == 4 {
                    fault_free_p4 =
                        Some((out.clustering.clone(), meta.virtual_secs.unwrap_or(0.0)));
                }
                (out.clustering, meta)
            }));
        }
        // Schema v4: the faulted arm. Same 4-rank run under the pinned
        // all-classes fault plan; recovery must reproduce the fault-free
        // clustering bit-for-bit, and the fault block records what it cost.
        let (clean_clustering, clean_runtime) =
            fault_free_p4.expect("the p4 arm ran before the faulted arm");
        runs.push(run_one("mudbscan_d_p4_faults", name, &data, &params, &reference, || {
            let plan = bench_fault_plan();
            let out = Runner::new(params)
                .ranks(4)
                .fault_plan(plan.clone())
                .run(&data)
                .expect("faulted run");
            let mut meta = RunMeta::from_output(&out);
            let RunDetails::Distributed { runtime_secs, ref fault_stats, .. } = out.details else {
                unreachable!("a ranks(4) run is Distributed");
            };
            let clusters_match = out.clustering == clean_clustering;
            if !clusters_match {
                eprintln!(
                    "RECOVERY DRIFT: faulted p4 clustering diverged from fault-free on {name}"
                );
                std::process::exit(1);
            }
            meta.fault = Some(fault_json(
                plan.seed,
                fault_stats,
                out.phases.secs("recovery"),
                runtime_secs,
                clean_runtime,
                clusters_match,
            ));
            (out.clustering, meta)
        }));
        // Schema v6: the served-traffic arm (own harness — its exactness
        // checks run against the final *live* set, not the full dataset).
        runs.push(run_serve_traffic(name, &data, &params));
        // Schema v7: the delete-heavy twin arms. The repair arm must
        // beat the budget-0 rebuild baseline ≥ 2× on the
        // per-batch latency p99 — gated fail-closed at full bench size
        // (the tiny CI smoke run only prints the ratio).
        let (repair_rec, repair_p99) =
            run_serve_delete_heavy("serve_delete_heavy", name, &data, &params, None);
        let (rebuild_rec, rebuild_p99) =
            run_serve_delete_heavy("serve_delete_heavy_rebuild", name, &data, &params, Some(0));
        println!(
            "[{name}] delete-heavy ingest_batch_us p99: repair {repair_p99:.0}us vs rebuild \
             {rebuild_p99:.0}us ({:.1}x)",
            rebuild_p99 / repair_p99.max(1.0)
        );
        if n >= 2000 && repair_p99 * 2.0 > rebuild_p99 {
            eprintln!(
                "REPAIR REGRESSION: delete-heavy ingest p99 {repair_p99:.0}us is not ≥2× better \
                 than the rebuild baseline {rebuild_p99:.0}us on {name}"
            );
            std::process::exit(1);
        }
        runs.push(repair_rec);
        runs.push(rebuild_rec);

        let mut w = Json::obj();
        w.set("dataset", Json::Str(name.to_string()));
        w.set("n", count(data.len() as u64));
        w.set("dim", count(spec.dim as u64));
        w.set("eps", num(params.eps));
        w.set("min_pts", count(params.min_pts as u64));
        w.set(
            "reference",
            Json::obj_from([
                ("clusters".to_string(), count(reference.n_clusters as u64)),
                ("noise".to_string(), count(reference.noise_count() as u64)),
            ]),
        );
        w.set("runs", Json::Arr(runs));
        workloads.push(w);

        // The largest (last) workload doubles as the overhead probe.
        overhead_input = Some((data, params));
    }

    let (od, op) = overhead_input.expect("at least one workload");
    let overhead = measure_overhead(&od, &op, reps);
    if let Ok(trace_path) = std::env::var("EMIT_BENCH_TRACE_OUT") {
        export_trace(&trace_path, &od, &op);
    }

    // Schema v9: the out-of-core sharded arm, at its own (much larger)
    // scale knob.
    let sharded_n = env_usize("EMIT_BENCH_SHARDED_N", 1_000_000);
    let sharded = run_sharded_scale(sharded_n);

    let mut root = Json::obj();
    root.set("schema_version", Json::Num(SCHEMA_VERSION as f64));
    root.set("seed", count(SEED));
    root.set("points_per_workload", count(n as u64));
    root.set("workloads", Json::Arr(workloads));
    root.set("overhead", overhead);
    root.set("sharded_scale", sharded);

    let text = root.render_pretty();
    std::fs::write(&out_path, &text).expect("write trajectory file");
    println!("\nwrote {out_path} ({} bytes)", text.len());
}
