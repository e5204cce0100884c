//! The repository benchmark. One run generates a workload's inputs from
//! `--seed`, runs rounds of the workload's three shapes (batch,
//! out-of-core, served) for `--seconds`, verifies every clustering it
//! produced, and prints one JSON line with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md.

mod gate;
mod layers;
mod serve;
mod util;

use gate::{same_counts, Gate, Verifier};
use mudbscan::prelude::*;
use serve::{Replay, Trace};
use std::path::{Path, PathBuf};
use std::time::Instant;
use util::{median, peak_rss_mb, quantile, reset_peak_rss, scaling_exp, timed, Metrics, Rng};

/// End-to-end metrics, in `BENCHMARK.json` order: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cluster_s", "s"),
    ("cluster_par_s", "s"),
    ("outofcore_s", "s"),
    ("ingest_visible_ms_p50", "ms"),
    ("ingest_visible_ms_p95", "ms"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("serve_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

const PHASES: [&str; 4] =
    ["tree_construction", "finding_reachable", "clustering", "post_processing"];

/// Per-layer metrics, in `BENCHMARK.json` order: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("geom.kernel_ns_per_eval", "ns"),
    ("geom.dist_evals", "count"),
    ("rtree.bulk_load_s", "s"),
    ("rtree.sphere_query_us", "us"),
    ("rtree.node_visits", "count"),
    ("mcs.build_s", "s"),
    ("mcs.par_build_s", "s"),
    ("mcs.mc_count", "count"),
    ("mcs.build_scaling_exp", "exp"),
    ("core.seq.tree_construction_s", "s"),
    ("core.seq.finding_reachable_s", "s"),
    ("core.seq.clustering_s", "s"),
    ("core.seq.post_processing_s", "s"),
    ("core.par.tree_construction_s", "s"),
    ("core.par.finding_reachable_s", "s"),
    ("core.par.clustering_s", "s"),
    ("core.par.post_processing_s", "s"),
    ("core.tree_construction_scaling_exp", "exp"),
    ("core.finding_reachable_scaling_exp", "exp"),
    ("core.clustering_scaling_exp", "exp"),
    ("core.post_processing_scaling_exp", "exp"),
    ("core.range_queries", "count"),
    ("core.queries_saved_pct", "%"),
    ("core.union_ops", "count"),
    ("core.par_efficiency", "ratio"),
    ("partition.plan_s", "s"),
    ("partition.shards", "count"),
    ("partition.halo_ratio", "ratio"),
    ("dist.wall_s", "s"),
    ("dist.makespan_s", "model-s"),
    ("dist.busy_max_s", "s"),
    ("dist.merge_s", "s"),
    ("dist.edges", "count"),
    ("dist.peak_resident_mb", "MB"),
    ("dist.resident_over_budget", "ratio"),
    ("dist.t1_same_plan_s", "s"),
    ("dist.t1_shards", "count"),
    ("dist.wall_speedup", "ratio"),
    ("data.store_write_s", "s"),
    ("data.store_open_s", "s"),
    ("data.chunk_scan_mb_per_s", "MB/s"),
    ("stream.insert_us", "us"),
    ("stream.remove_us", "us"),
    ("stream.snapshot_ms", "ms"),
    ("stream.publish_us_p50", "us"),
    ("stream.repairs", "count"),
    ("stream.touched_per_repair", "count"),
    ("stream.fallback_rebuilds", "count"),
    ("obs.registry_record_ns_t1", "ns"),
    ("obs.registry_record_ns_tN", "ns"),
    ("obs.enabled_overhead_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("failed_frac", "ratio"),
];

#[derive(Clone, Copy)]
enum Gen {
    Galaxy3,
    Household5,
}

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Batch,
    OutOfCore,
    Serve,
}

/// A workload: one generator and density, a size per shape, and the
/// headline shape, the one its size and reason are about.
struct Workload {
    name: &'static str,
    gen: Gen,
    eps: f64,
    min_pts: usize,
    batch_n: usize,
    ooc_n: usize,
    serve_n: usize,
    headline: Shape,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch_galaxy",
        gen: Gen::Galaxy3,
        eps: 0.8,
        min_pts: 5,
        batch_n: 25_000,
        ooc_n: 10_000,
        serve_n: 1_000,
        headline: Shape::Batch,
    },
    Workload {
        name: "outofcore_galaxy",
        gen: Gen::Galaxy3,
        eps: 0.8,
        min_pts: 5,
        batch_n: 10_000,
        ooc_n: 50_000,
        serve_n: 1_000,
        headline: Shape::OutOfCore,
    },
    Workload {
        name: "serve_household",
        gen: Gen::Household5,
        eps: 5.0,
        min_pts: 6,
        batch_n: 2_000,
        ooc_n: 2_000,
        serve_n: 2_000,
        headline: Shape::Serve,
    },
    Workload {
        name: "serve_galaxy",
        gen: Gen::Galaxy3,
        eps: 0.8,
        min_pts: 5,
        batch_n: 4_000,
        ooc_n: 4_000,
        serve_n: 4_000,
        headline: Shape::Serve,
    },
];

/// A run makes at least `MIN_ROUNDS` rounds, each running every shape.
const MIN_ROUNDS: usize = 5;
/// Busy time on every core before anything is timed.
const WARM_UP_SECONDS: f64 = 0.5;
/// Seed of the generators' point-cloud shape (see `Workload::generate`).
const SHAPE_SEED: u64 = 2019;
/// Repetitions of each size of the superlinearity probe.
const SCALING_REPS: usize = 5;

impl Workload {
    fn params(&self) -> DbscanParams {
        DbscanParams::new(self.eps, self.min_pts)
    }

    /// `n` points of the workload's generator. The point cloud (halo
    /// masses and centres, household modes, point order) is drawn once
    /// from `SHAPE_SEED`; `seed` jitters every coordinate by up to ε/200.
    /// Each seed thus gives different inputs of the same shape, and the
    /// spread between seeds measures the program rather than the
    /// generator's heavy-tailed halo masses.
    fn generate(&self, n: usize, seed: u64) -> Dataset {
        let base = match self.gen {
            Gen::Galaxy3 => data::galaxy(n, 3, SHAPE_SEED),
            Gen::Household5 => data::household(n, SHAPE_SEED),
        };
        let mut rng = Rng::new(seed);
        let jittered: Vec<f64> =
            base.coords().iter().map(|&c| c + (rng.unit() - 0.5) * self.eps / 100.0).collect();
        Dataset::from_flat(base.dim(), jittered)
    }

    /// The headline shape first, then the other two.
    fn shapes(&self) -> [Shape; 3] {
        match self.headline {
            Shape::Batch => [Shape::Batch, Shape::OutOfCore, Shape::Serve],
            Shape::OutOfCore => [Shape::OutOfCore, Shape::Batch, Shape::Serve],
            Shape::Serve => [Shape::Serve, Shape::Batch, Shape::OutOfCore],
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => seconds = val.parse().map_err(|_| bad())?,
            "--trace" => trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// A store file that is removed when the run ends.
struct StoreFile(PathBuf);

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A workload's generated inputs. The out-of-core points live only in
/// the store; `ooc_data` regenerates them for the exactness check.
struct Inputs {
    batch: Dataset,
    store: ChunkedStore,
    _store_file: StoreFile,
    serve: Dataset,
    trace: Trace,
    store_write_s: f64,
    store_open_s: f64,
}

/// Generate the inputs, write and open the store, build the trace.
/// `rep` keeps the store file of each set-up apart.
fn setup(w: &Workload, seed: u64, work: &Path, rep: usize) -> Result<Inputs, String> {
    let batch = w.generate(w.batch_n, seed);
    let ooc = if w.ooc_n == w.batch_n { batch.clone() } else { w.generate(w.ooc_n, seed) };
    let serve = if w.serve_n == w.batch_n { batch.clone() } else { w.generate(w.serve_n, seed) };
    let path = work.join(format!("{}-{seed}-{}-{rep}.muds", w.name, std::process::id()));
    let store_file = StoreFile(path.clone());
    let (store_write_s, written) = timed(|| write_store(&ooc, &path, DEFAULT_CHUNK_CAP));
    written.map_err(|e| e.to_string())?;
    drop(ooc);
    let (store_open_s, store) = timed(|| ChunkedStore::open(&path));
    let store = store.map_err(|e| e.to_string())?;
    let trace = Trace::new(&serve);
    Ok(Inputs { batch, store, _store_file: store_file, serve, trace, store_write_s, store_open_s })
}

impl Workload {
    /// The points in the store, in memory.
    fn ooc_data(&self, inp: &Inputs, seed: u64) -> Dataset {
        if self.ooc_n == self.batch_n {
            inp.batch.clone()
        } else {
            self.generate(self.ooc_n, seed)
        }
    }
}

/// Whether the program's own observability is on during a repetition.
#[derive(Clone, Copy, PartialEq)]
enum Obs {
    Off,
    /// `obs::enable()`: counters, spans and histograms are collected.
    Enabled,
    /// `obs::enable()` plus event tracing.
    Traced,
}

/// Run `f` under `mode`, then drain what the program collected so
/// nothing accumulates across repetitions.
fn with_obs<T>(mode: Obs, f: impl FnOnce() -> T) -> T {
    if mode == Obs::Off {
        return f();
    }
    obs::enable();
    if mode == Obs::Traced {
        obs::enable_tracing();
    }
    let out = f();
    obs::disable_tracing();
    obs::disable();
    drop(obs::take_report());
    drop(obs::take_trace());
    out
}

/// One repetition of a shape and the observability mode it ran under.
struct Rep<T> {
    obs: Obs,
    v: T,
}

/// One sequential and one parallel `Runner::run` of the batch shape.
struct BatchUnit {
    seq_s: f64,
    par_s: f64,
    seq: RunOutput,
    par: RunOutput,
}

/// One `Runner::run_source` of the out-of-core shape.
struct OocRun {
    wall_s: f64,
    out: RunOutput,
}

/// Every repetition one run made, per shape, and per round of an
/// untraced run its set-up time and peak memory.
#[derive(Default)]
struct Runs {
    batch: Vec<Rep<BatchUnit>>,
    ooc: Vec<Rep<OocRun>>,
    serve: Vec<Rep<Replay>>,
    setup_s: Vec<f64>,
    peak_mb: Vec<f64>,
}

/// The values of the repetitions that ran under `obs`.
fn under<T, X>(reps: &[Rep<T>], obs: Obs, f: impl Fn(&T) -> X) -> Vec<X> {
    reps.iter().filter(|r| r.obs == obs).map(|r| f(&r.v)).collect()
}

/// The values of the repetitions that ran with observability off.
fn off<T, X>(reps: &[Rep<T>], f: impl Fn(&T) -> X) -> Vec<X> {
    under(reps, Obs::Off, f)
}

fn batch_unit(
    gate: &mut Gate,
    p: DbscanParams,
    data: &Dataset,
    threads: usize,
) -> Option<BatchUnit> {
    let (seq_s, seq) = gate.run("sequential run", || {
        let (s, out) = timed(|| Runner::new(p).run(data));
        Ok((s, out.map_err(|e| e.to_string())?))
    })?;
    let (par_s, par) = gate.run("parallel run", || {
        let (s, out) = timed(|| Runner::new(p).threads(threads).run(data));
        Ok((s, out.map_err(|e| e.to_string())?))
    })?;
    Some(BatchUnit { seq_s, par_s, seq, par })
}

/// Out of core at `threads` with a budget of half the raw coordinate
/// bytes; `shards` requests a minimum shard count.
fn ooc_unit(
    gate: &mut Gate,
    p: DbscanParams,
    src: &dyn DataSource,
    threads: usize,
    shards: Option<usize>,
) -> Option<OocRun> {
    gate.run("out-of-core run", || {
        let mut r = Runner::new(p).threads(threads).memory_budget(src.coord_bytes() / 2);
        if let Some(k) = shards {
            r = r.shards(k);
        }
        let (wall_s, out) = timed(|| r.run_source(src));
        Ok(OocRun { wall_s, out: out.map_err(|e| e.to_string())? })
    })
}

/// Repeat `f` at least `min_reps` times, then while another repetition
/// is expected to end less than half a repetition past `seconds`.
fn repeat(seconds: f64, min_reps: usize, mut f: impl FnMut()) {
    let t = Instant::now();
    let mut reps = 0;
    loop {
        let elapsed = t.elapsed().as_secs_f64();
        let per_rep = if reps == 0 { 0.0 } else { elapsed / reps as f64 };
        if reps >= min_reps && elapsed + per_rep / 2.0 > seconds {
            break;
        }
        f();
        reps += 1;
    }
}

/// Run rounds for `--seconds`. A round runs each of the workload's three
/// shapes once with observability off, so every shape's repetitions are
/// spread over the whole run and meet the same host. In a traced run a
/// round also runs the batch shape with observability enabled and the
/// headline with it traced. In an untraced run a round first sets the
/// inputs up again (timed, then dropped), then resets the peak resident
/// set and reads it after the shapes.
fn run_rounds(w: &Workload, inp: &Inputs, args: &Args, work: &Path, gate: &mut Gate) -> Runs {
    let (p, threads) = (w.params(), nproc());
    let mut runs = Runs::default();
    let mut round = 0;
    repeat(args.seconds, MIN_ROUNDS, || {
        round += 1;
        if !args.trace {
            let (s, again) = timed(|| setup(w, args.seed, work, round));
            runs.setup_s.push(s);
            drop(gate.run("set-up", || again));
            reset_peak_rss();
        }
        for shape in w.shapes() {
            let mut modes = vec![Obs::Off];
            if args.trace && shape == Shape::Batch {
                modes.push(Obs::Enabled);
            }
            if args.trace && shape == w.headline {
                modes.push(Obs::Traced);
            }
            for obs in modes {
                match shape {
                    Shape::Batch => {
                        let u = with_obs(obs, || batch_unit(gate, p, &inp.batch, threads));
                        runs.batch.extend(u.map(|v| Rep { obs, v }));
                    }
                    Shape::OutOfCore => {
                        let r = with_obs(obs, || ooc_unit(gate, p, &inp.store, threads, None));
                        runs.ooc.extend(r.map(|v| Rep { obs, v }));
                    }
                    Shape::Serve => {
                        let r = with_obs(obs, || {
                            gate.run("served replay", || {
                                serve::replay(p, &inp.serve, &inp.trace, args.seed, work)
                            })
                        });
                        runs.serve.extend(r.map(|v| Rep { obs, v }));
                    }
                }
            }
        }
        if !args.trace {
            runs.peak_mb.push(peak_rss_mb());
        }
    });
    eprintln!(
        "{}: {round} rounds; batch {}, out-of-core {}, served {} repetitions",
        w.name,
        runs.batch.len(),
        runs.ooc.len(),
        runs.serve.len()
    );
    runs
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Spin every core for `WARM_UP_SECONDS`.
fn warm_up() {
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                let t = Instant::now();
                let mut x = 0u64;
                while t.elapsed().as_secs_f64() < WARM_UP_SECONDS {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            });
        }
    });
}

/// Sharded-run details the metrics read.
struct ShardStats {
    shards: usize,
    halo_ratio: f64,
    busy_max_s: f64,
    merge_s: f64,
    makespan_s: f64,
    resident_mb: f64,
    edges: u64,
}

fn shard_stats(out: &RunOutput, n: usize) -> ShardStats {
    match out.details {
        RunDetails::Sharded {
            n_shards,
            halo_points,
            busy_max_secs,
            merge_secs,
            makespan_secs,
            peak_resident_bytes,
            edges,
            ..
        } => ShardStats {
            shards: n_shards,
            halo_ratio: halo_points as f64 / n as f64,
            busy_max_s: busy_max_secs,
            merge_s: merge_secs,
            makespan_s: makespan_secs,
            resident_mb: peak_resident_bytes as f64 / 1e6,
            edges,
        },
        _ => panic!("an out-of-core run must report sharded details"),
    }
}

fn seq_counts(out: &RunOutput) -> Vec<(&'static str, f64)> {
    let c = &out.counters;
    vec![
        ("core.range_queries", c.range_queries() as f64),
        ("geom.dist_evals", c.dist_computations() as f64),
        ("core.union_ops", c.union_ops() as f64),
    ]
}

fn ooc_counts(out: &RunOutput, n: usize) -> Vec<(&'static str, f64)> {
    let s = shard_stats(out, n);
    vec![("partition.shards", s.shards as f64), ("partition.halo_ratio", s.halo_ratio)]
}

fn serve_counts(r: &Replay) -> Vec<(&'static str, f64)> {
    let repairs = r.stats.repairs();
    let touched = r.stats.cumulative.count("serve/repair_touched_points");
    vec![
        ("stream.repairs", repairs as f64),
        ("stream.touched_per_repair", touched as f64 / repairs.max(1) as f64),
    ]
}

/// Verify every output of `runs` outside the timed region and check
/// that the deterministic counts repeated across repetitions.
fn verify(gate: &mut Gate, w: &Workload, inp: &Inputs, runs: &Runs, seed: u64) {
    let (p, threads) = (w.params(), nproc());
    let same_data = w.batch_n == w.ooc_n;

    // Out-of-core outputs are checked against an in-memory run on the
    // same points: with `check_exact` against the parallel family when
    // the batch shape clustered them too, otherwise for bit-identity
    // with the same configuration run on the in-memory dataset (the
    // batch shape then checks that family against Seq and Par).
    if let (Some(u), true) = (runs.batch.first(), same_data) {
        let mut v = Verifier::new(&u.v.par.clustering, &inp.batch, p);
        for r in &runs.ooc {
            v.check(gate, "out-of-core run", &r.v.out.clustering);
        }
    } else if !runs.ooc.is_empty() {
        let data = w.ooc_data(inp, seed);
        if let Some(in_memory) = ooc_unit(gate, p, &data, threads, None) {
            for r in &runs.ooc {
                if r.v.out.clustering != in_memory.out.clustering {
                    gate.fail("out-of-core run", "differs from the in-memory run");
                }
            }
        }
    }

    // Batch outputs are checked against a sharded run: its canonical
    // merge makes it bit-identical to the naive oracle, which is too
    // slow at these sizes.
    let sharded_ref = match (runs.batch.is_empty(), runs.ooc.first()) {
        (true, _) => None,
        (false, Some(r)) if same_data => Some(r.v.out.clustering.clone()),
        (false, _) => ooc_unit(gate, p, &inp.batch, threads, None).map(|r| r.out.clustering),
    };
    if let Some(reference) = &sharded_ref {
        let mut v = Verifier::new(reference, &inp.batch, p);
        for u in &runs.batch {
            v.check(gate, "sequential run", &u.v.seq.clustering);
            v.check(gate, "parallel run", &u.v.par.clustering);
        }
    }

    // Served replays: the first is verified in full. A later replay that
    // drained to the very same snapshot shares its verdict: it needs no
    // second check when the first passed and fails when it failed.
    if let Some((first, rest)) = runs.serve.split_first() {
        let first = &first.v;
        let oracle = naive_dbscan(first.last.dataset(), &p);
        let first_ok = serve::verify(first, &inp.trace, p, &oracle)
            .map_err(|e| gate.fail("served replay", &e))
            .is_ok();
        for r in rest.iter().map(|r| &r.v) {
            let same = r.last.live_ids() == first.last.live_ids()
                && r.last.dataset() == first.last.dataset()
                && r.last.clustering() == first.last.clustering();
            if same && !first_ok {
                gate.fail("served replay", "same snapshot as a failed replay");
            } else if !same {
                if let Err(e) = serve::verify(r, &inp.trace, p, &oracle) {
                    gate.fail("served replay", &e);
                }
            }
        }
    }

    // Deterministic counts must repeat exactly for one seed.
    let n = inp.store.len();
    if let Some((first, rest)) = runs.batch.split_first() {
        for u in rest {
            same_counts(gate, "sequential run", &seq_counts(&first.v.seq), &seq_counts(&u.v.seq));
        }
    }
    if let Some((first, rest)) = runs.ooc.split_first() {
        for r in rest {
            same_counts(
                gate,
                "out-of-core run",
                &ooc_counts(&first.v.out, n),
                &ooc_counts(&r.v.out, n),
            );
        }
    }
    if let Some((first, rest)) = runs.serve.split_first() {
        for r in rest {
            same_counts(gate, "served replay", &serve_counts(&first.v), &serve_counts(&r.v));
        }
    }
}

/// The fastest of a shape's repetitions, for a single-threaded wall
/// time. Such a run has a floor that interference only adds to, and on a
/// shared host whose speed flips between a fast and a slow level every
/// few seconds, the fastest of many short repetitions reads the fast
/// level whatever share of the run the slow level took.
fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// The median of a shape's repetitions, for two-threaded wall times and
/// served percentiles. These need both vCPUs fast at once, or depend on
/// where the scheduler puts the serving threads, so their fastest
/// repetition is a rare event; the median is steadier.
fn typical(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| median(xs))
}

/// The untraced run: end-to-end metrics.
fn measure(w: &Workload, args: &Args, work: &Path, gate: &mut Gate, m: &mut Metrics) {
    warm_up();
    let (s, first) = timed(|| setup(w, args.seed, work, 0));
    let Some(inp) = gate.run("set-up", || first) else { return };
    let mut runs = run_rounds(w, &inp, args, work, gate);
    runs.setup_s.push(s);
    m.put("setup_s", median(&runs.setup_s));
    // Rounds keep their outputs for the exactness check, so a later
    // round's peak includes earlier rounds' results; the smallest is the
    // peak of one round's own work over the inputs.
    m.put("peak_rss_mb", fastest(&runs.peak_mb).unwrap_or(f64::NAN));

    for (name, v) in [
        ("cluster_s", fastest(&off(&runs.batch, |u| u.seq_s))),
        ("cluster_par_s", typical(&off(&runs.batch, |u| u.par_s))),
        ("outofcore_s", typical(&off(&runs.ooc, |r| r.wall_s))),
        ("ingest_visible_ms_p50", typical(&off(&runs.serve, |r| quantile(&r.visible_ms, 0.5)))),
        ("ingest_visible_ms_p95", typical(&off(&runs.serve, |r| quantile(&r.visible_ms, 0.95)))),
        ("query_us_p50", typical(&off(&runs.serve, |r| r.query_us_p50))),
        ("query_us_p99", typical(&off(&runs.serve, |r| r.query_us_p99))),
        ("serve_ops_per_s", typical(&off(&runs.serve, |r| r.ops_applied as f64 / r.wall_s))),
    ] {
        if let Some(v) = v {
            m.put(name, v);
        }
    }
    verify(gate, w, &inp, &runs, args.seed);
}

/// How much slower `on` ran than `off` in percent: the median over
/// rounds of the ratio of the two repetitions each round made back to
/// back, so that both saw the same host.
fn pct_over(on: &[f64], off: &[f64]) -> f64 {
    let ratios: Vec<f64> = on.iter().zip(off).map(|(a, b)| a / b).collect();
    typical(&ratios).map_or(f64::NAN, |r| (r - 1.0) * 100.0)
}

/// The traced run: per-layer metrics. Per-layer numbers come from the
/// repetitions with observability off and from direct calls into each
/// crate; the enabled and traced repetitions give the overheads.
fn measure_layers(w: &Workload, args: &Args, work: &Path, gate: &mut Gate, m: &mut Metrics) {
    let threads = nproc();
    warm_up();
    let Some(inp) = gate.run("set-up", || setup(w, args.seed, work, 0)) else { return };
    m.put("data.store_write_s", inp.store_write_s);
    m.put("data.store_open_s", inp.store_open_s);

    let runs = run_rounds(w, &inp, args, work, gate);

    // The headline's wall time with observability traced versus off.
    let headline_s = |obs| match w.headline {
        Shape::Batch => under(&runs.batch, obs, |u| u.seq_s + u.par_s),
        Shape::OutOfCore => under(&runs.ooc, obs, |r| r.wall_s),
        Shape::Serve => under(&runs.serve, obs, |r| r.wall_s),
    };
    m.put("trace_overhead_pct", pct_over(&headline_s(Obs::Traced), &headline_s(Obs::Off)));
    let seq_s = |obs| under(&runs.batch, obs, |u| u.seq_s);
    m.put("obs.enabled_overhead_pct", pct_over(&seq_s(Obs::Enabled), &seq_s(Obs::Off)));

    put_batch_layers(m, w, &inp, &runs, args.seed);
    put_ooc_layers(m, gate, w, &inp, &runs);
    put_serve_layers(m, w, &inp, &runs);
    m.put("obs.registry_record_ns_t1", layers::registry_record_ns(1));
    m.put("obs.registry_record_ns_tN", layers::registry_record_ns(threads));
    verify(gate, w, &inp, &runs, args.seed);
}

/// The fastest `f` over the repetitions with observability off.
fn fastest_off<T>(reps: &[Rep<T>], f: impl Fn(&T) -> f64) -> f64 {
    fastest(&off(reps, f)).unwrap_or(f64::NAN)
}

/// The median `f` over the repetitions with observability off.
fn typical_off<T>(reps: &[Rep<T>], f: impl Fn(&T) -> f64) -> f64 {
    typical(&off(reps, f)).unwrap_or(f64::NAN)
}

fn put_batch_layers(m: &mut Metrics, w: &Workload, inp: &Inputs, runs: &Runs, seed: u64) {
    let (p, t) = (w.params(), nproc());
    let data = &inp.batch;
    m.put("geom.kernel_ns_per_eval", layers::kernel_ns_per_eval(data.dim(), seed));
    let (load_s, query_us) = layers::rtree(data, p.eps);
    m.put("rtree.bulk_load_s", load_s);
    m.put("rtree.sphere_query_us", query_us);
    let build_s = |d: &Dataset| {
        let xs: Vec<f64> = (0..SCALING_REPS).map(|_| layers::mcs_build(d, p.eps).0).collect();
        fastest(&xs).unwrap_or(f64::NAN)
    };
    let big_build_s = build_s(data);
    m.put("mcs.build_s", big_build_s);
    m.put("mcs.mc_count", layers::mcs_build(data, p.eps).1 as f64);
    m.put("mcs.par_build_s", layers::mcs_par_build(data, p.eps, t));

    let Some(first) = runs.batch.first().map(|r| &r.v.seq) else { return };
    for (name, v) in seq_counts(first) {
        m.put(name, v);
    }
    m.put("rtree.node_visits", first.counters.node_visits() as f64);
    m.put("core.queries_saved_pct", first.counters.pct_queries_saved());
    for phase in PHASES {
        m.put(
            &format!("core.seq.{phase}_s"),
            fastest_off(&runs.batch, |u| u.seq.phases.secs(phase)),
        );
        m.put(
            &format!("core.par.{phase}_s"),
            typical_off(&runs.batch, |u| u.par.phases.secs(phase)),
        );
    }
    let seq_s = fastest_off(&runs.batch, |u| u.seq_s);
    let par_s = typical_off(&runs.batch, |u| u.par_s);
    m.put("core.par_efficiency", seq_s / (t as f64 * par_s));

    // Superlinearity probe: the same generator at a quarter of the size.
    let quarter = w.generate(data.len() / 4, seed);
    let small: Vec<RunOutput> =
        (0..SCALING_REPS).filter_map(|_| Runner::new(p).run(&quarter).ok()).collect();
    if !small.is_empty() {
        for phase in PHASES {
            let big = m.get(&format!("core.seq.{phase}_s")).unwrap_or(f64::NAN);
            let xs: Vec<f64> = small.iter().map(|o| o.phases.secs(phase)).collect();
            let small_s = fastest(&xs).unwrap_or(f64::NAN);
            m.put(&format!("core.{phase}_scaling_exp"), scaling_exp(big, small_s, 4.0));
        }
    }
    m.put("mcs.build_scaling_exp", scaling_exp(big_build_s, build_s(&quarter), 4.0));
}

fn put_ooc_layers(m: &mut Metrics, gate: &mut Gate, w: &Workload, inp: &Inputs, runs: &Runs) {
    let (p, store, t) = (w.params(), &inp.store, nproc());
    let budget = store.coord_bytes() / 2;
    m.put("partition.plan_s", layers::plan_s(store, p.eps, budget, t));
    m.put("data.chunk_scan_mb_per_s", layers::chunk_scan_mb_per_s(store));

    let n = store.len();
    let Some(first) = runs.ooc.iter().find(|r| r.obs == Obs::Off).map(|r| &r.v) else { return };
    let first_stats = shard_stats(&first.out, n);
    m.put("partition.shards", first_stats.shards as f64);
    m.put("partition.halo_ratio", first_stats.halo_ratio);
    m.put("dist.edges", first_stats.edges as f64);
    m.put("dist.busy_max_s", typical_off(&runs.ooc, |r| shard_stats(&r.out, n).busy_max_s));
    m.put("dist.merge_s", typical_off(&runs.ooc, |r| shard_stats(&r.out, n).merge_s));
    m.put("dist.makespan_s", typical_off(&runs.ooc, |r| shard_stats(&r.out, n).makespan_s));
    let resident_mb = typical_off(&runs.ooc, |r| shard_stats(&r.out, n).resident_mb);
    m.put("dist.peak_resident_mb", resident_mb);
    m.put("dist.resident_over_budget", resident_mb * 1e6 / budget as f64);
    let wall = typical_off(&runs.ooc, |r| r.wall_s);
    m.put("dist.wall_s", wall);

    // One thread on the t = nproc plan's shard count, so that plan
    // granularity and parallelism can be told apart. Its output must be
    // bit-identical: the canonical merge does not depend on the plan.
    if let Some(r) = ooc_unit(gate, p, store, 1, Some(first_stats.shards)) {
        if r.out.clustering != first.out.clustering {
            gate.fail("t1 out-of-core run", "differs from the t=nproc run");
        }
        m.put("dist.t1_same_plan_s", r.wall_s);
        m.put("dist.t1_shards", shard_stats(&r.out, n).shards as f64);
        m.put("dist.wall_speedup", r.wall_s / wall);
    }
}

fn put_serve_layers(m: &mut Metrics, w: &Workload, inp: &Inputs, runs: &Runs) {
    let times = serve::direct(w.params(), &inp.serve, &inp.trace);
    m.put("stream.insert_us", times.insert_us);
    m.put("stream.remove_us", times.remove_us);
    m.put("stream.snapshot_ms", times.snapshot_ms);
    let Some(first) = runs.serve.first().map(|r| &r.v) else { return };
    for (name, v) in serve_counts(first) {
        m.put(name, v);
    }
    let publish = first.stats.cumulative.hist("serve/publish_us").map_or(0, |h| h.percentile(0.5));
    m.put("stream.publish_us_p50", publish as f64);
    m.put("stream.fallback_rebuilds", first.stats.fallback_rebuilds() as f64);
}

/// The result line. A metric that could not be measured (its operation
/// failed) is printed as 0 and makes the run incorrect.
fn render(gate: &Gate, m: &Metrics, wanted: &[(&str, &str)]) -> String {
    let mut correct = gate.failed == 0;
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let v = match m.get(name) {
            Some(v) if v.is_finite() => v,
            v => {
                eprintln!("metric {name} was not measured: {v:?}");
                correct = false;
                0.0
            }
        };
        fields.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        fields.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let work = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut gate = Gate::default();
    let mut m = Metrics::default();
    let wanted = if args.trace {
        measure_layers(w, &args, &work, &mut gate, &mut m);
        m.put("failed_frac", gate.failed_frac());
        PER_LAYER
    } else {
        measure(w, &args, &work, &mut gate, &mut m);
        END_TO_END
    };
    let _ = std::fs::remove_dir(work.join("postmortem"));
    let _ = std::fs::remove_dir(&work);
    println!("{}", render(&gate, &m, wanted));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program knows, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let js = obs::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let entries = |key: &str| js.get(key).and_then(|a| a.as_array()).unwrap().to_vec();
        let field = |e: &obs::Json, k: &str| e.get(k).and_then(|v| v.as_str()).unwrap().to_string();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> =
                entries(key).iter().map(|e| (field(e, "name"), field(e, "unit"))).collect();
            let ours: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
        }
        let names: Vec<String> = entries("workloads").iter().map(|e| field(e, "name")).collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    }
}
