//! Validate the committed `BENCH_PR10.json` trajectory against the schema
//! documented in `docs/BENCH_SCHEMA.md`.
//!
//! The CI perf-smoke job points `BENCH_SCHEMA_FILE` at a freshly emitted
//! file, so the same assertions guard both the committed artifact and
//! every regeneration — a schema change without a doc/test update fails
//! here, and an exactness drift fails inside `emit_bench` itself (it
//! exits non-zero and never writes the file). A fresh file is also
//! compared with the committed one on the observables that do not
//! depend on its size ([`smoke_violations`]).

use obs::Json;
use std::path::{Path, PathBuf};

/// The algorithms every workload must cover: sequential μDBSCAN, the
/// parallel variant with 1 and 4 threads, μDBSCAN-D with 1 and 4 ranks,
/// (schema v4) the fault-injected 4-rank recovery arm, (schema v6) the
/// served-traffic arm through the concurrent serving layer, and
/// (schema v7) the delete-heavy twin arms — the micro-cluster-local
/// repair path vs the budget-0 rebuild baseline.
const REQUIRED_ALGORITHMS: [&str; 9] = [
    "mudbscan_seq",
    "par_mudbscan_t1",
    "par_mudbscan_t4",
    "mudbscan_d_p1",
    "mudbscan_d_p4",
    "mudbscan_d_p4_faults",
    "serve_traffic",
    "serve_delete_heavy",
    "serve_delete_heavy_rebuild",
];

/// Below this per-workload size the construction wall time is
/// dominated by fixed costs (thread spawn) and the t1→t4 speedup
/// assertion would be noise, so it is only enforced at or above it.
const MAKESPAN_GATE_MIN_N: f64 = 4000.0;

/// The acceptance bar for the parallel MC build: the t4 construction
/// wall time must beat t1 by at least this factor.
const MAKESPAN_MIN_SPEEDUP: f64 = 1.5;

/// How many points a fresh file's `pct_queries_saved` may sit below the
/// committed run's. Query savings track dataset density, so the
/// n = 1500 smoke emission sits ~20 points below the committed n = 4000
/// file on 3DSRN; 25 points absorbs that shift and still catches a
/// broken wndq path (savings collapse toward zero).
const PCT_SAVED_TOL: f64 = 25.0;

fn committed_path() -> PathBuf {
    // crates/bench -> repository root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR10.json")
}

fn trajectory_path() -> PathBuf {
    std::env::var("BENCH_SCHEMA_FILE").map_or_else(|_| committed_path(), PathBuf::from)
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()))
}

/// The acceptance budget for the live-telemetry arm of the overhead
/// probe: with the registry polled, the Prometheus exposition rendered
/// and a flight recorder noting while the run computes, the median
/// slowdown must stay under this percentage. Only enforced at bench
/// size — a smoke-sized run finishes in microseconds and the racing
/// poller's fixed costs swamp the quantity being budgeted.
const LIVE_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Below this sharded-arm size (its own scale knob, independent of
/// `points_per_workload`) the makespan speedup and the residency budget
/// are fixed-cost noise, so those gates only engage above it.
const SHARDED_GATE_MIN_N: f64 = 1_000_000.0;

/// The acceptance bar for the out-of-core executor: the t4 makespan
/// must beat t1 by at least this factor at full sharded size.
const SHARDED_MIN_SPEEDUP: f64 = 1.5;

fn get_f64(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing number {key:?}"))
}

#[test]
fn committed_trajectory_matches_schema() {
    let root = load(&trajectory_path());

    assert_eq!(get_f64(&root, "schema_version"), 9.0, "schema_version must be 9");
    assert_eq!(get_f64(&root, "seed"), 2019.0, "pinned seed");
    let points_per_workload = get_f64(&root, "points_per_workload");
    assert!(points_per_workload >= 100.0);

    let workloads = root.get("workloads").and_then(Json::as_array).expect("workloads array");
    assert!(!workloads.is_empty(), "at least one workload");

    for w in workloads {
        let name = w.get("dataset").and_then(Json::as_str).expect("dataset name");
        for key in ["n", "dim", "eps", "min_pts"] {
            assert!(get_f64(w, key) > 0.0, "{name}: {key} must be positive");
        }
        let reference = w.get("reference").expect("reference block");
        assert!(get_f64(reference, "clusters") >= 1.0, "{name}: oracle found no clusters");

        let runs = w.get("runs").and_then(Json::as_array).expect("runs array");
        let labels: Vec<&str> =
            runs.iter().map(|r| r.get("algorithm").and_then(Json::as_str).unwrap()).collect();
        for required in REQUIRED_ALGORITHMS {
            assert!(labels.contains(&required), "{name}: missing algorithm {required}");
        }

        let mut makespans: Vec<(String, f64)> = Vec::new();
        for r in runs {
            let label = r.get("algorithm").and_then(Json::as_str).unwrap();
            let ctx = format!("{name}/{label}");
            assert_eq!(
                r.get("exact").and_then(Json::as_bool),
                Some(true),
                "{ctx}: every committed run must be oracle-exact"
            );
            assert!(get_f64(r, "wall_secs") > 0.0, "{ctx}: wall_secs");
            let phases = r.get("phases").and_then(Json::as_object).expect("phases object");
            assert!(!phases.is_empty(), "{ctx}: per-phase times required");
            let pct = get_f64(r, "pct_queries_saved");
            assert!((0.0..=100.0).contains(&pct), "{ctx}: pct_queries_saved out of range");
            let counters = r.get("counters").expect("counters block");
            for key in ["range_queries", "queries_saved", "dist_computations", "node_visits"] {
                assert!(
                    counters.get(key).and_then(Json::as_f64).is_some(),
                    "{ctx}: counter {key} missing"
                );
            }
            // Since the from_raw fix, node visits survive every snapshot
            // path (sequential, shared, distributed aggregation).
            assert!(get_f64(counters, "node_visits") > 0.0, "{ctx}: node_visits must be tracked");
            // The serving arms (schema v6/v7) are structurally their own
            // shape: no batch R-tree query histograms or spans — their
            // histograms are wall-clock per-operation latencies — plus
            // the batch-twin exactness bit, the epoch count, and the
            // trace-determined ops block with the repair census.
            if label.starts_with("serve") {
                assert_eq!(
                    r.get("final_matches_batch").and_then(Json::as_bool),
                    Some(true),
                    "{ctx}: drained snapshot must match its batch twin"
                );
                assert!(get_f64(r, "epochs") >= 3.0, "{ctx}: the trace must span several epochs");
                assert!(get_f64(r, "live_points") > 0.0, "{ctx}: live points");
                let ops = r.get("ops").expect("ops block");
                for key in ["inserts", "deletes"] {
                    assert!(get_f64(ops, key) > 0.0, "{ctx}: ops/{key} must be positive");
                }
                // Schema v7: the repair census exists on every serving
                // arm. Repair-enabled arms must actually repair; the
                // rebuild baseline must actually fall back.
                for key in ["repairs", "repair_touched_points", "fallback_rebuilds"] {
                    assert!(
                        ops.get(key).and_then(Json::as_f64).is_some(),
                        "{ctx}: ops/{key} missing (schema v7 repair census)"
                    );
                }
                if label == "serve_delete_heavy_rebuild" {
                    assert!(
                        get_f64(ops, "fallback_rebuilds") >= 1.0,
                        "{ctx}: the budget-0 baseline must rebuild on structural deletes"
                    );
                    assert!(get_f64(ops, "rebuilds") >= 1.0, "{ctx}: rebuild count");
                } else {
                    assert!(
                        get_f64(ops, "repairs") >= 1.0,
                        "{ctx}: deletions must go through the local repair path"
                    );
                }
                if label == "serve_delete_heavy" {
                    assert!(
                        get_f64(ops, "repair_touched_points") >= 1.0,
                        "{ctx}: structural repairs must touch points"
                    );
                }
                // The served-traffic arm additionally races readers and
                // exercises TTL expiry.
                let mut required_hists = vec!["serve/ingest_batch_us", "serve/publish_us"];
                if label == "serve_traffic" {
                    for key in ["expiries", "reader_queries", "reader_memberships"] {
                        assert!(get_f64(ops, key) > 0.0, "{ctx}: ops/{key} must be positive");
                    }
                    assert!(get_f64(ops, "reader_threads") >= 2.0, "{ctx}: concurrent readers");
                    required_hists.extend(["serve/query_us", "serve/membership_us"]);
                }
                // The live-set accounting must close: every insert is
                // still live, expired, or explicitly deleted.
                assert_eq!(
                    get_f64(r, "live_points"),
                    get_f64(ops, "inserts") - get_f64(ops, "expiries") - get_f64(ops, "deletes"),
                    "{ctx}: live-set accounting must close"
                );
                let hists = r.get("histograms").and_then(Json::as_object).expect("histograms");
                for key in required_hists {
                    let h = hists
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v)
                        .unwrap_or_else(|| panic!("{ctx}: {key} histogram missing"));
                    assert!(get_f64(h, "count") > 0.0, "{ctx}: empty {key} histogram");
                    let (p50, p99, max) = (get_f64(h, "p50"), get_f64(h, "p99"), get_f64(h, "max"));
                    assert!(
                        p50 <= p99 && p99 <= max,
                        "{ctx}: {key} percentiles must be monotone (p50 {p50} p99 {p99} max {max})"
                    );
                }
                // Schema v8: the live-telemetry contract. The emitter
                // polls `ServeHandle::stats` while the trace replays and
                // is fail-closed on the window algebra, so a committed
                // file must carry the block with `window_sums_match:
                // true` — and the summarised window totals must agree
                // with the cumulative registry on every serve counter.
                let lt = r.get("live_telemetry").expect("live_telemetry block (schema v8)");
                assert!(get_f64(lt, "polls") >= 1.0, "{ctx}: stats must be polled at least once");
                assert_eq!(
                    lt.get("window_sums_match").and_then(Json::as_bool),
                    Some(true),
                    "{ctx}: merged window deltas must sum to the cumulative counters"
                );
                let windows = lt.get("windows").and_then(Json::as_object).expect("windows totals");
                let cumulative =
                    lt.get("cumulative").and_then(Json::as_object).expect("cumulative totals");
                assert!(!windows.is_empty(), "{ctx}: window totals must be summarised");
                for (key, v) in windows {
                    let c = cumulative
                        .iter()
                        .find(|(k, _)| k == key)
                        .and_then(|(_, c)| c.as_f64())
                        .unwrap_or_else(|| panic!("{ctx}: cumulative total {key} missing"));
                    assert_eq!(
                        v.as_f64(),
                        Some(c),
                        "{ctx}: window total {key} must equal its cumulative counter"
                    );
                }
                let win_epochs = windows
                    .iter()
                    .find(|(k, _)| k == "epochs")
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(0.0);
                assert!(
                    win_epochs >= 3.0,
                    "{ctx}: the registry must have counted the trace's epochs"
                );
                // The served-traffic arm additionally carries the
                // k-distance sample summary (k = the workload's MinPts).
                if label == "serve_traffic" {
                    let kd = lt.get("kdist").expect("kdist summary on serve_traffic");
                    assert_eq!(get_f64(kd, "k"), get_f64(w, "min_pts"), "{ctx}: k is MinPts");
                    assert!(get_f64(kd, "samples") > 0.0, "{ctx}: kdist sample size");
                    let (p50, p90, p99) =
                        (get_f64(kd, "p50"), get_f64(kd, "p90"), get_f64(kd, "p99"));
                    assert!(
                        0.0 < p50 && p50 <= p90 && p90 <= p99,
                        "{ctx}: kdist percentiles must be monotone (p50 {p50} p90 {p90} p99 {p99})"
                    );
                }
                continue;
            }
            let obs = r.get("obs").expect("obs report");
            let spans = obs.get("spans").and_then(Json::as_object).expect("obs spans");
            assert!(!spans.is_empty(), "{ctx}: obs spans must be recorded");
            // Schema v3: per-run histogram percentile summaries. Every
            // run performs range queries, so query/node_visits is always
            // present and its percentiles are ordered.
            let hists = r.get("histograms").and_then(Json::as_object).expect("histograms block");
            assert!(!hists.is_empty(), "{ctx}: histograms block must be non-empty");
            let qnv = hists
                .iter()
                .find(|(k, _)| k == "query/node_visits")
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("{ctx}: query/node_visits histogram missing"));
            assert!(get_f64(qnv, "count") > 0.0, "{ctx}: empty query/node_visits histogram");
            let (p50, p95, p99, max) = (
                get_f64(qnv, "p50"),
                get_f64(qnv, "p95"),
                get_f64(qnv, "p99"),
                get_f64(qnv, "max"),
            );
            assert!(
                p50 <= p95 && p95 <= p99 && p99 <= max,
                "{ctx}: percentiles must be monotone (p50 {p50} p95 {p95} p99 {p99} max {max})"
            );
            // Schema v5: the leaf kernels charge every exact point–point
            // distance evaluation to query/leaf_evals.
            assert!(
                hists.iter().any(|(k, _)| k == "query/leaf_evals"),
                "{ctx}: query/leaf_evals histogram missing (schema v5)"
            );
            // Shared-memory parallel runs carry the parallel-build
            // critical path (schema v2).
            if label.starts_with("par_mudbscan") {
                let m = get_f64(r, "tree_construction_makespan");
                assert!(m > 0.0, "{ctx}: tree_construction_makespan must be positive");
                makespans.push((label.to_string(), m));
            }
            // Distributed runs must carry the virtual clock and the BSP
            // compute/comm split.
            if label.starts_with("mudbscan_d") {
                assert!(get_f64(r, "virtual_secs") > 0.0, "{ctx}: virtual_secs");
                let values = obs.get("values").and_then(Json::as_object).expect("obs values");
                assert!(
                    values.iter().any(|(k, _)| k.ends_with("/compute_virtual_secs")),
                    "{ctx}: BSP compute split missing"
                );
                assert!(
                    values.iter().any(|(k, _)| k.ends_with("/comm_virtual_secs")),
                    "{ctx}: BSP comm split missing"
                );
                // Schema v3: the per-rank BSP timeline summary.
                let tl = r.get("bsp_timeline").expect("bsp_timeline block");
                assert!(get_f64(tl, "supersteps") > 0.0, "{ctx}: supersteps");
                let ranks = tl.get("ranks").and_then(Json::as_array).expect("ranks array");
                let nranks: f64 = label
                    .strip_prefix("mudbscan_d_p")
                    .unwrap()
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap();
                assert_eq!(ranks.len() as f64, nranks, "{ctx}: one timeline entry per rank");
                for rank in ranks {
                    assert!(
                        get_f64(rank, "compute_virtual_secs") > 0.0,
                        "{ctx}: rank compute time"
                    );
                    for key in ["rank", "comm_virtual_secs", "bytes_sent", "bytes_received"] {
                        assert!(
                            rank.get(key).and_then(Json::as_f64).is_some(),
                            "{ctx}: rank field {key} missing"
                        );
                    }
                }
                // Distributed runs also carry the per-superstep
                // comm-volume histogram; halo queries only happen with
                // more than one rank.
                let mut required = vec!["bsp/comm_bytes_per_superstep"];
                if nranks > 1.0 {
                    required.push("halo/node_visits");
                }
                for key in required {
                    assert!(hists.iter().any(|(k, _)| k == key), "{ctx}: histogram {key} missing");
                }
            }
            // Schema v4: the faulted arm carries the fault block — the
            // plan's replay signature plus the recovery-overhead costs —
            // and must have recovered exactly (the emitter is fail-closed
            // on recovery drift, so a committed file can only say true).
            if label == "mudbscan_d_p4_faults" {
                let fault = r.get("fault").expect("fault block on the faulted arm");
                assert_eq!(get_f64(fault, "plan_seed"), 2019.0, "{ctx}: pinned plan seed");
                assert!(get_f64(fault, "crashes") >= 1.0, "{ctx}: the plan crashes a rank");
                assert_eq!(
                    get_f64(fault, "recoveries"),
                    get_f64(fault, "crashes"),
                    "{ctx}: every crash must be recovered"
                );
                assert!(get_f64(fault, "drops_injected") >= 1.0, "{ctx}: drops injected");
                assert!(get_f64(fault, "retries") >= 1.0, "{ctx}: retries performed");
                assert_eq!(
                    get_f64(fault, "messages_lost"),
                    0.0,
                    "{ctx}: the default retry budget redelivers everything"
                );
                assert_eq!(
                    get_f64(fault, "duplicates_discarded"),
                    get_f64(fault, "duplicates_injected"),
                    "{ctx}: every duplicate must be discarded"
                );
                assert!(get_f64(fault, "reorders_injected") >= 1.0, "{ctx}: reorders injected");
                assert!(get_f64(fault, "straggled_steps") >= 1.0, "{ctx}: straggled steps");
                assert!(get_f64(fault, "recovery_comm_bytes") > 0.0, "{ctx}: recovery bytes");
                assert!(get_f64(fault, "retry_delay_virtual_secs") > 0.0, "{ctx}: retry delay");
                assert!(
                    get_f64(fault, "recovery_virtual_secs") > 0.0,
                    "{ctx}: recovery phase time"
                );
                assert!(
                    fault.get("overhead_vs_fault_free_pct").and_then(Json::as_f64).is_some(),
                    "{ctx}: overhead_vs_fault_free_pct missing"
                );
                assert_eq!(
                    fault.get("clusters_match_fault_free").and_then(Json::as_bool),
                    Some(true),
                    "{ctx}: recovery must reproduce the fault-free clustering"
                );
            }
        }

        // Schema v7 acceptance gate on the committed file: at bench
        // size, the repair arm's per-batch ingest latency p99 beats the
        // budget-0 rebuild baseline by ≥ 2×. (Skipped for
        // smoke-sized runs, where a rebuild costs microseconds and the
        // ratio is noise.)
        if points_per_workload >= MAKESPAN_GATE_MIN_N {
            let ingest_p99 = |l: &str| {
                let r = runs
                    .iter()
                    .find(|r| r.get("algorithm").and_then(Json::as_str) == Some(l))
                    .unwrap_or_else(|| panic!("{name}: missing {l} run"));
                let hists = r.get("histograms").and_then(Json::as_object).expect("histograms");
                hists
                    .iter()
                    .find(|(k, _)| k == "serve/ingest_batch_us")
                    .map(|(_, h)| get_f64(h, "p99"))
                    .unwrap_or_else(|| panic!("{name}/{l}: ingest_batch_us histogram missing"))
            };
            let repair = ingest_p99("serve_delete_heavy");
            let rebuild = ingest_p99("serve_delete_heavy_rebuild");
            assert!(
                repair * 2.0 <= rebuild,
                "{name}: delete-heavy ingest p99 speedup below 2x \
                 (repair {repair:.0}us vs rebuild {rebuild:.0}us = {:.2}x)",
                rebuild / repair.max(1.0)
            );
        }

        // The parallel build must actually scale: at bench-sized
        // workloads, the t4 construction wall time beats t1 by the
        // acceptance factor. (Skipped for smoke-sized runs where fixed
        // costs dominate.)
        if points_per_workload >= MAKESPAN_GATE_MIN_N {
            let find = |l: &str| {
                makespans
                    .iter()
                    .find(|(label, _)| label == l)
                    .unwrap_or_else(|| panic!("{name}: no makespan for {l}"))
                    .1
            };
            let t1 = find("par_mudbscan_t1");
            let t4 = find("par_mudbscan_t4");
            assert!(
                t4 * MAKESPAN_MIN_SPEEDUP < t1,
                "{name}: tree_construction makespan speedup below {MAKESPAN_MIN_SPEEDUP}x \
                 (t1 {t1:.6}s vs t4 {t4:.6}s = {:.2}x)",
                t1 / t4
            );
        }
    }

    // Schema v9: the out-of-core sharded arm. Exactness bits are
    // fail-closed at emission, so a committed file can only say true;
    // the scaling and residency gates engage at full sharded size.
    let sharded = root.get("sharded_scale").expect("sharded_scale block (schema v9)");
    let sharded_n = get_f64(sharded, "n");
    assert!(sharded_n > 0.0, "sharded_scale: n");
    let raw = get_f64(sharded, "raw_bytes");
    let budget = get_f64(sharded, "memory_budget_bytes");
    assert!(
        0.0 < budget && budget < raw,
        "sharded_scale: the memory budget ({budget}B) must be smaller than the raw dataset \
         ({raw}B) — otherwise the arm proves nothing"
    );
    assert!(get_f64(sharded, "store_file_bytes") > 0.0, "sharded_scale: store bytes");
    assert_eq!(
        sharded.get("identical_t1_t4").and_then(Json::as_bool),
        Some(true),
        "sharded_scale: t1 and t4 must be bit-identical"
    );
    let overlap = sharded.get("oracle_overlap").expect("oracle_overlap block");
    assert!(get_f64(overlap, "n") > 0.0, "sharded_scale: overlap size");
    assert_eq!(
        overlap.get("matches_oracle").and_then(Json::as_bool),
        Some(true),
        "sharded_scale: the overlap run must match the naive oracle"
    );
    let arms = sharded.get("arms").and_then(Json::as_array).expect("sharded arms");
    let mut makespans = std::collections::BTreeMap::new();
    for arm in arms {
        let label = arm.get("label").and_then(Json::as_str).expect("arm label");
        let ctx = format!("sharded_scale/{label}");
        assert_eq!(
            arm.get("matches_in_memory").and_then(Json::as_bool),
            Some(true),
            "{ctx}: must be paper-exact against the in-memory run"
        );
        for key in ["threads", "n_shards", "makespan_secs", "wall_secs", "peak_resident_bytes"] {
            assert!(get_f64(arm, key) > 0.0, "{ctx}: {key} must be positive");
        }
        // Border ties (order-defined in DBSCAN itself) are the only
        // permitted label difference vs the in-memory run; the count is
        // recorded and must be a tiny fraction of the dataset.
        let ties = get_f64(arm, "border_ties");
        assert!(
            ties >= 0.0 && ties <= sharded_n / 1000.0,
            "{ctx}: border_ties {ties} out of range for n={sharded_n}"
        );
        assert!(get_f64(arm, "n_shards") >= get_f64(sharded, "shards_requested"), "{ctx}: shards");
        makespans.insert(label.to_string(), get_f64(arm, "makespan_secs"));
    }
    for required in ["sharded_t1", "sharded_t4"] {
        assert!(makespans.contains_key(required), "sharded_scale: missing arm {required}");
    }
    if sharded_n >= SHARDED_GATE_MIN_N {
        assert_eq!(
            sharded.get("budget_respected").and_then(Json::as_bool),
            Some(true),
            "sharded_scale: peak resident bytes exceeded the memory budget"
        );
        let speedup = get_f64(sharded, "speedup_t1_t4");
        assert!(
            speedup >= SHARDED_MIN_SPEEDUP,
            "sharded_scale: t1→t4 makespan speedup {speedup:.2}x below {SHARDED_MIN_SPEEDUP}x \
             (t1 {:.3}s vs t4 {:.3}s)",
            makespans["sharded_t1"],
            makespans["sharded_t4"]
        );
    }

    // Overhead block: the measured numbers EXPERIMENTS.md quotes.
    let overhead = root.get("overhead").expect("overhead block");
    assert!(get_f64(overhead, "reps") >= 3.0);
    assert!(get_f64(overhead, "median_disabled_secs") > 0.0);
    assert!(get_f64(overhead, "median_enabled_secs") > 0.0);
    assert!(get_f64(overhead, "median_traced_secs") > 0.0, "schema v3: traced arm");
    assert!(overhead.get("overhead_pct").and_then(Json::as_f64).is_some(), "overhead_pct missing");
    assert!(
        overhead.get("tracing_overhead_pct").and_then(Json::as_f64).is_some(),
        "tracing_overhead_pct missing"
    );
    // Schema v8: the live-telemetry arm, budgeted at bench size.
    assert!(get_f64(overhead, "median_live_secs") > 0.0, "schema v8: live-polled arm");
    let live_pct = overhead
        .get("live_overhead_pct")
        .and_then(Json::as_f64)
        .expect("live_overhead_pct missing");
    if get_f64(&root, "points_per_workload") >= MAKESPAN_GATE_MIN_N {
        assert!(
            live_pct < LIVE_OVERHEAD_BUDGET_PCT,
            "live-telemetry overhead {live_pct:.2}% exceeds the {LIVE_OVERHEAD_BUDGET_PCT}% budget"
        );
    }
}

/// The elements of the array under `key` (none when absent).
fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_array).unwrap_or(&[])
}

/// The element of `list` whose string field `key` equals `name`.
fn find<'a>(list: &'a [Json], key: &str, name: &str) -> Option<&'a Json> {
    list.iter().find(|x| x.get(key).and_then(Json::as_str) == Some(name))
}

/// Compare a fresh emission (`fresh`, usually at a smaller n) with the
/// committed trajectory on the observables that do not depend on n:
/// every committed workload (`dataset`), run (`algorithm`) and sharded
/// arm (`label`) is present, and no run's `pct_queries_saved` sits more
/// than [`PCT_SAVED_TOL`] points below the committed run's. Returns one
/// line per violation. The exactness bits need no comparison: the
/// emitter exits before writing a file in which one would be false, and
/// `committed_trajectory_matches_schema` asserts each one on either file.
fn smoke_violations(committed: &Json, fresh: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for cw in items(committed, "workloads") {
        let name = cw.get("dataset").and_then(Json::as_str).unwrap_or("?");
        let Some(fw) = find(items(fresh, "workloads"), "dataset", name) else {
            out.push(format!("{name}: workload missing"));
            continue;
        };
        for cr in items(cw, "runs") {
            let algo = cr.get("algorithm").and_then(Json::as_str).unwrap_or("?");
            let Some(fr) = find(items(fw, "runs"), "algorithm", algo) else {
                out.push(format!("{name}/{algo}: run missing"));
                continue;
            };
            let pct = |r: &Json| r.get("pct_queries_saved").and_then(Json::as_f64);
            if let (Some(c), Some(f)) = (pct(cr), pct(fr)) {
                if f < c - PCT_SAVED_TOL {
                    out.push(format!(
                        "{name}/{algo}: pct_queries_saved {f:.2} is {:.2} points below the \
                         committed {c:.2} (tolerance {PCT_SAVED_TOL})",
                        c - f
                    ));
                }
            }
        }
    }
    fn arms(root: &Json) -> &[Json] {
        root.get("sharded_scale").map_or(&[], |s| items(s, "arms"))
    }
    for arm in arms(committed) {
        let label = arm.get("label").and_then(Json::as_str).unwrap_or("?");
        if find(arms(fresh), "label", label).is_none() {
            out.push(format!("sharded_scale/{label}: arm missing"));
        }
    }
    out
}

#[test]
fn fresh_trajectory_keeps_the_committed_runs_and_savings() {
    let (path, committed) = (trajectory_path(), committed_path());
    let same = |p: &Path| std::fs::canonicalize(p).ok();
    if same(&path) == same(&committed) {
        return; // nothing fresh to compare
    }
    let violations = smoke_violations(&load(&committed), &load(&path));
    assert!(
        violations.is_empty(),
        "{} against the committed {}:\n{}",
        path.display(),
        committed.display(),
        violations.join("\n")
    );
}

/// Doctored copies of the committed file for the comparison's own tests.
mod smoke_comparison {
    use super::*;

    fn committed() -> Json {
        load(&committed_path())
    }

    /// The array under `key` of an object, mutably.
    fn array_mut<'a>(v: &'a mut Json, key: &str) -> &'a mut Vec<Json> {
        let Json::Obj(pairs) = v else { panic!("not an object") };
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, Json::Arr(a))) => a,
            _ => panic!("no array {key:?}"),
        }
    }

    #[test]
    fn the_committed_file_passes_against_itself() {
        let c = committed();
        assert_eq!(smoke_violations(&c, &c), Vec::<String>::new());
    }

    #[test]
    fn a_missing_workload_is_reported() {
        let c = committed();
        let mut fresh = c.clone();
        array_mut(&mut fresh, "workloads").remove(0);
        let v = smoke_violations(&c, &fresh);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].ends_with("workload missing"), "{v:?}");
    }

    #[test]
    fn a_missing_run_is_reported() {
        let c = committed();
        let mut fresh = c.clone();
        array_mut(&mut array_mut(&mut fresh, "workloads")[1], "runs").remove(0);
        let v = smoke_violations(&c, &fresh);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].ends_with("run missing"), "{v:?}");
    }

    #[test]
    fn a_missing_sharded_arm_is_reported() {
        let c = committed();
        let mut fresh = c.clone();
        let Json::Obj(pairs) = &mut fresh else { panic!("not an object") };
        let sharded = &mut pairs.iter_mut().find(|(k, _)| k == "sharded_scale").unwrap().1;
        array_mut(sharded, "arms").pop();
        let v = smoke_violations(&c, &fresh);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].ends_with("arm missing"), "{v:?}");
    }

    #[test]
    fn savings_may_fall_by_the_tolerance_but_not_one_point_more() {
        let c = committed();
        let lowered = |drop: f64| {
            let mut fresh = c.clone();
            let run = &mut array_mut(&mut array_mut(&mut fresh, "workloads")[0], "runs")[0];
            let pct = run.get("pct_queries_saved").and_then(Json::as_f64).unwrap();
            run.set("pct_queries_saved", Json::Num(pct - drop));
            smoke_violations(&c, &fresh)
        };
        assert_eq!(lowered(PCT_SAVED_TOL), Vec::<String>::new());
        let v = lowered(PCT_SAVED_TOL + 1.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("pct_queries_saved"), "{v:?}");
    }
}
