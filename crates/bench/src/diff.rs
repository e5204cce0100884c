//! Perf-regression diffing over two `BENCH_*.json` trajectory files.
//!
//! The trajectory's stability contract (docs/BENCH_SCHEMA.md) is what
//! makes this gate possible: at a fixed `points_per_workload` everything
//! except timings is deterministic, so counters, cluster shapes and
//! histogram percentiles compare exactly, while timing metrics get a
//! relative tolerance. The one exception is the multi-threaded parallel
//! arms (`par_mudbscan_t{N}`, N ≥ 2): with dynamic wndq promotions the
//! *set* of executed queries depends on thread interleaving (see
//! docs/OBSERVABILITY.md), so their query-work counters and histograms
//! are only reproducible within a band — [`DiffConfig::interleaved_rel`]
//! — while their clustering shape still compares exactly. The `bench_diff` binary wraps [`diff`] and exits
//! non-zero when any [`Severity::Regression`] finding survives, which is
//! how CI turns the committed trajectory into a perf gate.
//!
//! Two modes:
//!
//! * **same-scale** (default) — both files must have the same
//!   `points_per_workload`; every metric is compared.
//! * **scale-free** (`DiffConfig::scale_free`) — the candidate may have a
//!   different `n` (the CI smoke job emits a small instance against the
//!   committed full-size one); only scale-insensitive observables are
//!   compared: run presence, oracle exactness (including the serving
//!   arm's `final_matches_batch` bit), and `pct_queries_saved` within a
//!   loose absolute tolerance.

use obs::Json;

/// Per-metric tolerances. All defaults are deliberately loose enough for
/// shared CI runners; tighten locally when hunting a specific regression.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative slowdown allowed on timing metrics (`wall_secs`,
    /// `virtual_secs`, `tree_construction_makespan`, per-phase seconds):
    /// `candidate > baseline * (1 + time_rel)` is a regression. Timings
    /// only regress by getting *slower* — speedups are reported as
    /// improvements.
    pub time_rel: f64,
    /// Relative drift allowed on deterministic work metrics (counters,
    /// cluster/noise shape, histogram percentiles). The stability
    /// contract says these are bit-stable at fixed `n`, so the default
    /// is 0 — any drift is a behaviour change that must be explained.
    pub counter_rel: f64,
    /// Relative drift allowed on the query-work metrics (counters and
    /// histogram summaries) of thread-interleaved runs
    /// (`par_mudbscan_t{N}` with N ≥ 2). Dynamic wndq promotions make
    /// the set of executed queries interleaving-dependent at t ≥ 2, so
    /// zero tolerance would turn scheduler noise into gate failures;
    /// cluster shapes and exactness still compare exactly. Effective
    /// tolerance is `max(interleaved_rel, counter_rel)`.
    pub interleaved_rel: f64,
    /// Absolute percentage-point drop allowed on `pct_queries_saved`
    /// (higher is better; the paper's headline observable).
    pub pct_saved_abs: f64,
    /// Absolute percentage-point increase allowed on the instrumentation
    /// `overhead_pct`.
    pub overhead_abs: f64,
    /// Compare across different `points_per_workload` values, restricting
    /// the comparison to scale-insensitive observables.
    pub scale_free: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            time_rel: 0.5,
            counter_rel: 0.0,
            interleaved_rel: 0.25,
            pct_saved_abs: 5.0,
            overhead_abs: 5.0,
            scale_free: false,
        }
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The candidate is worse than the baseline beyond tolerance — the
    /// gate fails.
    Regression,
    /// The candidate is measurably better (informational).
    Improvement,
    /// Structural note (schema bump, new run, skipped comparison).
    Note,
}

/// One compared metric that deviated (or could not be compared).
#[derive(Debug, Clone)]
pub struct Finding {
    /// `workload/algorithm` (or a structural location).
    pub context: String,
    /// Metric name, e.g. `wall_secs` or `counters/node_visits`.
    pub metric: String,
    /// Baseline value (`NaN` when absent).
    pub baseline: f64,
    /// Candidate value (`NaN` when absent).
    pub candidate: f64,
    /// Classification.
    pub severity: Severity,
    /// Human-readable explanation.
    pub detail: String,
}

/// The full comparison result.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// All findings, in comparison order.
    pub findings: Vec<Finding>,
    /// Metrics compared (including the ones that matched).
    pub compared: usize,
}

impl DiffReport {
    /// True when at least one regression was found.
    pub fn has_regressions(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Regression)
    }

    /// The regression findings only.
    pub fn regressions(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Regression).collect()
    }

    /// Render a terminal summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Regression => "REGRESSION",
                Severity::Improvement => "improvement",
                Severity::Note => "note",
            };
            out.push_str(&format!(
                "{tag:>11}  {} :: {} — {} (baseline {}, candidate {})\n",
                f.context,
                f.metric,
                f.detail,
                fmt_val(f.baseline),
                fmt_val(f.candidate),
            ));
        }
        out.push_str(&format!(
            "{} metrics compared, {} regressions, {} improvements\n",
            self.compared,
            self.findings.iter().filter(|f| f.severity == Severity::Regression).count(),
            self.findings.iter().filter(|f| f.severity == Severity::Improvement).count(),
        ));
        out
    }
}

fn fmt_val(v: f64) -> String {
    if v.is_nan() {
        "absent".to_string()
    } else if v == v.trunc() && v.abs() < 9e15 {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

struct Differ<'a> {
    cfg: &'a DiffConfig,
    report: DiffReport,
}

impl Differ<'_> {
    fn push(
        &mut self,
        ctx: &str,
        metric: &str,
        base: f64,
        cand: f64,
        sev: Severity,
        detail: String,
    ) {
        self.report.findings.push(Finding {
            context: ctx.to_string(),
            metric: metric.to_string(),
            baseline: base,
            candidate: cand,
            severity: sev,
            detail,
        });
    }

    /// A "lower is better" timing metric with relative tolerance.
    fn time_metric(&mut self, ctx: &str, metric: &str, base: f64, cand: f64) {
        self.report.compared += 1;
        if base <= 0.0 {
            return; // nothing meaningful to compare against
        }
        let ratio = cand / base;
        if ratio > 1.0 + self.cfg.time_rel {
            self.push(
                ctx,
                metric,
                base,
                cand,
                Severity::Regression,
                format!("{:.2}x slower (tolerance {:.0}%)", ratio, self.cfg.time_rel * 100.0),
            );
        } else if ratio < 1.0 / (1.0 + self.cfg.time_rel) {
            self.push(ctx, metric, base, cand, Severity::Improvement, format!("{ratio:.2}x"));
        }
    }

    /// A deterministic work metric: relative drift beyond `counter_rel`
    /// in either direction is a regression (a silent behaviour change).
    fn work_metric(&mut self, ctx: &str, metric: &str, base: f64, cand: f64) {
        self.work_metric_banded(ctx, metric, base, cand, self.cfg.counter_rel);
    }

    /// Like [`Self::work_metric`] with an explicit tolerance band — used
    /// for the interleaving-dependent metrics of t ≥ 2 parallel runs.
    fn work_metric_banded(&mut self, ctx: &str, metric: &str, base: f64, cand: f64, rel: f64) {
        self.report.compared += 1;
        let denom = base.abs().max(1.0);
        let drift = (cand - base).abs() / denom;
        if drift > rel {
            self.push(
                ctx,
                metric,
                base,
                cand,
                Severity::Regression,
                format!(
                    "deterministic metric drifted {:+.2}% (tolerance {:.2}%)",
                    100.0 * (cand - base) / denom,
                    rel * 100.0
                ),
            );
        }
    }

    /// A "higher is better" percentage with absolute tolerance.
    fn pct_saved(&mut self, ctx: &str, base: f64, cand: f64) {
        self.report.compared += 1;
        if cand < base - self.cfg.pct_saved_abs {
            self.push(
                ctx,
                "pct_queries_saved",
                base,
                cand,
                Severity::Regression,
                format!(
                    "query savings dropped {:.1} points (tolerance {:.1})",
                    base - cand,
                    self.cfg.pct_saved_abs
                ),
            );
        } else if cand > base + self.cfg.pct_saved_abs {
            self.push(
                ctx,
                "pct_queries_saved",
                base,
                cand,
                Severity::Improvement,
                format!("+{:.1} points", cand - base),
            );
        }
    }
}

fn f(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

/// True for run labels whose query schedule depends on thread
/// interleaving: the shared-memory parallel arms with two or more
/// workers. Sequential, t1 and the distributed simulator (deterministic
/// rank schedule) keep the exact stability contract.
fn interleaved(algo: &str) -> bool {
    algo.strip_prefix("par_mudbscan_t").and_then(|t| t.parse::<u32>().ok()).is_some_and(|t| t > 1)
}

fn runs_by_algorithm(w: &Json) -> Vec<(String, &Json)> {
    w.get("runs")
        .and_then(Json::as_array)
        .map(|runs| {
            runs.iter()
                .filter_map(|r| {
                    r.get("algorithm").and_then(Json::as_str).map(|a| (a.to_string(), r))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compare `candidate` against `baseline`. Returns an error only for
/// structurally unusable inputs (not JSON trajectories at all); shape
/// mismatches inside valid trajectories become findings instead.
pub fn diff(baseline: &Json, candidate: &Json, cfg: &DiffConfig) -> Result<DiffReport, String> {
    let mut d = Differ { cfg, report: DiffReport::default() };

    let (bv, cv) = (f(baseline, "schema_version"), f(candidate, "schema_version"));
    let (bv, cv) = (
        bv.ok_or("baseline: missing schema_version (not a trajectory file?)")?,
        cv.ok_or("candidate: missing schema_version (not a trajectory file?)")?,
    );
    if bv != cv {
        d.push(
            "schema",
            "schema_version",
            bv,
            cv,
            Severity::Note,
            "schema versions differ; comparing the shared subset".to_string(),
        );
    }

    let bn = f(baseline, "points_per_workload").ok_or("baseline: missing points_per_workload")?;
    let cn = f(candidate, "points_per_workload").ok_or("candidate: missing points_per_workload")?;
    let same_scale = bn == cn;
    if !same_scale && !cfg.scale_free {
        return Err(format!(
            "points_per_workload differs ({bn} vs {cn}); pass --scale-free to compare \
             scale-insensitive observables only"
        ));
    }
    let full = same_scale && !cfg.scale_free;

    let empty = Vec::new();
    let b_workloads = baseline.get("workloads").and_then(Json::as_array).unwrap_or(&empty);
    let c_workloads = candidate.get("workloads").and_then(Json::as_array).unwrap_or(&empty);

    for bw in b_workloads {
        let Some(name) = bw.get("dataset").and_then(Json::as_str) else { continue };
        let Some(cw) =
            c_workloads.iter().find(|w| w.get("dataset").and_then(Json::as_str) == Some(name))
        else {
            d.push(
                name,
                "dataset",
                1.0,
                f64::NAN,
                Severity::Regression,
                "workload missing from candidate".to_string(),
            );
            continue;
        };

        let b_runs = runs_by_algorithm(bw);
        let c_runs = runs_by_algorithm(cw);
        for (algo, br) in &b_runs {
            let ctx = format!("{name}/{algo}");
            let Some((_, cr)) = c_runs.iter().find(|(a, _)| a == algo) else {
                d.push(
                    &ctx,
                    "run",
                    1.0,
                    f64::NAN,
                    Severity::Regression,
                    "algorithm run missing from candidate".to_string(),
                );
                continue;
            };

            // Exactness is non-negotiable in every mode.
            d.report.compared += 1;
            if cr.get("exact").and_then(Json::as_bool) != Some(true) {
                d.push(
                    &ctx,
                    "exact",
                    1.0,
                    0.0,
                    Severity::Regression,
                    "candidate run is not oracle-exact".to_string(),
                );
            }

            // The serving arm's second exactness bit (schema v6): the
            // drained final snapshot must stay bit-identical to a batch
            // run on the same live points. Checked fail-closed at
            // emission, so a committed file can only say true — compared
            // in every mode, like `exact`.
            if br.get("final_matches_batch").is_some() {
                d.report.compared += 1;
                if cr.get("final_matches_batch").and_then(Json::as_bool) != Some(true) {
                    d.push(
                        &ctx,
                        "final_matches_batch",
                        1.0,
                        0.0,
                        Severity::Regression,
                        "drained snapshot no longer matches its batch twin".to_string(),
                    );
                }
            }

            if let (Some(b), Some(c)) = (f(br, "pct_queries_saved"), f(cr, "pct_queries_saved")) {
                d.pct_saved(&ctx, b, c);
            }

            if !full {
                continue;
            }

            for metric in ["wall_secs", "virtual_secs", "tree_construction_makespan"] {
                if let (Some(b), Some(c)) = (f(br, metric), f(cr, metric)) {
                    d.time_metric(&ctx, metric, b, c);
                }
            }
            if let (Some(bp), Some(cp)) = (
                br.get("phases").and_then(Json::as_object),
                cr.get("phases").and_then(Json::as_object),
            ) {
                for (phase, bval) in bp {
                    if let (Some(b), Some(c)) = (
                        bval.as_f64(),
                        cp.iter().find(|(k, _)| k == phase).and_then(|(_, v)| v.as_f64()),
                    ) {
                        d.time_metric(&ctx, &format!("phases/{phase}"), b, c);
                    }
                }
            }

            // Thread-interleaved arms get the banded tolerance on their
            // query-work metrics (the executed-query set is
            // scheduling-dependent at t ≥ 2); everything else stays at
            // the exact `counter_rel` contract. Cluster shapes are exact
            // for every arm — exactness is oracle-enforced at emission.
            let band = if interleaved(algo) {
                cfg.interleaved_rel.max(cfg.counter_rel)
            } else {
                cfg.counter_rel
            };

            // `epochs` and `live_points` exist only on the serving arm
            // (schema v6) and are trace-determined, like cluster shapes.
            for metric in ["clusters", "noise", "epochs", "live_points"] {
                if let (Some(b), Some(c)) = (f(br, metric), f(cr, metric)) {
                    d.work_metric(&ctx, metric, b, c);
                }
            }
            if let (Some(bc), Some(cc)) = (br.get("counters"), cr.get("counters")) {
                for key in [
                    "range_queries",
                    "queries_saved",
                    "dist_computations",
                    "node_visits",
                    "union_ops",
                ] {
                    if let (Some(b), Some(c)) = (f(bc, key), f(cc, key)) {
                        d.work_metric_banded(&ctx, &format!("counters/{key}"), b, c, band);
                    }
                }
            }

            // Ops block (schema v6, the serving arms): the replayed
            // trace's operation totals are a pure function of the
            // workload — drift means the trace generator or the serving
            // layer's expiry/delete semantics changed. The repair census
            // (schema v7) is equally replay-deterministic: which deletes
            // repair locally, how many points each repair touches, and
            // which fall back to a rebuild are functions of the budget
            // and the seeded data, so they diff at zero tolerance too.
            if let (Some(bo), Some(co)) = (br.get("ops"), cr.get("ops")) {
                for key in [
                    "inserts",
                    "deletes",
                    "deletes_ignored",
                    "expiries",
                    "rebuilds",
                    "repairs",
                    "repair_touched_points",
                    "fallback_rebuilds",
                    "reader_queries",
                    "reader_memberships",
                    "reader_threads",
                ] {
                    if let (Some(b), Some(c)) = (f(bo, key), f(co, key)) {
                        d.work_metric(&ctx, &format!("ops/{key}"), b, c);
                    }
                }
            } else if br.get("ops").is_some() {
                d.push(
                    &ctx,
                    "ops",
                    1.0,
                    f64::NAN,
                    Severity::Regression,
                    "ops block missing from candidate".to_string(),
                );
            }

            // Fault block (schema v4): the integer counters are the fault
            // layer's replay signature — deterministic for a pinned plan,
            // so any drift is a behaviour change in injection, retry or
            // recovery. The virtual-second costs compare like timings.
            if let (Some(bf), Some(cf)) = (br.get("fault"), cr.get("fault")) {
                d.report.compared += 1;
                if cf.get("clusters_match_fault_free").and_then(Json::as_bool) != Some(true) {
                    d.push(
                        &ctx,
                        "fault/clusters_match_fault_free",
                        1.0,
                        0.0,
                        Severity::Regression,
                        "recovery no longer reproduces the fault-free clustering".to_string(),
                    );
                }
                for key in [
                    "plan_seed",
                    "crashes",
                    "recoveries",
                    "drops_injected",
                    "retries",
                    "messages_lost",
                    "duplicates_injected",
                    "duplicates_discarded",
                    "reorders_injected",
                    "straggled_steps",
                    "recovery_comm_bytes",
                ] {
                    if let (Some(b), Some(c)) = (f(bf, key), f(cf, key)) {
                        d.work_metric(&ctx, &format!("fault/{key}"), b, c);
                    }
                }
                for key in [
                    "retry_delay_virtual_secs",
                    "recovery_compute_virtual_secs",
                    "recovery_comm_virtual_secs",
                    "recovery_virtual_secs",
                ] {
                    if let (Some(b), Some(c)) = (f(bf, key), f(cf, key)) {
                        d.time_metric(&ctx, &format!("fault/{key}"), b, c);
                    }
                }
            } else if br.get("fault").is_some() {
                d.push(
                    &ctx,
                    "fault",
                    1.0,
                    f64::NAN,
                    Severity::Regression,
                    "fault block missing from candidate".to_string(),
                );
            }

            // Histogram percentile blocks (schema v3): deterministic at
            // fixed n, so they compare like work metrics.
            if let (Some(bh), Some(ch)) = (
                br.get("histograms").and_then(Json::as_object),
                cr.get("histograms").and_then(Json::as_object),
            ) {
                for (key, bsum) in bh {
                    let Some(csum) = ch.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
                        d.push(
                            &ctx,
                            &format!("histograms/{key}"),
                            1.0,
                            f64::NAN,
                            Severity::Regression,
                            "histogram missing from candidate".to_string(),
                        );
                        continue;
                    };
                    // `recovery/compute_us` (Stopwatch-timed re-execution
                    // of the lost rank) and the serving arm's `serve/*_us`
                    // per-operation latencies are wall-clock histograms:
                    // their percentiles jitter run to run, so they compare
                    // like timings. Counts stay exact for every histogram.
                    let wall_clock = key == "recovery/compute_us"
                        || (key.starts_with("serve/") && key.ends_with("_us"));
                    for q in ["count", "p50", "p95", "p99", "max"] {
                        if let (Some(b), Some(c)) = (f(bsum, q), f(csum, q)) {
                            let metric = format!("histograms/{key}/{q}");
                            if wall_clock && q != "count" {
                                d.time_metric(&ctx, &metric, b, c);
                            } else {
                                d.work_metric_banded(&ctx, &metric, b, c, band);
                            }
                        }
                    }
                }
            }
        }
    }

    // Sharded arm (schema v9). The exactness bits — t1 ≡ t4, both ≡ the
    // in-memory run, the overlap ≡ the naive oracle — are fail-closed at
    // emission at every size, so they gate in every mode. The numeric
    // metrics only compare when both files ran the arm at the same
    // sharded `n` (its scale knob, `EMIT_BENCH_SHARDED_N`, is
    // independent of `points_per_workload`): timings with the timing
    // tolerance, plan-determined work (shard counts, halo sizes, edge
    // counts, cluster shapes) exactly. `peak_resident_bytes` is
    // deliberately not diffed — at t ≥ 2 the set of concurrently
    // resident shards depends on scheduling; the schema gate
    // (`budget_respected`) bounds it instead.
    if let (Some(bs), Some(cs)) = (baseline.get("sharded_scale"), candidate.get("sharded_scale")) {
        let ctx = "sharded_scale";
        d.report.compared += 1;
        if cs.get("identical_t1_t4").and_then(Json::as_bool) != Some(true) {
            d.push(
                ctx,
                "identical_t1_t4",
                1.0,
                0.0,
                Severity::Regression,
                "sharded t1 and t4 no longer bit-identical".to_string(),
            );
        }
        d.report.compared += 1;
        if cs.get("oracle_overlap").and_then(|o| o.get("matches_oracle")).and_then(Json::as_bool)
            != Some(true)
        {
            d.push(
                ctx,
                "oracle_overlap/matches_oracle",
                1.0,
                0.0,
                Severity::Regression,
                "sharded overlap run no longer matches the naive oracle".to_string(),
            );
        }
        let empty = Vec::new();
        let b_arms = bs.get("arms").and_then(Json::as_array).unwrap_or(&empty);
        let c_arms = cs.get("arms").and_then(Json::as_array).unwrap_or(&empty);
        let same_sharded_n = f(bs, "n").is_some() && f(bs, "n") == f(cs, "n");
        for ba in b_arms {
            let Some(label) = ba.get("label").and_then(Json::as_str) else { continue };
            let actx = format!("{ctx}/{label}");
            let Some(ca) =
                c_arms.iter().find(|a| a.get("label").and_then(Json::as_str) == Some(label))
            else {
                d.push(
                    &actx,
                    "arm",
                    1.0,
                    f64::NAN,
                    Severity::Regression,
                    "sharded arm missing from candidate".to_string(),
                );
                continue;
            };
            d.report.compared += 1;
            if ca.get("matches_in_memory").and_then(Json::as_bool) != Some(true) {
                d.push(
                    &actx,
                    "matches_in_memory",
                    1.0,
                    0.0,
                    Severity::Regression,
                    "sharded arm no longer matches the in-memory run".to_string(),
                );
            }
            if !same_sharded_n {
                continue;
            }
            for metric in ["makespan_secs", "wall_secs", "plan_secs", "merge_secs", "busy_max_secs"]
            {
                if let (Some(b), Some(c)) = (f(ba, metric), f(ca, metric)) {
                    d.time_metric(&actx, metric, b, c);
                }
            }
            for metric in ["n_shards", "halo_points", "edges", "clusters", "noise", "border_ties"] {
                if let (Some(b), Some(c)) = (f(ba, metric), f(ca, metric)) {
                    d.work_metric(&actx, metric, b, c);
                }
            }
        }
    } else if baseline.get("sharded_scale").is_some() {
        d.push(
            "sharded_scale",
            "sharded_scale",
            1.0,
            f64::NAN,
            Severity::Regression,
            "sharded_scale block missing from candidate".to_string(),
        );
    }

    // Instrumentation overhead: absolute percentage points, same-scale
    // only (tiny smoke runs make the percentage meaningless).
    if full {
        if let (Some(b), Some(c)) = (
            baseline.get("overhead").and_then(|o| f(o, "overhead_pct")),
            candidate.get("overhead").and_then(|o| f(o, "overhead_pct")),
        ) {
            d.report.compared += 1;
            if c > b + cfg.overhead_abs {
                d.push(
                    "overhead",
                    "overhead_pct",
                    b,
                    c,
                    Severity::Regression,
                    format!(
                        "instrumentation overhead grew {:.1} points (tolerance {:.1})",
                        c - b,
                        cfg.overhead_abs
                    ),
                );
            }
        }
    }

    Ok(d.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini(n: f64, wall: f64, visits: f64, pct: f64) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema_version": 3,
              "seed": 2019,
              "points_per_workload": {n},
              "workloads": [
                {{
                  "dataset": "W",
                  "runs": [
                    {{
                      "algorithm": "mudbscan_seq",
                      "exact": true,
                      "clusters": 7,
                      "noise": 20,
                      "wall_secs": {wall},
                      "pct_queries_saved": {pct},
                      "phases": {{"tree_construction": {wall}}},
                      "counters": {{"range_queries": 100, "queries_saved": 50,
                                    "dist_computations": 999, "node_visits": {visits},
                                    "union_ops": 42}},
                      "histograms": {{"query/node_visits": {{"count": 100, "p50": 8,
                                      "p95": 16, "p99": 24, "max": 32}}}}
                    }}
                  ]
                }}
              ],
              "overhead": {{"overhead_pct": 1.0}}
            }}"#
        ))
        .expect("valid mini trajectory")
    }

    #[test]
    fn identical_files_produce_no_findings() {
        let a = mini(1000.0, 0.5, 4000.0, 80.0);
        let rep = diff(&a, &a, &DiffConfig::default()).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());
        assert!(rep.findings.is_empty());
        assert!(rep.compared > 5);
    }

    #[test]
    fn slowdown_beyond_tolerance_is_a_regression() {
        let base = mini(1000.0, 0.5, 4000.0, 80.0);
        let slow = mini(1000.0, 1.0, 4000.0, 80.0);
        let rep = diff(&base, &slow, &DiffConfig::default()).unwrap();
        assert!(rep.has_regressions());
        assert!(rep.regressions().iter().any(|f| f.metric == "wall_secs"));
        // And the mirror image is an improvement, not a regression.
        let rep2 = diff(&slow, &base, &DiffConfig::default()).unwrap();
        assert!(!rep2.has_regressions(), "{}", rep2.render());
        assert!(rep2.findings.iter().any(|f| f.severity == Severity::Improvement));
    }

    #[test]
    fn counter_drift_is_a_regression_in_both_directions() {
        let base = mini(1000.0, 0.5, 4000.0, 80.0);
        for drifted in [3990.0, 4010.0] {
            let cand = mini(1000.0, 0.5, drifted, 80.0);
            let rep = diff(&base, &cand, &DiffConfig::default()).unwrap();
            assert!(
                rep.regressions().iter().any(|f| f.metric == "counters/node_visits"),
                "drift to {drifted} must regress: {}",
                rep.render()
            );
        }
    }

    #[test]
    fn query_savings_drop_is_a_regression() {
        let base = mini(1000.0, 0.5, 4000.0, 80.0);
        let cand = mini(1000.0, 0.5, 4000.0, 60.0);
        let rep = diff(&base, &cand, &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "pct_queries_saved"));
    }

    #[test]
    fn scale_mismatch_requires_scale_free_mode() {
        let base = mini(4000.0, 0.5, 4000.0, 80.0);
        let small = mini(500.0, 0.1, 900.0, 78.0);
        assert!(diff(&base, &small, &DiffConfig::default()).is_err());
        let rep =
            diff(&base, &small, &DiffConfig { scale_free: true, ..DiffConfig::default() }).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());
    }

    #[test]
    fn scale_free_still_gates_exactness_and_savings() {
        let base = mini(4000.0, 0.5, 4000.0, 80.0);
        let bad = mini(500.0, 0.1, 900.0, 40.0);
        let rep =
            diff(&base, &bad, &DiffConfig { scale_free: true, ..DiffConfig::default() }).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "pct_queries_saved"));
    }

    #[test]
    fn missing_run_is_a_regression() {
        let base = mini(1000.0, 0.5, 4000.0, 80.0);
        let mut cand = mini(1000.0, 0.5, 4000.0, 80.0);
        // Drop the only run from the candidate's workload.
        let workloads = cand.get("workloads").and_then(Json::as_array).unwrap();
        let mut w0 = workloads[0].clone();
        w0.set("runs", Json::Arr(Vec::new()));
        cand.set("workloads", Json::Arr(vec![w0]));
        let rep = diff(&base, &cand, &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "run"));
    }

    fn mini_with_fault(retries: f64, matches: bool) -> Json {
        let mut j = mini(1000.0, 0.5, 4000.0, 80.0);
        let fault = Json::parse(&format!(
            r#"{{"plan_seed": 2019, "crashes": 1, "recoveries": 1,
                 "drops_injected": 3, "retries": {retries}, "messages_lost": 0,
                 "duplicates_injected": 1, "duplicates_discarded": 1,
                 "reorders_injected": 1, "straggled_steps": 4,
                 "recovery_comm_bytes": 512,
                 "retry_delay_virtual_secs": 0.001,
                 "recovery_virtual_secs": 0.002,
                 "overhead_vs_fault_free_pct": 10.0,
                 "clusters_match_fault_free": {matches}}}"#
        ))
        .unwrap();
        let workloads = j.get("workloads").and_then(Json::as_array).unwrap();
        let mut w0 = workloads[0].clone();
        let runs = w0.get("runs").and_then(Json::as_array).unwrap();
        let mut r0 = runs[0].clone();
        r0.set("fault", fault);
        w0.set("runs", Json::Arr(vec![r0]));
        j.set("workloads", Json::Arr(vec![w0]));
        j
    }

    #[test]
    fn fault_signature_drift_is_a_regression() {
        let base = mini_with_fault(3.0, true);
        let rep = diff(&base, &base, &DiffConfig::default()).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());

        let drifted = mini_with_fault(5.0, true);
        let rep = diff(&base, &drifted, &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "fault/retries"), "{}", rep.render());

        let broken = mini_with_fault(3.0, false);
        let rep = diff(&base, &broken, &DiffConfig::default()).unwrap();
        assert!(
            rep.regressions().iter().any(|f| f.metric == "fault/clusters_match_fault_free"),
            "{}",
            rep.render()
        );

        // Dropping the block entirely is a regression too.
        let plain = mini(1000.0, 0.5, 4000.0, 80.0);
        let rep = diff(&base, &plain, &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "fault"), "{}", rep.render());
    }

    /// Rewrite the mini trajectory's run label so its metrics compare as
    /// a thread-interleaved arm.
    fn as_interleaved(j: &Json) -> Json {
        Json::parse(&j.render().replace("mudbscan_seq", "par_mudbscan_t4")).unwrap()
    }

    #[test]
    fn interleaved_arm_query_drift_within_band_is_tolerated() {
        let base = as_interleaved(&mini(1000.0, 0.5, 4000.0, 80.0));
        // +1% node_visits drift: a behaviour change for the sequential
        // arm, scheduler noise for t4.
        let cand = as_interleaved(&mini(1000.0, 0.5, 4040.0, 80.0));
        let rep = diff(&base, &cand, &DiffConfig::default()).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());

        // Beyond the band the gate still fires.
        let far = as_interleaved(&mini(1000.0, 0.5, 6000.0, 80.0));
        let rep = diff(&base, &far, &DiffConfig::default()).unwrap();
        assert!(
            rep.regressions().iter().any(|f| f.metric == "counters/node_visits"),
            "{}",
            rep.render()
        );

        // And cluster shapes stay exact even for interleaved arms.
        let text = as_interleaved(&mini(1000.0, 0.5, 4000.0, 80.0))
            .render()
            .replace("\"clusters\": 7", "\"clusters\": 8");
        let reshaped = Json::parse(&text).unwrap();
        let rep = diff(&base, &reshaped, &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "clusters"), "{}", rep.render());
    }

    /// A one-run trajectory shaped like the schema-v6 serving arm:
    /// trace-determined ops totals, wall-clock latency histograms, the
    /// batch-twin exactness bit.
    fn mini_serve(inserts: f64, query_p99: f64, matches: bool) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema_version": 6,
              "seed": 2019,
              "points_per_workload": 1000,
              "workloads": [
                {{
                  "dataset": "W",
                  "runs": [
                    {{
                      "algorithm": "serve_traffic",
                      "exact": true,
                      "final_matches_batch": {matches},
                      "clusters": 5,
                      "noise": 12,
                      "epochs": 8,
                      "live_points": 860,
                      "wall_secs": 0.4,
                      "pct_queries_saved": 80.0,
                      "phases": {{"serve_replay": 0.4}},
                      "ops": {{"inserts": {inserts}, "deletes": 60,
                              "deletes_ignored": 6, "expiries": 74,
                              "rebuilds": 6, "reader_queries": 1000,
                              "reader_memberships": 1000, "reader_threads": 4}},
                      "counters": {{"range_queries": 100, "queries_saved": 50,
                                    "dist_computations": 999, "node_visits": 4000,
                                    "union_ops": 42}},
                      "histograms": {{"serve/query_us": {{"count": 1000, "p50": 4,
                                      "p95": 10, "p99": {query_p99}, "max": 40}}}}
                    }}
                  ]
                }}
              ],
              "overhead": {{"overhead_pct": 1.0}}
            }}"#
        ))
        .expect("valid mini serving trajectory")
    }

    #[test]
    fn serve_latencies_compare_as_timings_but_ops_compare_exactly() {
        let base = mini_serve(1000.0, 20.0, true);
        let rep = diff(&base, &base, &DiffConfig::default()).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());

        // A 25% p99 latency bump is inside the 50% timing tolerance —
        // under the zero-tolerance work-metric contract it would fail.
        let jittered = mini_serve(1000.0, 25.0, true);
        let rep = diff(&base, &jittered, &DiffConfig::default()).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());

        // Beyond the timing tolerance it is a regression again.
        let slow = mini_serve(1000.0, 80.0, true);
        let rep = diff(&base, &slow, &DiffConfig::default()).unwrap();
        assert!(
            rep.regressions().iter().any(|f| f.metric == "histograms/serve/query_us/p99"),
            "{}",
            rep.render()
        );

        // The trace-determined op totals stay zero-tolerance.
        let drifted = mini_serve(999.0, 20.0, true);
        let rep = diff(&base, &drifted, &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "ops/inserts"), "{}", rep.render());
    }

    #[test]
    fn serve_batch_twin_drift_is_a_regression_even_scale_free() {
        let base = mini_serve(1000.0, 20.0, true);
        let broken = mini_serve(1000.0, 20.0, false);
        for cfg in [DiffConfig::default(), DiffConfig { scale_free: true, ..DiffConfig::default() }]
        {
            let rep = diff(&base, &broken, &cfg).unwrap();
            assert!(
                rep.regressions().iter().any(|f| f.metric == "final_matches_batch"),
                "{}",
                rep.render()
            );
        }
    }

    /// Attach a schema-v9 `sharded_scale` block to the mini trajectory.
    fn with_sharded(n: f64, identical: bool, matches: bool, edges: f64) -> Json {
        let mut j = mini(1000.0, 0.5, 4000.0, 80.0);
        let block = Json::parse(&format!(
            r#"{{"dataset": "DGB", "n": {n}, "raw_bytes": 24000000,
                 "memory_budget_bytes": 12000000, "shards_requested": 8,
                 "identical_t1_t4": {identical}, "budget_respected": true,
                 "speedup_t1_t4": 3.4,
                 "oracle_overlap": {{"n": 10000, "matches_oracle": true}},
                 "arms": [
                   {{"label": "sharded_t1", "threads": 1, "n_shards": 8,
                     "makespan_secs": 30.0, "wall_secs": 31.0,
                     "plan_secs": 1.0, "merge_secs": 2.0, "busy_max_secs": 27.0,
                     "halo_points": 5000, "edges": {edges},
                     "clusters": 7, "noise": 20,
                     "matches_in_memory": {matches}}},
                   {{"label": "sharded_t4", "threads": 4, "n_shards": 16,
                     "makespan_secs": 9.0, "wall_secs": 31.0,
                     "plan_secs": 1.0, "merge_secs": 2.0, "busy_max_secs": 6.0,
                     "halo_points": 6000, "edges": {edges},
                     "clusters": 7, "noise": 20,
                     "matches_in_memory": true}}
                 ]}}"#
        ))
        .unwrap();
        j.set("sharded_scale", block);
        j
    }

    #[test]
    fn sharded_exactness_bits_gate_in_every_mode() {
        let base = with_sharded(1e6, true, true, 900.0);
        let rep = diff(&base, &base, &DiffConfig::default()).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());

        for cfg in [DiffConfig::default(), DiffConfig { scale_free: true, ..DiffConfig::default() }]
        {
            let broken = with_sharded(1e6, false, true, 900.0);
            let rep = diff(&base, &broken, &cfg).unwrap();
            assert!(
                rep.regressions().iter().any(|f| f.metric == "identical_t1_t4"),
                "{}",
                rep.render()
            );
            let drifted = with_sharded(1e6, true, false, 900.0);
            let rep = diff(&base, &drifted, &cfg).unwrap();
            assert!(
                rep.regressions().iter().any(|f| f.metric == "matches_in_memory"),
                "{}",
                rep.render()
            );
        }

        // Dropping the block entirely is a regression.
        let rep = diff(&base, &mini(1000.0, 0.5, 4000.0, 80.0), &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "sharded_scale"), "{}", rep.render());
    }

    #[test]
    fn sharded_plan_metrics_diff_exactly_at_same_n_only() {
        let base = with_sharded(1e6, true, true, 900.0);
        // Same sharded n: an edge-count drift is a behaviour change.
        let drifted = with_sharded(1e6, true, true, 901.0);
        let rep = diff(&base, &drifted, &DiffConfig::default()).unwrap();
        assert!(rep.regressions().iter().any(|f| f.metric == "edges"), "{}", rep.render());
        // Different sharded n (the CI smoke job): numeric compare skips,
        // only the exactness bits gate.
        let smoke = with_sharded(5e4, true, true, 42.0);
        let rep = diff(&base, &smoke, &DiffConfig::default()).unwrap();
        assert!(!rep.has_regressions(), "{}", rep.render());
    }

    #[test]
    fn histogram_percentile_drift_is_a_regression() {
        let base = mini(1000.0, 0.5, 4000.0, 80.0);
        let mut cand = mini(1000.0, 0.5, 4000.0, 80.0);
        // Bump the p99 inside the candidate's histogram block.
        let text = cand.render().replace("\"p99\": 24", "\"p99\": 48");
        cand = Json::parse(&text).unwrap();
        let rep = diff(&base, &cand, &DiffConfig::default()).unwrap();
        assert!(
            rep.regressions().iter().any(|f| f.metric == "histograms/query/node_visits/p99"),
            "{}",
            rep.render()
        );
    }
}
