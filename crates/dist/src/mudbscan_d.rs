//! μDBSCAN-D, PDSDBSCAN-D and GridDBSCAN-D: the three kd-partitioned
//! distributed algorithms (they share partitioning and merge; only the
//! local stage differs).

use crate::driver::{run_distributed, DistError, DistOutput, LocalRun};
use crate::merge::LocalView;
use crate::recovery::FaultConfig;
use baselines::{GridDbscan, RDbscan};
use cluster_sim::FaultPlan;
use geom::{Dataset, DbscanParams};
use metrics::mem::MemBudget;
use metrics::Stopwatch;
use mudbscan::MuDbscan;
use partition::{gather_shards, plan_shards, ShardingOptions};

/// Common configuration of the kd-partitioned distributed algorithms.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Number of simulated ranks (`p`).
    pub ranks: usize,
    /// Worker threads used *inside* each rank's local μDBSCAN stage —
    /// the paper's future-work "leverage multiple cores available in
    /// each computing node": each rank runs [`mudbscan::MuDbscan`] on
    /// this many threads, and `1` (default) is the sequential algorithm.
    pub local_threads: usize,
}

impl DistConfig {
    /// `p` sequentially simulated ranks with the default network model.
    pub fn new(ranks: usize) -> Self {
        Self { ranks, local_threads: 1 }
    }

    /// Use `t` worker threads inside each rank's local clustering stage.
    pub fn with_local_threads(mut self, t: usize) -> Self {
        assert!(t >= 1);
        self.local_threads = t;
        self
    }
}

/// Run `local` on the paper's p-rank kd partition: the shard planner's
/// plan with `min_shards = p`, padded with empty shards when the data
/// cannot be cut that often (tiny or duplicate-heavy inputs), so there
/// are always exactly `p` ranks. The planner and halo gather are timed
/// as `partitioning`.
fn run_on_kd_ranks(
    data: &Dataset,
    params: &DbscanParams,
    cfg: &DistConfig,
    faults: Option<&FaultConfig>,
    local: impl Fn(&Dataset) -> Result<LocalRun, String>,
) -> Result<DistOutput, DistError> {
    let p = cfg.ranks;
    assert!(p >= 1, "need at least one rank");
    let sw = Stopwatch::start();
    let plan =
        plan_shards(data, params.eps, &ShardingOptions { min_shards: p, max_shard_bytes: None });
    let mut views: Vec<LocalView> =
        gather_shards(data, &plan).into_iter().map(LocalView::from).collect();
    let partition_secs = sw.secs();
    assert!(views.len() <= p, "the planner cut more shards than ranks");
    views.resize_with(p, || LocalView::empty(data.dim()));
    run_distributed(views, partition_secs, params, faults, local)
}

/// μDBSCAN-D (paper §V): kd partitioning + local μDBSCAN + merge.
#[derive(Debug, Clone)]
pub struct MuDbscanD {
    params: DbscanParams,
    cfg: DistConfig,
    faults: Option<FaultConfig>,
}

impl MuDbscanD {
    /// New instance.
    ///
    /// Low-level entry point; applications should prefer
    /// `mudbscan::prelude::Runner::new(params).ranks(p)`.
    pub fn from_params(params: DbscanParams, cfg: DistConfig) -> Self {
        Self { params, cfg, faults: None }
    }

    /// Inject a fault schedule with retry/recovery options; the run stays
    /// bit-identical to fault-free as long as drops fit the retry budget
    /// (see [`crate::recovery`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Inject `plan` under the default retry policy.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.with_faults(FaultConfig::new(plan))
    }

    /// Run on `data`.
    // The local stage drives the core constructors directly rather than
    // going through the facade — depending on `mudbscan` (the api crate)
    // here would be a dependency cycle.
    pub fn run(&self, data: &Dataset) -> Result<DistOutput, DistError> {
        let (params, threads) = (self.params, self.cfg.local_threads);
        run_on_kd_ranks(data, &params, &self.cfg, self.faults.as_ref(), |combined| {
            Ok(MuDbscan::from_params(params).threads(threads).run(combined).into())
        })
    }
}

/// PDSDBSCAN-D (Patwary et al., SC'12): kd partitioning + classical
/// R-tree DBSCAN per rank (every point queried) + merge.
#[derive(Debug, Clone)]
pub struct PdsDbscanD {
    params: DbscanParams,
    cfg: DistConfig,
}

impl PdsDbscanD {
    /// New instance.
    pub fn new(params: DbscanParams, cfg: DistConfig) -> Self {
        Self { params, cfg }
    }

    /// Run on `data`.
    pub fn run(&self, data: &Dataset) -> Result<DistOutput, DistError> {
        let params = self.params;
        run_on_kd_ranks(data, &params, &self.cfg, None, |combined| {
            Ok(RDbscan::new(params).run(combined).into())
        })
    }
}

/// GridDBSCAN-D: kd partitioning + grid-based local stage + merge. The
/// local stage inherits GridDBSCAN's exponential neighbour-cell memory;
/// a rank exceeding its budget fails the whole run with
/// [`DistError::Local`] — the paper's "Mem Err" rows of Table V.
#[derive(Debug, Clone)]
pub struct GridDbscanD {
    params: DbscanParams,
    cfg: DistConfig,
    /// Per-rank structure memory budget.
    pub budget: MemBudget,
}

impl GridDbscanD {
    /// New instance with a 4 GB per-rank budget.
    pub fn new(params: DbscanParams, cfg: DistConfig) -> Self {
        Self { params, cfg, budget: MemBudget::new(4 << 30) }
    }

    /// Override the per-rank memory budget.
    pub fn with_budget(mut self, budget: MemBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Run on `data`.
    pub fn run(&self, data: &Dataset) -> Result<DistOutput, DistError> {
        let (params, budget) = (self.params, self.budget);
        run_on_kd_ranks(data, &params, &self.cfg, None, |combined| {
            let out = GridDbscan::new(params).with_budget(budget).run(combined);
            Ok(out.map_err(|e| e.to_string())?.into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::{check_exact, naive_dbscan};

    fn blob_data(n_per: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut s = 77u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(23);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy, cz) in [(0.0, 0.0, 0.0), (6.0, 2.0, -1.0), (-4.0, 5.0, 3.0)] {
            for _ in 0..n_per {
                rows.push(vec![cx + 0.8 * r(), cy + 0.8 * r(), cz + 0.8 * r()]);
            }
        }
        for _ in 0..n_per / 3 {
            rows.push(vec![10.0 * r(), 10.0 * r(), 10.0 * r()]);
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn mudbscan_d_exact_various_ranks() {
        let data = blob_data(60);
        let params = DbscanParams::new(0.7, 5);
        let reference = naive_dbscan(&data, &params);
        for p in [1, 2, 4, 7, 8] {
            let out = MuDbscanD::from_params(params, DistConfig::new(p)).run(&data).unwrap();
            let rep = check_exact(&out.clustering, &reference, &data, &params);
            assert!(rep.is_exact(), "p={p}: {rep:?}");
            assert_eq!(out.clustering, reference, "p={p}");
            assert_eq!(out.ranks, p);
            assert!(out.runtime_secs > 0.0);
        }
    }

    #[test]
    fn pdsdbscan_d_exact() {
        let data = blob_data(50);
        let params = DbscanParams::new(0.7, 5);
        let reference = naive_dbscan(&data, &params);
        let out = PdsDbscanD::new(params, DistConfig::new(4)).run(&data).unwrap();
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
        assert_eq!(out.clustering, reference);
        // PDSDBSCAN queries every local point (own + halo).
        assert!(out.counters.range_queries() as usize >= data.len());
    }

    #[test]
    fn griddbscan_d_exact_low_dim() {
        let data = blob_data(50);
        let params = DbscanParams::new(0.7, 5);
        let reference = naive_dbscan(&data, &params);
        let out = GridDbscanD::new(params, DistConfig::new(4)).run(&data).unwrap();
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
        assert_eq!(out.clustering, reference);
    }

    #[test]
    fn griddbscan_d_memory_error_high_dim() {
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![0.05 * i as f64; 14]).collect();
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(1.0, 4);
        let alg = GridDbscanD::new(params, DistConfig::new(2)).with_budget(MemBudget::new(5 << 20));
        match alg.run(&data) {
            Err(DistError::Local(_, msg)) => assert!(msg.contains("memory"), "{msg}"),
            Ok(_) => panic!("expected per-rank memory error"),
        }
    }

    #[test]
    fn query_savings_survive_distribution() {
        let data = blob_data(80);
        let params = DbscanParams::new(0.9, 5);
        let out = MuDbscanD::from_params(params, DistConfig::new(4)).run(&data).unwrap();
        assert!(
            out.counters.pct_queries_saved() > 20.0,
            "saved only {:.1}%",
            out.counters.pct_queries_saved()
        );
        let phases: Vec<String> = out.phases.split_up().iter().map(|(n, _, _)| n.clone()).collect();
        for expect in ["partitioning", "tree_construction", "clustering", "merging"] {
            assert!(phases.iter().any(|p| p == expect), "missing phase {expect}: {phases:?}");
        }
    }

    #[test]
    fn multicore_local_ranks_stay_exact() {
        let data = blob_data(50);
        let params = DbscanParams::new(0.7, 5);
        let reference = naive_dbscan(&data, &params);
        let out = MuDbscanD::from_params(params, DistConfig::new(4).with_local_threads(3))
            .run(&data)
            .unwrap();
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
        // Same clustering as single-threaded local stages.
        let single = MuDbscanD::from_params(params, DistConfig::new(4)).run(&data).unwrap();
        assert_eq!(out.clustering, single.clustering);
    }

    #[test]
    fn agrees_with_sequential_mudbscan() {
        let data = blob_data(45);
        let params = DbscanParams::new(0.6, 4);
        let seq = MuDbscan::from_params(params).run(&data);
        let dist = MuDbscanD::from_params(params, DistConfig::new(5)).run(&data).unwrap();
        let rep = check_exact(&dist.clustering, &seq.clustering, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
    }
}
