//! One fluent builder over all six algorithm families.
//!
//! [`Runner`] replaces the four divergent constructor shapes
//! (`new(params)`, `new(params, threads)`, `new(dim, params)`,
//! `new(params, cfg)`) with a single chain:
//!
//! ```
//! use mudbscan::prelude::*;
//!
//! let data = Dataset::from_rows(&[vec![0.0], vec![0.05], vec![0.1], vec![9.0]]);
//! let params = DbscanParams::new(0.2, 3);
//!
//! // μDBSCAN on one thread (the default: the paper's sequential run)…
//! let seq = Runner::new(params).run(&data).unwrap();
//! // …the same engine on four worker threads…
//! let par = Runner::new(params).threads(4).run(&data).unwrap();
//! // …and distributed over 2 simulated ranks.
//! let dist = Runner::new(params).ranks(2).run(&data).unwrap();
//! assert_eq!(seq.clustering, par.clustering);
//! assert_eq!(seq.clustering, dist.clustering);
//! ```
//!
//! The family is inferred — `.ranks(p)` selects [`Family::Distributed`],
//! otherwise `.shards(s)` / `.memory_budget(b)` select
//! [`Family::Sharded`], otherwise [`Family::MuDbscan`] on `.threads(t)`
//! workers — or forced with [`Runner::family`] (the only way to reach
//! [`Family::Streaming`] and [`Family::Optics`]). Configuration that a
//! family cannot honour (a fault plan outside `Distributed`, a shard
//! count or memory budget outside `Sharded`, worker threads on the
//! inherently sequential families, ablation knobs outside a one-thread
//! `MuDbscan` run) is an [`MuDbscanError::InvalidConfig`] before the
//! run starts, never silently ignored — and so are degenerate
//! parameters: a NaN, infinite or non-positive ε, an ε whose square
//! underflows to 0, `min_pts = 0`, or a zero thread, rank, shard or
//! byte count.
//!
//! Inputs need not be in memory: [`Runner::run_source`] clusters any
//! [`DataSource`] — the in-memory [`Dataset`], or a memory-mapped
//! on-disk [`ChunkedStore`] written by [`write_store`] — and
//! [`Runner::run`] is a thin wrapper over it. The [`Family::Sharded`]
//! executor streams shards from the source under the configured memory
//! budget; its output is deterministic across shard counts, budgets
//! and thread counts — bit-identical to [`naive_dbscan`]'s canonical
//! border rule, and paper-exact against every in-memory family (same
//! cores, core partition and noise; DBSCAN leaves border ties
//! order-defined). See `docs/API.md` for the out-of-core cookbook.
//!
//! The serving family has no batch shape: [`Runner::serve`] starts the
//! long-running concurrent service and hands back a [`ServeHandle`] for
//! batched ingest (inserts, deletions, TTL expiry) and
//! snapshot-isolated queries — tuned via [`Runner::serve_options`]; see
//! `docs/SERVING.md`.

use std::borrow::Cow;

pub use crate::error::MuDbscanError;
pub use cluster_sim::{Fault, FaultPlan, FaultStats, RankClock, RetryConfig};
pub use data::{write_store, ChunkedStore, StoreError, StoreWriter};
pub use dist::{DistError, FaultConfig, ShardedOutput};
pub use geom::{
    gather_dense, Cols, DataSource, Dataset, DbscanParams, PointId, SourceChunk, DEFAULT_CHUNK_CAP,
};
pub use mcs::BuildOptions;
pub use metrics::{Counters, PhaseTimer};
pub use mudbscan_core::{naive_dbscan, Clustering, NOISE};
pub use stream::{
    Drained, ExtId, Membership, RemoveOutcome, ServeError, ServeHandle, ServeOp, ServeOptions,
    ServeStats, ServingMuDbscan, Snapshot,
};

use dist::{DistConfig, MuDbscanD, ShardedMuDbscan, ShardedOptions};
use mudbscan_core::MuDbscan;
use optics::{extract_dbscan, Optics};
use stream::StreamingMuDbscan;

/// The six algorithm families the facade can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// μDBSCAN (paper §IV) on [`Runner::threads`] workers; one thread,
    /// the default, is the paper's sequential algorithm.
    MuDbscan,
    /// μDBSCAN-D over the BSP cluster simulator (paper §V): the same
    /// planner, shard summary and merge as [`Family::Sharded`], so
    /// `.ranks(p)` and `.shards(p)` return the same clustering —
    /// bit-identical to [`naive_dbscan`].
    Distributed,
    /// Out-of-core sharded μDBSCAN: spatial shards cut to a memory
    /// budget, clustered on OS threads, merged exactly — bit-identical
    /// to [`naive_dbscan`] for any shard geometry. The one family that
    /// can stream a [`ChunkedStore`] without materialising the dataset.
    Sharded,
    /// Insertion-incremental μDBSCAN, bulk-loaded from the dataset.
    Streaming,
    /// OPTICS ordering with DBSCAN extraction at the generating ε.
    Optics,
    /// The concurrent serving layer over the streaming engine, started
    /// by [`Runner::serve`]. It has no batch shape: [`Runner::run`]
    /// rejects it.
    Serving,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::MuDbscan => "MuDbscan",
            Family::Distributed => "Distributed",
            Family::Sharded => "Sharded",
            Family::Streaming => "Streaming",
            Family::Optics => "Optics",
            Family::Serving => "Serving",
        }
    }
}

/// Family-specific extras accompanying a [`RunOutput`].
#[derive(Debug)]
pub enum RunDetails {
    /// μDBSCAN reporting quantities (paper Tables II–IV), at every
    /// thread count.
    MuDbscan {
        /// Number of micro-clusters formed.
        mc_count: usize,
        /// Average points per micro-cluster.
        avg_mc_size: f64,
        /// Estimated peak structure bytes.
        peak_heap_bytes: usize,
    },
    /// Distributed-run extras.
    Distributed {
        /// Virtual runtime excluding partitioning (planner and halo gather).
        runtime_secs: f64,
        /// Bytes communicated.
        comm_bytes: u64,
        /// Simulated rank count.
        ranks: usize,
        /// Maximum per-rank structure bytes.
        max_rank_heap_bytes: usize,
        /// Per-rank virtual-clock totals.
        rank_clocks: Vec<RankClock>,
        /// BSP supersteps executed.
        supersteps: usize,
        /// Fault/recovery counters (all zero on a fault-free run).
        fault_stats: FaultStats,
    },
    /// Sharded (out-of-core) run extras. The wall-clock fields follow
    /// the makespan convention of `dist::sharded`: on a single-core
    /// host the per-shard work runs serialised, so `makespan_secs`
    /// (plan + max per-worker busy time + merge) is the modelled
    /// parallel wall time while `wall_secs` is what this host measured.
    Sharded {
        /// Spatial shards the planner cut.
        n_shards: usize,
        /// Worker threads the shard work ran on.
        threads: usize,
        /// Planning wall time (streaming passes over the source).
        plan_secs: f64,
        /// Sequential merge wall time.
        merge_secs: f64,
        /// Maximum per-worker thread-CPU busy time.
        busy_max_secs: f64,
        /// Modelled parallel makespan (plan + busy max + merge).
        makespan_secs: f64,
        /// Measured end-to-end wall time on this host.
        wall_secs: f64,
        /// Peak combined resident shard bytes (own + halo coords/ids).
        peak_resident_bytes: usize,
        /// Halo points gathered across all shards.
        halo_points: u64,
        /// Cross-shard candidate edges examined by the merge.
        edges: u64,
    },
    /// Streaming runs have no extras beyond the snapshot clustering.
    Streaming,
    /// The OPTICS ordering the clustering was extracted from.
    Optics {
        /// Point ids in processing order.
        order: Vec<PointId>,
        /// Per-point reachability distances.
        reachability: Vec<f64>,
        /// Per-point core distances at the generating ε.
        core_distance: Vec<f64>,
    },
}

/// Uniform output of any facade-driven run.
#[derive(Debug)]
pub struct RunOutput {
    /// The exact DBSCAN clustering.
    pub clustering: Clustering,
    /// Aggregated operation counters.
    pub counters: Counters,
    /// Wall-clock (or, for `Distributed`, virtual) phase split-up.
    pub phases: PhaseTimer,
    /// Family-specific extras.
    pub details: RunDetails,
}

/// Fluent builder over the six families. See the [module docs](self)
/// for the inference rules; every knob is validated against the resolved
/// family before a run starts.
#[derive(Debug, Clone)]
pub struct Runner {
    params: DbscanParams,
    family: Option<Family>,
    threads: usize,
    ranks: Option<usize>,
    shards: Option<usize>,
    memory_budget: Option<usize>,
    opts: Option<BuildOptions>,
    serve_opts: Option<ServeOptions>,
    faults: Option<FaultConfig>,
    disable_dynamic_promotion: bool,
    disable_post_core_mc_skip: bool,
}

impl Runner {
    /// Start a builder with the given density parameters.
    pub fn new(params: DbscanParams) -> Self {
        Self {
            params,
            family: None,
            threads: 1,
            ranks: None,
            shards: None,
            memory_budget: None,
            opts: None,
            serve_opts: None,
            faults: None,
            disable_dynamic_promotion: false,
            disable_post_core_mc_skip: false,
        }
    }

    /// Force a family instead of inferring it from `ranks`/`shards`.
    pub fn family(mut self, family: Family) -> Self {
        self.family = Some(family);
        self
    }

    /// Worker threads (default 1): the thread-pool size of
    /// [`Family::MuDbscan`], the per-rank local threads of
    /// [`Family::Distributed`], or the OS worker threads of
    /// [`Family::Sharded`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Simulated rank count; selects [`Family::Distributed`] unless a
    /// family was forced.
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.ranks = Some(ranks);
        self
    }

    /// Minimum spatial shard count for the out-of-core executor;
    /// selects [`Family::Sharded`] unless a family was forced or
    /// [`Runner::ranks`] implies `Distributed`. The planner may cut
    /// *more* shards to honour a memory budget, never fewer.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Total memory budget in bytes for the out-of-core executor;
    /// selects [`Family::Sharded`] unless a family was forced. The
    /// planner sizes shards so that the `threads` concurrently resident
    /// shards (own points + ε-halo, double-buffered) fit the budget.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Override micro-cluster construction options of a
    /// [`Family::MuDbscan`] run (the ablation knob `two_eps_deferral`);
    /// setting this on any other family is an
    /// [`MuDbscanError::InvalidConfig`].
    pub fn options(mut self, opts: BuildOptions) -> Self {
        self.opts = Some(opts);
        self
    }

    /// Serving-layer options for [`Runner::serve`]: the deletion-repair budget
    /// ([`ServeOptions::repair_budget`], whose default adapts to the
    /// live set size and whose `Some(0)` rebuilds on every removal that
    /// needs a repair region — noise points and borders that demote no
    /// core are still repaired in place),
    /// plus the telemetry knobs — flight-recorder capacity, postmortem
    /// directory, and the exactness self-check cadence
    /// ([`ServeOptions::self_check_every`]). None of them changes
    /// published results. Setting this on any other family is an
    /// [`MuDbscanError::InvalidConfig`].
    pub fn serve_options(mut self, opts: ServeOptions) -> Self {
        self.serve_opts = Some(opts);
        self
    }

    /// Inject a fault plan (under the default retry policy) into a
    /// distributed run; see [`FaultPlan`].
    pub fn fault_plan(self, plan: FaultPlan) -> Self {
        self.faults_config(FaultConfig::new(plan))
    }

    /// Inject a full fault configuration (plan + retry policy).
    pub fn faults_config(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Ablation knob of a one-thread [`Family::MuDbscan`] run: skip the
    /// dynamic wndq-core promotion (Algorithm 6 step (iii)).
    pub fn disable_dynamic_promotion(mut self, disable: bool) -> Self {
        self.disable_dynamic_promotion = disable;
        self
    }

    /// Ablation knob of a one-thread [`Family::MuDbscan`] run: disable
    /// the MC-granularity skip in POST-PROCESSING-CORE (Algorithm 7).
    pub fn disable_post_core_mc_skip(mut self, disable: bool) -> Self {
        self.disable_post_core_mc_skip = disable;
        self
    }

    /// The family this configuration resolves to.
    pub fn resolved_family(&self) -> Family {
        self.family.unwrap_or({
            if self.ranks.is_some() {
                Family::Distributed
            } else if self.shards.is_some() || self.memory_budget.is_some() {
                Family::Sharded
            } else {
                Family::MuDbscan
            }
        })
    }

    /// Validate the parameters and every knob against `family`; the
    /// `Err` message names the offending parameter, or the knob and the
    /// family it clashes with.
    fn validate(&self, family: Family) -> Result<(), MuDbscanError> {
        let DbscanParams { eps, min_pts } = self.params;
        let check_every = self.serve_opts.as_ref().and_then(|o| o.self_check_every);
        let degenerate = [
            (!(eps.is_finite() && eps > 0.0), "eps must be positive and finite"),
            // Neighbourhoods compare squared distances: with ε² = 0 no
            // point lies strictly within ε even of itself.
            (eps * eps == 0.0, "eps is so small that its square underflows to 0"),
            (min_pts == 0, "min_pts must be at least 1"),
            (self.threads == 0, "the thread count must be at least 1"),
            (self.ranks == Some(0), "the rank count must be at least 1"),
            (self.shards == Some(0), "the shard count must be at least 1"),
            (self.memory_budget == Some(0), "the memory budget must be positive"),
            (check_every == Some(0), "ServeOptions::self_check_every must be at least 1"),
        ];
        if let Some((_, msg)) = degenerate.iter().find(|(is_bad, _)| *is_bad) {
            return Err(MuDbscanError::InvalidConfig(msg.to_string()));
        }
        let bad = |knob: &str| {
            Err(MuDbscanError::InvalidConfig(format!(
                "{knob} is not supported by the {} family",
                family.name()
            )))
        };
        if !matches!(family, Family::Distributed) {
            if self.faults.is_some() {
                return bad("a fault plan");
            }
            if self.ranks.is_some() {
                return bad("a rank count");
            }
        }
        if !matches!(family, Family::Sharded) {
            if self.shards.is_some() {
                return bad("a shard count");
            }
            if self.memory_budget.is_some() {
                return bad("a memory budget");
            }
        }
        if self.disable_dynamic_promotion || self.disable_post_core_mc_skip {
            if !matches!(family, Family::MuDbscan) {
                return bad("an ablation knob");
            }
            if self.threads > 1 {
                return Err(MuDbscanError::InvalidConfig(format!(
                    "an ablation knob is not supported on {} worker threads: \
                     it needs a one-thread run",
                    self.threads
                )));
            }
        }
        if !matches!(family, Family::MuDbscan | Family::Distributed | Family::Sharded)
            && self.threads > 1
        {
            return bad("a worker-thread count");
        }
        if !matches!(family, Family::MuDbscan) && self.opts.is_some() {
            return bad("a build-options override");
        }
        if !matches!(family, Family::Serving) && self.serve_opts.is_some() {
            return bad("a serving-options override");
        }
        Ok(())
    }

    /// Validate and run in one step. Equivalent to
    /// [`Runner::run_source`] — the in-memory [`Dataset`] is just one
    /// [`DataSource`].
    pub fn run(&self, data: &Dataset) -> Result<RunOutput, MuDbscanError> {
        self.run_source(data)
    }

    /// Validate and run against any [`DataSource`] — the in-memory
    /// [`Dataset`] or a memory-mapped on-disk [`ChunkedStore`].
    ///
    /// [`Family::Sharded`] streams shards straight from the source
    /// (chunks are never materialised as one dense array); every other
    /// family needs the dense dataset, so a source that is not already
    /// a [`Dataset`] is gathered once via [`gather_dense`].
    ///
    /// ```
    /// use mudbscan::prelude::*;
    ///
    /// let data = Dataset::from_rows(&[vec![0.0], vec![0.05], vec![0.1], vec![9.0]]);
    /// let dir = std::env::temp_dir().join("mudbscan-doc-run-source");
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("tiny.muds");
    /// write_store(&data, &path, 2).unwrap();
    /// let store = ChunkedStore::open(&path).unwrap();
    ///
    /// let p = DbscanParams::new(0.2, 3);
    /// let in_mem = Runner::new(p).run(&data).unwrap();
    /// let sharded = Runner::new(p).shards(2).run_source(&store).unwrap();
    /// assert_eq!(in_mem.clustering, sharded.clustering); // bit-identical
    /// # std::fs::remove_file(&path).ok();
    /// ```
    pub fn run_source(&self, src: &dyn DataSource) -> Result<RunOutput, MuDbscanError> {
        let family = self.resolved_family();
        if family == Family::Serving {
            return Err(MuDbscanError::InvalidConfig(
                "the Serving family has no batch shape: start it with Runner::serve".into(),
            ));
        }
        self.validate(family)?;
        validate_finite(src)?;
        let dense = || match src.as_dataset() {
            Some(data) => Cow::Borrowed(data),
            None => Cow::Owned(gather_dense(src)),
        };
        Ok(match family {
            Family::MuDbscan => {
                let mut algo = MuDbscan::from_params(self.params)
                    .threads(self.threads)
                    .with_options(self.opts.unwrap_or_default());
                algo.disable_dynamic_promotion = self.disable_dynamic_promotion;
                algo.disable_post_core_mc_skip = self.disable_post_core_mc_skip;
                let out = algo.run(&dense());
                RunOutput {
                    clustering: out.clustering,
                    counters: out.counters,
                    phases: out.phases,
                    details: RunDetails::MuDbscan {
                        mc_count: out.mc_count,
                        avg_mc_size: out.avg_mc_size,
                        peak_heap_bytes: out.peak_heap_bytes,
                    },
                }
            }
            Family::Distributed => {
                let cfg = DistConfig::new(self.ranks.unwrap_or(1)).with_local_threads(self.threads);
                let mut algo = MuDbscanD::from_params(self.params, cfg);
                if let Some(faults) = self.faults.clone() {
                    algo = algo.with_faults(faults);
                }
                let out = algo.run(&dense())?;
                RunOutput {
                    clustering: out.clustering,
                    counters: out.counters,
                    phases: out.phases,
                    details: RunDetails::Distributed {
                        runtime_secs: out.runtime_secs,
                        comm_bytes: out.comm_bytes,
                        ranks: out.ranks,
                        max_rank_heap_bytes: out.max_rank_heap_bytes,
                        rank_clocks: out.rank_clocks,
                        supersteps: out.supersteps,
                        fault_stats: out.fault_stats,
                    },
                }
            }
            Family::Sharded => {
                let sharded_opts = ShardedOptions {
                    shards: self.shards,
                    memory_budget: self.memory_budget,
                    threads: self.threads,
                };
                let out = ShardedMuDbscan::new(self.params, sharded_opts).run_source(src);
                let mut phases = PhaseTimer::new();
                phases.add_secs("planning", out.plan_wall_secs);
                phases.add_secs("shard clustering", out.busy_max_secs);
                phases.add_secs("merging", out.merge_wall_secs);
                RunOutput {
                    clustering: out.clustering,
                    counters: out.counters,
                    phases,
                    details: RunDetails::Sharded {
                        n_shards: out.n_shards,
                        threads: out.threads,
                        plan_secs: out.plan_wall_secs,
                        merge_secs: out.merge_wall_secs,
                        busy_max_secs: out.busy_max_secs,
                        makespan_secs: out.makespan_secs,
                        wall_secs: out.wall_secs,
                        peak_resident_bytes: out.peak_resident_bytes,
                        halo_points: out.halo_points,
                        edges: out.edges,
                    },
                }
            }
            Family::Streaming => {
                let s = StreamingMuDbscan::from_dataset(&dense(), self.params);
                let clustering = s.canonical_snapshot();
                let counters = Counters::new();
                counters.absorb(s.counters());
                RunOutput {
                    clustering,
                    counters,
                    phases: PhaseTimer::new(),
                    details: RunDetails::Streaming,
                }
            }
            Family::Optics => {
                let data = dense();
                let out = Optics::from_params(self.params).run(&data);
                RunOutput {
                    clustering: extract_dbscan(&out, &data, self.params.eps),
                    counters: out.counters,
                    phases: out.phases,
                    details: RunDetails::Optics {
                        order: out.order,
                        reachability: out.reachability,
                        core_distance: out.core_distance,
                    },
                }
            }
            Family::Serving => unreachable!("rejected above: Serving has no batch shape"),
        })
    }

    /// Start the long-running serving engine ([`Family::Serving`]) for
    /// `dim`-dimensional points and return a [`ServeHandle`] for
    /// batched ingest (inserts, deletions, TTL expiry) and
    /// snapshot-isolated queries. The engine honours the options set
    /// via [`Runner::serve_options`] (defaults otherwise); the running
    /// engine's telemetry is polled via [`ServeHandle::stats`]. The
    /// configuration is validated like any other build: forcing a
    /// different family first, or setting a knob the serving engine
    /// cannot honour, is an [`MuDbscanError::InvalidConfig`]. See
    /// `docs/SERVING.md` for the architecture and the exactness
    /// contract.
    pub fn serve(&self, dim: usize) -> Result<ServeHandle, MuDbscanError> {
        if let Some(f) = self.family {
            if !matches!(f, Family::Serving) {
                return Err(MuDbscanError::InvalidConfig(format!(
                    "serve() starts the Serving family, but the {} family was forced",
                    f.name()
                )));
            }
        }
        self.validate(Family::Serving)?;
        if dim == 0 {
            return Err(MuDbscanError::InvalidConfig(
                "the served point dimension must be positive".into(),
            ));
        }
        let opts = self.serve_opts.clone().unwrap_or_default();
        Ok(ServingMuDbscan::spawn_with(dim, self.params, opts))
    }

    /// The sorted k-distance sample of `data` (descending): each
    /// sampled point's distance to its `k`-th nearest *other* neighbour,
    /// the curve whose knee is the classical ε-selection heuristic
    /// (Ester et al. 1996, §4.2) and the `k = MinPts` summary the bench
    /// harness exports alongside serve telemetry. Sampling strides the
    /// dataset to at most ~2048 points so the probe stays cheap on big
    /// inputs; `k` must be ≥ 1 (an [`MuDbscanError::InvalidConfig`]
    /// otherwise), and a NaN or ±∞ coordinate is an
    /// [`MuDbscanError::InvalidInput`]. The runner's density parameters do not affect the
    /// curve — only `k` and the data do.
    ///
    /// ```
    /// use mudbscan::prelude::*;
    ///
    /// let data = Dataset::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![9.0]]);
    /// let curve = Runner::new(DbscanParams::new(0.5, 2)).kdist_sample(&data, 2).unwrap();
    /// assert_eq!(curve.len(), data.len());
    /// assert!(curve.windows(2).all(|w| w[0] >= w[1]), "descending");
    /// ```
    pub fn kdist_sample(&self, data: &Dataset, k: usize) -> Result<Vec<f64>, MuDbscanError> {
        if k == 0 {
            return Err(MuDbscanError::InvalidConfig(
                "the k-distance neighbour rank must be >= 1".into(),
            ));
        }
        data.validate_finite().map_err(MuDbscanError::InvalidInput)?;
        let sample_every = (data.len() / 2048).max(1);
        Ok(mudbscan_core::k_dist_curve(data, k, sample_every))
    }
}

/// Reject a source holding a NaN or ±∞ coordinate, once, before any
/// family sees it. The message is [`Dataset::validate_finite`]'s.
fn validate_finite(src: &dyn DataSource) -> Result<(), MuDbscanError> {
    if let Some(data) = src.as_dataset() {
        return data.validate_finite().map_err(MuDbscanError::InvalidInput);
    }
    for c in 0..src.n_chunks() {
        let ch = src.chunk(c);
        for i in 0..ch.len {
            for k in 0..ch.dim {
                let x = ch.coord(i, k);
                if !x.is_finite() {
                    let point = ch.base as usize + i;
                    return Err(MuDbscanError::InvalidInput(format!(
                        "non-finite coordinate {x} at point {point}, component {k}"
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::from_rows(&[vec![0.0, 0.0], vec![0.2, 0.0], vec![0.0, 0.2], vec![8.0, 8.0]])
    }

    #[test]
    fn family_inference() {
        let p = DbscanParams::new(0.5, 3);
        assert_eq!(Runner::new(p).resolved_family(), Family::MuDbscan);
        assert_eq!(Runner::new(p).threads(4).resolved_family(), Family::MuDbscan);
        assert_eq!(Runner::new(p).ranks(4).resolved_family(), Family::Distributed);
        assert_eq!(Runner::new(p).threads(4).ranks(4).resolved_family(), Family::Distributed);
        assert_eq!(Runner::new(p).shards(4).resolved_family(), Family::Sharded);
        assert_eq!(Runner::new(p).memory_budget(1 << 20).resolved_family(), Family::Sharded);
        assert_eq!(Runner::new(p).threads(4).shards(2).resolved_family(), Family::Sharded);
        assert_eq!(Runner::new(p).family(Family::Streaming).resolved_family(), Family::Streaming);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let p = DbscanParams::new(0.5, 3);
        let plan = FaultPlan::new(1).with(Fault::Straggler { rank: 0, slowdown: 2.0 });
        for bad in [
            Runner::new(p).fault_plan(plan.clone()), // faults w/o ranks
            Runner::new(p).threads(4).fault_plan(plan), // faults on MuDbscan
            Runner::new(p).family(Family::MuDbscan).ranks(2), // ranks on forced MuDbscan
            Runner::new(p).family(Family::Optics).threads(4), // threads on Optics
            Runner::new(p).family(Family::Streaming).threads(2), // threads on Streaming
            Runner::new(p).family(Family::Streaming).options(BuildOptions::default()),
            Runner::new(p).ranks(2).options(BuildOptions::default()), // build opts on Distributed
            Runner::new(p).shards(2).options(BuildOptions::default()), // build opts on Sharded
            Runner::new(p).family(Family::Optics).options(BuildOptions::default()),
            Runner::new(p).threads(2).disable_dynamic_promotion(true), // knob on 2 threads
            Runner::new(p).ranks(2).disable_post_core_mc_skip(true),   // knob on Distributed
            Runner::new(p).family(Family::MuDbscan).shards(2),         // shards on forced MuDbscan
            Runner::new(p).family(Family::MuDbscan).threads(2).memory_budget(1 << 20),
            Runner::new(p).ranks(2).shards(2), // ranks win inference; shards clash
            Runner::new(p).family(Family::Optics).memory_budget(1 << 20),
            Runner::new(p).family(Family::Streaming).shards(2),
            Runner::new(p).shards(2).disable_dynamic_promotion(true), // knob on Sharded
            Runner::new(p).shards(2).fault_plan(FaultPlan::new(1)),   // faults on Sharded
            Runner::new(p).serve_options(ServeOptions::default()),    // serve opts on MuDbscan
            Runner::new(p).shards(2).serve_options(ServeOptions::default()),
        ] {
            match bad.run(&tiny()) {
                Err(MuDbscanError::InvalidConfig(msg)) => {
                    assert!(msg.contains("not supported"), "unexpected message: {msg}")
                }
                other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
            }
        }

        // The serving family has no batch shape.
        match Runner::new(p).family(Family::Serving).run(&tiny()).err() {
            Some(MuDbscanError::InvalidConfig(msg)) => assert!(msg.contains("Runner::serve")),
            other => panic!("batch Serving: expected InvalidConfig, got {other:?}"),
        }

        // Degenerate parameters and zero counts: a struct literal skips
        // `DbscanParams::new`'s checks, and the setters do not check. Every
        // batch family and `serve` returns InvalidConfig, never panics.
        let data = tiny();
        let families = |p: DbscanParams| {
            [
                Runner::new(p),
                Runner::new(p).threads(2),
                Runner::new(p).ranks(2),
                Runner::new(p).shards(2),
                Runner::new(p).family(Family::Streaming),
                Runner::new(p).family(Family::Optics),
            ]
        };
        let degenerate =
            [(f64::NAN, 3), (-1.0, 3), (0.0, 3), (f64::INFINITY, 3), (1e-300, 3), (0.5, 0)]
                .map(|(eps, min_pts)| DbscanParams { eps, min_pts });
        let mut bad_runners: Vec<Runner> = degenerate.iter().flat_map(|&p| families(p)).collect();
        bad_runners.extend([
            Runner::new(p).threads(0),
            Runner::new(p).shards(2).threads(0),
            Runner::new(p).ranks(0),
            Runner::new(p).shards(0),
            Runner::new(p).memory_budget(0),
        ]);
        for runner in bad_runners {
            let err = runner.run(&data).err();
            assert!(
                matches!(err, Some(MuDbscanError::InvalidConfig(_))),
                "{runner:?}: expected InvalidConfig, got {err:?}"
            );
        }
        let mut bad_serves = degenerate.map(Runner::new).to_vec();
        bad_serves.push(Runner::new(p).threads(0));
        for runner in bad_serves {
            let err = runner.serve(2).err();
            assert!(
                matches!(err, Some(MuDbscanError::InvalidConfig(_))),
                "serve {runner:?}: expected InvalidConfig, got {err:?}"
            );
        }
    }

    #[test]
    fn every_batch_family_runs_and_agrees() {
        let data = tiny();
        let p = DbscanParams::new(0.5, 3);
        let reference = naive_dbscan(&data, &p);
        for runner in [
            Runner::new(p),
            Runner::new(p).threads(2),
            Runner::new(p).ranks(2),
            Runner::new(p).shards(2),
            Runner::new(p).shards(2).threads(2).memory_budget(1 << 20),
            Runner::new(p).family(Family::Streaming),
            Runner::new(p).family(Family::Optics),
        ] {
            let family = runner.resolved_family();
            let out = runner.run(&data).unwrap_or_else(|e| panic!("{family:?}: {e}"));
            assert_eq!(out.clustering, reference, "{family:?} disagrees with the oracle");
        }
    }

    #[test]
    fn serve_handle_round_trip() {
        let data = tiny();
        let p = DbscanParams::new(0.5, 3);
        let handle = Runner::new(p).serve(2).unwrap();
        let ids =
            handle.ingest(data.iter().map(|(_, c)| ServeOp::insert(c.to_vec())).collect()).unwrap();
        assert_eq!(ids.len(), data.len());
        let drained = handle.drain().unwrap();
        assert_eq!(drained.snapshot.epoch(), 1);
        // The served epoch is bit-identical to the oracle.
        assert_eq!(*drained.snapshot.clustering(), naive_dbscan(&data, &p));
        assert_eq!(handle.membership(ids[0]), Some(Membership { cluster: Some(0), is_core: true }));
        assert_eq!(handle.membership(ids[3]), Some(Membership { cluster: None, is_core: false }));
    }

    #[test]
    fn serve_options_budget_zero_still_serves_exactly() {
        // `repair_budget: Some(0)` (a removal that needs any repair
        // region rebuilds; noise and borders that demote no core are
        // still repaired in place) must be reachable from the facade
        // and stay exact.
        let data = tiny();
        let p = DbscanParams::new(0.5, 3);
        let handle = Runner::new(p)
            .serve_options(ServeOptions { repair_budget: Some(0), ..Default::default() })
            .serve(2)
            .unwrap();
        let ids =
            handle.ingest(data.iter().map(|(_, c)| ServeOp::insert(c.to_vec())).collect()).unwrap();
        handle.ingest(vec![ServeOp::delete(ids[0])]).unwrap();
        let drained = handle.shutdown().unwrap();
        let survivors =
            Dataset::from_rows(&data.iter().skip(1).map(|(_, c)| c.to_vec()).collect::<Vec<_>>());
        let oracle = naive_dbscan(&survivors, &p);
        assert_eq!(*drained.snapshot.clustering(), oracle);
    }

    #[test]
    fn run_source_store_matches_in_memory_for_all_batch_families() {
        // A mmap-backed store fed through run_source must agree with
        // the in-memory dataset for every family: Sharded streams the
        // chunks, everything else goes through the gather_dense path.
        let data = tiny();
        let p = DbscanParams::new(0.5, 3);
        let dir = std::env::temp_dir().join("mudbscan-api-run-source");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.muds");
        write_store(&data, &path, 3).unwrap();
        let store = ChunkedStore::open(&path).unwrap();
        let reference = naive_dbscan(&data, &p);
        for runner in [
            Runner::new(p),
            Runner::new(p).threads(2),
            Runner::new(p).ranks(2),
            Runner::new(p).shards(2),
            Runner::new(p).memory_budget(1 << 20),
            Runner::new(p).family(Family::Streaming),
            Runner::new(p).family(Family::Optics),
        ] {
            let family = runner.resolved_family();
            let out = runner.run_source(&store).unwrap_or_else(|e| panic!("{family:?}: {e}"));
            assert_eq!(out.clustering, reference, "{family:?} disagrees on the store");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_open_errors_surface_as_io() {
        let dir = std::env::temp_dir().join("mudbscan-api-io-error");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bogus.muds");
        std::fs::write(&path, b"not a store").unwrap();
        let err = MuDbscanError::from(ChunkedStore::open(&path).err().expect("must fail"));
        assert!(matches!(err, MuDbscanError::Io(_)));
        assert!(err.to_string().contains("dataset store operation failed"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_bad_configurations() {
        let p = DbscanParams::new(0.5, 3);
        for bad in [
            Runner::new(p).family(Family::Optics).serve(2),
            Runner::new(p).ranks(2).serve(2),
            Runner::new(p).threads(4).serve(2),
            Runner::new(p).options(BuildOptions::default()).serve(2),
            Runner::new(p).serve(0),
        ] {
            assert!(matches!(bad, Err(MuDbscanError::InvalidConfig(_))));
        }
        // Forcing Serving explicitly is fine.
        assert!(Runner::new(p).family(Family::Serving).serve(3).is_ok());
    }

    #[test]
    fn serve_stats_poll_through_the_facade() {
        let data = tiny();
        let p = DbscanParams::new(0.5, 3);
        let handle = Runner::new(p).serve(2).unwrap();
        handle.ingest(data.iter().map(|(_, c)| ServeOp::insert(c.to_vec())).collect()).unwrap();
        handle.drain().unwrap();
        let stats = handle.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.live_points, 4);
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.window.count("serve/inserts"), 4);
        assert!(stats.render_prom().contains("mudbscan_serve_epochs 1"));
        // A second poll with nothing in between yields an empty window.
        assert_eq!(handle.stats().window.count("serve/inserts"), 0);
    }

    #[test]
    fn kdist_sample_is_descending_and_validates_k() {
        let data = tiny();
        let p = DbscanParams::new(0.5, 3);
        let curve = Runner::new(p).kdist_sample(&data, 3).unwrap();
        assert_eq!(curve.len(), data.len());
        assert!(curve.windows(2).all(|w| w[0] >= w[1]), "curve must be descending: {curve:?}");
        assert!(matches!(
            Runner::new(p).kdist_sample(&data, 0),
            Err(MuDbscanError::InvalidConfig(_))
        ));
    }

    #[test]
    fn kdist_sample_rejects_non_finite_coordinates() {
        let p = DbscanParams::new(0.5, 3);
        for bad in [f64::NAN, f64::INFINITY] {
            let data = Dataset::from_rows(&[vec![0.0, 0.0], vec![0.1, bad], vec![0.2, 0.0]]);
            match Runner::new(p).kdist_sample(&data, 2) {
                Err(MuDbscanError::InvalidInput(msg)) => {
                    assert!(msg.contains("point 1, component 1"), "{bad}: {msg}")
                }
                other => panic!("{bad}: expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn details_match_family() {
        let data = tiny();
        let p = DbscanParams::new(0.5, 3);
        let out = Runner::new(p).ranks(2).run(&data).unwrap();
        match out.details {
            RunDetails::Distributed { ranks, fault_stats, .. } => {
                assert_eq!(ranks, 2);
                assert!(fault_stats.is_quiet());
            }
            other => panic!("expected Distributed details, got {other:?}"),
        }
        let out = Runner::new(p).family(Family::Optics).run(&data).unwrap();
        match out.details {
            RunDetails::Optics { order, .. } => assert_eq!(order.len(), data.len()),
            other => panic!("expected Optics details, got {other:?}"),
        }
        let out = Runner::new(p).shards(2).run(&data).unwrap();
        match out.details {
            RunDetails::Sharded { n_shards, threads, peak_resident_bytes, .. } => {
                assert!(n_shards >= 2);
                assert_eq!(threads, 1);
                assert!(peak_resident_bytes > 0);
            }
            other => panic!("expected Sharded details, got {other:?}"),
        }
        assert!(out.phases.secs("merging") >= 0.0);
    }
}
