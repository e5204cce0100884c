//! The BSP driver: the shard programs of [`crate::merge`] run as
//! simulated ranks, charged to virtual clocks, with faults injected.
//!
//! Three supersteps, numbered as fault plans address them:
//!
//! 0. **local clustering** — every rank clusters its [`LocalView`];
//! 1. **summary** — every rank [`summarize`]s its local clustering;
//! 2. **exchange** — every rank sends its [`CrossFacts`] (core→halo
//!    edges and border candidate lists) to rank 0, which hosts the
//!    [`merge`]. The merge consumes what rank 0 actually *received*, so
//!    message faults on this step are load-bearing.
//!
//! Own core flags and core groups stay on their rank and are read by
//! the merge directly; the sharded executor runs the same summary and
//! merge on OS threads.

use cluster_sim::{Bsp, Envelope, FaultStats, RankClock};
use geom::{Dataset, DbscanParams};
use metrics::{Counters, PhaseTimer, Stopwatch};
use mudbscan::Clustering;

use crate::merge::{merge, summarize, CrossFacts, LocalView, ShardSummary};
use crate::recovery::{Checkpoint, FaultConfig};

/// What a local clustering stage returns for one rank.
pub struct LocalRun {
    /// Clustering over the rank's combined (own + halo) points; own
    /// points come first.
    pub clustering: Clustering,
    /// The rank's wall-clock phase split-up.
    pub phases: PhaseTimer,
    /// The rank's operation counters.
    pub counters: Counters,
    /// The rank's estimated peak structure bytes.
    pub peak_heap_bytes: usize,
}

impl From<baselines::BaselineOutput> for LocalRun {
    fn from(out: baselines::BaselineOutput) -> Self {
        let peak_heap_bytes = out.peak_heap_bytes;
        Self {
            clustering: out.clustering,
            phases: out.phases,
            counters: out.counters,
            peak_heap_bytes,
        }
    }
}

impl From<mudbscan::MuDbscanOutput> for LocalRun {
    fn from(out: mudbscan::MuDbscanOutput) -> Self {
        let peak_heap_bytes = out.peak_heap_bytes;
        Self {
            clustering: out.clustering,
            phases: out.phases,
            counters: out.counters,
            peak_heap_bytes,
        }
    }
}

/// A failed distributed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A rank's local stage failed (message carries rank + cause) — e.g.
    /// GridDBSCAN exceeding its memory budget.
    Local(usize, String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Local(rank, msg) => write!(f, "rank {rank}: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistOutput {
    /// The global clustering over all `n` points.
    pub clustering: Clustering,
    /// Per-phase times: `partitioning` (planner wall time), the local
    /// phases (per-phase virtual maxima over ranks), `merging` and, under
    /// faults, `recovery`.
    pub phases: PhaseTimer,
    /// Total virtual runtime *excluding* partitioning — the quantity the
    /// paper reports ("we do not include data partitioning ... while
    /// computing the speedup").
    pub runtime_secs: f64,
    /// Bytes communicated (partitioning + halos + merge facts).
    pub comm_bytes: u64,
    /// Aggregated operation counters over all ranks.
    pub counters: Counters,
    /// Number of ranks.
    pub ranks: usize,
    /// Maximum estimated per-rank structure bytes (for capacity claims).
    pub max_rank_heap_bytes: usize,
    /// Per-rank virtual-clock totals (compute/comm split and bytes),
    /// indexed by rank — the per-rank BSP timeline summary the bench
    /// schema (v3) reports.
    pub rank_clocks: Vec<RankClock>,
    /// BSP supersteps executed.
    pub supersteps: usize,
    /// Fault/recovery counters (all zero on a fault-free run). The
    /// integer fields replay deterministically for a fixed plan seed.
    pub fault_stats: FaultStats,
}

struct RankState {
    view: LocalView,
    local: Option<Result<LocalRun, String>>,
    summary: ShardSummary,
    /// Cross-partition facts received during the merge exchange (only
    /// rank 0, which hosts the merge, fills this).
    received: Vec<CrossFacts>,
}

/// Run a distributed DBSCAN over one [`LocalView`] per rank (their owned
/// ids partition `0..n`): `local` clusters one rank's combined view
/// exactly; the driver summarizes, exchanges and merges.
/// `partition_secs` is the partitioner's wall time, reported as the
/// `partitioning` phase; the bytes it moved are derived from the views:
/// owned points that left their initial contiguous block, plus every
/// halo copy.
///
/// With `faults`, the BSP engine injects the configured [`FaultConfig`]
/// and this driver recovers every crash: a rank lost during the local
/// stage re-requests its ε-halo (idempotent — nobody observed partial
/// state) and re-executes the deterministic `local` closure; a rank
/// lost during the summary restores its post-local-stage [`Checkpoint`]
/// and re-runs only the summary queries. Either way the recovered output
/// is bit-identical to the fault-free run, and all recovery work is
/// charged to the virtual clock under a `recovery` phase.
pub fn run_distributed(
    views: Vec<LocalView>,
    partition_secs: f64,
    params: &DbscanParams,
    faults: Option<&FaultConfig>,
    local: impl Fn(&Dataset) -> Result<LocalRun, String>,
) -> Result<DistOutput, DistError> {
    let p = views.len();
    let n: usize = views.iter().map(LocalView::own_len).sum();
    let part_bytes = partition_bytes(&views);
    let states: Vec<RankState> = views
        .into_iter()
        .map(|view| RankState {
            view,
            local: None,
            summary: ShardSummary::default(),
            received: Vec::new(),
        })
        .collect();

    let run_span = obs::span!("dist");
    let mut bsp = Bsp::new(states);
    if let Some(fc) = faults {
        bsp = bsp.with_fault_plan(fc.plan.clone()).with_retry(fc.retry);
    }

    // The local-stage superstep body — shared with crash recovery, which
    // re-executes exactly this closure on the replacement rank.
    let local_step = |_r: usize, s: &mut RankState| s.local = Some(local(&s.view.combined));

    // Superstep 0: local clustering.
    let local_span = obs::span!("local_clustering");
    bsp.phase("local_clustering");
    bsp.run(local_step);

    // Recover ranks that crashed during local clustering: the
    // replacement re-requests the ε-halo (its owned partition is
    // durable) and re-runs the deterministic local stage from scratch.
    for r in bsp.crashed_ranks() {
        bsp.phase("recovery");
        let view = &bsp.states()[r].view;
        let halo_bytes = view.halo_ids.len() * (view.combined.dim() * 8 + 4);
        bsp.charge_recovery_comm(r, halo_bytes as u64);
        bsp.recover(r, local_step);
    }
    for (r, s) in bsp.states().iter().enumerate() {
        if let Some(Err(msg)) = &s.local {
            return Err(DistError::Local(r, msg.clone()));
        }
    }
    drop(local_span);

    // Snapshot every rank's local result so a crash later in the
    // program restores state instead of recomputing the whole local
    // stage (capture itself models an async write to stable storage and
    // is not charged; the restore transfer is).
    let checkpoints: Vec<Option<Checkpoint>> = if faults.is_some() {
        bsp.states()
            .iter()
            .map(|s| s.local.as_ref()?.as_ref().ok().map(Checkpoint::capture))
            .collect()
    } else {
        Vec::new()
    };

    // Superstep 1: every rank summarizes its local clustering.
    let merge_span = obs::span!("merging");
    bsp.phase("merging");
    let eps = params.eps;
    let summary_step = |_r: usize, s: &mut RankState| {
        if let Some(Ok(run)) = &s.local {
            s.summary = summarize(&s.view, &run.clustering, eps, &run.counters);
        }
    };
    bsp.run(summary_step);

    // Recover ranks that crashed during the summary: fail-stop lost the
    // rank's volatile memory, so restore the post-local-stage checkpoint
    // (charged as a transfer) and re-run only the summary queries.
    for r in bsp.crashed_ranks() {
        bsp.phase("recovery");
        let ck = checkpoints[r].as_ref().expect("rank checkpointed after the local stage");
        bsp.states_mut()[r].local = None;
        bsp.charge_recovery_comm(r, ck.byte_size() as u64);
        bsp.recover(r, |r, s| {
            s.local = Some(Ok(ck.restore()));
            summary_step(r, s);
        });
    }
    let edges: u64 = bsp.states().iter().map(|s| s.summary.cross.edges.len() as u64).sum();
    let halo_points: u64 = bsp.states().iter().map(|s| s.summary.halo_len as u64).sum();

    // Superstep 2: send the cross-partition facts to rank 0, which
    // hosts the merge and keeps what it actually RECEIVED — drops,
    // duplicates and reorders must be healed by the delivery layer for
    // the merge to stay exact.
    bsp.phase("merging");
    bsp.exchange(
        |_r, s: &mut RankState| {
            let cross = std::mem::take(&mut s.summary.cross);
            if cross.is_empty() {
                Vec::new()
            } else {
                vec![Envelope::new(0, cross)]
            }
        },
        |r, s: &mut RankState, inbox: Vec<(usize, CrossFacts)>| {
            if r == 0 {
                s.received.extend(inbox.into_iter().map(|(_src, cross)| cross));
            }
        },
    );

    // The merge (orchestrator side, timed into "merging").
    let sw = Stopwatch::start();
    let counters = Counters::new();
    let states = bsp.states();
    let clustering =
        merge(n, states.iter().map(|s| &s.summary.own), &states[0].received, &counters);
    let runs = || states.iter().filter_map(|s| s.local.as_ref()?.as_ref().ok());
    for run in runs() {
        counters.absorb(&run.counters);
    }
    let merge_secs = sw.secs();
    drop(merge_span);

    // Assemble the phase report: partitioning + per-phase local maxima +
    // merging.
    let mut phases = PhaseTimer::new();
    phases.add_secs("partitioning", partition_secs);
    let mut local_max = PhaseTimer::new();
    for run in runs() {
        local_max.max_merge(&run.phases);
    }
    let max_heap = runs().map(|run| run.peak_heap_bytes).max().unwrap_or(0);
    for (name, d) in local_max.iter() {
        phases.add(name, d);
    }
    phases.add_secs("merging", bsp.phase_times().secs("merging") + merge_secs);
    let recovery_secs = bsp.phase_times().secs("recovery");
    if recovery_secs > 0.0 {
        phases.add_secs("recovery", recovery_secs);
    }
    let runtime_secs = phases.total_secs() - phases.secs("partitioning");

    let comm_bytes = part_bytes + bsp.comm_bytes();
    if obs::enabled() {
        obs::record_count("dist/ranks", p as u64);
        obs::record_count("dist/comm_bytes", comm_bytes);
        obs::record_count("dist/edges", edges);
        obs::record_count("dist/halo_points", halo_points);
        obs::record_value("dist/virtual_makespan_secs", bsp.makespan());
        obs::record_value("dist/merge_replay_secs", merge_secs);
    }
    let fault_stats = bsp.fault_stats().clone();
    if obs::enabled() && !fault_stats.is_quiet() {
        obs::record_value("recovery/virtual_secs", phases.secs("recovery"));
        obs::record_count("recovery/bytes", fault_stats.recovery_comm_bytes);
    }
    drop(run_span);

    Ok(DistOutput {
        clustering,
        phases,
        runtime_secs,
        comm_bytes,
        counters,
        ranks: p,
        max_rank_heap_bytes: max_heap,
        rank_clocks: bsp.rank_clocks().to_vec(),
        supersteps: bsp.steps(),
        fault_stats,
    })
}

/// Bytes a partitioning moves between ranks: owned points that leave
/// their initial contiguous block (parallel I/O hands rank `r` the ids
/// `r·⌈n/p⌉..`) plus every halo copy; a point travels as its 4-byte id
/// and its 8-byte coordinates.
fn partition_bytes(views: &[LocalView]) -> u64 {
    let n: usize = views.iter().map(LocalView::own_len).sum();
    let block = n.div_ceil(views.len()).max(1);
    let mut points = 0usize;
    for (r, view) in views.iter().enumerate() {
        points += view.ids.iter().filter(|&&id| id as usize / block != r).count();
        points += view.halo_ids.len();
    }
    let point_bytes = views.first().map_or(0, |v| v.combined.dim() * 8 + 4);
    (points * point_bytes) as u64
}
