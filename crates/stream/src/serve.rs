//! The concurrent serving layer: snapshot-isolated ingest/query engine.
//!
//! [`ServingMuDbscan`] turns the insertion-incremental engine into a
//! long-running service. A single **writer thread** owns a private
//! [`StreamingMuDbscan`] and applies batched operations — inserts plus
//! the deletion/TTL-expiry capability the bare streaming engine does
//! not have — then publishes an immutable epoch [`Snapshot`] through an
//! RCU-style pointer swap. The snapshot shares the engine's own
//! micro-cluster index — the level-1 center grid and one member block
//! per MC — and the writer's id tables by [`Arc`], and owns only its
//! clustering and a live-position table: the writer's first write to a
//! shared block or to the grid copies only that block or the grid, so
//! an epoch copies the blocks its operations change, not the live set,
//! and [`Snapshot::dataset`]/[`Snapshot::live_ids`] are built on first
//! call. Any number of concurrent readers answer ε-neighbourhood and
//! cluster-membership lookups against the snapshot they pinned, never
//! blocking on writer compute. The writer frees a replaced epoch one
//! publish later, unless a reader still pins it (then plain [`Arc`]
//! reclamation frees it when that reader lets go): a reader thus never
//! pays for freeing a snapshot inside its timed query.
//!
//! **Exactness contract.** Every published epoch's clustering is
//! *bit-identical* (`==` on [`Clustering`]) to a batch
//! `Runner`/[`StreamingMuDbscan::from_dataset`] run on the points live
//! at that epoch, in insertion order. Two mechanisms pay for this:
//!
//! * inserts are applied incrementally, then the writer publishes
//!   [`StreamingMuDbscan::canonical_snapshot`], which resolves border
//!   ties to the batch answer through the engine's maintained anchors
//!   (no ε-query per epoch);
//! * deletions and TTL expiries are applied per-op through the
//!   engine's exact [`StreamingMuDbscan::try_remove`] — a
//!   **micro-cluster-local repair** that tombstones the point, demotes
//!   cores falling below MinPts, and walks the surviving core graph
//!   from the cores around the removed ones only as far as it takes
//!   to find the pieces a split leaves. When a removal's blast radius
//!   exceeds the repair budget ([`ServeOptions::repair_budget`]), the
//!   writer falls back to one **exact full rebuild** over the
//!   compacted live set (the parallel bulk loader), so worst cases
//!   stay exact and cheap cases stay local. A rebuild is also used to
//!   compact tombstones once they outnumber the live points.
//!
//! **Epochs and TTL.** The epoch counter is a deterministic logical
//! clock: it advances by one per applied batch, never by wall time. A
//! point inserted in epoch `e` with `ttl = d` (rounded up to ≥ 1, see
//! [`ServeOp::insert_ttl`]) is excluded from every snapshot of epoch
//! ≥ `e + d`. Deletes refer to the external ids handed out by
//! [`ServeHandle::ingest`] and apply to points live at the start of
//! the batch; unknown or already-dead ids are counted
//! (`serve/deletes_ignored`) and skipped, because ingest is
//! asynchronous and cannot report per-op errors.
//!
//! Per-operation latencies are recorded into `obs` histograms
//! (`serve/ingest_batch_us`, `serve/publish_us`, `serve/query_us`,
//! `serve/membership_us`) when collection is enabled — the bench
//! harness reports their p50/p99. The removal path records its own
//! census: `serve/repairs` and `serve/repair_touched_points` for the
//! local path, `serve/fallback_rebuilds` for budget-exceeded rebuilds,
//! and `serve/rebuilds` for full rebuilds of any cause (fallback or
//! tombstone compaction).
//!
//! **Live telemetry.** Independently of the global `obs` switch, every
//! engine owns an [`obs::Registry`]: the writer feeds it the same
//! per-epoch census (one batched update per epoch, so counters never
//! tear) and readers feed it query/membership latencies.
//! [`ServeHandle::stats`] polls it through a shared
//! [`obs::WindowCursor`] — each poll returns the delta since the
//! previous poll plus the cumulative totals, and the windows of any
//! poll sequence sum back to the cumulative counters bit-identically
//! (the window algebra pinned in `obs::live`). The writer also digests
//! every epoch into a bounded [`obs::FlightRecorder`]; on a writer
//! panic, a poisoned snapshot lock, or detected exactness drift
//! ([`ServeOptions::self_check_every`]) the ring is dumped as a
//! schema'd postmortem artifact under [`ServeOptions::postmortem_dir`]
//! (`results/postmortem/` by default), and [`ServeHandle::dump_postmortem`]
//! does the same on demand.
//!
//! Entry points: `Runner::serve` on the facade (preferred; see
//! `docs/SERVING.md`) or [`ServingMuDbscan::spawn`] directly.

use crate::incremental::{eps_query, RemoveOutcome, StreamingMuDbscan};
use geom::{Dataset, DbscanParams, PointBlock, PointId};
use mcs::CenterGrid;
use metrics::Counters;
use mudbscan::Clustering;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// External id of a served point: assigned at [`ServeHandle::ingest`]
/// time, stable across rebuilds (internal [`PointId`]s are not).
pub type ExtId = u64;

/// One operation inside an ingest batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOp {
    /// Insert a point, optionally expiring after `ttl` epochs (rounded
    /// up to ≥ 1): inserted in epoch `e`, it is live in snapshots
    /// `e .. e + ttl` and gone from epoch `e + ttl` on.
    Insert {
        /// Point coordinates (must match the engine dimension).
        coords: Vec<f64>,
        /// Expiry in logical epochs, `None` to live forever.
        ttl: Option<u64>,
    },
    /// Delete a previously ingested point by external id. Unknown or
    /// already-dead ids are skipped (and counted under
    /// `serve/deletes_ignored`).
    Delete {
        /// The external id returned by [`ServeHandle::ingest`].
        id: ExtId,
    },
}

impl ServeOp {
    /// An insert with no expiry.
    pub fn insert(coords: Vec<f64>) -> Self {
        ServeOp::Insert { coords, ttl: None }
    }

    /// An insert expiring `ttl` epochs after its batch.
    ///
    /// **Edge semantics.** `ttl` is *rounded up to 1*: a point cannot
    /// both be inserted and expire inside the same batch, because
    /// expiries run at the *start* of a batch (before its inserts), so
    /// the earliest an insert can die is the start of the *next* epoch.
    /// `insert_ttl(c, 0)` therefore behaves exactly like
    /// `insert_ttl(c, 1)` — live in its own epoch, gone from the next.
    /// At the other edge, the expiry epoch saturates: a huge `ttl`
    /// (e.g. `u64::MAX`) never overflows and simply means "lives
    /// forever", identical to [`ServeOp::insert`].
    pub fn insert_ttl(coords: Vec<f64>, ttl: u64) -> Self {
        ServeOp::Insert { coords, ttl: Some(ttl) }
    }

    /// A delete by external id.
    pub fn delete(id: ExtId) -> Self {
        ServeOp::Delete { id }
    }
}

/// Tuning knobs for the serving writer ([`ServingMuDbscan::spawn_with`]).
///
/// The defaults are what [`ServingMuDbscan::spawn`] uses; every option
/// only affects *performance or telemetry*, never published results —
/// the exactness contract holds for any configuration. (The two
/// `*_at` fault-injection hooks deliberately break the *service*, not
/// its answers: they exist so the postmortem path is testable.)
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Largest repair region a single removal may trigger before the
    /// writer falls back to a full rebuild of the epoch. A region is
    /// the surviving points a repair examines: the demoted cores, the
    /// cores its walk reaches and the non-cores it re-anchors
    /// ([`crate::RemoveOutcome`]).
    ///
    /// * `None` — adaptive default: half the live set, floor 256.
    /// * `Some(0)` — no surviving point may be examined: the first
    ///   removal in a batch that needs any repair region falls back to
    ///   one full rebuild, which also absorbs the batch's remaining
    ///   removals. Removals that need none still commit locally and
    ///   count as repairs: a noise point, and a border whose removal
    ///   demotes no core. Used by the conformance suite as the
    ///   rebuild-heavy arm.
    /// * `Some(k)` — fixed threshold of `k` surviving points.
    pub repair_budget: Option<usize>,
    /// Flight-recorder capacity: how many recent entries (epoch digests
    /// and notes) the postmortem ring retains. Clamped to ≥ 1.
    /// Default 256.
    pub recorder_capacity: usize,
    /// Where postmortem artifacts are written (`None` → the repo-local
    /// `results/postmortem/`). The directory is created on first dump.
    pub postmortem_dir: Option<PathBuf>,
    /// Run the engine's exactness self-check
    /// ([`StreamingMuDbscan::verify_against_batch`]) every `k` epochs
    /// (`Some(k)`, `k ≥ 1`; `Runner::serve` rejects `Some(0)`). A
    /// failed check counts `serve/exactness_drift` in the live registry
    /// and dumps a postmortem. The check costs a full batch re-cluster,
    /// so it is off (`None`) by default — an auditing knob, not a
    /// production default.
    pub self_check_every: Option<u64>,
    /// Fault injection: treat this epoch's self-check as having
    /// detected drift even though the engine is exact, exercising the
    /// full drift-dump path. Test/CI hook; leave `None`.
    pub force_drift_at: Option<u64>,
    /// Fault injection: panic the writer thread at the start of this
    /// epoch, exercising the panic-dump path (subsequent ingest/drain
    /// calls return [`ServeError::WriterGone`]). Test/CI hook; leave
    /// `None`.
    pub panic_at_epoch: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            repair_budget: None,
            recorder_capacity: 256,
            postmortem_dir: None,
            self_check_every: None,
            force_drift_at: None,
            panic_at_epoch: None,
        }
    }
}

impl ServeOptions {
    /// The effective repair budget at a given live population.
    /// `Some(0)` allows no examined survivor, so only removals with an
    /// empty repair region (noise, or a border that demotes no core)
    /// commit without a rebuild.
    fn budget_at(&self, live: usize) -> usize {
        self.repair_budget.unwrap_or_else(|| (live / 2).max(256))
    }
}

/// Cluster membership of one live point inside a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    /// Dense cluster label of the snapshot's clustering, `None` for
    /// noise.
    pub cluster: Option<u32>,
    /// Whether the point is a core point.
    pub is_core: bool,
}

/// Everything the serving layer can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Coordinates of the wrong dimensionality were passed to ingest or
    /// query.
    DimensionMismatch {
        /// The engine dimension fixed at spawn time.
        expected: usize,
        /// The offending slice length.
        got: usize,
    },
    /// A coordinate passed to ingest or query is NaN or ±∞. Such a point
    /// has no place in the long-lived index (it would poison every
    /// bounding box above it), so the whole batch is rejected.
    NonFiniteCoordinate {
        /// The axis of the first offending coordinate within its point.
        axis: usize,
    },
    /// The writer thread is gone: every handle was dropped and
    /// re-created impossibly, or the writer panicked. Pinned snapshots
    /// remain readable; ingest/drain cannot proceed.
    WriterGone,
    /// A postmortem artifact could not be written (I/O failure on
    /// [`ServeOptions::postmortem_dir`]). Carries the rendered I/O
    /// error; the engine itself keeps serving.
    Postmortem {
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: engine serves {expected}-d points, got {got}-d")
            }
            ServeError::NonFiniteCoordinate { axis } => {
                write!(f, "non-finite coordinate on axis {axis}: NaN and ±∞ are rejected")
            }
            ServeError::WriterGone => write!(f, "the serving writer thread has shut down"),
            ServeError::Postmortem { message } => {
                write!(f, "failed to write the postmortem artifact: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Validate one point's coordinates against the engine dimension.
fn check_coords(dim: usize, coords: &[f64]) -> Result<(), ServeError> {
    if coords.len() != dim {
        return Err(ServeError::DimensionMismatch { expected: dim, got: coords.len() });
    }
    match coords.iter().position(|x| !x.is_finite()) {
        Some(axis) => Err(ServeError::NonFiniteCoordinate { axis }),
        None => Ok(()),
    }
}

/// An immutable published epoch: the live points, their canonical
/// clustering, and the engine's micro-cluster index for ε-queries. Cheap
/// to pin (one `Arc` clone) and safe to read from any thread; it never
/// changes after publication.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    dim: usize,
    params: DbscanParams,
    /// The writer's *writer-internal* id → external id table at this
    /// epoch (tombstoned ids keep their slot), shared by `Arc` like
    /// `mcs`.
    ext: Arc<Vec<ExtId>>,
    /// The writer's external id → *writer-internal* id map of the live
    /// points at this epoch, shared by `Arc` like `mcs`.
    lookup: Arc<HashMap<ExtId, PointId>>,
    clustering: Clustering,
    /// The engine's level-1 center grid at this epoch, shared by `Arc`
    /// until the writer adds a center.
    level1: Arc<CenterGrid>,
    /// The engine's MC member blocks at this epoch; items are
    /// *writer-internal* ids of live points. Each block is shared by
    /// `Arc` with the writer until the writer's next push into it or
    /// removal from it.
    mcs: Vec<Arc<PointBlock>>,
    /// Writer-internal id → the point's position among the live points in
    /// insertion order, which indexes the clustering's labels (`u32::MAX`
    /// for tombstoned ids, which no block holds).
    compact: Vec<u32>,
    /// [`Self::dataset`] and [`Self::live_ids`], built on first call from
    /// `mcs` and `ext`: serving reads need neither.
    data: OnceLock<Dataset>,
    live: OnceLock<Vec<ExtId>>,
}

impl Snapshot {
    fn empty(dim: usize, params: DbscanParams) -> Self {
        Snapshot {
            epoch: 0,
            dim,
            params,
            ext: Arc::default(),
            lookup: Arc::default(),
            clustering: Clustering::from_union_find(&mut unionfind::UnionFind::new(0), Vec::new()),
            level1: Arc::new(CenterGrid::new(dim, params.eps)),
            mcs: Vec::new(),
            compact: Vec::new(),
            data: OnceLock::new(),
            live: OnceLock::new(),
        }
    }

    /// The logical epoch this snapshot was published at (0 = the empty
    /// pre-ingest snapshot; +1 per applied batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The density parameters the engine serves.
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.clustering.labels.len()
    }

    /// True when no points are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live points, in insertion order. Running a batch `Runner` on
    /// this dataset reproduces [`Self::clustering`] bit-identically —
    /// that is the serving exactness contract, pinned by the
    /// conformance suite. Built from the member blocks on the first call.
    pub fn dataset(&self) -> &Dataset {
        self.data.get_or_init(|| {
            let dim = self.dim;
            let mut coords = vec![0.0; self.len() * dim];
            for block in &self.mcs {
                for row in 0..block.len() {
                    let at = self.compact[block.item(row) as usize] as usize * dim;
                    block.write_point(row, &mut coords[at..at + dim]);
                }
            }
            Dataset::from_flat(dim, coords)
        })
    }

    /// External ids of the live points, parallel to [`Self::dataset`].
    /// Built on the first call.
    pub fn live_ids(&self) -> &[ExtId] {
        self.live.get_or_init(|| {
            let live = self.compact.iter().zip(self.ext.iter()).filter(|(&c, _)| c != u32::MAX);
            live.map(|(_, &id)| id).collect()
        })
    }

    /// The canonical clustering of the live points (labels indexed by
    /// dataset position, not external id).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// External ids strictly within ε of `coords`, sorted ascending.
    /// Coordinates of the wrong dimension, or NaN/±∞ ones, are rejected.
    pub fn query(&self, coords: &[f64]) -> Result<Vec<ExtId>, ServeError> {
        check_coords(self.dim, coords)?;
        let mut ids: Vec<ExtId> = Vec::new();
        // The engine's own ε-query; its distance count is the writer's
        // to keep, so a reader drops it.
        let _ = eps_query(&self.level1, &self.mcs, self.params.eps, coords, |p| {
            ids.push(self.ext[p as usize]);
        });
        // Sort the external ids themselves: two handles can reserve ids
        // in one order and send their batches in the other, so insertion
        // order does not follow external-id order.
        ids.sort_unstable();
        Ok(ids)
    }

    /// Cluster membership of a live point, `None` when the id is
    /// unknown, deleted, or expired in this epoch.
    pub fn membership(&self, id: ExtId) -> Option<Membership> {
        let i = self.compact[*self.lookup.get(&id)? as usize] as usize;
        let label = self.clustering.labels[i];
        Some(Membership {
            cluster: (label != mudbscan::NOISE).then_some(label),
            is_core: self.clustering.is_core[i],
        })
    }
}

/// What [`ServeHandle::drain`] returns: the snapshot current once every
/// previously enqueued batch was applied, plus a copy of the writer's
/// operation counters up to that point.
#[derive(Debug)]
pub struct Drained {
    /// The post-drain snapshot (also installed as current).
    pub snapshot: Arc<Snapshot>,
    /// Writer-side operation counters (queries, distances, unions)
    /// accumulated by the streaming engine, rebuilds included.
    pub counters: Counters,
}

enum Cmd {
    Batch { ops: Vec<ServeOp>, ids: Vec<ExtId> },
    Flush { ack: Sender<Drained> },
}

struct Shared {
    dim: usize,
    current: Mutex<Arc<Snapshot>>,
    next_id: AtomicU64,
    /// Live-metrics registry: written by the writer (per-epoch census,
    /// one batched update) and readers (per-op latencies), polled by
    /// [`ServeHandle::stats`]. Always on — independent of the global
    /// `obs` switch.
    registry: obs::Registry,
    /// The engine-wide window cursor behind [`ServeHandle::stats`]: all
    /// pollers share it, so their windows partition the metric stream.
    cursor: Mutex<obs::WindowCursor>,
    /// Flight recorder of recent epoch digests and fault notes.
    recorder: obs::FlightRecorder,
    /// Where fault dumps and on-demand postmortems land.
    postmortem_dir: PathBuf,
}

/// One poll of a serving engine's live telemetry
/// ([`ServeHandle::stats`]): the published state plus the metric window
/// since the previous poll and the cumulative totals, all coherent.
///
/// The windows of successive polls (across *all* handles — the cursor
/// is engine-wide) partition the metric stream: merging them
/// reproduces `cumulative`'s counters and histograms bit-identically.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Epoch of the snapshot current at poll time.
    pub epoch: u64,
    /// Live points in that snapshot.
    pub live_points: u64,
    /// Clusters in that snapshot.
    pub clusters: u64,
    /// Metrics accumulated since the previous `stats()` poll
    /// (everything since spawn, on the engine's first poll).
    pub window: obs::Report,
    /// Cumulative metrics since spawn, as of this poll.
    pub cumulative: obs::Report,
}

impl ServeStats {
    /// Local repairs performed since spawn.
    pub fn repairs(&self) -> u64 {
        self.cumulative.count("serve/repairs")
    }

    /// Budget-exceeded fallback rebuilds since spawn.
    pub fn fallback_rebuilds(&self) -> u64 {
        self.cumulative.count("serve/fallback_rebuilds")
    }

    /// Exactness-drift detections since spawn (0 unless a self-check
    /// failed — see [`ServeOptions::self_check_every`]).
    pub fn drift_detections(&self) -> u64 {
        self.cumulative.count("serve/exactness_drift")
    }

    /// The `q`-quantile (in [0, 1]) of a latency histogram **within
    /// this window** — e.g. `window_percentile("serve/query_us", 0.99)`
    /// for the p99 query latency since the last poll. 0 when the
    /// histogram has no samples in the window.
    pub fn window_percentile(&self, hist: &str, q: f64) -> u64 {
        self.window.hist(hist).map_or(0, |h| h.percentile(q))
    }

    /// The cumulative totals as a Prometheus-style text exposition
    /// (prefix `mudbscan`), ready to serve from a `/metrics` endpoint.
    pub fn render_prom(&self) -> String {
        obs::render_prom(&self.cumulative, "mudbscan")
    }
}

/// Joins the writer thread when the last [`ServeHandle`] drops. The
/// handle's command sender is declared before this guard, so by the
/// time the final guard drops the channel is closed and the writer is
/// already exiting.
struct WriterGuard {
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for WriterGuard {
    fn drop(&mut self) {
        // Poison recovery is uniform across the serving layer: a panic
        // in some other thread must not leak the writer thread here.
        let mut slot = self.handle.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = slot.take() {
            let _ = h.join();
        }
    }
}

/// A clonable, thread-safe handle to a running [`ServingMuDbscan`].
///
/// Ingest enqueues to the writer and returns immediately with the
/// assigned external ids; queries and membership lookups pin the
/// current [`Snapshot`] and answer from it without ever waiting on
/// writer compute. Dropping the last handle shuts the writer down and
/// joins it.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    // Field order matters: `tx` must drop before `writer` so the last
    // handle closes the channel (stopping the writer) before joining.
    tx: Sender<Cmd>,
    // Held only for its drop-on-last-handle join; never read.
    #[allow(dead_code)]
    writer: Arc<WriterGuard>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle").field("dim", &self.shared.dim).finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// Enqueue one batch of operations; the batch becomes one epoch.
    /// Returns the external ids assigned to the batch's inserts, in op
    /// order, without waiting for the batch to be applied (see
    /// [`Self::drain`] for the rendezvous).
    ///
    /// The whole batch is validated before any id is assigned: an insert
    /// of the wrong dimension or with a NaN/±∞ coordinate rejects the
    /// batch and burns no id, so ids stay dense.
    pub fn ingest(&self, ops: Vec<ServeOp>) -> Result<Vec<ExtId>, ServeError> {
        let mut inserts = 0u64;
        for op in &ops {
            if let ServeOp::Insert { coords, .. } = op {
                check_coords(self.shared.dim, coords)?;
                inserts += 1;
            }
        }
        let first = self.shared.next_id.fetch_add(inserts, Ordering::Relaxed);
        let ids: Vec<ExtId> = (first..first + inserts).collect();
        self.tx.send(Cmd::Batch { ops, ids: ids.clone() }).map_err(|_| ServeError::WriterGone)?;
        Ok(ids)
    }

    /// Pin the current snapshot: one `Arc` clone under a lock held for
    /// two reference-count operations — readers never wait on writer
    /// compute, and the epoch stays alive (and immutable) for as long
    /// as the returned `Arc` does.
    pub fn pin(&self) -> Arc<Snapshot> {
        self.shared.current.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The epoch of the currently published snapshot.
    pub fn snapshot_epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// ε-neighbourhood lookup against the current snapshot: external
    /// ids strictly within ε of `coords`. Records `serve/query_us`
    /// (live registry always, global `obs` when enabled).
    pub fn query(&self, coords: &[f64]) -> Result<Vec<ExtId>, ServeError> {
        let t = Instant::now();
        let out = self.pin().query(coords);
        let us = t.elapsed().as_micros() as u64;
        obs::record_hist("serve/query_us", us);
        self.shared.registry.record_hist("serve/query_us", us);
        out
    }

    /// Cluster membership of `id` in the current snapshot (`None` for
    /// unknown, deleted, or expired ids). Records `serve/membership_us`
    /// (live registry always, global `obs` when enabled).
    pub fn membership(&self, id: ExtId) -> Option<Membership> {
        let t = Instant::now();
        let out = self.pin().membership(id);
        let us = t.elapsed().as_micros() as u64;
        obs::record_hist("serve/membership_us", us);
        self.shared.registry.record_hist("serve/membership_us", us);
        out
    }

    /// Poll the live telemetry: the published epoch's headline numbers
    /// plus the metric window since the previous `stats()` call (on any
    /// handle — the cursor is engine-wide) and the cumulative totals.
    /// Non-draining and cheap; safe to call from a dashboard loop while
    /// readers and the writer race. The windows of all polls sum back
    /// to the cumulative counters bit-identically.
    pub fn stats(&self) -> ServeStats {
        let snap = self.pin();
        let live = self
            .shared
            .cursor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .poll(&self.shared.registry);
        ServeStats {
            epoch: snap.epoch(),
            live_points: snap.len() as u64,
            clusters: snap.clustering().n_clusters as u64,
            window: live.window,
            cumulative: live.cumulative,
        }
    }

    /// Dump the flight recorder to a postmortem artifact on demand
    /// (reason `"on_demand"`) and return its path. The writer dumps
    /// automatically on panic, poisoned snapshot lock, and detected
    /// exactness drift; this is for capturing state while healthy.
    pub fn dump_postmortem(&self) -> Result<PathBuf, ServeError> {
        self.shared
            .recorder
            .dump_to_dir(&self.shared.postmortem_dir, "on_demand")
            .map_err(|e| ServeError::Postmortem { message: e.to_string() })
    }

    /// Rendezvous with the writer: blocks until every batch enqueued
    /// before this call has been applied and published, then returns
    /// that snapshot plus the writer's counters. Batches enqueued
    /// concurrently by other handles may or may not be included.
    pub fn drain(&self) -> Result<Drained, ServeError> {
        let (ack, rx) = mpsc::channel();
        self.tx.send(Cmd::Flush { ack }).map_err(|_| ServeError::WriterGone)?;
        rx.recv().map_err(|_| ServeError::WriterGone)
    }

    /// Drain, then drop this handle. When it is the last handle the
    /// writer thread exits and is joined before this returns.
    pub fn shutdown(self) -> Result<Drained, ServeError> {
        let out = self.drain()?;
        drop(self);
        Ok(out)
    }
}

/// The writer-side engine: owns the private [`StreamingMuDbscan`] plus
/// the external-id / TTL bookkeeping, applies one enqueued batch per
/// epoch, and publishes immutable [`Snapshot`]s. Constructed only via
/// [`ServingMuDbscan::spawn`], which moves it onto its writer thread.
pub struct ServingMuDbscan {
    shared: Arc<Shared>,
    rx: Receiver<Cmd>,
    /// The engine. Its micro-cluster index (center grid plus member
    /// blocks) is also the ε-index every published [`Snapshot`] answers
    /// from, shared by `Arc` block by block.
    stream: StreamingMuDbscan,
    opts: ServeOptions,
    /// Internal id → external id, parallel to the stream's dataset
    /// (tombstoned ids keep their slot until a compacting rebuild);
    /// shared with every published [`Snapshot`] by `Arc` and copied on
    /// write, like `lookup`.
    ext: Arc<Vec<ExtId>>,
    /// Internal id → first epoch the point is dead in (`u64::MAX` =
    /// lives forever).
    expire_at: Vec<u64>,
    /// External id → internal id, live points only; shared with every
    /// published [`Snapshot`] by `Arc` and copied on write, like `ext`.
    lookup: Arc<HashMap<ExtId, PointId>>,
    /// The snapshot the last publish replaced. The writer drops it at
    /// the start of the next publish, outside the lock: by then readers
    /// have usually let go of it, so freeing it (and the blocks, grid
    /// and id tables only it still holds) costs the writer, not a
    /// reader's timed query.
    retired: Option<Arc<Snapshot>>,
    epoch: u64,
    /// One-shot latch: the first poisoned-lock publish dumps a
    /// postmortem; later publishes through the same poisoned lock
    /// proceed silently (the fault was already recorded).
    poison_dumped: bool,
}

/// Armed for the writer thread's whole life: when the writer unwinds
/// (a real bug or [`ServeOptions::panic_at_epoch`]), the probe's `Drop`
/// runs during the panic and dumps the flight recorder so the last
/// epochs' digests survive the crash.
struct PanicProbe {
    shared: Arc<Shared>,
}

impl Drop for PanicProbe {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.recorder.note("serving writer panicked");
            let _ = self.shared.recorder.dump_to_dir(&self.shared.postmortem_dir, "writer_panic");
        }
    }
}

impl ServingMuDbscan {
    /// Spawn the writer thread for a `dim`-dimensional engine and
    /// return the first handle to it. Prefer `Runner::serve` on the
    /// facade, which validates the configuration first.
    pub fn spawn(dim: usize, params: DbscanParams) -> ServeHandle {
        Self::spawn_with(dim, params, ServeOptions::default())
    }

    /// [`Self::spawn`] with explicit tuning knobs — results are
    /// identical for any [`ServeOptions`], only the repair/rebuild
    /// trade-off changes.
    pub fn spawn_with(dim: usize, params: DbscanParams, opts: ServeOptions) -> ServeHandle {
        assert!(dim > 0, "dimension must be positive");
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            dim,
            current: Mutex::new(Arc::new(Snapshot::empty(dim, params))),
            next_id: AtomicU64::new(0),
            registry: obs::Registry::new(),
            cursor: Mutex::new(obs::WindowCursor::new()),
            recorder: obs::FlightRecorder::new(opts.recorder_capacity),
            postmortem_dir: opts
                .postmortem_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from("results/postmortem")),
        });
        let writer = ServingMuDbscan {
            shared: Arc::clone(&shared),
            rx,
            stream: StreamingMuDbscan::empty(dim, params),
            opts,
            ext: Arc::default(),
            expire_at: Vec::new(),
            lookup: Arc::default(),
            retired: None,
            epoch: 0,
            poison_dumped: false,
        };
        let handle = std::thread::Builder::new()
            .name("mudbscan-serve-writer".into())
            .spawn(move || writer.run())
            .expect("failed to spawn the serving writer thread");
        ServeHandle {
            shared,
            tx,
            writer: Arc::new(WriterGuard { handle: Mutex::new(Some(handle)) }),
        }
    }

    fn run(mut self) {
        let probe = PanicProbe { shared: Arc::clone(&self.shared) };
        while let Ok(cmd) = self.rx.recv() {
            match cmd {
                Cmd::Batch { ops, ids } => self.apply(ops, ids, Instant::now()),
                Cmd::Flush { ack } => {
                    let counters = Counters::new();
                    counters.absorb(self.stream.counters());
                    let snapshot =
                        self.shared.current.lock().unwrap_or_else(|e| e.into_inner()).clone();
                    let _ = ack.send(Drained { snapshot, counters });
                }
            }
        }
        drop(probe); // normal exit: the probe's Drop is a no-op
    }

    /// Apply one batch as one epoch: expiries and deletes first
    /// (against the points live at the start of the batch), then
    /// inserts, then publish.
    ///
    /// Removals go through the engine's local repair
    /// ([`StreamingMuDbscan::try_remove`]) one op at a time; the first
    /// removal whose blast radius exceeds the repair budget flips the
    /// whole epoch to one compacting full rebuild that also swallows
    /// every remaining removal. A rebuild is likewise forced when
    /// tombstones pile up past the live population (compaction).
    fn apply(&mut self, ops: Vec<ServeOp>, ids: Vec<ExtId>, started: Instant) {
        self.epoch += 1;
        if self.opts.panic_at_epoch == Some(self.epoch) {
            panic!("induced writer panic at epoch {} (ServeOptions::panic_at_epoch)", self.epoch);
        }

        let n = self.stream.len();
        // Removal set for this epoch: expiries first, then explicit
        // deletes, in op order — `marked` both dedupes (a delete of an
        // id expiring this very epoch counts as ignored) and, on
        // fallback, tells the rebuild which points to drop.
        let mut marked = vec![false; n];
        let mut removals: Vec<PointId> = Vec::new();
        let mut expiries = 0u64;
        let mut deletes = 0u64;
        let mut ignored = 0u64;
        for (p, &at) in self.expire_at.iter().enumerate() {
            if at <= self.epoch && self.stream.is_live(p as PointId) {
                marked[p] = true;
                removals.push(p as PointId);
                expiries += 1;
            }
        }
        for op in &ops {
            if let ServeOp::Delete { id } = op {
                match self.lookup.get(id) {
                    Some(&p) if !marked[p as usize] => {
                        marked[p as usize] = true;
                        removals.push(p);
                        deletes += 1;
                    }
                    _ => ignored += 1,
                }
            }
        }

        let mut repairs = 0u64;
        let mut touched_total = 0u64;
        let mut fell_back = false;
        let mut compacted = false;
        if !removals.is_empty() {
            let budget = self.opts.budget_at(self.stream.live_len());
            for &p in &removals {
                match self.stream.try_remove(p, budget) {
                    RemoveOutcome::Removed { touched } => {
                        repairs += 1;
                        touched_total += touched as u64;
                        Arc::make_mut(&mut self.lookup).remove(&self.ext[p as usize]);
                    }
                    RemoveOutcome::ExceedsBudget { .. } => {
                        // One full rebuild absorbs this and every
                        // remaining removal (`marked` still flags them).
                        self.rebuild(&marked);
                        obs::record_count("serve/fallback_rebuilds", 1);
                        obs::record_count("serve/rebuilds", 1);
                        fell_back = true;
                        break;
                    }
                }
            }
            obs::record_count("serve/repairs", repairs);
            obs::record_count("serve/repair_touched_points", touched_total);
            // Compact once tombstones outnumber the live points (floor
            // 64 so tiny workloads don't rebuild on every churn).
            if !fell_back
                && self.stream.dead_len() >= 64
                && self.stream.dead_len() >= self.stream.live_len()
            {
                self.rebuild(&[]);
                obs::record_count("serve/rebuilds", 1);
                compacted = true;
            }
        }
        obs::record_count("serve/expiries", expiries);
        obs::record_count("serve/deletes", deletes);
        obs::record_count("serve/deletes_ignored", ignored);

        let mut next = ids.into_iter();
        let mut inserts = 0u64;
        for op in ops {
            if let ServeOp::Insert { coords, ttl } = op {
                let ext = next.next().expect("one pre-assigned id per insert");
                let p = self.stream.insert(&coords);
                // A desynced ext-id table would silently misroute every
                // later delete; fail fast in release builds too.
                assert_eq!(
                    p as usize,
                    self.ext.len(),
                    "serving ext-id table desynced from engine internal ids"
                );
                Arc::make_mut(&mut self.ext).push(ext);
                // TTL is rounded up to >= 1 (an insert cannot expire in
                // its own epoch) and saturates at "lives forever" — see
                // `ServeOp::insert_ttl`.
                self.expire_at.push(ttl.map_or(u64::MAX, |d| self.epoch.saturating_add(d.max(1))));
                Arc::make_mut(&mut self.lookup).insert(ext, p);
                inserts += 1;
            }
        }
        obs::record_count("serve/inserts", inserts);

        let publish_us = self.publish();

        // Feed the live registry in one batched update: a racing
        // `stats()` poll sees this epoch's whole census or none of it.
        let rebuilds = u64::from(fell_back) + u64::from(compacted);
        self.shared.registry.add_counts(&[
            ("serve/epochs", 1),
            ("serve/inserts", inserts),
            ("serve/deletes", deletes),
            ("serve/deletes_ignored", ignored),
            ("serve/expiries", expiries),
            ("serve/repairs", repairs),
            ("serve/repair_touched_points", touched_total),
            ("serve/rebuilds", rebuilds),
            ("serve/fallback_rebuilds", u64::from(fell_back)),
        ]);

        let ingest_us = started.elapsed().as_micros() as u64;
        obs::record_hist("serve/ingest_batch_us", ingest_us);
        self.shared.registry.record_hist("serve/ingest_batch_us", ingest_us);
        self.shared.recorder.record_epoch(obs::EpochDigest {
            epoch: self.epoch,
            live_points: self.stream.live_len() as u64,
            inserts,
            deletes,
            deletes_ignored: ignored,
            expiries,
            repairs,
            repair_touched_points: touched_total,
            decision: if fell_back {
                obs::RemovalDecision::FallbackRebuild
            } else if compacted {
                obs::RemovalDecision::CompactionRebuild
            } else if !removals.is_empty() {
                obs::RemovalDecision::Repaired
            } else {
                obs::RemovalDecision::None
            },
            ingest_us,
            publish_us,
        });

        // Scheduled (or injected) exactness self-check, after the digest
        // so a drift dump carries this epoch's record too.
        let forced = self.opts.force_drift_at == Some(self.epoch);
        let scheduled =
            self.opts.self_check_every.is_some_and(|k| k > 0 && self.epoch.is_multiple_of(k));
        if forced || (scheduled && !self.stream.verify_against_batch()) {
            self.shared.registry.add_count("serve/exactness_drift", 1);
            self.shared.recorder.note(&format!("exactness drift detected at epoch {}", self.epoch));
            let _ =
                self.shared.recorder.dump_to_dir(&self.shared.postmortem_dir, "exactness_drift");
        }
    }

    /// Exact compacting rebuild: the surviving live points — minus any
    /// flagged in `exclude` (pending removals on the fallback path) —
    /// go back through the parallel bulk loader in insertion order,
    /// which resets the internal id space (no tombstones) and rebuilds
    /// the micro-cluster index the snapshots read.
    fn rebuild(&mut self, exclude: &[bool]) {
        let dim = self.shared.dim;
        let mut data = Dataset::empty(dim);
        let mut ext = Vec::new();
        let mut expire_at = Vec::new();
        for p in 0..self.stream.len() {
            if !self.stream.is_live(p as PointId) || exclude.get(p).copied().unwrap_or(false) {
                continue;
            }
            data.push(self.stream.point(p as PointId));
            ext.push(self.ext[p]);
            expire_at.push(self.expire_at[p]);
        }
        let counters = Counters::new();
        counters.absorb(self.stream.counters());
        self.stream = StreamingMuDbscan::from_dataset(&data, self.stream.params());
        // Carry the pre-rebuild operation counts forward so `drain`
        // reports totals across the engine's whole life.
        self.stream.counters().absorb(&counters);
        self.lookup = Arc::new(ext.iter().enumerate().map(|(p, &e)| (e, p as PointId)).collect());
        self.ext = Arc::new(ext);
        self.expire_at = expire_at;
    }

    /// Publish the epoch snapshot and return the publish latency in
    /// microseconds (also recorded into the histograms). The snapshot
    /// shares the engine's grid and member blocks and the writer's id
    /// table and id map; it owns only its clustering, its block list
    /// and `compact`. The snapshot it replaces becomes
    /// `retired`; the one retired by the previous publish is dropped
    /// first.
    fn publish(&mut self) -> u64 {
        let t = Instant::now();
        self.retired = None;
        let mut compact = vec![u32::MAX; self.stream.len()];
        let mut live = 0;
        for (p, slot) in compact.iter_mut().enumerate() {
            if self.stream.is_live(p as PointId) {
                *slot = live;
                live += 1;
            }
        }
        let (level1, mcs) = self.stream.shared_index();
        let snap = Arc::new(Snapshot {
            epoch: self.epoch,
            dim: self.shared.dim,
            params: self.stream.params(),
            clustering: self.stream.canonical_snapshot(),
            ext: Arc::clone(&self.ext),
            lookup: Arc::clone(&self.lookup),
            level1,
            mcs,
            compact,
            data: OnceLock::new(),
            live: OnceLock::new(),
        });
        let replaced = match self.shared.current.lock() {
            Ok(mut g) => std::mem::replace(&mut *g, snap),
            Err(e) => {
                // A reader panicked while holding the snapshot lock.
                // Publishing proceeds (the data is fine), but the fault
                // is worth a postmortem — once.
                if !self.poison_dumped {
                    self.poison_dumped = true;
                    self.shared
                        .recorder
                        .note(&format!("snapshot lock poisoned; publishing epoch {}", self.epoch));
                    let _ = self
                        .shared
                        .recorder
                        .dump_to_dir(&self.shared.postmortem_dir, "poisoned_lock");
                }
                std::mem::replace(&mut *e.into_inner(), snap)
            }
        };
        self.retired = Some(replaced);
        obs::record_count("serve/epochs", 1);
        let us = t.elapsed().as_micros() as u64;
        obs::record_hist("serve/publish_us", us);
        self.shared.registry.record_hist("serve/publish_us", us);
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::{check_exact, naive_dbscan};

    fn params() -> DbscanParams {
        DbscanParams::new(1.0, 3)
    }

    fn batch_oracle(data: &Dataset, p: DbscanParams) -> Clustering {
        StreamingMuDbscan::from_dataset(data, p).canonical_snapshot()
    }

    #[test]
    fn empty_engine_serves_epoch_zero() {
        let h = ServingMuDbscan::spawn(2, params());
        let snap = h.pin();
        assert_eq!(snap.epoch(), 0);
        assert!(snap.is_empty());
        assert_eq!(h.query(&[0.0, 0.0]).unwrap(), Vec::<ExtId>::new());
        assert_eq!(h.membership(7), None);
    }

    #[test]
    fn ingest_then_drain_matches_batch() {
        let h = ServingMuDbscan::spawn(1, params());
        let rows = [[0.0], [0.5], [-0.5], [10.0]];
        let ids = h.ingest(rows.iter().map(|r| ServeOp::insert(r.to_vec())).collect()).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.epoch(), 1);
        let want = batch_oracle(d.snapshot.dataset(), params());
        assert_eq!(*d.snapshot.clustering(), want, "epoch not bit-identical to batch");
        assert_eq!(h.membership(0), Some(Membership { cluster: Some(0), is_core: true }));
        assert_eq!(h.membership(3), Some(Membership { cluster: None, is_core: false }));
        assert_eq!(h.query(&[0.1]).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn every_epoch_is_bit_identical_to_its_prefix_batch() {
        let h = ServingMuDbscan::spawn(2, params());
        let batches: Vec<Vec<Vec<f64>>> = vec![
            vec![vec![0.0, 0.0], vec![0.5, 0.0], vec![0.0, 0.5]],
            vec![vec![5.0, 5.0], vec![5.5, 5.0]],
            vec![vec![5.0, 5.5], vec![0.5, 0.5], vec![9.0, -9.0]],
        ];
        for batch in batches {
            h.ingest(batch.into_iter().map(ServeOp::insert).collect()).unwrap();
            let d = h.drain().unwrap();
            let want = batch_oracle(d.snapshot.dataset(), params());
            assert_eq!(*d.snapshot.clustering(), want, "epoch {}", d.snapshot.epoch());
            let rep = check_exact(
                d.snapshot.clustering(),
                &naive_dbscan(d.snapshot.dataset(), &params()),
                d.snapshot.dataset(),
                &params(),
            );
            assert!(rep.is_exact(), "epoch {}: {rep:?}", d.snapshot.epoch());
        }
        assert_eq!(h.snapshot_epoch(), 3);
    }

    #[test]
    fn deletes_remove_points_and_stay_exact() {
        let h = ServingMuDbscan::spawn(1, params());
        let ids = h
            .ingest(
                [[0.0], [0.5], [-0.5], [0.2]].iter().map(|r| ServeOp::insert(r.to_vec())).collect(),
            )
            .unwrap();
        assert_eq!(h.drain().unwrap().snapshot.clustering().n_clusters, 1);
        // Delete two members; the survivors can no longer form a cluster.
        h.ingest(vec![ServeOp::delete(ids[1]), ServeOp::delete(ids[2])]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.len(), 2);
        assert_eq!(d.snapshot.clustering().n_clusters, 0);
        assert_eq!(d.snapshot.membership(ids[1]), None);
        assert!(d.snapshot.membership(ids[0]).is_some());
        let want = batch_oracle(d.snapshot.dataset(), params());
        assert_eq!(*d.snapshot.clustering(), want);
        // Deleting again is an ignored no-op, not an error.
        h.ingest(vec![ServeOp::delete(ids[1])]).unwrap();
        assert_eq!(h.drain().unwrap().snapshot.len(), 2);
    }

    #[test]
    fn ttl_expires_on_the_logical_clock() {
        let h = ServingMuDbscan::spawn(1, params());
        // Epoch 1: a point with ttl 2 (dead from epoch 3 on) + one forever.
        let ids =
            h.ingest(vec![ServeOp::insert_ttl(vec![0.0], 2), ServeOp::insert(vec![0.5])]).unwrap();
        assert_eq!(h.drain().unwrap().snapshot.len(), 2);
        // Epoch 2: still live.
        h.ingest(vec![ServeOp::insert(vec![-0.5])]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.len(), 3);
        assert_eq!(d.snapshot.clustering().n_clusters, 1);
        // Epoch 3: the TTL point expires before the batch's insert.
        h.ingest(vec![ServeOp::insert(vec![9.0])]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.len(), 3);
        assert_eq!(d.snapshot.membership(ids[0]), None);
        let want = batch_oracle(d.snapshot.dataset(), params());
        assert_eq!(*d.snapshot.clustering(), want);
    }

    #[test]
    fn pinned_snapshots_survive_later_epochs() {
        // The writer's later epochs share the pinned epoch's index nodes,
        // id table and id map, and write to them only through copies: the
        // pinned answers must not move through inserts, deletes, TTL
        // expiries, a fallback rebuild and a tombstone compaction.
        let p = params();
        let h = ServingMuDbscan::spawn_with(
            2,
            p,
            ServeOptions { repair_budget: Some(0), ..Default::default() },
        );
        // Epoch 1: two clusters of six cores each, noise, and a noise
        // point that expires at epoch 3.
        let blob =
            |x: f64| (0..6).map(move |k| vec![x + 0.2 * (k % 3) as f64, 0.2 * (k / 3) as f64]);
        let mut rows: Vec<Vec<f64>> = blob(0.0).chain(blob(5.0)).collect();
        rows.extend([vec![10.0, 10.0], vec![-10.0, 10.0]]);
        let mut ops: Vec<ServeOp> = rows.iter().cloned().map(ServeOp::insert).collect();
        ops.push(ServeOp::insert_ttl(vec![20.0, 0.0], 2));
        rows.push(vec![20.0, 0.0]);
        let ids = h.ingest(ops).unwrap();
        h.drain().unwrap();
        let pinned = h.pin();
        let queries: Vec<Vec<ExtId>> = rows.iter().map(|c| pinned.query(c).unwrap()).collect();
        let memberships: Vec<Option<Membership>> =
            (0..200).map(|id| pinned.membership(id)).collect();
        let live_ids = pinned.live_ids().to_vec();
        let clustering = pinned.clustering().clone();
        assert_eq!(live_ids, ids);

        // Epoch 2: more cluster members, 80 isolated points, a noise
        // delete (repaired in place even at budget 0).
        let isolated: Vec<Vec<f64>> = (0..80).map(|k| vec![100.0 + 3.0 * k as f64, 0.0]).collect();
        let mut ops = vec![ServeOp::insert(vec![0.1, 0.5]), ServeOp::delete(ids[12])];
        ops.extend(isolated.iter().cloned().map(ServeOp::insert));
        let later = h.ingest(ops).unwrap();
        h.drain().unwrap();
        // Epoch 3: the TTL point expires, and deleting a core of the
        // second cluster exceeds budget 0: one fallback rebuild.
        h.ingest(vec![ServeOp::delete(ids[7]), ServeOp::insert(vec![5.1, 0.1])]).unwrap();
        h.drain().unwrap();
        assert_eq!(h.stats().fallback_rebuilds(), 1);
        // Epoch 4: the 80 isolated points leave as noise, and the
        // tombstones now outnumber the live points: a compaction.
        h.ingest(later[1..].iter().map(|&id| ServeOp::delete(id)).collect()).unwrap();
        let d = h.drain().unwrap();
        let stats = h.stats();
        assert_eq!(stats.cumulative.count("serve/rebuilds"), 2, "no compaction ran");
        assert_eq!(stats.cumulative.count("serve/expiries"), 1);
        assert_eq!(*d.snapshot.clustering(), batch_oracle(d.snapshot.dataset(), p));
        // Epoch 5: inserts on the compacted id space.
        h.ingest(vec![ServeOp::insert(vec![0.3, 0.5]), ServeOp::insert(vec![-3.0, 0.0])]).unwrap();
        assert_eq!(h.drain().unwrap().snapshot.epoch(), 5);

        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.len(), rows.len());
        for (c, want) in rows.iter().zip(&queries) {
            assert_eq!(&pinned.query(c).unwrap(), want, "query at {c:?}");
        }
        let now: Vec<Option<Membership>> = (0..200).map(|id| pinned.membership(id)).collect();
        assert_eq!(now, memberships);
        assert_eq!(pinned.live_ids(), live_ids);
        assert_eq!(*pinned.clustering(), clustering);
        // First read of the lazily built dataset, after the later epochs.
        assert_eq!(*pinned.dataset(), Dataset::from_rows(&rows));
        assert_eq!(clustering, batch_oracle(pinned.dataset(), p));
    }

    /// The MC index whose block holds writer-internal id `p`.
    fn block_of(snap: &Snapshot, p: PointId) -> usize {
        snap.mcs.iter().position(|b| b.items().contains(&p)).expect("a live point is in a block")
    }

    #[test]
    fn epochs_share_every_block_they_do_not_write() {
        // A seeded churn trace with no rebuild: inserts that join existing
        // MCs and inserts that open new ones, deletes of members and of a
        // center, and TTL expiries. Each epoch may copy only the blocks it
        // writes and add only the blocks it opens; every other block stays
        // the very allocation the previous snapshot holds, and that
        // snapshot answers every query as before.
        let p = params();
        let h = ServingMuDbscan::spawn_with(
            2,
            p,
            ServeOptions { repair_budget: Some(usize::MAX), ..Default::default() },
        );
        let (mut joined, mut opened) = (0, 0);
        let mut prev = h.pin();
        // Half the points fall in one dense square, half spread ten
        // times wider, so most blocks see no write in a given epoch.
        let mut pts = rows(120, 31);
        for c in pts.iter_mut().step_by(2) {
            c.iter_mut().for_each(|x| *x *= 10.0);
        }
        for (e, chunk) in pts.chunks(10).enumerate() {
            // Every third insert expires two epochs later.
            let mut ops: Vec<ServeOp> = chunk
                .iter()
                .enumerate()
                .map(|(k, c)| match k % 3 {
                    2 => ServeOp::insert_ttl(c.clone(), 2),
                    _ => ServeOp::insert(c.clone()),
                })
                .collect();
            if e == 2 {
                // The first point inserted opened MC 0: it is its center.
                ops.push(ServeOp::delete(0));
            }
            let live = prev.live_ids();
            if !live.is_empty() {
                ops.push(ServeOp::delete(live[(7 * e) % live.len()]));
            }
            let held: Vec<Vec<f64>> = prev.dataset().iter().map(|(_, c)| c.to_vec()).collect();
            let answers: Vec<Vec<ExtId>> = held.iter().map(|c| prev.query(c).unwrap()).collect();

            let ids = h.ingest(ops).unwrap();
            let next = h.drain().unwrap().snapshot;
            // The blocks this epoch wrote: those that lost a point (found
            // in the previous snapshot) and the old ones that gained one.
            let mut written: Vec<usize> = prev
                .lookup
                .values()
                .filter(|&&q| next.compact[q as usize] == u32::MAX)
                .map(|&q| block_of(&prev, q))
                .collect();
            for id in &ids {
                let b = block_of(&next, next.lookup[id]);
                if b < prev.mcs.len() {
                    written.push(b);
                    joined += 1;
                }
            }
            written.sort_unstable();
            written.dedup();
            let created = next.mcs.len() - prev.mcs.len();
            opened += created;
            for (b, (old, new)) in prev.mcs.iter().zip(&next.mcs).enumerate() {
                if written.binary_search(&b).is_err() {
                    assert!(Arc::ptr_eq(old, new), "epoch {}: unwritten block {b} copied", e + 1);
                }
            }
            let differ = (0..next.mcs.len())
                .filter(|&b| prev.mcs.get(b).is_none_or(|old| !Arc::ptr_eq(old, &next.mcs[b])))
                .count();
            assert!(differ <= written.len() + created, "epoch {}: {differ} blocks differ", e + 1);
            for (c, want) in held.iter().zip(&answers) {
                assert_eq!(&prev.query(c).unwrap(), want, "epoch {}: query at {c:?}", e + 1);
            }
            assert_eq!(*next.clustering(), batch_oracle(next.dataset(), p));
            prev = next;
        }
        let stats = h.stats();
        assert_eq!(stats.cumulative.count("serve/rebuilds"), 0, "a rebuild replaced every block");
        assert!(joined > 0 && opened > 0, "joined {joined}, opened {opened}");
        assert!(stats.cumulative.count("serve/expiries") > 0);
        assert!(stats.cumulative.count("serve/deletes") > 1);
        assert_eq!(prev.membership(0), None, "the center of MC 0 is still live");
    }

    #[test]
    fn dimension_mismatch_is_rejected_up_front() {
        let h = ServingMuDbscan::spawn(2, params());
        let err = h.ingest(vec![ServeOp::insert(vec![0.0])]).unwrap_err();
        assert_eq!(err, ServeError::DimensionMismatch { expected: 2, got: 1 });
        let err = h.query(&[0.0]).unwrap_err();
        assert_eq!(err, ServeError::DimensionMismatch { expected: 2, got: 1 });
        // The failed batch assigned no ids and changed no state.
        assert_eq!(h.drain().unwrap().snapshot.epoch(), 0);
        assert_eq!(h.ingest(vec![ServeOp::insert(vec![0.0, 0.0])]).unwrap(), vec![0]);
    }

    #[test]
    fn rejected_batches_burn_no_ids() {
        let h = ServingMuDbscan::spawn(2, params());
        let first =
            h.ingest(vec![ServeOp::insert(vec![0.0, 0.0]), ServeOp::insert(vec![0.1, 0.0])]);
        let last = *first.unwrap().last().unwrap();
        // Valid inserts ahead of the bad op must not consume ids either.
        let wrong_dim = h.ingest(vec![
            ServeOp::insert(vec![0.2, 0.0]),
            ServeOp::insert(vec![0.3, 0.0]),
            ServeOp::insert(vec![0.4]),
        ]);
        assert_eq!(wrong_dim.unwrap_err(), ServeError::DimensionMismatch { expected: 2, got: 1 });
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = h
                .ingest(vec![ServeOp::insert(vec![0.2, 0.0]), ServeOp::insert(vec![0.3, bad])])
                .unwrap_err();
            assert_eq!(err, ServeError::NonFiniteCoordinate { axis: 1 });
            assert_eq!(
                h.query(&[bad, 0.0]).unwrap_err(),
                ServeError::NonFiniteCoordinate { axis: 0 }
            );
        }
        let next = h.ingest(vec![ServeOp::insert(vec![0.2, 0.0])]).unwrap();
        assert_eq!(next, vec![last + 1], "a rejected batch left a gap in the ids");
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.epoch(), 2, "rejected batches must not become epochs");
        assert_eq!(d.snapshot.live_ids(), &[0, 1, 2]);
    }

    #[test]
    fn handles_clone_and_shutdown_joins() {
        let h = ServingMuDbscan::spawn(1, params());
        let h2 = h.clone();
        h2.ingest(vec![ServeOp::insert(vec![0.0])]).unwrap();
        drop(h2);
        let d = h.shutdown().unwrap();
        assert_eq!(d.snapshot.len(), 1);
        assert!(d.counters.range_queries() > 0);
    }

    /// Pseudo-random 2-d rows for churn tests.
    fn rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        (0..n).map(|_| vec![2.0 * r(), 2.0 * r()]).collect()
    }

    #[test]
    fn repair_and_rebuild_publish_identical_epochs() {
        // The same trace through a repair-enabled writer and a writer
        // with budget 0 (which rebuilds on every removal that needs a
        // repair region) must publish bit-identical epochs — and both
        // must match a batch run on the prefix.
        let p = params();
        let repair = ServingMuDbscan::spawn(2, p);
        let rebuild = ServingMuDbscan::spawn_with(
            2,
            p,
            ServeOptions { repair_budget: Some(0), ..Default::default() },
        );
        let pts = rows(60, 11);
        for (b, chunk) in pts.chunks(12).enumerate() {
            let mut ops: Vec<ServeOp> = chunk.iter().map(|c| ServeOp::insert(c.clone())).collect();
            // From batch 2 on, delete three ids inserted two batches ago.
            if b >= 2 {
                for k in 0..3 {
                    ops.push(ServeOp::delete(((b - 2) * 12 + 4 * k) as ExtId));
                }
            }
            let ids_a = repair.ingest(ops.clone()).unwrap();
            let ids_b = rebuild.ingest(ops).unwrap();
            assert_eq!(ids_a, ids_b);
            let (da, db) = (repair.drain().unwrap(), rebuild.drain().unwrap());
            assert_eq!(da.snapshot.epoch(), db.snapshot.epoch());
            assert_eq!(da.snapshot.live_ids(), db.snapshot.live_ids());
            assert_eq!(da.snapshot.dataset(), db.snapshot.dataset());
            assert_eq!(
                da.snapshot.clustering(),
                db.snapshot.clustering(),
                "epoch {}: repair and rebuild disagree",
                da.snapshot.epoch()
            );
            let want = batch_oracle(da.snapshot.dataset(), p);
            assert_eq!(*da.snapshot.clustering(), want, "epoch {}", da.snapshot.epoch());
        }
    }

    #[test]
    fn budget_zero_removes_a_noise_point_without_a_rebuild() {
        // A noise point leaves through the constant-size repair before
        // any budget check, so even `Some(0)` counts a repair here.
        let h = ServingMuDbscan::spawn_with(
            1,
            params(),
            ServeOptions { repair_budget: Some(0), ..Default::default() },
        );
        let ids = h.ingest(vec![ServeOp::insert(vec![0.0]), ServeOp::insert(vec![10.0])]).unwrap();
        h.drain().unwrap();
        h.ingest(vec![ServeOp::delete(ids[1])]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.live_ids(), &[ids[0]]);
        let stats = h.stats();
        assert_eq!(stats.repairs(), 1);
        assert_eq!(stats.fallback_rebuilds(), 0);
    }

    #[test]
    fn query_sorts_external_ids_when_batches_arrive_out_of_id_order() {
        // Two handles can reserve ids in one order and send their
        // batches in the other: here the batch holding id 1 reaches the
        // writer before the one holding id 0.
        let h = ServingMuDbscan::spawn(1, params());
        for id in [1, 0] {
            let ops = vec![ServeOp::insert(vec![0.5 * id as f64])];
            h.tx.send(Cmd::Batch { ops, ids: vec![id] }).unwrap();
        }
        h.drain().unwrap();
        assert_eq!(h.query(&[0.25]).unwrap(), vec![0, 1]);
    }

    #[test]
    fn forced_fallback_rebuild_stays_exact() {
        // Budget 1 forces the fallback whenever a removal touches a
        // component of more than one survivor.
        let p = params();
        let h = ServingMuDbscan::spawn_with(
            1,
            p,
            ServeOptions { repair_budget: Some(1), ..Default::default() },
        );
        let ids = h
            .ingest(
                [[0.0], [0.5], [-0.5], [0.2]].iter().map(|r| ServeOp::insert(r.to_vec())).collect(),
            )
            .unwrap();
        h.drain().unwrap();
        h.ingest(vec![ServeOp::delete(ids[0])]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.len(), 3);
        let want = batch_oracle(d.snapshot.dataset(), p);
        assert_eq!(*d.snapshot.clustering(), want);
        // Subsequent epochs keep working on the rebuilt id space.
        h.ingest(vec![ServeOp::insert(vec![0.3]), ServeOp::delete(ids[3])]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(*d.snapshot.clustering(), batch_oracle(d.snapshot.dataset(), p));
    }

    /// A per-test scratch dir for postmortem artifacts, cleaned up on
    /// drop so test runs never dirty `results/`.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("mudbscan-serve-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn artifacts(dir: &PathBuf) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    #[test]
    fn service_survives_a_poisoned_snapshot_lock() {
        // A reader panicking while holding the snapshot lock poisons
        // it; every path (pin, query, writer publish) must recover, and
        // the writer leaves exactly one postmortem behind.
        let tmp = TempDir::new("poison");
        let h = ServingMuDbscan::spawn_with(
            1,
            params(),
            ServeOptions { postmortem_dir: Some(tmp.0.clone()), ..Default::default() },
        );
        h.ingest(vec![ServeOp::insert(vec![0.0])]).unwrap();
        h.drain().unwrap();
        let shared = Arc::clone(&h.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.current.lock().unwrap();
            panic!("induced panic while holding the snapshot lock");
        })
        .join();
        assert!(h.shared.current.lock().is_err(), "lock must actually be poisoned");
        // Readers still answer...
        assert_eq!(h.pin().epoch(), 1);
        assert_eq!(h.query(&[0.1]).unwrap(), vec![0]);
        // ...and the writer still publishes through the poisoned lock.
        h.ingest(vec![ServeOp::insert(vec![0.5]), ServeOp::insert(vec![-0.5])]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.epoch(), 2);
        assert_eq!(d.snapshot.len(), 3);
        assert_eq!(*d.snapshot.clustering(), batch_oracle(d.snapshot.dataset(), params()));
        // The poisoned publish dumped one postmortem — and only one,
        // even across further epochs through the same poisoned lock.
        h.ingest(vec![ServeOp::insert(vec![0.25])]).unwrap();
        h.drain().unwrap();
        let files = artifacts(&tmp.0);
        assert_eq!(files.len(), 1, "poison dump must be one-shot: {files:?}");
        let js = obs::Json::parse(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
        assert_eq!(js.get("reason").and_then(obs::Json::as_str), Some("poisoned_lock"));
        obs::validate_postmortem(&js).expect("poison artifact is schema-valid");
    }

    #[test]
    fn writer_frees_a_replaced_snapshot_one_publish_later() {
        // Epoch e's snapshot stays in the writer's retired slot through
        // the publish of e + 1 and is dropped by the publish of e + 2,
        // so a reader's pin is then its last reference — through a
        // poisoned lock too.
        for poison in [false, true] {
            let tmp = TempDir::new(if poison { "retire-poison" } else { "retire" });
            let h = ServingMuDbscan::spawn_with(
                1,
                params(),
                ServeOptions { postmortem_dir: Some(tmp.0.clone()), ..Default::default() },
            );
            h.ingest(vec![ServeOp::insert(vec![0.0])]).unwrap();
            drop(h.drain().unwrap());
            if poison {
                let shared = Arc::clone(&h.shared);
                let _ = std::thread::spawn(move || {
                    let _guard = shared.current.lock().unwrap();
                    panic!("induced panic while holding the snapshot lock");
                })
                .join();
                assert!(h.shared.current.lock().is_err(), "lock must actually be poisoned");
            }
            let pinned = h.pin();
            assert_eq!(pinned.epoch(), 1);
            h.ingest(vec![ServeOp::insert(vec![0.5])]).unwrap();
            drop(h.drain().unwrap());
            assert_eq!(
                Arc::strong_count(&pinned),
                2,
                "poison {poison}: the pin + the retired slot"
            );
            h.ingest(vec![]).unwrap();
            drop(h.drain().unwrap());
            assert_eq!(Arc::strong_count(&pinned), 1, "poison {poison}: the writer kept epoch 1");
            assert_eq!(h.pin().epoch(), 3);
        }
    }

    #[test]
    fn membership_maps_through_tombstones() {
        // The snapshot's ext-id map holds writer-internal ids; after a
        // delete those differ from dataset positions, and membership
        // must read the label at the position.
        let h = ServingMuDbscan::spawn(1, params());
        let rows = [[0.0], [0.5], [-0.5], [0.2], [10.0], [10.5], [9.5], [20.0]];
        let ids = h.ingest(rows.iter().map(|r| ServeOp::insert(r.to_vec())).collect()).unwrap();
        h.drain().unwrap();
        h.ingest(vec![ServeOp::delete(ids[3]), ServeOp::delete(ids[2])]).unwrap();
        let snap = h.drain().unwrap().snapshot;
        assert_eq!(snap.clustering().n_clusters, 1);
        for (i, &id) in snap.live_ids().iter().enumerate() {
            let label = snap.clustering().labels[i];
            let want = Membership {
                cluster: (label != mudbscan::NOISE).then_some(label),
                is_core: snap.clustering().is_core[i],
            };
            assert_eq!(snap.membership(id), Some(want), "id {id}");
        }
        assert_eq!(snap.membership(ids[4]).and_then(|m| m.cluster), Some(0));
        assert_eq!(snap.membership(ids[3]), None);
    }

    #[test]
    fn ttl_zero_rounds_up_to_one_epoch() {
        let h = ServingMuDbscan::spawn(1, params());
        // ttl = 0 behaves exactly like ttl = 1: live in its own epoch...
        let ids = h
            .ingest(vec![ServeOp::insert_ttl(vec![0.0], 0), ServeOp::insert_ttl(vec![0.5], 1)])
            .unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.len(), 2);
        assert!(d.snapshot.membership(ids[0]).is_some());
        // ...and gone from the next epoch on.
        h.ingest(vec![]).unwrap();
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.len(), 0);
        assert_eq!(d.snapshot.membership(ids[0]), None);
        assert_eq!(d.snapshot.membership(ids[1]), None);
    }

    #[test]
    fn ttl_max_saturates_to_forever() {
        let h = ServingMuDbscan::spawn(1, params());
        let ids = h.ingest(vec![ServeOp::insert_ttl(vec![0.0], u64::MAX)]).unwrap();
        for _ in 0..5 {
            h.ingest(vec![]).unwrap();
        }
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.epoch(), 6);
        assert!(d.snapshot.membership(ids[0]).is_some(), "saturating ttl must mean forever");
    }

    #[test]
    fn counters_are_monotone_across_repair_and_rebuild() {
        // `drain` counters must carry pre-rebuild work forward and never
        // go backwards, on both removal paths.
        let totals = |d: &Drained| {
            (
                d.counters.range_queries(),
                d.counters.dist_computations(),
                d.counters.union_ops(),
                d.counters.node_visits(),
            )
        };
        for budget in [None, Some(0)] {
            let h = ServingMuDbscan::spawn_with(
                2,
                params(),
                ServeOptions { repair_budget: budget, ..Default::default() },
            );
            let pts = rows(40, 23);
            let ids = h.ingest(pts.iter().map(|c| ServeOp::insert(c.clone())).collect()).unwrap();
            let t1 = totals(&h.drain().unwrap());
            assert!(t1.0 > 0, "insert epoch must have done queries");
            // Delete → (repair | fallback rebuild) → drain.
            h.ingest(vec![ServeOp::delete(ids[3]), ServeOp::delete(ids[17])]).unwrap();
            let t2 = totals(&h.drain().unwrap());
            assert!(t2 >= t1, "budget {budget:?}: counters went backwards: {t1:?} -> {t2:?}");
            assert!(t2.0 > t1.0, "budget {budget:?}: removal epoch must charge queries");
            // One more mixed epoch stays monotone too.
            h.ingest(vec![ServeOp::insert(vec![0.1, 0.1]), ServeOp::delete(ids[29])]).unwrap();
            let t3 = totals(&h.drain().unwrap());
            assert!(t3 >= t2, "budget {budget:?}: {t2:?} -> {t3:?}");
        }
    }

    #[test]
    fn tombstone_compaction_rebuild_preserves_exactness() {
        // Enough churn to trip the dead >= live, dead >= 64 compaction
        // trigger; every epoch must stay exact throughout.
        let p = params();
        let h = ServingMuDbscan::spawn(2, p);
        let pts = rows(200, 7);
        let ids = h.ingest(pts.iter().map(|c| ServeOp::insert(c.clone())).collect()).unwrap();
        h.drain().unwrap();
        // Delete 150 of 200 points over three epochs.
        for chunk in ids[..150].chunks(50) {
            h.ingest(chunk.iter().map(|&i| ServeOp::delete(i)).collect()).unwrap();
            let d = h.drain().unwrap();
            assert_eq!(*d.snapshot.clustering(), batch_oracle(d.snapshot.dataset(), p));
        }
        let d = h.drain().unwrap();
        assert_eq!(d.snapshot.len(), 50);
        assert_eq!(d.snapshot.live_ids(), &ids[150..]);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_epoch() {
        let h = ServingMuDbscan::spawn(1, params());
        std::thread::scope(|s| {
            let mut readers = Vec::new();
            for _ in 0..3 {
                let r = h.clone();
                readers.push(s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let snap = r.pin();
                        // Epochs advance monotonically per reader, and a
                        // snapshot is internally consistent: parallel
                        // arrays agree in length.
                        assert!(snap.epoch() >= last);
                        last = snap.epoch();
                        assert_eq!(snap.live_ids().len(), snap.len());
                        assert_eq!(snap.clustering().labels.len(), snap.len());
                        let _ = r.query(&[0.25]);
                    }
                    last
                }));
            }
            for i in 0..20 {
                h.ingest(vec![ServeOp::insert(vec![i as f64 * 0.1])]).unwrap();
            }
            h.drain().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(h.snapshot_epoch(), 20);
    }

    #[test]
    fn stats_reports_the_live_state_and_window_deltas() {
        let h = ServingMuDbscan::spawn(1, params());
        let ids = h
            .ingest(
                [[0.0], [0.5], [-0.5], [10.0]]
                    .iter()
                    .map(|r| ServeOp::insert(r.to_vec()))
                    .collect(),
            )
            .unwrap();
        h.drain().unwrap();
        let s1 = h.stats();
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.live_points, 4);
        assert_eq!(s1.clusters, 1);
        assert_eq!(s1.window.count("serve/inserts"), 4);
        assert_eq!(s1.window.count("serve/epochs"), 1);
        assert!(s1.window.hist("serve/ingest_batch_us").is_some());
        // Next window carries only what happened since.
        h.ingest(vec![ServeOp::delete(ids[3])]).unwrap();
        h.drain().unwrap();
        let s2 = h.stats();
        assert_eq!(s2.window.count("serve/inserts"), 0);
        assert_eq!(s2.window.count("serve/deletes"), 1);
        assert_eq!(s2.cumulative.count("serve/inserts"), 4);
        assert_eq!(s2.repairs() + s2.fallback_rebuilds(), 1);
        assert_eq!(s2.drift_detections(), 0);
        // The Prometheus rendition exposes the cumulative counters.
        let prom = s2.render_prom();
        assert!(prom.contains("mudbscan_serve_inserts 4"), "{prom}");
        // The registry works with global obs collection fully disabled —
        // nothing above enabled it.
        assert!(!obs::enabled());
    }

    #[test]
    fn stats_windows_sum_to_cumulative_under_race() {
        // Readers and pollers race the writer; at drain, the merged
        // windows must equal the final cumulative state bit-identically
        // (counters and histograms).
        let h = ServingMuDbscan::spawn(1, params());
        let windows = Mutex::new(Vec::<obs::Report>::new());
        std::thread::scope(|s| {
            for _ in 0..2 {
                let r = h.clone();
                s.spawn(move || {
                    for i in 0..150 {
                        let _ = r.query(&[i as f64 * 0.01]);
                        let _ = r.membership(i as ExtId);
                    }
                });
            }
            for _ in 0..3 {
                let r = h.clone();
                let windows = &windows;
                s.spawn(move || {
                    for _ in 0..30 {
                        let stats = r.stats();
                        // Epoch-paired counters never tear.
                        assert!(
                            stats.window.count("serve/epochs")
                                >= stats.window.count("serve/fallback_rebuilds"),
                            "window saw a rebuild without its epoch"
                        );
                        windows.lock().unwrap_or_else(|e| e.into_inner()).push(stats.window);
                        std::thread::yield_now();
                    }
                });
            }
            for i in 0..25 {
                let mut ops = vec![ServeOp::insert(vec![i as f64 * 0.1])];
                if i % 5 == 4 {
                    ops.push(ServeOp::delete((i / 5) as ExtId));
                }
                h.ingest(ops).unwrap();
            }
            h.drain().unwrap();
        });
        // Quiesced: one final poll collects the tail window.
        let last = h.stats();
        let mut merged = obs::Report::default();
        for w in windows.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            merged.merge(w);
        }
        merged.merge(&last.window);
        assert_eq!(merged.counts, last.cumulative.counts, "window counter sums must be exact");
        assert_eq!(merged.hists, last.cumulative.hists, "window histogram sums must be exact");
        assert_eq!(last.cumulative.count("serve/epochs"), 25);
        assert_eq!(last.cumulative.count("serve/inserts"), 25);
        assert_eq!(last.cumulative.count("serve/deletes"), 5);
    }

    #[test]
    fn on_demand_postmortem_captures_recent_epochs() {
        let tmp = TempDir::new("ondemand");
        let h = ServingMuDbscan::spawn_with(
            1,
            params(),
            ServeOptions {
                recorder_capacity: 2,
                postmortem_dir: Some(tmp.0.clone()),
                ..Default::default()
            },
        );
        for i in 0..5 {
            h.ingest(vec![ServeOp::insert(vec![i as f64])]).unwrap();
        }
        h.drain().unwrap();
        let path = h.dump_postmortem().unwrap();
        let js = obs::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        obs::validate_postmortem(&js).unwrap();
        let entries = obs::parse_dump(&js).unwrap();
        // Capacity 2: exactly the last two epochs survive the ring.
        let epochs: Vec<u64> = entries
            .iter()
            .filter_map(|e| match e {
                obs::FlightEntry::Epoch { digest, .. } => Some(digest.epoch),
                _ => None,
            })
            .collect();
        assert_eq!(epochs, vec![4, 5]);
        assert_eq!(js.get("overwritten").and_then(obs::Json::as_f64), Some(3.0));
    }
}
