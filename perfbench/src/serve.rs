//! The served shape: a seeded ingest trace replayed through
//! `Runner::serve` by one closed-loop producer while one closed-loop
//! reader queries, plus the same trace replayed directly on
//! `StreamingMuDbscan` for the per-layer stream timings.

use crate::util::{quantile, Rng};
use mudbscan::check_exact;
use mudbscan::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stream::{RemoveOutcome, StreamingMuDbscan};

/// Batches per trace.
pub const BATCHES: usize = 200;
/// Every `TTL_EVERY`-th id expires `TTL_EPOCHS` epochs after its batch.
const TTL_EVERY: u64 = 11;
const TTL_EPOCHS: u64 = 2;
/// Every `DELETE_EVERY`-th id (without a TTL) is deleted
/// `DELETE_LAG` batches after its insert.
const DELETE_EVERY: u64 = 13;
const DELETE_LAG: usize = 2;

/// The ingest trace over a dataset: batch `b` inserts the next
/// `n / BATCHES` points (external id = dataset position) and deletes
/// the chosen ids of batch `b - DELETE_LAG`.
pub struct Trace {
    pub batches: Vec<Vec<ServeOp>>,
    /// Ids live once every batch is applied, ascending.
    pub final_live: Vec<ExtId>,
}

fn batch_range(n: usize, b: usize) -> std::ops::Range<usize> {
    b * n / BATCHES..(b + 1) * n / BATCHES
}

fn has_ttl(id: u64) -> bool {
    id.is_multiple_of(TTL_EVERY)
}

fn deleted(id: u64) -> bool {
    id.is_multiple_of(DELETE_EVERY) && !has_ttl(id)
}

impl Trace {
    pub fn new(data: &Dataset) -> Self {
        let n = data.len();
        let mut batches = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            let mut ops = Vec::new();
            if b >= DELETE_LAG {
                for id in batch_range(n, b - DELETE_LAG) {
                    if deleted(id as u64) {
                        ops.push(ServeOp::delete(id as u64));
                    }
                }
            }
            for id in batch_range(n, b) {
                let coords = data.point(id as PointId).to_vec();
                ops.push(if has_ttl(id as u64) {
                    ServeOp::insert_ttl(coords, TTL_EPOCHS)
                } else {
                    ServeOp::insert(coords)
                });
            }
            batches.push(ops);
        }
        // Epoch e = b + 1 applies batch b; a TTL insert of epoch e is gone
        // from epoch e + TTL_EPOCHS, and the last deletes target batch
        // BATCHES - 1 - DELETE_LAG.
        let mut final_live = Vec::new();
        for b in 0..BATCHES {
            for id in batch_range(n, b).map(|i| i as u64) {
                let expired = has_ttl(id) && (b as u64 + 1) + TTL_EPOCHS <= BATCHES as u64;
                let gone = deleted(id) && b + DELETE_LAG < BATCHES;
                if !expired && !gone {
                    final_live.push(id);
                }
            }
        }
        Trace { batches, final_live }
    }
}

/// One served replay of the whole trace.
pub struct Replay {
    /// Per batch: milliseconds from the `ingest()` call until the batch
    /// is the published snapshot.
    pub visible_ms: Vec<f64>,
    /// Median and 99th percentile of the reader's ε-query latencies in
    /// microseconds.
    pub query_us_p50: f64,
    pub query_us_p99: f64,
    /// Inserts + deletes + expiries applied.
    pub ops_applied: u64,
    pub wall_s: f64,
    pub stats: ServeStats,
    pub last: Arc<Snapshot>,
}

/// Replay `trace` through a fresh serving engine. The producer sends a
/// batch, waits for the drain rendezvous (which returns once the batch
/// is published) and sends the next; the reader loops `query` +
/// `membership` on jittered dataset points until the producer is done
/// (at least once).
pub fn replay(
    params: DbscanParams,
    data: &Dataset,
    trace: &Trace,
    seed: u64,
    work_dir: &std::path::Path,
) -> Result<Replay, String> {
    let opts =
        ServeOptions { postmortem_dir: Some(work_dir.join("postmortem")), ..Default::default() };
    let handle =
        Runner::new(params).serve_options(opts).serve(data.dim()).map_err(|e| e.to_string())?;
    let batches: Vec<Vec<ServeOp>> = trace.batches.clone();
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (produced, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let h = handle.clone();
            let mut rng = Rng::new(seed ^ 0x5EED_BE4C);
            let mut lat = Vec::new();
            let mut q = vec![0.0; data.dim()];
            loop {
                let i = rng.below(data.len());
                for (x, &c) in q.iter_mut().zip(data.point(i as PointId)) {
                    *x = c + (rng.unit() - 0.5) * params.eps;
                }
                let t = Instant::now();
                h.query(&q).map_err(|e| e.to_string())?;
                lat.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(h.membership(i as u64));
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok::<_, String>(lat)
        });
        let produced = (|| {
            let mut visible = Vec::with_capacity(batches.len());
            let mut next_id = 0u64;
            for (b, ops) in batches.into_iter().enumerate() {
                let inserts = ops.iter().filter(|o| matches!(o, ServeOp::Insert { .. })).count();
                let t = Instant::now();
                let ids = handle.ingest(ops).map_err(|e| e.to_string())?;
                let drained = handle.drain().map_err(|e| e.to_string())?;
                visible.push(t.elapsed().as_secs_f64() * 1e3);
                if drained.snapshot.epoch() != b as u64 + 1 {
                    return Err(format!("batch {b} drained at epoch {}", drained.snapshot.epoch()));
                }
                let want: Vec<u64> = (next_id..next_id + inserts as u64).collect();
                if ids != want {
                    return Err(format!("batch {b}: unexpected external ids"));
                }
                next_id += inserts as u64;
            }
            Ok(visible)
        })();
        done.store(true, Ordering::Release);
        let read = reader.join().unwrap_or_else(|_| Err("reader panicked".into()));
        (produced, read)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let visible_ms = produced?;
    let query_us = read?;
    let (query_us_p50, query_us_p99) = (quantile(&query_us, 0.5), quantile(&query_us, 0.99));
    let stats = handle.stats();
    let last = handle.shutdown().map_err(|e| e.to_string())?.snapshot;
    let c = &stats.cumulative;
    let ops_applied =
        c.count("serve/inserts") + c.count("serve/deletes") + c.count("serve/expiries");
    Ok(Replay { visible_ms, query_us_p50, query_us_p99, ops_applied, wall_s, stats, last })
}

/// Exactness of a drained replay: the expected live ids, bit-identity
/// with the Streaming batch twin, and `check_exact` against the naive
/// oracle on the live set (`oracle`, computed once per run).
pub fn verify(
    r: &Replay,
    trace: &Trace,
    params: DbscanParams,
    oracle: &Clustering,
) -> Result<(), String> {
    let snap = &r.last;
    if snap.live_ids() != trace.final_live.as_slice() {
        return Err("live ids differ from the trace's expected survivors".into());
    }
    let twin = Runner::new(params)
        .family(Family::Streaming)
        .run(snap.dataset())
        .map_err(|e| e.to_string())?;
    if twin.clustering != *snap.clustering() {
        return Err("snapshot differs from its Streaming batch twin".into());
    }
    if !check_exact(snap.clustering(), oracle, snap.dataset(), &params).is_exact() {
        return Err("snapshot is not exact against naive_dbscan".into());
    }
    Ok(())
}

/// Mean per-op costs of the trace replayed directly on the engine.
pub struct StreamTimes {
    pub insert_us: f64,
    /// Per removal, including the rebuilds that removals forced.
    pub remove_us: f64,
    pub snapshot_ms: f64,
}

/// A bare engine with the serving writer's id bookkeeping: per internal
/// point its trace id and expiry epoch, and the live trace ids.
struct Direct {
    s: StreamingMuDbscan,
    dim: usize,
    ext: Vec<u64>,
    expire_at: Vec<u64>,
    lookup: HashMap<u64, PointId>,
}

impl Direct {
    /// Rebuild from the live points, leaving out `drop`, as the serving
    /// writer does on fallback and compaction.
    fn rebuild(&mut self, drop: &HashSet<PointId>) {
        let (mut data, mut ext, mut expire_at) = (Dataset::empty(self.dim), Vec::new(), Vec::new());
        for p in 0..self.s.len() as PointId {
            if self.s.is_live(p) && !drop.contains(&p) {
                data.push(self.s.point(p));
                ext.push(self.ext[p as usize]);
                expire_at.push(self.expire_at[p as usize]);
            }
        }
        self.s = StreamingMuDbscan::from_dataset(&data, self.s.params());
        self.lookup = ext.iter().enumerate().map(|(p, &e)| (e, p as PointId)).collect();
        self.ext = ext;
        self.expire_at = expire_at;
    }

    /// Apply one epoch's removals with the writer's rules: repair budget
    /// `(live / 2).max(256)`; the first removal over budget rebuilds
    /// without it and every remaining one; tombstones at least 64 and
    /// outnumbering the live points compact.
    fn remove(&mut self, removals: &[PointId]) {
        let budget = (self.s.live_len() / 2).max(256);
        for (i, &p) in removals.iter().enumerate() {
            match self.s.try_remove(p, budget) {
                RemoveOutcome::Removed { .. } => {
                    self.lookup.remove(&self.ext[p as usize]);
                }
                RemoveOutcome::ExceedsBudget { .. } => {
                    self.rebuild(&removals[i..].iter().copied().collect());
                    return;
                }
            }
        }
        if self.s.dead_len() >= 64 && self.s.dead_len() >= self.s.live_len() {
            self.rebuild(&HashSet::new());
        }
    }
}

/// Replay `trace` on a bare `StreamingMuDbscan` in the serving writer's
/// per-batch order (expiries, then deletes, then inserts, then a
/// canonical snapshot), timing each call.
pub fn direct(params: DbscanParams, data: &Dataset, trace: &Trace) -> StreamTimes {
    let mut e = Direct {
        s: StreamingMuDbscan::empty(data.dim(), params),
        dim: data.dim(),
        ext: Vec::new(),
        expire_at: Vec::new(),
        lookup: HashMap::new(),
    };
    let (mut ins_s, mut ins_n, mut rem_s, mut rem_n, mut snap_s) = (0.0, 0u64, 0.0, 0u64, 0.0);
    let mut next_id = 0u64;
    for (b, ops) in trace.batches.iter().enumerate() {
        let epoch = b as u64 + 1;
        let mut removals: Vec<PointId> = (0..e.s.len() as PointId)
            .filter(|&p| e.expire_at[p as usize] <= epoch && e.s.is_live(p))
            .collect();
        for op in ops {
            if let ServeOp::Delete { id } = op {
                if let Some(&p) = e.lookup.get(id) {
                    if !removals.contains(&p) {
                        removals.push(p);
                    }
                }
            }
        }
        if !removals.is_empty() {
            let t = Instant::now();
            e.remove(&removals);
            rem_s += t.elapsed().as_secs_f64();
            rem_n += removals.len() as u64;
        }
        for op in ops {
            if let ServeOp::Insert { coords, ttl } = op {
                let t = Instant::now();
                let p = e.s.insert(coords);
                ins_s += t.elapsed().as_secs_f64();
                ins_n += 1;
                e.ext.push(next_id);
                e.expire_at.push(ttl.map_or(u64::MAX, |d| epoch + d.max(1)));
                e.lookup.insert(next_id, p);
                next_id += 1;
            }
        }
        let t = Instant::now();
        std::hint::black_box(e.s.canonical_snapshot());
        snap_s += t.elapsed().as_secs_f64();
    }
    StreamTimes {
        insert_us: ins_s * 1e6 / ins_n.max(1) as f64,
        remove_us: rem_s * 1e6 / rem_n.max(1) as f64,
        snapshot_ms: snap_s * 1e3 / trace.batches.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_survivors_match_a_served_replay() {
        let data = data::galaxy(1_000, 3, 7);
        let p = DbscanParams::new(0.8, 5);
        let trace = Trace::new(&data);
        assert_eq!(trace.batches.len(), BATCHES);
        let dir = std::env::temp_dir().join("perfbench-serve-test");
        let r = replay(p, &data, &trace, 7, &dir).unwrap();
        assert_eq!(r.visible_ms.len(), BATCHES);
        let oracle = naive_dbscan(r.last.dataset(), &p);
        verify(&r, &trace, p, &oracle).unwrap();
    }
}
