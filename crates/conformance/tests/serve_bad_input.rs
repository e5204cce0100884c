//! Bad input against the serving layer: a typed error or a counted
//! skip, never a panic.
//!
//! A seeded valid trace (clustered inserts, some with TTLs, deletes of
//! live ids) is interleaved with bad input: inserts with a NaN/±∞
//! coordinate or the wrong dimension (the whole batch is rejected with
//! a [`ServeError`] and burns no id), ε-queries with the same defects
//! (rejected on the handle and on a pinned snapshot), deletes of
//! unknown, already-removed and repeated ids (skipped and counted
//! under `serve/deletes_ignored`), and ingest/drain through a clone
//! after another handle shut down. After every accepted batch the
//! drained snapshot must hold exactly the model's live set and be
//! exact against `naive_dbscan` on it. A serving configuration whose
//! self-check cadence is zero is rejected before the engine starts.

use geom::{Dataset, DbscanParams};
use mudbscan::prelude::{
    MuDbscanError, Runner, ServeError, ServeHandle, ServeOp, ServeOptions, Snapshot,
};
use mudbscan::{check_exact, naive_dbscan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 3;

fn params() -> DbscanParams {
    DbscanParams::new(0.35, 3)
}

/// The sequential model of the serving semantics: live points in
/// insertion order, the epoch clock, and the deletes the engine must
/// skip.
#[derive(Default)]
struct Model {
    /// `(ext_id, coords, first_dead_epoch)` of each live point.
    live: Vec<(u64, Vec<f64>, u64)>,
    /// Ids deleted or expired so far.
    removed: Vec<u64>,
    next_ext: u64,
    epoch: u64,
    ignored: u64,
}

impl Model {
    /// Apply one accepted batch: expire, then delete, then insert.
    fn apply(&mut self, ops: &[ServeOp]) {
        self.epoch += 1;
        let epoch = self.epoch;
        let (dead, live): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.live).into_iter().partition(|(_, _, at)| *at <= epoch);
        self.live = live;
        self.removed.extend(dead.into_iter().map(|(ext, _, _)| ext));
        for op in ops {
            if let ServeOp::Delete { id } = op {
                match self.live.iter().position(|(ext, _, _)| ext == id) {
                    Some(i) => self.removed.push(self.live.remove(i).0),
                    None => self.ignored += 1,
                }
            }
        }
        for op in ops {
            if let ServeOp::Insert { coords, ttl } = op {
                let dead_at = ttl.map_or(u64::MAX, |d| epoch.saturating_add(d.max(1)));
                self.live.push((self.next_ext, coords.clone(), dead_at));
                self.next_ext += 1;
            }
        }
    }

    fn dataset(&self) -> Dataset {
        let mut d = Dataset::empty(DIM);
        for (_, coords, _) in &self.live {
            d.push(coords);
        }
        d
    }
}

/// A point of the valid trace: one of three blobs close enough for
/// ε-chains, so removals demote cores and split clusters.
fn valid_point(rng: &mut StdRng) -> Vec<f64> {
    let c = f64::from(rng.gen_range(0..3u8)) * 0.6;
    (0..DIM).map(|_| c + rng.gen_range(-0.3..0.3)).collect()
}

/// Coordinates with one defect and the error they must produce.
fn bad_point(rng: &mut StdRng) -> (Vec<f64>, ServeError) {
    let mut coords = valid_point(rng);
    match rng.gen_range(0..5u8) {
        0 => coords.truncate(rng.gen_range(0..DIM)),
        1 => coords.push(0.0),
        k => {
            let axis = rng.gen_range(0..DIM);
            coords[axis] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][usize::from(k - 2)];
            return (coords, ServeError::NonFiniteCoordinate { axis });
        }
    }
    let got = coords.len();
    (coords, ServeError::DimensionMismatch { expected: DIM, got })
}

/// One valid batch with bad deletes mixed in: unknown ids, ids removed
/// in an earlier epoch, and a repeat of a delete in the same batch.
fn batch(rng: &mut StdRng, model: &Model) -> Vec<ServeOp> {
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(4..12) {
        let ttl = (rng.gen_range(0..5u8) == 0).then(|| rng.gen_range(0..3u64));
        ops.push(ServeOp::Insert { coords: valid_point(rng), ttl });
    }
    if !model.live.is_empty() {
        for _ in 0..rng.gen_range(0..4) {
            let id = model.live[rng.gen_range(0..model.live.len())].0;
            ops.push(ServeOp::delete(id));
        }
    }
    match rng.gen_range(0..4u8) {
        0 => ops.push(ServeOp::delete(model.next_ext + rng.gen_range(0..64))),
        1 => ops.push(ServeOp::delete(u64::MAX)),
        2 if !model.removed.is_empty() => {
            ops.push(ServeOp::delete(model.removed[rng.gen_range(0..model.removed.len())]))
        }
        _ => {}
    }
    if let Some(ServeOp::Delete { id }) = ops.last().cloned() {
        ops.push(ServeOp::delete(id));
    }
    let n = ops.len();
    for i in (1..n).rev() {
        ops.swap(i, rng.gen_range(0..i + 1));
    }
    ops
}

/// Every bad ε-query is rejected with its typed error, on the handle
/// and on a pinned snapshot.
fn bad_queries_are_rejected(rng: &mut StdRng, handle: &ServeHandle, pinned: &Snapshot) {
    for _ in 0..3 {
        let (coords, want) = bad_point(rng);
        assert_eq!(handle.query(&coords), Err(want.clone()));
        assert_eq!(pinned.query(&coords), Err(want));
    }
}

/// The drained snapshot holds exactly the model's live set, is exact
/// against the naive oracle on it, and the engine counted every skipped
/// delete.
fn validate(handle: &ServeHandle, snapshot: &Snapshot, model: &Model, ctx: &str) {
    assert_eq!(snapshot.epoch(), model.epoch, "{ctx}: epoch");
    let ids: Vec<u64> = model.live.iter().map(|(ext, _, _)| *ext).collect();
    assert_eq!(snapshot.live_ids(), ids.as_slice(), "{ctx}: live ids");
    let data = model.dataset();
    assert_eq!(snapshot.dataset(), &data, "{ctx}: live points");
    let p = params();
    let report = check_exact(snapshot.clustering(), &naive_dbscan(&data, &p), &data, &p);
    assert!(report.is_exact(), "{ctx}: snapshot inexact vs naive oracle: {report:?}");
    let ignored = handle.stats().cumulative.count("serve/deletes_ignored");
    assert_eq!(ignored, model.ignored, "{ctx}: serve/deletes_ignored");
    for id in model.removed.iter().copied().chain([model.next_ext, u64::MAX]) {
        assert_eq!(snapshot.membership(id), None, "{ctx}: membership of dead id {id}");
    }
}

fn run(seed: u64, repair_budget: Option<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = ServeOptions { repair_budget, ..ServeOptions::default() };
    let mut handle = Runner::new(params()).serve_options(opts).serve(DIM).expect("serving config");
    let mut model = Model::default();
    for step in 0..12 {
        let ctx = format!("seed {seed}, budget {repair_budget:?}, step {step}");
        let ops = batch(&mut rng, &model);
        if rng.gen_bool(0.5) {
            // One bad insert anywhere rejects the whole batch.
            let (coords, want) = bad_point(&mut rng);
            let mut poisoned = ops.clone();
            poisoned.insert(rng.gen_range(0..ops.len() + 1), ServeOp::insert(coords));
            assert_eq!(handle.ingest(poisoned), Err(want), "{ctx}: poisoned batch");
        }
        // Rejected batches burn no id.
        let inserts = ops.iter().filter(|op| matches!(op, ServeOp::Insert { .. })).count() as u64;
        let got = handle.ingest(ops.clone()).expect("a valid batch is accepted");
        assert_eq!(got, (model.next_ext..model.next_ext + inserts).collect::<Vec<_>>(), "{ctx}");
        model.apply(&ops);
        bad_queries_are_rejected(&mut rng, &handle, &handle.pin());

        let drained = if step == 5 {
            // Shutting one handle down leaves its clones serving.
            let clone = handle.clone();
            let drained = std::mem::replace(&mut handle, clone).shutdown();
            drained.expect("shutdown of one clone drains")
        } else {
            handle.drain().expect("drain")
        };
        validate(&handle, &drained.snapshot, &model, &ctx);
    }
    let last = handle.shutdown().expect("final shutdown drains");
    assert_eq!(last.snapshot.epoch(), model.epoch);
    // The last snapshot outlives the writer and keeps rejecting bad input.
    for _ in 0..3 {
        let (coords, want) = bad_point(&mut rng);
        assert_eq!(last.snapshot.query(&coords), Err(want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bad_input_is_an_error_or_a_counted_skip(seed in any::<u64>(), budget in 0usize..3) {
        run(seed, [None, Some(0), Some(4)][budget]);
    }
}

#[test]
fn a_zero_self_check_cadence_is_a_config_error() {
    // `Some(0)` would switch the exactness self-check off without a word.
    let serve = |every| {
        let opts = ServeOptions { self_check_every: every, ..ServeOptions::default() };
        Runner::new(params()).serve_options(opts).serve(DIM)
    };
    match serve(Some(0)).err() {
        Some(MuDbscanError::InvalidConfig(msg)) => {
            assert!(msg.contains("self_check_every"), "the error names the option: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    serve(Some(1)).expect("a self-check every epoch is valid").shutdown().expect("drains");
}
