//! Delete equivalence: the repair path is indistinguishable from rebuild.
//!
//! The serving engine applies a deletion by repairing only the affected
//! component(s) — tombstone the point, decrement neighbour counts,
//! demote cores, replay union rules locally — falling back to an exact
//! compacting rebuild when the blast radius exceeds its budget
//! (`ServeOptions::repair_budget`). The contract (`docs/SERVING.md`) is
//! that the budget is **purely a performance knob**: every published
//! epoch must be bit-identical no matter which path produced it.
//!
//! This harness replays one trace through three engines side by side —
//! the adaptive budget, budget zero (`Some(0)`: every removal that needs
//! a repair region rebuilds; noise points and borders that demote no
//! core are still repaired in place), and a tiny budget (`Some(2)`) that
//! mixes repairs with fallback rebuilds —
//! and asserts every epoch agrees across all three *and* with a
//! one-shot batch run over the live prefix, which is itself checked
//! exact against the naive oracle.

use geom::{Dataset, DbscanParams};
use mudbscan::prelude::{Family, Runner, ServeOp, ServeOptions, Snapshot};
use mudbscan::{check_exact, naive_dbscan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DIM: usize = 2;

fn params() -> DbscanParams {
    DbscanParams::new(0.3, 3)
}

/// One raw trace operation; `Delete(raw)` resolves to
/// `raw % inserted_before_this_batch` like the linearizability harness,
/// so deletes always target ids assigned in earlier batches.
#[derive(Debug, Clone)]
enum RawOp {
    Insert { coords: Vec<f64>, ttl: Option<u64> },
    Delete { raw: u64 },
}

/// Sequential model of the live set, mirroring the engine's epoch rules
/// (expire, then delete, then insert) to derive the batch-prefix oracle.
#[derive(Default, Clone)]
struct Model {
    /// `(ext_id, coords, first_dead_epoch)` per live point, insertion order.
    live: Vec<(u64, Vec<f64>, u64)>,
    next_ext: u64,
    epoch: u64,
}

impl Model {
    fn apply(&mut self, raw: &[RawOp]) -> Vec<ServeOp> {
        self.epoch += 1;
        let epoch = self.epoch;
        self.live.retain(|(_, _, dead_at)| *dead_at > epoch);
        let inserted_before = self.next_ext;
        let mut ops = Vec::new();
        for op in raw {
            match op {
                RawOp::Delete { raw } => {
                    if inserted_before == 0 {
                        continue;
                    }
                    let target = raw % inserted_before;
                    ops.push(ServeOp::delete(target));
                    self.live.retain(|(ext, _, _)| *ext != target);
                }
                RawOp::Insert { coords, ttl } => {
                    let dead_at = ttl.map_or(u64::MAX, |d| epoch.saturating_add(d.max(1)));
                    ops.push(match ttl {
                        Some(d) => ServeOp::insert_ttl(coords.clone(), *d),
                        None => ServeOp::insert(coords.clone()),
                    });
                    self.live.push((self.next_ext, coords.clone(), dead_at));
                    self.next_ext += 1;
                }
            }
        }
        ops
    }

    fn dataset(&self) -> Dataset {
        let mut d = Dataset::empty(DIM);
        for (_, coords, _) in &self.live {
            d.push(coords);
        }
        d
    }

    fn ext_ids(&self) -> Vec<u64> {
        self.live.iter().map(|(e, _, _)| *e).collect()
    }
}

/// Two snapshots from differently-budgeted engines must be bit-identical.
fn assert_snapshots_identical(a: &Snapshot, b: &Snapshot, ctx: &str) {
    assert_eq!(a.epoch(), b.epoch(), "{ctx}: epoch diverged");
    assert_eq!(a.live_ids(), b.live_ids(), "{ctx}: live ids diverged");
    assert_eq!(a.dataset().len(), b.dataset().len(), "{ctx}: live count diverged");
    for (p, coords) in a.dataset().iter() {
        assert_eq!(b.dataset().point(p), coords, "{ctx}: point {p} coords diverged");
    }
    assert_eq!(*a.clustering(), *b.clustering(), "{ctx}: clustering diverged");
}

/// Replay one trace through the three budget configurations in lockstep
/// and validate every epoch against each other and the batch prefix.
fn run_equivalence(trace: &[Vec<RawOp>], ctx: &str) {
    let p = params();
    // (label, engine): adaptive budget, budget zero, tiny budget.
    let arms = [("repair", None), ("rebuild", Some(0usize)), ("tiny-budget", Some(2usize))];
    let handles: Vec<_> = arms
        .iter()
        .map(|(_, budget)| {
            Runner::new(p)
                .serve_options(ServeOptions { repair_budget: *budget, ..Default::default() })
                .serve(DIM)
                .expect("serving configuration")
        })
        .collect();

    let mut model = Model::default();
    for raw in trace {
        let ops = model.apply(raw);
        let snaps: Vec<Arc<Snapshot>> = handles
            .iter()
            .map(|h| {
                h.ingest(ops.clone()).expect("writer alive");
                h.drain().expect("writer alive").snapshot
            })
            .collect();
        let ctx = format!("{ctx}/epoch{}", model.epoch);

        // All three budget arms publish the same bits.
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_snapshots_identical(
                &snaps[0],
                snap,
                &format!("{ctx}/{} vs {}", arms[0].0, arms[i].0),
            );
        }

        // …and those bits are the one-shot batch run on the live prefix.
        let expected_data = model.dataset();
        assert_eq!(snaps[0].live_ids(), model.ext_ids().as_slice(), "{ctx}: live ids");
        let batch =
            Runner::new(p).family(Family::Streaming).run(&expected_data).expect("batch oracle");
        assert_eq!(
            *snaps[0].clustering(),
            batch.clustering,
            "{ctx}: repaired epoch is not bit-identical to the batch prefix run"
        );
        if !expected_data.is_empty() {
            let reference = naive_dbscan(&expected_data, &p);
            let report = check_exact(snaps[0].clustering(), &reference, &expected_data, &p);
            assert!(report.is_exact(), "{ctx}: epoch inexact vs naive oracle: {report:?}");
        }
    }
}

/// A seeded delete-heavy trace: one pure-insert warm-up batch, then
/// ~60% deletions — enough churn to demote cores, split clusters, trip
/// the tiny-budget fallback, and cross the tombstone-compaction
/// threshold in the repair arm.
fn delete_heavy_trace(seed: u64, batches: usize, per_batch: usize) -> Vec<Vec<RawOp>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inserted = 0u64;
    (0..batches)
        .map(|b| {
            (0..per_batch)
                .map(|_| {
                    if b > 0 && inserted > 0 && rng.gen_range(0..5) < 3 {
                        RawOp::Delete { raw: rng.gen_range(0..inserted * 2) }
                    } else {
                        let cx = rng.gen_range(0..3) as f64;
                        let coords =
                            vec![cx + rng.gen_range(-0.25..0.25), cx + rng.gen_range(-0.25..0.25)];
                        let ttl = (rng.gen_range(0..6) == 0).then(|| rng.gen_range(1..3u64));
                        inserted += 1;
                        RawOp::Insert { coords, ttl }
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn seeded_delete_heavy_trace_is_budget_invariant() {
    let trace = delete_heavy_trace(4242, 6, 48);
    run_equivalence(&trace, "seeded");
}

/// Raw-op strategy biased towards deletions (2-in-5), on a coarse
/// lattice so ε-relations, shared borders, and duplicate coordinates
/// actually occur.
fn raw_op() -> impl Strategy<Value = RawOp> {
    (0u32..5, proptest::collection::vec(0u32..12, DIM), 0u64..5, 0u64..1_000).prop_map(
        |(kind, grid, ttl, raw)| {
            if kind < 2 {
                RawOp::Delete { raw }
            } else {
                RawOp::Insert {
                    coords: grid.into_iter().map(|g| g as f64 * 0.18).collect(),
                    ttl: (ttl >= 4).then(|| ttl - 3),
                }
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every epoch of a random delete-biased trace is bit-identical
    /// across adaptive-budget, zero-budget and tiny-budget engines,
    /// and equals the one-shot batch run on its live prefix.
    #[test]
    fn random_traces_are_budget_invariant(
        trace in proptest::collection::vec(
            proptest::collection::vec(raw_op(), 0..12),
            3..6,
        )
    ) {
        run_equivalence(&trace, "prop");
    }
}
