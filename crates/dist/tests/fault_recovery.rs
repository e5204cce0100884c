//! Exact-recovery integration tests: every fault class injected into
//! μDBSCAN-D must leave the final clustering bit-identical to the
//! fault-free run (the ISSUE's hard guarantee), and a crippled retry
//! budget must visibly break it (proving the injection is load-bearing).

use cluster_sim::{Fault, FaultPlan, RetryConfig};
use dist::{DistConfig, FaultConfig, MuDbscanD};
use geom::{Dataset, DbscanParams};

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

/// A 1-D layout whose only cross-partition attachment is a *border*
/// point, so it travels exclusively through the merge exchange (the
/// seed groups in the merge hold only core points, and a border point is
/// never one). With eps 0.1 / MinPts 3:
/// a dense left cluster `S` ending at -0.05, a core pivot `x` at 0.0,
/// the border point `y` at 0.09 (sees only x + itself → non-core), and
/// a dense right cluster `R` starting at 0.30 (outside y's ε). The 27
/// points split 13/14 at the median coordinate 0.09, so rank 0 owns
/// S ∪ {x} and rank 1 owns {y} ∪ R — y's attachment to x's cluster
/// crosses the boundary and exists only as y's border candidate list in
/// rank 1's merge message.
const BORDER_ID: u32 = 13;

fn border_bridge_data() -> Dataset {
    let mut rows: Vec<Vec<f64>> = (0..12).map(|i| vec![-0.60 + 0.05 * i as f64]).collect();
    rows.push(vec![0.0]); // x, id 12
    rows.push(vec![0.09]); // y, id BORDER_ID
    rows.extend((0..13).map(|i| vec![0.30 + 0.05 * i as f64]));
    Dataset::from_rows(&rows)
}

fn run_pair(
    data: &Dataset,
    params: DbscanParams,
    ranks: usize,
    faults: FaultConfig,
) -> (dist::DistOutput, dist::DistOutput) {
    let clean = MuDbscanD::from_params(params, DistConfig::new(ranks)).run(data).unwrap();
    let faulted = MuDbscanD::from_params(params, DistConfig::new(ranks))
        .with_faults(faults)
        .run(data)
        .unwrap();
    (clean, faulted)
}

#[test]
fn crash_during_local_stage_recovers_bit_identical() {
    let data = blob_data(50);
    let params = DbscanParams::new(0.7, 5);
    let plan = FaultPlan::new(11).with(Fault::Crash { rank: 1, superstep: 0 });
    let (clean, faulted) = run_pair(&data, params, 4, FaultConfig::new(plan));
    assert_eq!(clean.clustering, faulted.clustering, "recovery must be exact");
    let st = &faulted.fault_stats;
    assert_eq!(st.crashes, 1);
    assert_eq!(st.recoveries, 1);
    assert!(st.recovery_comm_bytes > 0, "halo re-request must be charged");
    assert!(faulted.phases.secs("recovery") > 0.0, "recovery phase must be timed");
    assert!(
        faulted.runtime_secs >= faulted.phases.secs("recovery"),
        "recovery overhead must be part of the reported runtime"
    );
    // Work metrics drift zero: every rank's local work is counted exactly
    // once, recovered or not.
    assert_eq!(clean.counters.range_queries(), faulted.counters.range_queries());
    assert_eq!(clean.counters.dist_computations(), faulted.counters.dist_computations());
    assert_eq!(clean.counters.union_ops(), faulted.counters.union_ops());
}

#[test]
fn crash_during_edge_collection_restores_checkpoint() {
    let data = blob_data(50);
    let params = DbscanParams::new(0.7, 5);
    let plan = FaultPlan::new(13).with(Fault::Crash { rank: 2, superstep: 1 });
    let (clean, faulted) = run_pair(&data, params, 4, FaultConfig::new(plan));
    assert_eq!(clean.clustering, faulted.clustering);
    let st = &faulted.fault_stats;
    assert_eq!((st.crashes, st.recoveries), (1, 1));
    // The restore transfers the checkpoint (labels + flags), not the halo.
    assert!(st.recovery_comm_bytes > 0);
    assert_eq!(clean.counters.range_queries(), faulted.counters.range_queries());
    assert_eq!(clean.counters.node_visits(), faulted.counters.node_visits());
}

#[test]
fn message_faults_within_retry_budget_stay_exact() {
    let data = blob_data(50);
    let params = DbscanParams::new(0.7, 5);
    let plan = FaultPlan::new(17)
        .with(Fault::Drop { superstep: 2, from: 1, to: 0, attempts: 2 })
        .with(Fault::Drop { superstep: 2, from: 3, to: 0, attempts: 3 })
        .with(Fault::Duplicate { superstep: 2, from: 2, to: 0 })
        .with(Fault::Reorder { superstep: 2, to: 0 });
    let (clean, faulted) = run_pair(&data, params, 4, FaultConfig::new(plan));
    assert_eq!(clean.clustering, faulted.clustering, "delivery layer must heal the exchange");
    let st = &faulted.fault_stats;
    assert!(st.retries >= 2, "drops must be retried (got {})", st.retries);
    assert_eq!(st.messages_lost, 0);
    assert!(st.duplicates_discarded >= st.duplicates_injected.min(1));
    assert!(st.retry_delay_secs > 0.0);
    assert!(faulted.comm_bytes > clean.comm_bytes, "retransmissions occupy the wire");
    assert_eq!(clean.counters.union_ops(), faulted.counters.union_ops());
}

#[test]
fn straggler_skews_clock_not_clustering() {
    let data = blob_data(40);
    let params = DbscanParams::new(0.7, 5);
    let plan = FaultPlan::new(19).with(Fault::Straggler { rank: 1, slowdown: 50.0 });
    let (clean, faulted) = run_pair(&data, params, 4, FaultConfig::new(plan));
    assert_eq!(clean.clustering, faulted.clustering);
    assert!(faulted.fault_stats.straggled_steps >= 3, "one per superstep");
    assert!(faulted.runtime_secs > clean.runtime_secs, "skew must lengthen the makespan");
}

#[test]
fn all_fault_classes_combined_stay_exact() {
    let data = blob_data(50);
    let params = DbscanParams::new(0.7, 5);
    let plan = FaultPlan::new(23)
        .with(Fault::Crash { rank: 1, superstep: 0 })
        .with(Fault::Crash { rank: 3, superstep: 1 })
        .with(Fault::Drop { superstep: 2, from: 2, to: 0, attempts: 2 })
        .with(Fault::Duplicate { superstep: 2, from: 0, to: 0 })
        .with(Fault::Reorder { superstep: 2, to: 0 })
        .with(Fault::Straggler { rank: 2, slowdown: 2.0 });
    let (clean, faulted) = run_pair(&data, params, 4, FaultConfig::new(plan));
    assert_eq!(clean.clustering, faulted.clustering);
    let st = &faulted.fault_stats;
    assert_eq!((st.crashes, st.recoveries), (2, 2));
    assert_eq!(clean.counters.range_queries(), faulted.counters.range_queries());
    assert_eq!(clean.counters.union_ops(), faulted.counters.union_ops());
}

#[test]
fn replaying_a_plan_seed_reproduces_the_counters() {
    let data = blob_data(40);
    let params = DbscanParams::new(0.7, 5);
    let plan = FaultPlan::generate(2019, 4, &[0, 1], &[2]);
    let run = |plan: FaultPlan| {
        MuDbscanD::from_params(params, DistConfig::new(4))
            .with_faults(FaultConfig::new(plan))
            .run(&data)
            .unwrap()
    };
    let a = run(plan.clone());
    let b = run(plan);
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(
        a.fault_stats.replay_signature(),
        b.fault_stats.replay_signature(),
        "fault counters must be a pure function of (program, data, plan)"
    );
}

#[test]
fn dropping_merge_edges_without_retries_loses_the_border_point() {
    // Negative control: with reliability disabled, dropping both ranks'
    // edge envelopes severs the only carrier of the cross-partition
    // border attachment — the faulted run must misclassify it as noise.
    // This proves the merge replay really consumes the delivered
    // messages (a cosmetic router would keep the run exact and this
    // test would fail).
    let data = border_bridge_data();
    let params = DbscanParams::new(0.1, 3);
    let clean = MuDbscanD::from_params(params, DistConfig::new(2)).run(&data).unwrap();
    assert_eq!(clean.clustering.n_clusters, 2, "precondition: S∪{{x,y}} and R");
    assert_ne!(clean.clustering.labels[BORDER_ID as usize], mudbscan::NOISE);

    let plan = FaultPlan::new(29)
        .with(Fault::Drop { superstep: 2, from: 0, to: 0, attempts: 1 })
        .with(Fault::Drop { superstep: 2, from: 1, to: 0, attempts: 1 });
    let faulted = MuDbscanD::from_params(params, DistConfig::new(2))
        .with_faults(FaultConfig::new(plan).with_retry(RetryConfig::none()))
        .run(&data)
        .unwrap();
    assert!(faulted.fault_stats.messages_lost >= 1, "drops must actually fire");
    assert_eq!(
        faulted.clustering.labels[BORDER_ID as usize],
        mudbscan::NOISE,
        "the border attachment must be lost with the dropped edges"
    );
    assert_ne!(clean.clustering, faulted.clustering);
    assert!(
        faulted.counters.union_ops() < clean.counters.union_ops(),
        "fewer delivered edges must mean fewer replayed unions"
    );
}
