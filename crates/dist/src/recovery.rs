//! Crash recovery for the distributed driver: fault configuration and
//! the checkpointable form of a rank's local result.
//!
//! Recovery is *exact by construction*: a crashed rank's replacement
//! re-executes the deterministic local stage over the same owned
//! partition plus the re-requested ε-halo (halo re-request is idempotent
//! — no other rank observed the lost state), and the re-executed
//! [`LocalRun`] is bit-identical to the lost one. A crash *after* the
//! local stage instead restores the rank's [`Checkpoint`] (charged as a
//! transfer) and re-runs only the summary queries: the merge consumes
//! only exact core flags, core groups, cross-partition ε-pairs and
//! border candidate lists, all a pure function of the local result.

use cluster_sim::{FaultPlan, RetryConfig};
use metrics::{Counters, PhaseTimer};
use mudbscan::Clustering;

use crate::driver::LocalRun;

/// Fault-injection options for a distributed run: the schedule plus the
/// reliable-delivery policy applied to injected message faults.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// The deterministic fault schedule (see [`cluster_sim::fault`]).
    pub plan: FaultPlan,
    /// Timeout/retry-with-backoff policy of the delivery layer.
    pub retry: RetryConfig,
}

impl FaultConfig {
    /// A config injecting `plan` under the default retry policy.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan, retry: RetryConfig::default() }
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }
}

/// A durable snapshot of one rank's [`LocalRun`], taken after the local
/// clustering superstep. Restoring it onto a replacement rank is charged
/// as a byte transfer by the recovery driver.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    clustering: Clustering,
    phases: PhaseTimer,
    counters: [u64; 5],
    peak_heap_bytes: usize,
}

impl Checkpoint {
    /// Snapshot `run` (cheap: clones the labels/flags and copies the
    /// counter values).
    pub fn capture(run: &LocalRun) -> Self {
        Self {
            clustering: run.clustering.clone(),
            phases: run.phases.clone(),
            counters: [
                run.counters.range_queries(),
                run.counters.queries_saved(),
                run.counters.dist_computations(),
                run.counters.node_visits(),
                run.counters.union_ops(),
            ],
            peak_heap_bytes: run.peak_heap_bytes,
        }
    }

    /// Rebuild the [`LocalRun`] the crashed rank lost.
    pub fn restore(&self) -> LocalRun {
        let [rq, qs, d, nv, u] = self.counters;
        LocalRun {
            clustering: self.clustering.clone(),
            phases: self.phases.clone(),
            counters: Counters::from_raw(rq, qs, d, nv, u),
            peak_heap_bytes: self.peak_heap_bytes,
        }
    }

    /// Estimated serialized size: 4-byte labels + 1-byte core flags per
    /// point, plus the counter block. What the recovery driver charges
    /// for fetching the checkpoint from stable storage.
    pub fn byte_size(&self) -> usize {
        self.clustering.labels.len() * 4 + self.clustering.is_core.len() + 5 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> LocalRun {
        let counters = Counters::from_raw(10, 20, 30, 40, 50);
        let mut phases = PhaseTimer::new();
        phases.add_secs("clustering", 0.25);
        LocalRun {
            clustering: Clustering {
                labels: vec![0, 0, 1, mudbscan::NOISE],
                is_core: vec![true, true, true, false],
                n_clusters: 2,
            },
            phases,
            counters,
            peak_heap_bytes: 4096,
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let run = sample_run();
        let ck = Checkpoint::capture(&run);
        let restored = ck.restore();
        assert_eq!(restored.clustering, run.clustering);
        assert_eq!(restored.counters.range_queries(), 10);
        assert_eq!(restored.counters.queries_saved(), 20);
        assert_eq!(restored.counters.dist_computations(), 30);
        assert_eq!(restored.counters.node_visits(), 40);
        assert_eq!(restored.counters.union_ops(), 50);
        assert_eq!(restored.peak_heap_bytes, 4096);
        assert!((restored.phases.secs("clustering") - 0.25).abs() < 1e-12);
        assert_eq!(ck.byte_size(), 4 * 4 + 4 + 40);
    }
}
