//! The BSP engine: superstep execution, message routing, virtual clocks,
//! and deterministic fault injection (see [`crate::fault`]).

use crate::fault::{splitmix64, FaultPlan, FaultStats, RetryConfig};
use crate::msgsize::MsgSize;
use metrics::{PhaseTimer, Stopwatch};

/// α–β communication cost model: every superstep with communication costs
/// `latency + h / bandwidth` virtual seconds, where `h` is the maximum
/// number of bytes any single rank sends or receives (the BSP `L + g·h`
/// term).
#[derive(Debug, Clone, Copy)]
pub struct CommModel {
    /// Per-superstep synchronisation/latency cost in seconds (MPI
    /// collective launch, ~tens of µs on a commodity cluster).
    pub latency_s: f64,
    /// Link bandwidth in bytes/second (10 GbE default).
    pub bandwidth_bytes_per_s: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        Self { latency_s: 25e-6, bandwidth_bytes_per_s: 1.25e9 }
    }
}

/// An outgoing message.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Destination rank.
    pub to: usize,
    /// Payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Address `msg` to rank `to`.
    pub fn new(to: usize, msg: M) -> Self {
        Self { to, msg }
    }
}

/// Per-rank virtual-clock totals, accumulated across supersteps. The
/// BSP barrier model charges every rank the same communication time per
/// superstep, but compute time is each rank's own — the spread across
/// ranks IS the load imbalance the paper's kd-tree partitioning argues
/// about, and what the per-rank BSP timeline in the bench schema (v3)
/// summarises.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankClock {
    /// Virtual seconds this rank spent computing.
    pub compute_secs: f64,
    /// Virtual seconds this rank spent in communication/barrier.
    pub comm_secs: f64,
    /// Bytes this rank sent.
    pub bytes_sent: u64,
    /// Bytes this rank received.
    pub bytes_received: u64,
}

/// The engine: `p` rank states, virtual clocks, makespan accounting.
pub struct Bsp<S> {
    states: Vec<S>,
    comm: CommModel,
    /// Virtual makespan accumulated so far (seconds).
    makespan: f64,
    /// Makespan split by phase label.
    phase_times: PhaseTimer,
    current_phase: String,
    /// Total bytes routed between ranks.
    comm_bytes: u64,
    /// Number of supersteps executed.
    steps: usize,
    /// Per-rank virtual-clock totals.
    rank_clocks: Vec<RankClock>,
    /// Injected fault schedule (empty by default).
    plan: FaultPlan,
    /// Reliable-delivery policy for injected message faults.
    retry: RetryConfig,
    /// Ranks currently crashed (fail-stop, awaiting [`Bsp::recover`]).
    down: Vec<bool>,
    /// Fault/recovery counters accumulated so far.
    stats: FaultStats,
}

impl<S> Bsp<S> {
    /// Engine over the given per-rank states.
    pub fn new(states: Vec<S>) -> Self {
        assert!(!states.is_empty(), "need at least one rank");
        let p = states.len();
        Self {
            states,
            comm: CommModel::default(),
            makespan: 0.0,
            phase_times: PhaseTimer::new(),
            current_phase: "unphased".to_string(),
            comm_bytes: 0,
            steps: 0,
            rank_clocks: vec![RankClock::default(); p],
            plan: FaultPlan::default(),
            retry: RetryConfig::default(),
            down: vec![false; p],
            stats: FaultStats::default(),
        }
    }

    /// Override the communication cost model.
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Inject the given fault schedule. Faults are addressed by the
    /// engine's superstep counter ([`Bsp::steps`]); crashes fire on
    /// compute supersteps ([`Bsp::run`]), message faults on communicating
    /// ones ([`Bsp::exchange`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Override the reliable-delivery retry policy.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// Number of ranks (`p`).
    pub fn size(&self) -> usize {
        self.states.len()
    }

    /// Label subsequent supersteps with `name` (for per-phase makespans).
    pub fn phase(&mut self, name: &str) {
        self.current_phase = name.to_string();
    }

    /// Virtual makespan in seconds.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Per-phase makespan split-up.
    pub fn phase_times(&self) -> &PhaseTimer {
        &self.phase_times
    }

    /// Total bytes communicated.
    pub fn comm_bytes(&self) -> u64 {
        self.comm_bytes
    }

    /// Supersteps executed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Per-rank virtual-clock totals (compute/comm seconds, bytes
    /// sent/received), indexed by rank.
    pub fn rank_clocks(&self) -> &[RankClock] {
        &self.rank_clocks
    }

    /// Fault/recovery counters accumulated so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Ranks currently down (crashed and not yet recovered), ascending.
    pub fn crashed_ranks(&self) -> Vec<usize> {
        self.down.iter().enumerate().filter(|(_, &d)| d).map(|(r, _)| r).collect()
    }

    /// Whether `rank` is currently down.
    pub fn is_down(&self, rank: usize) -> bool {
        self.down[rank]
    }

    /// Immutable view of the rank states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of the rank states (orchestrator-side setup only; not
    /// charged to any rank's clock).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Consume the engine, returning the rank states.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }

    fn charge(&mut self, secs: f64) {
        self.makespan += secs;
        let phase = self.current_phase.clone();
        self.phase_times.add_secs(&phase, secs);
    }

    /// Charge a superstep split into its compute and communication shares,
    /// exporting the split to `obs` when collection is on (the makespan and
    /// phase accounting are identical to a single [`Bsp::charge`]).
    fn charge_split(&mut self, compute_secs: f64, comm_secs: f64, comm_bytes: u64) {
        self.charge(compute_secs + comm_secs);
        if obs::enabled() {
            obs::record_value(
                &format!("bsp/{}/compute_virtual_secs", self.current_phase),
                compute_secs,
            );
            if comm_secs > 0.0 || comm_bytes > 0 {
                obs::record_value(
                    &format!("bsp/{}/comm_virtual_secs", self.current_phase),
                    comm_secs,
                );
                obs::record_count(&format!("bsp/{}/comm_bytes", self.current_phase), comm_bytes);
                // Per-superstep comm volume distribution (merging across
                // ranks/steps is exact: fixed bucket layout).
                obs::record_hist("bsp/comm_bytes_per_superstep", comm_bytes);
            }
        }
    }

    /// Emit one virtual-clock trace slice per rank starting at virtual
    /// time `start` (seconds). No-op unless tracing is on.
    fn trace_rank_slices(&self, start: f64, per_rank: &[f64], cat: &str) {
        if !obs::enabled() || !obs::tracing_enabled() {
            return;
        }
        for (r, &secs) in per_rank.iter().enumerate() {
            obs::trace::virtual_slice(r as u32, &self.current_phase, cat, start, secs);
        }
    }

    /// Run `f(r, &mut states[r])` for every rank, one after another on
    /// the calling thread, and return the results with the per-rank
    /// wall seconds.
    fn timed_ranks<T>(
        states: &mut [S],
        mut f: impl FnMut(usize, &mut S) -> T,
    ) -> (Vec<T>, Vec<f64>) {
        let mut out = Vec::with_capacity(states.len());
        let mut secs = Vec::with_capacity(states.len());
        for (r, s) in states.iter_mut().enumerate() {
            let sw = Stopwatch::start();
            out.push(f(r, s));
            secs.push(sw.secs());
        }
        (out, secs)
    }

    /// Panic unless every rank is alive: the orchestrator must
    /// [`Bsp::recover`] crashed ranks before the next superstep (a dead
    /// rank cannot reach a BSP barrier).
    fn assert_all_alive(&self, what: &str) {
        if let Some(r) = self.down.iter().position(|&d| d) {
            panic!("rank {r} is down entering {what}: recover() crashed ranks before the next superstep");
        }
    }

    /// Zero crashed ranks' compute time, scale stragglers', and return
    /// the makespan advance: the slowest rank's time.
    fn finish_compute_times(
        &mut self,
        secs: &mut [f64],
        crashed: &[bool],
        count_straggle: bool,
    ) -> f64 {
        for (r, s) in secs.iter_mut().enumerate() {
            if crashed[r] {
                *s = 0.0;
                continue;
            }
            let k = self.plan.straggler_factor(r);
            if k > 1.0 {
                *s *= k;
                if count_straggle {
                    self.stats.straggled_steps += 1;
                }
            }
        }
        secs.iter().cloned().fold(0.0f64, f64::max)
    }

    /// A compute-only superstep: run `f` on every rank; the makespan
    /// advances by the slowest rank. Crash faults scheduled for this
    /// superstep fire here (fail-stop: the rank does no work and is
    /// marked down until [`Bsp::recover`]).
    pub fn run(&mut self, mut f: impl FnMut(usize, &mut S)) {
        self.assert_all_alive("run");
        let step = self.steps;
        let p = self.size();
        let crashed: Vec<bool> = (0..p).map(|r| self.plan.crash_step(r) == Some(step)).collect();
        let (_, mut secs) = Self::timed_ranks(&mut self.states, |r, s| {
            if !crashed[r] {
                f(r, s)
            }
        });
        let advance = self.finish_compute_times(&mut secs, &crashed, true);
        for (r, &c) in crashed.iter().enumerate() {
            if c {
                self.down[r] = true;
                self.stats.crashes += 1;
                if obs::enabled() {
                    obs::record_count("fault/crashes", 1);
                }
            }
        }
        self.trace_rank_slices(self.makespan, &secs, "compute");
        for (clock, s) in self.rank_clocks.iter_mut().zip(&secs) {
            clock.compute_secs += s;
        }
        self.steps += 1;
        self.charge_split(advance, 0.0, 0);
    }

    /// Re-execute a crashed rank's lost work and mark it alive again.
    ///
    /// The virtual clock charges the failure-detection timeout (the
    /// reliable layer's RTO) plus the re-executed compute; the superstep
    /// counter does NOT advance, so fault addressing is unaffected by
    /// recovery. Call [`Bsp::charge_recovery_comm`] first for any state
    /// the replacement rank must re-fetch (halos, checkpoints).
    pub fn recover(&mut self, rank: usize, f: impl FnOnce(usize, &mut S)) {
        assert!(self.down[rank], "recover() called on live rank {rank}");
        let sw = Stopwatch::start();
        f(rank, &mut self.states[rank]);
        let secs = sw.secs();
        let detect = self.retry.timeout_s;
        self.down[rank] = false;
        self.stats.recoveries += 1;
        self.stats.recovery_compute_secs += secs;
        self.stats.recovery_comm_secs += detect;
        self.rank_clocks[rank].compute_secs += secs;
        self.rank_clocks[rank].comm_secs += detect;
        let mut slices = vec![0.0; self.size()];
        slices[rank] = secs;
        self.trace_rank_slices(self.makespan + detect, &slices, "compute");
        self.charge_split(secs, detect, 0);
        if obs::enabled() {
            obs::record_count("fault/recoveries", 1);
            obs::record_hist("recovery/compute_us", (secs * 1e6) as u64);
        }
    }

    /// Charge communication a recovering rank performs outside a
    /// superstep (re-requesting its ε-halo, fetching a checkpoint).
    /// Idempotent re-requests are charged like any α–β transfer.
    pub fn charge_recovery_comm(&mut self, rank: usize, bytes: u64) {
        let secs = self.comm.latency_s + bytes as f64 / self.comm.bandwidth_bytes_per_s;
        self.comm_bytes += bytes;
        self.rank_clocks[rank].comm_secs += secs;
        self.rank_clocks[rank].bytes_received += bytes;
        self.stats.recovery_comm_bytes += bytes;
        self.stats.recovery_comm_secs += secs;
        self.charge_split(0.0, secs, bytes);
        if obs::enabled() {
            obs::record_hist("recovery/rerequest_bytes", bytes);
        }
    }

    /// A communicating superstep: every rank produces envelopes, the
    /// engine routes them, then every rank consumes its inbox (messages
    /// arrive as `(source, payload)` sorted by source, in per-sender
    /// send order).
    ///
    /// With a fault plan installed, the router injects drops (retried
    /// with backoff, the delay charged to the barrier), duplications
    /// (discarded by the delivery layer) and reorders (restored by the
    /// delivery layer's `(source, sequence)` sort) — so as long as drops
    /// stay within the retry budget, consumers observe the exact
    /// fault-free inbox and only the virtual clock differs.
    pub fn exchange<M: Clone + MsgSize>(
        &mut self,
        produce: impl FnMut(usize, &mut S) -> Vec<Envelope<M>>,
        mut consume: impl FnMut(usize, &mut S, Vec<(usize, M)>),
    ) {
        self.assert_all_alive("exchange");
        let p = self.size();
        let step = self.steps;
        let faults_on = !self.plan.is_empty();
        let stats_before = self.stats.clone();

        // Produce sub-phase.
        let (outboxes, mut produce_secs) = Self::timed_ranks(&mut self.states, produce);
        let produce_max = self.finish_compute_times(&mut produce_secs, &vec![false; p], true);
        self.trace_rank_slices(self.makespan, &produce_secs, "compute");

        // Route: h-relation cost = max over ranks of bytes in/out.
        // Retransmissions occupy the wire like first sends; the backoff
        // delay of the longest retry chain extends the barrier interval.
        let mut bytes_out = vec![0usize; p];
        let mut bytes_in = vec![0usize; p];
        let mut inboxes: Vec<Vec<(usize, u32, M)>> = (0..p).map(|_| Vec::new()).collect();
        let mut total = 0usize;
        let mut max_retry_delay = 0.0f64;
        for (src, outbox) in outboxes.into_iter().enumerate() {
            for (seq, env) in outbox.into_iter().enumerate() {
                assert!(env.to < p, "rank {src} sent to invalid rank {}", env.to);
                let b = env.msg.byte_size();
                let drops = if faults_on { self.plan.drop_attempts(step, src, env.to) } else { 0 };
                let failures = drops.min(self.retry.max_retries + 1);
                let delivered = drops <= self.retry.max_retries;
                let transmissions = failures as usize + usize::from(delivered);
                if failures > 0 {
                    self.stats.drops_injected += failures as u64;
                    self.stats.retries += transmissions as u64 - 1;
                    let mut delay = 0.0;
                    let mut rto = self.retry.timeout_s;
                    for _ in 0..failures {
                        delay += rto;
                        rto *= self.retry.backoff;
                    }
                    max_retry_delay = max_retry_delay.max(delay);
                    if obs::enabled() {
                        obs::record_hist("fault/retry_delay_us", (delay * 1e6) as u64);
                    }
                }
                bytes_out[src] += b * transmissions;
                total += b * transmissions;
                if delivered {
                    bytes_in[env.to] += b;
                    if faults_on && self.plan.duplicates(step, src, env.to) {
                        self.stats.duplicates_injected += 1;
                        bytes_out[src] += b;
                        bytes_in[env.to] += b;
                        total += b;
                        inboxes[env.to].push((src, seq as u32, env.msg.clone()));
                    }
                    inboxes[env.to].push((src, seq as u32, env.msg));
                } else {
                    self.stats.messages_lost += 1;
                }
            }
        }
        for (to, inbox) in inboxes.iter_mut().enumerate() {
            if faults_on && self.plan.reorders(step, to) && inbox.len() > 1 {
                // Deterministic Fisher–Yates keyed by (plan seed, step,
                // destination): replays shuffle identically.
                self.stats.reorders_injected += 1;
                let mut st = self.plan.seed ^ ((step as u64) << 32) ^ to as u64;
                for i in (1..inbox.len()).rev() {
                    let j = (splitmix64(&mut st) % (i as u64 + 1)) as usize;
                    inbox.swap(i, j);
                }
            }
            // Reliable delivery: exactly-once, in-order. The (source,
            // sequence) sort restores per-sender send order (identical to
            // the fault-free stable source sort) and the dedup discards
            // duplicated deliveries.
            inbox.sort_by_key(|&(src, seq, _)| (src, seq));
            let before = inbox.len();
            inbox.dedup_by_key(|&mut (src, seq, _)| (src, seq));
            self.stats.duplicates_discarded += (before - inbox.len()) as u64;
        }
        let inboxes: Vec<Vec<(usize, M)>> = inboxes
            .into_iter()
            .map(|v| v.into_iter().map(|(src, _seq, m)| (src, m)).collect())
            .collect();
        let h = bytes_out.iter().zip(&bytes_in).map(|(o, i)| o.max(i)).max().copied().unwrap_or(0);
        self.stats.retry_delay_secs += max_retry_delay;
        let comm_secs = if total > 0 {
            self.comm.latency_s + h as f64 / self.comm.bandwidth_bytes_per_s + max_retry_delay
        } else {
            self.comm.latency_s + max_retry_delay
        };
        self.comm_bytes += total as u64;
        if obs::enabled() && faults_on {
            for (key, delta) in [
                ("fault/drops", self.stats.drops_injected - stats_before.drops_injected),
                ("fault/retries", self.stats.retries - stats_before.retries),
                ("fault/messages_lost", self.stats.messages_lost - stats_before.messages_lost),
                (
                    "fault/duplicates",
                    self.stats.duplicates_injected - stats_before.duplicates_injected,
                ),
                ("fault/reorders", self.stats.reorders_injected - stats_before.reorders_injected),
            ] {
                if delta > 0 {
                    obs::record_count(key, delta);
                }
            }
        }

        // The comm segment occupies the barrier interval after the
        // slowest producer, identically on every rank (BSP h-relation).
        let comm_start = self.makespan + produce_max;
        if obs::enabled() && obs::tracing_enabled() {
            self.trace_rank_slices(comm_start, &vec![comm_secs; p], "comm");
        }

        // Consume sub-phase: ranks consume in rank order, so the r-th
        // inbox is rank r's.
        let mut inboxes = inboxes.into_iter();
        let (_, mut consume_secs) = Self::timed_ranks(&mut self.states, |r, s| {
            consume(r, s, inboxes.next().expect("one inbox per rank"))
        });
        // Stragglers already counted once for this superstep (produce).
        let consume_max = self.finish_compute_times(&mut consume_secs, &vec![false; p], false);
        self.trace_rank_slices(comm_start + comm_secs, &consume_secs, "compute");

        for (r, clock) in self.rank_clocks.iter_mut().enumerate() {
            clock.compute_secs += produce_secs[r] + consume_secs[r];
            clock.comm_secs += comm_secs;
            clock.bytes_sent += bytes_out[r] as u64;
            clock.bytes_received += bytes_in[r] as u64;
        }

        self.steps += 1;
        self.charge_split(produce_max + consume_max, comm_secs, total as u64);
    }

    /// Allgather collective: every rank contributes one value; the result
    /// (indexed by rank) is returned to the orchestrator AND can be read
    /// by every rank in a following superstep. Communication is charged
    /// as each rank broadcasting its value to all others.
    pub fn allgather<M: Clone + MsgSize>(
        &mut self,
        mut f: impl FnMut(usize, &mut S) -> M,
    ) -> Vec<M> {
        let p = self.size();
        let mut slots: Vec<Option<M>> = (0..p).map(|_| None).collect();
        self.exchange(
            |r, s| {
                let v = f(r, s);
                // Broadcast to all ranks (self included, matching
                // MPI_Allgather semantics).
                (0..p).map(|to| Envelope::new(to, v.clone())).collect()
            },
            |r, _s, inbox| {
                if r == 0 {
                    for (src, m) in inbox {
                        slots[src] = Some(m);
                    }
                }
            },
        );
        slots.into_iter().map(|o| o.expect("allgather missing contribution")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_touches_every_rank() {
        let mut bsp = Bsp::new(vec![0u64; 8]);
        bsp.run(|r, s| *s = r as u64 * 10);
        assert_eq!(bsp.states(), &[0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(bsp.steps(), 1);
        assert!(bsp.makespan() > 0.0);
    }

    #[test]
    fn exchange_routes_point_to_point() {
        // Ring shift: rank r sends r² to (r+1) % p.
        let p = 5;
        let mut bsp = Bsp::new(vec![(0u64, 0usize); p]);
        bsp.exchange(
            |r, _s| vec![Envelope::new((r + 1) % p, (r * r) as u64)],
            |_r, s, inbox| {
                assert_eq!(inbox.len(), 1);
                s.0 = inbox[0].1;
                s.1 = inbox[0].0;
            },
        );
        for (r, &(val, src)) in bsp.states().iter().enumerate() {
            let expect_src = (r + p - 1) % p;
            assert_eq!(src, expect_src);
            assert_eq!(val, (expect_src * expect_src) as u64);
        }
        assert!(bsp.comm_bytes() > 0);
    }

    #[test]
    fn inbox_sorted_by_source() {
        let p = 6;
        let mut bsp = Bsp::new(vec![Vec::<usize>::new(); p]);
        bsp.exchange(
            |r, _s| (0..p).rev().map(|to| Envelope::new(to, r as u32)).collect(),
            |_r, s, inbox| {
                *s = inbox.iter().map(|(src, _)| *src).collect();
            },
        );
        for s in bsp.states() {
            assert_eq!(*s, (0..p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn allgather_replicates() {
        let mut bsp = Bsp::new(vec![0u32; 4]);
        let all = bsp.allgather(|r, _s| r as u32 + 100);
        assert_eq!(all, vec![100, 101, 102, 103]);
    }

    #[test]
    fn phases_accumulate_makespan() {
        let mut bsp = Bsp::new(vec![(); 3]);
        bsp.phase("alpha");
        bsp.run(|_r, _s| {});
        bsp.phase("beta");
        bsp.run(|_r, _s| {});
        bsp.run(|_r, _s| {});
        let t = bsp.phase_times();
        assert!(t.secs("alpha") >= 0.0);
        assert!(t.secs("beta") >= 0.0);
        let total = t.total_secs();
        assert!((total - bsp.makespan()).abs() < 1e-9);
    }

    #[test]
    fn comm_model_charges_latency() {
        let comm = CommModel { latency_s: 1.0, bandwidth_bytes_per_s: 1e9 };
        let mut bsp = Bsp::new(vec![(); 2]).with_comm(comm);
        bsp.exchange(|_r, _s| vec![Envelope::new(0, 1u32)], |_r, _s, _in| {});
        assert!(bsp.makespan() >= 1.0, "latency must be charged");
    }

    #[test]
    fn rank_clocks_and_virtual_trace_slices() {
        obs::enable();
        obs::enable_tracing();
        let mut bsp = Bsp::new(vec![0u64; 3]);
        bsp.phase("rc_probe_compute");
        bsp.run(|r, s| *s = r as u64);
        bsp.phase("rc_probe_exchange");
        bsp.exchange(
            |r, _s| vec![Envelope::new((r + 1) % 3, vec![0u8; 64])],
            |_r, s, inbox: Vec<(usize, Vec<u8>)>| *s += inbox.len() as u64,
        );
        obs::disable_tracing();
        obs::disable();

        let clocks = bsp.rank_clocks();
        assert_eq!(clocks.len(), 3);
        for c in clocks {
            assert!(c.compute_secs > 0.0, "per-rank compute must accumulate");
            assert!(c.comm_secs > 0.0, "per-rank comm must accumulate");
            // The ring shift is symmetric: everyone sends and receives one
            // 64-byte payload.
            assert!(c.bytes_sent > 0);
            assert_eq!(c.bytes_sent, c.bytes_received);
        }

        // The virtual timeline carries one compute slice per rank for the
        // run, one produce + one consume compute slice and one comm slice
        // per rank for the exchange. Filter by this test's phase names:
        // other tests in the binary may trace concurrently.
        let trace = obs::take_trace();
        let (mut compute, mut comm) = (0usize, 0usize);
        let mut tracks = std::collections::BTreeSet::new();
        for e in trace.virtual_slices() {
            if let obs::trace::Event::Virtual { track, name, cat, .. } = &e.event {
                if !name.starts_with("rc_probe_") {
                    continue;
                }
                tracks.insert(*track);
                match cat.as_str() {
                    "compute" => compute += 1,
                    "comm" => comm += 1,
                    other => panic!("unexpected category {other:?}"),
                }
            }
        }
        assert_eq!(tracks.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(comm, 3, "one comm slice per rank for the exchange");
        assert_eq!(compute, 9, "run (3) + exchange produce (3) + consume (3)");
    }

    #[test]
    #[should_panic(expected = "invalid rank")]
    fn bad_destination_panics() {
        let mut bsp = Bsp::new(vec![(); 2]);
        bsp.exchange(|_r, _s| vec![Envelope::new(7, 0u32)], |_r, _s, _in| {});
    }

    #[test]
    fn crash_skips_rank_until_recovered() {
        use crate::fault::{Fault, FaultPlan};
        let plan = FaultPlan::new(1).with(Fault::Crash { rank: 1, superstep: 0 });
        let mut bsp = Bsp::new(vec![0u64; 3]).with_fault_plan(plan);
        bsp.run(|r, s| *s = r as u64 + 1);
        assert_eq!(bsp.states(), &[1, 0, 3], "crashed rank does no work");
        assert_eq!(bsp.crashed_ranks(), vec![1]);
        assert!(bsp.is_down(1));
        assert_eq!(bsp.fault_stats().crashes, 1);
        let steps_before = bsp.steps();
        let makespan_before = bsp.makespan();
        bsp.recover(1, |r, s| *s = r as u64 + 1);
        assert_eq!(bsp.states(), &[1, 2, 3], "recovery re-executes the lost work");
        assert!(bsp.crashed_ranks().is_empty());
        assert_eq!(bsp.fault_stats().recoveries, 1);
        assert_eq!(bsp.steps(), steps_before, "recovery must not advance fault addressing");
        assert!(bsp.makespan() > makespan_before, "recovery work is charged");
        // Next superstep proceeds normally.
        bsp.run(|_r, s| *s += 10);
        assert_eq!(bsp.states(), &[11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "is down entering")]
    fn unrecovered_crash_blocks_next_superstep() {
        use crate::fault::{Fault, FaultPlan};
        let plan = FaultPlan::new(1).with(Fault::Crash { rank: 0, superstep: 0 });
        let mut bsp = Bsp::new(vec![(); 2]).with_fault_plan(plan);
        bsp.run(|_r, _s| {});
        bsp.run(|_r, _s| {});
    }

    #[test]
    fn message_faults_leave_inbox_bit_identical() {
        use crate::fault::{Fault, FaultPlan};
        // All ranks send two tagged messages to rank 0; the faulted run
        // must deliver the exact fault-free inbox.
        let p = 4;
        let program = |bsp: &mut Bsp<Vec<(usize, u32)>>| {
            bsp.exchange(
                |r, _s| (0..2).map(|k| Envelope::new(0, (r as u32) * 10 + k)).collect(),
                |r, s, inbox| {
                    if r == 0 {
                        *s = inbox.into_iter().collect();
                    }
                },
            );
        };
        let mut clean = Bsp::new(vec![Vec::new(); p]);
        program(&mut clean);

        let plan = FaultPlan::new(42)
            .with(Fault::Drop { superstep: 0, from: 1, to: 0, attempts: 2 })
            .with(Fault::Duplicate { superstep: 0, from: 2, to: 0 })
            .with(Fault::Reorder { superstep: 0, to: 0 });
        let mut faulty = Bsp::new(vec![Vec::new(); p]).with_fault_plan(plan);
        program(&mut faulty);

        assert_eq!(clean.states()[0], faulty.states()[0], "delivery layer restores the inbox");
        let st = faulty.fault_stats();
        assert_eq!(st.drops_injected, 4, "2 dropped attempts x 2 messages on the 1->0 link");
        assert_eq!(st.retries, 4);
        assert_eq!(st.duplicates_injected, 2);
        assert_eq!(st.duplicates_discarded, 2);
        assert_eq!(st.reorders_injected, 1);
        assert_eq!(st.messages_lost, 0);
        assert!(st.retry_delay_secs > 0.0, "backoff must be charged");
        assert!(faulty.makespan() > clean.makespan(), "retries extend the barrier");
        assert!(faulty.comm_bytes() > clean.comm_bytes(), "retransmissions hit the wire");
    }

    #[test]
    fn drop_beyond_retry_budget_loses_message() {
        use crate::fault::{Fault, FaultPlan, RetryConfig};
        let plan =
            FaultPlan::new(3).with(Fault::Drop { superstep: 0, from: 1, to: 0, attempts: 1 });
        let mut bsp = Bsp::new(vec![Vec::<usize>::new(); 3])
            .with_fault_plan(plan)
            .with_retry(RetryConfig::none());
        bsp.exchange(
            |r, _s| vec![Envelope::new(0, r as u32)],
            |r, s, inbox| {
                if r == 0 {
                    *s = inbox.into_iter().map(|(src, _)| src).collect();
                }
            },
        );
        assert_eq!(bsp.states()[0], vec![0, 2], "message from rank 1 is gone");
        assert_eq!(bsp.fault_stats().messages_lost, 1);
        assert_eq!(bsp.fault_stats().retries, 0);
    }

    #[test]
    fn straggler_scales_virtual_clock() {
        use crate::fault::{Fault, FaultPlan};
        let plan = FaultPlan::new(9).with(Fault::Straggler { rank: 1, slowdown: 8.0 });
        let mut bsp = Bsp::new(vec![(); 2]).with_fault_plan(plan);
        bsp.run(|_r, _s| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(bsp.fault_stats().straggled_steps, 1);
        let clocks = bsp.rank_clocks();
        assert!(
            clocks[1].compute_secs >= 4.0 * clocks[0].compute_secs,
            "straggler clock must be skewed (got {} vs {})",
            clocks[1].compute_secs,
            clocks[0].compute_secs
        );
        assert!(bsp.makespan() >= clocks[1].compute_secs);
    }

    #[test]
    fn empty_plan_is_neutral() {
        use crate::fault::FaultPlan;
        let program = |bsp: &mut Bsp<Vec<u64>>| {
            bsp.run(|r, s| s.push(r as u64));
            bsp.exchange(
                |r, _s| vec![Envelope::new(0, r as u64)],
                |r, s, inbox| {
                    if r == 0 {
                        s.extend(inbox.into_iter().map(|(_, m)| m));
                    }
                },
            );
        };
        let mut a = Bsp::new(vec![Vec::new(); 3]);
        program(&mut a);
        let mut b = Bsp::new(vec![Vec::new(); 3]).with_fault_plan(FaultPlan::new(5));
        program(&mut b);
        assert!(b.fault_stats().is_quiet());
        assert_eq!(a.comm_bytes(), b.comm_bytes());
        assert_eq!(a.into_states(), b.into_states());
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates_sequential() {
        // Failure injection: a crashing rank program must surface, not be
        // swallowed by the engine.
        let mut bsp = Bsp::new(vec![(); 3]);
        bsp.run(|r, _s| {
            if r == 1 {
                panic!("injected rank failure");
            }
        });
    }
}
