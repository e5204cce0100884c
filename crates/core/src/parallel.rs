//! Shared-memory parallel μDBSCAN — the paper's stated future work
//! ("extend this approach to leverage multiple cores available in each
//! computing node").
//!
//! The sequential algorithm's steps parallelise as follows:
//!
//! * μR-tree construction runs Algorithm 3's ordered scans on the calling
//!   thread and builds the per-MC aux trees on the workers
//!   ([`mcs::build_micro_clusters_par`]), so every thread count builds
//!   exactly the micro-clusters [`crate::MuDbscan`] builds;
//! * MC classification, `PROCESS-REM-POINTS` and `POST-PROCESSING-*` run
//!   on a pool of worker threads over disjoint chunks, sharing a
//!   lock-free [`ConcurrentUnionFind`] and per-point atomic flags.
//!
//! Exactness under concurrency hinges on one rule: a **non-core**
//! neighbour may be claimed by at most one cluster, so the
//! `assigned` flag is a CAS gate — only the winning thread performs the
//! union. Core–core unions are unconditional (always valid), and
//! wndq-core promotion uses a CAS on the core flag the same way. All
//! orderings produce *a* valid DBSCAN border assignment, and cores /
//! noise / the core partition are order-independent — so the result
//! passes the same exactness oracle as the sequential algorithm.

use crate::clustering::Clustering;
use geom::{dist_sq, Dataset, DbscanParams, PointId};
use mcs::{build_micro_clusters_par, BuildOptions, McKind};
use metrics::{PhaseTimer, SharedCounters};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use unionfind::ConcurrentUnionFind;

/// Shared-memory parallel μDBSCAN.
#[derive(Debug, Clone)]
pub struct ParMuDbscan {
    params: DbscanParams,
    opts: BuildOptions,
    threads: usize,
}

/// Output of a parallel run.
#[derive(Debug)]
pub struct ParOutput {
    /// The exact DBSCAN clustering.
    pub clustering: Clustering,
    /// Shared operation counters.
    pub counters: SharedCounters,
    /// Wall-clock phase split-up.
    pub phases: PhaseTimer,
    /// Number of micro-clusters.
    pub mc_count: usize,
}

struct Flags {
    core: Vec<AtomicBool>,
    wndq: Vec<AtomicBool>,
    assigned: Vec<AtomicBool>,
}

impl Flags {
    fn new(n: usize) -> Self {
        Self {
            core: (0..n).map(|_| AtomicBool::new(false)).collect(),
            wndq: (0..n).map(|_| AtomicBool::new(false)).collect(),
            assigned: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// CAS-claim a non-core point for a cluster; true when this caller
    /// won and must perform the union.
    fn claim(&self, p: PointId) -> bool {
        self.assigned[p as usize]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// CAS-promote a point to core; true when this caller won.
    ///
    /// SeqCst is load-bearing, not caution: exactness needs every core–core
    /// pair within ε to be unioned by at least one side. When threads A and
    /// B concurrently discover cores r and p with both points already
    /// `assigned` (step-1b MC membership makes the later `claim` fail and
    /// with it the fallback union), the only remaining union is the
    /// `core[x]` check in the scan loop — and "A promotes r then reads
    /// core[p], B promotes p then reads core[r]" is exactly the
    /// store-buffering litmus test, where acquire/release (and x86-TSO
    /// hardware) permit BOTH to read `false`, splitting one cluster in two.
    /// A single total order over the promotes and core-loads (SeqCst here
    /// and in [`Flags::is_core`]) forbids that outcome: whichever promote
    /// comes second in the total order, that thread's subsequent load sees
    /// the other's promote.
    fn promote(&self, p: PointId) -> bool {
        self.core[p as usize]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// SeqCst core-flag read — pairs with [`Flags::promote`]; see there.
    fn is_core(&self, p: PointId) -> bool {
        self.core[p as usize].load(Ordering::SeqCst)
    }
}

impl ParMuDbscan {
    /// New instance with `threads` worker threads and the default
    /// micro-cluster build options.
    ///
    /// Low-level entry point; applications should prefer
    /// `mudbscan::prelude::Runner::new(params).threads(threads)`.
    pub fn from_params(params: DbscanParams, threads: usize) -> Self {
        assert!(threads >= 1);
        Self { params, opts: BuildOptions::default(), threads }
    }

    /// Override micro-cluster construction options.
    pub fn with_options(mut self, opts: BuildOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run on `data`.
    pub fn run(&self, data: &Dataset) -> ParOutput {
        let n = data.len();
        let params = self.params;
        let counters = SharedCounters::new();
        let mut phases = PhaseTimer::new();
        let run_span = obs::span!("par_mudbscan");

        // Step 1: μR-tree — Algorithm 3's scans, aux trees on the workers.
        // The builder counts through a sequential `Counters` absorbed
        // once, so snapshots stay comparable with `MuDbscan`.
        let step1 = phases.phase("tree_construction");
        let seq_counters = metrics::Counters::new();
        let mut tree =
            build_micro_clusters_par(data, params.eps, &self.opts, self.threads, &seq_counters);
        counters.absorb(&seq_counters);
        drop(step1);

        // Step 2 (parallel): reachable lists (independent per MC — but
        // computed via &mut self in the sequential API, so parallelise by
        // computing into a side vector).
        let step2 = phases.phase("finding_reachable");
        let reach: Vec<Vec<mcs::McId>> = {
            let tree = &tree;
            let counters = &counters;
            parallel_map_chunks(self.threads, tree.mcs.len(), |range| {
                let mut out = Vec::with_capacity(range.len());
                let mut scratch = Vec::new();
                for i in range {
                    scratch.clear();
                    let cost = tree.reachable_from(data, i as mcs::McId, &mut scratch);
                    counters.count_dists(cost.mbr_tests);
                    counters.count_node_visits(cost.nodes_visited.max(1));
                    out.push(scratch.clone());
                }
                out
            })
        };
        for (mc, list) in tree.mcs.iter_mut().zip(reach) {
            mc.reach = list;
        }
        drop(step2);

        // Step 1b (parallel-safe, run after reach for better locality):
        // classify MCs, label wndq-cores, preliminary unions.
        let step3 = phases.phase("clustering");
        let uf = ConcurrentUnionFind::new(n);
        let flags = Flags::new(n);
        let wndq_list: Mutex<Vec<PointId>> = Mutex::new(Vec::new());
        {
            let tree = &tree;
            let flags = &flags;
            let uf = &uf;
            let counters = &counters;
            let wndq_list = &wndq_list;
            parallel_for_chunks(self.threads, tree.mcs.len(), move |range| {
                let mut local_wndq = Vec::new();
                for mi in range {
                    let mc = &tree.mcs[mi];
                    match mc.kind(&params) {
                        McKind::Dense => {
                            for q in mc.inner_circle(data, params.eps) {
                                if flags.promote(q) {
                                    flags.wndq[q as usize].store(true, Ordering::Release);
                                    local_wndq.push(q);
                                }
                            }
                            for &p in &mc.members {
                                // Membership is exclusive, so this thread
                                // owns these points' assignment.
                                flags.assigned[p as usize].store(true, Ordering::Release);
                                uf.union(mc.center, p);
                                counters.count_union();
                            }
                        }
                        McKind::Core => {
                            if flags.promote(mc.center) {
                                flags.wndq[mc.center as usize].store(true, Ordering::Release);
                                local_wndq.push(mc.center);
                            }
                            for &p in &mc.members {
                                flags.assigned[p as usize].store(true, Ordering::Release);
                                uf.union(mc.center, p);
                                counters.count_union();
                            }
                        }
                        McKind::Sparse => {}
                    }
                }
                wndq_list.lock().expect("poisoned").extend(local_wndq);
            });
        }

        // Step 3 (parallel): PROCESS-REM-POINTS. Unlike the sequential
        // version, dynamically promoted wndq-cores may already have been
        // queried by another thread — that costs extra queries but never
        // correctness.
        let noise_list: Mutex<Vec<(PointId, Vec<PointId>)>> = Mutex::new(Vec::new());
        let half = params.eps / 2.0;
        let half_sq = half * half;
        {
            let tree = &tree;
            let flags = &flags;
            let uf = &uf;
            let counters = &counters;
            let wndq_list = &wndq_list;
            let noise_list = &noise_list;
            parallel_for_chunks(self.threads, n, move |range| {
                let mut local_noise = Vec::new();
                let mut local_wndq = Vec::new();
                let mut nbhrs: Vec<PointId> = Vec::new();
                for pi in range {
                    let p = pi as PointId;
                    if flags.wndq[pi].load(Ordering::Acquire) {
                        counters.count_query_saved();
                        continue;
                    }
                    nbhrs.clear();
                    let cost = tree.neighborhood(data, p, &mut nbhrs);
                    counters.count_range_query();
                    counters.count_dists(cost.mbr_tests);
                    counters.count_node_visits(cost.nodes_visited.max(1));
                    // Mirrors the sequential `process_rem_points` site:
                    // histogram merging is commutative, so as long as the
                    // executed query set is identical the merged
                    // histograms are bit-identical across thread counts.
                    if obs::enabled() {
                        obs::record_hist("query/node_visits", cost.nodes_visited.max(1));
                        obs::record_hist("query/candidates", nbhrs.len() as u64);
                        // Same key as the sequential site: leaf_evals is a
                        // function of the visited node set, so it stays
                        // bit-identical across thread counts.
                        obs::record_hist("query/leaf_evals", cost.candidates);
                    }

                    if nbhrs.len() < params.min_pts {
                        if !flags.assigned[pi].load(Ordering::Acquire) {
                            let mut attached = false;
                            for &x in &nbhrs {
                                if flags.is_core(x) {
                                    if flags.claim(p) {
                                        uf.union(x, p);
                                        counters.count_union();
                                    }
                                    attached = true;
                                    break;
                                }
                            }
                            if !attached {
                                local_noise.push((p, nbhrs.clone()));
                            }
                        }
                        continue;
                    }

                    flags.promote(p);
                    flags.assigned[pi].store(true, Ordering::Release);
                    for &x in &nbhrs {
                        if flags.is_core(x) {
                            uf.union(x, p);
                            counters.count_union();
                        } else if flags.claim(x) {
                            uf.union(p, x);
                            counters.count_union();
                        } else if flags.is_core(x) {
                            // x was promoted between the first check and the
                            // failed claim: the core-core union is mandatory.
                            uf.union(x, p);
                            counters.count_union();
                        }
                    }

                    let pc = data.point(p);
                    let inner =
                        nbhrs.iter().filter(|&&q| dist_sq(pc, data.point(q)) < half_sq).count();
                    counters.count_dists(nbhrs.len() as u64);
                    if inner >= params.min_pts {
                        for &q in &nbhrs {
                            if dist_sq(pc, data.point(q)) < half_sq && flags.promote(q) {
                                flags.wndq[q as usize].store(true, Ordering::Release);
                                local_wndq.push(q);
                                uf.union(p, q);
                                counters.count_union();
                                flags.assigned[q as usize].store(true, Ordering::Release);
                            }
                        }
                    }
                }
                noise_list.lock().expect("poisoned").extend(local_noise);
                wndq_list.lock().expect("poisoned").extend(local_wndq);
            });
        }
        drop(step3);

        // Step 4 (parallel): post-processing.
        let step4 = phases.phase("post_processing");
        let wndq_list = wndq_list.into_inner().expect("poisoned");
        let eps_sq = params.eps_sq();
        {
            let tree = &tree;
            let flags = &flags;
            let uf = &uf;
            let counters = &counters;
            let wndq_list = &wndq_list;
            parallel_for_chunks(self.threads, wndq_list.len(), move |range| {
                for i in range {
                    let p = wndq_list[i];
                    let pc = data.point(p);
                    for &mc_id in tree.reach_of(p) {
                        let mc = &tree.mcs[mc_id as usize];
                        if mc.mbr.min_dist_sq(pc) >= eps_sq {
                            continue;
                        }
                        if mc.kind(&params) != McKind::Sparse {
                            // Whole MC is one cluster (see the sequential
                            // version); the racy same() check is safe —
                            // "same" is monotone under unions.
                            if uf.same(p, mc.center) {
                                continue;
                            }
                            let aux = mc.aux.as_ref().expect("aux built");
                            let mut hit = None;
                            let cost = aux.search_sphere(pc, params.eps, |q| {
                                if hit.is_none() && q != p && flags.is_core(q) {
                                    hit = Some(q);
                                }
                            });
                            // Mirrors the sequential post_processing_core
                            // site exactly, so seq/par counter snapshots
                            // stay comparable.
                            counters.count_range_query();
                            counters.count_dists(cost.mbr_tests);
                            counters.count_node_visits(cost.nodes_visited.max(1));
                            if obs::enabled() {
                                obs::record_hist("postproc/node_visits", cost.nodes_visited.max(1));
                            }
                            if let Some(q) = hit {
                                uf.union(p, q);
                                counters.count_union();
                            }
                            continue;
                        }
                        for &q in &mc.members {
                            if q == p || !flags.is_core(q) {
                                continue;
                            }
                            if uf.same(p, q) {
                                continue;
                            }
                            counters.count_dists(1);
                            if dist_sq(pc, data.point(q)) < eps_sq {
                                uf.union(p, q);
                                counters.count_union();
                            }
                        }
                    }
                }
            });
        }
        let noise_list = noise_list.into_inner().expect("poisoned");
        {
            let flags = &flags;
            let uf = &uf;
            let counters = &counters;
            let noise_list = &noise_list;
            parallel_for_chunks(self.threads, noise_list.len(), move |range| {
                for i in range {
                    let (p, ref nbhrs) = noise_list[i];
                    if flags.is_core(p) || flags.assigned[p as usize].load(Ordering::Acquire) {
                        continue;
                    }
                    for &q in nbhrs {
                        if flags.is_core(q) {
                            if flags.claim(p) {
                                uf.union(q, p);
                                counters.count_union();
                            }
                            break;
                        }
                    }
                }
            });
        }
        drop(step4);

        if obs::enabled() {
            let (dense, core, sparse) = tree.kind_histogram(&params);
            obs::record_count("mc/dense", dense as u64);
            obs::record_count("mc/core", core as u64);
            obs::record_count("mc/sparse", sparse as u64);
            obs::record_count("queries/executed", counters.range_queries());
            obs::record_count("queries/saved", counters.queries_saved());
            obs::record_count("threads", self.threads as u64);
        }
        drop(run_span);

        // Extract the clustering.
        let is_core: Vec<bool> = flags.core.iter().map(|b| b.load(Ordering::Acquire)).collect();
        let mut seq_uf = unionfind::UnionFind::new(n);
        for x in 0..n as u32 {
            let r = uf.find(x);
            if r != x {
                seq_uf.union(r, x);
            }
        }
        let clustering = Clustering::from_union_find(&mut seq_uf, is_core);
        ParOutput { clustering, counters, phases, mc_count: tree.mc_count() }
    }
}

/// Run `f` over disjoint index chunks on `threads` scoped threads.
fn parallel_for_chunks(threads: usize, len: usize, f: impl Fn(std::ops::Range<usize>) + Sync) {
    if len == 0 {
        return;
    }
    let next = AtomicUsize::new(0);
    let chunk = (len / (threads * 8)).max(64);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let f = &f;
            let next = &next;
            s.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                f(start..(start + chunk).min(len));
            });
        }
    });
}

/// Like [`parallel_for_chunks`] but collects per-index results in order.
fn parallel_map_chunks<T: Send>(
    threads: usize,
    len: usize,
    f: impl Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = (len / (threads * 8)).max(64);
    let slots: Vec<Mutex<Option<Vec<T>>>> =
        (0..len.div_ceil(chunk)).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let f = &f;
            let next = &next;
            let slots = &slots;
            s.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let start = idx * chunk;
                if start >= len {
                    break;
                }
                let out = f(start..(start + chunk).min(len));
                *slots[idx].lock().expect("poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .flat_map(|m| m.into_inner().expect("poisoned").expect("chunk not computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::check_exact;
    use crate::reference::naive_dbscan;

    fn blobs(seed: u64) -> Dataset {
        let mut rows = Vec::new();
        let mut s = seed;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (6.0, 1.0), (2.0, 7.0)] {
            for _ in 0..60 {
                rows.push(vec![cx + 0.7 * r(), cy + 0.7 * r()]);
            }
        }
        for _ in 0..25 {
            rows.push(vec![12.0 * r(), 12.0 * r()]);
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn parallel_is_exact_across_thread_counts() {
        let data = blobs(1);
        let params = DbscanParams::new(0.6, 5);
        let reference = naive_dbscan(&data, &params);
        for threads in [1, 2, 4, 8] {
            let out = ParMuDbscan::from_params(params, threads).run(&data);
            let rep = check_exact(&out.clustering, &reference, &data, &params);
            assert!(rep.is_exact(), "threads={threads}: {rep:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential_canon() {
        // One builder: under the default options every thread count forms
        // exactly the MCs `MuDbscan` forms, and the clustering is canon-
        // identical.
        let data = blobs(9);
        let params = DbscanParams::new(0.8, 4);
        let seq = crate::MuDbscan::from_params(params).run(&data);
        let par = ParMuDbscan::from_params(params, 4).run(&data);
        assert_eq!(par.mc_count, seq.mc_count);
        assert_eq!(par.clustering.n_clusters, seq.clustering.n_clusters);
        assert_eq!(par.clustering.is_core, seq.clustering.is_core);
        assert_eq!(par.clustering.noise_count(), seq.clustering.noise_count());
    }

    #[test]
    fn repeated_runs_are_stable() {
        // Thread interleavings may differ, but the canonical clustering
        // quantities must not.
        let data = blobs(33);
        let params = DbscanParams::new(0.5, 4);
        let first = ParMuDbscan::from_params(params, 4).run(&data);
        for _ in 0..5 {
            let out = ParMuDbscan::from_params(params, 4).run(&data);
            assert_eq!(out.clustering.n_clusters, first.clustering.n_clusters);
            assert_eq!(out.clustering.is_core, first.clustering.is_core);
            assert_eq!(out.clustering.noise_count(), first.clustering.noise_count());
        }
    }

    /// Regression test for the store-buffering race fixed in
    /// [`Flags::promote`] / [`Flags::is_core`] (see the comment there).
    ///
    /// The dataset is engineered to maximise the racy window: many pairs of
    /// points that (a) are members of *different* core MCs — so step 1b
    /// marks them `assigned` and the `claim` fallback union is dead — and
    /// (b) are within ε of each other and only proven core by their own
    /// step-3 query. Two threads scanning such a pair concurrently must
    /// still produce the core–core union on at least one side; with the
    /// old acquire/release promote both sides could miss it and split a
    /// cluster. The race window is sub-microsecond, so we run many
    /// repetitions at a high thread count and check full exactness (the
    /// oracle catches a split cluster as a core-partition mismatch).
    #[test]
    fn stress_border_claim_vs_promotion_race() {
        // Pairs of MCs ~1.3 apart (eps = 1.5): centers of adjacent MCs are
        // separated by more than eps (so they form distinct MCs) while rim
        // members of one MC sit within eps of rim members of the next.
        let mut rows = Vec::new();
        for g in 0..40 {
            let x = g as f64 * 10.0;
            for (cx, cy) in [(x, 0.0), (x + 1.6, 0.0)] {
                // MinPts members per MC, spread on a rim so inner_count
                // stays below MinPts (no wndq shortcut: every point is
                // proven core by its own step-3 query).
                for k in 0..5 {
                    let a = k as f64 * std::f64::consts::TAU / 5.0;
                    rows.push(vec![cx + 0.7 * a.cos(), cy + 0.7 * a.sin()]);
                }
            }
        }
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(1.5, 4);
        let reference = naive_dbscan(&data, &params);
        let threads = std::thread::available_parallelism().map_or(8, |p| p.get().max(8));
        for rep in 0..50 {
            let out = ParMuDbscan::from_params(params, threads).run(&data);
            let rep_report = check_exact(&out.clustering, &reference, &data, &params);
            assert!(
                rep_report.is_exact(),
                "rep {rep} threads={threads}: {rep_report:?} (got {} clusters, want {})",
                out.clustering.n_clusters,
                reference.n_clusters
            );
        }
    }

    #[test]
    fn counters_and_phases_populated() {
        let data = blobs(5);
        let out = ParMuDbscan::from_params(DbscanParams::new(0.6, 5), 3).run(&data);
        assert!(out.counters.range_queries() > 0);
        assert!(out.counters.union_ops() > 0);
        assert!(out.phases.total_secs() > 0.0);
    }
}
