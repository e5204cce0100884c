//! The μDBSCAN engine — paper Algorithm 2 and its four steps, on one or
//! more worker threads.
//!
//! Step 1  `BUILD-MICRO-CLUSTERS` + μR-tree
//!         ([`mcs::build_micro_clusters_par`]).
//! Step 1b `PROCESS-MICRO-CLUSTERS` (Algorithm 4): DMC/CMC classification,
//!         wndq-core labelling, preliminary clusters.
//! Step 2  `FIND-REACHABLE-MC` (Algorithm 5): 3ε reachable lists.
//! Step 3  `PROCESS-REM-POINTS` (Algorithm 6): restricted ε-queries for the
//!         remaining points, with dynamic wndq-core promotion.
//! Step 4  `POST-PROCESSING-CORE` / `POST-PROCESSING-NOISE`
//!         (Algorithms 7–8): establish the final connections.
//!
//! Step 1 runs Algorithm 3's ordered scans on the calling thread and
//! fills the per-MC member blocks on the workers, so every thread count
//! builds the same μR-tree. Steps 1b–4 run over disjoint chunks of MCs,
//! points or list entries on a pool of workers that share a lock-free
//! [`ConcurrentUnionFind`] and per-point atomic flags. When one worker
//! suffices every chunk runs inline on the calling thread, in order, so
//! the one-thread run is the sequential algorithm step for step.
//!
//! Border-point unions follow the disjoint-set DBSCAN rule (Patwary et
//! al.): a core point is always unioned with another core neighbour, but a
//! non-core neighbour is unioned only when not yet assigned to a cluster —
//! a border point shared by two clusters must not merge them. Under
//! concurrency the `assigned` flag is a CAS gate, so only the thread that
//! claims a non-core point performs its union; core–core unions are
//! unconditional, and wndq-core promotion is a CAS on the core flag. Every
//! interleaving yields *a* valid DBSCAN border assignment, and cores,
//! noise and the core partition do not depend on it, so every thread
//! count passes the same exactness oracle.

use crate::clustering::Clustering;
use geom::{dist_sq, Dataset, DbscanParams, PointId};
use mcs::{build_micro_clusters_par, scan_block, BuildOptions, McId, McKind, MuRTree};
use metrics::mem::vec_bytes;
use metrics::{Counters, PhaseTimer};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use unionfind::{ConcurrentUnionFind, UnionFind};

/// Configured μDBSCAN instance.
#[derive(Debug, Clone)]
pub struct MuDbscan {
    params: DbscanParams,
    opts: BuildOptions,
    threads: usize,
    /// Skip the dynamic wndq-core promotion of Algorithm 6 step (iii)
    /// (ablation knob; the clustering stays exact either way, only the
    /// number of saved queries changes).
    pub disable_dynamic_promotion: bool,
    /// Disable the MC-granularity skip in POST-PROCESSING-CORE (Algorithm
    /// 7). With the skip (default), a wndq-core point tests one union–find
    /// root per dense/core MC instead of scanning every member — this
    /// implementation improvement collapses the post-processing share of
    /// runtime (the paper's Table III shows 36–97 % without it). Turning
    /// it off reproduces the paper's per-member scan for the ablation
    /// bench; the clustering is identical either way.
    pub disable_post_core_mc_skip: bool,
}

/// Everything a μDBSCAN run produces: the clustering plus the paper's
/// reporting quantities.
#[derive(Debug)]
pub struct MuDbscanOutput {
    /// The exact DBSCAN clustering.
    pub clustering: Clustering,
    /// Query/distance/union counters (Table II's "% query saves").
    pub counters: Counters,
    /// Wall-clock split-up over the four steps (Table III).
    pub phases: PhaseTimer,
    /// Number of micro-clusters formed (`m` in Table II).
    pub mc_count: usize,
    /// Average points per micro-cluster (`r`).
    pub avg_mc_size: f64,
    /// Estimated peak heap bytes of the algorithm's structures (Table IV).
    pub peak_heap_bytes: usize,
}

impl MuDbscan {
    /// New instance with the given density parameters, default build
    /// options and one thread.
    ///
    /// This is the low-level entry point used by the facade and by crates
    /// that cannot depend on `mudbscan` (e.g. `dist`); applications should
    /// prefer `mudbscan::prelude::Runner::new(params)`.
    pub fn from_params(params: DbscanParams) -> Self {
        Self {
            params,
            opts: BuildOptions::default(),
            threads: 1,
            disable_dynamic_promotion: false,
            disable_post_core_mc_skip: false,
        }
    }

    /// Override the micro-cluster construction options.
    pub fn with_options(mut self, opts: BuildOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run on `threads` worker threads (default 1).
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Run on `data`, producing the clustering and all metrics.
    pub fn run(&self, data: &Dataset) -> MuDbscanOutput {
        let (params, threads) = (self.params, self.threads);
        let counters = Counters::new();
        let mut phases = PhaseTimer::new();
        let run_span = obs::span!(if threads == 1 { "mudbscan" } else { "par_mudbscan" });

        // Step 1: micro-clusters + μR-tree, and preliminary clusters.
        let step1 = phases.phase("tree_construction");
        let mut tree = build_micro_clusters_par(data, params.eps, &self.opts, threads, &counters);
        let state = State::new(data, params, threads);
        state.process_micro_clusters(&tree, &counters);
        drop(step1);
        let mut peak = state.heap_bytes(&tree);

        // Step 2: reachable micro-clusters.
        let step2 = phases.phase("finding_reachable");
        find_reachable(data, &mut tree, threads, &counters);
        drop(step2);

        // Step 3: remaining points.
        let step3 = phases.phase("clustering");
        state.process_rem_points(&tree, &counters, self.disable_dynamic_promotion);
        drop(step3);
        peak = peak.max(state.heap_bytes(&tree));

        // Step 4: final connections.
        let step4 = phases.phase("post_processing");
        state.post_processing_core(&tree, &counters, self.disable_post_core_mc_skip);
        state.post_processing_noise(&counters);
        drop(step4);
        peak = peak.max(state.heap_bytes(&tree));

        if obs::enabled() {
            let (dense, core, sparse) = tree.kind_histogram(&params);
            obs::record_count("mc/dense", dense as u64);
            obs::record_count("mc/core", core as u64);
            obs::record_count("mc/sparse", sparse as u64);
            obs::record_count("queries/executed", counters.range_queries());
            obs::record_count("queries/saved", counters.queries_saved());
            obs::record_count("peak_heap_bytes", peak as u64);
            if threads > 1 {
                obs::record_count("threads", threads as u64);
            }
        }
        drop(run_span);

        MuDbscanOutput {
            clustering: state.into_clustering(),
            counters,
            phases,
            mc_count: tree.mc_count(),
            avg_mc_size: tree.avg_mc_size(),
            peak_heap_bytes: peak,
        }
    }
}

/// Step 2 (Algorithm 5): every MC's reachable list, computed per MC on
/// the workers.
fn find_reachable(data: &Dataset, tree: &mut MuRTree, threads: usize, counters: &Counters) {
    let _span = obs::span!("find_reachable");
    let lists: Mutex<Vec<(usize, Vec<McId>)>> = Mutex::new(Vec::new());
    let shared = &*tree;
    for_chunks(threads, shared.mcs.len(), counters, |range, counters| {
        let mut scratch = Vec::new();
        let chunk: Vec<_> = range
            .map(|i| {
                scratch.clear();
                let cost = shared.reachable_from(data, i as McId, &mut scratch);
                counters.count_dists(cost.mbr_tests);
                counters.count_node_visits(cost.nodes_visited.max(1));
                (i, scratch.clone())
            })
            .collect();
        lists.lock().expect("poisoned").extend(chunk);
    });
    let mut reach_total = 0u64;
    for (i, list) in lists.into_inner().expect("poisoned") {
        reach_total += list.len() as u64;
        tree.mcs[i].reach = list;
    }
    if obs::enabled() {
        obs::record_count("mc/reach_list_entries", reach_total);
    }
}

/// The per-point state steps 1b–4 share across workers.
struct State<'a> {
    data: &'a Dataset,
    params: DbscanParams,
    /// Worker threads of steps 1b–4.
    threads: usize,
    /// Union–find forest over the points.
    uf: ConcurrentUnionFind,
    /// Core flags.
    core: Vec<AtomicBool>,
    /// wndq tag: point was proven core without a neighbourhood query.
    wndq: Vec<AtomicBool>,
    /// Point already belongs to some cluster set.
    assigned: Vec<AtomicBool>,
    /// All wndq-core points, in labelling order (Algorithm 7 input).
    wndq_list: Mutex<Vec<PointId>>,
    /// Potential noise points with their stored neighbourhoods
    /// (Algorithm 8 input).
    noise_list: Mutex<Vec<(PointId, Vec<PointId>)>>,
}

impl<'a> State<'a> {
    fn new(data: &'a Dataset, params: DbscanParams, threads: usize) -> Self {
        let n = data.len();
        let flags = || (0..n).map(|_| AtomicBool::new(false)).collect();
        Self {
            data,
            params,
            threads,
            uf: ConcurrentUnionFind::new(n),
            core: flags(),
            wndq: flags(),
            assigned: flags(),
            wndq_list: Mutex::new(Vec::new()),
            noise_list: Mutex::new(Vec::new()),
        }
    }

    /// Estimated heap bytes of the tree and the working structures (for
    /// Table IV).
    fn heap_bytes(&self, tree: &MuRTree) -> usize {
        let noise = self.noise_list.lock().expect("poisoned");
        tree.heap_bytes()
            + self.uf.heap_bytes()
            + vec_bytes(&self.core)
            + vec_bytes(&self.wndq)
            + vec_bytes(&self.assigned)
            + vec_bytes(&self.wndq_list.lock().expect("poisoned"))
            + vec_bytes(&noise)
            + noise.iter().map(|(_, v)| vec_bytes(v)).sum::<usize>()
    }

    /// CAS-claim a non-core point for a cluster; true when this caller
    /// won and must perform the union.
    fn claim(&self, p: PointId) -> bool {
        self.assigned[p as usize]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Mark `p` assigned to a cluster whose union this caller performs.
    fn assign(&self, p: PointId) {
        self.assigned[p as usize].store(true, Ordering::Release);
    }

    fn is_assigned(&self, p: PointId) -> bool {
        self.assigned[p as usize].load(Ordering::Acquire)
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
    /// and in [`State::is_core`]) forbids that outcome: whichever promote
    /// comes second in the total order, that thread's subsequent load sees
    /// the other's promote.
    fn promote(&self, p: PointId) -> bool {
        self.core[p as usize]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Promote `p` and tag it wndq-core; true when this caller won and
    /// must list it.
    fn promote_wndq(&self, p: PointId) -> bool {
        let won = self.promote(p);
        if won {
            self.wndq[p as usize].store(true, Ordering::Release);
        }
        won
    }

    /// SeqCst core-flag read — pairs with [`State::promote`]; see there.
    fn is_core(&self, p: PointId) -> bool {
        self.core[p as usize].load(Ordering::SeqCst)
    }

    /// Algorithm 4: classify each MC; label wndq-cores; preliminary
    /// unions. MC membership is exclusive, so the worker that owns an MC
    /// owns its members' assignment.
    fn process_micro_clusters(&self, tree: &MuRTree, counters: &Counters) {
        for_chunks(self.threads, tree.mcs.len(), counters, |range, counters| {
            let mut wndq = Vec::new();
            for mc in &tree.mcs[range] {
                match mc.kind(&self.params) {
                    McKind::Dense => {
                        wndq.extend(
                            mc.inner_circle(self.data, self.params.eps)
                                .filter(|&q| self.promote_wndq(q)),
                        );
                    }
                    McKind::Core => {
                        if self.promote_wndq(mc.center) {
                            wndq.push(mc.center);
                        }
                    }
                    McKind::Sparse => continue,
                }
                for &p in mc.block.items() {
                    self.uf.union(mc.center, p);
                    self.assign(p);
                    counters.count_union();
                }
            }
            self.wndq_list.lock().expect("poisoned").extend(wndq);
        });
    }

    /// Algorithm 6: ε-queries for every point not tagged wndq-core, with
    /// the disjoint-set union rules and dynamic wndq-core promotion. At
    /// t > 1 a point promoted by another worker may already have run its
    /// own query; that costs queries, never correctness.
    fn process_rem_points(&self, tree: &MuRTree, counters: &Counters, disable_promotion: bool) {
        let half = self.params.eps / 2.0;
        let half_sq = half * half;
        for_chunks(self.threads, self.data.len(), counters, |range, counters| {
            let (mut wndq, mut noise) = (Vec::new(), Vec::new());
            let mut nbhrs: Vec<PointId> = Vec::new();
            for pi in range {
                let p = pi as PointId;
                if self.wndq[pi].load(Ordering::Acquire) {
                    counters.count_query_saved();
                    continue;
                }
                nbhrs.clear();
                let cost = tree.neighborhood(self.data, p, &mut nbhrs);
                counters.count_range_query();
                counters.count_dists(cost.mbr_tests);
                counters.count_node_visits(cost.nodes_visited.max(1));
                // Histogram merging is commutative, so as long as the
                // executed query set is the same the merged histograms are
                // bit-identical across thread counts.
                if obs::enabled() {
                    obs::record_hist("query/node_visits", cost.nodes_visited.max(1));
                    obs::record_hist("query/candidates", nbhrs.len() as u64);
                    // Leaf entries whose exact distance the batched kernels
                    // evaluated — the numerator of the kernel-efficiency
                    // ratio (leaf_evals / candidates).
                    obs::record_hist("query/leaf_evals", cost.candidates);
                }

                if nbhrs.len() < self.params.min_pts {
                    // Non-core: attach to the first core neighbour if
                    // unassigned.
                    if !self.is_assigned(p) {
                        match nbhrs.iter().find(|&&x| self.is_core(x)) {
                            Some(&x) => {
                                if self.claim(p) {
                                    self.uf.union(x, p);
                                    counters.count_union();
                                }
                            }
                            None => noise.push((p, nbhrs.clone())),
                        }
                    }
                    continue;
                }

                // Core point.
                self.promote(p);
                self.assign(p);
                for &x in &nbhrs {
                    if self.is_core(x) {
                        self.uf.union(x, p);
                        counters.count_union();
                    } else if self.claim(x) {
                        self.uf.union(p, x);
                        counters.count_union();
                    } else if self.is_core(x) {
                        // x was promoted between the first check and the
                        // failed claim: the core–core union is mandatory.
                        self.uf.union(x, p);
                        counters.count_union();
                    }
                }

                // Step (iii): dynamic promotion — if the ε/2-neighbourhood
                // of p is itself dense, all of it is core (same argument as
                // Lemma 1: any two points strictly within ε/2 of p are
                // strictly within ε of each other).
                if !disable_promotion {
                    let pc = self.data.point(p);
                    let inner_count = nbhrs
                        .iter()
                        .filter(|&&q| dist_sq(pc, self.data.point(q)) < half_sq)
                        .count();
                    counters.count_dists(nbhrs.len() as u64);
                    if inner_count >= self.params.min_pts {
                        for &q in &nbhrs {
                            if dist_sq(pc, self.data.point(q)) < half_sq && self.promote_wndq(q) {
                                wndq.push(q);
                                self.uf.union(p, q);
                                counters.count_union();
                                self.assign(q);
                            }
                        }
                    }
                }
            }
            self.wndq_list.lock().expect("poisoned").extend(wndq);
            self.noise_list.lock().expect("poisoned").extend(noise);
        });
    }

    /// Algorithm 7: connect each wndq-core point to core points of *other*
    /// clusters strictly within ε, searching only the filtered reachable
    /// MCs. The `same` checks race with other workers' unions, which is
    /// safe: "same" is monotone under unions.
    fn post_processing_core(&self, tree: &MuRTree, counters: &Counters, disable_mc_skip: bool) {
        let eps_sq = self.params.eps_sq();
        let wndq_list = self.wndq_list.lock().expect("poisoned");
        for_chunks(self.threads, wndq_list.len(), counters, |range, counters| {
            for &p in &wndq_list[range] {
                let pc = self.data.point(p);
                for &mc_id in tree.reach_of(p) {
                    let mc = &tree.mcs[mc_id as usize];
                    // Filter: reachable MC must meet the open ε-ball of p.
                    if mc.mbr.min_dist_sq(pc) >= eps_sq {
                        continue;
                    }
                    if !disable_mc_skip && mc.kind(&self.params) != McKind::Sparse {
                        // Every member of a DMC/CMC was unioned with its
                        // center in Algorithm 4 and unions never split, so
                        // the whole MC lives in ONE cluster: a single root
                        // comparison covers all its members (paper §IV-B4's
                        // same-cluster skip, hoisted to MC granularity), and
                        // a single union with any in-ε core member connects
                        // p to all of them.
                        if self.uf.same(p, mc.center) {
                            continue;
                        }
                        let mut hit: Option<PointId> = None;
                        let cost = scan_block(&mc.block, pc, eps_sq, |q| {
                            if hit.is_none() && q != p && self.is_core(q) {
                                hit = Some(q);
                            }
                        });
                        // Same accounting as the other block scans: this
                        // IS a range query, charged for the whole block,
                        // and its node visit counts like any other.
                        counters.count_range_query();
                        counters.count_dists(cost.mbr_tests);
                        counters.count_node_visits(cost.nodes_visited);
                        // Separate histogram key: which block scans execute
                        // here depends on union order, which is
                        // interleaving-dependent at t>1 — keep `query/*`
                        // strictly deterministic.
                        if obs::enabled() {
                            obs::record_hist("postproc/node_visits", cost.nodes_visited);
                        }
                        if let Some(q) = hit {
                            self.uf.union(p, q);
                            counters.count_union();
                        }
                    } else {
                        // Sparse MCs are small (< MinPts members): scan
                        // directly.
                        for &q in mc.block.items() {
                            if q == p || !self.is_core(q) {
                                continue;
                            }
                            // Same-cluster check first — the cheap
                            // union–find lookup skips the distance
                            // computation.
                            if self.uf.same(p, q) {
                                continue;
                            }
                            counters.count_dists(1);
                            if dist_sq(pc, self.data.point(q)) < eps_sq {
                                self.uf.union(p, q);
                                counters.count_union();
                            }
                        }
                    }
                }
            }
        });
    }

    /// Algorithm 8: rescue noise points whose stored neighbourhood turned
    /// out to contain a core point (one promoted after the point was
    /// examined).
    fn post_processing_noise(&self, counters: &Counters) {
        let noise_list = self.noise_list.lock().expect("poisoned");
        for_chunks(self.threads, noise_list.len(), counters, |range, counters| {
            for (p, nbhrs) in &noise_list[range] {
                let p = *p;
                if self.is_core(p) || self.is_assigned(p) {
                    continue;
                }
                if let Some(&q) = nbhrs.iter().find(|&&q| self.is_core(q)) {
                    if self.claim(p) {
                        self.uf.union(q, p);
                        counters.count_union();
                    }
                }
            }
        });
    }

    /// The canonical clustering of the final forest and core flags.
    fn into_clustering(self) -> Clustering {
        let n = self.uf.len();
        let mut uf = UnionFind::new(n);
        for x in 0..n as u32 {
            let r = self.uf.find(x);
            if r != x {
                uf.union(r, x);
            }
        }
        let is_core = self.core.into_iter().map(AtomicBool::into_inner).collect();
        Clustering::from_union_find(&mut uf, is_core)
    }
}

/// Run `f` over disjoint chunks of `0..len` on up to `threads` scoped
/// workers. Each worker counts into its own [`Counters`], absorbed into
/// `counters` when it finishes. When one worker suffices the whole range
/// runs inline on the calling thread, in order.
fn for_chunks(
    threads: usize,
    len: usize,
    counters: &Counters,
    f: impl Fn(Range<usize>, &Counters) + Sync,
) {
    let chunk = (len / (threads * 8)).max(64);
    let workers = threads.min(len.div_ceil(chunk));
    if workers <= 1 {
        f(0..len, counters);
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let local = Counters::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= len {
                            break local;
                        }
                        f(start..(start + chunk).min(len), &local);
                    }
                })
            })
            .collect();
        for h in handles {
            counters.absorb(&h.join().expect("worker panicked"));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::check_exact;
    use crate::reference::naive_dbscan;

    fn check_dataset(rows: Vec<Vec<f64>>, eps: f64, min_pts: usize) {
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(eps, min_pts);
        let out = MuDbscan::from_params(params).run(&data);
        let reference = naive_dbscan(&data, &params);
        let rep = check_exact(&out.clustering, &reference, &data, &params);
        assert!(
            rep.is_exact(),
            "not exact ({rep:?}): n={} eps={eps} min_pts={min_pts}, got {} clusters, want {}",
            data.len(),
            out.clustering.n_clusters,
            reference.n_clusters
        );
    }

    fn grid(n: usize, step: f64) -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..n {
            for j in 0..n {
                rows.push(vec![i as f64 * step, j as f64 * step]);
            }
        }
        rows
    }

    fn blobs() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        // Three dense blobs + scattered noise, deterministic LCG jitter.
        let mut s = 42u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (6.0, 0.0), (3.0, 6.0)] {
            for _ in 0..40 {
                rows.push(vec![cx + 0.5 * r(), cy + 0.5 * r()]);
            }
        }
        for _ in 0..15 {
            rows.push(vec![12.0 * r() + 3.0, 12.0 * r() + 3.0]);
        }
        rows
    }

    fn seeded_blobs(seed: u64) -> Dataset {
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
    fn exact_on_dense_grid() {
        check_dataset(grid(12, 0.4), 0.5, 4);
    }

    #[test]
    fn exact_on_sparse_grid() {
        check_dataset(grid(10, 1.0), 1.1, 5);
    }

    #[test]
    fn exact_on_blobs_various_params() {
        for (eps, min_pts) in [(0.4, 4), (0.6, 5), (1.0, 8), (0.2, 3)] {
            check_dataset(blobs(), eps, min_pts);
        }
    }

    #[test]
    fn exact_on_chain() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![0.45 * i as f64, 0.0]).collect();
        check_dataset(rows, 0.5, 2);
    }

    #[test]
    fn exact_with_duplicates() {
        let mut rows = vec![vec![1.0, 1.0]; 10];
        rows.extend(vec![vec![5.0, 5.0]; 3]);
        rows.push(vec![3.0, 3.0]);
        check_dataset(rows, 0.5, 5);
    }

    #[test]
    fn exact_in_higher_dimensions() {
        let mut rows = Vec::new();
        let mut s = 7u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for c in [[0.0; 5], [4.0; 5]] {
            for _ in 0..30 {
                let p: Vec<f64> = c.iter().map(|&x| x + 0.6 * r()).collect();
                rows.push(p);
            }
        }
        check_dataset(rows, 1.0, 6);
    }

    #[test]
    fn saves_queries_on_dense_data() {
        let data = Dataset::from_rows(&grid(20, 0.1));
        let params = DbscanParams::new(0.5, 5);
        let out = MuDbscan::from_params(params).run(&data);
        assert!(
            out.counters.pct_queries_saved() > 50.0,
            "dense data should save most queries, saved {:.1}%",
            out.counters.pct_queries_saved()
        );
        assert!(out.mc_count < data.len() / 4);
        assert!(out.avg_mc_size > 1.0);
        assert!(out.peak_heap_bytes > 0);
        assert!(out.phases.total_secs() > 0.0);
    }

    #[test]
    fn promotion_ablation_stays_exact() {
        let data = Dataset::from_rows(&blobs());
        let params = DbscanParams::new(0.5, 5);
        let mut alg = MuDbscan::from_params(params);
        alg.disable_dynamic_promotion = true;
        let out = alg.run(&data);
        let reference = naive_dbscan(&data, &params);
        assert!(check_exact(&out.clustering, &reference, &data, &params).is_exact());
        // Without promotion at least as many queries are executed.
        let with = MuDbscan::from_params(params).run(&data);
        assert!(out.counters.range_queries() >= with.counters.range_queries());
    }

    #[test]
    fn paper_faithful_postprocessing_stays_exact() {
        let data = Dataset::from_rows(&blobs());
        let params = DbscanParams::new(0.5, 5);
        let mut alg = MuDbscan::from_params(params);
        alg.disable_post_core_mc_skip = true;
        let out = alg.run(&data);
        let reference = naive_dbscan(&data, &params);
        assert!(check_exact(&out.clustering, &reference, &data, &params).is_exact());
        // Identical clustering to the optimised path.
        let opt = MuDbscan::from_params(params).run(&data);
        assert_eq!(out.clustering, opt.clustering);
    }

    /// Pin the POST-PROCESSING-NOISE ordering (Algorithm 8): a noise
    /// candidate whose stored neighbourhood gains a core point only via
    /// Step 3's *dynamic promotion* — after the candidate was examined —
    /// must be rescued into that cluster.
    ///
    /// Construction (ε = 1, MinPts = 5), ids in scan order:
    ///   0  p = (1.4, 0)   the noise candidate; N(p) = {p, q}, examined first
    ///   1  x = (0, 0)     step-3 core whose ε/2-ball holds 5 points → promotes
    ///   2..4 a, b, c      (±0.3, 0), (0, 0.3): x's inner circle
    ///   5  q = (0.45, 0)  in p's MC; promoted by x's query, never queried itself
    ///
    /// MC structure keeps everything Sparse (MC{p,q} has 2 members,
    /// MC{x,a,b,c} has 4 < MinPts), so no step-1b wndq shortcut exists: at
    /// p's turn nothing is core yet and p lands on the noise list. x's
    /// query then promotes q (inner circle {x,a,b,c,q} reaches MinPts), and
    /// q's own turn is skipped as a saved query — q is core *only* through
    /// the promotion. Algorithm 8 must attach p to q's cluster.
    #[test]
    fn noise_rescued_after_dynamic_promotion() {
        let rows = vec![
            vec![1.4, 0.0],  // 0: p
            vec![0.0, 0.0],  // 1: x
            vec![0.3, 0.0],  // 2: a
            vec![-0.3, 0.0], // 3: b
            vec![0.0, 0.3],  // 4: c
            vec![0.45, 0.0], // 5: q
        ];
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(1.0, 5);
        let out = MuDbscan::from_params(params).run(&data);

        // The scenario actually exercised the promotion path: only p and x
        // ran neighbourhood queries; a, b, c, q were all saved by wndq tags.
        assert_eq!(out.counters.range_queries(), 2, "expected only p and x to query");
        assert_eq!(out.counters.queries_saved(), 4, "a, b, c, q must skip their queries");

        // p was rescued: border of the single cluster, not noise.
        assert_eq!(out.clustering.n_clusters, 1);
        assert_eq!(out.clustering.noise_count(), 0);
        assert!(out.clustering.is_border(0), "p must be a border point");
        assert!(!out.clustering.is_core[0]);
        assert_eq!(out.clustering.labels[0], out.clustering.labels[5], "p joins q's cluster");
        for i in 1..6 {
            assert!(out.clustering.is_core[i], "point {i} must be core");
        }

        // And the full oracle agrees (also under the no-promotion ablation,
        // where q instead becomes core through its own later query).
        let reference = naive_dbscan(&data, &params);
        assert!(check_exact(&out.clustering, &reference, &data, &params).is_exact());
        let mut no_promo = MuDbscan::from_params(params);
        no_promo.disable_dynamic_promotion = true;
        let out2 = no_promo.run(&data);
        assert!(check_exact(&out2.clustering, &reference, &data, &params).is_exact());
    }

    #[test]
    fn empty_and_singleton() {
        let data = Dataset::from_rows(&[vec![1.0, 2.0]]);
        let out = MuDbscan::from_params(DbscanParams::new(0.5, 2)).run(&data);
        assert_eq!(out.clustering.n_clusters, 0);
        assert!(out.clustering.is_noise(0));
    }

    #[test]
    fn all_one_cluster_minpts_one() {
        check_dataset(grid(6, 0.3), 0.5, 1);
    }

    #[test]
    fn exact_across_thread_counts() {
        let data = seeded_blobs(1);
        let params = DbscanParams::new(0.6, 5);
        let reference = naive_dbscan(&data, &params);
        for threads in [1, 2, 4, 8] {
            let out = MuDbscan::from_params(params).threads(threads).run(&data);
            let rep = check_exact(&out.clustering, &reference, &data, &params);
            assert!(rep.is_exact(), "threads={threads}: {rep:?}");
        }
    }

    #[test]
    fn threads_match_one_thread_canon() {
        // One builder: every thread count forms exactly the MCs one thread
        // forms, and the clustering is canon-identical.
        let data = seeded_blobs(9);
        let params = DbscanParams::new(0.8, 4);
        let seq = MuDbscan::from_params(params).run(&data);
        let par = MuDbscan::from_params(params).threads(4).run(&data);
        assert_eq!(par.mc_count, seq.mc_count);
        assert_eq!(par.clustering.n_clusters, seq.clustering.n_clusters);
        assert_eq!(par.clustering.is_core, seq.clustering.is_core);
        assert_eq!(par.clustering.noise_count(), seq.clustering.noise_count());
    }

    #[test]
    fn repeated_runs_are_stable() {
        // Thread interleavings may differ, but the canonical clustering
        // quantities must not.
        let data = seeded_blobs(33);
        let params = DbscanParams::new(0.5, 4);
        let first = MuDbscan::from_params(params).threads(4).run(&data);
        for _ in 0..5 {
            let out = MuDbscan::from_params(params).threads(4).run(&data);
            assert_eq!(out.clustering.n_clusters, first.clustering.n_clusters);
            assert_eq!(out.clustering.is_core, first.clustering.is_core);
            assert_eq!(out.clustering.noise_count(), first.clustering.noise_count());
        }
    }

    /// Regression test for the store-buffering race fixed in
    /// `State::promote` / `State::is_core` (see the comment there).
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
            let out = MuDbscan::from_params(params).threads(threads).run(&data);
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
        let data = seeded_blobs(5);
        let out = MuDbscan::from_params(DbscanParams::new(0.6, 5)).threads(3).run(&data);
        assert!(out.counters.range_queries() > 0);
        assert!(out.counters.union_ops() > 0);
        assert!(out.phases.total_secs() > 0.0);
    }

    /// Table IV charges each of the three per-point flag arrays one byte
    /// per point, on top of the finished μR-tree and the union–find
    /// forest.
    #[test]
    fn peak_heap_counts_flags_at_their_real_size() {
        let data = Dataset::from_rows(&grid(30, 0.3));
        let params = DbscanParams::new(0.5, 5);
        let mut tree = build_micro_clusters_par(
            &data,
            params.eps,
            &BuildOptions::default(),
            1,
            &Counters::new(),
        );
        tree.compute_reachable(&data, &Counters::new());
        let floor =
            3 * data.len() + tree.heap_bytes() + ConcurrentUnionFind::new(data.len()).heap_bytes();
        for threads in [1, 2] {
            let out = MuDbscan::from_params(params).threads(threads).run(&data);
            assert!(out.peak_heap_bytes >= floor, "t{threads}: {} < {floor}", out.peak_heap_bytes);
        }
    }
}
