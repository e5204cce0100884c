//! The μDBSCAN driver — paper Algorithm 2 and its four steps.
//!
//! Step 1  `BUILD-MICRO-CLUSTERS` + μR-tree ([`mcs::build_micro_clusters`])
//! Step 1b `PROCESS-MICRO-CLUSTERS` (Algorithm 4): DMC/CMC classification,
//!         wndq-core labelling, preliminary clusters.
//! Step 2  `FIND-REACHABLE-MC` (Algorithm 5): 3ε reachable lists.
//! Step 3  `PROCESS-REM-POINTS` (Algorithm 6): restricted ε-queries for the
//!         remaining points, with dynamic wndq-core promotion.
//! Step 4  `POST-PROCESSING-CORE` / `POST-PROCESSING-NOISE`
//!         (Algorithms 7–8): establish the final connections.
//!
//! Border-point unions follow the disjoint-set DBSCAN rule (Patwary et
//! al.): a core point is always unioned with another core neighbour, but a
//! non-core neighbour is unioned only when not yet assigned to a cluster —
//! a border point shared by two clusters must not merge them.

use crate::clustering::Clustering;
use geom::{dist_sq, Dataset, DbscanParams, PointId};
use mcs::{build_micro_clusters, BuildOptions, McKind, MuRTree};
use metrics::{Counters, PhaseTimer};
use unionfind::UnionFind;

/// Configured μDBSCAN instance.
#[derive(Debug, Clone, Default)]
pub struct MuDbscan {
    params: Option<DbscanParams>,
    opts: BuildOptions,
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
    /// New instance with the given density parameters and default build
    /// options.
    ///
    /// This is the low-level entry point used by the facade and by crates
    /// that cannot depend on `mudbscan` (e.g. `dist`); applications should
    /// prefer `mudbscan::prelude::Runner::new(params)`.
    pub fn from_params(params: DbscanParams) -> Self {
        Self {
            params: Some(params),
            opts: BuildOptions::default(),
            disable_dynamic_promotion: false,
            disable_post_core_mc_skip: false,
        }
    }

    /// Override the micro-cluster construction options.
    pub fn with_options(mut self, opts: BuildOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run on `data`, producing the clustering and all metrics.
    pub fn run(&self, data: &Dataset) -> MuDbscanOutput {
        let params = self.params.expect("params must be set");
        run_mudbscan(
            data,
            &params,
            &self.opts,
            self.disable_dynamic_promotion,
            self.disable_post_core_mc_skip,
        )
    }
}

/// Per-point working state of a run. Exposed (crate-internal shape, public
/// fields) so the distributed driver can run local μDBSCAN and then merge.
pub struct WorkingState {
    /// The μR-tree over the data.
    pub tree: MuRTree,
    /// Union–find forest over the points.
    pub uf: UnionFind,
    /// Core flags.
    pub is_core: Vec<bool>,
    /// wndq tag: point was proven core without a neighbourhood query.
    pub wndq: Vec<bool>,
    /// Point already belongs to some cluster set.
    pub assigned: Vec<bool>,
    /// All wndq-core points, in labelling order (Algorithm 7 input).
    pub wndq_list: Vec<PointId>,
    /// Potential noise points with their stored neighbourhoods
    /// (Algorithm 8 input).
    pub noise_list: Vec<(PointId, Vec<PointId>)>,
}

impl WorkingState {
    /// Estimated heap bytes of the working structures (for Table IV).
    pub fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes()
            + self.uf.heap_bytes()
            + self.is_core.capacity() / 8
            + self.wndq.capacity() / 8
            + self.assigned.capacity() / 8
            + self.wndq_list.capacity() * 4
            + self.noise_list.iter().map(|(_, v)| 16 + v.capacity() * 4).sum::<usize>()
    }
}

fn run_mudbscan(
    data: &Dataset,
    params: &DbscanParams,
    opts: &BuildOptions,
    disable_promotion: bool,
    disable_post_core_mc_skip: bool,
) -> MuDbscanOutput {
    let counters = Counters::new();
    let mut phases = PhaseTimer::new();
    let mut peak = 0usize;
    let run_span = obs::span!("mudbscan");

    // Step 1: micro-clusters + μR-tree, and preliminary clusters.
    let step1 = phases.phase("tree_construction");
    let tree = build_micro_clusters(data, params.eps, opts, &counters);
    let mut state = WorkingState {
        tree,
        uf: UnionFind::new(data.len()),
        is_core: vec![false; data.len()],
        wndq: vec![false; data.len()],
        assigned: vec![false; data.len()],
        wndq_list: Vec::new(),
        noise_list: Vec::new(),
    };
    process_micro_clusters(data, params, &mut state, &counters);
    drop(step1);
    peak = peak.max(state.heap_bytes());

    // Step 2: reachable micro-clusters.
    let step2 = phases.phase("finding_reachable");
    state.tree.compute_reachable(data, &counters);
    drop(step2);

    // Step 3: remaining points.
    let step3 = phases.phase("clustering");
    process_rem_points(data, params, &mut state, &counters, disable_promotion);
    drop(step3);
    peak = peak.max(state.heap_bytes());

    // Step 4: final connections.
    let step4 = phases.phase("post_processing");
    post_processing_core(data, params, &mut state, &counters, disable_post_core_mc_skip);
    post_processing_noise(&mut state, &counters);
    drop(step4);
    peak = peak.max(state.heap_bytes());

    if obs::enabled() {
        let (dense, core, sparse) = state.tree.kind_histogram(params);
        obs::record_count("mc/dense", dense as u64);
        obs::record_count("mc/core", core as u64);
        obs::record_count("mc/sparse", sparse as u64);
        obs::record_count("queries/executed", counters.range_queries());
        obs::record_count("queries/saved", counters.queries_saved());
        obs::record_count("peak_heap_bytes", peak as u64);
    }
    drop(run_span);

    let mc_count = state.tree.mc_count();
    let avg_mc_size = state.tree.avg_mc_size();
    let clustering = Clustering::from_union_find(&mut state.uf, state.is_core);

    MuDbscanOutput { clustering, counters, phases, mc_count, avg_mc_size, peak_heap_bytes: peak }
}

/// Algorithm 4: classify each MC; label wndq-cores; preliminary unions.
pub fn process_micro_clusters(
    data: &Dataset,
    params: &DbscanParams,
    state: &mut WorkingState,
    counters: &Counters,
) {
    for mc_idx in 0..state.tree.mcs.len() {
        let kind = state.tree.mcs[mc_idx].kind(params);
        match kind {
            McKind::Dense => {
                let mc = &state.tree.mcs[mc_idx];
                let center = mc.center;
                let inner: Vec<PointId> = mc.inner_circle(data, params.eps).collect();
                let members = mc.members.clone();
                for q in inner {
                    if !state.wndq[q as usize] {
                        state.is_core[q as usize] = true;
                        state.wndq[q as usize] = true;
                        state.wndq_list.push(q);
                    }
                }
                for p in members {
                    state.uf.union(center, p);
                    state.assigned[p as usize] = true;
                    counters.count_union();
                }
            }
            McKind::Core => {
                let mc = &state.tree.mcs[mc_idx];
                let center = mc.center;
                let members = mc.members.clone();
                if !state.wndq[center as usize] {
                    state.is_core[center as usize] = true;
                    state.wndq[center as usize] = true;
                    state.wndq_list.push(center);
                }
                for p in members {
                    state.uf.union(center, p);
                    state.assigned[p as usize] = true;
                    counters.count_union();
                }
            }
            McKind::Sparse => {}
        }
    }
}

/// Algorithm 6: ε-queries for every point not tagged wndq-core, with the
/// disjoint-set union rules and dynamic wndq-core promotion.
pub fn process_rem_points(
    data: &Dataset,
    params: &DbscanParams,
    state: &mut WorkingState,
    counters: &Counters,
    disable_promotion: bool,
) {
    let half = params.eps / 2.0;
    let half_sq = half * half;
    let mut nbhrs: Vec<PointId> = Vec::new();

    for p in data.ids() {
        if state.wndq[p as usize] {
            counters.count_query_saved();
            continue;
        }
        nbhrs.clear();
        let cost = state.tree.neighborhood(data, p, &mut nbhrs);
        counters.count_range_query();
        counters.count_dists(cost.mbr_tests);
        counters.count_node_visits(cost.nodes_visited.max(1));
        if obs::enabled() {
            obs::record_hist("query/node_visits", cost.nodes_visited.max(1));
            obs::record_hist("query/candidates", nbhrs.len() as u64);
            // Leaf entries whose exact distance the batched kernels
            // evaluated — the numerator of the kernel-efficiency ratio
            // (leaf_evals / candidates) tracked since schema v5.
            obs::record_hist("query/leaf_evals", cost.candidates);
        }

        if nbhrs.len() < params.min_pts {
            // Non-core: attach to the first core neighbour if unassigned.
            if !state.assigned[p as usize] {
                let mut attached = false;
                for &x in &nbhrs {
                    if state.is_core[x as usize] {
                        state.uf.union(x, p);
                        counters.count_union();
                        state.assigned[p as usize] = true;
                        attached = true;
                        break;
                    }
                }
                if !attached {
                    state.noise_list.push((p, nbhrs.clone()));
                }
            }
            continue;
        }

        // Core point.
        state.is_core[p as usize] = true;
        state.assigned[p as usize] = true;
        for &x in &nbhrs {
            if state.is_core[x as usize] {
                state.uf.union(x, p);
                counters.count_union();
            } else if !state.assigned[x as usize] {
                state.uf.union(p, x);
                counters.count_union();
                state.assigned[x as usize] = true;
            }
        }

        // Step (iii): dynamic promotion — if the ε/2-neighbourhood of p is
        // itself dense, all of it is core (same argument as Lemma 1: any
        // two points strictly within ε/2 of p are strictly within ε of
        // each other).
        if !disable_promotion {
            let pc = data.point(p);
            let inner_count =
                nbhrs.iter().filter(|&&q| dist_sq(pc, data.point(q)) < half_sq).count();
            counters.count_dists(nbhrs.len() as u64);
            if inner_count >= params.min_pts {
                for &q in &nbhrs {
                    if !state.is_core[q as usize] && dist_sq(pc, data.point(q)) < half_sq {
                        state.is_core[q as usize] = true;
                        state.wndq[q as usize] = true;
                        state.wndq_list.push(q);
                        state.uf.union(p, q);
                        counters.count_union();
                        state.assigned[q as usize] = true;
                    }
                }
            }
        }
    }
}

/// Algorithm 7: connect each wndq-core point to core points of *other*
/// clusters strictly within ε, searching only the filtered reachable MCs.
pub fn post_processing_core(
    data: &Dataset,
    params: &DbscanParams,
    state: &mut WorkingState,
    counters: &Counters,
    disable_mc_skip: bool,
) {
    let eps_sq = params.eps_sq();
    for i in 0..state.wndq_list.len() {
        let p = state.wndq_list[i];
        let pc = data.point(p);
        let reach = state.tree.reach_of(p).to_vec();
        for mc_id in reach {
            let mc = &state.tree.mcs[mc_id as usize];
            // Filter: reachable MC must meet the open ε-ball of p.
            if mc.mbr.min_dist_sq(pc) >= eps_sq {
                continue;
            }
            if !disable_mc_skip && mc.kind(params) != McKind::Sparse {
                // Every member of a DMC/CMC was unioned with its center in
                // Algorithm 4 and unions never split, so the whole MC lives
                // in ONE cluster: a single root comparison covers all its
                // members (paper §IV-B4's same-cluster skip, hoisted to MC
                // granularity), and a single union with any in-ε core
                // member connects p to all of them.
                if state.uf.same(p, mc.center) {
                    continue;
                }
                let aux = mc.aux.as_ref().expect("aux trees built");
                let is_core = &state.is_core;
                let mut hit: Option<PointId> = None;
                let cost = aux.search_sphere(pc, params.eps, |q| {
                    if hit.is_none() && q != p && is_core[q as usize] {
                        hit = Some(q);
                    }
                });
                // Same accounting as the other aux query sites: this IS a
                // range query, and its node visits count like any other.
                counters.count_range_query();
                counters.count_dists(cost.mbr_tests);
                counters.count_node_visits(cost.nodes_visited.max(1));
                // Separate histogram key: which aux queries execute here
                // depends on union order, which is interleaving-dependent
                // at t>1 — keep `query/*` strictly deterministic.
                if obs::enabled() {
                    obs::record_hist("postproc/node_visits", cost.nodes_visited.max(1));
                }
                if let Some(q) = hit {
                    state.uf.union(p, q);
                    counters.count_union();
                }
            } else {
                // Sparse MCs are small (< MinPts members): scan directly.
                let members = mc.members.clone();
                for q in members {
                    if q == p || !state.is_core[q as usize] {
                        continue;
                    }
                    // Same-cluster check first — the cheap union–find
                    // lookup skips the distance computation.
                    if state.uf.same(p, q) {
                        continue;
                    }
                    counters.count_dists(1);
                    if dist_sq(pc, data.point(q)) < eps_sq {
                        state.uf.union(p, q);
                        counters.count_union();
                    }
                }
            }
        }
    }
}

/// Algorithm 8: rescue noise points whose stored neighbourhood turned out
/// to contain a core point (one promoted after the point was examined).
pub fn post_processing_noise(state: &mut WorkingState, counters: &Counters) {
    for i in 0..state.noise_list.len() {
        let (p, ref nbhrs) = state.noise_list[i];
        if state.is_core[p as usize] || state.assigned[p as usize] {
            continue;
        }
        for &q in nbhrs {
            if state.is_core[q as usize] {
                state.uf.union(q, p);
                counters.count_union();
                state.assigned[p as usize] = true;
                break;
            }
        }
    }
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
}
