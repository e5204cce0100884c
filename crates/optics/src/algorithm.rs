//! The OPTICS ordering algorithm and DBSCAN extraction.

use geom::{dist_euclidean, Dataset, DbscanParams, PointId};
use mcs::{build_micro_clusters_par, BuildOptions};
use metrics::{Counters, PhaseTimer};
use mudbscan::{Clustering, NOISE};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Configured OPTICS instance. `params.eps` is the *generating* radius:
/// the ordering supports DBSCAN extraction at every ε′ ≤ ε.
#[derive(Debug, Clone)]
pub struct Optics {
    params: DbscanParams,
}

/// The cluster ordering.
#[derive(Debug)]
pub struct OpticsOutput {
    /// Point ids in processing order.
    pub order: Vec<PointId>,
    /// `reachability[p]` — the reachability distance of point `p`
    /// (`f64::INFINITY` for the first point of each connected component).
    pub reachability: Vec<f64>,
    /// `core_distance[p]` — distance to the `MinPts`-th nearest point
    /// within ε (self included), or `f64::INFINITY` when `p` is not core
    /// at the generating ε.
    pub core_distance: Vec<f64>,
    /// The parameters the ordering was generated with.
    pub params: DbscanParams,
    /// Query/distance counters.
    pub counters: Counters,
    /// Phase timings (tree construction vs ordering).
    pub phases: PhaseTimer,
}

/// Min-heap entry (reversed ordering over the reachability value); stale
/// entries are skipped on pop (lazy decrease-key).
struct Seed {
    reach: f64,
    point: PointId,
}

impl PartialEq for Seed {
    fn eq(&self, other: &Self) -> bool {
        self.reach == other.reach && self.point == other.point
    }
}
impl Eq for Seed {}
impl PartialOrd for Seed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Seed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on id for determinism.
        other
            .reach
            .partial_cmp(&self.reach)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.point.cmp(&self.point))
    }
}

impl Optics {
    /// New instance. OPTICS always sees the full dataset up front, so the
    /// μR-tree's member blocks are filled on `available_parallelism` workers;
    /// the micro-clusters are the ones Algorithm 3's scans form at any
    /// thread count.
    ///
    /// Low-level entry point; applications should prefer
    /// `mudbscan::prelude::Runner::new(params).family(Family::Optics)`.
    pub fn from_params(params: DbscanParams) -> Self {
        Self { params }
    }

    /// Compute the cluster ordering of `data`.
    pub fn run(&self, data: &Dataset) -> OpticsOutput {
        let n = data.len();
        let params = self.params;
        let counters = Counters::new();
        let mut phases = PhaseTimer::new();

        let build = phases.phase("tree_construction");
        let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
        let mut tree = build_micro_clusters_par(
            data,
            params.eps,
            &BuildOptions::default(),
            threads,
            &counters,
        );
        tree.compute_reachable(data, &counters);
        drop(build);

        let ordering = phases.phase("ordering");
        let mut order = Vec::with_capacity(n);
        let mut reachability = vec![f64::INFINITY; n];
        let mut core_distance = vec![f64::INFINITY; n];
        let mut processed = vec![false; n];
        let mut nbhrs: Vec<PointId> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();

        // Expand from every yet-unprocessed point (component starts).
        for start in 0..n as PointId {
            if processed[start as usize] {
                continue;
            }
            let mut heap = BinaryHeap::new();
            heap.push(Seed { reach: f64::INFINITY, point: start });
            while let Some(Seed { reach, point: p }) = heap.pop() {
                if processed[p as usize] {
                    continue; // stale entry
                }
                // Stale if a better reachability was recorded later.
                if reach > reachability[p as usize] {
                    continue;
                }
                processed[p as usize] = true;
                order.push(p);

                // ε-neighbourhood and core distance.
                nbhrs.clear();
                let cost = tree.neighborhood(data, p, &mut nbhrs);
                counters.count_range_query();
                counters.count_dists(cost.mbr_tests);
                let pc = data.point(p);
                dists.clear();
                dists.extend(nbhrs.iter().map(|&q| dist_euclidean(pc, data.point(q))));
                if dists.len() >= params.min_pts {
                    // MinPts-th smallest distance (self included at 0).
                    let k = params.min_pts - 1;
                    let (_, kth, _) =
                        dists.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).unwrap());
                    core_distance[p as usize] = *kth;
                } else {
                    continue; // not core: expands nothing
                }

                let cd = core_distance[p as usize];
                for &q in nbhrs.iter() {
                    if processed[q as usize] {
                        continue;
                    }
                    let d = dist_euclidean(pc, data.point(q));
                    let new_reach = cd.max(d);
                    if new_reach < reachability[q as usize] {
                        reachability[q as usize] = new_reach;
                        heap.push(Seed { reach: new_reach, point: q });
                    }
                }
            }
        }
        drop(ordering);
        debug_assert_eq!(order.len(), n);

        OpticsOutput { order, reachability, core_distance, params, counters, phases }
    }
}

/// Horizontal cut: read the DBSCAN clustering at `eps_prime <= ε` off the
/// ordering (ExtractDBSCAN-Clustering of the OPTICS paper, adapted to the
/// strict `< ε` neighbourhood convention), followed by a border-rescue
/// pass that restores full exactness.
///
/// Why the rescue pass: in the classic extraction a border point that was
/// *ordered before* its core neighbour keeps a stale reachability above
/// ε′ and would be labelled noise — the OPTICS paper itself only claims a
/// "nearly indistinguishable" clustering. The converse error cannot
/// happen (reach < ε′ certifies direct density-reachability at ε′), so
/// re-examining the would-be-noise points against the core points is
/// sufficient for exactness — which the tests verify against the naive
/// oracle at arbitrary extraction radii.
pub fn extract_dbscan(out: &OpticsOutput, data: &Dataset, eps_prime: f64) -> Clustering {
    assert!(
        eps_prime <= out.params.eps,
        "extraction radius {} exceeds the generating eps {}",
        eps_prime,
        out.params.eps
    );
    let n = out.order.len();
    let mut labels = vec![NOISE; n];
    let mut is_core = vec![false; n];
    let mut current: Option<u32> = None;
    let mut next = 0u32;

    for &p in &out.order {
        let pi = p as usize;
        if out.reachability[pi] >= eps_prime {
            // Not density-reachable at eps'; starts a cluster iff core.
            if out.core_distance[pi] < eps_prime {
                is_core[pi] = true;
                labels[pi] = next;
                current = Some(next);
                next += 1;
            } else {
                labels[pi] = NOISE;
                current = None;
            }
        } else {
            // Reachable from the current cluster at eps'.
            let c = current.expect("reachable point must follow a cluster start");
            labels[pi] = c;
            if out.core_distance[pi] < eps_prime {
                is_core[pi] = true;
            }
        }
    }
    // Border rescue: a noise-labelled point with a core point strictly
    // within eps' is actually a border point of that core's cluster.
    let noise_points: Vec<u32> = (0..n as u32).filter(|&p| labels[p as usize] == NOISE).collect();
    if !noise_points.is_empty() {
        let core_tree = rtree::RTree::bulk_load_points(
            data.dim(),
            rtree::RTreeConfig::default(),
            (0..n as u32).filter(|&p| is_core[p as usize]).map(|p| (p, data.point(p).to_vec())),
        );
        for p in noise_points {
            if let (Some(q), _cost) = core_tree.first_in_sphere(data.point(p), eps_prime) {
                labels[p as usize] = labels[q as usize];
            }
        }
    }

    Clustering { labels, is_core, n_clusters: next as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::{check_exact, naive_dbscan};

    fn blobs(seed: u64) -> Dataset {
        let mut rows = Vec::new();
        let mut s = seed;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (5.0, 3.0), (-3.0, 6.0)] {
            for _ in 0..50 {
                rows.push(vec![cx + 0.6 * r(), cy + 0.6 * r()]);
            }
        }
        for _ in 0..20 {
            rows.push(vec![10.0 * r(), 10.0 * r()]);
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn ordering_covers_every_point_once() {
        let data = blobs(3);
        let out = Optics::from_params(DbscanParams::new(1.0, 5)).run(&data);
        let mut seen = vec![false; data.len()];
        for &p in &out.order {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(out.counters.range_queries() as usize >= data.len());
    }

    #[test]
    fn extraction_at_generating_eps_matches_dbscan() {
        let data = blobs(7);
        let params = DbscanParams::new(0.8, 5);
        let out = Optics::from_params(params).run(&data);
        let got = extract_dbscan(&out, &data, params.eps);
        let want = naive_dbscan(&data, &params);
        let rep = check_exact(&got, &want, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
    }

    #[test]
    fn extraction_below_generating_eps_matches_dbscan() {
        // ONE ordering, MANY clusterings: the whole point of OPTICS.
        let data = blobs(11);
        let out = Optics::from_params(DbscanParams::new(1.2, 5)).run(&data);
        for eps_prime in [0.4, 0.6, 0.9, 1.2] {
            let got = extract_dbscan(&out, &data, eps_prime);
            let params_prime = DbscanParams::new(eps_prime, 5);
            let want = naive_dbscan(&data, &params_prime);
            let rep = check_exact(&got, &want, &data, &params_prime);
            assert!(rep.is_exact(), "eps'={eps_prime}: {rep:?}");
        }
    }

    #[test]
    fn core_distance_characterises_core_points() {
        let data = blobs(13);
        let params = DbscanParams::new(0.9, 6);
        let out = Optics::from_params(params).run(&data);
        let reference = naive_dbscan(&data, &params);
        for p in 0..data.len() {
            let is_core = out.core_distance[p] < params.eps;
            assert_eq!(
                is_core, reference.is_core[p],
                "core_dist vs DBSCAN core flag mismatch at {p}"
            );
        }
    }

    #[test]
    fn reachability_plot_shape() {
        // Dense blob then a gap: reachability within the blob is small,
        // the jump to the outlier is large.
        let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![0.05 * i as f64]).collect();
        rows.push(vec![50.0]);
        let data = Dataset::from_rows(&rows);
        let out = Optics::from_params(DbscanParams::new(2.0, 4)).run(&data);
        // The outlier is unreachable (INFINITY) — it is farther than ε.
        assert!(out.reachability[30].is_infinite());
        // Blob members (apart from the start) have small reachability.
        let small =
            out.order.iter().filter(|&&p| p != 30 && out.reachability[p as usize] < 0.5).count();
        assert!(small >= 28, "blob reachability too large: {small}");
    }

    #[test]
    #[should_panic(expected = "exceeds the generating eps")]
    fn extraction_above_eps_rejected() {
        let data = blobs(1);
        let out = Optics::from_params(DbscanParams::new(0.5, 5)).run(&data);
        extract_dbscan(&out, &data, 1.0);
    }

    #[test]
    fn deterministic() {
        let data = blobs(21);
        let params = DbscanParams::new(0.8, 5);
        let a = Optics::from_params(params).run(&data);
        let b = Optics::from_params(params).run(&data);
        assert_eq!(a.order, b.order);
        assert_eq!(a.reachability, b.reachability);
    }
}
