//! Micro-cluster construction — paper Algorithm 3 (BUILD-MICRO-CLUSTERS).
//!
//! Single scan over the points:
//!
//! 1. if some MC center lies strictly within ε of the point, the point
//!    joins the minimum-id such MC (level 1 is the center grid,
//!    [`crate::level1`], at every dimension);
//! 2. otherwise, if some center lies within 2ε, the point is *deferred* to
//!    an `unassignedList` — creating a center here would produce a heavily
//!    overlapping MC, and the paper's 2ε rule keeps the MC count low;
//! 3. otherwise the point becomes the center of a new MC.
//!
//! A second scan assigns the deferred points: join an MC within ε if one
//! exists by now, else become a new center. Finally each MC's member
//! list is copied into its column-major block (level 2). The scans are
//! ordered (every placement depends on the MCs created so far) and stay
//! on the calling thread; the blocks are independent per MC and are
//! filled on worker threads by [`build_micro_clusters_par`]. Every thread
//! count builds the same μR-tree.

use crate::level1::CenterGrid;
use crate::micro::{McId, MicroCluster, NO_MC};
use crate::murtree::MuRTree;
use geom::{Dataset, PointId};
use metrics::Counters;
use std::sync::Mutex;

/// Construction options (the knobs the ablation benches turn).
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Apply the 2ε deferral rule (paper default). Disabling it creates an
    /// MC at every point that is not within ε of an existing center.
    pub two_eps_deferral: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self { two_eps_deferral: true }
    }
}

/// MCs a worker takes from the queue at a time when filling blocks.
const BLOCK_CHUNK: usize = 64;

/// Build all micro-clusters and the μR-tree for `data` on the calling
/// thread: [`build_micro_clusters_par`] at one thread.
pub fn build_micro_clusters(
    data: &Dataset,
    eps: f64,
    opts: &BuildOptions,
    counters: &Counters,
) -> MuRTree {
    build_micro_clusters_par(data, eps, opts, 1, counters)
}

/// Build all micro-clusters and the μR-tree for `data`, with the per-MC
/// blocks filled on `threads` workers. The result and the counter
/// totals do not depend on `threads`.
pub fn build_micro_clusters_par(
    data: &Dataset,
    eps: f64,
    opts: &BuildOptions,
    threads: usize,
    counters: &Counters,
) -> MuRTree {
    assert!(threads >= 1);
    let _span = obs::span!("mc_build");
    let mut level1 = CenterGrid::new(data.dim(), eps);
    let mut mcs: Vec<MicroCluster> = Vec::new();
    // Each MC's member ids, center first, until they are copied into its
    // block.
    let mut members: Vec<Vec<PointId>> = Vec::new();
    let mut assignment: Vec<McId> = vec![NO_MC; data.len()];
    let mut unassigned: Vec<PointId> = Vec::new();

    // Each probe charges the real cost the grid paid: cells visited and
    // centers tested.
    let charge = |cost: rtree::QueryCost| {
        counters.count_node_visits(cost.nodes_visited.max(1));
        counters.count_dists(cost.mbr_tests);
    };
    // Put `p` into MC `hit`, or make it the center of a new MC.
    let mut place = |p: PointId, coords: &[f64], hit: Option<McId>, level1: &mut CenterGrid| {
        let id = match hit {
            Some(id) => {
                let mc = &mut mcs[id as usize];
                mc.insert(coords, data.point(mc.center), eps);
                members[id as usize].push(p);
                id
            }
            None => {
                level1.insert(coords);
                mcs.push(MicroCluster::new(p, coords));
                members.push(vec![p]);
                (mcs.len() - 1) as McId
            }
        };
        assignment[p as usize] = id;
    };

    // First scan (Algorithm 3, PROCESS-POINT).
    let scan1 = obs::span!("scan_assign");
    for (p, coords) in data.iter() {
        let (hit, cost) = level1.min_within(coords, eps);
        charge(cost);
        if hit.is_none() && opts.two_eps_deferral {
            let (near, cost) = level1.any_within(coords, 2.0 * eps);
            charge(cost);
            if near {
                unassigned.push(p);
                continue;
            }
        }
        place(p, coords, hit, &mut level1);
    }
    drop(scan1);
    let deferred = unassigned.len();

    // Second scan (PROCESS-UNASSIGNED-POINT).
    let scan2 = obs::span!("scan_unassigned");
    for p in unassigned {
        let coords = data.point(p);
        let (hit, cost) = level1.min_within(coords, eps);
        charge(cost);
        place(p, coords, hit, &mut level1);
    }
    drop(scan2);

    // Level 2: one block per MC, independent per MC. Workers take chunks
    // of MCs from a shared queue, so uneven MC sizes balance.
    let blocks = obs::span!("mc_blocks");
    let workers = threads.min(mcs.len().div_ceil(BLOCK_CHUNK));
    if workers <= 1 {
        mcs.iter_mut().zip(&members).for_each(|(mc, ids)| mc.fill_block(data, ids));
    } else {
        let queue = Mutex::new(mcs.chunks_mut(BLOCK_CHUNK).zip(members.chunks(BLOCK_CHUNK)));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let Some((chunk, ids)) = queue.lock().expect("poisoned").next() else { break };
                    chunk.iter_mut().zip(ids).for_each(|(mc, ids)| mc.fill_block(data, ids));
                });
            }
        });
    }
    drop(blocks);

    if obs::enabled() {
        obs::record_count("mc/count", mcs.len() as u64);
        obs::record_count("mc/deferred_points", deferred as u64);
    }
    MuRTree::from_parts(eps, level1, mcs, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::dist_euclidean;

    fn grid(n: usize, step: f64) -> Dataset {
        let mut rows = Vec::new();
        for i in 0..n {
            for j in 0..n {
                rows.push(vec![i as f64 * step, j as f64 * step]);
            }
        }
        Dataset::from_rows(&rows)
    }

    fn check_partition(data: &Dataset, t: &MuRTree, eps: f64) {
        // Every point assigned to exactly one MC, within eps of its center.
        let mut seen = vec![false; data.len()];
        for (id, mc) in t.mcs.iter().enumerate() {
            for &m in mc.block.items() {
                assert!(!seen[m as usize], "point {m} in two MCs");
                seen[m as usize] = true;
                assert_eq!(t.assignment[m as usize], id as McId);
                assert!(
                    dist_euclidean(data.point(m), data.point(mc.center)) < eps,
                    "member outside its MC ball"
                );
            }
            assert_eq!(mc.center, mc.block.item(0), "center must be first member");
        }
        assert!(seen.iter().all(|&s| s), "unassigned point");
    }

    #[test]
    fn all_points_partitioned() {
        let data = grid(10, 0.4);
        let c = Counters::new();
        let t = build_micro_clusters(&data, 1.0, &BuildOptions::default(), &c);
        check_partition(&data, &t, 1.0);
        assert!(t.mcs.len() < data.len(), "should form far fewer MCs than points");
        assert!(c.dist_computations() > 0);
    }

    #[test]
    fn two_eps_rule_reduces_mc_count() {
        let data = grid(14, 0.35);
        let c = Counters::new();
        let with = build_micro_clusters(&data, 1.0, &BuildOptions::default(), &c);
        let without =
            build_micro_clusters(&data, 1.0, &BuildOptions { two_eps_deferral: false }, &c);
        check_partition(&data, &with, 1.0);
        check_partition(&data, &without, 1.0);
        assert!(
            with.mcs.len() <= without.mcs.len(),
            "deferral produced more MCs ({} > {})",
            with.mcs.len(),
            without.mcs.len()
        );
    }

    #[test]
    fn centers_are_pairwise_separated() {
        // After construction no two centers can be within eps of each other:
        // the later one would have joined the earlier MC.
        let data = grid(12, 0.3);
        let c = Counters::new();
        let t = build_micro_clusters(&data, 1.0, &BuildOptions::default(), &c);
        for (i, a) in t.mcs.iter().enumerate() {
            for b in t.mcs.iter().skip(i + 1) {
                assert!(
                    dist_euclidean(data.point(a.center), data.point(b.center)) >= 1.0,
                    "two MC centers within eps"
                );
            }
        }
    }

    #[test]
    fn a_point_within_eps_of_two_centers_joins_the_minimum_id() {
        // Without deferral, 0 and 1 both become centers (exactly ε apart);
        // point 2 lies within ε of both. The grid probes center 1's cell
        // first, and the point still joins center 0.
        let data = Dataset::from_rows(&[vec![2.5, 0.0], vec![1.5, 0.0], vec![2.0, 0.0]]);
        let opts = BuildOptions { two_eps_deferral: false };
        let t = build_micro_clusters(&data, 1.0, &opts, &Counters::new());
        assert_eq!(t.mcs.len(), 2);
        assert_eq!((t.mcs[0].center, t.mcs[1].center), (0, 1));
        assert_eq!(t.assignment[2], 0);
    }

    #[test]
    fn worker_threads_build_the_same_tree() {
        // Enough MCs (eps small against the spacing) that the blocks are
        // split over several workers.
        let data = grid(30, 0.4);
        let c1 = Counters::new();
        let one = build_micro_clusters(&data, 0.5, &BuildOptions::default(), &c1);
        assert!(one.mcs.len() > 4 * BLOCK_CHUNK);
        for threads in [2, 3, 8] {
            let c = Counters::new();
            let t = build_micro_clusters_par(&data, 0.5, &BuildOptions::default(), threads, &c);
            assert_eq!(t.assignment, one.assignment, "t{threads}");
            assert_eq!(c.node_visits(), c1.node_visits(), "t{threads}");
            assert_eq!(c.dist_computations(), c1.dist_computations(), "t{threads}");
            for (a, b) in t.mcs.iter().zip(&one.mcs) {
                assert_eq!(
                    (a.center, a.block.items(), a.inner_count),
                    (b.center, b.block.items(), b.inner_count)
                );
                assert_eq!(a.block.capacity(), a.len(), "t{threads}");
                for (i, &m) in a.block.items().iter().enumerate() {
                    for (k, &x) in data.point(m).iter().enumerate() {
                        assert_eq!(a.block.coord(i, k), x, "t{threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let data = Dataset::empty(2);
        let t = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 4, &Counters::new());
        assert_eq!(t.mc_count(), 0);
        assert!(t.assignment.is_empty());
    }

    #[test]
    fn single_point_dataset() {
        let data = Dataset::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let c = Counters::new();
        let t = build_micro_clusters(&data, 0.5, &BuildOptions::default(), &c);
        assert_eq!(t.mcs.len(), 1);
        assert_eq!(t.mcs[0].block.items(), [0]);
        assert_eq!(t.mcs[0].inner_count, 1);
    }

    #[test]
    fn duplicate_points_share_one_mc() {
        let data = Dataset::from_rows(&vec![vec![5.0, 5.0]; 20]);
        let c = Counters::new();
        let t = build_micro_clusters(&data, 1.0, &BuildOptions::default(), &c);
        assert_eq!(t.mcs.len(), 1);
        assert_eq!(t.mcs[0].len(), 20);
        assert_eq!(t.mcs[0].inner_count, 20);
    }
}
