//! R-DBSCAN: classical DBSCAN with a single R-tree over all points.
//!
//! Performs one ε-neighbourhood query per point (no query saving), with
//! union–find cluster formation. This is the "R-DBSCAN" column of the
//! paper's Table II and the sequential skeleton of PDSDBSCAN.

use crate::BaselineOutput;
use geom::{Dataset, DbscanParams, PointId};
use metrics::{Counters, PhaseTimer};
use mudbscan::Clustering;
use rtree::{RTree, RTreeConfig};
use unionfind::UnionFind;

/// Classical DBSCAN over a single R-tree.
#[derive(Debug, Clone)]
pub struct RDbscan {
    params: DbscanParams,
    /// Build the index by STR bulk loading instead of repeated insertion
    /// (ablation knob; query results are identical).
    pub bulk_load: bool,
}

impl RDbscan {
    /// New instance with default R-tree fan-out and incremental build.
    pub fn new(params: DbscanParams) -> Self {
        Self { params, bulk_load: false }
    }

    /// Run on `data`.
    pub fn run(&self, data: &Dataset) -> BaselineOutput {
        let counters = Counters::new();
        let mut phases = PhaseTimer::new();
        let _run = obs::span!("rdbscan");

        let step1 = phases.phase("tree_construction");
        let tree = if self.bulk_load {
            let cfg = RTreeConfig::default();
            RTree::bulk_load_points(data.dim(), cfg, data.iter().map(|(i, p)| (i, p.to_vec())))
        } else {
            let mut t = RTree::new(data.dim());
            for (i, p) in data.iter() {
                t.insert_point(i, p);
            }
            t
        };
        drop(step1);
        let mut peak = tree.heap_bytes();

        let n = data.len();
        let mut uf = UnionFind::new(n);
        let mut is_core = vec![false; n];
        let mut assigned = vec![false; n];
        // Deferred non-core points whose neighbourhoods contained no core
        // yet; resolved after all cores are known (their stored lists make
        // the pass query-free).
        let mut pending: Vec<(PointId, Vec<PointId>)> = Vec::new();
        let mut nbhrs: Vec<PointId> = Vec::new();

        let step2 = phases.phase("clustering");
        for p in data.ids() {
            nbhrs.clear();
            let cost = tree.search_sphere(data.point(p), self.params.eps, |q| nbhrs.push(q));
            counters.count_range_query();
            counters.count_dists(cost.mbr_tests);
            counters.count_node_visits(cost.nodes_visited.max(1));

            if nbhrs.len() >= self.params.min_pts {
                is_core[p as usize] = true;
                assigned[p as usize] = true;
                for &x in &nbhrs {
                    if is_core[x as usize] {
                        uf.union(x, p);
                        counters.count_union();
                    } else if !assigned[x as usize] {
                        uf.union(p, x);
                        counters.count_union();
                        assigned[x as usize] = true;
                    }
                }
            } else if !assigned[p as usize] {
                let mut attached = false;
                for &x in &nbhrs {
                    if is_core[x as usize] {
                        uf.union(x, p);
                        counters.count_union();
                        assigned[p as usize] = true;
                        attached = true;
                        break;
                    }
                }
                if !attached {
                    pending.push((p, nbhrs.clone()));
                }
            }
        }
        drop(step2);
        peak = peak.max(
            tree.heap_bytes()
                + uf.heap_bytes()
                + pending.iter().map(|(_, v)| 16 + v.capacity() * 4).sum::<usize>(),
        );

        // Border rescue: some neighbours became core after p was examined.
        let step3 = phases.phase("post_processing");
        for (p, nb) in &pending {
            if assigned[*p as usize] {
                continue;
            }
            for &q in nb {
                if is_core[q as usize] {
                    uf.union(q, *p);
                    counters.count_union();
                    assigned[*p as usize] = true;
                    break;
                }
            }
        }
        drop(step3);

        let clustering = Clustering::from_union_find(&mut uf, is_core);
        BaselineOutput { clustering, counters, phases, peak_heap_bytes: peak }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::{check_exact, naive_dbscan};

    fn blob_data() -> Dataset {
        let mut rows = Vec::new();
        let mut s = 99u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (5.0, 1.0), (2.0, 6.0)] {
            for _ in 0..35 {
                rows.push(vec![cx + 0.6 * r(), cy + 0.6 * r()]);
            }
        }
        for _ in 0..12 {
            rows.push(vec![10.0 * r(), 10.0 * r()]);
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn exact_vs_naive() {
        let data = blob_data();
        for (eps, min_pts) in [(0.5, 4), (0.8, 6), (0.3, 3)] {
            let params = DbscanParams::new(eps, min_pts);
            let out = RDbscan::new(params).run(&data);
            let reference = naive_dbscan(&data, &params);
            let rep = check_exact(&out.clustering, &reference, &data, &params);
            assert!(rep.is_exact(), "eps={eps} min_pts={min_pts}: {rep:?}");
        }
    }

    #[test]
    fn bulk_and_incremental_agree() {
        let data = blob_data();
        let params = DbscanParams::new(0.6, 5);
        let a = RDbscan::new(params).run(&data);
        let mut alg = RDbscan::new(params);
        alg.bulk_load = true;
        let b = alg.run(&data);
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn no_queries_saved() {
        let data = blob_data();
        let out = RDbscan::new(DbscanParams::new(0.5, 5)).run(&data);
        assert_eq!(out.counters.range_queries() as usize, data.len());
        assert_eq!(out.counters.queries_saved(), 0);
        assert!(out.peak_heap_bytes > 0);
    }
}
