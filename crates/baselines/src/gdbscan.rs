//! G-DBSCAN — the groups method (Kumar & Reddy, Pattern Recognition 2016).
//!
//! Points are gathered into **groups** of radius ε/2 around greedily
//! chosen *master* points via a linear scan (no spatial index — this is
//! why G-DBSCAN struggles on large low-dimensional data but does fine in
//! high dimension where only a handful of groups form, exactly the
//! behaviour of the paper's Table II). Two facts accelerate DBSCAN:
//!
//! * any two members of one group are strictly within ε of each other, so
//!   a group with `>= MinPts` members is all-core without queries;
//! * the ε-neighbourhood of a point in group `G(m)` only intersects
//!   groups whose master is strictly within `1.5ε` of the point.

use crate::BaselineOutput;
use geom::{dist_sq, within_sq, Dataset, DbscanParams, PointId};
use metrics::{Counters, PhaseTimer};
use mudbscan::Clustering;
use unionfind::UnionFind;

/// One ε/2-radius group.
#[derive(Debug, Clone)]
struct Group {
    master: PointId,
    members: Vec<PointId>,
}

/// The groups-method DBSCAN.
#[derive(Debug, Clone)]
pub struct GDbscan {
    params: DbscanParams,
}

impl GDbscan {
    /// New instance.
    pub fn new(params: DbscanParams) -> Self {
        Self { params }
    }

    /// Run on `data`.
    pub fn run(&self, data: &Dataset) -> BaselineOutput {
        let eps = self.params.eps;
        let min_pts = self.params.min_pts;
        let half_sq = (eps / 2.0) * (eps / 2.0);
        let reach_sq = (1.5 * eps) * (1.5 * eps);
        let eps_sq = eps * eps;

        let counters = Counters::new();
        let mut phases = PhaseTimer::new();
        let n = data.len();
        let _run = obs::span!("gdbscan");

        // Phase 1: group construction by linear scan over masters.
        let ph1 = phases.phase("group_construction");
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: Vec<u32> = vec![u32::MAX; n];
        for (p, coords) in data.iter() {
            let mut joined = false;
            for (gi, g) in groups.iter_mut().enumerate() {
                counters.count_dists(1);
                if dist_sq(coords, data.point(g.master)) < half_sq {
                    g.members.push(p);
                    group_of[p as usize] = gi as u32;
                    joined = true;
                    break;
                }
            }
            if !joined {
                group_of[p as usize] = groups.len() as u32;
                groups.push(Group { master: p, members: vec![p] });
            }
        }
        drop(ph1);

        // Phase 2: full groups are all-core; union within group.
        let ph2 = phases.phase("group_classification");
        let mut uf = UnionFind::new(n);
        let mut is_core = vec![false; n];
        let mut assigned = vec![false; n];
        // Full-group members are provably core, but unlike μDBSCAN's
        // wndq-cores they still run phase-3 queries: the groups method
        // needs their neighbour sets for the cross-group unions.
        for g in &groups {
            if g.members.len() >= min_pts {
                for &m in &g.members {
                    is_core[m as usize] = true;
                    uf.union(g.master, m);
                    counters.count_union();
                    assigned[m as usize] = true;
                }
            }
        }
        drop(ph2);

        // Phase 3: neighbourhood queries restricted to nearby groups.
        let ph3 = phases.phase("clustering");
        let mut pending: Vec<(PointId, Vec<PointId>)> = Vec::new();
        let mut nbhrs: Vec<PointId> = Vec::new();
        for (p, coords) in data.iter() {
            nbhrs.clear();
            counters.count_range_query();
            for g in &groups {
                counters.count_dists(1);
                if dist_sq(coords, data.point(g.master)) < reach_sq {
                    counters.count_dists(g.members.len() as u64);
                    for &q in &g.members {
                        if within_sq(coords, data.point(q), eps_sq) {
                            nbhrs.push(q);
                        }
                    }
                }
            }
            if nbhrs.len() >= min_pts {
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
        drop(ph3);

        // Phase 4: border rescue from stored neighbourhoods.
        let ph4 = phases.phase("post_processing");
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
        drop(ph4);

        let peak = groups.iter().map(|g| 16 + g.members.capacity() * 4).sum::<usize>()
            + uf.heap_bytes()
            + n * 3 / 8
            + pending.iter().map(|(_, v)| 16 + v.capacity() * 4).sum::<usize>();

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
        let mut s = 123u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (4.0, 4.0)] {
            for _ in 0..40 {
                rows.push(vec![cx + 0.7 * r(), cy + 0.7 * r()]);
            }
        }
        for _ in 0..10 {
            rows.push(vec![8.0 * r(), 8.0 * r()]);
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn exact_vs_naive() {
        let data = blob_data();
        for (eps, min_pts) in [(0.5, 4), (0.9, 6), (0.25, 2)] {
            let params = DbscanParams::new(eps, min_pts);
            let out = GDbscan::new(params).run(&data);
            let reference = naive_dbscan(&data, &params);
            let rep = check_exact(&out.clustering, &reference, &data, &params);
            assert!(rep.is_exact(), "eps={eps} min_pts={min_pts}: {rep:?}");
        }
    }

    #[test]
    fn groups_bound_masters() {
        // All points identical: exactly one group, all core for small
        // MinPts, one cluster.
        let data = Dataset::from_rows(&vec![vec![2.0, 2.0]; 12]);
        let out = GDbscan::new(DbscanParams::new(1.0, 5)).run(&data);
        assert_eq!(out.clustering.n_clusters, 1);
        assert_eq!(out.clustering.core_count(), 12);
    }

    #[test]
    fn phases_reported() {
        let data = blob_data();
        let out = GDbscan::new(DbscanParams::new(0.5, 4)).run(&data);
        let names: Vec<String> = out.phases.split_up().iter().map(|(n, _, _)| n.clone()).collect();
        assert!(names.contains(&"group_construction".to_string()));
        assert!(names.contains(&"clustering".to_string()));
    }
}
