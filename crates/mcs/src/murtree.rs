//! The μR-tree: level-1 center grid over MC centers + per-MC member blocks,
//! reachable-MC lists (Lemma 3) and the restricted ε-neighbourhood query
//! (paper Algorithm 6, FIND-NBHD).

use crate::level1::CenterGrid;
use crate::micro::{scan_block, McId, MicroCluster};
use geom::{Dataset, PointId};
use metrics::Counters;
use rtree::QueryCost;

/// The two-level spatial index of μDBSCAN plus the point→MC assignment.
#[derive(Debug, Clone)]
pub struct MuRTree {
    /// The ε the structure was built for (all queries use this radius).
    pub eps: f64,
    /// Level-1 index; ids are [`McId`]s located at their center points.
    level1: CenterGrid,
    /// All micro-clusters.
    pub mcs: Vec<MicroCluster>,
    /// `assignment[p]` is the MC that point `p` belongs to.
    pub assignment: Vec<McId>,
}

impl MuRTree {
    /// Assemble from construction output (see [`crate::build_micro_clusters`]).
    pub(crate) fn from_parts(
        eps: f64,
        level1: CenterGrid,
        mcs: Vec<MicroCluster>,
        assignment: Vec<McId>,
    ) -> Self {
        Self { eps, level1, mcs, assignment }
    }

    /// Take the tree apart for a caller that keeps maintaining it: the
    /// level-1 grid (ids are MC indices), the MCs and the point→MC
    /// assignment.
    pub fn into_parts(self) -> (CenterGrid, Vec<MicroCluster>, Vec<McId>) {
        (self.level1, self.mcs, self.assignment)
    }

    /// Number of micro-clusters (`m` in the paper's complexity analysis).
    pub fn mc_count(&self) -> usize {
        self.mcs.len()
    }

    /// Average members per MC (`r` in the complexity analysis).
    pub fn avg_mc_size(&self) -> f64 {
        if self.mcs.is_empty() {
            0.0
        } else {
            self.assignment.len() as f64 / self.mcs.len() as f64
        }
    }

    /// Compute every MC's reachable list — all MCs whose center lies
    /// strictly within 3ε (paper Algorithm 5; strict `<` is sufficient
    /// because all distances in Lemma 3's chain are strict).
    ///
    /// The list always contains the MC itself.
    pub fn compute_reachable(&mut self, data: &Dataset, counters: &Counters) {
        let _span = obs::span!("find_reachable");
        let mut reach_total = 0u64;
        let mut scratch = Vec::new();
        for i in 0..self.mcs.len() {
            scratch.clear();
            let cost = self.reachable_from(data, i as McId, &mut scratch);
            counters.count_dists(cost.mbr_tests);
            counters.count_node_visits(cost.nodes_visited.max(1));
            reach_total += scratch.len() as u64;
            self.mcs[i].reach = scratch.clone();
        }
        if obs::enabled() {
            obs::record_count("mc/reach_list_entries", reach_total);
        }
    }

    /// Append MC `mc`'s reachable list — every MC whose center lies
    /// strictly within 3ε of its center, itself included — to `out`, and
    /// return the level-1 probe's cost. [`Self::compute_reachable`] calls
    /// this for every MC; parallel callers call it per MC themselves.
    pub fn reachable_from(&self, data: &Dataset, mc: McId, out: &mut Vec<McId>) -> QueryCost {
        let start = out.len();
        let center = data.point(self.mcs[mc as usize].center);
        let cost = self.level1.all_within(center, 3.0 * self.eps, out);
        debug_assert!(out[start..].contains(&mc));
        cost
    }

    /// Restricted ε-neighbourhood query for dataset point `p`
    /// (FIND-NBHD): scan only the member blocks of `p`'s MC's reachable
    /// list, and only those whose member-MBR meets the open ε-ball of
    /// `p`. Appends neighbour ids (including `p` itself) to
    /// `out` and returns the query cost.
    pub fn neighborhood(&self, data: &Dataset, p: PointId, out: &mut Vec<PointId>) -> QueryCost {
        let coords = data.point(p);
        let z = self.assignment[p as usize];
        let eps_sq = self.eps * self.eps;
        let mut cost = QueryCost::default();
        for &r in &self.mcs[z as usize].reach {
            let mc = &self.mcs[r as usize];
            cost.mbr_tests += 1;
            if mc.mbr.min_dist_sq(coords) < eps_sq {
                cost.add(scan_block(&mc.block, coords, eps_sq, |q| out.push(q)));
            }
        }
        cost
    }

    /// The reachable MC ids of the MC that `p` belongs to.
    pub fn reach_of(&self, p: PointId) -> &[McId] {
        &self.mcs[self.assignment[p as usize] as usize].reach
    }

    /// Count micro-clusters by kind: `(dense, core, sparse)` — the mix
    /// that determines how many wndq-core points exist (Table II's
    /// "% query saves" is driven by the DMC share).
    pub fn kind_histogram(&self, params: &geom::DbscanParams) -> (usize, usize, usize) {
        let mut h = (0, 0, 0);
        for mc in &self.mcs {
            match mc.kind(params) {
                crate::McKind::Dense => h.0 += 1,
                crate::McKind::Core => h.1 += 1,
                crate::McKind::Sparse => h.2 += 1,
            }
        }
        h
    }

    /// Estimated heap footprint in bytes (level-1 index, MC records,
    /// assignment vector).
    pub fn heap_bytes(&self) -> usize {
        self.level1.heap_bytes()
            + self.assignment.capacity() * std::mem::size_of::<McId>()
            + self.mcs.capacity() * std::mem::size_of::<MicroCluster>()
            + self.mcs.iter().map(|m| m.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_micro_clusters, BuildOptions};
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

    fn built(data: &Dataset, eps: f64) -> MuRTree {
        let c = Counters::new();
        let mut t = build_micro_clusters(data, eps, &BuildOptions::default(), &c);
        t.compute_reachable(data, &c);
        t
    }

    #[test]
    fn reachable_matches_brute_force() {
        let data = grid(12, 0.5);
        let eps = 1.0;
        let t = built(&data, eps);
        for (i, mc) in t.mcs.iter().enumerate() {
            let mut want: Vec<McId> = t
                .mcs
                .iter()
                .enumerate()
                .filter(|(_, other)| {
                    dist_euclidean(data.point(mc.center), data.point(other.center)) < 3.0 * eps
                })
                .map(|(j, _)| j as McId)
                .collect();
            want.sort_unstable();
            let mut got = mc.reach.clone();
            got.sort_unstable();
            assert_eq!(got, want, "MC {i}");
            assert!(got.contains(&(i as McId)));
        }
    }

    #[test]
    fn neighborhood_is_exact() {
        let data = grid(15, 0.45);
        let eps = 1.0;
        let t = built(&data, eps);
        for p in [0u32, 7, 100, 224] {
            let mut got = Vec::new();
            let cost = t.neighborhood(&data, p, &mut got);
            got.sort_unstable();
            let mut want: Vec<PointId> = data
                .iter()
                .filter(|(_, q)| dist_euclidean(data.point(p), q) < eps)
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "point {p}");
            assert!(got.contains(&p), "neighbourhood must contain the point itself");
            assert!(cost.nodes_visited > 0);
        }
    }

    #[test]
    fn neighborhood_skips_far_mcs() {
        // Two far-apart blobs: queries in one must not scan the other's
        // blocks.
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64 * 0.1, 0.0]);
            rows.push(vec![1000.0 + i as f64 * 0.1, 0.0]);
        }
        let data = Dataset::from_rows(&rows);
        let t = built(&data, 1.0);
        assert!(t.mc_count() >= 2);
        let mut out = Vec::new();
        t.neighborhood(&data, 0, &mut out);
        assert!(out.iter().all(|&q| data.point(q)[0] < 500.0));
        // Reach list of the left blob's MCs excludes right-blob MCs.
        for &r in t.reach_of(0) {
            assert!(data.point(t.mcs[r as usize].center)[0] < 500.0);
        }
    }

    #[test]
    fn stats_accessors() {
        let data = grid(10, 0.5);
        let t = built(&data, 1.0);
        assert!(t.mc_count() > 0);
        assert!(t.avg_mc_size() >= 1.0);
        assert!(t.heap_bytes() > 0);
        assert_eq!(t.level1.len(), t.mc_count());
    }

    #[test]
    fn kind_histogram_partitions_mcs() {
        let data = grid(12, 0.25); // dense grid: most MCs should be dense
        let t = built(&data, 1.0);
        let params = geom::DbscanParams::new(1.0, 5);
        let (d, c, s) = t.kind_histogram(&params);
        assert_eq!(d + c + s, t.mc_count());
        assert!(d > 0, "a dense grid must produce dense MCs");
        // With MinPts above every MC size, everything is sparse.
        let params_hard = geom::DbscanParams::new(1.0, 10_000);
        let (d2, c2, s2) = t.kind_histogram(&params_hard);
        assert_eq!((d2, c2), (0, 0));
        assert_eq!(s2, t.mc_count());
    }
}
