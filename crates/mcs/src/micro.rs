//! The micro-cluster record, its classification and the level-2 scan.

use geom::{dist_sq, Dataset, DbscanParams, Mbr, PointBlock, PointId};
use rtree::QueryCost;
use std::cell::Cell;

/// Index of a micro-cluster in the [`crate::MuRTree`]'s MC list.
pub type McId = u32;

/// Sentinel for "point not assigned to any MC yet".
pub const NO_MC: McId = u32::MAX;

/// Classification of a micro-cluster (paper §IV-B definitions ii–iv).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McKind {
    /// Dense micro-cluster: `|IC| >= MinPts` — every inner-circle point is
    /// core without a neighbourhood query.
    Dense,
    /// Core micro-cluster: `|MC| >= MinPts` — the center is core without a
    /// neighbourhood query.
    Core,
    /// Sparse micro-cluster: nothing can be concluded.
    Sparse,
}

/// One micro-cluster: an ε-ball around a center point and its members.
#[derive(Debug, Clone)]
pub struct MicroCluster {
    /// The center point (a dataset point, `MC(p).center == p`).
    pub center: PointId,
    /// Bounding box of the member points (tight, not the ε-ball box).
    pub mbr: Mbr,
    /// Number of members strictly within ε/2 of the center (center
    /// included) — `|IC|`.
    pub inner_count: u32,
    /// The member points, center first, and their coordinates,
    /// column-major in member order (level 2 of the μR-tree; item ids are
    /// the members, and assignment is exclusive: each dataset point
    /// belongs to exactly one MC). Empty until membership is final, then
    /// filled at exact capacity.
    pub block: PointBlock,
    /// Ids of reachable MCs — centers strictly within 3ε (self included).
    pub reach: Vec<McId>,
}

impl MicroCluster {
    /// A fresh MC containing only its center.
    pub fn new(center: PointId, coords: &[f64]) -> Self {
        Self {
            center,
            mbr: Mbr::point(coords),
            inner_count: 1, // the center is inside its own inner circle
            block: PointBlock::with_capacity(coords.len(), 0),
            reach: Vec::new(),
        }
    }

    /// Number of member points.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// True before the block is filled; a built MC holds at least its
    /// center.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Count a joining member at `coords` in the MBR and the inner-circle
    /// count; the builder copies its id into the block when membership is
    /// final.
    pub fn insert(&mut self, coords: &[f64], center_coords: &[f64], eps: f64) {
        debug_assert!(dist_sq(coords, center_coords) < eps * eps);
        self.mbr.merge_point(coords);
        let half = eps / 2.0;
        if dist_sq(coords, center_coords) < half * half {
            self.inner_count += 1;
        }
    }

    /// Classify with respect to `MinPts` (paper Algorithm 4 conditions).
    pub fn kind(&self, params: &DbscanParams) -> McKind {
        if self.inner_count as usize >= params.min_pts {
            McKind::Dense
        } else if self.len() >= params.min_pts {
            McKind::Core
        } else {
            McKind::Sparse
        }
    }

    /// Member points strictly within ε/2 of the center (the inner circle),
    /// center included.
    pub fn inner_circle<'a>(
        &'a self,
        data: &'a Dataset,
        eps: f64,
    ) -> impl Iterator<Item = PointId> + 'a {
        let half_sq = (eps / 2.0) * (eps / 2.0);
        let c = data.point(self.center);
        self.block.items().iter().copied().filter(move |&m| dist_sq(data.point(m), c) < half_sq)
    }

    /// Copy `members` (center first), in order, with their coordinates
    /// into a block of exactly their number.
    pub(crate) fn fill_block(&mut self, data: &Dataset, members: &[PointId]) {
        debug_assert_eq!(members.first(), Some(&self.center));
        let mut block = PointBlock::with_capacity(data.dim(), members.len());
        for &m in members {
            block.push(m, data.point(m));
        }
        self.block = block;
    }

    /// Estimated owned heap bytes (reach list, block, MBR).
    pub fn heap_bytes(&self) -> usize {
        self.reach.capacity() * std::mem::size_of::<McId>()
            + self.mbr.heap_bytes()
            + self.block.heap_bytes()
    }
}

thread_local! {
    /// Squared distances of [`scan_block`], reused from scan to scan.
    static DISTS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Visit, in row order, every point of `block` strictly within ε of `q`
/// (`DIST(q, p)² < eps_sq`) — the level-2 search of every ε-query.
///
/// One batched kernel call computes all distances (the scalar reference
/// loop when `rtree::force_scalar_leaf_eval` is on). The cost is what a
/// one-leaf R-tree charges: one node visit, and one distance evaluation
/// and one candidate per stored point. The distance buffer is per-thread
/// scratch, so a warm scan allocates nothing.
pub fn scan_block(
    block: &PointBlock,
    q: &[f64],
    eps_sq: f64,
    mut visit: impl FnMut(PointId),
) -> QueryCost {
    let len = block.len();
    let mut dists = DISTS.take();
    dists.resize(len, 0.0);
    if rtree::scalar_leaf_eval_forced() {
        block.dist_sq_scalar(q, &mut dists);
    } else {
        block.dist_sq_batch(q, &mut dists);
    }
    let mut matches = 0;
    for (i, &d) in dists.iter().enumerate() {
        if d < eps_sq {
            matches += 1;
            visit(block.item(i));
        }
    }
    DISTS.set(dists);
    QueryCost { nodes_visited: 1, mbr_tests: len as u64, candidates: len as u64, matches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_rows(&[
            vec![0.0, 0.0],  // 0: center
            vec![0.3, 0.0],  // 1: inner (dist 0.3 < 0.5)
            vec![0.0, 0.45], // 2: inner
            vec![0.8, 0.0],  // 3: outer ring
            vec![0.0, 0.5],  // 4: exactly eps/2 -> NOT inner (strict)
        ])
    }

    /// The MC of center 0 holding every point of `data()`.
    fn built_mc(d: &Dataset, eps: f64) -> MicroCluster {
        let mut mc = MicroCluster::new(0, d.point(0));
        for p in 1..5u32 {
            mc.insert(d.point(p), d.point(0), eps);
        }
        mc.fill_block(d, &[0, 1, 2, 3, 4]);
        mc
    }

    #[test]
    fn insert_tracks_inner_circle_strictly() {
        let d = data();
        let eps = 1.0;
        let mc = built_mc(&d, eps);
        assert_eq!(mc.len(), 5);
        assert_eq!(mc.inner_count, 3); // center + points 1, 2
        let ic: Vec<_> = mc.inner_circle(&d, eps).collect();
        assert_eq!(ic, vec![0, 1, 2]);
    }

    #[test]
    fn classification_thresholds() {
        let d = data();
        let eps = 1.0;
        let mc = built_mc(&d, eps);
        // inner_count = 3, |MC| = 5.
        assert_eq!(mc.kind(&DbscanParams::new(eps, 3)), McKind::Dense);
        assert_eq!(mc.kind(&DbscanParams::new(eps, 4)), McKind::Core);
        assert_eq!(mc.kind(&DbscanParams::new(eps, 5)), McKind::Core);
        assert_eq!(mc.kind(&DbscanParams::new(eps, 6)), McKind::Sparse);
    }

    #[test]
    fn block_scan_answers_queries() {
        let mc = built_mc(&data(), 1.0);
        let mut n = Vec::new();
        let cost = scan_block(&mc.block, &[0.0, 0.0], 0.25, |q| n.push(q));
        assert_eq!(n, vec![0, 1, 2]); // strict: point 4 at exactly 0.5 excluded
        assert_eq!(cost, QueryCost { nodes_visited: 1, mbr_tests: 5, candidates: 5, matches: 3 });
    }

    #[test]
    fn mbr_is_tight() {
        let d = data();
        let mc = built_mc(&d, 1.0);
        assert_eq!(mc.mbr.lo(), &[0.0, 0.0]);
        assert_eq!(mc.mbr.hi(), &[0.8, 0.5]);
    }
}
