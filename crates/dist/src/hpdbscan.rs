//! HPDBSCAN-style distributed DBSCAN (Götz et al., MLHPC'15).
//!
//! HPDBSCAN grids the whole space into ε-cells, orders the cells, and
//! assigns contiguous cell blocks to ranks using a **load-cost
//! heuristic** (a cell's query cost grows with its point count), instead
//! of μDBSCAN-D's median-based kd splits. The local stage is grid-based.
//!
//! Two fidelity notes (also in DESIGN.md):
//! * the original implementation produces cluster counts that deviate
//!   from classical DBSCAN (the paper observes ~27 % on FOF56M3D); our
//!   port routes the local results through the same exact merge as the
//!   other algorithms, so it is exactness-fixed — we reproduce its
//!   *performance* profile (cheap partitioning, grid locality), not its
//!   inconsistency;
//! * cell-block partitioning is done orchestrator-side (it is excluded
//!   from the paper's reported runtimes anyway) and charged to the
//!   `partitioning` phase via a stopwatch.

use crate::driver::{run_distributed, DistError, DistOutput};
use baselines::GridDbscan;
use geom::{Dataset, DbscanParams, Mbr, PointId};
use metrics::mem::MemBudget;
use metrics::Stopwatch;
use partition::Shard;
use std::collections::BTreeMap;

/// HPDBSCAN-style distributed grid DBSCAN.
#[derive(Debug, Clone)]
pub struct HpDbscan {
    params: DbscanParams,
    ranks: usize,
    /// Per-rank structure memory budget (inherited by the grid stage).
    pub budget: MemBudget,
}

impl HpDbscan {
    /// New instance over `ranks` simulated ranks.
    pub fn new(params: DbscanParams, ranks: usize) -> Self {
        Self { params, ranks, budget: MemBudget::new(4 << 30) }
    }

    /// Run on `data`.
    pub fn run(&self, data: &Dataset) -> Result<DistOutput, DistError> {
        let sw = Stopwatch::start();
        let shards = cell_partition(data, self.ranks, self.params.eps);
        let views = shards.into_iter().map(Into::into).collect();
        let partition_secs = sw.secs();

        let (params, budget) = (self.params, self.budget);
        run_distributed(views, partition_secs, &params, None, |combined| {
            let out = GridDbscan::new(params).with_budget(budget).run(combined);
            Ok(out.map_err(|e| e.to_string())?.into())
        })
    }
}

/// Partition by contiguous blocks of lexicographically ordered ε-cells,
/// balancing the HPDBSCAN cost heuristic (cost(cell) = |cell|²,
/// approximating the pairwise work inside a cell). Returns shards with
/// regions = bounding boxes of the assigned points, and ε-halos.
pub fn cell_partition(data: &Dataset, p: usize, eps: f64) -> Vec<Shard> {
    assert!(p >= 1);
    let dim = data.dim();

    // Bucket points into ε-cells, ordered lexicographically by cell key.
    let mut cells: BTreeMap<Vec<i32>, Vec<PointId>> = BTreeMap::new();
    for (id, coords) in data.iter() {
        let key: Vec<i32> = coords.iter().map(|&x| (x / eps).floor() as i32).collect();
        cells.entry(key).or_default().push(id);
    }

    // Greedy block assignment by accumulated cost.
    let total_cost: u64 = cells.values().map(|v| (v.len() * v.len()) as u64).sum();
    let target = (total_cost / p as u64).max(1);
    let mut owner_points: Vec<Vec<PointId>> = vec![Vec::new(); p];
    let mut rank = 0usize;
    let mut acc = 0u64;
    for pts in cells.values() {
        if acc >= target && rank + 1 < p {
            rank += 1;
            acc = 0;
        }
        acc += (pts.len() * pts.len()) as u64;
        owner_points[rank].extend_from_slice(pts);
    }

    // Build shards with bounding-box regions.
    let global_box = data
        .bounding_box()
        .map(|(lo, hi)| Mbr::new(lo, hi))
        .unwrap_or_else(|| Mbr::new(vec![0.0; dim], vec![0.0; dim]));
    let mut shards: Vec<Shard> = owner_points
        .iter()
        .map(|ids| {
            let local = data.gather(ids);
            let region = local
                .bounding_box()
                .map(|(lo, hi)| Mbr::new(lo, hi))
                .unwrap_or_else(|| global_box.clone());
            Shard {
                ids: ids.clone(),
                data: local,
                halo_ids: Vec::new(),
                halo: Dataset::empty(dim),
                region,
            }
        })
        .collect();

    // Halo exchange: remote points strictly within ε of a rank's region.
    let eps_sq = eps * eps;
    for r in 0..p {
        let region = shards[r].region.clone();
        let mut halo_ids = Vec::new();
        let mut coords = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            if s == r {
                continue;
            }
            for (i, &id) in shard.ids.iter().enumerate() {
                let c = shard.data.point(i as PointId);
                if region.min_dist_sq(c) < eps_sq {
                    halo_ids.push(id);
                    coords.extend_from_slice(c);
                }
            }
        }
        shards[r].halo_ids = halo_ids;
        shards[r].halo = Dataset::from_flat(dim, coords);
    }

    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::{check_exact, naive_dbscan};

    fn blob_data() -> Dataset {
        let mut rows = Vec::new();
        let mut s = 3u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(5);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (7.0, 3.0)] {
            for _ in 0..70 {
                rows.push(vec![cx + 0.9 * r(), cy + 0.9 * r()]);
            }
        }
        for _ in 0..20 {
            rows.push(vec![12.0 * r(), 12.0 * r()]);
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn cell_partition_complete_and_disjoint() {
        let data = blob_data();
        let shards = cell_partition(&data, 4, 0.8);
        let mut seen = vec![false; data.len()];
        for s in &shards {
            for &id in &s.ids {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn halos_complete_for_cell_partition() {
        let data = blob_data();
        let eps = 0.8;
        let shards = cell_partition(&data, 4, eps);
        for s in &shards {
            let halo: std::collections::HashSet<u32> = s.halo_ids.iter().copied().collect();
            for (other_i, other) in shards.iter().enumerate() {
                let _ = other_i;
                for (j, &qid) in other.ids.iter().enumerate() {
                    if s.ids.contains(&qid) {
                        continue;
                    }
                    let q = other.data.point(j as u32);
                    let needed =
                        (0..s.len()).any(|i| geom::dist_euclidean(s.data.point(i as u32), q) < eps);
                    if needed {
                        assert!(halo.contains(&qid));
                    }
                }
            }
        }
    }

    #[test]
    fn hpdbscan_exact_after_merge() {
        let data = blob_data();
        let params = DbscanParams::new(0.6, 5);
        let reference = naive_dbscan(&data, &params);
        for p in [1, 3, 4] {
            let out = HpDbscan::new(params, p).run(&data).unwrap();
            let rep = check_exact(&out.clustering, &reference, &data, &params);
            assert!(rep.is_exact(), "p={p}: {rep:?}");
            assert_eq!(out.clustering, reference, "p={p}");
        }
    }

    #[test]
    fn load_heuristic_spreads_cost() {
        let data = blob_data();
        let shards = cell_partition(&data, 4, 0.8);
        let nonempty = shards.iter().filter(|s| !s.is_empty()).count();
        assert!(nonempty >= 2, "cost heuristic collapsed everything onto one rank");
    }
}
