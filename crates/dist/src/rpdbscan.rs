//! RP-DBSCAN-style ρ-approximate distributed DBSCAN (Song & Lee,
//! SIGMOD'18).
//!
//! RP-DBSCAN's pitch: skip spatial partitioning entirely — partition
//! *randomly* (free), summarise the space in a **two-level cell
//! dictionary** that every rank receives, and cluster with ρ-approximate
//! neighbour counting on the dictionary. The price is approximation: with
//! ρ < 1 some neighbour sets are under/over-counted, so cluster counts
//! can deviate from exact DBSCAN (the behaviour the μDBSCAN paper points
//! out for approximate competitors). Our port keeps that character:
//!
//! * cells of side ε/√d; per-rank sub-dictionaries (count + centroid per
//!   cell) are allgathered into the global dictionary;
//! * a point's approximate neighbour count sums (a) exact distances to
//!   points in its own rank's shard, unavailable cross-rank, replaced by
//!   (b) whole-cell counts for dictionary cells entirely inside the ε-
//!   ball, and (c) cells partially overlapping the ball counted when
//!   their centroid is within ρ·ε;
//! * core cells (holding ≥1 approximate core point) are unioned when
//!   their centroids are within ε; points label by their cell.
//!
//! The output is intentionally **approximate** — tests assert structural
//! sanity (blobs found, deviation bounded), not exactness.

use cluster_sim::Bsp;
use geom::{dist_sq, Dataset, DbscanParams, Mbr, PointId};
use metrics::{Counters, PhaseTimer};
use mudbscan::{Clustering, NOISE};
use rtree::{RTree, RTreeConfig};
use unionfind::UnionFind;

/// The ρ-approximate random-partitioning algorithm.
#[derive(Debug, Clone)]
pub struct RpDbscan {
    params: DbscanParams,
    ranks: usize,
}

/// The approximation parameter ρ ∈ (0, 1]; RP-DBSCAN's authors suggest
/// 0.99, which the μDBSCAN comparison uses too.
const RHO: f64 = 0.99;

/// Output of an RP-DBSCAN run.
#[derive(Debug)]
pub struct RpOutput {
    /// The (approximate) clustering.
    pub clustering: Clustering,
    /// Virtual-time phase split-up.
    pub phases: PhaseTimer,
    /// Bytes communicated (dictionary allgather).
    pub comm_bytes: u64,
    /// Aggregated counters.
    pub counters: Counters,
}

#[derive(Clone)]
struct CellStat {
    key: Vec<i32>,
    count: u32,
    centroid: Vec<f64>,
}

struct RpRank {
    ids: Vec<PointId>,
    data: Dataset,
    dict: Vec<CellStat>,
    core: Vec<bool>,
    cell_of: Vec<usize>, // index into the *global* dictionary, filled later
}

impl RpDbscan {
    /// New instance with ρ = 0.99 over `ranks` simulated ranks.
    pub fn new(params: DbscanParams, ranks: usize) -> Self {
        Self { params, ranks }
    }

    /// Run on `data`.
    pub fn run(&self, data: &Dataset) -> RpOutput {
        let dim = data.dim();
        let eps = self.params.eps;
        let side = eps / (dim as f64).sqrt();
        let p = self.ranks;

        // Random (hash-based, seeded) partitioning — RP-DBSCAN's "free"
        // distribution step.
        let mut per_rank_ids: Vec<Vec<PointId>> = vec![Vec::new(); p];
        for id in data.ids() {
            let h = (id as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 33;
            per_rank_ids[(h % p as u64) as usize].push(id);
        }
        let states: Vec<RpRank> = per_rank_ids
            .into_iter()
            .map(|ids| RpRank {
                data: data.gather(&ids),
                ids,
                dict: Vec::new(),
                core: Vec::new(),
                cell_of: Vec::new(),
            })
            .collect();
        let mut bsp = Bsp::new(states);

        // Phase 1: per-rank sub-dictionaries.
        bsp.phase("cell_dictionary");
        bsp.run(|_r, s: &mut RpRank| {
            let dim = s.data.dim();
            let mut map: std::collections::HashMap<Vec<i32>, (u32, Vec<f64>)> =
                std::collections::HashMap::new();
            for (_, coords) in s.data.iter() {
                let key: Vec<i32> = coords.iter().map(|&x| (x / side).floor() as i32).collect();
                let e = map.entry(key).or_insert_with(|| (0, vec![0.0; dim]));
                e.0 += 1;
                for (a, b) in e.1.iter_mut().zip(coords) {
                    *a += b;
                }
            }
            s.dict = map
                .into_iter()
                .map(|(key, (count, sum))| CellStat {
                    key,
                    count,
                    centroid: sum.iter().map(|x| x / count as f64).collect(),
                })
                .collect();
            s.dict.sort_by(|a, b| a.key.cmp(&b.key));
        });

        // Allgather the dictionary (count + centroid per cell).
        let gathered = bsp.allgather(|_r, s: &mut RpRank| {
            s.dict
                .iter()
                .flat_map(|c| {
                    let mut v: Vec<f64> = c.key.iter().map(|&k| k as f64).collect();
                    v.push(c.count as f64);
                    v.extend_from_slice(&c.centroid);
                    v
                })
                .collect::<Vec<f64>>()
        });
        // Merge into the global dictionary (orchestrator — every rank
        // would hold an identical copy).
        let rec = 2 * dim + 1;
        let mut global: std::collections::HashMap<Vec<i32>, (u32, Vec<f64>)> =
            std::collections::HashMap::new();
        for flat in &gathered {
            for chunk in flat.chunks_exact(rec) {
                let key: Vec<i32> = chunk[..dim].iter().map(|&x| x as i32).collect();
                let count = chunk[dim] as u32;
                let centroid = &chunk[dim + 1..];
                let e = global.entry(key).or_insert_with(|| (0, vec![0.0; dim]));
                for (a, b) in e.1.iter_mut().zip(centroid) {
                    *a += b * count as f64;
                }
                e.0 += count;
            }
        }
        let mut dict: Vec<CellStat> = global
            .into_iter()
            .map(|(key, (count, wsum))| CellStat {
                key,
                count,
                centroid: wsum.iter().map(|x| x / count as f64).collect(),
            })
            .collect();
        dict.sort_by(|a, b| a.key.cmp(&b.key));

        // Spatial index over cell centroids for range lookups.
        let cell_tree = RTree::bulk_load_points(
            dim,
            RTreeConfig::default(),
            dict.iter().enumerate().map(|(i, c)| (i as u32, c.centroid.clone())),
        );
        let cell_box = |c: &CellStat| -> Mbr {
            let lo: Vec<f64> = c.key.iter().map(|&k| k as f64 * side).collect();
            let hi: Vec<f64> = lo.iter().map(|x| x + side).collect();
            Mbr::new(lo, hi)
        };
        let cell_diag = side * (dim as f64).sqrt();

        // Phase 2: ρ-approximate core marking per rank.
        bsp.phase("core_marking");
        let rho_eps_sq = (RHO * eps) * (RHO * eps);
        let eps_sq = eps * eps;
        {
            let dict = &dict;
            let cell_tree = &cell_tree;
            bsp.run(move |_r, s: &mut RpRank| {
                s.core = vec![false; s.ids.len()];
                s.cell_of = vec![usize::MAX; s.ids.len()];
                for (i, coords) in s.data.iter() {
                    // Locate own cell.
                    let key: Vec<i32> = coords.iter().map(|&x| (x / side).floor() as i32).collect();
                    let ci = dict.binary_search_by(|c| c.key.cmp(&key)).expect("own cell");
                    s.cell_of[i as usize] = ci;
                    // Candidate cells: centroid within eps + diag.
                    let mut approx = 0u64;
                    cell_tree.search_sphere(coords, eps + cell_diag, |cid| {
                        let c = &dict[cid as usize];
                        let b = cell_box(c);
                        // Fully-inside cells count wholly; partial cells
                        // count when their centroid is within rho*eps.
                        let far = dist_sq(coords, b.lo()).max(dist_sq(coords, b.hi()));
                        if far < eps_sq || dist_sq(coords, &c.centroid) < rho_eps_sq {
                            approx += c.count as u64;
                        }
                    });
                    if approx >= self.params.min_pts as u64 {
                        s.core[i as usize] = true;
                    }
                }
            });
        }

        // Gather per-cell core flags.
        let core_cells_per_rank = bsp.allgather(|_r, s: &mut RpRank| {
            let mut v: Vec<u32> = s
                .cell_of
                .iter()
                .zip(&s.core)
                .filter(|(_, &c)| c)
                .map(|(&ci, _)| ci as u32)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        });
        let mut cell_is_core = vec![false; dict.len()];
        for v in &core_cells_per_rank {
            for &ci in v {
                cell_is_core[ci as usize] = true;
            }
        }

        // Phase 3: cell-graph clustering — union core cells with
        // centroids within ε.
        bsp.phase("cell_graph_merge");
        let mut cell_uf = UnionFind::new(dict.len());
        let counters = Counters::new();
        for (ci, c) in dict.iter().enumerate() {
            if !cell_is_core[ci] {
                continue;
            }
            cell_tree.search_sphere(&c.centroid, eps, |other| {
                if cell_is_core[other as usize] && other as usize != ci {
                    cell_uf.union(ci as u32, other);
                    counters.count_union();
                }
            });
        }

        // Labels: core-cell points get their cell's cluster; points in
        // non-core cells attach to the nearest core cell centroid within
        // ε, else noise.
        let mut cluster_of_root: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        let mut next = 0u32;
        let mut labels = vec![NOISE; data.len()];
        let mut is_core_global = vec![false; data.len()];
        for s in bsp.states() {
            for (i, &gid) in s.ids.iter().enumerate() {
                let ci = s.cell_of[i];
                is_core_global[gid as usize] = s.core[i];
                let target_cell = if cell_is_core[ci] {
                    Some(ci)
                } else {
                    // Nearest core cell centroid strictly within eps.
                    let coords = s.data.point(i as u32);
                    let mut best: Option<(f64, usize)> = None;
                    cell_tree.search_sphere(coords, eps, |other| {
                        if cell_is_core[other as usize] {
                            let d = dist_sq(coords, &dict[other as usize].centroid);
                            if best.is_none_or(|(bd, _)| d < bd) {
                                best = Some((d, other as usize));
                            }
                        }
                    });
                    best.map(|(_, c)| c)
                };
                if let Some(tc) = target_cell {
                    let root = cell_uf.find(tc as u32);
                    let label = *cluster_of_root.entry(root).or_insert_with(|| {
                        let l = next;
                        next += 1;
                        l
                    });
                    labels[gid as usize] = label;
                }
            }
        }

        let clustering = Clustering { labels, is_core: is_core_global, n_clusters: next as usize };
        RpOutput {
            clustering,
            phases: bsp.phase_times().clone(),
            comm_bytes: bsp.comm_bytes(),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::naive_dbscan;

    fn blob_data() -> Dataset {
        let mut rows = Vec::new();
        let mut s = 13u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(29);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (20.0, 20.0)] {
            for _ in 0..80 {
                rows.push(vec![cx + 1.0 * r(), cy + 1.0 * r()]);
            }
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn finds_well_separated_blobs() {
        let data = blob_data();
        let params = DbscanParams::new(0.8, 5);
        let out = RpDbscan::new(params, 4).run(&data);
        // Approximate, but two far-apart dense blobs must not be merged
        // and must both be found.
        assert_eq!(out.clustering.n_clusters, 2, "blobs misdetected");
        // Points of one blob share a label.
        let l0 = out.clustering.labels[0];
        assert!(out.clustering.labels[..80].iter().filter(|&&l| l == l0).count() >= 80 * 9 / 10);
    }

    #[test]
    fn deviation_from_exact_is_bounded() {
        let data = blob_data();
        let params = DbscanParams::new(0.8, 5);
        let exact = naive_dbscan(&data, &params);
        let approx = RpDbscan::new(params, 4).run(&data);
        let diff = (approx.clustering.core_count() as i64 - exact.core_count() as i64).abs();
        assert!(
            (diff as f64) < 0.25 * data.len() as f64,
            "approximate core count wildly off: {diff}"
        );
    }

    #[test]
    fn deterministic_across_rank_counts_structure() {
        let data = blob_data();
        let params = DbscanParams::new(0.8, 5);
        let a = RpDbscan::new(params, 2).run(&data);
        let b = RpDbscan::new(params, 8).run(&data);
        // The dictionary is global, so the cell graph (and cluster count)
        // must not depend on the partitioning.
        assert_eq!(a.clustering.n_clusters, b.clustering.n_clusters);
        assert!(a.comm_bytes > 0 && b.comm_bytes > 0);
    }
}
