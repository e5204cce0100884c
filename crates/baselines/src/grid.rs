//! GridDBSCAN — grid-based exact DBSCAN (Kumari et al., ICDCN'17).
//!
//! Space is cut into cells of side ε/√d so the cell diagonal is ε. Two
//! consequences drive the algorithm:
//!
//! * a cell whose **tight point bounding box** has diagonal strictly less
//!   than ε and which holds `>= MinPts` points is *dense*: all its points
//!   are mutually ε-neighbours, hence all core — no query needed (this is
//!   the source of GridDBSCAN's ~15 % query savings; the strict-diagonal
//!   check keeps the shortcut exact under the strict `< ε` neighbourhood
//!   definition);
//! * the ε-ball of any point only reaches cells within ⌈√d⌉ cells per
//!   axis, so queries scan a fixed **neighbour-cell list**.
//!
//! The per-cell neighbour-cell lists are materialised exactly as in the
//! original implementation — their count grows as ~(2⌈√d⌉+1)^d, which is
//! what makes GridDBSCAN exhaust memory at high dimension (paper Tables
//! II & IV). We surface that as a deterministic [`GridError::Memory`]
//! instead of thrashing the host.

use crate::BaselineOutput;
use geom::{dist_sq, within_sq, Dataset, DbscanParams, Mbr, PointId};
use metrics::mem::{MemBudget, MemoryLimitExceeded};
use metrics::{Counters, PhaseTimer};
use mudbscan::Clustering;
use std::collections::HashMap;
use unionfind::UnionFind;

/// Why a GridDBSCAN run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// The neighbour-cell structure would exceed the memory budget — the
    /// paper's "Mem Err" outcome.
    Memory(MemoryLimitExceeded),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Memory(e) => write!(f, "GridDBSCAN: {e}"),
        }
    }
}

impl std::error::Error for GridError {}

/// One grid cell.
#[derive(Debug)]
struct Cell {
    points: Vec<PointId>,
    mbr: Mbr,
}

/// Grid-based exact DBSCAN.
#[derive(Debug, Clone)]
pub struct GridDbscan {
    params: DbscanParams,
    /// Budget for the grid + neighbour-list structures (default 4 GB,
    /// mirroring a 32 GB node with data and working set accounted).
    pub budget: MemBudget,
}

impl GridDbscan {
    /// New instance with the default 4 GB structure budget.
    pub fn new(params: DbscanParams) -> Self {
        Self { params, budget: MemBudget::new(4 << 30) }
    }

    /// Override the memory budget.
    pub fn with_budget(mut self, budget: MemBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Run on `data`; `Err` reproduces the paper's high-dimension memory
    /// failures.
    pub fn run(&self, data: &Dataset) -> Result<BaselineOutput, GridError> {
        let d = data.dim();
        let eps = self.params.eps;
        let min_pts = self.params.min_pts;
        let eps_sq = self.params.eps_sq();
        let side = eps / (d as f64).sqrt();

        let counters = Counters::new();
        let mut phases = PhaseTimer::new();
        let _run = obs::span!("griddbscan");

        // Phase 1: bucket points into cells.
        let ph1 = phases.phase("grid_construction");
        let mut index: HashMap<Box<[i32]>, u32> = HashMap::new();
        let mut cells: Vec<Cell> = Vec::new();
        let mut cell_of: Vec<u32> = Vec::with_capacity(data.len());
        let mut key_buf: Vec<i32> = vec![0; d];
        for (p, coords) in data.iter() {
            for (k, &x) in coords.iter().enumerate() {
                key_buf[k] = (x / side).floor() as i32;
            }
            let idx = match index.get(key_buf.as_slice()) {
                Some(&i) => {
                    let c = &mut cells[i as usize];
                    c.points.push(p);
                    c.mbr.merge_point(coords);
                    i
                }
                None => {
                    let i = cells.len() as u32;
                    index.insert(key_buf.clone().into_boxed_slice(), i);
                    cells.push(Cell { points: vec![p], mbr: Mbr::point(coords) });
                    i
                }
            };
            cell_of.push(idx);
        }

        // Neighbour offsets: all integer offsets whose minimal cell-to-cell
        // distance is < ε, i.e. Σ max(0,|o_i|-1)² < d (in side² units).
        // Hard-capped: enumerating beyond a few million offsets is already
        // hopeless (the per-cell neighbour lists would dwarf any budget),
        // so fail fast instead of burning minutes and gigabytes first.
        let max_offsets =
            (self.budget.limit() / (std::mem::size_of::<i32>() * d).max(1)).min(MAX_OFFSETS);
        let offsets = generate_offsets(d, max_offsets).map_err(|needed| {
            GridError::Memory(MemoryLimitExceeded {
                needed: needed
                    .saturating_mul(std::mem::size_of::<i32>() * d)
                    .max(self.budget.limit() + 1),
                limit: self.budget.limit(),
            })
        })?;

        // Materialise per-cell neighbour-cell lists (the memory hog).
        let mut nbr_cells: Vec<Vec<u32>> = Vec::with_capacity(cells.len());
        let mut bytes = offsets.len() * d * std::mem::size_of::<i32>()
            + cells
                .iter()
                .map(|c| 48 + c.points.capacity() * 4 + c.mbr.heap_bytes())
                .sum::<usize>();
        for (key, &ci) in &index {
            let mut list = Vec::new();
            for off in &offsets {
                for (k, o) in off.iter().enumerate() {
                    key_buf[k] = key[k] + o;
                }
                if let Some(&nc) = index.get(key_buf.as_slice()) {
                    list.push(nc);
                }
            }
            bytes += list.capacity() * 4 + 24;
            if let Err(e) = self.budget.check(bytes) {
                return Err(GridError::Memory(e));
            }
            // nbr_cells is indexed by cell id; fill placeholders lazily.
            if nbr_cells.len() <= ci as usize {
                nbr_cells.resize_with(ci as usize + 1, Vec::new);
            }
            nbr_cells[ci as usize] = list;
        }
        if nbr_cells.len() < cells.len() {
            nbr_cells.resize_with(cells.len(), Vec::new);
        }
        drop(ph1);
        let mut peak = bytes;
        let ph2 = phases.phase("cell_classification");

        // Phase 2: dense cells (>= MinPts points AND tight-MBR diagonal
        // strictly < ε) are all-core.
        let n = data.len();
        let mut uf = UnionFind::new(n);
        let mut is_core = vec![false; n];
        let mut assigned = vec![false; n];
        let mut cell_dense = vec![false; cells.len()];
        for (ci, cell) in cells.iter().enumerate() {
            if cell.points.len() < min_pts {
                continue;
            }
            let diag_sq = dist_sq(cell.mbr.lo(), cell.mbr.hi());
            if diag_sq < eps_sq {
                cell_dense[ci] = true;
                let first = cell.points[0];
                for &p in &cell.points {
                    is_core[p as usize] = true;
                    assigned[p as usize] = true;
                    uf.union(first, p);
                    counters.count_union();
                    counters.count_query_saved();
                }
            }
        }
        drop(ph2);
        let ph3 = phases.phase("clustering");

        // Phase 3: queries for all points in non-dense cells, restricted to
        // neighbour cells.
        let mut pending: Vec<(PointId, Vec<PointId>)> = Vec::new();
        let mut nbhrs: Vec<PointId> = Vec::new();
        for (p, coords) in data.iter() {
            let ci = cell_of[p as usize];
            if cell_dense[ci as usize] {
                continue; // proven core, query saved
            }
            nbhrs.clear();
            counters.count_range_query();
            for &nc in &nbr_cells[ci as usize] {
                let cell = &cells[nc as usize];
                counters.count_dists(cell.points.len() as u64);
                for &q in &cell.points {
                    if within_sq(coords, data.point(q), eps_sq) {
                        nbhrs.push(q);
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
        peak = peak.max(
            bytes
                + uf.heap_bytes()
                + pending.iter().map(|(_, v)| 16 + v.capacity() * 4).sum::<usize>(),
        );

        let ph4 = phases.phase("post_processing");
        // Phase 4a: stitch dense cells — both endpoints skipped their
        // queries, so cross-cell core links must be established here. One
        // link suffices per cell pair (each dense cell is one cluster).
        for (ci, cell) in cells.iter().enumerate() {
            if !cell_dense[ci] {
                continue;
            }
            for &nc in &nbr_cells[ci] {
                if (nc as usize) <= ci || !cell_dense[nc as usize] {
                    continue;
                }
                let other = &cells[nc as usize];
                if uf.same(cell.points[0], other.points[0]) {
                    continue;
                }
                'pairs: for &p in &cell.points {
                    for &q in &other.points {
                        counters.count_dists(1);
                        if dist_sq(data.point(p), data.point(q)) < eps_sq {
                            uf.union(p, q);
                            counters.count_union();
                            break 'pairs;
                        }
                    }
                }
            }
        }

        // Phase 4b: border rescue from stored neighbourhoods.
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

        let clustering = Clustering::from_union_find(&mut uf, is_core);
        Ok(BaselineOutput { clustering, counters, phases, peak_heap_bytes: peak })
    }
}

/// Absolute ceiling on enumerated neighbour offsets, regardless of
/// budget: past this the structure cannot be practical at any size.
const MAX_OFFSETS: usize = 2_000_000;

/// Generate all offsets `o ∈ Z^d` with `Σ max(0, |o_i|-1)² < d`; `Err`
/// with the (at-least) count when more than `cap` offsets would be
/// generated.
fn generate_offsets(d: usize, cap: usize) -> Result<Vec<Vec<i32>>, usize> {
    // Cheap lower bound before enumerating anything: every offset with
    // all |o_i| <= 1 qualifies (zero contribution), so at least 3^d
    // offsets exist. When that alone exceeds the cap, fail instantly.
    let lower_bound = 3f64.powi(d as i32);
    if lower_bound > cap as f64 {
        return Err(lower_bound as usize);
    }
    let mut out = Vec::new();
    let mut cur = vec![0i32; d];
    let dmax = d as i64;
    fn rec(
        k: usize,
        d: usize,
        budget_sq: i64,
        cur: &mut Vec<i32>,
        out: &mut Vec<Vec<i32>>,
        cap: usize,
    ) -> Result<(), usize> {
        if k == d {
            out.push(cur.clone());
            if out.len() > cap {
                return Err(out.len());
            }
            return Ok(());
        }
        let reach = (budget_sq as f64).sqrt() as i64 + 1;
        for o in -(reach as i32)..=(reach as i32) {
            let contrib = {
                let a = (o.unsigned_abs() as i64 - 1).max(0);
                a * a
            };
            if contrib < budget_sq {
                cur[k] = o;
                rec(k + 1, d, budget_sq - contrib, cur, out, cap)?;
            }
        }
        Ok(())
    }
    rec(0, d, dmax, &mut cur, &mut out, cap).map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::{check_exact, naive_dbscan};

    fn blob_data(dim: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut s = 5u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for c in [-3.0, 3.0] {
            for _ in 0..45 {
                rows.push((0..dim).map(|_| c + 0.8 * r()).collect());
            }
        }
        for _ in 0..10 {
            rows.push((0..dim).map(|_| 6.0 * r()).collect());
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn exact_vs_naive_2d() {
        let data = blob_data(2);
        for (eps, min_pts) in [(0.6, 4), (1.0, 6), (0.35, 3)] {
            let params = DbscanParams::new(eps, min_pts);
            let out = GridDbscan::new(params).run(&data).unwrap();
            let reference = naive_dbscan(&data, &params);
            let rep = check_exact(&out.clustering, &reference, &data, &params);
            assert!(rep.is_exact(), "eps={eps} min_pts={min_pts}: {rep:?}");
        }
    }

    #[test]
    fn exact_vs_naive_3d() {
        let data = blob_data(3);
        let params = DbscanParams::new(0.9, 5);
        let out = GridDbscan::new(params).run(&data).unwrap();
        let reference = naive_dbscan(&data, &params);
        assert!(check_exact(&out.clustering, &reference, &data, &params).is_exact());
    }

    #[test]
    fn saves_queries_on_dense_cells() {
        // A very tight blob: its cell is dense, all points skip queries.
        let mut rows = vec![];
        for i in 0..30 {
            rows.push(vec![0.001 * i as f64, 0.0]);
        }
        let data = Dataset::from_rows(&rows);
        let out = GridDbscan::new(DbscanParams::new(1.0, 5)).run(&data).unwrap();
        assert!(out.counters.queries_saved() > 0);
        assert_eq!(out.clustering.n_clusters, 1);
    }

    #[test]
    fn high_dimension_hits_memory_error() {
        // d = 14 mirrors KDDB145K14D where the paper reports Mem Err.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.1; 14]).collect();
        let data = Dataset::from_rows(&rows);
        let alg = GridDbscan::new(DbscanParams::new(1.0, 5)).with_budget(MemBudget::new(10 << 20)); // 10 MB
        match alg.run(&data) {
            Err(GridError::Memory(e)) => {
                assert!(e.needed > e.limit);
            }
            Ok(_) => panic!("expected a memory error at d=14 with a small budget"),
        }
    }

    #[test]
    fn offsets_small_dims() {
        // d=1: offsets with max(0,|o|-1)^2 < 1 -> o in {-1, 0, 1}.
        let o1 = generate_offsets(1, 1000).unwrap();
        assert_eq!(o1.len(), 3);
        // d=2: |o_i| <= 2 with sum constraint; must include (0,0), (2,0)
        // but exclude (2,2) (contrib 1+1=2 == d fails strict <? (1)+(1)=2,
        // budget 2 -> 1 < 2 ok then 1 < 1 fails -> excluded).
        let o2 = generate_offsets(2, 1000).unwrap();
        assert!(o2.contains(&vec![0, 0]));
        assert!(o2.contains(&vec![2, 0]));
        assert!(!o2.contains(&vec![2, 2]));
    }

    #[test]
    fn offsets_cap_errors() {
        assert!(generate_offsets(10, 100).is_err());
        // d = 14 must fail fast via the 3^d lower bound even with a huge
        // cap (this is the regression guard for the runaway enumeration).
        let t = std::time::Instant::now();
        assert!(generate_offsets(14, MAX_OFFSETS).is_err());
        assert!(t.elapsed().as_millis() < 100, "offset bail-out must be instant");
    }

    #[test]
    fn offsets_match_brute_force_enumeration() {
        for d in [2usize, 3, 4] {
            let got: std::collections::HashSet<Vec<i32>> =
                generate_offsets(d, 10_000_000).unwrap().into_iter().collect();
            // Brute force over a box comfortably containing every
            // qualifying offset.
            let k = (d as f64).sqrt() as i32 + 2;
            let mut want = std::collections::HashSet::new();
            let mut cur = vec![-k; d];
            loop {
                let s: i64 = cur
                    .iter()
                    .map(|&o| {
                        let a = (o.abs() as i64 - 1).max(0);
                        a * a
                    })
                    .sum();
                if s < d as i64 {
                    want.insert(cur.clone());
                }
                // Odometer increment.
                let mut i = 0;
                loop {
                    if i == d {
                        break;
                    }
                    cur[i] += 1;
                    if cur[i] <= k {
                        break;
                    }
                    cur[i] = -k;
                    i += 1;
                }
                if i == d {
                    break;
                }
            }
            assert_eq!(got, want, "d={d}");
        }
    }

    #[test]
    fn strict_diagonal_guard() {
        // Two points exactly ε apart in one cell-shaped blob must NOT be
        // declared mutual neighbours by the dense-cell shortcut.
        let data = Dataset::from_rows(&[vec![0.0, 0.0], vec![0.7, 0.0], vec![0.35, 0.0]]);
        let params = DbscanParams::new(0.7, 3);
        let out = GridDbscan::new(params).run(&data).unwrap();
        let reference = naive_dbscan(&data, &params);
        assert!(check_exact(&out.clustering, &reference, &data, &params).is_exact());
    }
}
