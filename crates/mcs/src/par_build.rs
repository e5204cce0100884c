//! Parallel, deterministic micro-cluster construction.
//!
//! The sequential builder ([`crate::build_micro_clusters`]) is inherently
//! ordered — every point's placement depends on the MCs created so far —
//! which left Step 1 the last sequential phase of [`ParMuDbscan`]-style
//! runs and, by Amdahl, the bottleneck of the `tree_construction` rows in
//! the bench trajectory. This module replaces it with a tiled pipeline:
//!
//! 1. **Tile** the space into disjoint axis-aligned cells keyed purely on
//!    geometry (`floor((x_d − lo_d) / side)` per dimension). Keying runs
//!    on worker threads — each keys a contiguous id chunk into a local
//!    map, and merging the worker maps in chunk order concatenates each
//!    tile's ascending id runs in order, so the grouped result is
//!    bit-identical to a sequential scan. The side is
//!    `2ε · 2^k` with the smallest `k` such that the number of *occupied*
//!    tiles drops to `max(16, n/64)` — at the minimum side of 2ε every
//!    Algorithm-3 membership/deferral test (strict `< 2ε`) is confined to
//!    the tile itself, and growing the side only shrinks the boundary
//!    surface, so correctness never depends on `k`. Coarsening matters
//!    because with near-empty tiles virtually all placement work would
//!    shift into the sequential reconciliation stage. The search runs on
//!    the key *set* (`floor(key / 2^k)`), not the coordinates, so the
//!    points are keyed exactly once. Afterwards, any tile holding more
//!    than `max(256, n/8)` points is split back into its 2^dim children
//!    (halving the side, never below 2ε) so one dense cell cannot
//!    serialise the scan stage; every final tile records its own side for
//!    the interior test below. The cap is deliberately loose — splitting
//!    shrinks cells and therefore grows the boundary surface the
//!    sequential reconciliation pass must process, so it only fires for
//!    tiles big enough to dominate a worker on their own.
//! 2. **Scan per tile** on worker threads: the Algorithm-3 greedy scan
//!    (ε-join, 2ε-defer, else new center) restricted to the tile's points
//!    in ascending id order against a tile-local center tree. Tiles are
//!    assigned statically (LPT on point counts) so the outcome depends
//!    only on the tile's contents — never on scheduling — and each
//!    worker's busy time reflects a real 1/threads share of the work even
//!    when the host has fewer cores than workers (a greedy stealing queue
//!    would let the first-scheduled worker drain everything on such
//!    hosts).
//! 3. **Reconcile** boundary conflicts. A candidate whose center lies
//!    ≥ ε from every face of its tile is *interior*: no other candidate —
//!    same tile (per-tile scan keeps centers ≥ ε apart) or other tile
//!    (anything beyond the face is ≥ ε away) — can conflict with it, so
//!    it is kept without any query. Conflicts are therefore confined to
//!    the *boundary* candidates, which turns conflict detection into a
//!    neighbourhood query among boundary centers: a static tree over
//!    them is probed **in parallel** (each boundary candidate collects
//!    its ε-neighbours, read-only), and the sequential resolve is then a
//!    pure greedy graph walk in ascending center id — a candidate
//!    dissolves iff an earlier candidate that itself survived lies
//!    strictly within ε (identical to querying previously kept centers,
//!    but with zero tree operations on the critical path). The dissolved
//!    ones' members become *orphans*, re-scanned in ascending id order:
//!    each first tries the *victor* — the earliest kept center that
//!    dissolved its MC, usually within ε since the two centers were (one
//!    distance computation) — and only on a miss falls back to the full
//!    kept-center tree (join within ε, 2ε-defer, else found a new
//!    center). The orphan probes run in parallel too; only the apply
//!    pass (which may create new centers) stays sequential.
//! 4. **Canonicalise and bulk-load**: sort MCs by center id, index the
//!    final centers in level 1 ([`crate::level1::Level1::from_centers`]),
//!    then build every per-MC aux tree on worker threads
//!    (stride-assigned again; they are embarrassingly independent).
//!
//! The resulting partition need not equal the sequential one bit-for-bit
//! — exactness of DBSCAN on top only needs a valid ε-ball cover with
//! exclusive membership — but it satisfies the same invariants (each
//! member strictly within ε of its center, centers pairwise ≥ ε apart,
//! all duplicates share one MC) and is bit-identical across thread
//! counts. Query-cost counters are accumulated per tile and absorbed in
//! tile order, so counter snapshots are thread-count-independent too.
//!
//! Because worker wall-clock cannot shrink on machines with fewer cores
//! than workers, each parallel stage also measures per-worker *busy* time
//! ([`metrics::BusyTimer`]) and reports the stage's critical path (max
//! over workers) — the same convention the distributed simulator uses for
//! per-rank phase maxima. [`ParBuildStats::makespan_secs`] strings the
//! critical paths together with the sequential stages' wall times.
//!
//! [`ParMuDbscan`]: ../mudbscan/struct.ParMuDbscan.html

use crate::build::BuildOptions;
use crate::level1::{Level1, GRID_MAX_DIM};
use crate::micro::{McId, MicroCluster, NO_MC};
use crate::murtree::MuRTree;
use geom::{Dataset, PointId};
use metrics::{BusyTimer, Counters, Stopwatch};
use rtree::{RTree, RTreeConfig};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Diagnostics from one parallel construction run.
#[derive(Debug, Clone, Default)]
pub struct ParBuildStats {
    /// Number of non-empty tiles (after coarsening).
    pub tiles: usize,
    /// Coarsened tile side `2ε · 2^k` (before any adaptive splits of
    /// over-full tiles, which halve the side per split).
    pub tile_side: f64,
    /// Points in the largest tile (the scan stage's balance limit).
    pub largest_tile: usize,
    /// Candidate centers that required a conflict check (center within ε
    /// of a face of their tile); the rest were kept via the interior
    /// fast-path without any query.
    pub boundary_candidates: usize,
    /// Candidate centers dissolved during boundary reconciliation.
    pub boundary_conflicts: usize,
    /// Member points re-scanned because their candidate MC dissolved.
    pub orphans: usize,
    /// Per-worker busy seconds of the point-keying sub-stage of tiling.
    pub keying_busy: Vec<f64>,
    /// Per-worker busy seconds of the tile-scan stage.
    pub tile_scan_busy: Vec<f64>,
    /// Per-worker busy seconds of the boundary conflict-probe stage.
    pub conflict_busy: Vec<f64>,
    /// Per-worker busy seconds of the read-only orphan probe stage.
    pub orphan_busy: Vec<f64>,
    /// Per-worker busy seconds of the aux bulk-load stage.
    pub aux_busy: Vec<f64>,
    /// Critical-path seconds: sequential stage walls plus the per-worker
    /// busy maximum of each parallel stage.
    pub makespan_secs: f64,
}

/// What the parallel conflict probe learned about one boundary
/// candidate: its ε-neighbours among the *other* boundary candidates
/// (ascending boundary index) and what the lookup cost. The sequential
/// resolve walks these lists greedily — no tree is touched there.
struct ConflictProbe {
    neighbors: Vec<u32>,
    dists: u64,
    visits: u64,
}

/// What the read-only probe (stage 3b) learned about one orphan: did the
/// victor center take it, did the static kept tree have an ε (or 2ε)
/// neighbour, and what the lookups cost. Replayed sequentially in orphan
/// order by the apply pass.
struct OrphanProbe {
    victor_hit: bool,
    eps_hit: Option<McId>,
    two_eps_hit: bool,
    dists: u64,
    visits: u64,
}

/// Build all micro-clusters and the μR-tree for `data` using `threads`
/// worker threads. Deterministic: for a fixed dataset and options the
/// output (and the counter totals) are identical for every `threads`.
pub fn build_micro_clusters_par(
    data: &Dataset,
    eps: f64,
    opts: &BuildOptions,
    threads: usize,
    counters: &Counters,
) -> (MuRTree, ParBuildStats) {
    assert!(threads >= 1);
    let _span = obs::span!("mc_build_par");
    let dim = data.dim();
    let mut stats = ParBuildStats::default();
    let mut sw = Stopwatch::start();

    let Some((lo, _hi)) = data.bounding_box() else {
        // Empty dataset: empty tree, nothing to do.
        let level1 = Level1::for_dim(dim, eps);
        return (MuRTree::from_parts(eps, level1, Vec::new(), Vec::new()), stats);
    };

    // Stage 1 (parallel keying, sequential merge + coarsen): geometric
    // tiling. Each worker keys a contiguous id chunk into a local map;
    // merging the worker maps in chunk order concatenates each tile's
    // ascending id runs in order, so the grouped result is identical to
    // a sequential id-order scan. BTreeMap keys give a deterministic
    // (lexicographic cell-coordinate) tile order for free. The
    // coarsening factor depends only on the dataset geometry and n —
    // never on the thread count — so the tile set (and everything
    // downstream) stays thread-count-independent.
    let tiling = obs::span!("tiling");
    let base_side = 2.0 * eps;
    type TileMap = BTreeMap<Vec<i64>, Vec<PointId>>;
    let chunk = data.len().div_ceil(threads).max(1);
    let worker_maps: Vec<Mutex<Option<TileMap>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    {
        let lo = &lo;
        let worker_maps = &worker_maps;
        stats.keying_busy = run_workers(threads, &|worker| {
            let ids = (worker * chunk).min(data.len())..((worker + 1) * chunk).min(data.len());
            let mut local = TileMap::new();
            let mut key = vec![0i64; dim];
            for p in ids {
                let coords = data.point(p as PointId);
                for (k, (&x, &l)) in key.iter_mut().zip(coords.iter().zip(lo)) {
                    *k = ((x - l) / base_side).floor() as i64;
                }
                local.entry(key.clone()).or_default().push(p as PointId);
            }
            *worker_maps[worker].lock().expect("poisoned") = Some(local);
        });
    }
    let keying_wall = sw.lap();
    let mut base = TileMap::new();
    for m in worker_maps {
        for (k, pts) in m.into_inner().expect("poisoned").expect("chunk keyed") {
            base.entry(k).or_default().extend(pts);
        }
    }
    // Coarsen on the key set only: floor(x / (s·2^k)) == floor(key / 2^k),
    // so doubling the side maps straight onto integer key division.
    let target_tiles = (data.len() / 64).max(16);
    let mut factor: i64 = 1;
    // 40 doublings span any representable key range; in practice the
    // occupied count hits the target (or 1) within a handful of steps.
    for _ in 0..40 {
        if base.len() <= target_tiles {
            break;
        }
        let occupied = base
            .keys()
            .map(|k| k.iter().map(|&v| v.div_euclid(factor)).collect::<Vec<i64>>())
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        if occupied <= target_tiles {
            break;
        }
        factor *= 2;
    }
    let side = base_side * factor as f64;
    let mut merged: BTreeMap<Vec<i64>, Vec<PointId>> = BTreeMap::new();
    for (k, pts) in base {
        let coarse: Vec<i64> = k.iter().map(|&v| v.div_euclid(factor)).collect();
        merged.entry(coarse).or_default().extend(pts);
    }
    // Adaptive refinement: coarsening bounds the *count* of tiles but a
    // dense region can still dump most points into one tile, which would
    // cap the scan stage's balance at that tile's cost. Split any tile
    // holding more than `cap` points back into its 2^dim children (side
    // halves, still ≥ 2ε) until it fits or reaches the base side. Each
    // final tile keeps its own (key, side) so the interior test in
    // reconciliation uses the right cell geometry.
    let cap = (data.len() / 8).max(256);
    let mut keys: Vec<Vec<i64>> = Vec::new();
    let mut sides: Vec<f64> = Vec::new();
    let mut tiles: Vec<Vec<PointId>> = Vec::new();
    let mut stack: Vec<(Vec<i64>, i64, Vec<PointId>)> =
        merged.into_iter().rev().map(|(k, pts)| (k, factor, pts)).collect();
    while let Some((k, f, mut pts)) = stack.pop() {
        if f > 1 && pts.len() > cap {
            let half = f / 2;
            let sub_side = base_side * half as f64;
            let mut sub: BTreeMap<Vec<i64>, Vec<PointId>> = BTreeMap::new();
            let mut sk = vec![0i64; dim];
            for &p in &pts {
                let coords = data.point(p);
                for (s, (&x, &l)) in sk.iter_mut().zip(coords.iter().zip(&lo)) {
                    *s = ((x - l) / sub_side).floor() as i64;
                }
                sub.entry(sk.clone()).or_default().push(p);
            }
            // Reverse push keeps the pop order lexicographic.
            for (ck, cpts) in sub.into_iter().rev() {
                stack.push((ck, half, cpts));
            }
        } else {
            pts.sort_unstable(); // base tiles concatenate out of id order
            keys.push(k);
            sides.push(base_side * f as f64);
            tiles.push(pts);
        }
    }
    stats.tiles = tiles.len();
    stats.tile_side = side;
    drop(tiling);
    let tiling_wall = sw.lap();

    // Stage 2 (parallel): Algorithm-3 scan per tile. Tiles are assigned
    // statically (LPT on point counts), results land in per-tile slots
    // and their counters are absorbed in tile order, so neither the
    // partition nor the totals depend on scheduling. The assignment may
    // vary with `threads` — it only decides *who* scans a tile, never
    // the scan's outcome.
    let scan = obs::span!("tile_scan");
    stats.largest_tile = tiles.iter().map(Vec::len).max().unwrap_or(0);
    let scan_plan = lpt_assign(threads, tiles.len(), |i| tiles[i].len());
    type TileScan = (Vec<MicroCluster>, Counters);
    let slots: Vec<Mutex<Option<TileScan>>> = tiles.iter().map(|_| Mutex::new(None)).collect();
    stats.tile_scan_busy = run_workers(threads, &|worker| {
        for &i in &scan_plan[worker] {
            let local = Counters::new();
            let mcs = scan_tile(data, eps, opts, &tiles[i], &local);
            *slots[i].lock().expect("poisoned") = Some((mcs, local));
        }
    });
    // Candidates keep their tile index so reconciliation can test
    // interior-ness against the tile's faces.
    let mut candidates: Vec<(usize, MicroCluster)> = Vec::new();
    for (ti, slot) in slots.into_iter().enumerate() {
        let (mcs, local) = slot.into_inner().expect("poisoned").expect("tile scanned");
        candidates.extend(mcs.into_iter().map(|mc| (ti, mc)));
        counters.absorb(&local);
    }
    drop(scan);
    let scan_wall = sw.lap();

    // Stage 3 (sequential prologue): classify candidates. Ascending
    // center id = "first wins", like the sequential scan order. Interior
    // candidates (center ≥ ε from every tile face) cannot conflict with
    // anything and are kept without a query; conflicts are confined to
    // the boundary candidates, and only *they* can dissolve each other —
    // so conflict detection is a neighbourhood query among boundary
    // centers, over a static STR-packed tree.
    let rec = obs::span!("reconcile");
    candidates.sort_unstable_by_key(|(_, mc)| mc.center);
    let is_interior = |ti: usize, center: &[f64]| -> bool {
        let s = sides[ti];
        keys[ti].iter().zip(center.iter().zip(&lo)).all(|(&k, (&x, &l))| {
            let cell_lo = l + k as f64 * s;
            x - cell_lo >= eps && (cell_lo + s) - x >= eps
        })
    };
    // Indices (into the sorted candidate list) of boundary candidates.
    let mut boundary: Vec<usize> = Vec::new();
    for (ci, (ti, cand)) in candidates.iter().enumerate() {
        if !is_interior(*ti, data.point(cand.center)) {
            boundary.push(ci);
        }
    }
    stats.boundary_candidates = boundary.len();
    let boundary_tree = RTree::bulk_load_points(
        dim,
        RTreeConfig::default(),
        boundary
            .iter()
            .enumerate()
            .map(|(bi, &ci)| (bi as u32, data.point(candidates[ci].1.center))),
    );
    drop(rec);
    let classify_wall = sw.lap();

    // Stage 3a (parallel): each boundary candidate collects its strict
    // ε-neighbours among the other boundary candidates — read-only probes
    // of the static tree, so parallelising cannot change anything. Costs
    // are replayed in boundary order by the resolve below.
    let conflict_span = obs::span!("conflict_probe");
    let conflict_probes: Vec<Mutex<Option<ConflictProbe>>> =
        boundary.iter().map(|_| Mutex::new(None)).collect();
    if boundary.is_empty() {
        stats.conflict_busy = vec![0.0; threads];
    } else {
        let candidates = &candidates;
        let boundary = &boundary;
        let boundary_tree = &boundary_tree;
        let conflict_probes = &conflict_probes;
        let plan = lpt_assign(threads, boundary.len(), |_| 1);
        stats.conflict_busy = run_workers(threads, &|worker| {
            for &bi in &plan[worker] {
                let c = data.point(candidates[boundary[bi]].1.center);
                let mut neighbors: Vec<u32> = Vec::new();
                let cost = boundary_tree.search_sphere(c, eps, |j| {
                    if j as usize != bi {
                        neighbors.push(j);
                    }
                });
                // Ascending order makes the greedy victor choice (and the
                // early exit on `j < bi`) deterministic.
                neighbors.sort_unstable();
                *conflict_probes[bi].lock().expect("poisoned") = Some(ConflictProbe {
                    neighbors,
                    dists: cost.mbr_tests,
                    visits: cost.nodes_visited.max(1),
                });
            }
        });
    }
    drop(conflict_span);
    let conflict_wall = sw.lap();

    // Stage 3b (sequential): greedy first-wins resolve on the conflict
    // graph — a boundary candidate dissolves iff an earlier (lower center
    // id) boundary candidate that itself survived lies strictly within ε.
    // This is exactly the outcome of querying previously kept centers in
    // order, but the critical path is a pure graph walk: zero tree
    // operations. The dissolved candidate's victor is its earliest kept
    // ε-neighbour (deterministic).
    let keep_span = obs::span!("reconcile_keep");
    let mut kept_flag = vec![true; boundary.len()];
    let mut victor_of: Vec<usize> = vec![usize::MAX; boundary.len()];
    for (bi, slot) in conflict_probes.iter().enumerate() {
        let probe = slot.lock().expect("poisoned").take().expect("boundary probed");
        counters.count_node_visits(probe.visits);
        counters.count_dists(probe.dists);
        let victor = probe
            .neighbors
            .iter()
            .map(|&j| j as usize)
            .take_while(|&j| j < bi)
            .find(|&j| kept_flag[j]);
        if let Some(v) = victor {
            kept_flag[bi] = false;
            victor_of[bi] = v;
            stats.boundary_conflicts += 1;
        }
    }
    let mut kept: Vec<MicroCluster> = Vec::new();
    // Orphans carry the kept index of the center that dissolved their MC.
    let mut orphans: Vec<(PointId, McId)> = Vec::new();
    // Kept index of each surviving boundary candidate; a dissolved one's
    // victor has a smaller boundary index, so its slot is already filled
    // when the loser needs it.
    let mut kept_id: Vec<McId> = vec![NO_MC; boundary.len()];
    let mut b = 0usize;
    for (ci, (_, cand)) in candidates.into_iter().enumerate() {
        if b < boundary.len() && boundary[b] == ci {
            let bi = b;
            b += 1;
            if kept_flag[bi] {
                kept_id[bi] = kept.len() as McId;
                kept.push(cand);
            } else {
                let victor = kept_id[victor_of[bi]];
                debug_assert_ne!(victor, NO_MC);
                orphans.extend(cand.members.iter().map(|&m| (m, victor)));
            }
        } else {
            kept.push(cand);
        }
    }
    stats.orphans = orphans.len();
    orphans.sort_unstable();
    // The orphan re-scan can join *any* kept MC (a dissolved boundary
    // MC's members may fall within ε of an interior center), so its
    // fallback runs against the full kept set, STR-packed in one go.
    let kept_tree = RTree::bulk_load_points(
        dim,
        RTreeConfig::default(),
        kept.iter().enumerate().map(|(id, mc)| (id as McId, data.point(mc.center))),
    );
    drop(keep_span);
    let keep_wall = sw.lap();

    // Stage 3b (parallel): probe every orphan against *read-only* state —
    // the victor's center first (one distance computation; the victor was
    // within ε of the orphan's old center, so most orphans land there),
    // then the static kept-center tree (ε, and 2ε for deferral). Probes
    // are pure per-orphan functions, so parallelising them cannot change
    // anything; their query costs are replayed into `counters` in orphan
    // order by the apply pass below.
    let probe_span = obs::span!("orphan_probe");
    let probes: Vec<Mutex<Option<OrphanProbe>>> =
        orphans.iter().map(|_| Mutex::new(None)).collect();
    if orphans.is_empty() {
        stats.orphan_busy = vec![0.0; threads];
    } else {
        let kept = &kept;
        let kept_tree = &kept_tree;
        let orphans = &orphans;
        let probes = &probes;
        let probe_plan = lpt_assign(threads, orphans.len(), |_| 1);
        stats.orphan_busy = run_workers(threads, &|worker| {
            for &j in &probe_plan[worker] {
                let (p, victor) = orphans[j];
                let coords = data.point(p);
                let vcenter = data.point(kept[victor as usize].center);
                let mut probe = OrphanProbe {
                    victor_hit: geom::dist_euclidean(coords, vcenter) < eps,
                    eps_hit: None,
                    two_eps_hit: false,
                    dists: 1,
                    visits: 0,
                };
                if !probe.victor_hit {
                    let (hit, cost) = kept_tree.first_in_sphere(coords, eps);
                    probe.visits += cost.nodes_visited.max(1);
                    probe.dists += cost.mbr_tests;
                    probe.eps_hit = hit;
                    if hit.is_none() && opts.two_eps_deferral {
                        let (near, cost2) = kept_tree.first_in_sphere(coords, 2.0 * eps);
                        probe.visits += cost2.nodes_visited.max(1);
                        probe.dists += cost2.mbr_tests;
                        probe.two_eps_hit = near.is_some();
                    }
                }
                *probes[j].lock().expect("poisoned") = Some(probe);
            }
        });
    }
    drop(probe_span);
    let probe_wall = sw.lap();

    // Stage 3c (sequential): apply the probes in orphan order. Only
    // orphans that missed everything consult `new_tree` — the centers
    // created during this very pass, which the static probes cannot see.
    let apply = obs::span!("reconcile_apply");
    let mut new_tree = RTree::new(dim);
    let mut deferred: Vec<PointId> = Vec::new();
    for (j, &(p, victor)) in orphans.iter().enumerate() {
        let probe = probes[j].lock().expect("poisoned").take().expect("orphan probed");
        counters.count_dists(probe.dists);
        counters.count_node_visits(probe.visits);
        let coords = data.point(p);
        let join = |kept: &mut Vec<MicroCluster>, mc: McId| {
            let center = kept[mc as usize].center;
            kept[mc as usize].insert(p, coords, data.point(center), eps);
        };
        if probe.victor_hit {
            join(&mut kept, victor);
        } else if let Some(mc) = probe.eps_hit {
            join(&mut kept, mc);
        } else {
            let new_hit = if new_tree.is_empty() {
                None
            } else {
                let (hit, cost) = new_tree.first_in_sphere(coords, eps);
                counters.count_node_visits(cost.nodes_visited.max(1));
                counters.count_dists(cost.mbr_tests);
                hit
            };
            if let Some(mc) = new_hit {
                join(&mut kept, mc);
            } else if opts.two_eps_deferral && probe.two_eps_hit {
                deferred.push(p);
            } else {
                let near_new = opts.two_eps_deferral && !new_tree.is_empty() && {
                    let (near, cost) = new_tree.first_in_sphere(coords, 2.0 * eps);
                    counters.count_node_visits(cost.nodes_visited.max(1));
                    counters.count_dists(cost.mbr_tests);
                    near.is_some()
                };
                if near_new {
                    deferred.push(p);
                } else {
                    new_tree.insert_point(kept.len() as McId, coords);
                    kept.push(MicroCluster::new(p, coords));
                }
            }
        }
    }
    for p in deferred {
        let coords = data.point(p);
        let (hit, cost) = kept_tree.first_in_sphere(coords, eps);
        counters.count_node_visits(cost.nodes_visited.max(1));
        counters.count_dists(cost.mbr_tests);
        let mut target = hit;
        if target.is_none() && !new_tree.is_empty() {
            let (hit2, cost2) = new_tree.first_in_sphere(coords, eps);
            counters.count_node_visits(cost2.nodes_visited.max(1));
            counters.count_dists(cost2.mbr_tests);
            target = hit2;
        }
        if let Some(mc) = target {
            let center = kept[mc as usize].center;
            kept[mc as usize].insert(p, coords, data.point(center), eps);
        } else {
            new_tree.insert_point(kept.len() as McId, coords);
            kept.push(MicroCluster::new(p, coords));
        }
    }

    // Canonical order: ascending center id, independent of tile layout.
    // The kept list is already sorted unless the orphan pass appended new
    // centers. When it did not, `kept_tree` already indexes exactly the
    // final MC ids, so above the grid's dimensions it becomes level 1;
    // otherwise level 1 is built over the final centers.
    let created_new = !new_tree.is_empty();
    if created_new {
        kept.sort_unstable_by_key(|mc| mc.center);
    }
    let mut assignment: Vec<McId> = vec![NO_MC; data.len()];
    for (id, mc) in kept.iter().enumerate() {
        for &m in &mc.members {
            assignment[m as usize] = id as McId;
        }
    }
    let level1 = if created_new || dim <= GRID_MAX_DIM {
        Level1::from_centers(dim, eps, kept.iter().map(|mc| data.point(mc.center)))
    } else {
        Level1::Tree(kept_tree)
    };
    drop(apply);
    let apply_wall = sw.lap();

    // Stage 4 (parallel): per-MC aux trees, LPT-assigned on member counts
    // so uneven MC sizes still balance; contention-free.
    let aux_span = obs::span!("aux_trees_par");
    let aux_plan = lpt_assign(threads, kept.len(), |i| kept[i].members.len());
    let built: Mutex<Vec<(usize, RTree)>> = Mutex::new(Vec::with_capacity(kept.len()));
    {
        let kept = &kept;
        let built = &built;
        stats.aux_busy = run_workers(threads, &|worker| {
            let mut local: Vec<(usize, RTree)> = Vec::new();
            for &i in &aux_plan[worker] {
                local.push((i, build_one_aux(data, &kept[i], opts)));
            }
            built.lock().expect("poisoned").extend(local);
        });
    }
    for (i, aux) in built.into_inner().expect("poisoned") {
        kept[i].aux = Some(aux);
    }
    drop(aux_span);
    let aux_wall = sw.lap();

    let max = |xs: &[f64]| xs.iter().cloned().fold(0.0f64, f64::max);
    let key_crit = if threads > 1 { max(&stats.keying_busy).min(keying_wall) } else { keying_wall };
    let scan_crit = if threads > 1 { max(&stats.tile_scan_busy).min(scan_wall) } else { scan_wall };
    let conflict_crit =
        if threads > 1 { max(&stats.conflict_busy).min(conflict_wall) } else { conflict_wall };
    let probe_crit = if threads > 1 { max(&stats.orphan_busy).min(probe_wall) } else { probe_wall };
    let aux_crit = if threads > 1 { max(&stats.aux_busy).min(aux_wall) } else { aux_wall };
    stats.makespan_secs = key_crit
        + tiling_wall
        + scan_crit
        + classify_wall
        + conflict_crit
        + keep_wall
        + probe_crit
        + apply_wall
        + aux_crit;

    if obs::enabled() {
        obs::record_count("mc/count", kept.len() as u64);
        obs::record_count("mc_build_par/tiles", stats.tiles as u64);
        obs::record_count("mc_build_par/largest_tile", stats.largest_tile as u64);
        obs::record_count("mc_build_par/boundary_candidates", stats.boundary_candidates as u64);
        obs::record_value("mc_build_par/tile_side", stats.tile_side);
        obs::record_count("mc_build_par/boundary_conflicts", stats.boundary_conflicts as u64);
        obs::record_count("mc_build_par/orphans", stats.orphans as u64);
        obs::record_value("mc_build_par/tiling_wall_secs", tiling_wall);
        obs::record_value("mc_build_par/reconcile_keep_wall_secs", classify_wall + keep_wall);
        obs::record_value("mc_build_par/reconcile_apply_wall_secs", apply_wall);
        obs::record_value("mc_build_par/keying_busy_max_secs", max(&stats.keying_busy));
        obs::record_value("mc_build_par/tile_scan_busy_max_secs", max(&stats.tile_scan_busy));
        obs::record_value("mc_build_par/conflict_busy_max_secs", max(&stats.conflict_busy));
        obs::record_value("mc_build_par/orphan_busy_max_secs", max(&stats.orphan_busy));
        obs::record_value("mc_build_par/aux_busy_max_secs", max(&stats.aux_busy));
        obs::record_value("mc_build_par/makespan_secs", stats.makespan_secs);
    }
    (MuRTree::from_parts(eps, level1, kept, assignment), stats)
}

/// The Algorithm-3 greedy scan restricted to one tile's points (ascending
/// id order) against a tile-local center tree. Pure function of the tile
/// contents — worker scheduling cannot influence it.
fn scan_tile(
    data: &Dataset,
    eps: f64,
    opts: &BuildOptions,
    pts: &[PointId],
    counters: &Counters,
) -> Vec<MicroCluster> {
    let mut local = RTree::new(data.dim());
    let mut mcs: Vec<MicroCluster> = Vec::new();
    let mut deferred: Vec<PointId> = Vec::new();
    let create = |p: PointId, coords: &[f64], local: &mut RTree, mcs: &mut Vec<MicroCluster>| {
        local.insert_point(mcs.len() as McId, coords);
        mcs.push(MicroCluster::new(p, coords));
    };
    for &p in pts {
        let coords = data.point(p);
        let (hit, cost) = local.first_in_sphere(coords, eps);
        counters.count_node_visits(cost.nodes_visited.max(1));
        counters.count_dists(cost.mbr_tests);
        if let Some(mc) = hit {
            let center = mcs[mc as usize].center;
            mcs[mc as usize].insert(p, coords, data.point(center), eps);
        } else if opts.two_eps_deferral {
            let (near, cost2) = local.first_in_sphere(coords, 2.0 * eps);
            counters.count_node_visits(cost2.nodes_visited.max(1));
            counters.count_dists(cost2.mbr_tests);
            if near.is_some() {
                deferred.push(p);
            } else {
                create(p, coords, &mut local, &mut mcs);
            }
        } else {
            create(p, coords, &mut local, &mut mcs);
        }
    }
    for p in deferred {
        let coords = data.point(p);
        let (hit, cost) = local.first_in_sphere(coords, eps);
        counters.count_node_visits(cost.nodes_visited.max(1));
        counters.count_dists(cost.mbr_tests);
        if let Some(mc) = hit {
            let center = mcs[mc as usize].center;
            mcs[mc as usize].insert(p, coords, data.point(center), eps);
        } else {
            create(p, coords, &mut local, &mut mcs);
        }
    }
    mcs
}

/// Build one MC's auxiliary tree (STR bulk-load or incremental insertion,
/// per [`BuildOptions::str_aux`]).
fn build_one_aux(data: &Dataset, mc: &MicroCluster, opts: &BuildOptions) -> RTree {
    if opts.str_aux {
        RTree::bulk_load_points(
            data.dim(),
            opts.aux_cfg,
            mc.members.iter().map(|&m| (m, data.point(m))),
        )
    } else {
        let mut t = RTree::with_config(data.dim(), opts.aux_cfg);
        for &m in &mc.members {
            t.insert_point(m, data.point(m));
        }
        t
    }
}

/// Deterministic LPT (longest-processing-time-first) assignment of
/// `items` work items to `threads` workers: items sorted by descending
/// weight (ascending index breaks ties) each go to the currently
/// least-loaded worker. The assignment never influences any output —
/// results are keyed by item index — it only balances each worker's busy
/// time, which is what the makespan measures.
fn lpt_assign(threads: usize, items: usize, weight: impl Fn(usize) -> usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..items).collect();
    order.sort_by(|&a, &b| weight(b).cmp(&weight(a)).then(a.cmp(&b)));
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut load: Vec<usize> = vec![0; threads];
    for i in order {
        let w = (0..threads).min_by_key(|&w| (load[w], w)).expect("threads >= 1");
        load[w] += weight(i);
        plan[w].push(i);
    }
    plan
}

/// Spawn `threads` scoped workers, hand each its worker index (the
/// callee looks its share up in an [`lpt_assign`] plan), and return each
/// worker's busy seconds. Static assignment — rather than a shared
/// stealing queue — keeps each worker's share (and therefore its busy
/// time) a fixed function of the work items: on a host with fewer cores
/// than workers a stealing queue degenerates to "whichever worker is
/// scheduled first drains everything", which would make the measured
/// critical path independent of the thread count.
fn run_workers(threads: usize, work: &(dyn Fn(usize) + Sync)) -> Vec<f64> {
    let mut busy = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                s.spawn(move || {
                    let t = BusyTimer::start();
                    work(worker);
                    t.secs()
                })
            })
            .collect();
        for h in handles {
            busy.push(h.join().expect("worker panicked"));
        }
    });
    busy
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
        let mut seen = vec![false; data.len()];
        for (id, mc) in t.mcs.iter().enumerate() {
            for &m in &mc.members {
                assert!(!seen[m as usize], "point {m} in two MCs");
                seen[m as usize] = true;
                assert_eq!(t.assignment[m as usize], id as McId);
                assert!(
                    dist_euclidean(data.point(m), data.point(mc.center)) < eps,
                    "member outside its MC ball"
                );
            }
            assert_eq!(mc.center, mc.members[0], "center must be first member");
        }
        assert!(seen.iter().all(|&s| s), "unassigned point");
    }

    fn fingerprint(t: &MuRTree) -> Vec<(PointId, Vec<PointId>)> {
        t.mcs.iter().map(|mc| (mc.center, mc.members.clone())).collect()
    }

    #[test]
    fn partition_invariants_hold() {
        let data = grid(14, 0.4);
        let c = Counters::new();
        let (t, stats) = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 4, &c);
        check_partition(&data, &t, 1.0);
        assert!(t.mcs.len() < data.len());
        assert!(stats.tiles > 1, "a spread-out grid must occupy several tiles");
        assert!(c.dist_computations() > 0);
        assert!(c.node_visits() > 0);
        // Centers pairwise >= eps apart (reconciliation's whole job).
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
    fn deterministic_across_thread_counts() {
        let data = grid(13, 0.37);
        let mut baseline = None;
        let mut base_counters = None;
        for threads in [1usize, 2, 3, 4, 8] {
            let c = Counters::new();
            let (t, _) =
                build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), threads, &c);
            check_partition(&data, &t, 1.0);
            let fp = fingerprint(&t);
            let cc = (c.node_visits(), c.dist_computations(), c.range_queries());
            match (&baseline, &base_counters) {
                (None, None) => {
                    baseline = Some(fp);
                    base_counters = Some(cc);
                }
                (Some(b), Some(bc)) => {
                    assert_eq!(&fp, b, "threads={threads}: MC set drifted");
                    assert_eq!(&cc, bc, "threads={threads}: counters drifted");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn aux_trees_answer_queries() {
        let data = grid(10, 0.4);
        let c = Counters::new();
        let (t, _) = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 3, &c);
        for mc in &t.mcs {
            let aux = mc.aux.as_ref().expect("aux built");
            let mut got = aux.sphere_neighbors(data.point(mc.center), 1.0);
            got.sort_unstable();
            let mut want = mc.members.clone();
            want.sort_unstable();
            assert_eq!(got, want, "aux tree must index exactly the members");
        }
    }

    #[test]
    fn incremental_aux_matches_str() {
        let data = grid(8, 0.4);
        let c = Counters::new();
        let (a, _) = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 2, &c);
        let (b, _) = build_micro_clusters_par(
            &data,
            1.0,
            &BuildOptions { str_aux: false, ..Default::default() },
            2,
            &c,
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));
        for (ma, mb) in a.mcs.iter().zip(&b.mcs) {
            let mut na = ma.aux.as_ref().unwrap().sphere_neighbors(data.point(ma.center), 0.7);
            let mut nb = mb.aux.as_ref().unwrap().sphere_neighbors(data.point(ma.center), 0.7);
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn duplicate_points_share_one_mc() {
        let data = Dataset::from_rows(&vec![vec![5.0, 5.0]; 20]);
        let c = Counters::new();
        let (t, stats) = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 4, &c);
        assert_eq!(t.mcs.len(), 1);
        assert_eq!(t.mcs[0].len(), 20);
        assert_eq!(t.mcs[0].inner_count, 20);
        assert_eq!(stats.tiles, 1);
        assert_eq!(stats.boundary_conflicts, 0);
    }

    #[test]
    fn empty_dataset() {
        let data = Dataset::empty(3);
        let c = Counters::new();
        let (t, stats) = build_micro_clusters_par(&data, 0.5, &BuildOptions::default(), 4, &c);
        assert_eq!(t.mc_count(), 0);
        assert!(t.assignment.is_empty());
        assert_eq!(stats.tiles, 0);
    }

    #[test]
    fn boundary_conflicts_are_resolved() {
        // A tight line of points crossing many tile boundaries: tiles
        // produce conflicting candidates near every boundary, and the
        // reconciliation pass must still yield a valid partition.
        let n = 400;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.11, 0.0]).collect();
        let data = Dataset::from_rows(&rows);
        let c = Counters::new();
        let (t, stats) = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 4, &c);
        check_partition(&data, &t, 1.0);
        assert!(stats.tiles > 10);
        // The same outcome at t1 (determinism with real conflicts present).
        let c1 = Counters::new();
        let (t1, _) = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 1, &c1);
        assert_eq!(fingerprint(&t), fingerprint(&t1));
        assert_eq!(c.node_visits(), c1.node_visits());
        assert_eq!(c.dist_computations(), c1.dist_computations());
    }

    #[test]
    fn no_deferral_still_partitions() {
        let data = grid(9, 0.45);
        let c = Counters::new();
        let opts = BuildOptions { two_eps_deferral: false, ..Default::default() };
        let (t, _) = build_micro_clusters_par(&data, 1.0, &opts, 3, &c);
        check_partition(&data, &t, 1.0);
    }

    #[test]
    fn stats_and_busy_times_populated() {
        let data = grid(12, 0.4);
        let c = Counters::new();
        let (_, stats) = build_micro_clusters_par(&data, 1.0, &BuildOptions::default(), 3, &c);
        assert_eq!(stats.keying_busy.len(), 3);
        assert_eq!(stats.tile_scan_busy.len(), 3);
        assert_eq!(stats.conflict_busy.len(), 3);
        assert_eq!(stats.orphan_busy.len(), 3);
        assert_eq!(stats.aux_busy.len(), 3);
        assert!(stats.makespan_secs >= 0.0);
        assert!(stats.tiles > 0);
    }
}
