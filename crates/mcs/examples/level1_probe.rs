//! Level-1 probe: Algorithm 3's two scans and the 3ε reachable lists,
//! replayed over the same points once with the center grid and once with
//! an R-tree as the level-1 index.
//!
//! For each size it prints, per point, the cells (grid) or nodes (R-tree)
//! visited and the centers or boxes tested, plus the wall time of the
//! scans and of the reach lists: the fastest of as many replays as fit
//! in about half a second (at least one). It asserts that both indexes create the
//! same centers as `build_micro_clusters` and give the same reach lists.
//!
//! ```sh
//! cargo run --release -p mcs --example level1_probe            # 3k, 100k, 400k
//! cargo run --release -p mcs --example level1_probe -- 3000    # one size
//! ```
//!
//! Points are `data::galaxy(n, 3, 7)` with ε = 0.8.

use geom::{Dataset, PointId};
use mcs::{build_micro_clusters, BuildOptions, CenterGrid, Level1, McId};
use metrics::Counters;
use rtree::{QueryCost, RTree};
use std::time::Instant;

const EPS: f64 = 0.8;

/// What one replay built and what it cost.
struct Replay {
    centers: Vec<PointId>,
    reach: Vec<Vec<McId>>,
    visits: u64,
    tests: u64,
    scan_s: f64,
    reach_s: f64,
}

/// The fastest of repeated replays on a fresh copy of `empty`.
fn fastest(data: &Dataset, empty: &Level1) -> Replay {
    let started = Instant::now();
    let mut best = replay(data, empty.clone());
    while started.elapsed().as_secs_f64() < 0.5 {
        let r = replay(data, empty.clone());
        best.scan_s = best.scan_s.min(r.scan_s);
        best.reach_s = best.reach_s.min(r.reach_s);
    }
    best
}

fn replay(data: &Dataset, mut level1: Level1) -> Replay {
    let (mut visits, mut tests) = (0u64, 0u64);
    let mut charge = |cost: QueryCost| {
        visits += cost.nodes_visited.max(1);
        tests += cost.mbr_tests;
    };
    let mut centers: Vec<PointId> = Vec::new();
    let mut create = |p: PointId, level1: &mut Level1| {
        level1.insert(centers.len() as McId, data.point(p));
        centers.push(p);
    };

    let t = Instant::now();
    let mut deferred = Vec::new();
    for (p, coords) in data.iter() {
        let (hit, cost) = level1.join(coords, EPS);
        charge(cost);
        if hit.is_none() {
            let (near, cost) = level1.any_within(coords, 2.0 * EPS);
            charge(cost);
            if near {
                deferred.push(p);
            } else {
                create(p, &mut level1);
            }
        }
    }
    for p in deferred {
        let (hit, cost) = level1.join(data.point(p), EPS);
        charge(cost);
        if hit.is_none() {
            create(p, &mut level1);
        }
    }
    let scan_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let reach = centers
        .iter()
        .map(|&c| {
            let mut list = Vec::new();
            charge(level1.within(data.point(c), 3.0 * EPS, &mut list));
            list
        })
        .collect();
    let reach_s = t.elapsed().as_secs_f64();
    Replay { centers, reach, visits, tests, scan_s, reach_s }
}

fn main() {
    let sizes: Vec<usize> = std::env::args().skip(1).map(|a| a.parse().expect("size")).collect();
    let sizes = if sizes.is_empty() { vec![3_000, 100_000, 400_000] } else { sizes };
    println!("| n | level-1 index | MCs | visits/pt | tests/pt | scan ms | reach ms |");
    println!("|---:|---|---:|---:|---:|---:|---:|");
    for n in sizes {
        let data = data::galaxy(n, 3, 7);
        let grid = fastest(&data, &Level1::Grid(CenterGrid::new(3, EPS)));
        let mut tree = fastest(&data, &Level1::Tree(RTree::new(3)));

        let built = build_micro_clusters(&data, EPS, &BuildOptions::default(), &Counters::new());
        let built: Vec<PointId> = built.mcs.iter().map(|mc| mc.center).collect();
        assert_eq!(grid.centers, built, "n={n}: the grid replay must create the built centers");
        assert_eq!(tree.centers, grid.centers, "n={n}: grid and R-tree created different centers");
        for list in &mut tree.reach {
            list.sort_unstable();
        }
        assert_eq!(tree.reach, grid.reach, "n={n}: grid and R-tree reach lists differ");

        for (name, r) in [("grid (cells)", &grid), ("R-tree (nodes)", &tree)] {
            println!(
                "| {n} | {name} | {} | {:.1} | {:.1} | {:.1} | {:.1} |",
                r.centers.len(),
                r.visits as f64 / n as f64,
                r.tests as f64 / n as f64,
                r.scan_s * 1e3,
                r.reach_s * 1e3,
            );
        }
    }
}
