//! The center grid's three probes — minimum id within r, any center within
//! r, every center within r — against brute force over the full-d
//! distance to the same centers, at d = 1..8, 14, 24 and 74 and radii ε,
//! 2ε and 3ε. Above d = 3 the grid keys on the first three coordinates
//! only, so centers that differ past them share a cell.
//!
//! Coordinates sit on a lattice of step ε/2 (so centers lie exactly ε,
//! 2ε and 3ε apart and on exact multiples of the cell side 2ε), with
//! duplicates, negative values and off-lattice jitter, at scales where
//! the cell indices saturate. Scaled by `PROPTEST_CASES`.

use geom::dist_sq;
use mcs::{CenterGrid, McId};
use proptest::prelude::*;

/// `(ε, lattice step, offset)`: a coordinate is `offset + step · k`.
const SCALES: [(f64, f64, f64); 10] = [
    (0.5, 0.25, 0.0),
    (0.5, 0.25, -6.75),
    (3.0, 1.5, 1e6),
    // Tiny radii: r² underflows to 0.
    (1e-300, 1e-300, 0.0),
    // Cell indices far beyond i64: every coordinate saturates.
    (1e-300, 1e-300, 1.0),
    (1e-300, 1e300, 0.0),
    // Huge radii: r² overflows, and near f64::MAX so does q ± r.
    (1e300, 5e299, 0.0),
    (1e300, 1e300, 1e300),
    (1e300, 1.4e307, 0.0),
    // Coordinates at f64::MAX: q + r is infinite, and the probe's cell
    // range spans most of i64.
    (1e300, 1e300, f64::MAX),
];

/// The dimensions drawn: every d up to 8 and the catalog's high ones.
const DIMS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 14, 24, 74];

/// A drawn coordinate: lattice index, fraction of a step, jitter on/off.
type Draw = (i64, f64, bool);

/// One coordinate: lattice index in -12..=12 plus, when `jitter` is set,
/// a fraction of a step, clamped to the finite range.
fn coord(scale: usize, (k, frac, jitter): Draw) -> f64 {
    let (_, step, offset) = SCALES[scale];
    let k = k as f64 + if jitter { frac } else { 0.0 };
    (offset + step * k).clamp(f64::MIN, f64::MAX)
}

/// `(dim, scale index, points)`.
fn case() -> impl Strategy<Value = (usize, usize, Vec<Vec<Draw>>)> {
    (0..DIMS.len(), 0..SCALES.len()).prop_flat_map(|(d, scale)| {
        let dim = DIMS[d];
        let c = (-12i64..13, 0.0..1.0f64, any::<bool>());
        (Just(dim), Just(scale), prop::collection::vec(prop::collection::vec(c, dim), 1..48))
    })
}

fn brute(centers: &[Vec<f64>], q: &[f64], r: f64) -> Vec<McId> {
    (0..centers.len() as McId).filter(|&i| dist_sq(&centers[i as usize], q) < r * r).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_probes_match_brute_force(case in case()) {
        let (dim, scale, rows) = case;
        let eps = SCALES[scale].0;
        let points: Vec<Vec<f64>> =
            rows.iter().map(|r| r.iter().map(|&c| coord(scale, c)).collect()).collect();
        // The first two thirds are centers; every point is a query.
        let centers = &points[..(2 * points.len()).div_ceil(3)];
        let mut grid = CenterGrid::new(dim, eps);
        for c in centers {
            grid.insert(c);
        }
        prop_assert_eq!(grid.len(), centers.len());
        for q in &points {
            for r in [eps, 2.0 * eps, 3.0 * eps] {
                let want = brute(centers, q, r);
                let (min, cost) = grid.min_within(q, r);
                prop_assert_eq!(min, want.first().copied(), "min within {} of {:?}", r, q);
                prop_assert!(cost.mbr_tests <= centers.len() as u64);
                let (any, _) = grid.any_within(q, r);
                prop_assert_eq!(any, !want.is_empty(), "any within {} of {:?}", r, q);
                // Appends after what `out` already holds.
                let mut all = vec![McId::MAX];
                let cost = grid.all_within(q, r, &mut all);
                prop_assert_eq!(&all[1..], &want[..], "all within {} of {:?}", r, q);
                prop_assert!(cost.mbr_tests <= centers.len() as u64);
            }
        }
    }
}

#[test]
fn the_probes_visit_at_most_the_cells_the_ball_box_overlaps() {
    // Lattice of centers at spacing ε over 10³ cells, in 3-d and with two
    // more coordinates in 5-d: every probe's box overlaps at most 2, 3
    // and 4 cells per keyed axis for radii ε, 2ε, 3ε.
    let eps = 1.0;
    for dim in [3, 5] {
        let mut grid = CenterGrid::new(dim, eps);
        for i in 0..8000 {
            let c = [(i % 20) as f64, (i / 20 % 20) as f64, (i / 400) as f64, 0.5, (i % 3) as f64];
            grid.insert(&c[..dim]);
        }
        assert_eq!(grid.occupied_cells(), 1000, "d={dim}");
        let q = [9.3, 9.1, 9.9, 0.2, 1.0];
        let q = &q[..dim];
        assert!(grid.min_within(q, eps).1.nodes_visited <= 8, "d={dim}");
        assert!(grid.any_within(q, 2.0 * eps).1.nodes_visited <= 27, "d={dim}");
        assert!(grid.all_within(q, 3.0 * eps, &mut Vec::new()).nodes_visited <= 64, "d={dim}");
    }
}
