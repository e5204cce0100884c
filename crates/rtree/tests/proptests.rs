//! Property tests: R-tree queries must agree with linear scans for any
//! point set, any query center and any radius, under both construction
//! methods.

use geom::dist_euclidean;
use proptest::prelude::*;
use rtree::{RTree, RTreeConfig};

fn points(dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0..100.0f64, dim), 1..max_n)
}

fn scan_sphere(pts: &[Vec<f64>], c: &[f64], r: f64) -> Vec<u32> {
    let mut v: Vec<u32> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| dist_euclidean(c, p) < r)
        .map(|(i, _)| i as u32)
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_sphere_query_exact(
        pts in points(3, 200),
        c in prop::collection::vec(-100.0..100.0f64, 3),
        r in 0.1..150.0f64,
    ) {
        let mut t = RTree::with_config(3, RTreeConfig::new(8, 4));
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        t.check_invariants();
        let mut got = t.sphere_neighbors(&c, r);
        got.sort_unstable();
        prop_assert_eq!(got, scan_sphere(&pts, &c, r));
    }

    #[test]
    fn bulk_sphere_query_exact(
        pts in points(2, 300),
        c in prop::collection::vec(-100.0..100.0f64, 2),
        r in 0.1..150.0f64,
    ) {
        let items = pts.iter().enumerate().map(|(i, p)| (i as u32, p.clone()));
        let t = RTree::bulk_load_points(2, RTreeConfig::new(8, 4), items);
        t.check_invariants();
        let mut got = t.sphere_neighbors(&c, r);
        got.sort_unstable();
        prop_assert_eq!(got, scan_sphere(&pts, &c, r));
    }

    #[test]
    fn tree_mbr_covers_everything(pts in points(3, 150)) {
        let mut t = RTree::new(3);
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        let m = t.mbr().unwrap().clone();
        for p in &pts {
            prop_assert!(m.contains_point(p));
        }
    }
}
