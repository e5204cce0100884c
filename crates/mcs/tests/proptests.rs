//! Property tests for micro-cluster construction and the μR-tree.

use geom::{dist_euclidean, Dataset};
use mcs::{build_micro_clusters, BuildOptions, McKind, NO_MC};
use metrics::Counters;
use proptest::prelude::*;

fn points(dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-20.0..20.0f64, dim), 1..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn construction_invariants(rows in points(3, 250), eps in 0.3..6.0f64) {
        let data = Dataset::from_rows(&rows);
        let c = Counters::new();
        let t = build_micro_clusters(&data, eps, &BuildOptions::default(), &c);

        // Exclusive, complete membership within eps of the center.
        let mut owner = vec![NO_MC; data.len()];
        for (mi, mc) in t.mcs.iter().enumerate() {
            prop_assert!(!mc.is_empty());
            prop_assert_eq!(mc.block.item(0), mc.center);
            for &m in mc.block.items() {
                prop_assert_eq!(owner[m as usize], NO_MC);
                owner[m as usize] = mi as u32;
                prop_assert!(dist_euclidean(data.point(m), data.point(mc.center)) < eps);
                prop_assert!(mc.mbr.contains_point(data.point(m)));
            }
            // inner_count consistent with the strict <eps/2 definition.
            let ic = mc.inner_circle(&data, eps).count();
            prop_assert_eq!(ic as u32, mc.inner_count);
        }
        prop_assert!(owner.iter().all(|&o| o != NO_MC));
        prop_assert_eq!(&owner, &t.assignment);

        // No two centers within eps of each other.
        for (i, a) in t.mcs.iter().enumerate() {
            for b in t.mcs.iter().skip(i + 1) {
                prop_assert!(
                    dist_euclidean(data.point(a.center), data.point(b.center)) >= eps
                );
            }
        }
    }

    #[test]
    fn neighborhood_query_is_exact(rows in points(2, 300), eps in 0.3..5.0f64) {
        let data = Dataset::from_rows(&rows);
        let c = Counters::new();
        let mut t = build_micro_clusters(&data, eps, &BuildOptions::default(), &c);
        t.compute_reachable(&data, &c);
        // Probe a deterministic sample of points.
        for p in (0..data.len() as u32).step_by((data.len() / 10).max(1)) {
            let mut got = Vec::new();
            t.neighborhood(&data, p, &mut got);
            got.sort_unstable();
            let mut want: Vec<u32> = data
                .iter()
                .filter(|(_, q)| dist_euclidean(data.point(p), q) < eps)
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "point {}", p);
        }
    }

    #[test]
    fn dmc_inner_points_are_truly_core(rows in points(2, 200), eps in 0.3..4.0f64, min_pts in 2usize..7) {
        // Lemma 1 validated empirically: every inner-circle point of a
        // DMC has >= MinPts strict ε-neighbours in the full dataset.
        let data = Dataset::from_rows(&rows);
        let params = geom::DbscanParams::new(eps, min_pts);
        let c = Counters::new();
        let t = build_micro_clusters(&data, eps, &BuildOptions::default(), &c);
        for mc in &t.mcs {
            if mc.kind(&params) != McKind::Dense {
                continue;
            }
            for q in mc.inner_circle(&data, eps) {
                let count = data
                    .iter()
                    .filter(|(_, x)| dist_euclidean(data.point(q), x) < eps)
                    .count();
                prop_assert!(count >= min_pts, "Lemma 1 violated for point {}", q);
            }
        }
    }

    #[test]
    fn cmc_center_is_truly_core(rows in points(3, 200), eps in 0.3..4.0f64, min_pts in 2usize..7) {
        // Lemma 2 validated empirically.
        let data = Dataset::from_rows(&rows);
        let params = geom::DbscanParams::new(eps, min_pts);
        let c = Counters::new();
        let t = build_micro_clusters(&data, eps, &BuildOptions::default(), &c);
        for mc in &t.mcs {
            if matches!(mc.kind(&params), McKind::Core | McKind::Dense) {
                let count = data
                    .iter()
                    .filter(|(_, x)| dist_euclidean(data.point(mc.center), x) < eps)
                    .count();
                prop_assert!(count >= min_pts, "Lemma 2 violated for MC center {}", mc.center);
            }
        }
    }

    #[test]
    fn reachable_lists_cover_all_neighbour_mcs(rows in points(2, 200), eps in 0.3..4.0f64) {
        // Lemma 3: for any point x, every MC containing an ε-neighbour of
        // x must be in the reachable list of x's MC.
        let data = Dataset::from_rows(&rows);
        let c = Counters::new();
        let mut t = build_micro_clusters(&data, eps, &BuildOptions::default(), &c);
        t.compute_reachable(&data, &c);
        for p in (0..data.len() as u32).step_by((data.len() / 8).max(1)) {
            let reach = t.reach_of(p);
            for (q, qc) in data.iter() {
                if dist_euclidean(data.point(p), qc) < eps {
                    let mc_q = t.assignment[q as usize];
                    prop_assert!(
                        reach.contains(&mc_q),
                        "MC {} holding neighbour {} missing from reach list of point {}",
                        mc_q, q, p
                    );
                }
            }
        }
    }
}
