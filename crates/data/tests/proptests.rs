//! Property tests for dataset IO and generator invariants.

use geom::Dataset;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bin_roundtrip_any_dataset(
        rows in prop::collection::vec(prop::collection::vec(-1e6..1e6f64, 4), 1..200),
        chunk_cap in 1usize..64,
        tag in 0u32..1_000_000,
    ) {
        let d = Dataset::from_rows(&rows);
        let tmp = std::env::temp_dir().join(format!("mudbscan_prop_{tag}_{}.muds", std::process::id()));
        data::write_store(&d, &tmp, chunk_cap).unwrap();
        let back = geom::gather_dense(&data::ChunkedStore::open(&tmp).unwrap());
        std::fs::remove_file(&tmp).ok();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn csv_roundtrip_close(
        rows in prop::collection::vec(prop::collection::vec(-1e3..1e3f64, 3), 1..100),
        tag in 0u32..1_000_000,
    ) {
        let d = Dataset::from_rows(&rows);
        let tmp = std::env::temp_dir().join(format!("mudbscan_prop_{tag}_{}.csv", std::process::id()));
        data::io::write_csv(&d, &tmp).unwrap();
        let back = data::io::read_csv(&tmp).unwrap();
        std::fs::remove_file(&tmp).ok();
        prop_assert_eq!(back.len(), d.len());
        prop_assert_eq!(back.dim(), d.dim());
        for (i, p) in d.iter() {
            for (a, b) in p.iter().zip(back.point(i)) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn generators_are_finite_and_sized(n in 1usize..2_000, dim in 1usize..8, seed: u64) {
        for d in [
            data::uniform(n, dim, seed),
            data::gaussian_mixture(n, dim, 3, 1.5, 0.1, seed),
            data::galaxy(n, dim.max(2), seed),
            data::kddbio(n, dim.max(2), seed),
        ] {
            prop_assert_eq!(d.len(), n);
            prop_assert!(d.validate_finite().is_ok());
        }
    }
}
