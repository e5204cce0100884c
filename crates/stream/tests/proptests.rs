//! Property test: streaming μDBSCAN equals batch DBSCAN on the full
//! stream and on random prefixes, for arbitrary inputs and parameters.

use geom::{Dataset, DbscanParams};
use mudbscan::{check_exact, naive_dbscan};
use proptest::prelude::*;
use stream::StreamingMuDbscan;

fn clustered(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(prop::collection::vec(-6.0..6.0f64, dim), 1..4),
        prop::collection::vec((0usize..4, prop::collection::vec(-0.8..0.8f64, dim)), 8..90),
        prop::collection::vec(prop::collection::vec(-8.0..8.0f64, dim), 0..10),
    )
        .prop_map(|(centers, offsets, background)| {
            let mut rows = Vec::new();
            for (ci, off) in offsets {
                let c = &centers[ci % centers.len()];
                rows.push(c.iter().zip(&off).map(|(a, b)| a + b).collect());
            }
            rows.extend(background);
            rows
        })
}

#[test]
fn exact_under_distribution_drift() {
    // Cluster centers move as the stream advances — the snapshot must
    // still equal batch DBSCAN of everything seen, at several cut points.
    let feed = data::drifting_stream(1_200, 2, 77);
    let params = DbscanParams::new(1.5, 5);
    let mut s = StreamingMuDbscan::empty(2, params);
    for (i, coords) in feed.iter() {
        s.insert(coords);
        let n = i as usize + 1;
        if n.is_multiple_of(400) {
            let prefix_rows: Vec<Vec<f64>> =
                (0..n).map(|j| feed.point(j as u32).to_vec()).collect();
            let prefix = Dataset::from_rows(&prefix_rows);
            let got = s.canonical_snapshot();
            let want = naive_dbscan(&prefix, &params);
            let rep = check_exact(&got, &want, &prefix, &params);
            assert!(rep.is_exact(), "prefix {n}: {rep:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stream_equals_batch(rows in clustered(2), eps in 0.3..2.0f64, min_pts in 2usize..7) {
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(eps, min_pts);
        let mut s = StreamingMuDbscan::empty(2, params);
        s.extend_from(&data);
        let got = s.canonical_snapshot();
        let want = naive_dbscan(&data, &params);
        let rep = check_exact(&got, &want, &data, &params);
        prop_assert!(rep.is_exact(), "{rep:?}");
    }

    #[test]
    fn stream_prefix_exact(rows in clustered(3), eps in 0.4..2.0f64, min_pts in 2usize..6, cut in 0.2..0.9f64) {
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(eps, min_pts);
        let k = ((data.len() as f64 * cut) as usize).max(1);
        let mut s = StreamingMuDbscan::empty(3, params);
        for (i, coords) in data.iter() {
            if (i as usize) >= k {
                break;
            }
            s.insert(coords);
        }
        let prefix_rows: Vec<Vec<f64>> = (0..k).map(|j| data.point(j as u32).to_vec()).collect();
        let prefix = Dataset::from_rows(&prefix_rows);
        let got = s.canonical_snapshot();
        let want = naive_dbscan(&prefix, &params);
        let rep = check_exact(&got, &want, &prefix, &params);
        prop_assert!(rep.is_exact(), "prefix {k}: {rep:?}");
    }
}
