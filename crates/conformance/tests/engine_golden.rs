//! Golden pin of the μDBSCAN engine at one thread.
//!
//! DBSCAN leaves a border point shared by two clusters to whichever
//! cluster claims it first, so `check_exact` accepts any claim order and
//! cannot see a change in the order the engine visits points or MCs.
//! This test can: on the five conformance families, under each of the
//! four ablation-knob combinations, it pins a digest of the labels, a
//! digest of the core flags, the five work counters and a digest of the
//! query-cost histograms to recorded values (`GOLDEN` says when each
//! was recorded). The one-thread run must stay the sequential
//! algorithm, step for step.

use conformance::{DatasetSpec, FAMILIES};
use geom::{Dataset, DbscanParams};
use metrics::Counters;
use mudbscan::MuDbscan;

/// Histograms a one-thread run records, in digest order. A key absent
/// from the report (no post-processing block scan ran) digests as such.
const HIST_KEYS: [&str; 4] =
    ["query/node_visits", "query/candidates", "query/leaf_evals", "postproc/node_visits"];

/// `(n, dim, eps, min_pts)` of the three dataset shapes: the 300-point
/// 3-d shape the seq/par counter and histogram pins used, a 2 000-point
/// 2-d shape with a mix of core, border and noise points in every family,
/// and a 500-point 5-d shape, where the center grid keys on the first
/// three of five coordinates. At d = 5 blobs, chains and mixed hold core,
/// border and noise points; uniform is all noise and duplicates all core
/// (uniform's [0, 4)⁵ needs ε ≈ 1 for cores, where the other families
/// are all core).
const SHAPES: [(usize, usize, f64, usize); 3] =
    [(300, 3, 0.6, 5), (2_000, 2, 0.15, 5), (500, 5, 0.25, 5)];

/// One golden row: family, n, `(no promotion, no MC skip)`, label
/// digest, core digest, `[range_queries, queries_saved,
/// dist_computations, node_visits, union_ops]`, histogram digest.
type Row = (&'static str, usize, (bool, bool), u64, u64, [u64; 5], u64);

/// Labels, core flags, `range_queries`, `queries_saved` and `union_ops`
/// of the d ≤ 3 rows were recorded with the sequential driver at the
/// commit before the engine merge. `dist_computations`, `node_visits`
/// and the histogram digest were re-recorded when level 2 became one
/// member block per MC: a block scan evaluates every member where an aux
/// R-tree pruned inner nodes, and it visits one node where a tree
/// visited several. The d = 5 rows were recorded while level 1 above
/// d = 3 was still an R-tree, then re-based once when it became the
/// center grid: label and core digests held on all 20 rows; the work
/// counts moved with the MC partition (minimum-id join) and the probe
/// cost (cells, not nodes).
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("blobs", 300, (false, false), 0xe36763d253e928a6, 0xc557529d251390e1, [20, 280, 4190, 1119, 1786], 0x6d37823fdb8d2d63),
    ("blobs", 300, (true, false), 0xe36763d253e928a6, 0xc557529d251390e1, [201, 99, 21020, 1480, 12720], 0x35983a4830246b83),
    ("blobs", 300, (false, true), 0xe36763d253e928a6, 0xc557529d251390e1, [20, 280, 4190, 1119, 1786], 0x6d37823fdb8d2d63),
    ("blobs", 300, (true, true), 0xe36763d253e928a6, 0xc557529d251390e1, [201, 99, 21020, 1480, 12720], 0x35983a4830246b83),
    ("uniform", 300, (false, false), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19848, 12177, 665], 0xff93510c7d2e388e),
    ("uniform", 300, (true, false), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19033, 12177, 665], 0xff93510c7d2e388e),
    ("uniform", 300, (false, true), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19848, 12177, 665], 0xff93510c7d2e388e),
    ("uniform", 300, (true, true), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19033, 12177, 665], 0xff93510c7d2e388e),
    ("chains", 300, (false, false), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [78, 222, 11728, 3804, 1947], 0x8083a361c59b7618),
    ("chains", 300, (true, false), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [236, 64, 25510, 4640, 5021], 0xae680049ca616dec),
    ("chains", 300, (false, true), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [78, 222, 11728, 3804, 1947], 0x8083a361c59b7618),
    ("chains", 300, (true, true), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [236, 64, 25510, 4640, 5021], 0xae680049ca616dec),
    ("duplicates", 300, (false, false), 0x4be5752fa81c9a07, 0xc557529d251390e1, [65, 298, 11583, 988, 528], 0xa4518fe60436e52a),
    ("duplicates", 300, (true, false), 0x4be5752fa81c9a07, 0xc557529d251390e1, [167, 196, 28593, 1090, 9520], 0xf1470bfca16b5ac2),
    ("duplicates", 300, (false, true), 0x4be5752fa81c9a07, 0xc557529d251390e1, [2, 298, 11583, 925, 528], 0x4bbc17110f477228),
    ("duplicates", 300, (true, true), 0x4be5752fa81c9a07, 0xc557529d251390e1, [104, 196, 28593, 1027, 9520], 0xca353e18df5a1420),
    ("mixed", 300, (false, false), 0x3f11273027fbe42d, 0x4577b63df4912c7, [124, 176, 4436, 12668, 1087], 0xcc73aa5c33b2c640),
    ("mixed", 300, (true, false), 0x3f11273027fbe42d, 0x4577b63df4912c7, [242, 58, 11674, 12986, 5387], 0x6eee28a19383179a),
    ("mixed", 300, (false, true), 0x3f11273027fbe42d, 0x4577b63df4912c7, [124, 176, 4436, 12668, 1087], 0xcc73aa5c33b2c640),
    ("mixed", 300, (true, true), 0x3f11273027fbe42d, 0x4577b63df4912c7, [242, 58, 11674, 12986, 5387], 0x6eee28a19383179a),
    ("blobs", 2000, (false, false), 0x78a5eef9c333c057, 0x1116fbf516faab35, [100, 1900, 50458, 15528, 10520], 0x5f4cae56de30f1b6),
    ("blobs", 2000, (true, false), 0x78a5eef9c333c057, 0x1116fbf516faab35, [1278, 722, 430819, 21129, 95504], 0xfad191f7bf91ec1e),
    ("blobs", 2000, (false, true), 0x78a5eef9c333c057, 0x1116fbf516faab35, [100, 1900, 50458, 15528, 10520], 0x5f4cae56de30f1b6),
    ("blobs", 2000, (true, true), 0x78a5eef9c333c057, 0x1116fbf516faab35, [1278, 722, 430819, 21129, 95504], 0xfad191f7bf91ec1e),
    ("uniform", 2000, (false, false), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1445, 559, 90009, 29924, 10181], 0xf16a6ff97537eee3),
    ("uniform", 2000, (true, false), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1720, 284, 88252, 30931, 11705], 0xf5063c1029dd6e23),
    ("uniform", 2000, (false, true), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1441, 559, 90004, 29920, 10181], 0xdd88c1d65e64b40e),
    ("uniform", 2000, (true, true), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1716, 284, 88247, 30927, 11705], 0x802647c99f22674e),
    ("chains", 2000, (false, false), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1514, 490, 66727, 31845, 6892], 0x5aa5a5f20d297201),
    ("chains", 2000, (true, false), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1761, 241, 68800, 32763, 8511], 0xd27c02b823284984),
    ("chains", 2000, (false, true), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1510, 490, 66718, 31841, 6892], 0xd009a34f6fc6f0d8),
    ("chains", 2000, (true, true), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1759, 241, 68797, 32761, 8511], 0x36d54848aa9dbc3f),
    ("duplicates", 2000, (false, false), 0x2788cc79f0933255, 0x1116fbf516faab35, [1, 1999, 3662, 8019, 2827], 0x11d2ab36d722ccc4),
    ("duplicates", 2000, (true, false), 0x2788cc79f0933255, 0x1116fbf516faab35, [410, 1590, 342305, 8837, 256498], 0x269791153f820069),
    ("duplicates", 2000, (false, true), 0x2788cc79f0933255, 0x1116fbf516faab35, [1, 1999, 3662, 8019, 2827], 0x11d2ab36d722ccc4),
    ("duplicates", 2000, (true, true), 0x2788cc79f0933255, 0x1116fbf516faab35, [410, 1590, 342305, 8837, 256498], 0x269791153f820069),
    ("mixed", 2000, (false, false), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [863, 1137, 42749, 30239, 5969], 0x7b0f735d3493837b),
    ("mixed", 2000, (true, false), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [1574, 426, 185665, 33522, 37581], 0x62729bf46dea8a1f),
    ("mixed", 2000, (false, true), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [863, 1137, 42749, 30239, 5969], 0x7b0f735d3493837b),
    ("mixed", 2000, (true, true), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [1574, 426, 185665, 33522, 37581], 0x62729bf46dea8a1f),
    ("blobs", 500, (false, false), 0x17b9fa5cf6112aef, 0x9aece76e908a3fe0, [465, 35, 64015, 15783, 1737], 0xfcb9db78067b1e27),
    ("blobs", 500, (true, false), 0x17b9fa5cf6112aef, 0x9aece76e908a3fe0, [465, 35, 61748, 15783, 1737], 0xfcb9db78067b1e27),
    ("blobs", 500, (false, true), 0x17b9fa5cf6112aef, 0x9aece76e908a3fe0, [465, 35, 64015, 15783, 1737], 0xfcb9db78067b1e27),
    ("blobs", 500, (true, true), 0x17b9fa5cf6112aef, 0x9aece76e908a3fe0, [465, 35, 61748, 15783, 1737], 0xfcb9db78067b1e27),
    ("uniform", 500, (false, false), 0xc8270daf600a3d95, 0x1fe3fce62bd816b5, [500, 0, 28785, 49504, 0], 0x4cf93c2fa6892bc9),
    ("uniform", 500, (true, false), 0xc8270daf600a3d95, 0x1fe3fce62bd816b5, [500, 0, 28785, 49504, 0], 0x4cf93c2fa6892bc9),
    ("uniform", 500, (false, true), 0xc8270daf600a3d95, 0x1fe3fce62bd816b5, [500, 0, 28785, 49504, 0], 0x4cf93c2fa6892bc9),
    ("uniform", 500, (true, true), 0xc8270daf600a3d95, 0x1fe3fce62bd816b5, [500, 0, 28785, 49504, 0], 0x4cf93c2fa6892bc9),
    ("chains", 500, (false, false), 0x32b62f002b947620, 0xe3fd85783609eb7, [468, 33, 36996, 21378, 966], 0xeadf9729197a80ae),
    ("chains", 500, (true, false), 0x32b62f002b947620, 0xe3fd85783609eb7, [475, 26, 36076, 21405, 1000], 0x33e202bb0bde97e4),
    ("chains", 500, (false, true), 0x32b62f002b947620, 0xe3fd85783609eb7, [467, 33, 36996, 21377, 966], 0x6ed2fee395c38c26),
    ("chains", 500, (true, true), 0x32b62f002b947620, 0xe3fd85783609eb7, [474, 26, 36076, 21404, 1000], 0x4c13714b563830f8),
    ("duplicates", 500, (false, false), 0xebab51cfbd41f730, 0x2196c989f15f7849, [0, 500, 505, 2515, 500], 0xfaaeaf0f8678b337),
    ("duplicates", 500, (true, false), 0xebab51cfbd41f730, 0x2196c989f15f7849, [0, 500, 505, 2515, 500], 0xfaaeaf0f8678b337),
    ("duplicates", 500, (false, true), 0xebab51cfbd41f730, 0x2196c989f15f7849, [0, 500, 505, 2515, 500], 0xfaaeaf0f8678b337),
    ("duplicates", 500, (true, true), 0xebab51cfbd41f730, 0x2196c989f15f7849, [0, 500, 505, 2515, 500], 0xfaaeaf0f8678b337),
    ("mixed", 500, (false, false), 0x26df72969940b6fe, 0xb264b912810f59ce, [492, 8, 28268, 37073, 431], 0x4b7044cc4a12584),
    ("mixed", 500, (true, false), 0x26df72969940b6fe, 0xb264b912810f59ce, [492, 8, 27735, 37073, 431], 0x4b7044cc4a12584),
    ("mixed", 500, (false, true), 0x26df72969940b6fe, 0xb264b912810f59ce, [492, 8, 28268, 37073, 431], 0x4b7044cc4a12584),
    ("mixed", 500, (true, true), 0x26df72969940b6fe, 0xb264b912810f59ce, [492, 8, 27735, 37073, 431], 0x4b7044cc4a12584),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn hist_digest(hists: &[(String, obs::Histogram)]) -> u64 {
    let mut h = FNV_SEED;
    for key in HIST_KEYS {
        fnv(&mut h, key.as_bytes());
        match hists.iter().find(|(k, _)| k == key) {
            None => fnv(&mut h, b"absent"),
            Some((_, hist)) => {
                fnv(&mut h, &hist.count().to_le_bytes());
                fnv(&mut h, &hist.sum().to_le_bytes());
                fnv(&mut h, &hist.max().to_le_bytes());
                for (bucket, count) in hist.nonzero_buckets() {
                    fnv(&mut h, &(bucket as u64).to_le_bytes());
                    fnv(&mut h, &count.to_le_bytes());
                }
            }
        }
    }
    h
}

fn counters(c: &Counters) -> [u64; 5] {
    [c.range_queries(), c.queries_saved(), c.dist_computations(), c.node_visits(), c.union_ops()]
}

#[test]
fn one_thread_engine_matches_the_golden_runs() {
    let mut got: Vec<Row> = Vec::new();
    for (n, dim, eps, min_pts) in SHAPES {
        let params = DbscanParams::new(eps, min_pts);
        for family in FAMILIES {
            let data = Dataset::from_rows(&DatasetSpec { family, n, dim, seed: 2019 }.rows());
            for knobs in [(false, false), (true, false), (false, true), (true, true)] {
                let mut algo = MuDbscan::from_params(params);
                algo.disable_dynamic_promotion = knobs.0;
                algo.disable_post_core_mc_skip = knobs.1;
                obs::reset();
                obs::enable();
                let out = algo.run(&data);
                obs::disable();
                let hists = obs::take_report().hists;

                let c = &out.clustering;
                let mut labels = FNV_SEED;
                c.labels.iter().for_each(|l| fnv(&mut labels, &l.to_le_bytes()));
                let mut core = FNV_SEED;
                c.is_core.iter().for_each(|&b| fnv(&mut core, &[b as u8]));
                let row = (
                    family.as_str(),
                    n,
                    knobs,
                    labels,
                    core,
                    counters(&out.counters),
                    hist_digest(&hists),
                );
                got.push(row);
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(f, n, k, l, c, cs, h)| {
            format!("    ({f:?}, {n}, {k:?}, {l:#x}, {c:#x}, {cs:?}, {h:#x}),\n")
        })
        .collect();
    assert_eq!(got.as_slice(), GOLDEN, "one-thread engine drifted; the runs gave:\n{table}");
}
