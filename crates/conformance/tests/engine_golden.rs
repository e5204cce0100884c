//! Golden pin of the μDBSCAN engine at one thread.
//!
//! DBSCAN leaves a border point shared by two clusters to whichever
//! cluster claims it first, so `check_exact` accepts any claim order and
//! cannot see a change in the order the engine visits points or MCs.
//! This test can: on the five conformance families, under each of the
//! four ablation-knob combinations, it pins a digest of the labels, a
//! digest of the core flags, the five work counters and a digest of the
//! query-cost histograms to values recorded before the sequential and
//! parallel drivers became one engine. The one-thread run must stay the
//! sequential algorithm, step for step.

use conformance::{DatasetSpec, FAMILIES};
use geom::{Dataset, DbscanParams};
use metrics::Counters;
use mudbscan::MuDbscan;

/// Histograms a one-thread run records, in digest order. A key absent
/// from the report (no post-processing aux query ran) digests as such.
const HIST_KEYS: [&str; 5] = [
    "query/node_visits",
    "query/candidates",
    "query/leaf_evals",
    "rtree/bulk_load_entries",
    "postproc/node_visits",
];

/// `(n, dim, eps, min_pts)` of the two dataset shapes: the 300-point 3-d
/// shape the seq/par counter and histogram pins used, and a 2 000-point
/// 2-d shape with a mix of core, border and noise points in every family.
const SHAPES: [(usize, usize, f64, usize); 2] = [(300, 3, 0.6, 5), (2_000, 2, 0.15, 5)];

/// One golden row: family, n, `(no promotion, no MC skip)`, label
/// digest, core digest, `[range_queries, queries_saved,
/// dist_computations, node_visits, union_ops]`, histogram digest.
type Row = (&'static str, usize, (bool, bool), u64, u64, [u64; 5], u64);

/// Recorded with the sequential driver at the commit before the engine
/// merge.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("blobs", 300, (false, false), 0xe36763d253e928a6, 0xc557529d251390e1, [20, 280, 4257, 1186, 1786], 0x821479ea2b042ddf),
    ("blobs", 300, (true, false), 0xe36763d253e928a6, 0xc557529d251390e1, [201, 99, 21696, 2156, 12720], 0x10c945a3978d6f6c),
    ("blobs", 300, (false, true), 0xe36763d253e928a6, 0xc557529d251390e1, [20, 280, 4257, 1186, 1786], 0x821479ea2b042ddf),
    ("blobs", 300, (true, true), 0xe36763d253e928a6, 0xc557529d251390e1, [201, 99, 21696, 2156, 12720], 0x10c945a3978d6f6c),
    ("uniform", 300, (false, false), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19848, 12177, 665], 0xdecfddd09d7385cc),
    ("uniform", 300, (true, false), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19033, 12177, 665], 0xdecfddd09d7385cc),
    ("uniform", 300, (false, true), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19848, 12177, 665], 0xdecfddd09d7385cc),
    ("uniform", 300, (true, true), 0xf110126ffa12a4ce, 0x9b8bca7767289f40, [283, 17, 19033, 12177, 665], 0xdecfddd09d7385cc),
    ("chains", 300, (false, false), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [78, 222, 11699, 3871, 1947], 0xd42a5d00c49c6a6),
    ("chains", 300, (true, false), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [236, 64, 25485, 4849, 5021], 0x52ad195eaff5db3d),
    ("chains", 300, (false, true), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [78, 222, 11699, 3871, 1947], 0xd42a5d00c49c6a6),
    ("chains", 300, (true, true), 0x74b4429a2fdd70e5, 0xc557529d251390e1, [236, 64, 25485, 4849, 5021], 0x52ad195eaff5db3d),
    ("duplicates", 300, (false, false), 0x4be5752fa81c9a07, 0xc557529d251390e1, [65, 298, 9573, 1251, 528], 0xf9cc33359ad10061),
    ("duplicates", 300, (true, false), 0x4be5752fa81c9a07, 0xc557529d251390e1, [167, 196, 26865, 1910, 9520], 0x4d0d352c7ad016ef),
    ("duplicates", 300, (false, true), 0x4be5752fa81c9a07, 0xc557529d251390e1, [2, 298, 11589, 936, 528], 0xa53bc4285f759520),
    ("duplicates", 300, (true, true), 0x4be5752fa81c9a07, 0xc557529d251390e1, [104, 196, 28881, 1595, 9520], 0xf5276f18e574f266),
    ("mixed", 300, (false, false), 0x3f11273027fbe42d, 0x4577b63df4912c7, [124, 176, 4472, 12704, 1087], 0xbb4a68df9e19d0c9),
    ("mixed", 300, (true, false), 0x3f11273027fbe42d, 0x4577b63df4912c7, [242, 58, 11946, 13258, 5387], 0xc04944a8923f93fc),
    ("mixed", 300, (false, true), 0x3f11273027fbe42d, 0x4577b63df4912c7, [124, 176, 4472, 12704, 1087], 0xbb4a68df9e19d0c9),
    ("mixed", 300, (true, true), 0x3f11273027fbe42d, 0x4577b63df4912c7, [242, 58, 11946, 13258, 5387], 0xc04944a8923f93fc),
    ("blobs", 2000, (false, false), 0x78a5eef9c333c057, 0x1116fbf516faab35, [100, 1900, 44009, 16305, 10520], 0x8aabb35ab2037dd8),
    ("blobs", 2000, (true, false), 0x78a5eef9c333c057, 0x1116fbf516faab35, [1278, 722, 344602, 31497, 95504], 0x8ba1b0840069be5b),
    ("blobs", 2000, (false, true), 0x78a5eef9c333c057, 0x1116fbf516faab35, [100, 1900, 44009, 16305, 10520], 0x8aabb35ab2037dd8),
    ("blobs", 2000, (true, true), 0x78a5eef9c333c057, 0x1116fbf516faab35, [1278, 722, 344602, 31497, 95504], 0x8ba1b0840069be5b),
    ("uniform", 2000, (false, false), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1445, 559, 90009, 29924, 10181], 0x638793d39b37669),
    ("uniform", 2000, (true, false), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1720, 284, 88252, 30931, 11705], 0x5f344679e5d89029),
    ("uniform", 2000, (false, true), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1441, 559, 90004, 29920, 10181], 0x3a68f16f7c146590),
    ("uniform", 2000, (true, true), 0x5155449f42aaa5f, 0xa56d621b8fedbc67, [1716, 284, 88247, 30927, 11705], 0x7894e6ed2a9a9a50),
    ("chains", 2000, (false, false), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1514, 490, 66727, 31845, 6892], 0xf710fd425a1de3d7),
    ("chains", 2000, (true, false), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1761, 241, 68800, 32763, 8511], 0x2d56e11363404ae8),
    ("chains", 2000, (false, true), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1510, 490, 66718, 31841, 6892], 0x4d26811ff58ce2b2),
    ("chains", 2000, (true, true), 0x99ed48d18ec41d48, 0x18fcdbfb3e65240c, [1759, 241, 68797, 32761, 8511], 0xff54162269ba4b3b),
    ("duplicates", 2000, (false, false), 0x2788cc79f0933255, 0x1116fbf516faab35, [1, 1999, 3688, 8045, 2827], 0xf31a46022e1b8721),
    ("duplicates", 2000, (true, false), 0x2788cc79f0933255, 0x1116fbf516faab35, [410, 1590, 352714, 19489, 256498], 0x8704edb4253414fa),
    ("duplicates", 2000, (false, true), 0x2788cc79f0933255, 0x1116fbf516faab35, [1, 1999, 3688, 8045, 2827], 0xf31a46022e1b8721),
    ("duplicates", 2000, (true, true), 0x2788cc79f0933255, 0x1116fbf516faab35, [410, 1590, 352714, 19489, 256498], 0x8704edb4253414fa),
    ("mixed", 2000, (false, false), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [863, 1137, 40223, 30662, 5969], 0x7db7654c92a2b8b2),
    ("mixed", 2000, (true, false), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [1574, 426, 163001, 37501, 37581], 0x36c6749069d05743),
    ("mixed", 2000, (false, true), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [863, 1137, 40223, 30662, 5969], 0x7db7654c92a2b8b2),
    ("mixed", 2000, (true, true), 0x59c4107163d149a1, 0x23dd18ee6f3b97a3, [1574, 426, 163001, 37501, 37581], 0x36c6749069d05743),
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
