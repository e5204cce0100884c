//! Out-of-core sharded equivalence: the [`Family::Sharded`] executor
//! must be **bit-identical** to the naive oracle — same labels in the
//! same canonical order, same core flags — for every dataset family,
//! for every shard count, for every memory budget, and regardless of
//! whether the input arrives as an in-memory [`Dataset`] or a
//! memory-mapped on-disk chunk store. (Against the in-memory μDBSCAN
//! families the guarantee is paper-exactness: identical cores, core
//! partition and noise — DBSCAN leaves border ties order-defined, and
//! sequential μDBSCAN resolves them by processing order while the
//! sharded merge always picks the minimum-id core neighbour.)
//!
//! Why this holds by construction (and what the test pins): the shard
//! planner attaches the full ε-halo to every shard, so own-point core
//! flags are exact; the merge reconstructs the core partition from
//! per-shard seed groups plus globally-confirmed cross-shard core–core
//! edges; and borders are resolved canonically — each owned non-core
//! point records *all* of its ε-neighbours (there are < MinPts of
//! them), and the merge assigns it to its minimum-id globally-core
//! neighbour, which is exactly `naive_dbscan`'s first-core-wins rule
//! under ascending id order. `Clustering::from_union_find` then
//! canonicalises labels in point-id order, erasing any dependence on
//! shard geometry or thread interleaving.
//!
//! A regression anywhere in that chain (an under-gathered halo, a
//! dropped cross-shard edge, a border resolved by arrival order) shows
//! up here as a bitwise clustering diff.

use conformance::{DatasetSpec, Family as DataFamily, FAMILIES};
use geom::{Dataset, DbscanParams};
use mudbscan::naive_dbscan;
use mudbscan::prelude::{write_store, ChunkedStore, RunDetails, Runner};

fn dataset(family: DataFamily, n: usize, dim: usize, seed: u64) -> Dataset {
    Dataset::from_rows(&DatasetSpec { family, n, dim, seed }.rows())
}

/// Every dataset family × shard counts {1, 2, 4} must match the naive
/// oracle bit-for-bit.
#[test]
fn sharded_matches_oracle_across_families_and_shard_counts() {
    for (fi, family) in FAMILIES.into_iter().enumerate() {
        let data = dataset(family, 600, 3, 0xC0FFEE ^ fi as u64);
        let p = DbscanParams::new(0.6, 4);
        let oracle = naive_dbscan(&data, &p);
        for shards in [1usize, 2, 4] {
            let out = Runner::new(p).shards(shards).run(&data).expect("sharded run");
            assert_eq!(
                out.clustering, oracle,
                "{family:?} with {shards} shard(s) diverged from the oracle"
            );
        }
    }
}

/// Against the in-memory sequential run the contract is
/// paper-exactness in both directions: identical core flags, identical
/// core partition, identical noise — only border ties (order-defined
/// in DBSCAN itself) may resolve differently.
#[test]
fn sharded_is_paper_exact_vs_sequential() {
    use mudbscan::check_exact;
    for (fi, family) in FAMILIES.into_iter().enumerate() {
        let data = dataset(family, 600, 3, 0xBEEF ^ fi as u64);
        let p = DbscanParams::new(0.6, 4);
        let seq = Runner::new(p).run(&data).expect("sequential run");
        let shd = Runner::new(p).shards(4).run(&data).expect("sharded run");
        assert!(
            check_exact(&shd.clustering, &seq.clustering, &data, &p).is_exact(),
            "{family:?}: sharded not paper-exact vs sequential"
        );
        assert!(
            check_exact(&seq.clustering, &shd.clustering, &data, &p).is_exact(),
            "{family:?}: sequential not paper-exact vs sharded"
        );
        assert_eq!(shd.clustering.is_core, seq.clustering.is_core, "{family:?}: core flags");
    }
}

/// Shrinking memory budgets force ever more shards; the answer must
/// never move. The tightest budget is far below the raw dataset size,
/// so this also pins that the executor *works* under real pressure.
#[test]
fn sharded_is_budget_invariant() {
    let data = dataset(DataFamily::Mixed, 800, 2, 7);
    let p = DbscanParams::new(0.5, 5);
    let oracle = naive_dbscan(&data, &p);
    let raw = data.len() * data.dim() * std::mem::size_of::<f64>();
    for budget in [raw * 4, raw, raw / 2, raw / 8] {
        let out = Runner::new(p).memory_budget(budget.max(1)).run(&data).expect("sharded run");
        assert_eq!(out.clustering, oracle, "budget {budget} changed the clustering");
    }
}

/// Worker-thread count is a pure throughput knob: t1 and t4 must agree
/// bit-for-bit with each other and the oracle under the same budget.
#[test]
fn sharded_is_thread_invariant() {
    let data = dataset(DataFamily::Chains, 500, 3, 21);
    let p = DbscanParams::new(0.4, 4);
    let oracle = naive_dbscan(&data, &p);
    for threads in [1usize, 2, 4] {
        let out = Runner::new(p).shards(4).threads(threads).run(&data).expect("sharded run");
        assert_eq!(out.clustering, oracle, "t{threads} diverged");
    }
}

/// The mmap-backed store path must agree with the in-memory path for
/// the same logical dataset, at a chunk capacity that forces many
/// chunks and a ragged tail.
#[test]
fn store_and_dataset_paths_are_identical() {
    let data = dataset(DataFamily::Blobs, 700, 4, 99);
    let p = DbscanParams::new(0.7, 4);
    let dir = std::env::temp_dir().join("mudbscan-conformance-sharded");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("blobs.muds");
    write_store(&data, &path, 64).unwrap();
    let store = ChunkedStore::open(&path).unwrap();
    for shards in [1usize, 3] {
        let mem = Runner::new(p).shards(shards).run(&data).expect("in-memory");
        let ooc = Runner::new(p).shards(shards).run_source(&store).expect("store");
        assert_eq!(mem.clustering, ooc.clustering, "{shards} shard(s): store path diverged");
    }
    std::fs::remove_file(&path).ok();
}

/// Points exactly ε apart across a shard boundary: the open-ball
/// convention (strict `<`) means they are NOT neighbours, and the
/// sharded merge must not glue them. Points at ε − δ MUST be glued.
/// The split plane is driven between the two chains by the planner
/// because the two chains are the only mass in the dataset.
#[test]
fn shard_boundary_at_exactly_eps_respects_the_open_ball() {
    let eps = 1.0;
    let p = DbscanParams::new(eps, 3);
    // Two vertical chains of 4 points each, x = 0 and x = eps exactly:
    // each chain is dense (0.4 < eps steps) so every point is core, but
    // the chains are exactly eps apart — open ball says two clusters.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for i in 0..4 {
        rows.push(vec![0.0, 0.4 * i as f64]);
    }
    for i in 0..4 {
        rows.push(vec![eps, 0.4 * i as f64]);
    }
    let exact = Dataset::from_rows(&rows);
    let oracle = naive_dbscan(&exact, &p);
    for shards in [1usize, 2, 4] {
        let out = Runner::new(p).shards(shards).run(&exact).expect("sharded run");
        assert_eq!(out.clustering, oracle, "exactly-eps pair glued at {shards} shard(s)");
        assert_eq!(out.clustering.n_clusters, 2, "open ball: exactly-eps chains stay separate");
    }
    // Nudge the right chain inside the ball: one cluster, still exact.
    for row in rows.iter_mut().skip(4) {
        row[0] = eps - 1e-9;
    }
    let close = Dataset::from_rows(&rows);
    let oracle = naive_dbscan(&close, &p);
    for shards in [1usize, 2, 4] {
        let out = Runner::new(p).shards(shards).run(&close).expect("sharded run");
        assert_eq!(out.clustering, oracle, "eps-minus-delta pair split at {shards} shard(s)");
        assert_eq!(out.clustering.n_clusters, 1, "inside the ball: chains must merge");
    }
}

/// One engine: the BSP ranks (`.ranks(p)`) and the threaded shards
/// (`.shards(p)`) run the same planner, summary and merge, so they must
/// agree on the clustering AND on the work the merge saw — the same
/// halo points and the same cross-shard edges.
#[test]
fn ranks_and_shards_are_one_engine() {
    for (fi, family) in FAMILIES.into_iter().enumerate() {
        let data = dataset(family, 500, 3, 0x0E61 ^ fi as u64);
        let p = DbscanParams::new(0.6, 4);
        for n in [1usize, 2, 4, 7] {
            // The obs collector is process-global, but no other test in
            // this binary records `dist/*` keys.
            obs::reset();
            obs::enable();
            let ranks = Runner::new(p).ranks(n).run(&data).expect("distributed run");
            obs::disable();
            let report = obs::take_report();
            let shards = Runner::new(p).shards(n).run(&data).expect("sharded run");
            assert_eq!(ranks.clustering, shards.clustering, "{family:?} p={n}: clusterings differ");
            let RunDetails::Sharded { halo_points, edges, .. } = shards.details else {
                panic!("shards() must report sharded details");
            };
            assert_eq!(report.count("dist/halo_points"), halo_points, "{family:?} p={n}: halo");
            assert_eq!(report.count("dist/edges"), edges, "{family:?} p={n}: edges");
        }
    }
}
