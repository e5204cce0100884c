//! Degenerate input against every batch family of the facade: an exact
//! answer or a typed error, never a panic.
//!
//! The grid crosses three inputs (empty, fewer points than MinPts, and
//! 60 galaxy points) with extreme radii — a subnormal ε, tiny, huge and
//! `f64::MAX` — and MinPts 1, 5 and 100, and runs each cell through
//! μDBSCAN at one and two threads, μDBSCAN-D on three ranks, the sharded
//! engine on three shards and under a memory budget (in memory and
//! from a chunked store), the streaming engine and OPTICS. Every run
//! must either return `Ok` with a clustering exact against
//! `naive_dbscan`, or return a [`MuDbscanError`].

use geom::{Dataset, DbscanParams};
use mudbscan::prelude::{write_store, ChunkedStore, DataSource, Family, MuDbscanError, Runner};
use mudbscan::{check_exact, naive_dbscan};
use std::panic::{catch_unwind, AssertUnwindSafe};

const DIM: usize = 3;

/// Radii from a subnormal to the largest finite `f64`. Each is positive
/// and finite; the two smallest square to 0, which the facade rejects
/// with a typed error (no point would lie strictly within ε of itself).
const RADII: [f64; 5] = [1e-310, 1e-300, 1e150, 1e300, f64::MAX];

const MIN_PTS: [usize; 3] = [1, 5, 100];

/// The batch families, each with a label.
fn runners(params: DbscanParams, budget: usize) -> Vec<(&'static str, Runner)> {
    vec![
        ("mu t1", Runner::new(params)),
        ("mu t2", Runner::new(params).threads(2)),
        ("ranks 3", Runner::new(params).ranks(3)),
        ("shards 3", Runner::new(params).shards(3)),
        ("memory budget", Runner::new(params).memory_budget(budget)),
        ("streaming", Runner::new(params).family(Family::Streaming)),
        ("optics", Runner::new(params).family(Family::Optics)),
    ]
}

/// `Ok(())` when `run` returned an exact clustering or a typed error;
/// otherwise what went wrong.
fn judge(
    run: impl FnOnce() -> Result<mudbscan::prelude::RunOutput, MuDbscanError>,
    data: &Dataset,
    params: &DbscanParams,
) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(run)) {
        Err(_) => Err("panicked".into()),
        Ok(Err(_typed)) => Ok(()),
        Ok(Ok(out)) => {
            let rep = check_exact(&out.clustering, &naive_dbscan(data, params), data, params);
            if rep.is_exact() {
                Ok(())
            } else {
                Err(format!("inexact: {rep:?}"))
            }
        }
    }
}

#[test]
fn every_batch_family_is_exact_or_a_typed_error_on_degenerate_input() {
    let galaxy = data::galaxy(60, DIM, 2019);
    let few = Dataset::from_rows(&(0..4).map(|i| galaxy.point(i).to_vec()).collect::<Vec<_>>());
    let inputs = [("empty", Dataset::empty(DIM)), ("n < MinPts", few), ("galaxy 60", galaxy)];
    let dir = std::env::temp_dir().join(format!("mudbscan-facade-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut failures = Vec::new();
    let mut runs = 0;
    for (name, data) in &inputs {
        let path = dir.join(format!("{}.muds", data.len()));
        write_store(data, &path, 16).unwrap();
        let store = ChunkedStore::open(&path).unwrap();
        // Half the raw coordinate bytes, so a non-empty input needs more
        // than one shard.
        let budget = (data.len() * DIM * 8 / 2).max(1);
        for eps in RADII {
            for min_pts in MIN_PTS {
                let params = DbscanParams::new(eps, min_pts);
                let mut cell = |label: &str, r: Result<(), String>| {
                    runs += 1;
                    if let Err(why) = r {
                        failures.push(format!(
                            "{label} on {name}, eps {eps:e}, MinPts {min_pts}: {why}"
                        ));
                    }
                };
                for (label, runner) in runners(params, budget) {
                    cell(label, judge(|| runner.run(data), data, &params));
                }
                let runner = Runner::new(params).memory_budget(budget);
                let src: &dyn DataSource = &store;
                cell("memory budget, store", judge(|| runner.run_source(src), data, &params));
            }
        }
        drop(store);
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir(&dir).ok();
    assert_eq!(runs, inputs.len() * RADII.len() * MIN_PTS.len() * 8);
    assert!(
        failures.is_empty(),
        "{} of {runs} runs failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
