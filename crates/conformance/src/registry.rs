//! The registry of every exact DBSCAN implementation in the workspace.
//!
//! Each entry wraps one concrete configuration behind the [`ExactDbscan`]
//! trait so the differential harness can run them uniformly. The goal is
//! coverage of *configurations*, not just algorithms: the one-thread
//! μDBSCAN appears once per ablation-knob combination, the same engine
//! once per further thread count, and the distributed simulator once per
//! rank count, because each of those choices takes different code paths
//! (wndq promotion, border claiming, halo merge) that have historically
//! been where exactness bugs hide.
//!
//! All μDBSCAN families are constructed through
//! [`mudbscan::prelude::Runner`]; only the non-μDBSCAN baselines
//! (R-tree, G-, Grid-DBSCAN) call their own constructors.

use baselines::{GDbscan, GridDbscan, RDbscan};
use geom::{Dataset, DbscanParams};
use metrics::mem::MemBudget;
use metrics::Counters;
use mudbscan::prelude::{BuildOptions, Family, Runner, ServeOp};
use mudbscan::Clustering;

/// An exact DBSCAN implementation under one fixed configuration.
///
/// `run` returns `Err` only when the implementation declines the input by
/// design (e.g. GridDBSCAN's memory budget at high dimension); the harness
/// records such cases as skips, never as disagreements.
pub trait ExactDbscan: Sync {
    /// Stable identifier used in failure artifacts and reports.
    fn name(&self) -> &'static str;
    /// Cluster `data` under `params`, with the run's work counters.
    fn run(&self, data: &Dataset, params: &DbscanParams) -> Result<(Clustering, Counters), String>;
}

/// Any μDBSCAN family, via the facade: `configure` turns the fresh
/// per-run `Runner::new(params)` into this entry's configuration.
struct Facade {
    name: &'static str,
    configure: fn(Runner) -> Runner,
}

impl ExactDbscan for Facade {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, data: &Dataset, params: &DbscanParams) -> Result<(Clustering, Counters), String> {
        (self.configure)(Runner::new(*params))
            .run(data)
            .map(|out| (out.clustering, out.counters))
            .map_err(|e| e.to_string())
    }
}

/// The serving engine, started by `Runner::serve`: every point is
/// ingested as one batch through the writer thread, then the engine is
/// shut down and the drained snapshot's clustering returned with the
/// writer's counters.
struct Served;

impl ExactDbscan for Served {
    fn name(&self) -> &'static str {
        "mu-serve"
    }

    fn run(&self, data: &Dataset, params: &DbscanParams) -> Result<(Clustering, Counters), String> {
        let handle = Runner::new(*params).serve(data.dim()).map_err(|e| e.to_string())?;
        let ops = data.iter().map(|(_, c)| ServeOp::insert(c.to_vec())).collect();
        handle.ingest(ops).map_err(|e| e.to_string())?;
        let drained = handle.shutdown().map_err(|e| e.to_string())?;
        Ok((drained.snapshot.clustering().clone(), drained.counters))
    }
}

struct RBaseline;

impl ExactDbscan for RBaseline {
    fn name(&self) -> &'static str {
        "rdbscan"
    }

    fn run(&self, data: &Dataset, params: &DbscanParams) -> Result<(Clustering, Counters), String> {
        let out = RDbscan::new(*params).run(data);
        Ok((out.clustering, out.counters))
    }
}

struct GBaseline;

impl ExactDbscan for GBaseline {
    fn name(&self) -> &'static str {
        "gdbscan"
    }

    fn run(&self, data: &Dataset, params: &DbscanParams) -> Result<(Clustering, Counters), String> {
        let out = GDbscan::new(*params).run(data);
        Ok((out.clustering, out.counters))
    }
}

struct GridBaseline;

impl ExactDbscan for GridBaseline {
    fn name(&self) -> &'static str {
        "grid-dbscan"
    }

    fn run(&self, data: &Dataset, params: &DbscanParams) -> Result<(Clustering, Counters), String> {
        // The grid baseline's neighbour-cell lists grow ~(2⌈√d⌉+1)^d; under
        // its default 4 GB budget a d=8 case still enumerates hundreds of
        // thousands of offsets before finishing, which would dominate the
        // whole suite. A 256 KB structure budget keeps it a full
        // participant through d≈5 and turns higher dimensions into the
        // paper's "Mem Err" outcome, which the harness records as a skip.
        GridDbscan::new(*params)
            .with_budget(MemBudget::new(256 << 10))
            .run(data)
            .map(|out| (out.clustering, out.counters))
            .map_err(|e| e.to_string())
    }
}

/// Every registered implementation/configuration.
pub fn registry() -> Vec<Box<dyn ExactDbscan>> {
    vec![
        // Sequential μDBSCAN: the 2×2 algorithm-knob grid with default
        // build options...
        Box::new(Facade { name: "mu-seq", configure: |r| r }),
        Box::new(Facade {
            name: "mu-seq/no-promotion",
            configure: |r| r.disable_dynamic_promotion(true),
        }),
        Box::new(Facade {
            name: "mu-seq/no-mc-skip",
            configure: |r| r.disable_post_core_mc_skip(true),
        }),
        Box::new(Facade {
            name: "mu-seq/no-promotion/no-mc-skip",
            configure: |r| r.disable_dynamic_promotion(true).disable_post_core_mc_skip(true),
        }),
        // ...plus the build-stage ablation, which changes the MC
        // decomposition itself and therefore every downstream step.
        Box::new(Facade {
            name: "mu-seq/no-2eps-deferral",
            configure: |r| r.options(BuildOptions { two_eps_deferral: false }),
        }),
        // The same engine on worker threads (the one-thread run is
        // `mu-seq`; 8 usually oversubscribes CI and stresses the
        // border-claim/promotion interleavings).
        Box::new(Facade { name: "mu-par/t2", configure: |r| r.threads(2) }),
        Box::new(Facade { name: "mu-par/t4", configure: |r| r.threads(4) }),
        Box::new(Facade { name: "mu-par/t8", configure: |r| r.threads(8) }),
        // Sequential baselines.
        Box::new(RBaseline),
        Box::new(GBaseline),
        Box::new(GridBaseline),
        // μDBSCAN-D across simulated rank counts (1 pins the trivial
        // partition; 2 and 4 exercise halos and the cross-partition merge).
        Box::new(Facade { name: "mu-dist/r1", configure: |r| r.ranks(1) }),
        Box::new(Facade { name: "mu-dist/r2", configure: |r| r.ranks(2) }),
        Box::new(Facade { name: "mu-dist/r4", configure: |r| r.ranks(4) }),
        // The remaining two families of the facade: the incremental
        // algorithm bulk-loaded from the dataset, and DBSCAN extracted
        // from the OPTICS ordering at the generating ε. Both must agree
        // bit-for-bit with everything above.
        Box::new(Facade { name: "mu-stream", configure: |r| r.family(Family::Streaming) }),
        Box::new(Facade { name: "optics-extract", configure: |r| r.family(Family::Optics) }),
        // The serving engine run as a one-shot (see `Served`). The
        // concurrent-epoch behaviour has its own linearizability suite
        // (tests/serve_linearizability.rs); this entry keeps the
        // snapshot-canonicalization path inside the differential sweep.
        Box::new(Served),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let regs = registry();
        let mut names: Vec<_> = regs.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), regs.len(), "duplicate registry names");
    }

    #[test]
    fn every_entry_runs_on_a_tiny_dataset() {
        let data =
            Dataset::from_rows(&[vec![0.0, 0.0], vec![0.2, 0.0], vec![0.0, 0.2], vec![8.0, 8.0]]);
        let params = DbscanParams::new(0.5, 3);
        let reference = mudbscan::naive_dbscan(&data, &params);
        for imp in registry() {
            let (clustering, _) = imp
                .run(&data, &params)
                .unwrap_or_else(|e| panic!("{} declined a 2-d toy input: {e}", imp.name()));
            let report = mudbscan::check_exact(&clustering, &reference, &data, &params);
            assert!(report.is_exact(), "{} inexact on toy input: {report:?}", imp.name());
        }
    }
}
