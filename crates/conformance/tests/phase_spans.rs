//! Phases and spans agree: every phase an algorithm reports in its
//! `PhaseTimer` is also an `obs` span directly under that run's root
//! span, because one `PhaseTimer::phase` call records both. A phase
//! that is timed but not traced (or traced under another name) fails
//! here.

use baselines::{GDbscan, GridDbscan, RDbscan};
use conformance::{DatasetSpec, Family};
use geom::{Dataset, DbscanParams};
use metrics::PhaseTimer;
use mudbscan::prelude::Runner;

/// Run `f` with `obs` enabled; return its phase timer and the drained
/// span paths.
fn traced(f: impl FnOnce() -> PhaseTimer) -> (PhaseTimer, Vec<String>) {
    obs::reset();
    obs::enable();
    let phases = f();
    obs::disable();
    let spans = obs::take_report().spans.into_iter().map(|(path, _)| path).collect();
    (phases, spans)
}

/// The global `obs` store is process-wide, so every arm runs in this one
/// test, one after another.
#[test]
fn every_phase_is_a_span_under_the_run_root() {
    let spec = DatasetSpec { family: Family::Blobs, n: 600, dim: 3, seed: 7 };
    let data = Dataset::from_rows(&spec.rows());
    let params = DbscanParams::new(0.6, 5);
    let run = |runner: Runner| runner.run(&data).expect("facade run").phases;
    let arms: [(&str, &dyn Fn() -> PhaseTimer); 5] = [
        ("mudbscan", &|| run(Runner::new(params))),
        ("par_mudbscan", &|| run(Runner::new(params).threads(2))),
        ("rdbscan", &|| RDbscan::new(params).run(&data).phases),
        ("gdbscan", &|| GDbscan::new(params).run(&data).phases),
        ("griddbscan", &|| GridDbscan::new(params).run(&data).expect("within budget").phases),
    ];
    for (root, arm) in arms {
        let (phases, spans) = traced(arm);
        assert!(phases.iter().count() >= 3, "{root}: too few phases to check");
        for (name, _) in phases.iter() {
            let path = format!("{root}/{name}");
            assert!(spans.contains(&path), "{root}: phase {name} has no span {path}; {spans:?}");
        }
    }
}
