//! Facade round-trip: for every family, a [`Runner`]-built instance must
//! produce a clustering bit-identical to the directly-built (low-level)
//! construction it wraps, every low-level constructor must remain
//! usable on its own, and bad input is a typed error, never a panic.

use dist::{DistConfig, MuDbscanD};
use mudbscan::prelude::{write_store, ChunkedStore, Family, MuDbscanError, RunDetails, Runner};
use mudbscan::{Clustering, MuDbscan};
use optics::{extract_dbscan, Optics};
use stream::StreamingMuDbscan;

/// Runs `runner` and returns its clustering, panicking with `tag` context
/// on any facade-level error.
fn via_runner(runner: Runner, data: &geom::Dataset, tag: &str) -> Clustering {
    runner.run(data).unwrap_or_else(|e| panic!("{tag}: facade run failed: {e}")).clustering
}

#[test]
fn runner_output_is_bit_identical_to_direct_construction() {
    for spec in data::paper_table2_specs().iter().take(3) {
        let dataset = spec.generate_n(600, 13);
        let params = spec.params;
        let tag = spec.name;

        // Sequential: Runner::new(params) vs MuDbscan::from_params(params).
        let direct = MuDbscan::from_params(params).run(&dataset).clustering;
        assert_eq!(via_runner(Runner::new(params), &dataset, tag), direct, "{tag}: sequential");

        // Parallel: .threads(4) vs MuDbscan::from_params(params).threads(4).
        let direct = MuDbscan::from_params(params).threads(4).run(&dataset).clustering;
        assert_eq!(
            via_runner(Runner::new(params).threads(4), &dataset, tag),
            direct,
            "{tag}: parallel"
        );

        // Distributed: .ranks(4) vs MuDbscanD::from_params(params, DistConfig::new(4)).
        let direct =
            MuDbscanD::from_params(params, DistConfig::new(4)).run(&dataset).unwrap().clustering;
        assert_eq!(
            via_runner(Runner::new(params).ranks(4), &dataset, tag),
            direct,
            "{tag}: distributed"
        );

        // Streaming: .family(Family::Streaming) vs bulk-loaded snapshot.
        let direct = StreamingMuDbscan::from_dataset(&dataset, params).canonical_snapshot();
        assert_eq!(
            via_runner(Runner::new(params).family(Family::Streaming), &dataset, tag),
            direct,
            "{tag}: streaming"
        );

        // OPTICS: .family(Family::Optics) vs extract_dbscan at eps' = eps.
        let direct =
            extract_dbscan(&Optics::from_params(params).run(&dataset), &dataset, params.eps);
        assert_eq!(
            via_runner(Runner::new(params).family(Family::Optics), &dataset, tag),
            direct,
            "{tag}: optics"
        );
    }
}

#[test]
fn run_details_report_the_resolved_family() {
    let spec = &data::paper_table2_specs()[0];
    let dataset = spec.generate_n(200, 5);
    let params = spec.params;

    let out = Runner::new(params).ranks(2).run(&dataset).unwrap();
    let RunDetails::Distributed { ranks, supersteps, ref fault_stats, .. } = out.details else {
        panic!("expected distributed details");
    };
    assert_eq!(ranks, 2);
    assert!(supersteps > 0);
    assert!(fault_stats.is_quiet(), "fault-free run must report quiet fault stats");

    // One engine: every thread count reports the same μDBSCAN details.
    for threads in [1, 2] {
        let out = Runner::new(params).threads(threads).run(&dataset).unwrap();
        let RunDetails::MuDbscan { mc_count, peak_heap_bytes, .. } = out.details else {
            panic!("t{threads}: expected MuDbscan details");
        };
        assert!(mc_count > 0 && peak_heap_bytes > 0, "t{threads}");
    }
}

#[test]
fn low_level_constructors_compile_and_run() {
    let spec = &data::paper_table2_specs()[0];
    let dataset = spec.generate_n(120, 3);
    let params = spec.params;
    let oracle = mudbscan::naive_dbscan(&dataset, &params);

    // Each per-family type must remain usable without the facade (the
    // facade and crates like `dist` build on these entry points).
    assert_eq!(MuDbscan::from_params(params).run(&dataset).clustering, oracle);
    assert_eq!(MuDbscan::from_params(params).threads(2).run(&dataset).clustering, oracle);
    assert_eq!(
        MuDbscanD::from_params(params, DistConfig::new(2)).run(&dataset).unwrap().clustering,
        oracle
    );
    let mut stream = StreamingMuDbscan::empty(dataset.dim(), params);
    for p in 0..dataset.len() {
        stream.insert(dataset.point(p as geom::PointId));
    }
    assert_eq!(stream.canonical_snapshot(), oracle);
    let optics_out = Optics::from_params(params).run(&dataset);
    assert_eq!(extract_dbscan(&optics_out, &dataset, params.eps), oracle);
}

#[test]
fn non_finite_input_is_a_typed_error_on_every_batch_family() {
    let params = geom::DbscanParams::new(0.5, 3);
    let runners = || {
        [
            Runner::new(params),
            Runner::new(params).threads(2),
            Runner::new(params).ranks(2),
            Runner::new(params).shards(2),
            Runner::new(params).family(Family::Streaming),
            Runner::new(params).family(Family::Optics),
        ]
    };
    for bad in [f64::NAN, f64::INFINITY] {
        let data = geom::Dataset::from_rows(&[vec![0.0, 0.0], vec![0.1, bad], vec![0.2, 0.0]]);
        for runner in runners() {
            let family = runner.resolved_family();
            match runner.run(&data) {
                Err(MuDbscanError::InvalidInput(msg)) => {
                    assert!(msg.contains("point 1, component 1"), "{family:?}: {msg}")
                }
                other => {
                    panic!("{family:?} on {bad}: expected InvalidInput, got {:?}", other.err())
                }
            }
        }

        // A chunked store goes through the same check.
        let dir = std::env::temp_dir().join("mudbscan-facade-non-finite");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bad-{bad}.muds"));
        write_store(&data, &path, 2).unwrap();
        let store = ChunkedStore::open(&path).unwrap();
        for runner in [Runner::new(params), Runner::new(params).shards(2)] {
            let err = runner.run_source(&store).err();
            assert!(matches!(err, Some(MuDbscanError::InvalidInput(_))), "store: {err:?}");
        }
        std::fs::remove_file(&path).ok();
    }
}
