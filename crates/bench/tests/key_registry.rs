//! Registry audit: every obs key emitted by an instrumented full run
//! must be documented in `docs/OBSERVABILITY.md`.
//!
//! The doc's "## Key registry" section lists every counter, value,
//! histogram, and span name as a backticked entry. Entries may use
//! angle-bracket wildcard segments (e.g. `bsp/<phase>/comm_bytes`) for
//! families keyed by a dynamic name; an entry made only of wildcards
//! matches nothing, so prose that names the wildcard syntax cannot
//! document every key. A new `obs::record_*` call or span whose key is
//! not in the registry fails here, keeping the docs and the
//! instrumentation in lock-step.

use data::paper_table2_specs;
use dist::{DistConfig, MuDbscanD, ShardedMuDbscan, ShardedOptions};
use mudbscan::MuDbscan;
use std::collections::BTreeSet;

/// `key` matches `entry` if they are equal segment-by-segment, with
/// `<...>` entry segments matching any single key segment. An entry
/// with no literal segment matches nothing.
fn matches(entry: &str, key: &str) -> bool {
    let wild = |s: &&str| s.starts_with('<') && s.ends_with('>');
    let es: Vec<&str> = entry.split('/').collect();
    let ks: Vec<&str> = key.split('/').collect();
    !es.iter().all(wild)
        && es.len() == ks.len()
        && es.iter().zip(&ks).all(|(e, k)| e == k || wild(e))
}

fn registry_doc() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/OBSERVABILITY.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// All backticked strings in the doc's "## Key registry" section, up to
/// the next `## ` heading.
fn registry_entries(doc: &str) -> Vec<String> {
    let section = doc
        .split("\n## Key registry\n")
        .nth(1)
        .expect("docs/OBSERVABILITY.md must have a '## Key registry' section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut out = Vec::new();
    for chunk in section.split('`').skip(1).step_by(2) {
        if !chunk.is_empty() && !chunk.contains('\n') {
            out.push(chunk.to_string());
        }
    }
    assert!(!out.is_empty(), "key registry section has no backticked entries");
    out
}

#[test]
fn every_emitted_key_is_documented() {
    let entries = registry_entries(&registry_doc());

    // One instrumented run of each execution mode on a small workload
    // exercises every emission site: sequential, shared-memory parallel
    // (two workers), distributed (BSP + halo), and the
    // out-of-core sharded executor (shard planning, gather, merge).
    let spec = &paper_table2_specs()[0];
    let data = spec.generate_n(600, 2019);
    obs::reset();
    obs::enable();
    let _ = MuDbscan::from_params(spec.params).run(&data);
    let _ = MuDbscan::from_params(spec.params).threads(2).run(&data);
    let _ = MuDbscanD::from_params(spec.params, DistConfig::new(2)).run(&data).expect("dist run");
    let _ = ShardedMuDbscan::new(
        spec.params,
        ShardedOptions { shards: Some(2), threads: 2, ..Default::default() },
    )
    .run_source(&data);
    obs::disable();
    let report = obs::take_report();
    obs::reset();

    let mut keys: BTreeSet<String> = BTreeSet::new();
    keys.extend(report.counts.iter().map(|(k, _)| k.clone()));
    keys.extend(report.values.iter().map(|(k, _)| k.clone()));
    keys.extend(report.hists.iter().map(|(k, _)| k.clone()));
    // Span paths are compositional (`dist/local_clustering/mudbscan/...`),
    // so the registry lists span *names*; audit each unique segment.
    for (path, _) in &report.spans {
        keys.extend(path.split('/').map(str::to_string));
    }
    assert!(keys.len() > 20, "instrumented run emitted suspiciously few keys: {keys:?}");

    let undocumented: Vec<&String> =
        keys.iter().filter(|k| !entries.iter().any(|e| matches(e, k))).collect();
    assert!(
        undocumented.is_empty(),
        "obs keys missing from the '## Key registry' section of docs/OBSERVABILITY.md: \
         {undocumented:?}"
    );
}

#[test]
fn wildcard_matching_rules() {
    assert!(matches("query/node_visits", "query/node_visits"));
    assert!(matches("bsp/<phase>/comm_bytes", "bsp/halo_exchange/comm_bytes"));
    assert!(!matches("bsp/<phase>/comm_bytes", "bsp/comm_bytes"));
    assert!(!matches("query/node_visits", "query/candidates"));
    assert!(!matches("<...>", "mudbscan"));
    assert!(!matches("<a>/<b>", "bsp/comm_bytes"));
}

#[test]
fn an_undocumented_segment_is_reported() {
    let entries = registry_entries(&registry_doc());
    let documented: Vec<&String> =
        entries.iter().filter(|e| matches(e, "undocumented_made_up_span")).collect();
    assert!(documented.is_empty(), "a made-up segment matched {documented:?}");
}
