//! Ablation study of μDBSCAN's design choices (DESIGN.md §7–§8): each
//! knob toggled in isolation on one galaxy analogue, reporting runtime,
//! query counts and micro-cluster statistics. Clustering equality with
//! the default configuration is asserted for every variant.
//!
//! ```text
//! cargo run --release -p bench --bin repro_ablation
//! ```

use bench::{banner, secs, timed, SEED};
use metrics::Table;
use mudbscan::prelude::*;

fn main() {
    banner(
        "Ablations — μDBSCAN design choices",
        "2ε deferral, dynamic promotion, post-core MC skip",
        "galaxy analogue, 60K points, eps=0.8, MinPts=5",
    );

    let dataset = data::galaxy(60_000, 3, SEED);
    let params = DbscanParams::new(0.8, 5);

    struct Variant {
        name: &'static str,
        runner: Runner,
    }
    let base = Runner::new(params);
    let variants = vec![
        Variant { name: "default (paper + MC-skip)", runner: base.clone() },
        Variant {
            name: "no 2ε deferral",
            runner: base.clone().options(BuildOptions { two_eps_deferral: false }),
        },
        Variant {
            name: "no dynamic promotion",
            runner: base.clone().disable_dynamic_promotion(true),
        },
        Variant {
            name: "paper-faithful post-core",
            runner: base.clone().disable_post_core_mc_skip(true),
        },
    ];

    let mut t = Table::new(&[
        "variant",
        "time",
        "vs default",
        "MCs",
        "queries run",
        "% saved",
        "dists (M)",
    ]);
    let mut reference = None;
    let mut base_time = 0.0;
    for v in variants {
        eprintln!("[{}] ...", v.name);
        let (out, elapsed) = timed(|| v.runner.run(&dataset).expect("sequential run"));
        match &reference {
            None => {
                reference = Some(out.clustering.clone());
                base_time = elapsed;
            }
            Some(r) => {
                assert_eq!(&out.clustering, r, "{}: ablation changed the clustering!", v.name)
            }
        }
        let mc_count = match out.details {
            RunDetails::MuDbscan { mc_count, .. } => mc_count,
            ref other => panic!("expected MuDbscan details, got {other:?}"),
        };
        t.row(&[
            v.name.to_string(),
            secs(elapsed),
            format!("{:+.1}%", 100.0 * (elapsed - base_time) / base_time),
            mc_count.to_string(),
            out.counters.range_queries().to_string(),
            format!("{:.1}%", out.counters.pct_queries_saved()),
            format!("{:.1}", out.counters.dist_computations() as f64 / 1e6),
        ]);
    }

    println!("measured (every variant produces the identical exact clustering):");
    t.print();
    println!("\nreading guide: the 2ε rule trades construction work for fewer MCs;");
    println!("dynamic promotion buys extra query savings; the MC-granularity");
    println!("post-core skip (DESIGN.md §8.1) is where this implementation");
    println!("improves on the paper's Algorithm 7.");
}
