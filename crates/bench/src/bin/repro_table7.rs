//! Table VII reproduction: percentage split-up of μDBSCAN-D's phases
//! (including the merge) on 32 simulated ranks, with the absolute
//! runtime, the bytes communicated, and the partitioning wall time at
//! 32 and 128 ranks.
//!
//! ```text
//! cargo run --release -p bench --bin repro_table7
//! ```

use bench::{banner, SEED};
use geom::DbscanParams;
use metrics::Table;
use mudbscan::prelude::{RunDetails, Runner};

const PAPER: &[(&str, &str, &str, &str, &str, &str)] = &[
    ("FOF28M14D", "4.19%", "1.04%", "80.94%", "8.52%", "3.88%"),
    ("MPAGD100M3D", "8.09%", "3.95%", "25.32%", "40.99%", "1.83%"),
    ("FOF56M3D", "26.39%", "1.6%", "10.74%", "39.4%", "2.27%"),
];

fn main() {
    banner(
        "Table VII — % split-up of μDBSCAN-D steps (32 ranks)",
        "tree construction / reachable groups / clustering / post-processing / merging",
        "galaxy analogues at 20K–100K points; virtual per-phase makespans",
    );

    let workloads = [
        ("FOF28M14D", data::galaxy(20_000, 14, SEED), DbscanParams::new(16.0, 5)),
        ("MPAGD100M3D", data::galaxy(100_000, 3, SEED), DbscanParams::new(0.7, 5)),
        ("FOF56M3D", data::galaxy(80_000, 3, SEED), DbscanParams::new(1.4, 6)),
    ];

    let mut ours = Table::new(&[
        "dataset",
        "tree constr.",
        "reachable",
        "clustering",
        "post-proc.",
        "merging",
        "runtime",
        "comm",
    ]);
    let mut planner = Table::new(&["dataset", "p=32", "p=128"]);

    for (name, dataset, params) in &workloads {
        eprintln!("[{name}] ...");
        let mut part_secs = Vec::new();
        for ranks in [32, 128] {
            let out = Runner::new(*params).ranks(ranks).run(dataset).expect("distributed run");
            part_secs.push(format!("{:.1} ms", 1e3 * out.phases.secs("partitioning")));
            if ranks != 32 {
                continue;
            }
            // Percentages over the reported runtime (partitioning
            // excluded, as in the paper).
            let (total, comm_bytes) = match out.details {
                RunDetails::Distributed { runtime_secs, comm_bytes, .. } => {
                    (runtime_secs, comm_bytes)
                }
                ref other => panic!("expected Distributed details, got {other:?}"),
            };
            let pct = |phase: &str| format!("{:.2}%", 100.0 * out.phases.secs(phase) / total);
            ours.row(&[
                name.to_string(),
                pct("tree_construction"),
                pct("finding_reachable"),
                pct("clustering"),
                pct("post_processing"),
                pct("merging"),
                format!("{:.1} ms", 1e3 * total),
                format!("{:.2} MB", comm_bytes as f64 / 1e6),
            ]);
        }
        planner.row(&[name.to_string(), part_secs[0].clone(), part_secs[1].clone()]);
    }

    println!("measured (runtime = virtual makespan excluding partitioning):");
    ours.print();

    println!("\npartitioning wall time (shard planner + halo gather; excluded from runtime):");
    planner.print();

    println!("\npaper values:");
    let mut paper = Table::new(&[
        "dataset",
        "tree constr.",
        "reachable",
        "clustering",
        "post-proc.",
        "merging",
    ]);
    for &(name, a, b, c, d, e) in PAPER {
        paper.row_str(&[name, a, b, c, d, e]);
    }
    paper.print();

    println!("\nshape notes: in the paper merging stays < 4% of a much larger");
    println!("local runtime. Our local phases are faster (MC-skip post-processing,");
    println!("small analogues), and our merge *includes* one ε-query per halo");
    println!("point (cross-partition edges) and one per locally-attached owned");
    println!("non-core point (border candidates for the canonical minimum-id");
    println!("rule) — so the merge SHARE is inflated here, most at d = 14 where");
    println!("halos outnumber owned points. The claims that do transfer: merge");
    println!("cost scales with the halo and border fractions, and clustering");
    println!("dominates at high d among the local phases.");
}
