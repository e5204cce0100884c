//! Table IV reproduction: peak memory consumption of the four sequential
//! algorithms (deterministic deep-size accounting of each algorithm's
//! structures; see metrics::mem).
//!
//! ```text
//! cargo run --release -p bench --bin repro_table4
//! ```

use baselines::{GDbscan, GridDbscan, RDbscan};
use bench::{banner, SEED};
use metrics::mem::human_bytes;
use metrics::Table;
use mudbscan::prelude::{RunDetails, Runner};

const PAPER: &[(&str, &str, &str, &str, &str)] = &[
    ("3DSRN", "125 MB", "50 MB", "458 MB", "158 MB"),
    ("DGB0.5M3D", "143 MB", "74 MB", "617 MB", "261 MB"),
    ("MPAGB6M3D", "2178 MB", "killed", "9844 MB", "2530 MB"),
    ("KDDB145K14D", "61 MB", "32 MB", "20.17 GB", "67 MB"),
];

fn main() {
    banner(
        "Table IV — peak memory consumption",
        "peak structure memory of R-DBSCAN / G-DBSCAN / GridDBSCAN / μDBSCAN",
        "deep-size accounting of index + working structures on scaled analogues",
    );

    let wanted = ["3DSRN", "DGB0.5M3D", "MPAGB6M3D", "KDDB145K14D"];
    let mut ours =
        Table::new(&["dataset", "R-DBSCAN", "G-DBSCAN", "GridDBSCAN", "μDBSCAN", "grid/μ ratio"]);

    for spec in data::paper_table2_specs() {
        if !wanted.contains(&spec.name) {
            continue;
        }
        let dataset = spec.generate(SEED);
        let params = spec.params;
        eprintln!("[{}] ...", spec.name);

        let r = RDbscan::new(params).run(&dataset).peak_heap_bytes;
        let g = GDbscan::new(params).run(&dataset).peak_heap_bytes;
        let mu_out = Runner::new(params).run(&dataset).expect("sequential run");
        let mu = match mu_out.details {
            RunDetails::MuDbscan { peak_heap_bytes, .. } => peak_heap_bytes,
            ref other => panic!("expected MuDbscan details, got {other:?}"),
        };
        let (grid_str, ratio) = match GridDbscan::new(params).run(&dataset) {
            Ok(out) => (
                human_bytes(out.peak_heap_bytes),
                format!("{:.1}x", out.peak_heap_bytes as f64 / mu as f64),
            ),
            Err(e) => (format!("MemErr ({e})"), "inf".into()),
        };

        ours.row(&[
            spec.name.to_string(),
            human_bytes(r),
            human_bytes(g),
            grid_str,
            human_bytes(mu),
            ratio,
        ]);
    }

    println!("measured (structure deep sizes):");
    ours.print();

    println!("\npaper values (resident set of the C++ binaries):");
    let mut paper = Table::new(&["dataset", "R-DBSCAN", "G-DBSCAN", "GridDBSCAN", "μDBSCAN"]);
    for &(name, a, b, c, d) in PAPER {
        paper.row_str(&[name, a, b, c, d]);
    }
    paper.print();

    println!("\nshape checks: G-DBSCAN smallest (no index); GridDBSCAN largest and");
    println!("exploding with dimension (MemErr at d=14); R-DBSCAN < μDBSCAN.");
    println!("deviation from the paper: level 2 here is one flat member block per");
    println!("micro-cluster, not one auxiliary R-tree each, so μDBSCAN's margin over");
    println!("R-DBSCAN's single R-tree is its per-MC records (member block, reach");
    println!("list, MBR), not a second tree level; it is smallest where MCs are");
    println!("large (KDDB145K14D).");
}
