//! Table II reproduction: sequential runtime of R-DBSCAN, G-DBSCAN,
//! GridDBSCAN and μDBSCAN on the eight dataset analogues, plus the
//! number of micro-clusters and the % of queries saved.
//!
//! ```text
//! cargo run --release -p bench --bin repro_table2
//! ```

use baselines::{GDbscan, GridDbscan, RDbscan};
use bench::{banner, secs, timed, SEED};
use metrics::Table;
use mudbscan::prelude::{RunDetails, Runner};

/// Paper row: (R-DBSCAN s, G-DBSCAN s, GridDBSCAN s, μDBSCAN s, m, %saved).
const PAPER: &[(&str, &str, &str, &str, &str, &str, &str)] = &[
    ("3DSRN", "49.51", "245.45", "41.97", "22.87", "22353", "80.99%"),
    ("DGB0.5M3D", "37.06", "3103.57", "53.87", "23.39", "99031", "43.60%"),
    ("HHP0.5M5D", "5040.36", "1079.37", "1406.51", "795.03", "8625", "93.49%"),
    ("MPAGB6M3D", "15922.28", ">12h", "2704.71", "572.28", "734881", "69.47%"),
    ("FOF56M3D", "59154.04", ">12h", "17036.34", "6960.05", "782969", "95.68%"),
    ("MPAGD100M3D", "18574.45", ">12h", "MemErr", "11329.92", "3268853", "86.92%"),
    ("KDDB145K14D", "3604.48", "584.23", "5192.62", "360.9", "906", "96.34%"),
    ("KDDB145K24D", "8270.85", "2612.07", "MemErr", "2578.58", "655", "96.60%"),
];

fn main() {
    banner(
        "Table II — sequential runtime comparison",
        "run time (s) of R-DBSCAN / G-DBSCAN / GridDBSCAN / μDBSCAN, #MCs, % query saves",
        "paper sizes 0.43M–100M points; analogues scaled to 8K–100K (see data::catalog)",
    );

    let mut ours = Table::new(&[
        "dataset",
        "n",
        "d",
        "eps",
        "MinPts",
        "R-DBSCAN",
        "G-DBSCAN",
        "GridDBSCAN",
        "μDBSCAN",
        "MCs (m)",
        "% saved",
        "μ vs R",
    ]);

    for spec in data::paper_table2_specs() {
        let dataset = spec.generate(SEED);
        let params = spec.params;
        eprintln!("[{}] n={} d={} ...", spec.name, dataset.len(), dataset.dim());

        let (r_out, r_secs) = timed(|| RDbscan::new(params).run(&dataset));
        let (g_out, g_secs) = timed(|| GDbscan::new(params).run(&dataset));
        let (grid_res, grid_secs) = timed(|| GridDbscan::new(params).run(&dataset));
        let (mu_out, mu_secs) =
            timed(|| Runner::new(params).run(&dataset).expect("sequential run"));
        let mc_count = match mu_out.details {
            RunDetails::MuDbscan { mc_count, .. } => mc_count,
            ref other => panic!("expected MuDbscan details, got {other:?}"),
        };

        // All exact algorithms must agree (cheap structural check; full
        // exactness is covered by the test suite).
        assert_eq!(r_out.clustering.n_clusters, mu_out.clustering.n_clusters, "{}", spec.name);
        assert_eq!(g_out.clustering.core_count(), mu_out.clustering.core_count(), "{}", spec.name);
        let grid_cell = match &grid_res {
            Ok(out) => {
                assert_eq!(out.clustering.n_clusters, mu_out.clustering.n_clusters);
                secs(grid_secs)
            }
            Err(e) => {
                let _ = e;
                "MemErr".to_string()
            }
        };

        ours.row(&[
            spec.name.to_string(),
            dataset.len().to_string(),
            dataset.dim().to_string(),
            format!("{}", params.eps),
            params.min_pts.to_string(),
            secs(r_secs),
            secs(g_secs),
            grid_cell,
            secs(mu_secs),
            mc_count.to_string(),
            format!("{:.2}%", mu_out.counters.pct_queries_saved()),
            format!("{:.2}x", r_secs / mu_secs),
        ]);
    }

    println!("measured (this machine, scaled analogues):");
    ours.print();

    println!("\npaper values (32 GB node, original datasets):");
    let mut paper = Table::new(&[
        "dataset",
        "R-DBSCAN",
        "G-DBSCAN",
        "GridDBSCAN",
        "μDBSCAN",
        "MCs (m)",
        "% saved",
    ]);
    for &(name, r, g, grid, mu, m, sv) in PAPER {
        paper.row_str(&[name, r, g, grid, mu, m, sv]);
    }
    paper.print();

    println!("\nshape checks: μDBSCAN fastest on every dataset; G-DBSCAN worst on");
    println!("large low-d data; GridDBSCAN memory-errors at d >= 14; m << n;");
    println!("highest query savings on HHP/KDDB/FOF analogues.");
}
