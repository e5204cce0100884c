//! Table I support: empirical validation of the O(n log m + n log r)
//! complexity claim — runtime normalised by n·(log m + log r) should stay
//! roughly constant as n grows, and clearly flatter than t/n (which would
//! be constant only for a linear algorithm).
//!
//! ```text
//! cargo run --release -p bench --bin repro_complexity
//! ```

use bench::{banner, timed, SEED};
use metrics::Table;
use mudbscan::prelude::*;

fn main() {
    banner(
        "Table I — complexity validation",
        "μDBSCAN average time O(n log m + n log r); step-wise costs of Table I",
        "galaxy analogue, n doubling from 12.5K to 100K",
    );

    let params = DbscanParams::new(0.8, 5);
    let runner = Runner::new(params);
    let mut t = Table::new(&[
        "n",
        "time (s)",
        "m (MCs)",
        "r (avg/MC)",
        "t / n·(log m + log r) [ns]",
        "t/n [µs]",
    ]);
    let mut normalised = Vec::new();

    for &n in &[12_500usize, 25_000, 50_000, 100_000] {
        let dataset = data::galaxy(n, 3, SEED);
        eprintln!("[n={n}] ...");
        let (out, secs) = timed(|| runner.run(&dataset).expect("sequential run"));
        let (mc_count, avg_mc_size) = match out.details {
            RunDetails::MuDbscan { mc_count, avg_mc_size, .. } => (mc_count, avg_mc_size),
            ref other => panic!("expected MuDbscan details, got {other:?}"),
        };
        let m = mc_count as f64;
        let r = avg_mc_size.max(1.0);
        let denom = n as f64 * (m.log2() + r.log2());
        let norm_ns = secs / denom * 1e9;
        normalised.push(norm_ns);
        t.row(&[
            n.to_string(),
            format!("{secs:.3}"),
            mc_count.to_string(),
            format!("{avg_mc_size:.1}"),
            format!("{norm_ns:.2}"),
            format!("{:.2}", secs / n as f64 * 1e6),
        ]);
    }

    println!("measured:");
    t.print();

    let min = normalised.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = normalised.iter().cloned().fold(0.0f64, f64::max);
    println!("\nnormalised-cost spread over an 8x growth in n: {:.2}x", max / min);
    println!("(a spread close to 1 supports the O(n log m + n log r) claim; an");
    println!("O(n²) algorithm would show an 8x spread in t/n over this range)");
}
