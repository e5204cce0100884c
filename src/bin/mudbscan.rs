//! `mudbscan` — command-line DBSCAN clustering.
//!
//! ```text
//! mudbscan --input points.csv --eps 0.5 --min-pts 5 [--algorithm mu]
//!          [--output labels.csv] [--ranks 8] [--threads 4] [--stats]
//! mudbscan --generate galaxy --n 50000 --dim 3 --output points.csv
//! ```
//!
//! Input formats: CSV (one point per row) or the chunked binary store
//! (`data::store`), selected by extension (`.muds` = store). The output
//! is a CSV with one cluster label per input row (`-1` = noise).

use geom::{gather_dense, DEFAULT_CHUNK_CAP};
use mudbscan_repro::prelude::*;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    input: Option<PathBuf>,
    output: Option<PathBuf>,
    eps: f64,
    min_pts: usize,
    algorithm: String,
    ranks: usize,
    threads: usize,
    stats: bool,
    svg: Option<PathBuf>,
    generate: Option<String>,
    n: usize,
    dim: usize,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: mudbscan --input <file.csv|file.muds> --eps <f> --min-pts <k>
         [--algorithm mu|mu-par|mu-dist|r|g|grid|naive]   (default: mu)
         [--output <labels.csv>] [--ranks <p>] [--threads <t>] [--stats]
         [--svg <plot.svg>]   (first two dimensions, 2-d+ data only)
       mudbscan --generate <galaxy|roads|household|kddbio|uniform>
         --n <points> [--dim <d>] [--seed <s>] --output <file.csv|file.muds>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        input: None,
        output: None,
        eps: 0.0,
        min_pts: 0,
        algorithm: "mu".into(),
        ranks: 8,
        threads: 4,
        stats: false,
        svg: None,
        generate: None,
        n: 10_000,
        dim: 3,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--input" => a.input = Some(PathBuf::from(val("--input"))),
            "--output" => a.output = Some(PathBuf::from(val("--output"))),
            "--eps" => a.eps = val("--eps").parse().unwrap_or_else(|_| usage()),
            "--min-pts" => a.min_pts = val("--min-pts").parse().unwrap_or_else(|_| usage()),
            "--algorithm" => a.algorithm = val("--algorithm"),
            "--ranks" => a.ranks = val("--ranks").parse().unwrap_or_else(|_| usage()),
            "--threads" => a.threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--stats" => a.stats = true,
            "--svg" => a.svg = Some(PathBuf::from(val("--svg"))),
            "--generate" => a.generate = Some(val("--generate")),
            "--n" => a.n = val("--n").parse().unwrap_or_else(|_| usage()),
            "--dim" => a.dim = val("--dim").parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    a
}

fn is_store(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "muds")
}

fn load(path: &Path) -> Result<Dataset, Box<dyn Error>> {
    if is_store(path) {
        Ok(gather_dense(&ChunkedStore::open(path)?))
    } else {
        Ok(data::io::read_csv(path)?)
    }
}

fn save(d: &Dataset, path: &Path) -> Result<(), Box<dyn Error>> {
    if is_store(path) {
        Ok(write_store(d, path, DEFAULT_CHUNK_CAP)?)
    } else {
        Ok(data::io::write_csv(d, path)?)
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    // Generator mode.
    if let Some(kind) = &args.generate {
        let d = match kind.as_str() {
            "galaxy" => data::galaxy(args.n, args.dim, args.seed),
            "roads" => data::road_network(args.n, args.seed),
            "household" => data::household(args.n, args.seed),
            "kddbio" => data::kddbio(args.n, args.dim, args.seed),
            "uniform" => data::uniform(args.n, args.dim, args.seed),
            other => {
                eprintln!("unknown generator: {other}");
                return ExitCode::from(2);
            }
        };
        let Some(out) = &args.output else {
            eprintln!("--generate requires --output");
            return ExitCode::from(2);
        };
        if let Err(e) = save(&d, out) {
            eprintln!("write failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} points of dimension {} to {}", d.len(), d.dim(), out.display());
        return ExitCode::SUCCESS;
    }

    // Clustering mode.
    let Some(input) = &args.input else { usage() };
    if args.eps <= 0.0 || args.min_pts == 0 {
        eprintln!("--eps and --min-pts are required");
        return ExitCode::from(2);
    }
    let dataset = match load(input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("read failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = dataset.validate_finite() {
        eprintln!("invalid input: {e}");
        return ExitCode::FAILURE;
    }
    let params = DbscanParams::new(args.eps, args.min_pts);
    eprintln!(
        "clustering {} points (dim {}) with {}: eps={}, MinPts={}",
        dataset.len(),
        dataset.dim(),
        args.algorithm,
        args.eps,
        args.min_pts
    );

    let t = std::time::Instant::now();
    let (clustering, extra): (Clustering, String) = match args.algorithm.as_str() {
        "mu" | "mu-par" => {
            let threads = if args.algorithm == "mu-par" { args.threads } else { 1 };
            let out = Runner::new(params).threads(threads).run(&dataset).expect("μDBSCAN run");
            let mc_count = match out.details {
                RunDetails::MuDbscan { mc_count, .. } => mc_count,
                ref other => panic!("expected MuDbscan details, got {other:?}"),
            };
            let x = format!(
                "threads: {threads}, micro-clusters: {mc_count}, queries saved: {:.1}%",
                out.counters.pct_queries_saved()
            );
            (out.clustering, x)
        }
        "mu-dist" => match Runner::new(params).ranks(args.ranks).run(&dataset) {
            Ok(out) => {
                let (runtime_secs, comm_bytes) = match out.details {
                    RunDetails::Distributed { runtime_secs, comm_bytes, .. } => {
                        (runtime_secs, comm_bytes)
                    }
                    ref other => panic!("expected Distributed details, got {other:?}"),
                };
                let x = format!(
                    "ranks: {}, virtual runtime: {:.3}s, comm: {} KiB",
                    args.ranks,
                    runtime_secs,
                    comm_bytes / 1024
                );
                (out.clustering, x)
            }
            Err(e) => {
                eprintln!("distributed run failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        "r" => (RDbscan::new(params).run(&dataset).clustering, String::new()),
        "g" => (GDbscan::new(params).run(&dataset).clustering, String::new()),
        "grid" => match GridDbscan::new(params).run(&dataset) {
            Ok(out) => (out.clustering, String::new()),
            Err(e) => {
                eprintln!("GridDBSCAN failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        "naive" => (naive_dbscan(&dataset, &params), String::new()),
        other => {
            eprintln!("unknown algorithm: {other}");
            return ExitCode::from(2);
        }
    };
    let elapsed = t.elapsed().as_secs_f64();

    eprintln!(
        "{} clusters, {} core, {} noise in {:.3}s {}",
        clustering.n_clusters,
        clustering.core_count(),
        clustering.noise_count(),
        elapsed,
        if extra.is_empty() { String::new() } else { format!("({extra})") }
    );

    if args.stats {
        let mut sizes = clustering.cluster_sizes();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        eprintln!("largest clusters: {:?}", &sizes[..sizes.len().min(10)]);
    }

    if let Some(svg_path) = &args.svg {
        if dataset.dim() >= 2 {
            match data::plot::write_svg_scatter(&dataset, &clustering.labels, svg_path, 900, 600) {
                Ok(()) => eprintln!("plot written to {}", svg_path.display()),
                Err(e) => eprintln!("plot failed: {e}"),
            }
        } else {
            eprintln!("--svg needs at least 2 dimensions");
        }
    }

    if let Some(out_path) = &args.output {
        use std::io::Write;
        let f = match std::fs::File::create(out_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {}: {e}", out_path.display());
                return ExitCode::FAILURE;
            }
        };
        let mut w = std::io::BufWriter::new(f);
        for &l in &clustering.labels {
            let v: i64 = if l == NOISE { -1 } else { l as i64 };
            if writeln!(w, "{v}").is_err() {
                eprintln!("write failed");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("labels written to {}", out_path.display());
    }
    ExitCode::SUCCESS
}
