//! Dataset file IO in CSV, the human-friendly format. The binary
//! format is the chunked store ([`crate::store`], `.muds`), which also
//! serves out-of-core runs.

use geom::Dataset;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write `data` as CSV (one point per line).
pub fn write_csv(data: &Dataset, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for (_, p) in data.iter() {
        let mut first = true;
        for x in p {
            if !first {
                w.write_all(b",")?;
            }
            write!(w, "{x}")?;
            first = false;
        }
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Read a CSV of floats into a dataset.
pub fn read_csv(path: &Path) -> io::Result<Dataset> {
    let r = BufReader::new(File::open(path)?);
    let mut dim = 0usize;
    let mut coords = Vec::new();
    for (ln, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        let row: Result<Vec<f64>, _> = t.split(',').map(|s| s.trim().parse::<f64>()).collect();
        let row = row.map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", ln + 1))
        })?;
        if dim == 0 {
            dim = row.len();
        } else if row.len() != dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: expected {dim} columns, got {}", ln + 1, row.len()),
            ));
        }
        coords.extend(row);
    }
    if dim == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty CSV"));
    }
    Ok(Dataset::from_flat(dim, coords))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gaussian_mixture;

    #[test]
    fn csv_roundtrip() {
        let d = gaussian_mixture(100, 3, 2, 1.0, 0.1, 5);
        let tmp = std::env::temp_dir().join("mudbscan_test_io.csv");
        write_csv(&d, &tmp).unwrap();
        let back = read_csv(&tmp).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.dim(), d.dim());
        for (i, p) in d.iter() {
            for (a, b) in p.iter().zip(back.point(i)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn bad_inputs_rejected() {
        let tmp = std::env::temp_dir().join("mudbscan_test_bad.csv");
        std::fs::write(&tmp, b"1,2\n1\n").unwrap();
        assert!(read_csv(&tmp).is_err());
        std::fs::write(&tmp, b"").unwrap();
        assert!(read_csv(&tmp).is_err());
        std::fs::remove_file(&tmp).ok();
    }
}
