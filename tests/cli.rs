//! End-to-end tests of the `mudbscan` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mudbscan"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mudbscan_cli_{name}_{}", std::process::id()))
}

#[test]
fn generate_then_cluster_roundtrip() {
    let pts = tmp("pts.csv");
    let labels = tmp("labels.csv");

    let out = bin()
        .args(["--generate", "galaxy", "--n", "2000", "--dim", "3", "--seed", "7"])
        .args(["--output", pts.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = bin()
        .args(["--input", pts.to_str().unwrap()])
        .args(["--eps", "0.8", "--min-pts", "5", "--stats"])
        .args(["--output", labels.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("clusters"), "{stderr}");
    assert!(stderr.contains("queries saved"), "{stderr}");

    // One label per point; labels are ints >= -1.
    let content = std::fs::read_to_string(&labels).unwrap();
    let parsed: Vec<i64> = content.lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(parsed.len(), 2000);
    assert!(parsed.iter().all(|&l| l >= -1));
    assert!(parsed.iter().any(|&l| l >= 0), "no clusters found");

    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&labels).ok();
}

#[test]
fn algorithms_agree_via_cli() {
    let pts = tmp("pts2.csv");
    bin()
        .args(["--generate", "uniform", "--n", "500", "--dim", "2", "--seed", "3"])
        .args(["--output", pts.to_str().unwrap()])
        .output()
        .expect("spawn");

    let labels_of = |alg: &str| -> Vec<i64> {
        let labels = tmp(&format!("labels_{alg}.csv"));
        let out = bin()
            .args(["--input", pts.to_str().unwrap()])
            .args(["--eps", "4.0", "--min-pts", "4", "--algorithm", alg])
            .args(["--output", labels.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{alg}: {}", String::from_utf8_lossy(&out.stderr));
        let v =
            std::fs::read_to_string(&labels).unwrap().lines().map(|l| l.parse().unwrap()).collect();
        std::fs::remove_file(&labels).ok();
        v
    };

    let mu = labels_of("mu");
    let naive = labels_of("naive");
    // Identical canonical labels: both number clusters by first appearance.
    assert_eq!(mu.len(), naive.len());
    let noise = |v: &[i64]| v.iter().filter(|&&l| l == -1).count();
    assert_eq!(noise(&mu), noise(&naive));
    std::fs::remove_file(&pts).ok();
}

#[test]
fn rejects_bad_input() {
    let bad = tmp("bad.csv");
    std::fs::write(&bad, "1,2\n3,nan\n").unwrap();
    let out = bin()
        .args(["--input", bad.to_str().unwrap(), "--eps", "1", "--min-pts", "2"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.to_lowercase().contains("non-finite"), "{stderr}");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn missing_flags_usage_error() {
    let out = bin().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn store_roundtrip_matches_csv() {
    let labels_via = |ext: &str| -> Vec<String> {
        let pts = tmp(&format!("pts3.{ext}"));
        let labels = tmp(&format!("labels3_{ext}.csv"));
        let out = bin()
            .args(["--generate", "galaxy", "--n", "1500", "--dim", "3", "--seed", "11"])
            .args(["--output", pts.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{ext}: {}", String::from_utf8_lossy(&out.stderr));
        let out = bin()
            .args(["--input", pts.to_str().unwrap(), "--eps", "0.8", "--min-pts", "5"])
            .args(["--output", labels.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{ext}: {}", String::from_utf8_lossy(&out.stderr));
        let v = std::fs::read_to_string(&labels).unwrap().lines().map(String::from).collect();
        std::fs::remove_file(&pts).ok();
        std::fs::remove_file(&labels).ok();
        v
    };
    let store = labels_via("muds");
    assert_eq!(store.len(), 1500);
    assert_eq!(store, labels_via("csv"));

    // A header that promises far more points than the file holds is a
    // read error, not an allocation of the promised size.
    let bad = tmp("bad.muds");
    let mut header = Vec::new();
    header.extend_from_slice(b"MUDS");
    header.extend_from_slice(&1u32.to_le_bytes()); // version
    header.extend_from_slice(&3u32.to_le_bytes()); // dim
    header.extend_from_slice(&4096u32.to_le_bytes()); // chunk_cap
    header.extend_from_slice(&u64::from(u32::MAX).to_le_bytes()); // n
    header.extend_from_slice(&(u64::from(u32::MAX).div_ceil(4096)).to_le_bytes());
    header.resize(64, 0);
    std::fs::write(&bad, &header).unwrap();
    let out = bin()
        .args(["--input", bad.to_str().unwrap(), "--eps", "1", "--min-pts", "2"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("read failed"));
    std::fs::remove_file(&bad).ok();
}
