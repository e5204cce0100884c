#![warn(missing_docs)]

//! Shared helpers for the `repro_*` harness binaries.
//!
//! Every binary regenerates one table or figure of the paper on the
//! scaled synthetic analogues, printing our measured values next to the
//! paper's reported ones. Absolute numbers differ (single host vs a
//! 32-node cluster, synthetic vs proprietary data); the quantities that
//! must match are the *shapes*: who wins, by what rough factor, where
//! the crossovers and failures are. See EXPERIMENTS.md for the recorded
//! outcomes.

use std::time::Instant;

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Standard banner for a harness binary.
pub fn banner(exp: &str, paper_desc: &str, scale_note: &str) {
    println!("================================================================");
    println!("μDBSCAN reproduction — {exp}");
    println!("paper: {paper_desc}");
    println!("scale: {scale_note}");
    println!("================================================================\n");
}

/// Format seconds compactly.
pub fn secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.0} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Format a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// The deterministic seed all harnesses use.
pub const SEED: u64 = 2019;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(secs(0.0000006), "1 µs");
        assert_eq!(secs(0.5), "500.0 ms");
        assert_eq!(secs(12.345), "12.35 s");
        assert_eq!(times(2.5), "2.50x");
    }

    #[test]
    fn timed_returns_value() {
        let (v, s) = timed(|| 7 * 6);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }
}
