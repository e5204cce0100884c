//! Replayable failure artifacts.
//!
//! When a differential test finds a (minimized) counterexample it is
//! written to `results/failures/<test>-<seed>.json` at the workspace root.
//! The artifact is self-contained — the exact rows, the parameters, and
//! the names of the disagreeing implementations — so `tests/replay.rs`
//! can re-run it against the current code without re-generating anything.
//!
//! The document goes through [`obs::Json`], which writes every finite
//! `f64` in its shortest exact form, so the rows and ε round-trip
//! exactly. Integers (the seed, `dim`, `min_pts`) are JSON numbers read
//! back through `f64`.

use obs::Json;
use std::path::{Path, PathBuf};

/// A minimized, replayable counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureArtifact {
    /// Name of the test that found it.
    pub test: String,
    /// Generator seed of the failing case (for provenance; the rows are
    /// stored verbatim, replay does not re-generate).
    pub seed: u64,
    /// Dataset family name ([`crate::Family::as_str`]).
    pub family: String,
    /// Dimensionality of the rows.
    pub dim: usize,
    /// ε of the failing run.
    pub eps: f64,
    /// MinPts of the failing run.
    pub min_pts: usize,
    /// Registry names of the implementations that disagreed with the
    /// oracle.
    pub disagreeing: Vec<String>,
    /// The minimized dataset.
    pub rows: Vec<Vec<f64>>,
}

impl FailureArtifact {
    /// Serialize to the artifact JSON schema.
    pub fn to_json(&self) -> String {
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        let row = |r: &Vec<f64>| Json::Arr(r.iter().copied().map(Json::Num).collect());
        Json::obj_from([
            ("test".to_string(), Json::Str(self.test.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("family".to_string(), Json::Str(self.family.clone())),
            ("dim".to_string(), Json::Num(self.dim as f64)),
            ("eps".to_string(), Json::Num(self.eps)),
            ("min_pts".to_string(), Json::Num(self.min_pts as f64)),
            ("disagreeing".to_string(), strings(&self.disagreeing)),
            ("rows".to_string(), Json::Arr(self.rows.iter().map(row).collect())),
        ])
        .render_pretty()
    }

    /// Parse an artifact back from its JSON form.
    pub fn from_json(text: &str) -> Result<FailureArtifact, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field `{key}`"));
        let rows = array(field("rows")?)?
            .iter()
            .map(|row| array(row)?.iter().map(num).collect())
            .collect::<Result<Vec<Vec<f64>>, String>>()?;
        Ok(FailureArtifact {
            test: string(field("test")?)?,
            seed: num(field("seed")?)? as u64,
            family: string(field("family")?)?,
            dim: num(field("dim")?)? as usize,
            eps: num(field("eps")?)?,
            min_pts: num(field("min_pts")?)? as usize,
            disagreeing: array(field("disagreeing")?)?
                .iter()
                .map(string)
                .collect::<Result<Vec<String>, String>>()?,
            rows,
        })
    }

    /// File name this artifact is stored under.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .test
            .chars()
            .map(|c| if c.is_alphanumeric() || c == '_' || c == '-' { c } else { '-' })
            .collect();
        format!("{safe}-{}.json", self.seed)
    }

    /// Write the artifact into `dir` (created if needed); returns the path.
    pub fn dump_into(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Write the artifact to the workspace-default `results/failures/`.
    pub fn dump(&self) -> std::io::Result<PathBuf> {
        self.dump_into(&default_dir())
    }
}

/// `results/failures/` at the workspace root, resolved relative to this
/// crate's manifest so it is independent of the test runner's CWD.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/failures")
}

fn num(v: &Json) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| "expected number".to_string())
}

fn string(v: &Json) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| "expected string".to_string())
}

fn array(v: &Json) -> Result<&[Json], String> {
    v.as_array().ok_or_else(|| "expected array".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FailureArtifact {
        FailureArtifact {
            test: "differential::blobs".into(),
            seed: 123456789,
            family: "blobs".into(),
            dim: 3,
            eps: 0.30000000000000004, // deliberately un-pretty: must round-trip
            min_pts: 4,
            disagreeing: vec!["mu-par/t4".into(), "mu-dist/r2".into()],
            rows: vec![vec![0.1, -2.5, 1e-12], vec![7.25, 0.0, -0.0]],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let a = sample();
        let parsed = FailureArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn file_name_is_sanitized() {
        assert_eq!(sample().file_name(), "differential--blobs-123456789.json");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(FailureArtifact::from_json("{").is_err());
        assert!(FailureArtifact::from_json("{}").is_err()); // missing fields
        assert!(FailureArtifact::from_json("[1, 2]").is_err());
    }

    #[test]
    fn dump_writes_a_parseable_file() {
        let dir = std::env::temp_dir().join("conformance-artifact-test");
        let a = sample();
        let path = a.dump_into(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(FailureArtifact::from_json(&text).unwrap(), a);
        let _ = std::fs::remove_file(path);
    }
}
