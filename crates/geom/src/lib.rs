#![deny(missing_docs)]
#![allow(clippy::needless_range_loop)] // dimension-indexed numeric loops are clearer as index loops

//! Geometric primitives shared by every crate in the μDBSCAN workspace.
//!
//! The central type is [`Dataset`], a structure-of-arrays container holding
//! `n` points of dimension `d` in one flat `Vec<f64>`. All algorithms refer
//! to points by [`PointId`] and borrow coordinate slices from the dataset,
//! which keeps the hot loops allocation-free and cache-friendly.
//!
//! The crate also provides:
//!
//! * Euclidean distance kernels with early-exit variants ([`dist`]),
//! * axis-aligned minimum bounding rectangles ([`Mbr`]) with the
//!   containment and box/sphere predicates the R-tree and μR-tree need,
//! * ε-region helpers (`reg_ε(p)` from the paper is [`Mbr::around_point`]).
//!
//! ```
//! use geom::{dist_euclidean, within, Dataset, DbscanParams, Mbr};
//!
//! let data = Dataset::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
//! assert_eq!(dist_euclidean(data.point(0), data.point(1)), 5.0);
//! assert!(!within(data.point(0), data.point(1), 5.0)); // strict <
//!
//! let region = Mbr::around_point(data.point(0), 1.0); // reg_ε(p)
//! assert!(region.contains_point(&[0.5, -0.5]));
//!
//! let params = DbscanParams::new(0.5, 5);
//! assert_eq!(params.eps_sq(), 0.25);
//! ```

pub mod dataset;
pub mod dist;
pub mod kernels;
pub mod mbr;
pub mod soa;
pub mod source;

pub use dataset::{Dataset, DatasetBuilder, PointId};
pub use dist::{dist_euclidean, dist_sq, within, within_sq};
pub use mbr::Mbr;
pub use soa::PointBlock;
pub use source::{gather_dense, Cols, DataSource, SourceChunk, DEFAULT_CHUNK_CAP};

/// DBSCAN density parameters, shared by every algorithm in the workspace.
///
/// `eps` is the neighbourhood radius (strict: `DIST(p, q) < eps` puts `q`
/// in `N_eps(p)`), `min_pts` is the core-point threshold
/// (`|N_eps(p)| >= min_pts`, with `p` counting itself).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// Minimum number of ε-neighbours (including the point itself) for a
    /// point to be a core point.
    pub min_pts: usize,
}

impl DbscanParams {
    /// Create a parameter set, validating that ε is positive and finite and
    /// `min_pts >= 1`.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(eps.is_finite() && eps > 0.0, "eps must be positive and finite");
        assert!(min_pts >= 1, "min_pts must be at least 1");
        Self { eps, min_pts }
    }

    /// ε² — precomputed once so hot loops compare squared distances.
    #[inline]
    pub fn eps_sq(&self) -> f64 {
        self.eps * self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_basic() {
        let p = DbscanParams::new(2.0, 5);
        assert_eq!(p.eps, 2.0);
        assert_eq!(p.min_pts, 5);
        assert_eq!(p.eps_sq(), 4.0);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn params_reject_zero_eps() {
        DbscanParams::new(0.0, 5);
    }

    #[test]
    #[should_panic(expected = "min_pts")]
    fn params_reject_zero_minpts() {
        DbscanParams::new(1.0, 0);
    }
}
