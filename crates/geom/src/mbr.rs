//! Axis-aligned minimum bounding rectangles (MBRs).
//!
//! Used by the R-tree ([`rtree`](https://docs.rs/rtree)) nodes, the
//! micro-clusters' member boxes, the shard planner's regions and the grid
//! baselines' cell boxes. The paper's `reg_ε(p)` — the
//! ε-extended box around a point — is [`Mbr::around_point`], and the
//! MINDIST pruning bound the restricted query of Algorithm 6 applies to
//! each reachable MC's member box is [`Mbr::min_dist_sq`].

/// An axis-aligned box `[lo, hi]` (inclusive on both ends) in `dim()`
/// dimensions.
#[derive(Debug, PartialEq)]
pub struct Mbr {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Clone for Mbr {
    fn clone(&self) -> Self {
        Self { lo: self.lo.clone(), hi: self.hi.clone() }
    }

    /// Copies into the existing corner storage when the dimensions match,
    /// so refitting a box in place does not allocate.
    fn clone_from(&mut self, source: &Self) {
        if self.dim() == source.dim() {
            self.lo.copy_from_slice(&source.lo);
            self.hi.copy_from_slice(&source.hi);
        } else {
            *self = source.clone();
        }
    }
}

impl Mbr {
    /// Construct from corner vectors. `lo[k] <= hi[k]` must hold.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        debug_assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "lo must be <= hi component-wise: {lo:?} vs {hi:?}"
        );
        Self { lo: lo.into_boxed_slice(), hi: hi.into_boxed_slice() }
    }

    /// Degenerate box containing a single point.
    pub fn point(p: &[f64]) -> Self {
        Self::new(p.to_vec(), p.to_vec())
    }

    /// The box `[p - r, p + r]` — the paper's `reg_r(p)`. A sphere of radius
    /// `r` around `p` is contained in this box, so box overlap is a sound
    /// (conservative) filter for sphere queries.
    pub fn around_point(p: &[f64], r: f64) -> Self {
        assert!(r >= 0.0);
        let lo = p.iter().map(|x| x - r).collect();
        let hi = p.iter().map(|x| x + r).collect();
        Self::new(lo, hi)
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// `true` iff `p` lies inside the box (inclusive bounds).
    #[inline]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        self.lo.iter().zip(p).all(|(l, x)| l <= x) && self.hi.iter().zip(p).all(|(h, x)| x <= h)
    }

    /// `true` iff `other` is entirely inside `self`.
    pub fn contains(&self, other: &Mbr) -> bool {
        debug_assert_eq!(other.dim(), self.dim());
        for k in 0..self.dim() {
            if other.lo[k] < self.lo[k] || other.hi[k] > self.hi[k] {
                return false;
            }
        }
        true
    }

    /// Squared distance from `p` to the nearest point of the box (0 when
    /// `p` is inside). This makes box/sphere intersection exact: the
    /// *open* ball `(c, r)` meets the box iff `min_dist_sq(c) < r²` —
    /// strict, matching the workspace's open-ball neighbourhood
    /// convention, so a box whose nearest face sits exactly ε away can
    /// never contain an ε-neighbour and must be pruned.
    #[inline]
    pub fn min_dist_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        let mut acc = 0.0;
        for k in 0..self.dim() {
            let x = p[k];
            let d = if x < self.lo[k] {
                self.lo[k] - x
            } else if x > self.hi[k] {
                x - self.hi[k]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// `true` iff the open ball of radius `r` around `c` intersects the box
    /// (strict: matches the strict `< ε` neighbourhood definition).
    #[inline]
    pub fn intersects_sphere(&self, c: &[f64], r: f64) -> bool {
        self.min_dist_sq(c) < r * r
    }

    /// Grow the box in place so it also covers `other`.
    pub fn merge(&mut self, other: &Mbr) {
        self.merge_corners(&other.lo, &other.hi);
    }

    /// Grow the box in place so it also covers `p`.
    pub fn merge_point(&mut self, p: &[f64]) {
        self.merge_corners(p, p);
    }

    /// Grow the box in place so it also covers the box `[lo, hi]`.
    pub fn merge_corners(&mut self, lo: &[f64], hi: &[f64]) {
        corners::merge(&mut self.lo, &mut self.hi, lo, hi);
    }

    /// The smallest box covering both inputs.
    pub fn merged(&self, other: &Mbr) -> Mbr {
        let mut m = self.clone();
        m.merge(other);
        m
    }

    /// Hyper-volume of the box. Degenerate boxes have volume 0; for R-tree
    /// split heuristics prefer [`Mbr::margin`] when volumes collapse.
    pub fn volume(&self) -> f64 {
        corners::volume(&self.lo, &self.hi)
    }

    /// Sum of edge lengths (the "margin"); a robust tie-breaker when
    /// volumes are zero (collinear points).
    pub fn margin(&self) -> f64 {
        corners::margin(&self.lo, &self.hi)
    }

    /// Volume of the smallest box covering `self` and `[lo, hi]`, without
    /// building it: bit-identical to `merged(..).volume()`.
    pub fn merged_volume(&self, lo: &[f64], hi: &[f64]) -> f64 {
        corners::merged_volume(&self.lo, &self.hi, lo, hi)
    }

    /// Estimated heap footprint in bytes (two boxed slices).
    pub fn heap_bytes(&self) -> usize {
        2 * self.lo.len() * std::mem::size_of::<f64>()
    }

    /// Both corners, mutably, for in-place refits inside this crate. The
    /// caller must leave `lo <= hi` component-wise.
    pub(crate) fn corners_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.lo, &mut self.hi)
    }
}

/// Box arithmetic on borrowed corner slices `(lo, hi)`.
///
/// [`Mbr`]'s own volume, margin and merge are these functions on its
/// corners, so a caller that holds a box as plain slices (a point is the
/// box `(p, p)`; a node split keeps its two growing groups in one scratch
/// buffer) gets bit-identical values without allocating an `Mbr`. The
/// merged forms use exactly [`Mbr::merge`]'s strict `<`/`>` comparisons
/// and the same `product`/`sum` folds as `merged(..).volume()` and
/// `merged(..).margin()`.
pub mod corners {
    /// Edge lengths of the smallest box covering `a` and `b`, computed
    /// with [`merge`]'s comparisons (`a` plays the merged-into box).
    #[inline]
    fn merged_edges<'a>(
        alo: &'a [f64],
        ahi: &'a [f64],
        blo: &'a [f64],
        bhi: &'a [f64],
    ) -> impl Iterator<Item = f64> + 'a {
        debug_assert!(alo.len() == blo.len() && ahi.len() == bhi.len());
        (0..alo.len()).map(move |k| {
            let lo = if blo[k] < alo[k] { blo[k] } else { alo[k] };
            let hi = if bhi[k] > ahi[k] { bhi[k] } else { ahi[k] };
            hi - lo
        })
    }

    /// Hyper-volume of the box `[lo, hi]`.
    #[inline]
    pub fn volume(lo: &[f64], hi: &[f64]) -> f64 {
        lo.iter().zip(hi).map(|(l, h)| h - l).product()
    }

    /// Sum of the edge lengths of the box `[lo, hi]`.
    #[inline]
    pub fn margin(lo: &[f64], hi: &[f64]) -> f64 {
        lo.iter().zip(hi).map(|(l, h)| h - l).sum()
    }

    /// Volume of the smallest box covering `[alo, ahi]` and `[blo, bhi]`.
    #[inline]
    pub fn merged_volume(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        merged_edges(alo, ahi, blo, bhi).product()
    }

    /// Margin of the smallest box covering `[alo, ahi]` and `[blo, bhi]`.
    #[inline]
    pub fn merged_margin(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        merged_edges(alo, ahi, blo, bhi).sum()
    }

    /// Grow the box `[lo, hi]` in place so it also covers `[olo, ohi]`.
    #[inline]
    pub fn merge(lo: &mut [f64], hi: &mut [f64], olo: &[f64], ohi: &[f64]) {
        debug_assert!(lo.len() == olo.len() && hi.len() == ohi.len());
        for k in 0..lo.len() {
            if olo[k] < lo[k] {
                lo[k] = olo[k];
            }
            if ohi[k] > hi[k] {
                hi[k] = ohi[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Mbr {
        Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn contains_point_inclusive() {
        let m = unit();
        assert!(m.contains_point(&[0.0, 0.0]));
        assert!(m.contains_point(&[1.0, 1.0]));
        assert!(m.contains_point(&[0.5, 0.5]));
        assert!(!m.contains_point(&[1.0001, 0.5]));
    }

    #[test]
    fn min_dist_sq_cases() {
        let m = unit();
        assert_eq!(m.min_dist_sq(&[0.5, 0.5]), 0.0); // inside
        assert_eq!(m.min_dist_sq(&[2.0, 0.5]), 1.0); // face
        assert_eq!(m.min_dist_sq(&[2.0, 2.0]), 2.0); // corner
    }

    #[test]
    fn sphere_intersection_strict() {
        let m = unit();
        // Ball centred at (2, 0.5): closest box point at distance 1.
        assert!(!m.intersects_sphere(&[2.0, 0.5], 1.0)); // open ball misses
        assert!(m.intersects_sphere(&[2.0, 0.5], 1.0 + 1e-9));
    }

    #[test]
    fn face_exactly_eps_away_is_pruned() {
        // The ε-boundary pruning contract on an *extended* (non-point)
        // box: when the nearest face sits exactly ε from the query, the
        // open ε-ball cannot reach any content, so `min_dist_sq == ε²`
        // must not pass the strict filter. All offsets are powers of two,
        // so every quantity is exactly representable.
        let m = Mbr::new(vec![1.0, -8.0], vec![3.0, 8.0]);
        for eps in [0.25f64, 0.5, 1.0, 2.0] {
            let q = [1.0 - eps, 0.0]; // face of x = 1 is exactly eps away
            assert_eq!(m.min_dist_sq(&q), eps * eps);
            assert!(!m.intersects_sphere(&q, eps), "face at exactly eps must be pruned");
            assert!(m.intersects_sphere(&q, eps * (1.0 + 1e-12)));
        }
        // Corner case: query diagonal from a corner with per-axis gaps
        // (3, 4) — min_dist² = 25, so ε = 5 exactly must still prune.
        let q = [1.0 - 3.0, -8.0 - 4.0];
        assert_eq!(m.min_dist_sq(&q), 25.0);
        assert!(!m.intersects_sphere(&q, 5.0));
        assert!(m.intersects_sphere(&q, 5.0 + 1e-9));
    }

    #[test]
    fn merge_grows_volume_and_margin() {
        let mut m = unit();
        let other = Mbr::new(vec![2.0, 2.0], vec![3.0, 3.0]);
        assert_eq!(m.merged_volume(other.lo(), other.hi()) - m.volume(), 9.0 - 1.0);
        m.merge(&other);
        assert_eq!(m.lo(), &[0.0, 0.0]);
        assert_eq!(m.hi(), &[3.0, 3.0]);
        assert_eq!(m.volume(), 9.0);
        assert_eq!(m.margin(), 6.0);
    }

    #[test]
    fn merged_forms_are_bit_identical_to_building_the_box() {
        let boxes = [
            Mbr::new(vec![0.0, -1.5, 2.0], vec![0.25, 3.0, 2.0]),
            Mbr::new(vec![-0.0, 0.1, 1.0], vec![0.3, 0.2, 7.5]),
            Mbr::point(&[0.1, -2.0, 2.0]),
            Mbr::point(&[1e-300, 1e300, -3.0]),
        ];
        for a in &boxes {
            for b in &boxes {
                let m = a.merged(b);
                assert_eq!(a.merged_volume(b.lo(), b.hi()).to_bits(), m.volume().to_bits());
                let merged_margin = corners::merged_margin(a.lo(), a.hi(), b.lo(), b.hi());
                assert_eq!(merged_margin.to_bits(), m.margin().to_bits());
            }
        }
    }

    #[test]
    fn clone_from_reuses_matching_storage() {
        let mut m = unit();
        let src = Mbr::new(vec![-1.0, 2.0], vec![3.0, 4.0]);
        m.clone_from(&src);
        assert_eq!(m, src);
        let mut other_dim = Mbr::point(&[0.0]);
        other_dim.clone_from(&src);
        assert_eq!(other_dim, src);
    }

    #[test]
    fn merge_point_grows() {
        let mut m = Mbr::point(&[1.0, 1.0]);
        assert_eq!(m.volume(), 0.0);
        m.merge_point(&[-1.0, 3.0]);
        assert_eq!(m.lo(), &[-1.0, 1.0]);
        assert_eq!(m.hi(), &[1.0, 3.0]);
    }

    #[test]
    fn around_point_covers_ball() {
        let m = Mbr::around_point(&[1.0, 2.0], 0.5);
        assert_eq!(m.lo(), &[0.5, 1.5]);
        assert_eq!(m.hi(), &[1.5, 2.5]);
        assert!(m.contains_point(&[1.0, 2.4]));
    }

    #[test]
    fn containment() {
        let m = unit();
        assert!(m.contains(&Mbr::new(vec![0.2, 0.2], vec![0.8, 0.8])));
        assert!(!m.contains(&Mbr::new(vec![0.2, 0.2], vec![1.8, 0.8])));
    }
}
