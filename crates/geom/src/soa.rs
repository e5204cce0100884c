//! Structure-of-arrays (column-major) coordinate storage.
//!
//! [`Dataset`](crate::Dataset) stores points row-major — point `i`'s
//! coordinates are contiguous — which is the right layout for handing a
//! single point to a distance call. The ε-query hot path has the opposite
//! access pattern: *one* query point against *many* stored points.
//! [`PointBlock`] holds the same coordinates column-major — all `x₀`s
//! contiguous, then all `x₁`s, … — so the batched kernels in
//! [`crate::kernels`] stream unit-stride columns and autovectorize. A
//! block holds one R-tree leaf or one micro-cluster's members (tens of
//! points); its columns share one allocation at a common stride, so a
//! block carries exactly one heap block of coordinates instead of one
//! slice per point.

use crate::kernels;
use crate::Mbr;

/// A column-major block of points with `u32` item ids — the storage
/// behind an R-tree point leaf and a micro-cluster's members.
///
/// Column `k` lives at `cols[k*cap .. k*cap + len]`; slots past `len`
/// are padding that no kernel reads. A push into a full block doubles
/// the capacity and re-strides the columns. R-tree leaves are sized
/// from the tree's fan-out and split before they fill, so their pushes
/// never reallocate; a streaming micro-cluster's block grows this way.
#[derive(Debug, Clone)]
pub struct PointBlock {
    dim: usize,
    cap: usize,
    items: Vec<u32>,
    cols: Box<[f64]>,
}

impl PointBlock {
    /// Empty block for `dim`-dimensional points with room for `cap`
    /// before the first regrowth. A zero capacity allocates nothing.
    pub fn with_capacity(dim: usize, cap: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self { dim, cap, items: Vec::with_capacity(cap), cols: vec![0.0; dim * cap].into() }
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no point is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current capacity (also the column stride).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Item ids in insertion order.
    #[inline]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Item id of the point at row `i`.
    #[inline]
    pub fn item(&self, i: usize) -> u32 {
        self.items[i]
    }

    /// Coordinate `k` of the point at row `i`.
    #[inline]
    pub fn coord(&self, i: usize, k: usize) -> f64 {
        debug_assert!(i < self.len() && k < self.dim);
        self.cols[k * self.cap + i]
    }

    /// The filled part of column `k` (unit-stride, length [`len`](Self::len)).
    #[inline]
    pub fn col(&self, k: usize) -> &[f64] {
        &self.cols[k * self.cap..k * self.cap + self.len()]
    }

    /// Raw column storage plus its stride, for handing to the
    /// [`crate::kernels`] primitives.
    #[inline]
    pub fn raw_cols(&self) -> (&[f64], usize) {
        (&self.cols, self.cap)
    }

    /// Append a point, doubling the capacity first when the block is
    /// full. Panics on a dimensionality mismatch.
    pub fn push(&mut self, item: u32, coords: &[f64]) {
        assert_eq!(coords.len(), self.dim, "point dimensionality mismatch");
        let i = self.items.len();
        if i == self.cap {
            let cap = (2 * self.cap).max(1);
            let mut cols = vec![0.0; self.dim * cap].into_boxed_slice();
            for k in 0..self.dim {
                cols[k * cap..k * cap + i].copy_from_slice(self.col(k));
            }
            self.cols = cols;
            self.cap = cap;
        }
        for (k, &x) in coords.iter().enumerate() {
            self.cols[k * self.cap + i] = x;
        }
        self.items.push(item);
    }

    /// Remove the point at row `i`, shifting later rows left so
    /// insertion order is preserved. Returns the removed item id.
    /// Panics when `i` is out of range.
    pub fn remove(&mut self, i: usize) -> u32 {
        let n = self.len();
        assert!(i < n, "PointBlock::remove out of range");
        for k in 0..self.dim {
            let col = &mut self.cols[k * self.cap..k * self.cap + n];
            col.copy_within(i + 1..n, i);
        }
        self.items.remove(i)
    }

    /// Copy the point at row `i` into `buf` (which must be `dim` long).
    pub fn write_point(&self, i: usize, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.dim);
        for (k, b) in buf.iter_mut().enumerate() {
            *b = self.coord(i, k);
        }
    }

    /// Squared distance from `q` to the point at row `i` — ascending
    /// dimension order, bit-identical to [`crate::dist_sq`] on the
    /// row-major copy.
    #[inline]
    pub fn dist_sq_to(&self, i: usize, q: &[f64]) -> f64 {
        debug_assert_eq!(q.len(), self.dim);
        kernels::dist_sq_strided(&self.cols, self.cap, self.dim, i, q)
    }

    /// Batched squared distances from `q` to every stored point, written
    /// to `out[..len]` with the autovectorizing column kernel.
    #[inline]
    pub fn dist_sq_batch(&self, q: &[f64], out: &mut [f64]) {
        kernels::dist_sq_batch(&self.cols, self.cap, self.len(), self.dim, q, out);
    }

    /// Per-point scalar-loop variant of [`Self::dist_sq_batch`] —
    /// bit-identical results, kept as the equivalence reference.
    #[inline]
    pub fn dist_sq_scalar(&self, q: &[f64], out: &mut [f64]) {
        kernels::dist_sq_scalar(&self.cols, self.cap, self.len(), self.dim, q, out);
    }

    /// Keep only the rows for which `keep(row)` is true, preserving
    /// their order (row indices refer to the block before the call).
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let n = self.len();
        let mut w = 0;
        for i in 0..n {
            if keep(i) {
                if w != i {
                    for k in 0..self.dim {
                        self.cols[k * self.cap + w] = self.cols[k * self.cap + i];
                    }
                    self.items[w] = self.items[i];
                }
                w += 1;
            }
        }
        self.items.truncate(w);
    }

    /// Tight bounding box of the stored points (`None` when empty).
    pub fn mbr(&self) -> Option<Mbr> {
        if self.is_empty() {
            return None;
        }
        let mut lo = vec![0.0; self.dim];
        let mut hi = vec![0.0; self.dim];
        self.write_bounds(&mut lo, &mut hi);
        Some(Mbr::new(lo, hi))
    }

    /// Overwrite `mbr` with the tight bounding box of the stored points,
    /// reusing its storage. Panics when the block is empty or the
    /// dimensions differ.
    pub fn bound_into(&self, mbr: &mut Mbr) {
        assert!(!self.is_empty(), "an empty PointBlock has no bounding box");
        assert_eq!(mbr.dim(), self.dim, "box dimensionality mismatch");
        let (lo, hi) = mbr.corners_mut();
        self.write_bounds(lo, hi);
    }

    fn write_bounds(&self, lo: &mut [f64], hi: &mut [f64]) {
        for k in 0..self.dim {
            let (mut l, mut h) = (f64::INFINITY, f64::NEG_INFINITY);
            for &x in self.col(k) {
                if x < l {
                    l = x;
                }
                if x > h {
                    h = x;
                }
            }
            lo[k] = l;
            hi[k] = h;
        }
    }

    /// Owned heap bytes (id vector plus the shared column block).
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<u32>()
            + self.cols.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_sq;

    #[test]
    fn point_block_round_trips() {
        let mut b = PointBlock::with_capacity(3, 8);
        assert!(b.is_empty());
        assert!(b.mbr().is_none());
        for i in 0..5u32 {
            b.push(i * 10, &[i as f64, -(i as f64), 0.5]);
        }
        assert_eq!(b.len(), 5);
        assert_eq!(b.items(), &[0, 10, 20, 30, 40]);
        assert_eq!(b.coord(3, 0), 3.0);
        assert_eq!(b.coord(3, 1), -3.0);
        let mut buf = [0.0; 3];
        b.write_point(4, &mut buf);
        assert_eq!(buf, [4.0, -4.0, 0.5]);
        let m = b.mbr().unwrap();
        assert_eq!(m.lo(), &[0.0, -4.0, 0.5]);
        assert_eq!(m.hi(), &[4.0, 0.0, 0.5]);
        assert!(b.heap_bytes() >= 8 * 3 * 8);
    }

    #[test]
    fn point_block_distances_match_row_major() {
        let mut b = PointBlock::with_capacity(2, 4);
        let rows = [[0.0, 0.0], [3.0, 4.0], [-1.0, 2.5]];
        for (i, r) in rows.iter().enumerate() {
            b.push(i as u32, r);
        }
        let q = [1.0, -2.0];
        let mut batch = [0.0; 3];
        let mut scalar = [0.0; 3];
        b.dist_sq_batch(&q, &mut batch);
        b.dist_sq_scalar(&q, &mut scalar);
        for i in 0..3 {
            let want = dist_sq(&rows[i], &q);
            assert_eq!(batch[i].to_bits(), want.to_bits());
            assert_eq!(scalar[i].to_bits(), want.to_bits());
            assert_eq!(b.dist_sq_to(i, &q).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn point_block_remove_shifts_rows() {
        let mut b = PointBlock::with_capacity(2, 8);
        for i in 0..5u32 {
            b.push(i, &[i as f64, 10.0 + i as f64]);
        }
        assert_eq!(b.remove(1), 1);
        assert_eq!(b.items(), &[0, 2, 3, 4]);
        assert_eq!(b.col(0), &[0.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.col(1), &[10.0, 12.0, 13.0, 14.0]);
        // Remove last, then first.
        assert_eq!(b.remove(3), 4);
        assert_eq!(b.remove(0), 0);
        assert_eq!(b.items(), &[2, 3]);
        assert_eq!(b.col(0), &[2.0, 3.0]);
        let m = b.mbr().unwrap();
        assert_eq!(m.lo(), &[2.0, 12.0]);
        assert_eq!(m.hi(), &[3.0, 13.0]);
        // Freed slots are reusable.
        b.push(9, &[9.0, 19.0]);
        assert_eq!(b.items(), &[2, 3, 9]);
        assert_eq!(b.coord(2, 1), 19.0);
    }

    #[test]
    fn point_block_retain_and_bound_into() {
        let mut b = PointBlock::with_capacity(2, 8);
        for i in 0..6u32 {
            b.push(i, &[i as f64, -(i as f64)]);
        }
        b.retain(|i| i % 2 == 1);
        assert_eq!(b.items(), &[1, 3, 5]);
        assert_eq!(b.col(0), &[1.0, 3.0, 5.0]);
        assert_eq!(b.col(1), &[-1.0, -3.0, -5.0]);
        let mut m = Mbr::point(&[100.0, 100.0]);
        b.bound_into(&mut m);
        assert_eq!(m, b.mbr().unwrap());
        assert_eq!(m.lo(), &[1.0, -5.0]);
        assert_eq!(m.hi(), &[5.0, -1.0]);
    }

    #[test]
    fn a_full_point_block_grows_and_keeps_every_row() {
        for start in [0, 1, 3] {
            let mut b = PointBlock::with_capacity(2, start);
            for i in 0..20u32 {
                b.push(100 + i, &[i as f64, -0.5 * i as f64]);
                assert!(b.capacity() >= b.len());
                let want: Vec<u32> = (100..=100 + i).collect();
                assert_eq!(b.items(), &want[..], "start {start}");
                for r in 0..=i as usize {
                    assert_eq!(b.coord(r, 0), r as f64);
                    assert_eq!(b.coord(r, 1), -0.5 * r as f64);
                }
            }
            assert_eq!(b.capacity(), if start == 3 { 24 } else { 32 });
            let q = [1.0, 2.0];
            let mut batch = [0.0; 20];
            b.dist_sq_batch(&q, &mut batch);
            for (r, d) in batch.iter().enumerate() {
                assert_eq!(d.to_bits(), dist_sq(&[r as f64, -0.5 * r as f64], &q).to_bits());
            }
        }
    }
}
