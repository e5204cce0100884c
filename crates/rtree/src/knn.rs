//! Best-first k-nearest-neighbour search.
//!
//! Not used by μDBSCAN itself, but a standard R-tree capability that the
//! workspace exposes for the classic DBSCAN parameter-selection
//! heuristic: plot the sorted k-dist graph (distance to the k-th
//! neighbour) and pick ε at its knee (Ester et al. 1996 §4.2). See
//! [`RTree::kth_neighbor_dist`].
//!
//! Runs on the same MINDIST heap (`traversal::Candidate`, the same
//! per-thread scratch buffer) as the best-first ε-range query; leaves
//! compute exact point distances straight from the column block.

use crate::node::Node;
use crate::traversal::{with_scratch, Candidate, HEAP};
use crate::tree::RTree;

impl RTree {
    /// The `k` items nearest to `query` (ties broken arbitrarily),
    /// returned as `(item, distance)` sorted by ascending distance.
    /// Returns fewer than `k` pairs when the tree is smaller than `k`.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<(u32, f64)> {
        debug_assert_eq!(query.len(), self.dim());
        let mut out = Vec::with_capacity(k);
        let Some(root) = self.root else { return out };
        if k == 0 {
            return out;
        }
        with_scratch(&HEAP, |heap| {
            heap.clear();
            heap.push(Candidate::node(self.nodes[root as usize].mbr().min_dist_sq(query), root));
            while let Some(c) = heap.pop() {
                match c.item {
                    Some(item) => {
                        out.push((item, c.dist_sq.sqrt()));
                        if out.len() == k {
                            break;
                        }
                    }
                    None => match &self.nodes[c.node as usize] {
                        Node::Internal { children, .. } => {
                            for &ch in children {
                                heap.push(Candidate::node(
                                    self.nodes[ch as usize].mbr().min_dist_sq(query),
                                    ch,
                                ));
                            }
                        }
                        Node::Leaf { block, .. } => {
                            for i in 0..block.len() {
                                heap.push(Candidate::item(
                                    block.dist_sq_to(i, query),
                                    c.node,
                                    block.item(i),
                                ));
                            }
                        }
                    },
                }
            }
        });
        out
    }

    /// Distance from `query` to its `k`-th nearest item (1-indexed;
    /// `k = 1` is the nearest). `None` when the tree holds fewer than `k`
    /// items. This is the quantity of the k-dist graph used to choose ε.
    pub fn kth_neighbor_dist(&self, query: &[f64], k: usize) -> Option<f64> {
        let nn = self.knn(query, k);
        if nn.len() < k {
            None
        } else {
            Some(nn[k - 1].1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::dist_euclidean;

    fn tree_and_points() -> (RTree, Vec<Vec<f64>>) {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(vec![i as f64, j as f64 * 1.3]);
            }
        }
        let mut t = RTree::new(2);
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        (t, pts)
    }

    fn brute_knn(pts: &[Vec<f64>], q: &[f64], k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = pts.iter().map(|p| dist_euclidean(p, q)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    #[test]
    fn knn_matches_brute_force() {
        let (t, pts) = tree_and_points();
        for q in [vec![0.0, 0.0], vec![9.7, 13.1], vec![25.0, -3.0]] {
            for k in [1usize, 5, 17] {
                let got: Vec<f64> = t.knn(&q, k).into_iter().map(|(_, d)| d).collect();
                let want = brute_knn(&pts, &q, k);
                assert_eq!(got.len(), k);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-9, "{g} vs {w} (q={q:?}, k={k})");
                }
                // Ascending order.
                assert!(got.windows(2).all(|w| w[0] <= w[1] + 1e-12));
            }
        }
    }

    #[test]
    fn knn_on_bulk_loaded_point_leaves() {
        // Bulk-loaded trees pack their leaves differently from
        // insert-built ones; results must match brute force there too.
        let pts: Vec<Vec<f64>> = (0..300u32)
            .map(|i| {
                let h = |k: u32| {
                    let x = i.wrapping_mul(2654435761).wrapping_add(k.wrapping_mul(40503));
                    (x % 1000) as f64 / 10.0
                };
                vec![h(1), h(2), h(3)]
            })
            .collect();
        let t = RTree::bulk_load_points(
            3,
            crate::RTreeConfig::default(),
            pts.iter().enumerate().map(|(i, p)| (i as u32, p.clone())),
        );
        for q in [&pts[0], &pts[157]] {
            let got: Vec<f64> = t.knn(q, 7).into_iter().map(|(_, d)| d).collect();
            let want = brute_knn(&pts, q, 7);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn knn_small_tree_and_edge_cases() {
        let mut t = RTree::new(1);
        assert!(t.knn(&[0.0], 3).is_empty());
        t.insert_point(0, &[1.0]);
        t.insert_point(1, &[5.0]);
        let nn = t.knn(&[0.0], 5);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].0, 0);
        assert!(t.knn(&[0.0], 0).is_empty());
    }

    #[test]
    fn kth_neighbor_dist_for_eps_selection() {
        let (t, pts) = tree_and_points();
        let q = &pts[210];
        // 1st neighbour of a stored point is itself (distance 0).
        assert_eq!(t.kth_neighbor_dist(q, 1), Some(0.0));
        let d5 = t.kth_neighbor_dist(q, 5).unwrap();
        let want = brute_knn(&pts, q, 5)[4];
        assert!((d5 - want).abs() < 1e-9);
        assert_eq!(t.kth_neighbor_dist(q, pts.len() + 1), None);
    }
}
