//! Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE'97).
//!
//! For a static point set — R-DBSCAN's tree, the serving engine's
//! published index, OPTICS' core points — STR packs near-100 %-full
//! leaves with low overlap, which is both faster to build and faster to
//! query than repeated insertion.

use crate::node::Node;
use crate::tree::{RTree, RTreeConfig};
use geom::soa::PointBlock;
use geom::Mbr;

impl RTree {
    /// Bulk load point items from `(item, coords)` pairs using STR
    /// packing. The coordinates go straight into leaf blocks: the
    /// allocations grow with the number of leaves, not of points.
    pub fn bulk_load_points<C: AsRef<[f64]>>(
        dim: usize,
        cfg: RTreeConfig,
        points: impl IntoIterator<Item = (u32, C)>,
    ) -> RTree {
        let points = points.into_iter();
        let mut items: Vec<u32> = Vec::with_capacity(points.size_hint().0);
        let mut coords: Vec<f64> = Vec::with_capacity(points.size_hint().0 * dim);
        for (item, c) in points {
            items.push(item);
            coords.extend_from_slice(c.as_ref());
        }
        RTree::pack_points(dim, cfg, &items, &coords)
    }

    /// STR-pack `items[i]` at `coords[i * dim..]` into leaves. Kept apart
    /// from the generic [`Self::bulk_load_points`] so that the sort is
    /// compiled once.
    fn pack_points(dim: usize, cfg: RTreeConfig, items: &[u32], coords: &[f64]) -> RTree {
        let _span = obs::span!("rtree_bulk_load");
        let mut tree = RTree::with_config(dim, cfg);
        if items.is_empty() {
            return tree;
        }
        let point = |i: usize| &coords[i * dim..(i + 1) * dim];
        let mut order: Vec<usize> = (0..items.len()).collect();
        str_order(&mut order, coords, 0, dim, cfg.max_entries);

        // Blocks get the same capacity insertion-built leaves use (max + 1)
        // so later incremental pushes behave identically.
        let leaf_cap = tree.leaf_cap();
        let mut level: Vec<u32> = Vec::with_capacity(items.len().div_ceil(cfg.max_entries));
        for run in order.chunks(cfg.max_entries) {
            let mut block = PointBlock::with_capacity(dim, leaf_cap);
            for &i in run {
                block.push(items[i], point(i));
            }
            let mut mbr = Mbr::point(point(run[0]));
            block.bound_into(&mut mbr);
            let id = tree.nodes.len() as u32;
            tree.nodes.push(Node::Leaf { mbr, block });
            level.push(id);
        }
        tree.pack_levels(level, items.len());
        tree
    }

    /// Pack internal levels over the leaf ids in `level` until a single
    /// root remains, and finish the tree's bookkeeping.
    fn pack_levels(&mut self, mut level: Vec<u32>, len: usize) {
        let max = self.config().max_entries;
        let mut height = 1;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / max + 1);
            for chunk in level.chunks(max) {
                let mut m = self.nodes[chunk[0] as usize].mbr().clone();
                for &c in &chunk[1..] {
                    m.merge(self.nodes[c as usize].mbr());
                }
                let id = self.nodes.len() as u32;
                self.nodes.push(Node::Internal { mbr: m, children: chunk.to_vec() });
                next.push(id);
            }
            level = next;
            height += 1;
        }

        self.root = Some(level[0]);
        self.len = len;
        self.height = height;
        if obs::enabled() {
            obs::record_count("rtree/bulk_loaded_entries", len as u64);
            obs::record_count("rtree/bulk_loaded_nodes", self.nodes.len() as u64);
            // Distribution of bulk-load sizes: one sample per tree, so
            // many small trees and one large tree show up as separate
            // modes.
            obs::record_hist("rtree/bulk_load_entries", len as u64);
        }
    }
}

/// Recursively order the point indices `xs` by STR tiling so that
/// consecutive runs of `leaf_cap` points are spatially coherent; point
/// `i` sits at `coords[i * dim..]`.
fn str_order(xs: &mut [usize], coords: &[f64], axis: usize, dim: usize, leaf_cap: usize) {
    if xs.len() <= leaf_cap || axis >= dim {
        return;
    }
    let key = |i: usize| coords[i * dim + axis];
    xs.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal));
    if axis + 1 == dim {
        return;
    }
    // Number of slabs along this axis: ceil(P^(1/r)) with P = #leaves,
    // r = remaining axes.
    let p = xs.len().div_ceil(leaf_cap);
    let r = (dim - axis) as f64;
    let slabs = (p as f64).powf(1.0 / r).ceil() as usize;
    let slab_size = xs.len().div_ceil(slabs.max(1));
    for chunk in xs.chunks_mut(slab_size.max(1)) {
        str_order(chunk, coords, axis + 1, dim, leaf_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<(u32, Vec<f64>)> {
        // Deterministic pseudo-random 3-d points.
        (0..n as u32)
            .map(|i| {
                let h = |k: u32| {
                    let x = i.wrapping_mul(2654435761).wrapping_add(k.wrapping_mul(40503));
                    (x % 10_000) as f64 / 100.0
                };
                (i, vec![h(1), h(2), h(3)])
            })
            .collect()
    }

    #[test]
    fn bulk_load_valid_and_complete() {
        let points = pts(1000);
        let t = RTree::bulk_load_points(3, RTreeConfig::default(), points.clone());
        assert_eq!(t.len(), 1000);
        t.check_invariants();
        let mut seen = vec![false; 1000];
        t.for_each_point(|i, p| {
            assert_eq!(p, &points[i as usize].1[..]);
            seen[i as usize] = true;
        });
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bulk_load_empty() {
        let t = RTree::bulk_load_points(2, RTreeConfig::default(), Vec::<(u32, [f64; 2])>::new());
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn bulk_load_single_leaf() {
        let points = pts(10);
        let t = RTree::bulk_load_points(3, RTreeConfig::default(), points);
        assert_eq!(t.height(), 1);
        t.check_invariants();
    }

    #[test]
    fn bulk_matches_incremental_queries() {
        let points = pts(500);
        let bulk = RTree::bulk_load_points(3, RTreeConfig::default(), points.clone());
        let mut incr = RTree::new(3);
        for (i, p) in &points {
            incr.insert_point(*i, p);
        }
        for qi in [0usize, 123, 499] {
            let q = &points[qi].1;
            for r in [5.0, 17.0] {
                let mut a = bulk.sphere_neighbors(q, r);
                let mut b = incr.sphere_neighbors(q, r);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn bulk_leaves_are_packed() {
        let cfg = RTreeConfig::default();
        let t = RTree::bulk_load_points(3, cfg, pts(1024));
        // STR fills every leaf: exactly ceil(n / max_entries) of them.
        let leaves = t.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count();
        assert_eq!(leaves, 1024usize.div_ceil(cfg.max_entries));
    }
}
