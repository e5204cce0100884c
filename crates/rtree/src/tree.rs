//! The R-tree structure: ChooseLeaf insertion with Guttman's quadratic
//! split.

use crate::node::{Node, NodeId};
use crate::traversal::with_scratch;
use geom::{Mbr, PointBlock};
use std::cell::Cell;

/// Fan-out configuration. `min_entries <= max_entries / 2` must hold so a
/// split can always produce two valid nodes.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Maximum entries/children per node (Guttman's `M`).
    pub max_entries: usize,
    /// Minimum entries/children per node after a split (Guttman's `m`).
    pub min_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self { max_entries: 32, min_entries: 12 }
    }
}

impl RTreeConfig {
    /// Validated constructor.
    pub fn new(max_entries: usize, min_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be at least 4");
        assert!(
            min_entries >= 1 && min_entries <= max_entries / 2,
            "min_entries must be in 1..=max_entries/2"
        );
        Self { max_entries, min_entries }
    }
}

/// An R-tree over points, each identified by a `u32` item id.
#[derive(Debug, Clone)]
pub struct RTree {
    dim: usize,
    cfg: RTreeConfig,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<NodeId>,
    pub(crate) len: usize,
    pub(crate) height: usize, // number of levels; leaf-only tree has height 1
}

impl RTree {
    /// Empty tree for `dim`-dimensional data with default fan-out.
    pub fn new(dim: usize) -> Self {
        Self::with_config(dim, RTreeConfig::default())
    }

    /// Empty tree with explicit fan-out configuration.
    pub fn with_config(dim: usize, cfg: RTreeConfig) -> Self {
        assert!(dim > 0);
        Self { dim, cfg, nodes: Vec::new(), root: None, len: 0, height: 0 }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no item is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Data dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tree height in levels (0 for an empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of arena nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fan-out configuration.
    pub fn config(&self) -> RTreeConfig {
        self.cfg
    }

    /// Bounding box of the whole tree (`None` when empty).
    pub fn mbr(&self) -> Option<&Mbr> {
        self.root.map(|r| self.nodes[r as usize].mbr())
    }

    /// Capacity of a leaf's point block: one slot beyond `max_entries`
    /// so the overflowing point fits in place before the split runs.
    pub(crate) fn leaf_cap(&self) -> usize {
        self.cfg.max_entries + 1
    }

    /// Insert the point item `item` at `coords`. The coordinates go
    /// straight into a leaf's column block.
    pub fn insert_point(&mut self, item: u32, coords: &[f64]) {
        assert_eq!(coords.len(), self.dim, "point dimensionality mismatch");
        match self.root {
            None => {
                let mut block = PointBlock::with_capacity(self.dim, self.leaf_cap());
                block.push(item, coords);
                let id = self.push_node(Node::Leaf { mbr: Mbr::point(coords), block });
                self.root = Some(id);
                self.height = 1;
            }
            Some(root) => {
                if let Some(sibling) = self.insert_rec(root, item, coords) {
                    let mbr =
                        self.nodes[root as usize].mbr().merged(self.nodes[sibling as usize].mbr());
                    let new_root =
                        self.push_node(Node::Internal { mbr, children: vec![root, sibling] });
                    self.root = Some(new_root);
                    self.height += 1;
                }
            }
        }
        self.len += 1;
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        id
    }

    /// Recursive insert; returns the id of a new sibling when `node` split.
    fn insert_rec(&mut self, node: NodeId, item: u32, coords: &[f64]) -> Option<NodeId> {
        // Every box on the descent path must cover the point wherever it
        // lands, so grow it on the way down. ChooseLeaf scores only the
        // children's boxes, which are not grown until the descent reaches
        // them, so growing first picks the same subtree.
        self.nodes[node as usize].mbr_mut().merge_point(coords);
        let child = match &self.nodes[node as usize] {
            Node::Internal { children, .. } => self.choose_subtree(children, coords),
            Node::Leaf { .. } => {
                let max = self.cfg.max_entries;
                let Node::Leaf { block, .. } = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                block.push(item, coords);
                return (block.len() > max).then(|| self.split_leaf(node));
            }
        };
        let sibling = self.insert_rec(child, item, coords)?;
        let (parent, sib) = two(&mut self.nodes, node as usize, sibling as usize);
        parent.mbr_mut().merge(sib.mbr());
        let Node::Internal { children, .. } = parent else { unreachable!() };
        children.push(sibling);
        (children.len() > self.cfg.max_entries).then(|| self.split_internal(node))
    }

    /// Guttman's ChooseLeaf criterion: least enlargement, ties by smallest
    /// volume, then smallest margin.
    fn choose_subtree(&self, children: &[NodeId], p: &[f64]) -> NodeId {
        let mut best = children[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &c in children {
            let cm = self.nodes[c as usize].mbr();
            let volume = cm.volume();
            let key = (cm.merged_volume(p, p) - volume, volume, cm.margin());
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        best
    }

    /// Split an overfull leaf in two; `node` keeps the first group and the
    /// returned new node holds the second. Both keep storage order. The
    /// block is partitioned over a row-major copy of its points and split
    /// in place.
    fn split_leaf(&mut self, node: NodeId) -> NodeId {
        let (dim, cap, min) = (self.dim, self.leaf_cap(), self.cfg.min_entries);
        let Node::Leaf { mbr, block } = &mut self.nodes[node as usize] else { unreachable!() };
        let sibling = with_scratch(&SPLIT, |s| {
            let n = block.len();
            s.rows.clear();
            s.rows.resize(n * dim, 0.0);
            for (i, row) in s.rows.chunks_exact_mut(dim).enumerate() {
                block.write_point(i, row);
            }
            let rows = &s.rows;
            let row = |i: usize| &rows[i * dim..(i + 1) * dim];
            quadratic_partition(n, |i| (row(i), row(i)), min, &mut s.part);
            let to_b = &s.part.to_b;
            let mut moved = PointBlock::with_capacity(dim, cap);
            for i in (0..n).filter(|&i| to_b[i]) {
                moved.push(block.item(i), row(i));
            }
            block.retain(|i| !to_b[i]);
            block.bound_into(mbr);
            let moved_mbr = moved.mbr().expect("split group cannot be empty");
            Node::Leaf { mbr: moved_mbr, block: moved }
        });
        self.push_node(sibling)
    }

    /// Split an overfull internal node in two; `node` keeps the first
    /// group (its box refit in place) and the returned new node holds the
    /// second.
    fn split_internal(&mut self, node: NodeId) -> NodeId {
        let min = self.cfg.min_entries;
        let Node::Internal { children, .. } = &mut self.nodes[node as usize] else {
            unreachable!()
        };
        let taken = std::mem::take(children);
        let nodes = &self.nodes;
        let (ca, cb) = with_scratch(&SPLIT, |s| {
            let corners = |i: usize| {
                let m = nodes[taken[i] as usize].mbr();
                (m.lo(), m.hi())
            };
            quadratic_partition(taken.len(), corners, min, &mut s.part);
            let (mut ca, mut cb) = (Vec::new(), Vec::new());
            for (&c, &b) in taken.iter().zip(&s.part.to_b) {
                if b {
                    cb.push(c);
                } else {
                    ca.push(c);
                }
            }
            (ca, cb)
        });
        let mbr_b = self.mbr_of_children(&cb);
        let Node::Internal { children, .. } = &mut self.nodes[node as usize] else {
            unreachable!()
        };
        *children = ca;
        self.refit_internal(node);
        self.push_node(Node::Internal { mbr: mbr_b, children: cb })
    }

    /// The `k`-th child of internal `node`.
    fn child(&self, node: NodeId, k: usize) -> NodeId {
        let Node::Internal { children, .. } = &self.nodes[node as usize] else { unreachable!() };
        children[k]
    }

    /// Recompute internal `node`'s box exactly from its children, in place.
    fn refit_internal(&mut self, node: NodeId) {
        for k in 0..self.nodes[node as usize].fanout() {
            let c = self.child(node, k);
            let (parent, child) = two(&mut self.nodes, node as usize, c as usize);
            if k == 0 {
                parent.mbr_mut().clone_from(child.mbr());
            } else {
                parent.mbr_mut().merge(child.mbr());
            }
        }
    }

    fn mbr_of_children(&self, children: &[NodeId]) -> Mbr {
        let mut it = children.iter();
        let first = *it.next().expect("split group cannot be empty");
        let mut m = self.nodes[first as usize].mbr().clone();
        for &c in it {
            m.merge(self.nodes[c as usize].mbr());
        }
        m
    }

    /// Visit every `(item, coords)` pair in a fixed depth-first order
    /// (the coordinates are written into one reused buffer).
    pub fn for_each_point(&self, mut f: impl FnMut(u32, &[f64])) {
        let Some(root) = self.root else { return };
        let mut buf = vec![0.0; self.dim];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            match &self.nodes[n as usize] {
                Node::Internal { children, .. } => stack.extend_from_slice(children),
                Node::Leaf { block, .. } => {
                    for i in 0..block.len() {
                        block.write_point(i, &mut buf);
                        f(block.item(i), &buf);
                    }
                }
            }
        }
    }

    /// Estimated heap footprint in bytes (arena plus per-node vectors).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.nodes.iter().map(|n| n.heap_bytes()).sum::<usize>()
    }

    /// Internal consistency check (used by tests): every node's cached MBR
    /// covers its contents, fan-out bounds hold, item count matches.
    pub fn check_invariants(&self) {
        let Some(root) = self.root else {
            assert_eq!(self.len, 0);
            return;
        };
        let mut items = 0usize;
        let mut stack = vec![(root, 1usize)];
        let mut leaf_depth = None;
        let mut buf = vec![0.0; self.dim];
        while let Some((n, depth)) = stack.pop() {
            let node = &self.nodes[n as usize];
            if n != root {
                assert!(
                    node.fanout() <= self.cfg.max_entries,
                    "node {n} overfull: {}",
                    node.fanout()
                );
            }
            match node {
                Node::Internal { mbr, children } => {
                    assert!(!children.is_empty());
                    for &c in children {
                        assert!(
                            mbr.contains(self.nodes[c as usize].mbr()),
                            "parent MBR does not cover child"
                        );
                        stack.push((c, depth + 1));
                    }
                }
                Node::Leaf { mbr, block } => {
                    match leaf_depth {
                        None => leaf_depth = Some(depth),
                        Some(d) => assert_eq!(d, depth, "leaves at different depths"),
                    }
                    for i in 0..block.len() {
                        block.write_point(i, &mut buf);
                        assert!(mbr.contains_point(&buf), "leaf MBR does not cover point");
                        items += 1;
                    }
                    assert!(
                        block.capacity() > self.cfg.max_entries,
                        "leaf block too small to absorb an overflow point"
                    );
                }
            }
        }
        assert_eq!(items, self.len, "item count mismatch");
        assert_eq!(leaf_depth, Some(self.height), "height mismatch");
    }
}

/// `nodes[a]` mutably and `nodes[b]` shared, for `a != b`.
fn two(nodes: &mut [Node], a: usize, b: usize) -> (&mut Node, &Node) {
    debug_assert_ne!(a, b);
    if a < b {
        let (l, r) = nodes.split_at_mut(b);
        (&mut l[a], &r[0])
    } else {
        let (l, r) = nodes.split_at_mut(a);
        (&mut r[0], &l[b])
    }
}

/// Per-thread buffers reused by every node split.
#[derive(Default)]
struct SplitScratch {
    /// Row-major copy of the leaf being split.
    rows: Vec<f64>,
    part: Partition,
}

thread_local! {
    static SPLIT: Cell<SplitScratch> = Cell::new(SplitScratch::default());
}

/// The outcome of partitioning an overfull node, plus the quadratic
/// split's working buffers.
#[derive(Default)]
struct Partition {
    /// The group of each entry: `true` for the second group (the new
    /// sibling node).
    to_b: Vec<bool>,
    /// Entries not yet assigned, in PickNext's scan order.
    rest: Vec<usize>,
    /// The two growing group boxes, `[a_lo | a_hi | b_lo | b_hi]`.
    groups: Vec<f64>,
}

/// Guttman's quadratic split over `n` boxes given by their corners (a
/// point is the box `(p, p)`): writes each box's group to `part.to_b`.
/// Each group has at least `min_entries` members (assuming
/// `n > 2 * min_entries`, which holds when splitting an overfull node).
/// The group boxes live as corner slices in `part`'s buffers, scored with
/// the [`geom::mbr::corners`] arithmetic, so a split builds no temporary
/// [`Mbr`].
fn quadratic_partition<'a>(
    n: usize,
    corners: impl Fn(usize) -> (&'a [f64], &'a [f64]),
    min_entries: usize,
    part: &mut Partition,
) {
    use geom::mbr::corners::{margin, merge, merged_margin, merged_volume, volume};
    debug_assert!(n >= 2);
    // PickSeeds: the pair wasting the most volume (margin as tie-breaker so
    // degenerate point boxes still pick the farthest pair).
    let (mut sa, mut sb) = (0, 1);
    let mut worst = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let (ilo, ihi) = corners(i);
        let ivol = volume(ilo, ihi);
        for j in i + 1..n {
            let (jlo, jhi) = corners(j);
            let key = (
                merged_volume(ilo, ihi, jlo, jhi) - ivol - volume(jlo, jhi),
                merged_margin(ilo, ihi, jlo, jhi),
            );
            if key > worst {
                worst = key;
                sa = i;
                sb = j;
            }
        }
    }
    let Partition { to_b, rest, groups } = part;
    to_b.clear();
    to_b.resize(n, false);
    to_b[sb] = true;
    let (mut na, mut nb) = (1, 1);
    rest.clear();
    rest.extend((0..n).filter(|&i| i != sa && i != sb));
    let dim = corners(sa).0.len();
    groups.clear();
    for s in [sa, sb] {
        let (lo, hi) = corners(s);
        groups.extend_from_slice(lo);
        groups.extend_from_slice(hi);
    }
    let (a, b) = groups.split_at_mut(2 * dim);
    let ((alo, ahi), (blo, bhi)) = (a.split_at_mut(dim), b.split_at_mut(dim));

    while !rest.is_empty() {
        // If one group needs every remaining box to reach min_entries,
        // assign them all.
        if na + rest.len() == min_entries {
            rest.clear();
            break;
        }
        if nb + rest.len() == min_entries {
            for &i in rest.iter() {
                to_b[i] = true;
            }
            rest.clear();
            break;
        }
        // PickNext: the box with maximal preference difference.
        let (avol, amargin) = (volume(alo, ahi), margin(alo, ahi));
        let (bvol, bmargin) = (volume(blo, bhi), margin(blo, bhi));
        let mut best_k = 0;
        let mut best_diff = f64::NEG_INFINITY;
        for (k, &i) in rest.iter().enumerate() {
            let (lo, hi) = corners(i);
            let da =
                merged_volume(alo, ahi, lo, hi) - avol + merged_margin(alo, ahi, lo, hi) - amargin;
            let db =
                merged_volume(blo, bhi, lo, hi) - bvol + merged_margin(blo, bhi, lo, hi) - bmargin;
            let diff = (da - db).abs();
            if diff > best_diff {
                best_diff = diff;
                best_k = k;
            }
        }
        let i = rest.swap_remove(best_k);
        let (lo, hi) = corners(i);
        let da = (merged_volume(alo, ahi, lo, hi) - avol, merged_margin(alo, ahi, lo, hi));
        let db = (merged_volume(blo, bhi, lo, hi) - bvol, merged_margin(blo, bhi, lo, hi));
        if da <= db {
            na += 1;
            merge(alo, ahi, lo, hi);
        } else {
            to_b[i] = true;
            nb += 1;
            merge(blo, bhi, lo, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(nx: usize, ny: usize) -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                v.push(vec![i as f64, j as f64]);
            }
        }
        v
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new(3);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.mbr().is_none());
        t.check_invariants();
    }

    #[test]
    fn insert_grows_and_stays_valid() {
        let mut t = RTree::new(2);
        for (i, p) in grid_points(20, 20).iter().enumerate() {
            t.insert_point(i as u32, p);
            if i % 37 == 0 {
                t.check_invariants();
            }
        }
        assert_eq!(t.len(), 400);
        assert!(t.height() >= 2);
        t.check_invariants();
        let m = t.mbr().unwrap();
        assert_eq!(m.lo(), &[0.0, 0.0]);
        assert_eq!(m.hi(), &[19.0, 19.0]);
    }

    #[test]
    fn for_each_point_visits_all_once() {
        let pts = grid_points(9, 9);
        let mut t = RTree::new(2);
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        let mut seen = [false; 81];
        t.for_each_point(|item, coords| {
            assert!(!seen[item as usize]);
            seen[item as usize] = true;
            assert_eq!(coords, &pts[item as usize][..]);
        });
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn quadratic_partition_respects_min() {
        let pts: Vec<Mbr> = (0..10).map(|i| Mbr::point(&[i as f64, 0.0])).collect();
        let mut part = Partition::default();
        quadratic_partition(10, |i| (pts[i].lo(), pts[i].hi()), 4, &mut part);
        assert_eq!(part.to_b.len(), 10);
        let nb = part.to_b.iter().filter(|&&b| b).count();
        assert!(nb >= 4 && 10 - nb >= 4, "groups of {} and {nb}", 10 - nb);
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut t = RTree::new(2);
        for i in 0..100u32 {
            t.insert_point(i, &[1.0, 1.0]);
        }
        assert_eq!(t.len(), 100);
        t.check_invariants();
    }

    #[test]
    fn collinear_points_split_fine() {
        // Zero-volume MBRs exercise the margin tie-breakers.
        let mut t = RTree::with_config(1, RTreeConfig::new(4, 2));
        for i in 0..64u32 {
            t.insert_point(i, &[i as f64]);
        }
        t.check_invariants();
        assert!(t.height() >= 3);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn config_validation() {
        RTreeConfig::new(8, 5);
    }
}
