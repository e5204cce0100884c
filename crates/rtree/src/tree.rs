//! The R-tree structure: ChooseLeaf insertion with Guttman's quadratic
//! split.

use crate::node::{Node, NodeId};
use crate::traversal::with_scratch;
use geom::{Mbr, PointBlock};
use std::cell::Cell;
use std::sync::Arc;

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
///
/// Cloning is cheap: the clone shares every node with the original, and
/// each later insert or removal copies only the nodes it changes.
#[derive(Debug, Clone)]
pub struct RTree {
    dim: usize,
    cfg: RTreeConfig,
    /// The node arena. A node is shared by every clone that still holds
    /// it; all writes go through [`Arc::make_mut`], which copies a node
    /// first when another version holds it too.
    pub(crate) nodes: Vec<Arc<Node>>,
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

    /// Remove the point item `item` stored at `coords`. Returns `true`
    /// when the item was found and removed.
    ///
    /// The descent only visits subtrees whose box contains `coords`; on
    /// the unwind every ancestor's cached MBR is recomputed exactly (in
    /// place) from its surviving children, so boxes *shrink* — queries
    /// after a removal pay no dead-volume penalty. Nodes emptied by the
    /// removal are unlinked from their parent (their arena slots are
    /// reclaimed only when the tree empties entirely). No minimum-fan-out
    /// reinsertion is performed: underfull nodes are legal in this tree,
    /// deletion merely trades a little query balance for O(height) cost.
    pub fn remove_point(&mut self, item: u32, coords: &[f64]) -> bool {
        assert_eq!(coords.len(), self.dim, "point dimensionality mismatch");
        let Some(root) = self.root else { return false };
        match self.remove_rec(root, item, coords) {
            Removal::NotFound => false,
            Removal::Removed { empty } => {
                self.len -= 1;
                if empty {
                    // Last item gone: reset to the pristine empty state
                    // and reclaim the whole arena.
                    self.nodes.clear();
                    self.root = None;
                    self.height = 0;
                }
                true
            }
        }
    }

    fn remove_rec(&mut self, node: NodeId, item: u32, coords: &[f64]) -> Removal {
        if let Node::Leaf { block, .. } = &*self.nodes[node as usize] {
            let holds = |i: usize| {
                block.item(i) == item && (0..block.dim()).all(|k| block.coord(i, k) == coords[k])
            };
            let Some(i) = (0..block.len()).find(|&i| holds(i)) else {
                return Removal::NotFound;
            };
            // Only a leaf that holds the item is written (and so copied).
            let Node::Leaf { mbr, block } = self.node_mut(node) else { unreachable!() };
            block.remove(i);
            if block.is_empty() {
                return Removal::Removed { empty: true };
            }
            block.bound_into(mbr);
            return Removal::Removed { empty: false };
        }

        // Index-based: the child list is only modified right before
        // returning.
        for k in 0..self.nodes[node as usize].fanout() {
            let c = self.child(node, k);
            if !self.nodes[c as usize].mbr().contains_point(coords) {
                continue;
            }
            let Removal::Removed { empty } = self.remove_rec(c, item, coords) else { continue };
            let Node::Internal { children, .. } = self.node_mut(node) else { unreachable!() };
            if empty {
                children.remove(k);
            }
            if children.is_empty() {
                return Removal::Removed { empty: true };
            }
            self.refit_internal(node);
            return Removal::Removed { empty: false };
        }
        Removal::NotFound
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Arc::new(node));
        id
    }

    /// Node `id` for writing, copied first if another clone shares it.
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        Arc::make_mut(&mut self.nodes[id as usize])
    }

    /// Recursive insert; returns the id of a new sibling when `node` split.
    fn insert_rec(&mut self, node: NodeId, item: u32, coords: &[f64]) -> Option<NodeId> {
        // Every box on the descent path must cover the point wherever it
        // lands, so grow it on the way down. ChooseLeaf scores only the
        // children's boxes, which are not grown until the descent reaches
        // them, so growing first picks the same subtree.
        self.node_mut(node).mbr_mut().merge_point(coords);
        let child = match &*self.nodes[node as usize] {
            Node::Internal { children, .. } => self.choose_subtree(children, coords),
            Node::Leaf { .. } => {
                let max = self.cfg.max_entries;
                let Node::Leaf { block, .. } = self.node_mut(node) else { unreachable!() };
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
        let Node::Leaf { mbr, block } = self.node_mut(node) else { unreachable!() };
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
        let Node::Internal { children, .. } = self.node_mut(node) else { unreachable!() };
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
        let Node::Internal { children, .. } = self.node_mut(node) else { unreachable!() };
        *children = ca;
        self.refit_internal(node);
        self.push_node(Node::Internal { mbr: mbr_b, children: cb })
    }

    /// The `k`-th child of internal `node`.
    fn child(&self, node: NodeId, k: usize) -> NodeId {
        let Node::Internal { children, .. } = &*self.nodes[node as usize] else { unreachable!() };
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
            match &*self.nodes[n as usize] {
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

    /// Estimated heap footprint in bytes: the arena's slots, and for each
    /// node its `Arc` allocation (the two reference counts and the node)
    /// plus its vectors. A node shared with a clone is counted in each.
    pub fn heap_bytes(&self) -> usize {
        let arc_node = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Node>();
        self.nodes.capacity() * std::mem::size_of::<Arc<Node>>()
            + self.nodes.iter().map(|n| arc_node + n.heap_bytes()).sum::<usize>()
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
            let node = &*self.nodes[n as usize];
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

/// Outcome of a recursive removal below one node.
enum Removal {
    NotFound,
    Removed {
        /// The child subtree is now empty and must be unlinked.
        empty: bool,
    },
}

/// `nodes[a]` mutably (copied first if shared) and `nodes[b]` shared, for
/// `a != b`.
fn two(nodes: &mut [Arc<Node>], a: usize, b: usize) -> (&mut Node, &Node) {
    debug_assert_ne!(a, b);
    if a < b {
        let (l, r) = nodes.split_at_mut(b);
        (Arc::make_mut(&mut l[a]), &r[0])
    } else {
        let (l, r) = nodes.split_at_mut(a);
        (Arc::make_mut(&mut r[0]), &l[b])
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
    use proptest::prelude::*;

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

    #[test]
    fn remove_point_shrinks_and_stays_valid() {
        let mut t = RTree::with_config(2, RTreeConfig::new(4, 2));
        let pts = grid_points(8, 8);
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        t.check_invariants();
        // Remove the whole x == 7 boundary column: the root MBR must
        // shrink to x <= 6 (exact recompute, not a stale cover).
        for (i, p) in pts.iter().enumerate() {
            if p[0] == 7.0 {
                assert!(t.remove_point(i as u32, p));
            }
        }
        assert_eq!(t.len(), 56);
        t.check_invariants();
        let m = t.mbr().unwrap().clone();
        assert_eq!(m.hi(), &[6.0, 7.0], "root MBR did not shrink: {m:?}");
        // Removing again (or a never-inserted item) is a no-op.
        assert!(!t.remove_point(63, &[7.0, 7.0]));
        assert!(!t.remove_point(999, &[3.0, 3.0]));
        assert_eq!(t.len(), 56);
    }

    #[test]
    fn remove_to_empty_then_reinsert() {
        let mut t = RTree::with_config(2, RTreeConfig::new(4, 2));
        let pts = grid_points(5, 5);
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        for (i, p) in pts.iter().enumerate() {
            assert!(t.remove_point(i as u32, p));
            t.check_invariants();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.mbr().is_none());
        assert_eq!(t.node_count(), 0, "empty tree must reclaim its arena");
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        assert_eq!(t.len(), 25);
        t.check_invariants();
    }

    #[test]
    fn interleaved_insert_remove_queries_match_linear_scan() {
        // Deterministic pseudo-random interleaving of inserts and removals;
        // after every phase, sphere queries must match a linear scan over
        // the live set.
        let mut t = RTree::with_config(2, RTreeConfig::new(8, 4));
        let coords = |i: u32| {
            let h = |k: u32| {
                let x = i.wrapping_mul(2654435761).wrapping_add(k.wrapping_mul(913));
                (x % 997) as f64 / 31.0
            };
            vec![h(1), h(2)]
        };
        let mut live: Vec<u32> = Vec::new();
        for i in 0..400u32 {
            t.insert_point(i, &coords(i));
            live.push(i);
            // Every third insert, remove a pseudo-random live point.
            if i % 3 == 2 {
                let k = (i.wrapping_mul(48271) as usize) % live.len();
                let victim = live.swap_remove(k);
                assert!(t.remove_point(victim, &coords(victim)));
            }
            if i % 53 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), live.len());
        for q in [&coords(7), &coords(123), &coords(399)] {
            for r in [2.0, 9.0] {
                let mut got = t.sphere_neighbors(q, r);
                got.sort_unstable();
                let r_sq = r * r;
                let mut want: Vec<u32> = live
                    .iter()
                    .copied()
                    .filter(|&p| {
                        let c = coords(p);
                        let d = (c[0] - q[0]).powi(2) + (c[1] - q[1]).powi(2);
                        d < r_sq
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn remove_duplicate_coordinate_points_one_at_a_time() {
        let mut t = RTree::new(2);
        for i in 0..20u32 {
            t.insert_point(i, &[1.0, 1.0]);
        }
        for i in (0..20u32).rev() {
            assert!(t.remove_point(i, &[1.0, 1.0]));
            assert!(!t.remove_point(i, &[1.0, 1.0]), "id {i} removed twice");
            t.check_invariants();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn heap_bytes_counts_slots_as_pointers_and_shared_nodes_in_each_version() {
        let items = (0..10u32).map(|i| (i, [i as f64, 0.0]));
        let t = RTree::bulk_load_points(2, RTreeConfig::new(4, 2), items);
        // Three leaves (4, 4 and 2 points) under one root.
        assert_eq!(t.node_count(), 4);
        let slot = std::mem::size_of::<usize>();
        let arc_node = 2 * slot + std::mem::size_of::<Node>();
        let vectors: usize = t.nodes.iter().map(|n| n.heap_bytes()).sum();
        assert_eq!(t.heap_bytes(), t.nodes.capacity() * slot + 4 * arc_node + vectors);
        // A clone shares all four nodes, and each version counts them.
        let c = t.clone();
        assert!(c.nodes.iter().zip(&t.nodes).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(c.heap_bytes(), c.nodes.capacity() * slot + 4 * arc_node + vectors);
    }

    /// Slots of `b` that do not hold `a`'s node: differing slots both
    /// arenas have, plus the slots only `b` has.
    fn unshared_slots(a: &RTree, b: &RTree) -> usize {
        let common = a.nodes.len().min(b.nodes.len());
        let differing = (0..common).filter(|&i| !Arc::ptr_eq(&a.nodes[i], &b.nodes[i])).count();
        differing + (b.nodes.len() - common)
    }

    fn reachable_leaves(t: &RTree) -> usize {
        let mut stack: Vec<NodeId> = t.root.into_iter().collect();
        let mut leaves = 0;
        while let Some(n) = stack.pop() {
            match &*t.nodes[n as usize] {
                Node::Internal { children, .. } => stack.extend_from_slice(children),
                Node::Leaf { .. } => leaves += 1,
            }
        }
        leaves
    }

    /// `(item, coords)` pairs.
    type Items = Vec<(u32, Vec<f64>)>;

    /// Every point of `t` in visiting order, and every sphere query
    /// centred on a point of `live` (three radii) checked against a
    /// linear scan of `live`.
    fn observe(t: &RTree, live: &[(u32, Vec<f64>)]) -> (Items, Vec<Vec<u32>>) {
        t.check_invariants();
        let mut points = Vec::new();
        t.for_each_point(|i, c| points.push((i, c.to_vec())));
        let mut sorted = points.clone();
        sorted.sort_by_key(|(i, _)| *i);
        let mut want_points = live.to_vec();
        want_points.sort_by_key(|(i, _)| *i);
        assert_eq!(sorted, want_points, "stored points differ from the live set");
        let mut answers = Vec::new();
        for (_, q) in live {
            for r in [0.5, 4.0, 30.0] {
                let mut got = Vec::new();
                t.search_sphere(q, r, |i| got.push(i));
                got.sort_unstable();
                let d = |c: &[f64]| (c[0] - q[0]).powi(2) + (c[1] - q[1]).powi(2);
                let mut want: Vec<u32> =
                    live.iter().filter(|(_, c)| d(c) < r * r).map(|(i, _)| *i).collect();
                want.sort_unstable();
                assert_eq!(got, want, "query at {q:?} radius {r}");
                answers.push(got);
            }
        }
        (points, answers)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A clone stays as it was while the other copy takes inserts and
        /// removals (leaf and internal splits, leaves emptied to zero),
        /// and each op copies at most one root-to-leaf path of nodes
        /// besides the nodes its splits create, so all ops together copy
        /// at most ops × height.
        #[test]
        fn a_clone_is_untouched_by_edits_to_the_other_copy(
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edited = RTree::with_config(2, RTreeConfig::new(4, 2));
            let mut live: Items = Vec::new();
            let mut next = 0u32;
            let mut insert = |t: &mut RTree, rng: &mut StdRng, lo: f64, width: f64| {
                let c = vec![lo + width * rng.gen::<f64>(), lo + width * rng.gen::<f64>()];
                t.insert_point(next, &c);
                next += 1;
                (next - 1, c)
            };
            for _ in 0..rng.gen_range(10..200) {
                let p = insert(&mut edited, &mut rng, 0.0, 50.0);
                live.push(p);
            }
            let frozen = edited.clone();
            let frozen_live = live.clone();
            let before = observe(&frozen, &frozen_live);
            let (height0, nodes0) = (frozen.height(), frozen.node_count());
            prop_assert_eq!(unshared_slots(&frozen, &edited), 0, "the clone copied nodes");

            // Nodes `edited` copied from `frozen` so far (not counting the
            // nodes splits created). Checked after every op: one insert
            // or removal copies at most one root-to-leaf path.
            let copied = |t: &RTree| unshared_slots(&frozen, t) - (t.node_count() - nodes0);
            let mut last = 0;
            let mut step = |t: &RTree| {
                let now = copied(t);
                let fresh = now - last;
                last = now;
                (fresh <= t.height()).then_some(()).ok_or(fresh)
            };
            // A burst far from the rest fills leaves of its own: they split,
            // and so does the internal node above them.
            let mut burst = Vec::new();
            for _ in 0..rng.gen_range(24..40) {
                burst.push(insert(&mut edited, &mut rng, 100.0, 1.0));
                prop_assert_eq!(step(&edited), Ok(()));
            }
            let new_internal = edited.nodes[nodes0..]
                .iter()
                .any(|n| matches!(**n, Node::Internal { .. }));
            prop_assert!(new_internal, "no internal split");
            // Churn: inserts anywhere, removals of random non-burst points
            // (never the last, so the arena is never reclaimed).
            for _ in 0..rng.gen_range(0..40) {
                if rng.gen::<bool>() && live.len() > 1 {
                    let (i, c) = live.swap_remove(rng.gen_range(0..live.len()));
                    prop_assert!(edited.remove_point(i, &c));
                } else {
                    let p = insert(&mut edited, &mut rng, 0.0, 50.0);
                    live.push(p);
                }
                prop_assert_eq!(step(&edited), Ok(()));
            }
            // Removing the burst empties its leaves to zero.
            let leaves = reachable_leaves(&edited);
            for (i, c) in &burst {
                prop_assert!(edited.remove_point(*i, c));
                prop_assert_eq!(step(&edited), Ok(()));
            }
            prop_assert!(reachable_leaves(&edited) < leaves, "no leaf was emptied");
            observe(&edited, &live);

            prop_assert_eq!(observe(&frozen, &frozen_live), before);
            prop_assert_eq!((frozen.height(), frozen.node_count()), (height0, nodes0));
        }
    }
}
