//! Open ε-ball range queries.
//!
//! Ball queries prune nodes with the exact box/sphere distance test
//! ([`geom::Mbr::min_dist_sq`]) and test leaf points with the strict
//! `DIST(p, q) < r` membership predicate, so `search_sphere` returns the
//! exact open-ball neighbourhood with no post-filtering.
//!
//! `search_sphere` expands nodes best-first from the shared MINDIST heap
//! ([`crate::traversal`]) and evaluates each leaf with one batched
//! column-kernel call. Both preserve the query's work profile exactly —
//! same node-visit set, same per-point distance tests, same matches as a
//! depth-first per-point scan — they only reorder emission and let the
//! distance loop vectorize. `first_in_sphere` intentionally stays
//! depth-first with per-point evaluation: its result is *which* item is
//! found first, and the short-circuit accounting charges exactly the
//! points examined.

use crate::node::Node;
use crate::traversal::{scalar_leaf_eval_forced, with_scratch, Candidate, DISTS, HEAP, STACK};
use crate::tree::RTree;
use geom::PointBlock;

/// Work performed by one query — feeds the paper's query-cost accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// Tree nodes whose children/entries were scanned.
    pub nodes_visited: u64,
    /// Box/box or box/sphere tests on entries and children.
    pub mbr_tests: u64,
    /// Leaf entries whose exact distance was evaluated (the candidate set
    /// the leaf kernels ran over). A batched leaf charges one per stored
    /// point; a short-circuiting scan charges only the entries it
    /// examined before stopping.
    pub candidates: u64,
    /// Items reported to the visitor.
    pub matches: u64,
}

impl QueryCost {
    /// Accumulate another query's cost.
    pub fn add(&mut self, other: QueryCost) {
        self.nodes_visited += other.nodes_visited;
        self.mbr_tests += other.mbr_tests;
        self.candidates += other.candidates;
        self.matches += other.matches;
    }
}

impl RTree {
    /// Visit every item strictly within `r` of `center`
    /// (`DIST(center, point) < r`).
    ///
    /// Nodes are expanded best-first (ascending MINDIST); each leaf is
    /// evaluated with one batched kernel call over its column block. Matches arrive roughly near-to-far, but the visited
    /// node set — and therefore every [`QueryCost`] counter — is identical
    /// to a depth-first scan with the same strict pruning. A tree that is
    /// a single leaf is scanned directly,
    /// with the same one-node charge, and the heap and distance buffer are
    /// per-thread scratch, so a warm query allocates nothing.
    pub fn search_sphere(&self, center: &[f64], r: f64, mut visit: impl FnMut(u32)) -> QueryCost {
        debug_assert_eq!(center.len(), self.dim());
        let r_sq = r * r;
        let mut cost = QueryCost::default();
        let Some(root) = self.root else { return cost };
        let scalar = scalar_leaf_eval_forced();
        with_scratch(&DISTS, |dists| {
            let mut scan_leaf = |block: &PointBlock, cost: &mut QueryCost| {
                let len = block.len();
                dists.resize(len, 0.0);
                if scalar {
                    block.dist_sq_scalar(center, dists);
                } else {
                    block.dist_sq_batch(center, dists);
                }
                cost.mbr_tests += len as u64;
                cost.candidates += len as u64;
                for (i, &d) in dists[..len].iter().enumerate() {
                    if d < r_sq {
                        cost.matches += 1;
                        visit(block.item(i));
                    }
                }
            };
            if let Node::Leaf { block, .. } = &self.nodes[root as usize] {
                cost.nodes_visited += 1;
                scan_leaf(block, &mut cost);
                return;
            }
            with_scratch(&HEAP, |heap| {
                heap.clear();
                heap.push(Candidate::node(0.0, root));
                while let Some(c) = heap.pop() {
                    cost.nodes_visited += 1;
                    match &self.nodes[c.node as usize] {
                        Node::Internal { children, .. } => {
                            for &ch in children {
                                cost.mbr_tests += 1;
                                let d = self.nodes[ch as usize].mbr().min_dist_sq(center);
                                if d < r_sq {
                                    heap.push(Candidate::node(d, ch));
                                }
                            }
                        }
                        Node::Leaf { block, .. } => scan_leaf(block, &mut cost),
                    }
                }
            });
        });
        cost
    }

    /// First item found strictly within `r` of `center` (`None` when nothing qualifies), plus the traversal
    /// cost actually paid. Traversal stops at the first hit — this is the
    /// short-circuit test micro-cluster construction uses ("is there *any*
    /// MC center within ε / 2ε of this point?").
    ///
    /// Earlier versions discarded the [`QueryCost`], which forced the two
    /// construction scan loops to *guess* (a flat one node visit per point
    /// and 1–2 distance tests per hit) — returning the real cost closes
    /// that query-accounting hole.
    ///
    /// Deliberately depth-first with per-point evaluation: the identity of
    /// the hit seeds micro-cluster construction, and per-point early exit
    /// charges exactly the points examined (a batched leaf would either
    /// over-charge past the hit or mis-report the scan cost). A single-leaf
    /// tree is scanned without a stack; otherwise the stack is per-thread
    /// scratch.
    pub fn first_in_sphere(&self, center: &[f64], r: f64) -> (Option<u32>, QueryCost) {
        let r_sq = r * r;
        let mut cost = QueryCost::default();
        let Some(root) = self.root else { return (None, cost) };
        let scan_leaf = |block: &PointBlock, cost: &mut QueryCost| {
            for i in 0..block.len() {
                cost.mbr_tests += 1;
                cost.candidates += 1;
                if block.dist_sq_to(i, center) < r_sq {
                    cost.matches += 1;
                    return Some(block.item(i));
                }
            }
            None
        };
        if let Node::Leaf { block, .. } = &self.nodes[root as usize] {
            cost.nodes_visited += 1;
            let hit = scan_leaf(block, &mut cost);
            return (hit, cost);
        }
        let hit = with_scratch(&STACK, |stack| {
            stack.clear();
            stack.push(root);
            while let Some(n) = stack.pop() {
                cost.nodes_visited += 1;
                match &self.nodes[n as usize] {
                    Node::Internal { children, .. } => {
                        for &c in children {
                            cost.mbr_tests += 1;
                            if self.nodes[c as usize].mbr().min_dist_sq(center) < r_sq {
                                stack.push(c);
                            }
                        }
                    }
                    Node::Leaf { block, .. } => {
                        if let Some(hit) = scan_leaf(block, &mut cost) {
                            return Some(hit);
                        }
                    }
                }
            }
            None
        });
        (hit, cost)
    }

    /// Collect the ids of all items strictly within `r` of `center`.
    pub fn sphere_neighbors(&self, center: &[f64], r: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.search_sphere(center, r, |i| out.push(i));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::force_scalar_leaf_eval;
    use geom::dist_euclidean;

    fn build_grid(n: usize) -> (RTree, Vec<Vec<f64>>) {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                pts.push(vec![i as f64, j as f64]);
            }
        }
        let mut t = RTree::new(2);
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        (t, pts)
    }

    #[test]
    fn sphere_query_matches_linear_scan() {
        let (t, pts) = build_grid(15);
        for (qi, r) in [(0usize, 1.5), (112, 2.0), (224, 0.5), (37, 3.7)] {
            let q = &pts[qi];
            let mut got = t.sphere_neighbors(q, r);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| dist_euclidean(q, p) < r)
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} r={r}");
        }
    }

    #[test]
    fn sphere_query_is_strict() {
        let mut t = RTree::new(1);
        t.insert_point(0, &[0.0]);
        t.insert_point(1, &[1.0]);
        // Point 1 at distance exactly 1.0 must be excluded for r = 1.0.
        assert_eq!(t.sphere_neighbors(&[0.0], 1.0), vec![0]);
        let mut both = t.sphere_neighbors(&[0.0], 1.0 + 1e-9);
        both.sort_unstable();
        assert_eq!(both, vec![0, 1]);
    }

    #[test]
    fn node_exactly_eps_away_is_pruned() {
        // ε-boundary pruning at *node* level: a subtree whose MBR face
        // sits exactly ε from the query holds no open-ball member, so
        // best-first expansion must not even visit it. Build two spatially
        // separate leaves by bulk-loading two tight clusters; query from
        // a point exactly ε left of the far cluster's nearest face.
        let cfg = crate::RTreeConfig::new(4, 2);
        let mut pts: Vec<(u32, Vec<f64>)> = Vec::new();
        // Near cluster around x ∈ [0, 3] (ids 0..4), far cluster x ∈ [64, 67].
        for i in 0..4u32 {
            pts.push((i, vec![i as f64, 0.0]));
            pts.push((4 + i, vec![64.0 + i as f64, 0.0]));
        }
        let t = RTree::bulk_load_points(2, cfg, pts);
        // Query exactly eps = 32 left of x = 64 (all powers of two: exact).
        let q = [32.0, 0.0];
        let eps = 32.0;
        let full = t.search_sphere(&q, eps, |i| assert!(i < 4, "far-cluster item {i} leaked"));
        // The far subtree's MBR has min_dist_sq == eps² and must be pruned
        // without a visit; only its parent paid one mbr test for it.
        let wide = t.search_sphere(&q, eps * (1.0 + 1e-9), |_| {});
        assert!(full.nodes_visited < wide.nodes_visited, "exactly-ε subtree must not be visited");
        // Points at x=0 and x=64 are both exactly ε away: excluded (strict).
        assert_eq!(full.matches, 3);
        assert_eq!(wide.matches, 5, "nudging ε outward admits both boundary points");
    }

    #[test]
    fn query_cost_reported() {
        let (t, pts) = build_grid(10);
        let mut n = 0usize;
        let cost = t.search_sphere(&pts[55], 2.0, |_| n += 1);
        assert!(n > 0);
        assert!(cost.nodes_visited >= 1);
        assert!(cost.mbr_tests as usize >= n);
        assert!(cost.candidates as usize >= n);
        assert!(cost.candidates <= cost.mbr_tests);
        assert_eq!(cost.matches as usize, n);
        // A tight query must visit far fewer nodes than the whole arena.
        assert!(cost.nodes_visited < t.node_count() as u64);
    }

    #[test]
    fn scalar_and_batched_leaf_eval_agree_bitwise() {
        let (t, pts) = build_grid(13);
        for (qi, r) in [(0usize, 2.5), (84, 3.7), (168, 1.0)] {
            let q = &pts[qi];
            let mut batched = Vec::new();
            let batched_cost = t.search_sphere(q, r, |i| batched.push(i));
            force_scalar_leaf_eval(true);
            let mut scalar = Vec::new();
            let scalar_cost = t.search_sphere(q, r, |i| scalar.push(i));
            force_scalar_leaf_eval(false);
            // Same visit order, same matches, same cost — bit-identical path.
            assert_eq!(batched, scalar, "query {qi} r={r}");
            assert_eq!(batched_cost, scalar_cost);
        }
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree::new(2);
        assert!(t.sphere_neighbors(&[0.0, 0.0], 10.0).is_empty());
    }

    #[test]
    fn first_in_sphere_short_circuits() {
        let (t, pts) = build_grid(10);
        // Dense area: must find something within 1.5 of any grid point.
        let (hit, cost) = t.first_in_sphere(&pts[44], 1.5);
        assert!(hit.is_some());
        assert_eq!(cost.matches, 1);
        assert!(cost.nodes_visited >= 1);
        assert!(cost.mbr_tests >= 1);
        // Every leaf entry examined was charged as a candidate, and the
        // short circuit must charge no more than a full evaluation.
        assert!(cost.candidates >= 1);
        let full = t.search_sphere(&pts[44], 1.5, |_| {});
        assert!(cost.nodes_visited <= full.nodes_visited);
        assert!(cost.mbr_tests <= full.mbr_tests);
        assert!(cost.candidates <= full.candidates);
        // Far away: nothing within 3 — but the root was still inspected.
        let (miss, miss_cost) = t.first_in_sphere(&[100.0, 100.0], 3.0);
        assert_eq!(miss, None);
        assert_eq!(miss_cost.matches, 0);
        assert!(miss_cost.nodes_visited >= 1);
        // Strictness: point exactly at distance r is not a hit.
        assert_eq!(t.first_in_sphere(&[-1.0, 0.0], 1.0).0, None);
        assert!(t.first_in_sphere(&[-1.0, 0.0], 1.0 + 1e-9).0.is_some());
        // Empty tree: no hit, zero cost.
        let (none, empty_cost) = RTree::new(2).first_in_sphere(&[0.0, 0.0], 10.0);
        assert_eq!(none, None);
        assert_eq!(empty_cost, QueryCost::default());
    }

    #[test]
    fn query_cost_add() {
        let mut a = QueryCost { nodes_visited: 1, mbr_tests: 2, candidates: 1, matches: 3 };
        a.add(QueryCost { nodes_visited: 10, mbr_tests: 20, candidates: 15, matches: 30 });
        assert_eq!(a, QueryCost { nodes_visited: 11, mbr_tests: 22, candidates: 16, matches: 33 });
    }
}
