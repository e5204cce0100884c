//! Shared best-first traversal machinery.
//!
//! Both the ε-range query ([`crate::RTree::search_sphere`]) and k-NN
//! ([`crate::RTree::knn`]) expand tree nodes from a min-heap keyed by
//! MINDIST to the query point. The heap entry lives here so the two
//! traversals share one ordering (and one set of tie-breaks).
//!
//! For a *range* query, best-first expansion visits exactly the node
//! **set** a depth-first scan visits — children are pruned with the same
//! strict `min_dist_sq < r²` test before being pushed, and every pushed
//! node is eventually popped — so all node-visit and distance-test
//! counters are bit-identical to the old depth-first path; only the order
//! in which matches are emitted changes.
//!
//! The traversals allocate nothing once warm: the MINDIST heap, the leaf
//! distance buffer and the depth-first stack are per-thread scratch
//! buffers (`with_scratch`) whose capacity is reused from query to
//! query.
//!
//! The module also hosts the process-global leaf-evaluation switch used
//! by the conformance suite to prove the batched column kernel and the
//! per-point scalar loop produce bit-identical clusterings.

use crate::node::NodeId;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::thread::LocalKey;

thread_local! {
    /// Best-first MINDIST heap (ε-range and k-NN queries).
    pub(crate) static HEAP: Cell<BinaryHeap<Candidate>> = const { Cell::new(BinaryHeap::new()) };
    /// Per-leaf squared distances of the batched leaf kernel.
    pub(crate) static DISTS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    /// Depth-first node stack (`first_in_sphere`).
    pub(crate) static STACK: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on this thread's scratch buffer in `slot`, then put the buffer
/// back so the next query reuses its capacity. The buffer is taken out
/// for the duration, so a visitor that queries again on the same thread
/// finds the slot empty and works on a fresh buffer of its own — nested
/// queries stay correct, they just do not share storage. `f` receives the
/// buffer as it was left and must clear it before use.
pub(crate) fn with_scratch<T: Default, R>(
    slot: &'static LocalKey<Cell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let mut buf = slot.take();
    let out = f(&mut buf);
    slot.set(buf);
    out
}

/// Heap entry ordered by *minimum* distance (min-heap via reversed cmp).
/// Ties break on node id, then item id, so traversal order is fully
/// deterministic regardless of heap internals.
pub(crate) struct Candidate {
    /// MINDIST² from the query to this node's MBR (or exact point dist²
    /// for an item candidate).
    pub dist_sq: f64,
    /// Node id when `item` is `None`, else the leaf holding the item.
    pub node: u32,
    /// Item id for leaf-entry candidates (k-NN only).
    pub item: Option<u32>,
}

impl Candidate {
    /// Candidate for expanding a tree node.
    pub fn node(dist_sq: f64, node: u32) -> Self {
        Self { dist_sq, node, item: None }
    }

    /// Candidate for reporting a leaf item (k-NN).
    pub fn item(dist_sq: f64, node: u32, item: u32) -> Self {
        Self { dist_sq, node, item: Some(item) }
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the smallest first.
        other
            .dist_sq
            .partial_cmp(&self.dist_sq)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// When set, leaves are evaluated with the per-point scalar loop instead
/// of the batched column kernel.
static FORCE_SCALAR_LEAF_EVAL: AtomicBool = AtomicBool::new(false);

/// Select the leaf evaluation path of `search_sphere`: `true` forces
/// the per-point scalar reference loop, `false` (the default) uses the
/// batched autovectorizing column kernel. The two are bit-identical (see
/// [`geom::kernels`]); the switch exists so equivalence tests can run the
/// same workload down both paths. Process-global; intended for tests and
/// benchmarks, not concurrent toggling mid-query.
pub fn force_scalar_leaf_eval(on: bool) {
    FORCE_SCALAR_LEAF_EVAL.store(on, AtomicOrdering::Relaxed);
}

/// True when [`force_scalar_leaf_eval`] has switched leaf evaluation to
/// the scalar reference loop.
#[inline]
pub fn scalar_leaf_eval_forced() -> bool {
    FORCE_SCALAR_LEAF_EVAL.load(AtomicOrdering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_in_ascending_distance_order() {
        let mut heap = BinaryHeap::new();
        heap.push(Candidate::node(4.0, 1));
        heap.push(Candidate::node(1.0, 2));
        heap.push(Candidate::item(0.25, 2, 7));
        heap.push(Candidate::node(2.5, 3));
        let order: Vec<f64> = std::iter::from_fn(|| heap.pop()).map(|c| c.dist_sq).collect();
        assert_eq!(order, vec![0.25, 1.0, 2.5, 4.0]);
    }

    #[test]
    fn ties_break_by_node_then_item() {
        let mut heap = BinaryHeap::new();
        heap.push(Candidate::item(1.0, 5, 9));
        heap.push(Candidate::node(1.0, 5));
        heap.push(Candidate::node(1.0, 2));
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        let c = heap.pop().unwrap();
        assert_eq!((a.node, a.item), (2, None));
        assert_eq!((b.node, b.item), (5, None));
        assert_eq!((c.node, c.item), (5, Some(9)));
    }

    #[test]
    fn scalar_switch_round_trips() {
        assert!(!scalar_leaf_eval_forced());
        force_scalar_leaf_eval(true);
        assert!(scalar_leaf_eval_forced());
        force_scalar_leaf_eval(false);
        assert!(!scalar_leaf_eval_forced());
    }
}
