//! Arena node representation.
//!
//! Every leaf stores its points column-major in one shared block
//! ([`PointBlock`]), so a leaf scan is a batched [`geom::kernels`] call
//! over unit-stride columns instead of one box test per entry.

use geom::soa::PointBlock;
use geom::Mbr;

/// Index of a node in the tree arena.
pub(crate) type NodeId = u32;

/// One R-tree node: either an internal node with child node ids or a leaf
/// with a block of points. Every node caches the MBR of its contents.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Internal node.
    Internal {
        /// Bounding box of all children.
        mbr: Mbr,
        /// Child node ids.
        children: Vec<NodeId>,
    },
    /// Leaf node.
    Leaf {
        /// Bounding box of all points.
        mbr: Mbr,
        /// The points, column-major.
        block: PointBlock,
    },
}

impl Node {
    /// The node's cached bounding box.
    pub(crate) fn mbr(&self) -> &Mbr {
        match self {
            Node::Internal { mbr, .. } | Node::Leaf { mbr, .. } => mbr,
        }
    }

    /// The node's cached bounding box, mutably.
    pub(crate) fn mbr_mut(&mut self) -> &mut Mbr {
        match self {
            Node::Internal { mbr, .. } | Node::Leaf { mbr, .. } => mbr,
        }
    }

    /// Number of children (internal) or points (leaf).
    pub(crate) fn fanout(&self) -> usize {
        match self {
            Node::Internal { children, .. } => children.len(),
            Node::Leaf { block, .. } => block.len(),
        }
    }

    /// Estimated owned heap bytes (child vector or point block, and the
    /// MBR).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Node::Internal { mbr, children } => {
                mbr.heap_bytes() + children.capacity() * std::mem::size_of::<NodeId>()
            }
            Node::Leaf { mbr, block } => mbr.heap_bytes() + block.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_accessors() {
        let mut block = PointBlock::with_capacity(1, 4);
        block.push(0, &[0.0]);
        block.push(1, &[0.5]);
        let leaf = Node::Leaf { mbr: Mbr::point(&[0.0]), block };
        assert_eq!(leaf.fanout(), 2);
        assert!(leaf.heap_bytes() > 0);

        let internal = Node::Internal { mbr: Mbr::point(&[0.0]), children: vec![0, 1, 2] };
        assert_eq!(internal.fanout(), 3);
    }
}
