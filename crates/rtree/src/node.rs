//! Arena node representation.
//!
//! Leaves distinguish two storage layouts: arbitrary-box entries
//! ([`LeafData::Boxes`] — the level-1 μR-tree over MC MBRs, partition
//! cell trees) and degenerate point entries packed column-major
//! ([`LeafData::Points`] — aux trees, center trees, every flat point
//! index). The point layout is the structure-of-arrays half of the
//! distance-kernel fast path: one shared coordinate block per leaf
//! instead of two boxed corner slices per entry, so a leaf scan is a
//! batched [`geom::kernels`] call over unit-stride columns.

use geom::soa::PointBlock;
use geom::Mbr;

/// Index of a node in the tree arena.
pub type NodeId = u32;

/// A leaf entry: an item id and its bounding box. For point data the box is
/// degenerate (`lo == hi == point`).
#[derive(Debug, Clone)]
pub struct Entry {
    /// Bounding box of the stored item.
    pub mbr: Mbr,
    /// Caller-defined item identifier (point id, micro-cluster id, …).
    pub item: u32,
}

impl Entry {
    /// Entry for a point item.
    pub fn point(item: u32, coords: &[f64]) -> Self {
        Self { mbr: Mbr::point(coords), item }
    }
}

/// Storage behind one leaf node.
#[derive(Debug, Clone)]
pub enum LeafData {
    /// Arbitrary (possibly extended) boxes, one [`Entry`] each.
    Boxes(Vec<Entry>),
    /// Degenerate point entries in a column-major [`PointBlock`].
    Points(PointBlock),
}

impl LeafData {
    /// Build leaf storage from entries, choosing the point layout when
    /// every entry is degenerate and fits a block of `cap` slots.
    /// Entry order is preserved in both layouts — query charging and
    /// short-circuit semantics depend on it.
    pub fn from_entries(dim: usize, cap: usize, entries: Vec<Entry>) -> Self {
        if entries.len() <= cap && entries.iter().all(|e| e.mbr.is_degenerate()) {
            let mut block = PointBlock::with_capacity(dim, cap);
            for e in &entries {
                block.push(e.item, e.mbr.lo());
            }
            LeafData::Points(block)
        } else {
            LeafData::Boxes(entries)
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        match self {
            LeafData::Boxes(entries) => entries.len(),
            LeafData::Points(block) => block.len(),
        }
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item id of the entry at position `i`.
    pub fn item(&self, i: usize) -> u32 {
        match self {
            LeafData::Boxes(entries) => entries[i].item,
            LeafData::Points(block) => block.item(i),
        }
    }

    /// Append an entry, preserving order. A non-degenerate entry (or a
    /// full block) demotes a point leaf to the box layout.
    pub fn push(&mut self, entry: Entry, dim: usize) {
        match self {
            LeafData::Boxes(entries) => entries.push(entry),
            LeafData::Points(block) => {
                if entry.mbr.is_degenerate() && block.len() < block.capacity() {
                    block.push(entry.item, entry.mbr.lo());
                } else {
                    let mut entries =
                        std::mem::replace(self, LeafData::Boxes(Vec::new())).into_entries(dim);
                    entries.push(entry);
                    *self = LeafData::Boxes(entries);
                }
            }
        }
    }

    /// Append a point entry without building its degenerate box: a point
    /// leaf with room takes the coordinates directly, anything else goes
    /// through [`Self::push`].
    pub(crate) fn push_point(&mut self, item: u32, coords: &[f64], dim: usize) {
        match self {
            LeafData::Points(block) if block.len() < block.capacity() => block.push(item, coords),
            _ => self.push(Entry::point(item, coords), dim),
        }
    }

    /// True when the entry at position `i` is `item` stored with exactly
    /// the box `[lo, hi]` — compared in place, without materialising it.
    pub(crate) fn holds(&self, i: usize, item: u32, lo: &[f64], hi: &[f64]) -> bool {
        match self {
            LeafData::Boxes(entries) => {
                let e = &entries[i];
                e.item == item && e.mbr.lo() == lo && e.mbr.hi() == hi
            }
            LeafData::Points(block) => {
                block.item(i) == item
                    && (0..block.dim()).all(|k| block.coord(i, k) == lo[k])
                    && (0..block.dim()).all(|k| block.coord(i, k) == hi[k])
            }
        }
    }

    /// Overwrite `mbr` with the exact bounding box of the (non-empty)
    /// contents, reusing its storage.
    pub(crate) fn bound_into(&self, mbr: &mut Mbr) {
        match self {
            LeafData::Boxes(entries) => {
                let (first, rest) = entries.split_first().expect("leaf cannot be empty here");
                mbr.clone_from(&first.mbr);
                for e in rest {
                    mbr.merge(&e.mbr);
                }
            }
            LeafData::Points(block) => block.bound_into(mbr),
        }
    }

    /// Remove the entry at position `i`, preserving the order of the
    /// remaining entries in both layouts. Returns the removed item id.
    pub fn remove(&mut self, i: usize) -> u32 {
        match self {
            LeafData::Boxes(entries) => entries.remove(i).item,
            LeafData::Points(block) => block.remove(i),
        }
    }

    /// Materialise the entries in storage order (degenerate boxes for the
    /// point layout) — used by node splits, which repartition via boxes.
    pub fn into_entries(self, dim: usize) -> Vec<Entry> {
        match self {
            LeafData::Boxes(entries) => entries,
            LeafData::Points(block) => {
                let mut buf = vec![0.0; dim];
                (0..block.len())
                    .map(|i| {
                        block.write_point(i, &mut buf);
                        Entry::point(block.item(i), &buf)
                    })
                    .collect()
            }
        }
    }

    /// The bounding box of the entry at position `i` (materialised for
    /// the point layout).
    pub fn entry_mbr(&self, i: usize) -> Mbr {
        match self {
            LeafData::Boxes(entries) => entries[i].mbr.clone(),
            LeafData::Points(block) => {
                let mut buf = vec![0.0; block.dim()];
                block.write_point(i, &mut buf);
                Mbr::point(&buf)
            }
        }
    }

    /// Estimated owned heap bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            LeafData::Boxes(entries) => {
                entries.capacity() * std::mem::size_of::<Entry>()
                    + entries.iter().map(|e| e.mbr.heap_bytes()).sum::<usize>()
            }
            LeafData::Points(block) => block.heap_bytes(),
        }
    }
}

/// One R-tree node: either an internal node with child node ids or a leaf
/// with item entries. Every node caches the MBR of its contents.
#[derive(Debug, Clone)]
pub enum Node {
    /// Internal node.
    Internal {
        /// Bounding box of all children.
        mbr: Mbr,
        /// Child node ids.
        children: Vec<NodeId>,
    },
    /// Leaf node.
    Leaf {
        /// Bounding box of all entries.
        mbr: Mbr,
        /// Entry storage (boxes or a column-major point block).
        data: LeafData,
    },
}

impl Node {
    /// The node's cached bounding box.
    pub fn mbr(&self) -> &Mbr {
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

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of children (internal) or entries (leaf).
    pub fn fanout(&self) -> usize {
        match self {
            Node::Internal { children, .. } => children.len(),
            Node::Leaf { data, .. } => data.len(),
        }
    }

    /// Estimated owned heap bytes (child vector / entry storage and the
    /// MBRs they own).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Node::Internal { mbr, children } => {
                mbr.heap_bytes() + children.capacity() * std::mem::size_of::<NodeId>()
            }
            Node::Leaf { mbr, data } => mbr.heap_bytes() + data.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_point_is_degenerate() {
        let e = Entry::point(7, &[1.0, 2.0]);
        assert_eq!(e.item, 7);
        assert_eq!(e.mbr.lo(), e.mbr.hi());
        assert_eq!(e.mbr.volume(), 0.0);
    }

    #[test]
    fn node_accessors() {
        let leaf = Node::Leaf {
            mbr: Mbr::point(&[0.0]),
            data: LeafData::from_entries(
                1,
                4,
                vec![Entry::point(0, &[0.0]), Entry::point(1, &[0.5])],
            ),
        };
        assert!(leaf.is_leaf());
        assert_eq!(leaf.fanout(), 2);
        assert!(leaf.heap_bytes() > 0);

        let internal = Node::Internal { mbr: Mbr::point(&[0.0]), children: vec![0, 1, 2] };
        assert!(!internal.is_leaf());
        assert_eq!(internal.fanout(), 3);
    }

    #[test]
    fn point_entries_pick_the_block_layout() {
        let entries = vec![Entry::point(0, &[0.0, 1.0]), Entry::point(1, &[2.0, 3.0])];
        let data = LeafData::from_entries(2, 8, entries);
        assert!(matches!(data, LeafData::Points(_)), "all-point leaves must pack column-major");
        assert_eq!(data.len(), 2);
        assert_eq!(data.item(1), 1);
        assert_eq!(data.entry_mbr(1), Mbr::point(&[2.0, 3.0]));
        // Round trip preserves order and coordinates.
        let back = data.into_entries(2);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].item, 0);
        assert_eq!(back[1].mbr.lo(), &[2.0, 3.0]);
    }

    #[test]
    fn extended_boxes_pick_the_box_layout() {
        let entries = vec![
            Entry::point(0, &[0.0, 0.0]),
            Entry { mbr: Mbr::new(vec![1.0, 1.0], vec![2.0, 2.0]), item: 1 },
        ];
        let data = LeafData::from_entries(2, 8, entries);
        assert!(matches!(data, LeafData::Boxes(_)));
    }

    #[test]
    fn holds_and_bound_into_match_the_materialised_boxes() {
        let entries = vec![Entry::point(3, &[0.0, 1.0]), Entry::point(4, &[2.0, -3.0])];
        let mut data = LeafData::from_entries(2, 8, entries);
        data.push_point(5, &[1.0, 1.0], 2);
        assert!(matches!(data, LeafData::Points(_)));
        for i in 0..data.len() {
            let m = data.entry_mbr(i);
            assert!(data.holds(i, data.item(i), m.lo(), m.hi()));
            assert!(!data.holds(i, data.item(i) + 1, m.lo(), m.hi()));
        }
        assert!(!data.holds(1, 4, &[2.0, -3.0], &[2.0, -2.0]));
        let mut m = Mbr::point(&[9.0, 9.0]);
        data.bound_into(&mut m);
        assert_eq!(m, Mbr::new(vec![0.0, -3.0], vec![2.0, 1.0]));
    }

    #[test]
    fn pushing_a_box_demotes_a_point_leaf() {
        let mut data = LeafData::from_entries(2, 8, vec![Entry::point(0, &[0.0, 0.0])]);
        assert!(matches!(data, LeafData::Points(_)));
        data.push(Entry { mbr: Mbr::new(vec![1.0, 1.0], vec![2.0, 2.0]), item: 1 }, 2);
        assert!(matches!(data, LeafData::Boxes(_)), "mixed content must fall back to boxes");
        assert_eq!(data.len(), 2);
        assert_eq!(data.item(0), 0, "demotion must preserve entry order");
    }
}
