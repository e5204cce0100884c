//! Sequential union–find with union by rank and path halving
//! (Patwary/Blair/Manne SEA'10).

/// A disjoint-set forest over `0..len` with union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "UnionFind supports at most u32::MAX elements");
        Self { parent: (0..n as u32).collect(), rank: vec![0; n] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Append a fresh singleton element, returning its id (used by the
    /// streaming algorithm, which grows the forest one point at a time).
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len();
        assert!(id < u32::MAX as usize);
        self.parent.push(id as u32);
        self.rank.push(0);
        id as u32
    }

    /// True when the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set; halves the path on the way (every
    /// visited node is pointed at its grandparent).
    #[inline]
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Representative of `x`'s set without mutating the forest (no
    /// compaction). Useful when only a shared reference is available.
    #[inline]
    pub fn find_const(&self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns the surviving root.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (hi, lo) =
            if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        hi
    }

    /// True when `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of distinct sets.
    pub fn count_sets(&mut self) -> usize {
        let n = self.len();
        (0..n as u32).filter(|&x| self.find(x) == x).count()
    }

    /// Number of distinct sets among the given elements only.
    pub fn count_sets_among(&mut self, elems: impl Iterator<Item = u32>) -> usize {
        let mut roots: Vec<u32> = elems.map(|x| self.find(x)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Map every element to a dense set label in `0..count_sets()`,
    /// numbered by first appearance. This canonical form makes two
    /// clusterings comparable regardless of which element became root.
    pub fn dense_labels(&mut self) -> Vec<u32> {
        let n = self.len();
        let mut label_of_root = vec![u32::MAX; n];
        let mut labels = vec![0u32; n];
        let mut next = 0u32;
        for x in 0..n as u32 {
            let r = self.find(x);
            if label_of_root[r as usize] == u32::MAX {
                label_of_root[r as usize] = next;
                next += 1;
            }
            labels[x as usize] = label_of_root[r as usize];
        }
        labels
    }

    /// Estimated heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.parent.capacity() * 4 + self.rank.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.count_sets(), 5);
        for x in 0..5 {
            assert_eq!(uf.find(x), x);
        }
    }

    #[test]
    fn union_merges_transitively() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        uf.union(1, 2);
        assert!(uf.same(0, 3));
        assert_eq!(uf.count_sets(), 3); // {0,1,2,3} {4} {5}
    }

    #[test]
    fn union_idempotent() {
        let mut uf = UnionFind::new(3);
        let r1 = uf.union(0, 1);
        let r2 = uf.union(0, 1);
        assert_eq!(r1, r2);
        assert_eq!(uf.count_sets(), 2);
    }

    #[test]
    fn dense_labels_canonical() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 4);
        uf.union(0, 2);
        let labels = uf.dense_labels();
        // First appearance order: 0 -> 0, 1 -> 1, 2 -> 0, 3 -> 2, 4 -> 2.
        assert_eq!(labels, vec![0, 1, 0, 2, 2]);
    }

    #[test]
    fn find_const_matches_find() {
        let mut uf = UnionFind::new(8);
        uf.union(1, 2);
        uf.union(2, 5);
        for x in 0..8 {
            assert_eq!(uf.find_const(x), uf.clone().find(x));
        }
    }

    #[test]
    fn count_sets_among_subset() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.count_sets_among([0u32, 1, 2].into_iter()), 2);
        assert_eq!(uf.count_sets_among([4u32, 5].into_iter()), 2);
        assert_eq!(uf.count_sets_among(std::iter::empty()), 0);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..(n as u32 - 1) {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.count_sets(), 1);
        assert!(uf.same(0, n as u32 - 1));
    }
}
