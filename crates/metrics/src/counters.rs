//! Operation counters.
//!
//! [`Counters`] uses interior mutability via `Cell`, so read-only query
//! paths can still count. Each worker thread of a parallel run counts
//! into its own set, and the run [`Counters::absorb`]s them when the
//! worker finishes.

use std::cell::Cell;

/// Per-run (or per-worker) operation counters.
///
/// The fields map directly to paper quantities:
/// * `range_queries` — ε-neighbourhood queries actually executed,
/// * `queries_saved` — points labelled core/cluster-member *without* a
///   query (wndq-core points; Table II "% query saves"),
/// * `dist_computations` — point-to-point distance evaluations,
/// * `node_visits` — R-tree / grid-cell node inspections.
#[derive(Debug, Default)]
pub struct Counters {
    range_queries: Cell<u64>,
    queries_saved: Cell<u64>,
    dist_computations: Cell<u64>,
    node_visits: Cell<u64>,
    union_ops: Cell<u64>,
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters initialised with explicit values (used to restore a
    /// checkpoint).
    pub fn from_raw(
        range_queries: u64,
        queries_saved: u64,
        dists: u64,
        node_visits: u64,
        unions: u64,
    ) -> Self {
        let c = Self::default();
        c.range_queries.set(range_queries);
        c.queries_saved.set(queries_saved);
        c.dist_computations.set(dists);
        c.node_visits.set(node_visits);
        c.union_ops.set(unions);
        c
    }

    /// Record one executed ε-neighbourhood query.
    #[inline]
    pub fn count_range_query(&self) {
        self.range_queries.set(self.range_queries.get() + 1);
    }

    /// Record one query avoided thanks to wndq-core labelling.
    #[inline]
    pub fn count_query_saved(&self) {
        self.queries_saved.set(self.queries_saved.get() + 1);
    }

    /// Record `n` distance computations.
    #[inline]
    pub fn count_dists(&self, n: u64) {
        self.dist_computations.set(self.dist_computations.get() + n);
    }

    /// Record one index-node visit.
    #[inline]
    pub fn count_node_visit(&self) {
        self.node_visits.set(self.node_visits.get() + 1);
    }

    /// Record `n` index-node visits at once (e.g. a whole
    /// `QueryCost::nodes_visited` batch).
    #[inline]
    pub fn count_node_visits(&self, n: u64) {
        self.node_visits.set(self.node_visits.get() + n);
    }

    /// Record one union–find UNION operation.
    #[inline]
    pub fn count_union(&self) {
        self.union_ops.set(self.union_ops.get() + 1);
    }

    /// Executed ε-queries.
    pub fn range_queries(&self) -> u64 {
        self.range_queries.get()
    }

    /// Queries avoided.
    pub fn queries_saved(&self) -> u64 {
        self.queries_saved.get()
    }

    /// Distance evaluations.
    pub fn dist_computations(&self) -> u64 {
        self.dist_computations.get()
    }

    /// Index-node visits.
    pub fn node_visits(&self) -> u64 {
        self.node_visits.get()
    }

    /// UNION operations.
    pub fn union_ops(&self) -> u64 {
        self.union_ops.get()
    }

    /// Fraction of queries saved out of all points that *would* need one in
    /// classical DBSCAN: `saved / (saved + executed)`, as a percentage.
    pub fn pct_queries_saved(&self) -> f64 {
        let saved = self.queries_saved.get() as f64;
        let total = saved + self.range_queries.get() as f64;
        if total == 0.0 {
            0.0
        } else {
            100.0 * saved / total
        }
    }

    /// Fold another counter set into this one (used to aggregate
    /// per-worker and per-rank counters).
    pub fn absorb(&self, other: &Counters) {
        self.range_queries.set(self.range_queries.get() + other.range_queries.get());
        self.queries_saved.set(self.queries_saved.get() + other.queries_saved.get());
        self.dist_computations.set(self.dist_computations.get() + other.dist_computations.get());
        self.node_visits.set(self.node_visits.get() + other.node_visits.get());
        self.union_ops.set(self.union_ops.get() + other.union_ops.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.count_range_query();
        c.count_range_query();
        c.count_query_saved();
        c.count_dists(10);
        c.count_node_visit();
        c.count_union();
        assert_eq!(c.range_queries(), 2);
        assert_eq!(c.queries_saved(), 1);
        assert_eq!(c.dist_computations(), 10);
        assert_eq!(c.node_visits(), 1);
        assert_eq!(c.union_ops(), 1);
    }

    #[test]
    fn pct_queries_saved() {
        let c = Counters::new();
        assert_eq!(c.pct_queries_saved(), 0.0);
        for _ in 0..96 {
            c.count_query_saved();
        }
        for _ in 0..4 {
            c.count_range_query();
        }
        assert!((c.pct_queries_saved() - 96.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges() {
        let a = Counters::new();
        let b = Counters::new();
        a.count_range_query();
        b.count_range_query();
        b.count_query_saved();
        a.absorb(&b);
        assert_eq!(a.range_queries(), 2);
        assert_eq!(a.queries_saved(), 1);
    }

    #[test]
    fn from_raw_round_trips() {
        // Every field survives from_raw and a later absorb — in particular
        // node_visits, which from_raw once dropped.
        let c = Counters::from_raw(7, 6, 5, 4, 3);
        assert_eq!(c.range_queries(), 7);
        assert_eq!(c.queries_saved(), 6);
        assert_eq!(c.dist_computations(), 5);
        assert_eq!(c.node_visits(), 4);
        assert_eq!(c.union_ops(), 3);
        let sum = Counters::new();
        sum.absorb(&c);
        assert_eq!(sum.node_visits(), 4);
    }
}
