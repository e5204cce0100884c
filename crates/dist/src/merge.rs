//! The shard summary and the global merge that every exact distributed
//! executor shares — [`crate::run_distributed`] on simulated BSP ranks
//! and [`crate::ShardedMuDbscan`] on OS threads.
//!
//! A shard program is: materialize a [`LocalView`] (owned points, then
//! the ε-halo), cluster it with any exact local DBSCAN stage, and
//! [`summarize`] the local [`Clustering`] into a [`ShardSummary`]. The
//! summary splits into what the shard knows exactly about its own points
//! ([`OwnFacts`]: core flags and core groups) and the facts that cross a
//! shard boundary ([`CrossFacts`]: core→halo edges and border candidate
//! lists). [`merge`] folds both into the global clustering with one
//! union–find; the [crate docs](crate#exactness-of-the-merge) lay out
//! why the result is bit-identical to `naive_dbscan`.

use cluster_sim::MsgSize;
use geom::{Dataset, PointId};
use metrics::Counters;
use mudbscan::{Clustering, NOISE};
use partition::Shard;
use rtree::{RTree, RTreeConfig};
use std::collections::HashMap;
use unionfind::UnionFind;

/// One shard's local view: owned points first, then the ε-halo, in one
/// combined dataset.
#[derive(Debug, Clone)]
pub struct LocalView {
    /// Global ids of the owned points (rows `0..ids.len()`).
    pub ids: Vec<PointId>,
    /// Global ids of the halo points (the rows after the owned ones).
    pub halo_ids: Vec<PointId>,
    /// Owned coordinates followed by halo coordinates.
    pub combined: Dataset,
}

impl LocalView {
    /// A view that owns nothing and sees nothing.
    pub fn empty(dim: usize) -> Self {
        Self { ids: Vec::new(), halo_ids: Vec::new(), combined: Dataset::empty(dim) }
    }

    /// Owned point count.
    pub fn own_len(&self) -> usize {
        self.ids.len()
    }

    /// Resident bytes of the view: combined coordinates plus both id
    /// vectors.
    pub fn resident_bytes(&self) -> usize {
        self.combined.len() * self.combined.dim() * 8 + (self.ids.len() + self.halo_ids.len()) * 4
    }

    /// Global id of combined row `i`.
    fn gid(&self, i: usize) -> PointId {
        match i.checked_sub(self.ids.len()) {
            None => self.ids[i],
            Some(h) => self.halo_ids[h],
        }
    }
}

impl From<Shard> for LocalView {
    /// Fold the halo into the owned dataset; the separate halo copy is
    /// dropped, so the view holds every coordinate once.
    fn from(shard: Shard) -> Self {
        let mut combined = shard.data;
        combined.extend_from(&shard.halo);
        Self { ids: shard.ids, halo_ids: shard.halo_ids, combined }
    }
}

/// What a shard knows exactly about its own points.
#[derive(Debug, Clone, Default)]
pub struct OwnFacts {
    /// `(global id, exact core flag)` for every owned point.
    pub flags: Vec<(PointId, bool)>,
    /// Core member gids per local cluster: own cores plus locally-core
    /// halo points, in ascending local-label order.
    pub groups: Vec<Vec<PointId>>,
}

/// The facts that cross a shard boundary — what a distributed run sends
/// to the merging rank.
#[derive(Debug, Clone, Default)]
pub struct CrossFacts {
    /// `(own core gid, halo gid)` pairs strictly within ε.
    pub edges: Vec<(PointId, PointId)>,
    /// Owned non-core points with the sorted gids of their ε-neighbours
    /// that can be core (owned cores and halo points).
    pub borders: Vec<(PointId, Vec<PointId>)>,
}

impl CrossFacts {
    /// True when there is nothing to send.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.borders.is_empty()
    }
}

impl MsgSize for CrossFacts {
    fn byte_size(&self) -> usize {
        self.edges.byte_size() + self.borders.byte_size()
    }
}

/// One shard's compact contribution to the merge.
#[derive(Debug, Clone, Default)]
pub struct ShardSummary {
    /// Exact facts about the owned points.
    pub own: OwnFacts,
    /// Cross-shard edges and border candidates.
    pub cross: CrossFacts,
    /// Halo points the shard saw.
    pub halo_len: usize,
}

/// Summarize one shard after its local clustering.
///
/// `local` is any exact DBSCAN clustering of `view.combined` (μDBSCAN,
/// R-tree DBSCAN, GridDBSCAN, …). The summary queries an R-tree over the
/// owned points, charging each query to `counters`:
///
/// - one ε-query per halo point yields its edges to owned cores, and
///   makes it a border candidate of every owned non-core point it hits;
/// - one ε-query per owned non-core point that the local clustering
///   attached to a cluster yields its owned core candidates.
///
/// A border's candidates are the ε-neighbours that can be core: owned
/// cores (exact flags) and halo points (confirmed by the merge). An
/// owned point left as noise locally has no owned core neighbour, so its
/// candidates are its halo neighbours alone and it needs no query.
pub fn summarize(
    view: &LocalView,
    local: &Clustering,
    eps: f64,
    counters: &Counters,
) -> ShardSummary {
    let own_n = view.own_len();
    let combined = &view.combined;
    let flags = (0..own_n).map(|i| (view.ids[i], local.is_core[i])).collect();

    // Seeds: core members (gids) per local cluster — own cores plus
    // locally-core halo points (truly core: a shard only under-marks
    // halo cores). Grouped by local label.
    let mut group_of: HashMap<u32, Vec<PointId>> = HashMap::new();
    for i in 0..combined.len() {
        if local.is_core[i] && local.labels[i] != NOISE {
            group_of.entry(local.labels[i]).or_default().push(view.gid(i));
        }
    }
    let mut groups: Vec<(u32, Vec<PointId>)> = group_of.into_iter().collect();
    groups.sort_unstable_by_key(|(label, _)| *label);
    let groups = groups.into_iter().map(|(_, g)| g).collect();

    let tree = RTree::bulk_load_points(
        combined.dim(),
        RTreeConfig::default(),
        (0..own_n).map(|i| (i as u32, combined.point(i as u32).to_vec())),
    );
    let charge = |cost: rtree::QueryCost| {
        counters.count_range_query();
        counters.count_dists(cost.mbr_tests);
        counters.count_node_visits(cost.nodes_visited.max(1));
    };

    // Border candidates, by owned non-core point; `slot[i]` indexes
    // point i's entry in `borders`.
    let mut borders: Vec<(PointId, Vec<PointId>)> = Vec::new();
    let mut slot = vec![usize::MAX; own_n];
    for i in (0..own_n).filter(|&i| !local.is_core[i] && local.labels[i] != NOISE) {
        let mut cands = Vec::new();
        let cost = tree.search_sphere(combined.point(i as u32), eps, |x| {
            if local.is_core[x as usize] {
                cands.push(view.ids[x as usize]);
            }
        });
        charge(cost);
        slot[i] = borders.len();
        borders.push((view.ids[i], cands));
    }

    // Cross-shard edges: each halo point against owned cores; a hit on
    // an owned non-core point makes the halo point its candidate.
    let mut edges = Vec::new();
    for (h, &hid) in view.halo_ids.iter().enumerate() {
        let q = combined.point((own_n + h) as u32);
        let cost = tree.search_sphere(q, eps, |x| {
            let x = x as usize;
            if local.is_core[x] {
                edges.push((view.ids[x], hid));
            } else {
                if slot[x] == usize::MAX {
                    slot[x] = borders.len();
                    borders.push((view.ids[x], Vec::new()));
                }
                borders[slot[x]].1.push(hid);
            }
        });
        charge(cost);
        if obs::enabled() {
            obs::record_hist("halo/node_visits", cost.nodes_visited.max(1));
        }
    }

    // Sorted, the merge picks the minimum-id globally-core candidate,
    // reproducing the oracle's scan order.
    for (_, cands) in &mut borders {
        cands.sort_unstable();
        if obs::enabled() {
            obs::record_hist("shard/border_candidates", cands.len() as u64);
        }
    }

    ShardSummary {
        own: OwnFacts { flags, groups },
        cross: CrossFacts { edges, borders },
        halo_len: view.halo_ids.len(),
    }
}

/// Fold shard summaries into the global clustering of `n` points.
///
/// Exact flags and core groups come from every shard's [`OwnFacts`];
/// the cross-shard facts are whatever [`CrossFacts`] reached the
/// merger. A core–core edge unions once both ends are confirmed core;
/// a border point joins its minimum-id globally-core candidate. Every
/// union is charged to `counters`.
pub fn merge<'a>(
    n: usize,
    own: impl IntoIterator<Item = &'a OwnFacts>,
    cross: impl IntoIterator<Item = &'a CrossFacts>,
    counters: &Counters,
) -> Clustering {
    let mut is_core = vec![false; n];
    let mut uf = UnionFind::new(n);
    for facts in own {
        for &(gid, core) in &facts.flags {
            is_core[gid as usize] = core;
        }
        for group in &facts.groups {
            for w in group.windows(2) {
                uf.union(w[0], w[1]);
                counters.count_union();
            }
        }
    }
    for facts in cross {
        for &(x, y) in &facts.edges {
            debug_assert!(is_core[x as usize]);
            if is_core[y as usize] {
                uf.union(x, y);
                counters.count_union();
            }
        }
        for (b, cands) in &facts.borders {
            if let Some(&c) = cands.iter().find(|&&c| is_core[c as usize]) {
                uf.union(c, *b);
                counters.count_union();
            }
        }
    }
    Clustering::from_union_find(&mut uf, is_core)
}
