//! The insertion-incremental algorithm.

use geom::{dist_sq, Dataset, DbscanParams, PointBlock, PointId};
use mcs::{build_micro_clusters_par, scan_block, BuildOptions, CenterGrid, McId};
use metrics::Counters;
use mudbscan::{Clustering, NOISE};
use std::cell::Cell;
use std::sync::Arc;
use unionfind::UnionFind;

/// [`StreamingMuDbscan`]'s anchor of a point with no live core strictly
/// within ε: a noise point (or a tombstone).
const NO_ANCHOR: PointId = PointId::MAX;

/// Outcome of [`StreamingMuDbscan::try_remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveOutcome {
    /// The point was removed and connectivity over the affected
    /// component(s) was repaired locally.
    Removed {
        /// Number of surviving points the repair examined
        /// ([`StreamingMuDbscan::try_remove`]): the demoted cores, the
        /// seed cores around the removed ones, the other cores its walk
        /// reached and the non-cores it re-anchored. 0 when the removed
        /// point was noise or a border no core depended on.
        touched: usize,
    },
    /// The repair region grew past `budget` surviving points;
    /// **nothing was mutated**. The caller should fall back to a full
    /// rebuild ([`StreamingMuDbscan::from_dataset`] over the live set).
    ExceedsBudget {
        /// Size of the region counted when the budget ran out.
        component: usize,
    },
}

/// Streaming μDBSCAN: insert points one at a time; the clustering of the
/// prefix seen so far is always exactly classical DBSCAN's. Points can
/// also be removed exactly ([`Self::try_remove`]): a removal tombstones
/// the internal id and repairs connectivity locally over the affected
/// component instead of rebuilding the whole structure.
pub struct StreamingMuDbscan {
    params: DbscanParams,
    data: Dataset,
    /// Level-1 index over MC centers (id = MC index): the 2ε center grid.
    /// Shared by `Arc` with the serving layer's snapshots
    /// ([`Self::shared_index`]) and written only through
    /// [`Arc::make_mut`], so a new center copies the grid only while a
    /// snapshot still holds it.
    level1: Arc<CenterGrid>,
    /// Each online micro-cluster's live members, column-major (item =
    /// point id); its center lives in the level-1 index. Shared and
    /// written like `level1`, block by block: a push or removal copies
    /// only its own block, and only while a snapshot still holds it.
    mcs: Vec<Arc<PointBlock>>,
    /// `counts[p] = |N_ε(p)|` over the live points inserted so far (self
    /// included; 0 for tombstoned points).
    counts: Vec<u32>,
    /// Core connectivity: only cores are ever unioned, so every live
    /// non-core's element is its own root and its cluster is read
    /// through its anchor.
    uf: UnionFind,
    /// Union–find element of every point. Insertions mint the element
    /// in lock-step with the id; excision ([`Self::uf_excise`]) swaps
    /// in a fresh singleton element and leaves the old one behind as
    /// an unreferenced *ghost* inside its set, which is how a removal
    /// detaches a demoted core, or a piece that split off, from a set
    /// whose other members' parent chains may run through it.
    uf_slot: Vec<PointId>,
    is_core: Vec<bool>,
    /// Canonical anchor of every live non-core point: its minimum-id
    /// live core strictly within ε, or [`NO_ANCHOR`] for noise (the
    /// value is stale and unread while the point is core). Anchors only
    /// fall under insertion (`make_core`) and are re-resolved by
    /// [`Self::try_remove`] exactly where a core vanished, so
    /// [`Self::canonical_snapshot`] needs no ε-query. A non-core's
    /// cluster is its anchor's union–find set.
    anchor: Vec<PointId>,
    /// `live[p]` is false once `p` has been removed. Tombstoned points
    /// keep their internal id (dataset slots are never compacted) but
    /// are deleted from their MC's block, so no ε-query returns them.
    live: Vec<bool>,
    dead_count: usize,
    /// Micro-cluster index of every point (tombstones keep their last
    /// value; it is only read for live points).
    mc_of: Vec<u32>,
    counters: Counters,
}

impl StreamingMuDbscan {
    /// Empty stream for `dim`-dimensional points, for point-at-a-time
    /// ingestion via [`Self::insert`] / [`Self::extend_from`]. When the
    /// whole dataset is available up front, prefer
    /// [`Self::from_dataset`] (parallel bulk load) or the
    /// `mudbscan::prelude::Runner` facade.
    pub fn empty(dim: usize, params: DbscanParams) -> Self {
        Self {
            params,
            data: Dataset::empty(dim),
            level1: Arc::new(CenterGrid::new(dim, params.eps)),
            mcs: Vec::new(),
            counts: Vec::new(),
            uf: UnionFind::new(0),
            uf_slot: Vec::new(),
            is_core: Vec::new(),
            anchor: Vec::new(),
            live: Vec::new(),
            dead_count: 0,
            mc_of: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// Bulk-load a dataset that is fully available up front, then keep
    /// streaming: the μR-tree is built by [`build_micro_clusters_par`]
    /// with its member blocks filled on worker threads, every
    /// ε-neighbourhood is computed in parallel against it, and the
    /// disjoint-set union rules are replayed sequentially in id order.
    /// The resulting structure is a valid streaming state —
    /// [`Self::canonical_snapshot`] is exactly the batch DBSCAN
    /// clustering, and
    /// later [`Self::insert`] calls continue incrementally from it.
    ///
    /// This is the low-level entry point the facade builds on:
    /// applications should run `Runner::new(params)
    /// .family(Family::Streaming)` (one-shot batch) or `Runner::serve`
    /// (long-running concurrent service, `docs/SERVING.md`) and only
    /// reach for this constructor when embedding the engine directly.
    /// Point-at-a-time ingestion via [`Self::empty`] +
    /// [`Self::extend_from`] remains the sequential path.
    pub fn from_dataset(data: &Dataset, params: DbscanParams) -> Self {
        let n = data.len();
        let counters = Counters::new();
        let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
        let mut tree = build_micro_clusters_par(
            data,
            params.eps,
            &BuildOptions::default(),
            threads,
            &counters,
        );
        tree.compute_reachable(data, &counters);

        // Exact ε-neighbourhoods (self included) for every point, in
        // parallel over disjoint id ranges.
        let mut nbhd: Vec<Vec<PointId>> = vec![Vec::new(); n];
        if n > 0 {
            let chunk = n.div_ceil(threads).max(1);
            let tree_ref = &tree;
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (c, slot) in nbhd.chunks_mut(chunk).enumerate() {
                    handles.push(scope.spawn(move || {
                        let local = Counters::new();
                        for (k, dst) in slot.iter_mut().enumerate() {
                            let p = (c * chunk + k) as PointId;
                            let cost = tree_ref.neighborhood(data, p, dst);
                            local.count_range_query();
                            local.count_dists(cost.mbr_tests);
                            local.count_node_visits(cost.nodes_visited.max(1));
                        }
                        local
                    }));
                }
                for h in handles {
                    counters.absorb(&h.join().expect("neighborhood worker panicked"));
                }
            });
        }

        // Replay the same rules `insert`/`make_core` apply, in id order:
        // union every core edge, and anchor each non-core at the first
        // core to reach it — cores run in ascending id, so that is its
        // minimum-id core neighbour.
        let min_pts = params.min_pts as u32;
        let counts: Vec<u32> = nbhd.iter().map(|nb| nb.len() as u32).collect();
        let is_core: Vec<bool> = counts.iter().map(|&c| c >= min_pts).collect();
        let mut uf = UnionFind::new(n);
        let mut anchor = vec![NO_ANCHOR; n];
        for p in 0..n {
            if !is_core[p] {
                continue;
            }
            for &q in &nbhd[p] {
                let qi = q as usize;
                if qi == p {
                    continue;
                }
                if is_core[qi] {
                    uf.union(q, p as PointId);
                    counters.count_union();
                } else if anchor[qi] == NO_ANCHOR {
                    anchor[qi] = p as PointId;
                }
            }
        }

        // Take over the μR-tree as the online representation: the level-1
        // grid's ids are MC indices, each MC keeps its member block, the
        // build's assignment is every point's MC, and all of them keep
        // accepting incremental insertions. Every member sits strictly
        // within ε of its MC center, so the online 2ε center-search
        // invariant holds.
        let (level1, mcs, mc_of) = tree.into_parts();
        let mcs = mcs.into_iter().map(|mc| Arc::new(mc.block)).collect();

        Self {
            params,
            data: data.clone(),
            level1: Arc::new(level1),
            mcs,
            counts,
            uf,
            uf_slot: (0..n as PointId).collect(),
            is_core,
            anchor,
            live: vec![true; n],
            dead_count: 0,
            mc_of,
            counters,
        }
    }

    /// Points ingested so far, tombstoned removals included — this is
    /// the size of the internal id space, not the live population (see
    /// [`Self::live_len`]).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when `p` has been ingested and not removed.
    pub fn is_live(&self, p: PointId) -> bool {
        self.live[p as usize]
    }

    /// Number of live (never-removed) points.
    pub fn live_len(&self) -> usize {
        self.data.len() - self.dead_count
    }

    /// Number of tombstoned removals still occupying internal ids.
    /// Grows until the owner compacts by rebuilding from the live set.
    pub fn dead_len(&self) -> usize {
        self.dead_count
    }

    /// Number of micro-clusters currently maintained.
    pub fn mc_count(&self) -> usize {
        self.mcs.len()
    }

    /// The density parameters.
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// Operation counters (queries, distances, unions).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Coordinates of an ingested point.
    pub fn point(&self, p: PointId) -> &[f64] {
        self.data.point(p)
    }

    /// The ingested points, in insertion order.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Root of `p`'s disjoint set, through the slot indirection.
    fn uf_root(&self, p: PointId) -> PointId {
        self.uf.find_const(self.uf_slot[p as usize])
    }

    /// Union the sets of points `a` and `b`, through the slot
    /// indirection.
    fn uf_union(&mut self, a: PointId, b: PointId) {
        let (sa, sb) = (self.uf_slot[a as usize], self.uf_slot[b as usize]);
        self.uf.union(sa, sb);
    }

    /// Detach `p` from its disjoint set by minting it a fresh singleton
    /// element. The old element stays behind as an unreferenced ghost
    /// inside its set — nothing maps to it, so it can never leak the
    /// set's identity — so one member can leave a set alone: other
    /// members' parent chains may run through the old element, and
    /// they keep doing so harmlessly.
    fn uf_excise(&mut self, p: PointId) {
        self.uf_slot[p as usize] = self.uf.push();
    }

    /// The micro-cluster index — the level-1 center grid and every MC's
    /// member block — shared by `Arc`: the engine's next write to a
    /// block or to the grid copies only that block or the grid. With
    /// [`eps_query`] this is all a reader needs to answer ε-queries over
    /// the live points as they are now.
    pub(crate) fn shared_index(&self) -> (Arc<CenterGrid>, Vec<Arc<PointBlock>>) {
        (Arc::clone(&self.level1), self.mcs.clone())
    }

    /// ε-neighbourhood of arbitrary coordinates over the live points
    /// (strict `< ε`), via the micro-cluster index.
    fn query(&self, coords: &[f64]) -> Vec<PointId> {
        let mut out = Vec::new();
        let dists = eps_query(&self.level1, &self.mcs, self.params.eps, coords, |q| out.push(q));
        self.counters.count_dists(dists);
        self.counters.count_range_query();
        out
    }

    /// Ingest one point; returns its id. On return,
    /// [`Self::canonical_snapshot`] is exactly the DBSCAN clustering of
    /// all points inserted so far.
    pub fn insert(&mut self, coords: &[f64]) -> PointId {
        assert_eq!(coords.len(), self.data.dim(), "dimensionality mismatch");
        let min_pts = self.params.min_pts as u32;

        // Neighbours BEFORE p is added (p joins its own count below).
        let nbhrs = self.query(coords);

        let p = self.data.push(coords);
        self.counts.push(nbhrs.len() as u32 + 1);
        self.is_core.push(false);
        self.anchor.push(NO_ANCHOR);
        self.live.push(true);
        let slot = self.uf.push();
        self.uf_slot.push(slot);

        // Micro-cluster maintenance: join an MC whose center is strictly
        // within ε (the minimum id), else start a new one. (A removed center
        // leaves its MC behind as a *virtual* center: the level-1 entry
        // and the members-within-ε invariant both stay valid.)
        let (hit, probe_cost) = self.level1.min_within(coords, self.params.eps);
        self.counters.count_node_visits(probe_cost.nodes_visited.max(1));
        self.counters.count_dists(probe_cost.mbr_tests);
        match hit {
            Some(mc) => {
                Arc::make_mut(&mut self.mcs[mc as usize]).push(p, coords);
                self.mc_of.push(mc);
            }
            None => {
                let id = self.mcs.len() as u32;
                let mut block = PointBlock::with_capacity(self.data.dim(), 1);
                block.push(p, coords);
                self.mcs.push(Arc::new(block));
                Arc::make_mut(&mut self.level1).insert(coords);
                self.mc_of.push(id);
            }
        }

        // Bump neighbour counts; collect promotions (count crossing
        // MinPts exactly now).
        let mut promoted: Vec<PointId> = Vec::new();
        for &q in &nbhrs {
            self.counts[q as usize] += 1;
            if self.counts[q as usize] == min_pts && !self.is_core[q as usize] {
                promoted.push(q);
            }
        }

        // Process p itself: a non-core p is anchored at its minimum-id
        // core neighbour (promotions below may lower it).
        if self.counts[p as usize] >= min_pts {
            self.make_core(p, &nbhrs);
        } else {
            self.anchor[p as usize] = self.min_core(&nbhrs);
        }

        // Process promotions: each newly-core point wires up its edges
        // with one ε-query.
        for q in promoted {
            if self.is_core[q as usize] {
                continue; // p's processing might have promoted q already
            }
            let qn = self.query(self.data.point(q)).to_vec();
            // Re-check: the stored count is authoritative, the query must
            // agree (self included).
            debug_assert_eq!(qn.len() as u32, self.counts[q as usize]);
            self.make_core(q, &qn);
        }
        p
    }

    /// Mark `x` core and apply the disjoint-set union rules against its
    /// neighbour list: join every core neighbour and lower each
    /// non-core neighbour's anchor to `x` where `x` is smaller. `x`
    /// was non-core, so its element is still a singleton.
    fn make_core(&mut self, x: PointId, nbhrs: &[PointId]) {
        self.is_core[x as usize] = true;
        for &q in nbhrs {
            if q == x {
                continue;
            }
            let qi = q as usize;
            if self.is_core[qi] {
                self.uf_union(q, x);
                self.counters.count_union();
            } else {
                self.anchor[qi] = self.anchor[qi].min(x);
            }
        }
    }

    /// Remove the live point `p` exactly, repairing connectivity locally
    /// whatever the blast radius. Returns the number of surviving points
    /// the repair examined. Panics when `p` is unknown or already dead.
    pub fn remove(&mut self, p: PointId) -> usize {
        match self.try_remove(p, usize::MAX) {
            RemoveOutcome::Removed { touched } => touched,
            RemoveOutcome::ExceedsBudget { .. } => unreachable!("unbounded budget"),
        }
    }

    /// Remove the live point `p` exactly — but only when the repair
    /// region holds at most `budget` surviving points; otherwise return
    /// [`RemoveOutcome::ExceedsBudget`] **without mutating anything**, so
    /// the caller can fall back to a full rebuild.
    ///
    /// This is IncrementalDBSCAN's deletion step, micro-cluster-local
    /// in the paper's sense: `p` is deleted from its MC's block (one
    /// [`PointBlock::remove`]), every live ε-neighbour's count is
    /// decremented and cores that fall below MinPts are demoted. The
    /// union–find cannot unsplit, so `split_pieces` first walks the
    /// surviving core graph from the cores around the removed ones to
    /// find the pieces an affected component splits into. The commit
    /// excises each demoted core from its old set (`uf_excise`) and
    /// gives every piece that split off a fresh set of its own; the
    /// last piece keeps the old set. A
    /// removal that splits nothing, as in dense interiors where those
    /// cores are pairwise within ε, repairs in a constant number of
    /// ε-queries even when the component is the whole dataset.
    ///
    /// Anchors are re-resolved exactly where a core vanished: the
    /// demoted cores (from their neighbour lists, queried once here)
    /// and the non-cores anchored by `p` or by a demoted core (one
    /// ε-query each). Every other anchor stays valid, because deletions
    /// never promote (counts only decrease). The excision keeps later
    /// *insertions* sound: a demoted core's stale set membership would
    /// let its future promotion union two unrelated components through
    /// it. `p`'s own element stays behind as a ghost; nothing reads it.
    pub fn try_remove(&mut self, p: PointId, budget: usize) -> RemoveOutcome {
        let pi = p as usize;
        assert!(pi < self.data.len() && self.live[pi], "remove of a dead or unknown point");
        let min_pts = self.params.min_pts as u32;
        // ε-neighbours while p is still indexed (p included).
        let nbhrs = self.query(self.data.point(p));
        debug_assert_eq!(nbhrs.len() as u32, self.counts[pi]);

        if !self.is_core[pi] && self.anchor[pi] == NO_ANCHOR {
            // p is noise: no live core has p in its ε-ball, so no
            // neighbour can be demoted, no anchor is p and no component
            // is affected — constant-size repair.
            self.detach(p);
            for &q in &nbhrs {
                if q != p {
                    self.counts[q as usize] -= 1;
                    debug_assert!(
                        !self.is_core[q as usize] || self.counts[q as usize] >= min_pts,
                        "a noise removal demoted a core"
                    );
                }
            }
            return RemoveOutcome::Removed { touched: 0 };
        }

        // Cores that lose the core property when p leaves (count would
        // drop to MinPts - 1). All are within ε of p, but p may be a
        // border shared between clusters, so their components can
        // differ from p's.
        let demoted: Vec<PointId> = nbhrs
            .iter()
            .copied()
            .filter(|&q| q != p && self.is_core[q as usize] && self.counts[q as usize] == min_pts)
            .collect();
        // Neighbour lists of the demoted cores while everything is
        // still indexed: they give the seeds, the orphans and the
        // demoted cores' own anchors.
        let demoted_nbhrs: Vec<Vec<PointId>> =
            demoted.iter().map(|&d| self.query(self.data.point(d))).collect();
        // Non-cores anchored by p or by a demoted core. Each lies
        // within ε of its anchor, so the neighbour lists in hand hold
        // them all.
        let orphans = self.orphans(p, &nbhrs, &demoted, &demoted_nbhrs);
        let (touched, pieces) =
            match self.split_pieces(p, &nbhrs, &demoted, &demoted_nbhrs, orphans.len(), budget) {
                Ok(walk) => walk,
                Err(component) => return RemoveOutcome::ExceedsBudget { component },
            };

        // Commit: drop p, decrement neighbour counts, apply demotions.
        self.detach(p);
        for &q in &nbhrs {
            if q != p {
                self.counts[q as usize] -= 1;
            }
        }
        for &d in &demoted {
            self.is_core[d as usize] = false;
            self.uf_excise(d);
        }
        self.reanchor(&demoted, &demoted_nbhrs, &orphans);
        for piece in pieces {
            for &q in &piece {
                self.uf_excise(q);
            }
            for &q in &piece[1..] {
                self.uf_union(piece[0], q);
                self.counters.count_union();
            }
        }
        RemoveOutcome::Removed { touched }
    }

    /// The live non-cores whose anchor is `p` or one of the `demoted`
    /// cores, sorted: exactly the anchors a removal invalidates besides
    /// the demoted cores' own. Read before the commit (the demoted
    /// cores are still core, so they are not listed).
    fn orphans(
        &self,
        p: PointId,
        nbhrs: &[PointId],
        demoted: &[PointId],
        demoted_nbhrs: &[Vec<PointId>],
    ) -> Vec<PointId> {
        let mut orphans: Vec<PointId> = nbhrs
            .iter()
            .chain(demoted_nbhrs.iter().flatten())
            .copied()
            .filter(|&q| {
                let a = self.anchor[q as usize];
                q != p && !self.is_core[q as usize] && (a == p || demoted.contains(&a))
            })
            .collect();
        orphans.sort_unstable();
        orphans.dedup();
        orphans
    }

    /// After a removal's commit, re-resolve the anchors it invalidated
    /// against the new core flags: each demoted core from its neighbour
    /// list (a scan, no query), each orphan with one ε-query (the
    /// removed point is gone from the index, so no query returns it).
    fn reanchor(
        &mut self,
        demoted: &[PointId],
        demoted_nbhrs: &[Vec<PointId>],
        orphans: &[PointId],
    ) {
        for (&d, list) in demoted.iter().zip(demoted_nbhrs) {
            self.anchor[d as usize] = self.min_core(list);
        }
        for &q in orphans {
            let qn = self.query(self.data.point(q));
            self.anchor[q as usize] = self.min_core(&qn);
        }
    }

    /// The minimum-id core in `list`, or [`NO_ANCHOR`].
    fn min_core(&self, list: &[PointId]) -> PointId {
        list.iter().copied().filter(|&q| self.is_core[q as usize]).min().unwrap_or(NO_ANCHOR)
    }

    /// The repair region of [`Self::try_remove`] and the pieces that
    /// split off, found before anything is mutated: `Ok((touched,
    /// pieces))`, or `Err(touched)` as soon as the region counted so
    /// far holds more than `budget` surviving points. `touched` counts
    /// the demoted cores, the seeds, the other cores the walk reached
    /// and the `orphans` (the non-cores to re-anchor).
    ///
    /// **Seeds.** Any core path between two surviving cores that ran
    /// through a removed core (`p` when core, or a demoted core) enters
    /// and leaves the removed set via *seed* cores — surviving cores
    /// within ε of a removed one — so every piece of an affected
    /// component holds a seed. Seeds are grouped per old component root
    /// (when `p` is core every demoted core shares its root via the
    /// core–core edge, so there is one group; a border `p` can demote
    /// cores in several components).
    ///
    /// **Walk.** Seeds pairwise strictly within ε are core–core
    /// neighbours, hence stay connected: that relation splits each
    /// group into seed sub-groups, and when it joins the whole group
    /// (the common case in dense interiors) nothing splits and no query
    /// is spent. Otherwise a BFS over the surviving core graph, one
    /// ε-query per core it expands, starts from the sub-group of the
    /// lowest-id seed and absorbs every sub-group whose seed it reaches.
    /// When the frontier runs out with sub-groups still pending, the
    /// cores it expanded are a whole piece that split off: it is
    /// recorded and the walk restarts from the next pending sub-group.
    /// The walk stops when no sub-group is pending; the piece it stops
    /// in, unexplored when it is a lone sub-group, keeps the old set.
    fn split_pieces(
        &self,
        p: PointId,
        nbhrs: &[PointId],
        demoted: &[PointId],
        demoted_nbhrs: &[Vec<PointId>],
        orphans: usize,
        budget: usize,
    ) -> Result<(usize, Vec<Vec<PointId>>), usize> {
        let p_core = self.is_core[p as usize];
        let alive_core = |q: PointId| q != p && self.is_core[q as usize] && !demoted.contains(&q);

        // Seed groups, keyed by old component root: p's neighbours when
        // p is core, then each demoted core's.
        let mut groups: Vec<(PointId, Vec<PointId>)> = Vec::new();
        let p_list = if p_core { nbhrs } else { &[] };
        let lists = std::iter::once((p, p_list))
            .chain(demoted.iter().copied().zip(demoted_nbhrs.iter().map(Vec::as_slice)));
        for (v, list) in lists {
            let root = self.uf_root(v);
            debug_assert!(
                !p_core || root == self.uf_root(p),
                "a demoted core shares a core edge with a core p, hence its component"
            );
            for &q in list.iter().filter(|&&q| alive_core(q)) {
                match groups.iter_mut().find(|(r, _)| *r == root) {
                    Some((_, seeds)) if !seeds.contains(&q) => seeds.push(q),
                    Some(_) => {}
                    None => groups.push((root, vec![q])),
                }
            }
        }

        let mut touched =
            demoted.len() + orphans + groups.iter().map(|(_, s)| s.len()).sum::<usize>();
        if touched > budget {
            return Err(touched);
        }
        let eps_sq = self.params.eps * self.params.eps;
        let mut pieces = Vec::new();
        for (_, seeds) in &mut groups {
            seeds.sort_unstable();
            let s = seeds.len();
            if s < 2 {
                continue;
            }
            // Label the seed sub-groups the within-ε relation induces;
            // sub-group 0 holds the lowest-id seed.
            let mut label: Vec<usize> = (0..s).collect();
            for i in 0..s {
                for j in (i + 1)..s {
                    if geom::dist_sq(self.data.point(seeds[i]), self.data.point(seeds[j])) < eps_sq
                    {
                        let (a, b) = (label[i], label[j]);
                        if a != b {
                            let keep = a.min(b);
                            for l in label.iter_mut() {
                                if *l == a || *l == b {
                                    *l = keep;
                                }
                            }
                        }
                    }
                }
            }
            self.counters.count_dists((s * (s - 1) / 2) as u64);
            if label.iter().all(|&l| l == 0) {
                continue;
            }
            let mut pending: Vec<usize> = label.iter().copied().filter(|&l| l != 0).collect();
            pending.sort_unstable();
            pending.dedup();
            fn absorb(
                seeds: &[PointId],
                label: &[usize],
                l: usize,
                visited: &mut std::collections::HashSet<PointId>,
                frontier: &mut std::collections::VecDeque<PointId>,
            ) {
                for (i, &q) in seeds.iter().enumerate() {
                    if label[i] == l && visited.insert(q) {
                        frontier.push_back(q);
                    }
                }
            }
            let mut visited: std::collections::HashSet<PointId> = std::collections::HashSet::new();
            let mut frontier = std::collections::VecDeque::new();
            let mut piece: Vec<PointId> = Vec::new();
            absorb(seeds, &label, 0, &mut visited, &mut frontier);
            loop {
                // The frontier only runs out with a sub-group pending:
                // the core that empties `pending` is pushed as it does.
                let Some(c) = frontier.pop_front() else {
                    pieces.push(std::mem::take(&mut piece));
                    let l = pending.remove(0);
                    if pending.is_empty() {
                        break;
                    }
                    absorb(seeds, &label, l, &mut visited, &mut frontier);
                    continue;
                };
                if pending.is_empty() {
                    break;
                }
                piece.push(c);
                let mut cn = self.query(self.data.point(c));
                cn.sort_unstable();
                for q in cn {
                    if !alive_core(q) || !visited.insert(q) {
                        continue;
                    }
                    frontier.push_back(q);
                    match seeds.iter().position(|&t| t == q) {
                        Some(i) => {
                            if let Ok(k) = pending.binary_search(&label[i]) {
                                pending.remove(k);
                                absorb(seeds, &label, label[i], &mut visited, &mut frontier);
                            }
                        }
                        None => {
                            touched += 1;
                            if touched > budget {
                                return Err(touched);
                            }
                        }
                    }
                }
            }
        }
        Ok((touched, pieces))
    }

    /// Tombstone `p`: delete it from its MC's block (so no ε-query
    /// ever returns it again) and clear its clustering state. The MC's
    /// center may become *virtual* (the removed point), which keeps both
    /// the level-1 2ε search invariant and the members-within-ε bound
    /// intact; an emptied MC simply stops matching queries.
    fn detach(&mut self, p: PointId) {
        let block = &mut self.mcs[self.mc_of[p as usize] as usize];
        let row = block.items().iter().position(|&q| q == p);
        Arc::make_mut(block).remove(row.expect("a live point is in its micro-cluster block"));
        self.live[p as usize] = false;
        self.dead_count += 1;
        self.is_core[p as usize] = false;
        self.anchor[p as usize] = NO_ANCHOR;
        self.counts[p as usize] = 0;
    }

    /// The clustering of the current **live** points (insertion order,
    /// compacted over tombstones) with border ties resolved canonically:
    /// every border point joins the cluster of its **minimum-id core
    /// neighbour** (its anchor), which is exactly the attachment
    /// [`Self::from_dataset`] produces when it replays the union rules
    /// in id order. Classical DBSCAN leaves that tie unspecified; fixing
    /// it makes the result independent of insertion and removal order
    /// and compare `==` against a batch run on the compacted live set —
    /// the serving layer ([`crate::serve`]) publishes these snapshots
    /// for precisely that bit-identical epoch contract. (Compaction
    /// preserves insertion order, so the minimum internal id and the
    /// minimum compacted id pick the same anchor.)
    ///
    /// Runs no ε-query: one pass over the live points keys each core by
    /// its union–find root (core components are already
    /// order-independent) and each border by the root of its stored
    /// anchor, and numbers the keys in first-appearance order — the
    /// labels [`Clustering::from_union_find`] gives the canonical
    /// forest, without building it.
    pub fn canonical_snapshot(&self) -> Clustering {
        // Cluster label per union–find element (only roots are read).
        let mut label_of = vec![NOISE; self.uf.len()];
        let mut labels = Vec::with_capacity(self.live_len());
        let mut is_core = Vec::with_capacity(self.live_len());
        let mut next = 0u32;
        for p in (0..self.data.len()).filter(|&p| self.live[p]) {
            let key = if self.is_core[p] { p as PointId } else { self.anchor[p] };
            labels.push(if key == NO_ANCHOR {
                NOISE
            } else {
                let label = &mut label_of[self.uf_root(key) as usize];
                if *label == NOISE {
                    *label = next;
                    next += 1;
                }
                *label
            });
            is_core.push(self.is_core[p]);
        }
        Clustering { labels, is_core, n_clusters: next as usize }
    }

    /// Convenience: bulk-ingest a dataset in row order.
    pub fn extend_from(&mut self, data: &Dataset) {
        for (_, coords) in data.iter() {
            self.insert(coords);
        }
    }

    /// Exactness self-check: rebuild a throwaway twin engine from the
    /// compacted live points and compare canonical snapshots. `true`
    /// means this engine's incremental state still reproduces the batch
    /// answer bit-identically — the invariant the whole crate promises.
    ///
    /// This costs a full batch run plus one canonical snapshot on each
    /// side, so it is a *debugging/auditing* probe (the serving layer's
    /// [`crate::ServeOptions::self_check_every`] schedules it sparsely),
    /// not something to call per epoch in production. The twin's
    /// operation counters are discarded; `self` is not mutated.
    pub fn verify_against_batch(&self) -> bool {
        let mut data = Dataset::empty(self.data.dim());
        for p in 0..self.len() {
            if self.is_live(p as PointId) {
                data.push(self.point(p as PointId));
            }
        }
        let twin = StreamingMuDbscan::from_dataset(&data, self.params());
        twin.canonical_snapshot() == self.canonical_snapshot()
    }
}

thread_local! {
    /// The MCs a level-1 probe returns, reused by every ε-query on the
    /// thread.
    static HIT: Cell<Vec<McId>> = const { Cell::new(Vec::new()) };
}

/// Level-1 indexes of at most this many centers are probed by testing
/// every center in id order: below it one pass over their coordinates
/// costs less than the grid's cell lookups (about 14 hash probes for a
/// 2ε ball at d ≥ 3), and it finds the same MCs.
const LINEAR_PROBE_CENTERS: usize = 64;

/// ε-neighbourhood (strict `< eps`) of `coords` over a micro-cluster
/// index (paper Algorithm 5): every MC whose center lies strictly within
/// 2ε on level 1, then a scan of each such MC's member block. A point
/// within ε of `coords` lies within ε of its MC's center, so no other
/// MC can hold one. Calls `visit` with each neighbour's id, MC by MC in
/// ascending MC id, and returns the distance evaluations of the member
/// scans. The engine charges them to its counters; a snapshot reader
/// discards them.
pub(crate) fn eps_query(
    level1: &CenterGrid,
    mcs: &[Arc<PointBlock>],
    eps: f64,
    coords: &[f64],
    mut visit: impl FnMut(PointId),
) -> u64 {
    let mut hit = HIT.take();
    hit.clear();
    let r = 2.0 * eps;
    if level1.len() <= LINEAR_PROBE_CENTERS {
        let ids = 0..level1.len() as McId;
        hit.extend(ids.filter(|&mc| dist_sq(level1.center(mc), coords) < r * r));
    } else {
        level1.all_within(coords, r, &mut hit);
    }
    let dists = hit
        .iter()
        .map(|&mc| scan_block(&mcs[mc as usize], coords, eps * eps, &mut visit).mbr_tests)
        .sum();
    HIT.set(hit);
    dists
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudbscan::{check_exact, naive_dbscan};
    use proptest::prelude::*;

    fn blobs(n_per: usize, seed: u64) -> Dataset {
        let mut rows = Vec::new();
        let mut s = seed;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (cx, cy) in [(0.0, 0.0), (6.0, 2.0)] {
            for _ in 0..n_per {
                rows.push(vec![cx + 0.7 * r(), cy + 0.7 * r()]);
            }
        }
        for _ in 0..n_per / 4 {
            rows.push(vec![12.0 * r(), 12.0 * r()]);
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn final_state_matches_batch_dbscan() {
        let data = blobs(60, 5);
        let params = DbscanParams::new(0.6, 5);
        let mut s = StreamingMuDbscan::empty(2, params);
        s.extend_from(&data);
        let got = s.canonical_snapshot();
        let want = naive_dbscan(&data, &params);
        let rep = check_exact(&got, &want, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
    }

    #[test]
    fn a_small_level1_is_probed_linearly_with_the_grids_answer() {
        // Points enter one by one, so the index passes through every MC
        // count around `LINEAR_PROBE_CENTERS`. At each step `eps_query`
        // must report the neighbours and distance count of a grid probe
        // followed by the same member scans.
        let data = blobs(150, 3);
        let params = DbscanParams::new(0.15, 4);
        let eps = params.eps;
        let mut s = StreamingMuDbscan::empty(2, params);
        let queries: Vec<Vec<f64>> =
            (0..40).map(|i| vec![f64::from(i) * 0.31 - 1.0, f64::from(i % 7) * 0.4]).collect();
        for (_, coords) in data.iter() {
            s.insert(coords);
            let (grid, mcs) = s.shared_index();
            for q in queries.iter().map(Vec::as_slice).chain([coords]) {
                let mut got = Vec::new();
                let got_dists = eps_query(&grid, &mcs, eps, q, |p| got.push(p));
                let (mut hit, mut want, mut want_dists) = (Vec::new(), Vec::new(), 0);
                grid.all_within(q, 2.0 * eps, &mut hit);
                for mc in hit {
                    want_dists +=
                        scan_block(&mcs[mc as usize], q, eps * eps, |p| want.push(p)).mbr_tests;
                }
                assert_eq!((got, got_dists), (want, want_dists), "{} MCs, q {q:?}", grid.len());
            }
        }
        assert!(s.level1.len() > LINEAR_PROBE_CENTERS, "{} MCs", s.level1.len());
    }

    #[test]
    fn every_prefix_is_exact() {
        let data = blobs(25, 9);
        let params = DbscanParams::new(0.6, 4);
        let mut s = StreamingMuDbscan::empty(2, params);
        for (i, coords) in data.iter() {
            s.insert(coords);
            // Check a sample of prefixes (every 7th) to keep the O(n²)
            // oracle affordable.
            if i % 7 != 6 {
                continue;
            }
            let prefix_rows: Vec<Vec<f64>> = (0..=i).map(|j| data.point(j).to_vec()).collect();
            let prefix = Dataset::from_rows(&prefix_rows);
            let got = s.canonical_snapshot();
            let want = naive_dbscan(&prefix, &params);
            let rep = check_exact(&got, &want, &prefix, &params);
            assert!(rep.is_exact(), "prefix {}: {rep:?}", i + 1);
        }
    }

    #[test]
    fn promotion_on_crossing_minpts() {
        // Points arrive so that an early point becomes core only later.
        let params = DbscanParams::new(1.0, 3);
        let mut s = StreamingMuDbscan::empty(1, params);
        s.insert(&[0.0]); // will become core once 2 more arrive
        s.insert(&[10.0]); // far away
        assert_eq!(s.canonical_snapshot().n_clusters, 0);
        s.insert(&[0.5]);
        assert_eq!(s.canonical_snapshot().n_clusters, 0); // counts: 2 < 3
        s.insert(&[-0.5]);
        let c = s.canonical_snapshot();
        assert_eq!(c.n_clusters, 1);
        assert!(c.is_core[0], "point 0 must be promoted to core");
        assert!(c.is_noise(1));
    }

    #[test]
    fn noise_rescued_when_core_appears() {
        let params = DbscanParams::new(1.0, 3);
        let mut s = StreamingMuDbscan::empty(1, params);
        s.insert(&[0.9]); // will be border of the core at 0
        s.insert(&[0.0]);
        s.insert(&[-0.9]);
        // All three mutually... 0.9 and -0.9 are 1.8 apart (not
        // neighbours); point 1 sees all three -> core; 0 and 2 border.
        let c = s.canonical_snapshot();
        assert_eq!(c.n_clusters, 1);
        assert!(c.is_core[1]);
        assert!(c.is_border(0) && c.is_border(2));
    }

    #[test]
    fn mc_structure_stays_small() {
        let data = blobs(80, 13);
        let params = DbscanParams::new(0.6, 5);
        let mut s = StreamingMuDbscan::empty(2, params);
        s.extend_from(&data);
        assert!(s.mc_count() < s.len() / 2, "m = {} vs n = {}", s.mc_count(), s.len());
        assert!(s.counters().range_queries() > 0);
    }

    #[test]
    fn bulk_load_matches_batch_dbscan() {
        let data = blobs(60, 33);
        let params = DbscanParams::new(0.6, 5);
        let s = StreamingMuDbscan::from_dataset(&data, params);
        assert_eq!(s.len(), data.len());
        assert!(s.mc_count() > 0);
        let got = s.canonical_snapshot();
        let want = naive_dbscan(&data, &params);
        let rep = check_exact(&got, &want, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
    }

    #[test]
    fn bulk_load_agrees_with_point_at_a_time_ingestion() {
        let data = blobs(40, 37);
        let params = DbscanParams::new(0.6, 4);
        let bulk = StreamingMuDbscan::from_dataset(&data, params);
        let mut seq = StreamingMuDbscan::empty(2, params);
        seq.extend_from(&data);
        let a = bulk.canonical_snapshot();
        let b = seq.canonical_snapshot();
        assert_eq!(a.n_clusters, b.n_clusters);
        assert_eq!(a.is_core, b.is_core);
        assert_eq!(a.noise_count(), b.noise_count());
    }

    #[test]
    fn inserts_after_bulk_load_stay_exact() {
        let data = blobs(40, 41);
        let split = data.len() - 15;
        let head_rows: Vec<Vec<f64>> = (0..split).map(|j| data.point(j as u32).to_vec()).collect();
        let head = Dataset::from_rows(&head_rows);
        let params = DbscanParams::new(0.6, 4);
        let mut s = StreamingMuDbscan::from_dataset(&head, params);
        for j in split..data.len() {
            s.insert(data.point(j as u32));
        }
        let got = s.canonical_snapshot();
        let want = naive_dbscan(&data, &params);
        let rep = check_exact(&got, &want, &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
    }

    #[test]
    fn canonical_snapshot_is_bit_identical_to_bulk_load() {
        let data = blobs(40, 37);
        let params = DbscanParams::new(0.6, 4);
        let bulk = StreamingMuDbscan::from_dataset(&data, params);
        let mut seq = StreamingMuDbscan::empty(2, params);
        seq.extend_from(&data);
        let want = bulk.canonical_snapshot();
        // Point-at-a-time ingestion may attach border ties differently;
        // the canonical snapshot re-resolves them to the bulk answer.
        assert_eq!(seq.canonical_snapshot(), want);
        // The bulk state is already canonical.
        assert_eq!(bulk.canonical_snapshot(), want);
        // And canonicalisation must itself be exact DBSCAN.
        let rep =
            check_exact(&seq.canonical_snapshot(), &naive_dbscan(&data, &params), &data, &params);
        assert!(rep.is_exact(), "{rep:?}");
    }

    #[test]
    fn bulk_load_empty_dataset() {
        let data = Dataset::empty(3);
        let mut s = StreamingMuDbscan::from_dataset(&data, DbscanParams::new(1.0, 4));
        assert!(s.is_empty());
        assert_eq!(s.canonical_snapshot().n_clusters, 0);
        s.insert(&[0.0, 0.0, 0.0]);
        assert_eq!(s.len(), 1);
    }

    /// Compacted live dataset of a streaming engine (insertion order).
    fn live_dataset(s: &StreamingMuDbscan) -> Dataset {
        let rows: Vec<Vec<f64>> =
            (0..s.len() as u32).filter(|&p| s.is_live(p)).map(|p| s.point(p).to_vec()).collect();
        Dataset::from_rows(&rows)
    }

    #[test]
    fn remove_matches_batch_on_survivors() {
        let data = blobs(30, 17);
        let params = DbscanParams::new(0.6, 4);
        let mut s = StreamingMuDbscan::from_dataset(&data, params);
        // Remove a pseudo-random half of the points one at a time; after
        // each removal the canonical snapshot must be bit-identical to a
        // batch run over the compacted survivors.
        let mut victim = 7u32;
        for step in 0..data.len() / 2 {
            victim = (victim.wrapping_mul(48271) + 13) % data.len() as u32;
            while !s.is_live(victim) {
                victim = (victim + 1) % data.len() as u32;
            }
            s.remove(victim);
            assert!(!s.is_live(victim));
            assert_eq!(s.live_len(), data.len() - step - 1);
            let survivors = live_dataset(&s);
            let batch = StreamingMuDbscan::from_dataset(&survivors, params);
            assert_eq!(
                s.canonical_snapshot(),
                batch.canonical_snapshot(),
                "step {step}: repaired state diverged from batch on survivors"
            );
        }
        // And the end state is exact DBSCAN.
        let survivors = live_dataset(&s);
        let rep = check_exact(
            &s.canonical_snapshot(),
            &naive_dbscan(&survivors, &params),
            &survivors,
            &params,
        );
        assert!(rep.is_exact(), "{rep:?}");
    }

    #[test]
    fn one_mc_block_grows_and_shrinks_exactly() {
        // Every point lies within ε of the first one, so all join its MC:
        // the block outgrows its initial capacity of one, and removals of
        // members and of the centre (which then stays virtual) shrink it.
        // The points span 1.8 > ε, so cores, borders and noise all occur.
        let params = DbscanParams::new(1.0, 5);
        let mut s = StreamingMuDbscan::empty(2, params);
        let mut live: Vec<PointId> = Vec::new();
        let mut max_cap = 0;
        for i in 0..60u32 {
            let x = [0.0, 0.45, -0.45, 0.9, -0.9][i as usize % 5] + 1e-4 * f64::from(i);
            live.push(s.insert(&[x, 1e-4 * f64::from(i % 3)]));
            if i == 20 {
                assert!(s.is_live(0));
                s.remove(0);
                live.retain(|&p| p != 0);
            } else if i % 3 == 2 {
                // Members only until the centre goes at step 20.
                let skip = usize::from(i < 20);
                s.remove(live.remove(skip + (i as usize * 7) % (live.len() - skip)));
            }
            assert_eq!(s.mc_count(), 1);
            assert_eq!(s.mcs[0].len(), s.live_len());
            max_cap = max_cap.max(s.mcs[0].capacity());
            let survivors = live_dataset(&s);
            let want = naive_dbscan(&survivors, &params);
            let rep = check_exact(&s.canonical_snapshot(), &want, &survivors, &params);
            assert!(rep.is_exact(), "after step {i}: {rep:?}");
        }
        assert!(max_cap >= 32, "the block never grew: capacity {max_cap}");
    }

    #[test]
    fn remove_then_insert_interleaved_stays_exact() {
        let data = blobs(25, 29);
        let params = DbscanParams::new(0.6, 4);
        let mut s = StreamingMuDbscan::empty(2, params);
        let mut live: Vec<u32> = Vec::new();
        for (i, coords) in data.iter() {
            live.push(s.insert(coords));
            if i % 4 == 3 {
                let k = (i as usize * 31) % live.len();
                let victim = live.swap_remove(k);
                s.remove(victim);
            }
            if i % 9 != 8 {
                continue;
            }
            let survivors = live_dataset(&s);
            let batch = StreamingMuDbscan::from_dataset(&survivors, params);
            assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot(), "after insert {i}");
        }
    }

    #[test]
    fn try_remove_budget_zero_leaves_state_untouched() {
        let params = DbscanParams::new(1.0, 3);
        let mut s = StreamingMuDbscan::empty(1, params);
        for x in [0.0, 0.5, -0.5, 0.2] {
            s.insert(&[x]);
        }
        let before = s.canonical_snapshot();
        // Point 0 is core in a 4-point component: the repair region has
        // 3 survivors, over any 0 budget.
        match s.try_remove(0, 0) {
            RemoveOutcome::ExceedsBudget { component } => assert_eq!(component, 3),
            other => panic!("expected ExceedsBudget, got {other:?}"),
        }
        assert!(s.is_live(0));
        assert_eq!(s.live_len(), 4);
        assert_eq!(s.canonical_snapshot(), before, "failed try_remove must not mutate");
        // With budget = 3 the same removal succeeds.
        assert_eq!(s.try_remove(0, 3), RemoveOutcome::Removed { touched: 3 });
        assert_eq!(s.live_len(), 3);
    }

    #[test]
    fn dense_interior_removal_repairs_under_tiny_budget() {
        // One dense 10×10 grid cluster. Removing an interior core must
        // commit without walking the component: the budget (25) is far
        // below the component size (99 survivors), so only the
        // seed-clique certificate lets the removal commit, and it must
        // still be bit-exact against a batch run on the survivors.
        let rows: Vec<Vec<f64>> = (0..10)
            .flat_map(|i| (0..10).map(move |j| vec![f64::from(i) * 0.2, f64::from(j) * 0.2]))
            .collect();
        let data = Dataset::from_rows(&rows);
        let params = DbscanParams::new(0.45, 4);
        let mut s = StreamingMuDbscan::from_dataset(&data, params);
        assert_eq!(s.canonical_snapshot().n_clusters, 1);
        match s.try_remove(55, 25) {
            RemoveOutcome::Removed { touched } => {
                assert!(touched <= 25, "fast repair examined {touched} points")
            }
            other => panic!("dense interior removal exceeded the budget: {other:?}"),
        }
        let survivors = live_dataset(&s);
        let batch = StreamingMuDbscan::from_dataset(&survivors, params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
    }

    /// `n` points at pitch 0.5 on a line. At ε 0.6 and MinPts 3 every
    /// point but the two ends is a core, so removing an inner core
    /// splits the chain.
    fn chain(n: u32) -> Dataset {
        Dataset::from_rows(&(0..n).map(|i| vec![f64::from(i) * 0.5]).collect::<Vec<_>>())
    }

    #[test]
    fn chain_split_removal_still_exact() {
        // Removing a mid-chain core genuinely splits the cluster: the
        // walk from the lower seed runs out, its piece gets a fresh
        // set, and the result must match a batch run.
        let params = DbscanParams::new(0.6, 3);
        let mut s = StreamingMuDbscan::from_dataset(&chain(20), params);
        assert_eq!(s.canonical_snapshot().n_clusters, 1);
        s.remove(10);
        let survivors = live_dataset(&s);
        let batch = StreamingMuDbscan::from_dataset(&survivors, params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
        assert_eq!(s.canonical_snapshot().n_clusters, 2, "mid-chain removal must split");

        // Near the high-id end the walk starts from the lower seed
        // (core 3993), so it expands the whole large piece, cores
        // 1..=3993, one query each on top of the removal's own three
        // (p and the demoted cores 3994 and 3996).
        let mut s = StreamingMuDbscan::from_dataset(&chain(4000), params);
        let before = s.counters().range_queries();
        s.remove(3995);
        assert_eq!(s.counters().range_queries() - before, 3 + 3993);
        let survivors = live_dataset(&s);
        let batch = StreamingMuDbscan::from_dataset(&survivors, params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
        assert_eq!(s.canonical_snapshot().n_clusters, 2, "high-end removal must split");
    }

    #[test]
    fn a_split_costs_the_piece_it_explores() {
        // Removing core 4 of a 4 000-point chain breaks {0, 1, 2, 3}
        // off. The walk starts from the lower seed (core 2), runs out
        // after cores 2 and 1, and commits: that piece gets a fresh set
        // and the other keeps the old one unexplored. Five queries (p,
        // the demoted cores 3 and 5, cores 2 and 1) and five touched
        // points (cores 3, 5, the seeds 2 and 6, and 1), whatever the
        // chain's length.
        let params = DbscanParams::new(0.6, 3);
        let mut s = StreamingMuDbscan::from_dataset(&chain(4000), params);
        let before = s.counters().range_queries();
        assert_eq!(s.try_remove(4, 10), RemoveOutcome::Removed { touched: 5 });
        assert_eq!(s.counters().range_queries() - before, 5);
        let survivors = live_dataset(&s);
        let batch = StreamingMuDbscan::from_dataset(&survivors, params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
        assert_eq!(s.canonical_snapshot().n_clusters, 2);
    }

    #[test]
    fn a_four_way_split_records_three_pieces() {
        // A plus sign at pitch 0.5: the centre (id 0) and four arms of
        // six points, inserted ring by ring so the arms' ids interleave.
        // Removing the centre demotes the four inner arm points and
        // leaves four seeds far apart (ids 5 to 8): the walk records the
        // arms of seeds 5, 6 and 7 as pieces that split off and leaves
        // seed 8's arm, a lone sub-group, in the old set.
        let mut rows = vec![vec![0.0, 0.0]];
        for r in 1..=6 {
            let x = f64::from(r) * 0.5;
            rows.extend([vec![x, 0.0], vec![0.0, x], vec![-x, 0.0], vec![0.0, -x]]);
        }
        let params = DbscanParams::new(0.6, 3);
        let mut s = StreamingMuDbscan::from_dataset(&Dataset::from_rows(&rows), params);
        assert_eq!(s.canonical_snapshot().n_clusters, 1);
        let before = s.counters().range_queries();
        // Touched: 4 demoted cores, 4 seeds, 3 further cores in each of
        // three arms. Queries: p, the 4 demoted cores, 4 cores in each
        // of three arms.
        assert_eq!(s.try_remove(0, usize::MAX), RemoveOutcome::Removed { touched: 17 });
        assert_eq!(s.counters().range_queries() - before, 17);
        let batch = StreamingMuDbscan::from_dataset(&live_dataset(&s), params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
        assert_eq!(s.canonical_snapshot().n_clusters, 4);
        // A new centre joins the four pieces again.
        s.insert(&[0.0, 0.0]);
        let batch = StreamingMuDbscan::from_dataset(&live_dataset(&s), params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
        assert_eq!(s.canonical_snapshot().n_clusters, 1);
    }

    #[test]
    fn orphaned_border_recapture_does_not_leak_old_component() {
        // The stale-anchor hazard behind re-anchoring orphans: border b
        // (x=0.8) is anchored only by the core at 0.4 (id 3). Fast-
        // removing that core (which also demotes the core at 0.0)
        // orphans b, and the repair must re-resolve b's anchor, here to
        // noise. A later insert then promotes a NEW core (1.2, id 5)
        // that captures b. Had b kept its stale anchor 3, that
        // capture's `min` would keep it too, and b would read its
        // cluster through the removed core's element, which stays in
        // the old set with the core at -0.4: b in the old cluster
        // instead of the new one.
        let params = DbscanParams::new(0.5, 3);
        let mut s = StreamingMuDbscan::empty(1, params);
        for x in [-0.8, -0.4, 0.0, 0.4, 0.8] {
            s.insert(&[x]);
        }
        assert_eq!(s.canonical_snapshot().n_clusters, 1);
        match s.try_remove(3, usize::MAX) {
            RemoveOutcome::Removed { touched } => {
                assert!(touched <= 4, "expected a local repair, examined {touched}")
            }
            other => panic!("{other:?}"),
        }
        s.insert(&[1.2]);
        s.insert(&[1.6]);
        let survivors = live_dataset(&s);
        let batch = StreamingMuDbscan::from_dataset(&survivors, params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
        assert_eq!(s.canonical_snapshot().n_clusters, 2, "recaptured border leaked its old set");
    }

    #[test]
    fn removing_noise_touches_nothing() {
        let params = DbscanParams::new(1.0, 3);
        let mut s = StreamingMuDbscan::empty(1, params);
        for x in [0.0, 0.5, -0.5, 20.0] {
            s.insert(&[x]);
        }
        // Point 3 is isolated noise: even a zero budget repairs it.
        assert_eq!(s.try_remove(3, 0), RemoveOutcome::Removed { touched: 0 });
        assert_eq!(s.canonical_snapshot().n_clusters, 1);
    }

    #[test]
    fn remove_shared_border_demotes_across_clusters() {
        // Two 1-d clusters sharing the border point at x = 0:
        // left cores need it to stay core, so removing it must demote
        // and split — across a component boundary from p's own cluster.
        let params = DbscanParams::new(1.1, 3);
        let mut s = StreamingMuDbscan::empty(1, params);
        let pts = [-2.0, -1.0, 0.0, 1.0, 2.0, 1.5];
        for x in pts {
            s.insert(&[x]);
        }
        let c = s.canonical_snapshot();
        assert!(c.n_clusters >= 1);
        let shared = 2u32; // x = 0.0
        s.remove(shared);
        let survivors = live_dataset(&s);
        let batch = StreamingMuDbscan::from_dataset(&survivors, params);
        assert_eq!(s.canonical_snapshot(), batch.canonical_snapshot());
        let rep = check_exact(
            &s.canonical_snapshot(),
            &naive_dbscan(&survivors, &params),
            &survivors,
            &params,
        );
        assert!(rep.is_exact(), "{rep:?}");
    }

    /// Every live non-core's stored anchor is its brute-force
    /// minimum-id live core strictly within ε ([`NO_ANCHOR`] exactly
    /// for noise, and for every tombstone), and its union–find element
    /// is its own root: only cores are ever unioned.
    fn check_anchors(s: &StreamingMuDbscan) -> Result<(), String> {
        let eps_sq = s.params.eps * s.params.eps;
        if let Some(q) = (0..s.len()).find(|&q| !s.live[q] && s.anchor[q] != NO_ANCHOR) {
            return Err(format!("tombstone {q} keeps anchor {}", s.anchor[q]));
        }
        let live = || (0..s.len() as PointId).filter(|&q| s.is_live(q));
        for q in live().filter(|&q| !s.is_core[q as usize]) {
            let slot = s.uf_slot[q as usize];
            if s.uf.find_const(slot) != slot {
                return Err(format!("non-core {q} shares a union–find set"));
            }
            let want = live()
                .filter(|&c| {
                    s.is_core[c as usize] && geom::dist_sq(s.point(c), s.point(q)) < eps_sq
                })
                .min()
                .unwrap_or(NO_ANCHOR);
            if s.anchor[q as usize] != want {
                return Err(format!("point {q}: anchor {} != {want}", s.anchor[q as usize]));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Seeded insert/remove churn under a zero, a small and an
        /// unbounded repair budget, so the noise path, unsplit repairs
        /// and splits all commit: after every op
        /// the anchors are exact and the canonical snapshot equals a
        /// bulk-loaded twin's; an over-budget removal mutates nothing.
        #[test]
        fn anchors_stay_exact_under_churn(
            seed in any::<u64>(),
            eps in 0.4..1.0f64,
            min_pts in 2usize..6,
        ) {
            let params = DbscanParams::new(eps, min_pts);
            for budget in [0, 3, usize::MAX] {
                let mut rng = seed ^ budget as u64;
                let mut next = move || {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (rng >> 33) as f64 / (1u64 << 31) as f64
                };
                let mut s = StreamingMuDbscan::empty(2, params);
                let mut live: Vec<PointId> = Vec::new();
                for step in 0..90 {
                    if step < 30 || next() < 0.5 {
                        let c = if next() < 0.5 { -1.0 } else { 1.0 };
                        live.push(s.insert(&[c + 2.0 * next() - 1.0, 2.0 * next() - 1.0]));
                    } else {
                        let k = (next() * live.len() as f64) as usize % live.len();
                        let before = s.canonical_snapshot();
                        match s.try_remove(live[k], budget) {
                            RemoveOutcome::Removed { .. } => {
                                live.swap_remove(k);
                            }
                            RemoveOutcome::ExceedsBudget { .. } => {
                                prop_assert_eq!(s.canonical_snapshot(), before);
                            }
                        }
                    }
                    if let Err(e) = check_anchors(&s) {
                        return Err(TestCaseError::fail(format!(
                            "budget {budget}, step {step}: {e}"
                        )));
                    }
                    let twin = StreamingMuDbscan::from_dataset(&live_dataset(&s), params);
                    prop_assert_eq!(
                        s.canonical_snapshot(),
                        twin.canonical_snapshot(),
                        "budget {}, step {}",
                        budget,
                        step
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_snapshot_runs_no_query() {
        let data = blobs(30, 3);
        let params = DbscanParams::new(0.6, 4);
        let mut s = StreamingMuDbscan::empty(2, params);
        s.extend_from(&data);
        s.remove(5);
        let before = s.counters().range_queries();
        let snap = s.canonical_snapshot();
        assert!(snap.n_clusters > 0 && snap.is_core.iter().any(|&c| !c));
        assert_eq!(s.counters().range_queries(), before);
    }

    #[test]
    #[should_panic(expected = "dead or unknown")]
    fn double_remove_panics() {
        let mut s = StreamingMuDbscan::empty(1, DbscanParams::new(1.0, 3));
        s.insert(&[0.0]);
        s.remove(0);
        s.remove(0);
    }

    #[test]
    fn order_independence_of_canonical_quantities() {
        let data = blobs(40, 21);
        let params = DbscanParams::new(0.6, 4);
        let mut fwd = StreamingMuDbscan::empty(2, params);
        fwd.extend_from(&data);
        let ids: Vec<u32> = data.ids().rev().collect();
        let rev_data = data.gather(&ids);
        let mut rev = StreamingMuDbscan::empty(2, params);
        rev.extend_from(&rev_data);
        let a = fwd.canonical_snapshot();
        let b = rev.canonical_snapshot();
        assert_eq!(a.n_clusters, b.n_clusters);
        assert_eq!(a.noise_count(), b.noise_count());
        assert_eq!(a.core_count(), b.core_count());
    }
}
