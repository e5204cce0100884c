//! Budget-sized spatial sharding over a chunked [`DataSource`].
//!
//! [`plan_shards`] cuts kd cells at sampled medians and sizes them so
//! each shard's resident coordinates respect a memory budget, driven by
//! streaming passes over a source that never needs to fit in memory:
//!
//! 1. **Scan pass** — one pass over the chunks computes the exact global
//!    bounding box and a deterministic strided coordinate sample.
//! 2. **Sample kd build** — the sample is split recursively at medians
//!    (axis of widest region spread) until the leaf count reaches
//!    `min_shards` and every leaf's *estimated* owned bytes fit
//!    `max_shard_bytes`.
//! 3. **Count-and-refine passes** — exact owned counts per leaf are
//!    measured by streaming every point down the split tree; leaves
//!    whose exact bytes still exceed the bound are re-split using
//!    leaf-local samples collected in the same pass. Skewed data
//!    converges in a round or two; pathological duplicates (unsplittable
//!    leaves) are accepted as-is.
//!
//! The resulting [`ShardPlan`] is a pure function of the source and
//! options — same inputs, same shards — and is shared read-only across
//! shard workers. [`gather_shard`] then materializes one shard (owned
//! points + ε-halo) with a single chunk scan; ownership is a strict
//! descent (`coord < split` → left, else right) and halo membership is
//! the open-ball test `region.min_dist_sq(p) < ε²`.

use geom::{DataSource, Dataset, Mbr, PointId};

/// Target size of the global scan-pass sample.
const GLOBAL_SAMPLE_TARGET: usize = 32_768;
/// Target size of a per-leaf refinement sample.
const LEAF_SAMPLE_TARGET: usize = 2_048;
/// Maximum count-and-refine rounds before accepting residual oversize.
const MAX_REFINE_ROUNDS: usize = 4;

/// One shard of the data: its owned points plus its ε-halo.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Global ids of the owned points (parallel to `data`).
    pub ids: Vec<PointId>,
    /// Owned point coordinates.
    pub data: Dataset,
    /// Global ids of the halo points (parallel to `halo`).
    pub halo_ids: Vec<PointId>,
    /// Halo point coordinates — every remote point strictly within ε of
    /// this shard's region.
    pub halo: Dataset,
    /// The shard's box region (kd-tree cell).
    pub region: Mbr,
}

impl Shard {
    /// Owned point count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the shard owns no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Options for [`plan_shards`].
#[derive(Debug, Clone)]
pub struct ShardingOptions {
    /// Minimum number of shards to cut (the planner splits the most
    /// populous leaf until reaching this count).
    pub min_shards: usize,
    /// Upper bound on one shard's owned coordinate bytes
    /// (`count * dim * 8`); `None` leaves shard sizes to `min_shards`
    /// alone. Callers deriving this from a whole-run memory budget
    /// should divide by the worker count and leave slack for halos.
    pub max_shard_bytes: Option<usize>,
}

impl Default for ShardingOptions {
    fn default() -> Self {
        Self { min_shards: 1, max_shard_bytes: None }
    }
}

enum PlanNode {
    Split { axis: usize, split: f64, left: usize, right: usize },
    Leaf { shard: usize },
}

/// A deterministic spatial shard layout: a kd split tree whose leaves
/// are the shards, with exact owned counts and per-shard regions.
pub struct ShardPlan {
    dim: usize,
    eps: f64,
    nodes: Vec<PlanNode>,
    regions: Vec<Mbr>,
    counts: Vec<usize>,
}

impl ShardPlan {
    /// Number of shards (tree leaves).
    pub fn n_shards(&self) -> usize {
        self.regions.len()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The ε the halos were planned for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Shard regions (kd cells clipped from the global bounding box).
    pub fn regions(&self) -> &[Mbr] {
        &self.regions
    }

    /// Exact owned point counts per shard.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Owned coordinate bytes of the largest shard.
    pub fn max_shard_bytes(&self) -> usize {
        self.counts.iter().map(|&c| c * self.dim * 8).max().unwrap_or(0)
    }

    /// The shard owning point `p`: strict descent, `coord < split` goes
    /// left, `coord >= split` goes right.
    #[inline]
    pub fn owner(&self, p: &[f64]) -> usize {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                PlanNode::Split { axis, split, left, right } => {
                    node = if p[*axis] < *split { *left } else { *right };
                }
                PlanNode::Leaf { shard } => return *shard,
            }
        }
    }

    /// Call `visit(s)` for every shard `s` other than `owner` whose
    /// ε-halo holds `p` (`regions[s].min_dist_sq(p) < ε²`). A subtree is
    /// skipped when `p` lies at least ε from its split plane: every
    /// region below a split lies on its side of the plane, so none of
    /// them can pass the test.
    fn for_each_halo(
        &self,
        p: &[f64],
        owner: usize,
        stack: &mut Vec<usize>,
        mut visit: impl FnMut(usize),
    ) {
        let eps_sq = self.eps * self.eps;
        stack.clear();
        stack.push(0);
        while let Some(node) = stack.pop() {
            match &self.nodes[node] {
                PlanNode::Split { axis, split, left, right } => {
                    if p[*axis] - *split < self.eps {
                        stack.push(*left);
                    }
                    if *split - p[*axis] < self.eps {
                        stack.push(*right);
                    }
                }
                PlanNode::Leaf { shard } => {
                    if *shard != owner && self.regions[*shard].min_dist_sq(p) < eps_sq {
                        visit(*shard);
                    }
                }
            }
        }
    }
}

struct BuildLeaf {
    node: usize,
    region: Mbr,
    /// Row indices into the sample backing this leaf.
    rows: Vec<usize>,
    /// Estimated (or, after a count pass, exact) owned point count.
    est_count: f64,
    splittable: bool,
}

struct Sample {
    dim: usize,
    rows: Vec<f64>, // row-major
}

impl Sample {
    fn len(&self) -> usize {
        self.rows.len() / self.dim.max(1)
    }
    fn point(&self, i: usize) -> &[f64] {
        &self.rows[i * self.dim..(i + 1) * self.dim]
    }
}

/// Median of the leaf's sample values on `axis`; `None` when a split at
/// that value cannot separate the rows (all values equal).
fn median_split(sample: &Sample, rows: &[usize], axis: usize) -> Option<f64> {
    let mut vals: Vec<f64> = rows.iter().map(|&r| sample.point(r)[axis]).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let split = vals[vals.len() / 2];
    // Strict-< routing: a split at the minimum sends everything right.
    if split > vals[0] {
        Some(split)
    } else {
        None
    }
}

/// Pick the axis with the widest sample spread inside the leaf.
fn widest_axis(sample: &Sample, rows: &[usize], dim: usize) -> usize {
    let mut best = (f64::NEG_INFINITY, 0usize);
    for k in 0..dim {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &r in rows {
            let x = sample.point(r)[k];
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let spread = hi - lo;
        if spread > best.0 {
            best = (spread, k);
        }
    }
    best.1
}

/// Split `leaves[li]` at its sample median on the widest axis (falling
/// back to the other axes), replacing the parent leaf with the left
/// child in place and appending the right child — deterministic leaf
/// ordering. Returns false (marking the leaf unsplittable) when no
/// separating median exists on any axis.
fn split_leaf(
    sample: &Sample,
    nodes: &mut Vec<PlanNode>,
    leaves: &mut Vec<BuildLeaf>,
    li: usize,
) -> bool {
    let dim = sample.dim;
    let axis0 = widest_axis(sample, &leaves[li].rows, dim);
    // Try the widest axis first, then the rest in order.
    let mut axes: Vec<usize> = vec![axis0];
    axes.extend((0..dim).filter(|&k| k != axis0));
    for axis in axes {
        if let Some(split) = median_split(sample, &leaves[li].rows, axis) {
            let parent_node = leaves[li].node;
            let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
            for &r in &leaves[li].rows {
                if sample.point(r)[axis] < split {
                    lrows.push(r);
                } else {
                    rrows.push(r);
                }
            }
            let total = leaves[li].rows.len() as f64;
            let est = leaves[li].est_count;
            let (lest, rest) = if total > 0.0 {
                (est * lrows.len() as f64 / total, est * rrows.len() as f64 / total)
            } else {
                (0.0, 0.0)
            };
            let reg = &leaves[li].region;
            let mut lhi = reg.hi().to_vec();
            lhi[axis] = lhi[axis].min(split);
            let mut rlo = reg.lo().to_vec();
            rlo[axis] = rlo[axis].max(split);
            let llo = reg.lo().to_vec();
            let mut rhi = reg.hi().to_vec();
            for k in 0..dim {
                if llo[k] > lhi[k] {
                    lhi[k] = llo[k];
                }
                if rlo[k] > rhi[k] {
                    rhi[k] = rlo[k];
                }
            }
            let lnode = nodes.len();
            nodes.push(PlanNode::Leaf { shard: usize::MAX });
            let rnode = nodes.len();
            nodes.push(PlanNode::Leaf { shard: usize::MAX });
            nodes[parent_node] = PlanNode::Split { axis, split, left: lnode, right: rnode };
            let left = BuildLeaf {
                node: lnode,
                region: Mbr::new(llo, lhi),
                rows: lrows,
                est_count: lest,
                splittable: true,
            };
            let right = BuildLeaf {
                node: rnode,
                region: Mbr::new(rlo, rhi),
                rows: rrows,
                est_count: rest,
                splittable: true,
            };
            leaves[li] = left;
            leaves.push(right);
            return true;
        }
    }
    leaves[li].splittable = false;
    false
}

/// Build a deterministic shard plan for `src`.
///
/// Runs `2 + r` streaming passes over the source (scan, then one count
/// pass per refinement round, `r <= 4`), holding only samples and
/// counters in memory — never the point set.
pub fn plan_shards(src: &dyn DataSource, eps: f64, opts: &ShardingOptions) -> ShardPlan {
    assert!(eps > 0.0 && eps.is_finite(), "eps must be positive and finite");
    let dim = src.dim();
    let n = src.len();

    // Pass 1: exact bounding box + strided global sample.
    let stride = (n / GLOBAL_SAMPLE_TARGET).max(1);
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    let mut rows = Vec::new();
    let mut buf = vec![0.0; dim];
    let mut next_sample = 0usize;
    for c in 0..src.n_chunks() {
        let ch = src.chunk(c);
        for k in 0..dim {
            for &x in ch.col(k) {
                if x < lo[k] {
                    lo[k] = x;
                }
                if x > hi[k] {
                    hi[k] = x;
                }
            }
        }
        let base = ch.base as usize;
        while next_sample < base + ch.len {
            ch.write_point(next_sample - base, &mut buf);
            rows.extend_from_slice(&buf);
            next_sample += stride;
        }
    }
    let global_box =
        if n == 0 { Mbr::new(vec![0.0; dim], vec![0.0; dim]) } else { Mbr::new(lo, hi) };
    let sample = Sample { dim, rows };

    // Sample kd build.
    let mut nodes = vec![PlanNode::Leaf { shard: usize::MAX }];
    let mut leaves = vec![BuildLeaf {
        node: 0,
        region: global_box,
        rows: (0..sample.len()).collect(),
        est_count: n as f64,
        splittable: n > 0,
    }];
    let bytes_of = |count: f64| count * dim as f64 * 8.0;
    let min_shards = opts.min_shards.max(1);
    loop {
        let need_count = leaves.len() < min_shards;
        // Largest estimated leaf that still needs splitting.
        let mut pick: Option<usize> = None;
        for (i, l) in leaves.iter().enumerate() {
            if !l.splittable {
                continue;
            }
            let oversized =
                opts.max_shard_bytes.map(|b| bytes_of(l.est_count) > b as f64).unwrap_or(false);
            if need_count || oversized {
                match pick {
                    Some(p) if leaves[p].est_count >= l.est_count => {}
                    _ => pick = Some(i),
                }
            }
        }
        let Some(li) = pick else { break };
        split_leaf(&sample, &mut nodes, &mut leaves, li);
    }

    // Count-and-refine passes: exact counts, re-splitting leaves whose
    // true size exceeds the bound.
    let leaf_shard_assignment = |nodes: &mut [PlanNode], leaves: &[BuildLeaf]| {
        for (s, l) in leaves.iter().enumerate() {
            nodes[l.node] = PlanNode::Leaf { shard: s };
        }
    };
    leaf_shard_assignment(&mut nodes, &leaves);
    let mut counts = vec![0usize; leaves.len()];
    for round in 0..=MAX_REFINE_ROUNDS {
        // Which leaves should this pass also sample (previous round found
        // them oversized)?
        counts = vec![0usize; leaves.len()];
        let plan_view = ShardPlan {
            dim,
            eps,
            nodes: std::mem::take(&mut nodes),
            regions: Vec::new(),
            counts: Vec::new(),
        };
        let mut leaf_samples: Vec<Vec<f64>> = vec![Vec::new(); leaves.len()];
        let sample_stride: Vec<usize> =
            leaves.iter().map(|l| ((l.est_count as usize) / LEAF_SAMPLE_TARGET).max(1)).collect();
        let want_samples = round < MAX_REFINE_ROUNDS && opts.max_shard_bytes.is_some();
        for c in 0..src.n_chunks() {
            let ch = src.chunk(c);
            for i in 0..ch.len {
                ch.write_point(i, &mut buf);
                let s = plan_view.owner(&buf);
                if want_samples && counts[s] % sample_stride[s] == 0 {
                    leaf_samples[s].extend_from_slice(&buf);
                }
                counts[s] += 1;
            }
        }
        nodes = plan_view.nodes;
        for (s, l) in leaves.iter_mut().enumerate() {
            l.est_count = counts[s] as f64;
        }
        let Some(max_bytes) = opts.max_shard_bytes else { break };
        let oversized: Vec<usize> = (0..leaves.len())
            .filter(|&s| leaves[s].splittable && bytes_of(counts[s] as f64) > max_bytes as f64)
            .collect();
        if oversized.is_empty() || round == MAX_REFINE_ROUNDS {
            break;
        }
        // Re-split each oversized leaf with its own fresh sample.
        for &s in &oversized {
            let leaf_sample = Sample { dim, rows: std::mem::take(&mut leaf_samples[s]) };
            if leaf_sample.len() == 0 {
                continue;
            }
            // Work queue of leaf indices (in `leaves`) still oversized.
            leaves[s].rows = (0..leaf_sample.len()).collect();
            let mut queue = vec![s];
            while let Some(li) = queue.pop() {
                if bytes_of(leaves[li].est_count) <= max_bytes as f64 || !leaves[li].splittable {
                    continue;
                }
                if split_leaf(&leaf_sample, &mut nodes, &mut leaves, li) {
                    queue.push(li);
                    queue.push(leaves.len() - 1);
                }
            }
        }
        leaf_shard_assignment(&mut nodes, &leaves);
    }

    leaf_shard_assignment(&mut nodes, &leaves);
    ShardPlan {
        dim,
        eps,
        nodes,
        regions: leaves.iter().map(|l| l.region.clone()).collect(),
        counts,
    }
}

/// Materialize shard `s` of `plan` — owned points plus ε-halo — with one
/// streaming pass over the chunks.
///
/// Own membership is the plan's strict descent; halo membership is the
/// open-ball region test `min_dist_sq(p) < ε²` against the shard's
/// region, which makes the halo *complete*: every point within ε of any
/// owned point is present.
pub fn gather_shard(src: &dyn DataSource, plan: &ShardPlan, s: usize) -> Shard {
    let dim = plan.dim();
    let eps_sq = plan.eps() * plan.eps();
    let region = plan.regions()[s].clone();
    let mut ids = Vec::with_capacity(plan.counts()[s]);
    let mut own = Vec::with_capacity(plan.counts()[s] * dim);
    let mut halo_ids = Vec::new();
    let mut halo = Vec::new();
    let mut buf = vec![0.0; dim];
    for c in 0..src.n_chunks() {
        let ch = src.chunk(c);
        for i in 0..ch.len {
            ch.write_point(i, &mut buf);
            let gid = ch.base + i as PointId;
            if plan.owner(&buf) == s {
                ids.push(gid);
                own.extend_from_slice(&buf);
            } else if region.min_dist_sq(&buf) < eps_sq {
                halo_ids.push(gid);
                halo.extend_from_slice(&buf);
            }
        }
    }
    Shard {
        ids,
        data: Dataset::from_flat(dim, own),
        halo_ids,
        halo: Dataset::from_flat(dim, halo),
        region,
    }
}

/// Materialize every shard of `plan` with one streaming pass over the
/// chunks: for finite coordinates, entry `s` equals
/// [`gather_shard`]`(src, plan, s)`. It holds
/// all shards at once, so it suits an in-memory source cut into many
/// shards; the out-of-core executor gathers one shard at a time instead.
pub fn gather_shards(src: &dyn DataSource, plan: &ShardPlan) -> Vec<Shard> {
    let dim = plan.dim();
    let mut shards: Vec<Shard> = plan
        .regions()
        .iter()
        .map(|region| Shard {
            ids: Vec::new(),
            data: Dataset::empty(dim),
            halo_ids: Vec::new(),
            halo: Dataset::empty(dim),
            region: region.clone(),
        })
        .collect();
    let mut buf = vec![0.0; dim];
    let mut stack = Vec::new();
    for c in 0..src.n_chunks() {
        let ch = src.chunk(c);
        for i in 0..ch.len {
            ch.write_point(i, &mut buf);
            let gid = ch.base + i as PointId;
            let owner = plan.owner(&buf);
            shards[owner].ids.push(gid);
            shards[owner].data.push(&buf);
            plan.for_each_halo(&buf, owner, &mut stack, |s| {
                shards[s].halo_ids.push(gid);
                shards[s].halo.push(&buf);
            });
        }
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::dist_euclidean;

    fn blob(n: usize, dim: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut s = 77u64;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(17);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for _ in 0..n {
            rows.push((0..dim).map(|_| 10.0 * r()).collect());
        }
        Dataset::from_rows(&rows)
    }

    #[test]
    fn plan_partitions_every_point_once() {
        let d = blob(2000, 3);
        let plan = plan_shards(&d, 0.5, &ShardingOptions { min_shards: 4, max_shard_bytes: None });
        assert!(plan.n_shards() >= 4);
        assert_eq!(plan.counts().iter().sum::<usize>(), 2000);
        let mut seen = vec![false; 2000];
        for s in 0..plan.n_shards() {
            let shard = gather_shard(&d, &plan, s);
            assert_eq!(shard.len(), plan.counts()[s]);
            for (i, &id) in shard.ids.iter().enumerate() {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
                assert_eq!(shard.data.point(i as u32), d.point(id));
                assert!(shard.region.contains_point(shard.data.point(i as u32)));
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn byte_bound_limits_shard_sizes() {
        let d = blob(4000, 2);
        let bound = 500 * 2 * 8; // ≤ 500 points per shard
        let plan =
            plan_shards(&d, 0.5, &ShardingOptions { min_shards: 1, max_shard_bytes: Some(bound) });
        assert!(plan.n_shards() >= 8);
        assert!(
            plan.max_shard_bytes() <= bound,
            "max shard bytes {} > bound {bound}",
            plan.max_shard_bytes()
        );
    }

    #[test]
    fn halos_are_complete() {
        let d = blob(600, 2);
        let eps = 1.0;
        let plan = plan_shards(&d, eps, &ShardingOptions { min_shards: 4, max_shard_bytes: None });
        let shards: Vec<Shard> = (0..plan.n_shards()).map(|s| gather_shard(&d, &plan, s)).collect();
        for s in &shards {
            let halo_set: std::collections::HashSet<u32> = s.halo_ids.iter().copied().collect();
            let own_set: std::collections::HashSet<u32> = s.ids.iter().copied().collect();
            for qid in 0..d.len() as u32 {
                if own_set.contains(&qid) {
                    continue;
                }
                let q = d.point(qid);
                let needed = (0..s.len()).any(|i| dist_euclidean(s.data.point(i as u32), q) < eps);
                if needed {
                    assert!(halo_set.contains(&qid), "missing halo point {qid}");
                }
            }
            // Soundness: halo points are near the region and not owned.
            for (i, hid) in s.halo_ids.iter().enumerate() {
                assert!(!own_set.contains(hid));
                assert!(s.region.min_dist_sq(s.halo.point(i as u32)) < eps * eps);
            }
        }
    }

    #[test]
    fn one_pass_gather_equals_per_shard_gather() {
        let d = blob(1500, 3);
        let eps = 0.9;
        for opts in [
            ShardingOptions { min_shards: 1, max_shard_bytes: None },
            ShardingOptions { min_shards: 7, max_shard_bytes: None },
            ShardingOptions { min_shards: 32, max_shard_bytes: None },
            ShardingOptions { min_shards: 2, max_shard_bytes: Some(90 * 3 * 8) },
        ] {
            let plan = plan_shards(&d, eps, &opts);
            let all = gather_shards(&d, &plan);
            assert_eq!(all.len(), plan.n_shards());
            for (s, got) in all.iter().enumerate() {
                let want = gather_shard(&d, &plan, s);
                assert_eq!(got.ids, want.ids, "shard {s}");
                assert_eq!(got.halo_ids, want.halo_ids, "shard {s}");
                assert_eq!(got.data.coords(), want.data.coords(), "shard {s}");
                assert_eq!(got.halo.coords(), want.halo.coords(), "shard {s}");
                assert_eq!(got.region, want.region, "shard {s}");
            }
        }
    }

    #[test]
    fn identical_points_terminate() {
        let d = Dataset::from_rows(&vec![vec![3.0, 3.0]; 256]);
        let plan =
            plan_shards(&d, 0.5, &ShardingOptions { min_shards: 4, max_shard_bytes: Some(64) });
        // Unsplittable: everything lands in one shard, but nothing is lost.
        assert_eq!(plan.counts().iter().sum::<usize>(), 256);
    }

    #[test]
    fn empty_source_gives_one_empty_shard() {
        let d = Dataset::empty(3);
        let plan = plan_shards(&d, 0.5, &ShardingOptions::default());
        assert_eq!(plan.n_shards(), 1);
        assert_eq!(plan.counts(), &[0]);
        let s = gather_shard(&d, &plan, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let d = blob(1500, 3);
        let opts = ShardingOptions { min_shards: 3, max_shard_bytes: Some(300 * 3 * 8) };
        let a = plan_shards(&d, 0.7, &opts);
        let b = plan_shards(&d, 0.7, &opts);
        assert_eq!(a.n_shards(), b.n_shards());
        assert_eq!(a.counts(), b.counts());
        for (ra, rb) in a.regions().iter().zip(b.regions()) {
            assert_eq!(ra, rb);
        }
    }
}
