//! Tree-shape pin: insert-built (quadratic split) and STR bulk-loaded
//! trees must keep exactly the node structure, item order and query work
//! recorded in the golden digests below.
//!
//! Each digest folds, for one seeded point set, the tree's `len`,
//! `height`, `node_count` and `for_each_point` order (item ids and
//! coordinate bits), then the visit order and summed [`QueryCost`] of a
//! fixed query set — `search_sphere`, `first_in_sphere` and `knn`. Any
//! change to ChooseLeaf, the quadratic split, STR packing or a traversal
//! moves a digest. A deliberate change to tree construction must
//! re-record the constants and say why.

use rtree::{QueryCost, RTree, RTreeConfig};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn cost(&mut self, c: QueryCost) {
        self.word(c.nodes_visited);
        self.word(c.mbr_tests);
        self.word(c.candidates);
        self.word(c.matches);
    }
}

/// splitmix64: a self-contained seeded stream, so the digests do not
/// depend on any external RNG's algorithm.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` points in `[0, 64)^dim`, clustered around a few centres. Half of
/// them are snapped to a 1/4 grid, so duplicate coordinates and equal
/// volumes/margins exercise every tie-break of the split heuristics.
fn points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut s = seed;
    let mut unit = move || (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
    let centres: Vec<Vec<f64>> =
        (0..6).map(|_| (0..dim).map(|_| 8.0 + unit() * 48.0).collect()).collect();
    (0..n)
        .map(|i| {
            let c = &centres[i % centres.len()];
            let spread = if i % 5 == 0 { 32.0 } else { 4.0 };
            let snap = i % 2 == 0;
            c.iter()
                .map(|&x| {
                    let v = (x + (unit() - 0.5) * spread).clamp(0.0, 63.75);
                    if snap {
                        (v * 4.0).floor() / 4.0
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

fn fold_tree(d: &mut Digest, t: &RTree, queries: &[Vec<f64>], r: f64) {
    d.word(t.len() as u64);
    d.word(t.height() as u64);
    d.word(t.node_count() as u64);
    t.for_each_point(|item, coords| {
        d.word(item as u64);
        for &x in coords {
            d.word(x.to_bits());
        }
    });

    let mut sphere = QueryCost::default();
    let mut first = QueryCost::default();
    for q in queries {
        sphere.add(t.search_sphere(q, r, |i| d.word(i as u64)));
        let (hit, cost) = t.first_in_sphere(q, r);
        d.word(hit.map_or(u64::MAX, u64::from));
        first.add(cost);
        for (item, dist) in t.knn(q, 4) {
            d.word(item as u64);
            d.word(dist.to_bits());
        }
    }
    d.cost(sphere);
    d.cost(first);
}

/// Digest of one tree over `n` seeded points, built by repeated
/// `insert_point` or by `bulk_load_points`.
fn digest(dim: usize, cfg: RTreeConfig, n: usize, seed: u64, bulk: bool) -> u64 {
    let pts = points(n, dim, seed);
    let queries: Vec<Vec<f64>> = pts.iter().step_by(13).cloned().collect();
    let r = 2.5;
    let t = if bulk {
        RTree::bulk_load_points(dim, cfg, pts.iter().enumerate().map(|(i, p)| (i as u32, p)))
    } else {
        let mut t = RTree::with_config(dim, cfg);
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(i as u32, p);
        }
        t
    };
    t.check_invariants();
    let mut d = Digest::new();
    fold_tree(&mut d, &t, &queries, r);
    d.0
}

#[test]
fn point_trees_keep_their_shape() {
    // (dim, max_entries, min_entries, bulk-loaded, golden digest)
    let golden: [(usize, usize, usize, bool, u64); 12] = [
        (2, 32, 12, false, 0xe4347346b1a493e2),
        (3, 32, 12, false, 0xc499b1451d0e762f),
        (5, 32, 12, false, 0x830ff67ff27839ca),
        (2, 8, 3, false, 0x8a5632b5d100aef0),
        (3, 8, 3, false, 0x197a390fd0a95919),
        (5, 8, 3, false, 0x5de2e5af8923c2af),
        (2, 32, 12, true, 0xd3a799bb07c84594),
        (3, 32, 12, true, 0xe2a5ec5b30442bef),
        (5, 32, 12, true, 0x8e88d45d92282e09),
        (2, 8, 3, true, 0xa49f72917c944fa6),
        (3, 8, 3, true, 0x3675904501db315d),
        (5, 8, 3, true, 0x7f8b888ccac6b443),
    ];
    let got: Vec<u64> = golden
        .iter()
        .map(|&(dim, max, min, bulk, _)| {
            digest(dim, RTreeConfig::new(max, min), 3000, 0x5eed + dim as u64, bulk)
        })
        .collect();
    for (g, &(dim, max, min, bulk, _)) in got.iter().zip(&golden) {
        println!("dim {dim} M {max} m {min} bulk {bulk}: {g:#018x}");
    }
    for (g, &(dim, max, min, bulk, want)) in got.iter().zip(&golden) {
        assert_eq!(*g, want, "tree shape changed for dim {dim}, M {max}, m {min}, bulk {bulk}");
    }
}
