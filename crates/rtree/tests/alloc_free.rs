//! Allocation regression test for the R-tree hot paths.
//!
//! A counting global allocator tallies the heap allocations (including
//! reallocations) made on the calling thread. After a warm-up that sizes
//! the per-thread traversal scratch, ε-queries must not allocate at
//! all, and an insertion may allocate only for the nodes a
//! split creates (at most one allocation per insert, amortized). An STR
//! bulk load of points allocates per leaf, not per point. The μR-tree's
//! restricted neighbourhood query may allocate only to grow its output
//! vector.
//!
//! Run with `-- --nocapture` to print the measured allocations per op.

use geom::Dataset;
use metrics::Counters;
use rtree::{RTree, RTreeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the `GlobalAlloc` contract `System` does;
// the counter bump neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's other guarantees are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `n` seeded 3-d points in a few Gaussian-ish blobs (sum of uniforms).
fn points(n: usize) -> Vec<[f64; 3]> {
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut unit = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let c = (i % 7) as f64 * 10.0;
            let mut jitter = || (unit() + unit() + unit() - 1.5) * 3.0;
            [c + jitter(), c * 0.5 + jitter(), jitter()]
        })
        .collect()
}

const N: usize = 10_000;
const WARM: usize = 2_000;

fn built_tree(pts: &[[f64; 3]]) -> RTree {
    let mut t = RTree::new(3);
    for (i, p) in pts.iter().enumerate() {
        t.insert_point(i as u32, p);
    }
    t
}

#[test]
fn insert_allocates_only_for_split_nodes() {
    let pts = points(N);
    let mut t = RTree::new(3);
    for (i, p) in pts[..WARM].iter().enumerate() {
        t.insert_point(i as u32, p);
    }
    let (allocs, ()) = allocs_in(|| {
        for (i, p) in pts.iter().enumerate().skip(WARM) {
            t.insert_point(i as u32, p);
        }
    });
    let per_op = allocs as f64 / (N - WARM) as f64;
    println!("insert_point: {per_op:.3} allocations per op");
    assert!(per_op <= 1.0, "insert_point made {per_op:.3} allocations per op");
    t.check_invariants();
}

#[test]
fn bulk_load_allocates_per_leaf_not_per_point() {
    let pts = points(N);
    let cfg = RTreeConfig::default();
    let (allocs, t) = allocs_in(|| {
        RTree::bulk_load_points(3, cfg, pts.iter().enumerate().map(|(i, p)| (i as u32, p)))
    });
    let leaves = N.div_ceil(cfg.max_entries) as u64;
    println!(
        "bulk_load_points: {allocs} allocations for {N} points in {leaves} leaves \
         ({:.2} per leaf)",
        allocs as f64 / leaves as f64
    );
    assert_eq!(t.len(), N);
    t.check_invariants();
    assert!(allocs <= 8 * leaves, "bulk_load_points made {allocs} allocations for {leaves} leaves");
}

#[test]
fn sphere_queries_do_not_allocate() {
    let pts = points(N);
    let t = built_tree(&pts);
    // Warm-up: size this thread's traversal scratch.
    for p in &pts[..WARM] {
        t.search_sphere(p, 4.0, |_| {});
        t.first_in_sphere(p, 4.0);
    }
    let mut hits = 0u64;
    let (search, _) = allocs_in(|| {
        for p in &pts {
            t.search_sphere(p, 4.0, |_| hits += 1);
        }
    });
    let (first, _) = allocs_in(|| {
        for p in &pts {
            hits += u64::from(t.first_in_sphere(p, 2.0).0.is_some());
        }
    });
    println!(
        "search_sphere: {:.3}, first_in_sphere: {:.3} allocations per op ({hits} hits)",
        search as f64 / N as f64,
        first as f64 / N as f64
    );
    assert_eq!(search, 0, "search_sphere allocated");
    assert_eq!(first, 0, "first_in_sphere allocated");
}

#[test]
fn a_query_from_inside_a_visitor_still_works() {
    // The traversal scratch is taken and put back, so a visitor that runs
    // another query on the same thread gets correct results.
    let pts = points(2_000);
    let t = built_tree(&pts);
    let q = pts[17];
    let mut nested = Vec::new();
    t.search_sphere(&q, 3.0, |i| nested.push(t.sphere_neighbors(&pts[i as usize], 1.0).len()));
    let flat: Vec<usize> = t
        .sphere_neighbors(&q, 3.0)
        .into_iter()
        .map(|i| t.sphere_neighbors(&pts[i as usize], 1.0).len())
        .collect();
    assert_eq!(nested, flat);
}

#[test]
fn murtree_neighborhood_allocates_only_for_its_output() {
    let rows: Vec<Vec<f64>> = points(N).iter().map(|p| p.to_vec()).collect();
    let data = Dataset::from_rows(&rows);
    let counters = Counters::new();
    let mut mu = mcs::build_micro_clusters(&data, 1.0, &mcs::BuildOptions::default(), &counters);
    mu.compute_reachable(&data, &counters);
    let mut out = Vec::with_capacity(data.len());
    for p in 0..WARM as u32 {
        out.clear();
        mu.neighborhood(&data, p, &mut out);
    }
    let mut total = 0usize;
    let (allocs, _) = allocs_in(|| {
        for p in 0..data.len() as u32 {
            out.clear();
            mu.neighborhood(&data, p, &mut out);
            total += out.len();
        }
    });
    println!(
        "MuRTree::neighborhood: {:.3} allocations per op ({total} neighbours)",
        allocs as f64 / data.len() as f64
    );
    assert_eq!(allocs, 0, "neighborhood allocated beyond its pre-sized output");
}
