//! The level-1 index over micro-cluster centers.
//!
//! μDBSCAN asks level 1 three questions (paper Algorithms 3 and 5):
//!
//! * which center lies strictly within ε of a point (the MC it joins),
//! * whether any center lies strictly within 2ε (the deferral rule),
//! * every center strictly within 3ε of a center (the reachable list of
//!   Lemma 3).
//!
//! At every dimension the answer comes from a [`CenterGrid`]: a hashed
//! grid of cell side 2ε on the first three coordinates. Each probe
//! visits only the cells the query ball's bounding box overlaps (about
//! 2^k, 3^k and 4^k cells on k = min(d, 3) keyed axes) and tests the
//! centers found there with the full-dimensional distance.

use crate::micro::McId;
use geom::dist_sq;
use rtree::QueryCost;

/// Marks the end of a cell's center chain and an empty cell.
const NONE: u32 = u32::MAX;

/// Cells per table slot along the first axis. A probe looks up one slot
/// per run of up to `RUN` neighbouring cells, so the ε, 2ε and 3ε probes
/// of a 3-d point cost about 5, 14 and 28 hash lookups instead of 8, 27
/// and 64.
const RUN: usize = 4;

/// A hashed grid of cell side 2ε over center points, ids `0..len` in
/// insertion order.
///
/// Cells are keyed on the first `min(dim, 3)` coordinates: cell
/// `(x, y, z)` is `floor(coord_k / 2ε)` per keyed axis, saturated to the
/// `i64` range, with unused axes 0. Each occupied cell holds the head of
/// a chain of center ids threaded through `next`, so a cell lists its
/// centers in ascending id order and inserting allocates nothing beyond
/// amortized growth. Centers lie at least ε apart, so at `dim ≤ 3` a
/// chain is short; above, centers that differ only past the third
/// coordinate share a cell.
///
/// A probe of radius `r` around `q` visits the cells between those of
/// `q_k − r` and `q_k + r` on every keyed axis and tests each center in
/// them with the full-dimensional distance. Projected distance never
/// exceeds full distance, and the cell index is monotone in the
/// coordinate, so every center that passes the strict `dist² < r²`
/// test lies in a visited cell, whatever the rounding or saturation. When
/// that range holds more cells than are occupied (saturated indices, a
/// radius far above the data's scale), the probe walks the occupied cells
/// instead.
#[derive(Debug, Clone)]
pub struct CenterGrid {
    dim: usize,
    side: f64,
    /// Center coordinates, `dim` per id.
    coords: Vec<f64>,
    /// Next id in the same cell, or [`NONE`].
    next: Vec<u32>,
    cells: CellTable,
}

impl CenterGrid {
    /// An empty grid of cell side `2 · eps` for `dim`-dimensional centers.
    pub fn new(dim: usize, eps: f64) -> Self {
        Self {
            dim,
            side: 2.0 * eps,
            coords: Vec::new(),
            next: Vec::new(),
            cells: CellTable { slots: vec![FREE; 16], used: 0, occupied: 0 },
        }
    }

    /// Number of indexed centers.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True when no center is indexed.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.occupied
    }

    /// Add the next center (id [`Self::len`]) at `coords`.
    pub fn insert(&mut self, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dim);
        let id = self.next.len() as u32;
        self.coords.extend_from_slice(coords);
        self.next.push(NONE);
        let mut cell = [0; 3];
        for (c, &x) in cell.iter_mut().zip(coords) {
            *c = self.cell_of(x);
        }
        let (run, at) = split(cell);
        let head = self.cells.entry(run, at);
        if *head == NONE {
            *head = id;
            self.cells.occupied += 1;
        } else {
            let mut tail = *head;
            while self.next[tail as usize] != NONE {
                tail = self.next[tail as usize];
            }
            self.next[tail as usize] = id;
        }
    }

    /// The minimum id strictly within `r` of `q`.
    pub fn min_within(&self, q: &[f64], r: f64) -> (Option<McId>, QueryCost) {
        let r_sq = r * r;
        let mut best = NONE;
        let mut tests = 0u64;
        let cells = self.visit_cells(q, r, |head| {
            // Chains ascend, so ids from `best` on cannot improve it.
            let mut id = head;
            while id < best {
                tests += 1;
                if dist_sq(self.center(id), q) < r_sq {
                    best = id;
                }
                id = self.next[id as usize];
            }
            false
        });
        ((best != NONE).then_some(best), cost(cells, tests))
    }

    /// Whether any center lies strictly within `r` of `q`; stops at the
    /// first one found.
    pub fn any_within(&self, q: &[f64], r: f64) -> (bool, QueryCost) {
        let r_sq = r * r;
        let mut tests = 0u64;
        let mut hit = false;
        let cells = self.visit_cells(q, r, |head| {
            let mut id = head;
            while id != NONE {
                tests += 1;
                if dist_sq(self.center(id), q) < r_sq {
                    hit = true;
                    return true;
                }
                id = self.next[id as usize];
            }
            false
        });
        (hit, cost(cells, tests))
    }

    /// Append every center strictly within `r` of `q` to `out`, ascending.
    pub fn all_within(&self, q: &[f64], r: f64, out: &mut Vec<McId>) -> QueryCost {
        let r_sq = r * r;
        let start = out.len();
        let mut tests = 0u64;
        let cells = self.visit_cells(q, r, |head| {
            let mut id = head;
            while id != NONE {
                tests += 1;
                if dist_sq(self.center(id), q) < r_sq {
                    out.push(id);
                }
                id = self.next[id as usize];
            }
            false
        });
        out[start..].sort_unstable();
        cost(cells, tests)
    }

    /// Estimated heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.coords.capacity() * std::mem::size_of::<f64>()
            + self.next.capacity() * std::mem::size_of::<u32>()
            + self.cells.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Coordinates of center `id`.
    pub fn center(&self, id: McId) -> &[f64] {
        let at = id as usize * self.dim;
        &self.coords[at..at + self.dim]
    }

    /// The cell index of coordinate `x`: monotone in `x`, saturating at
    /// the `i64` range.
    fn cell_of(&self, x: f64) -> i64 {
        (x / self.side).floor() as i64
    }

    /// Call `f` with the chain head of every occupied cell that the box
    /// `[q − r, q + r]`, projected on the keyed axes, overlaps, until `f`
    /// returns true. Returns the number of cells probed.
    fn visit_cells(&self, q: &[f64], r: f64, mut f: impl FnMut(u32) -> bool) -> u64 {
        let (mut lo, mut hi) = ([0i64; 3], [0i64; 3]);
        let mut span = 1u64;
        for k in 0..self.dim.min(3) {
            lo[k] = self.cell_of(q[k] - r);
            hi[k] = self.cell_of(q[k] + r);
            span = span.saturating_mul(hi[k].abs_diff(lo[k]).saturating_add(1));
        }
        let ((run_lo, at_lo), (run_hi, at_hi)) = (split(lo), split(hi));
        let in_range = |run: &RunKey, at: usize| {
            (run[0], at) >= (run_lo[0], at_lo)
                && (run[0], at) <= (run_hi[0], at_hi)
                && (1..3).all(|k| lo[k] <= run[k] && run[k] <= hi[k])
        };
        let mut probed = 0;
        if span > self.cells.occupied as u64 {
            for slot in self.cells.slots.iter().filter(|s| s.used()) {
                for (at, &head) in slot.heads.iter().enumerate().filter(|&(_, &h)| h != NONE) {
                    probed += 1;
                    if in_range(&slot.run, at) && f(head) {
                        return probed;
                    }
                }
            }
            return probed;
        }
        for y in lo[1]..=hi[1] {
            for z in lo[2]..=hi[2] {
                for x in run_lo[0]..=run_hi[0] {
                    let first = if x == run_lo[0] { at_lo } else { 0 };
                    let last = if x == run_hi[0] { at_hi } else { RUN - 1 };
                    probed += (last - first + 1) as u64;
                    let Some(slot) = self.cells.get(&[x, y, z]) else { continue };
                    for &head in &slot.heads[first..=last] {
                        if head != NONE && f(head) {
                            return probed;
                        }
                    }
                }
            }
        }
        probed
    }
}

fn cost(cells: u64, tests: u64) -> QueryCost {
    QueryCost { nodes_visited: cells, mbr_tests: tests, ..QueryCost::default() }
}

/// A run of [`RUN`] cells along the first axis: `[x div RUN, y, z]`.
type RunKey = [i64; 3];

/// The run holding `cell` and the cell's position in it.
fn split(cell: [i64; 3]) -> (RunKey, usize) {
    let r = RUN as i64;
    ([cell[0].div_euclid(r), cell[1], cell[2]], cell[0].rem_euclid(r) as usize)
}

/// One slot of a [`CellTable`]: a run of cells and each cell's chain
/// head, [`NONE`] when the cell is empty. A slot with no head is free.
#[derive(Debug, Clone, Copy)]
struct Slot {
    run: RunKey,
    heads: [u32; RUN],
}

impl Slot {
    fn used(&self) -> bool {
        self.heads != [NONE; RUN]
    }
}

const FREE: Slot = Slot { run: [0; 3], heads: [NONE; RUN] };

/// Open-addressing hash table from runs of cells to their chains: a
/// power-of-two slot array at most three quarters full, linear probing
/// (at half full it was no faster and held more memory), keys hashed
/// with a full 64-bit mixer so that every bit of every axis reaches the
/// slot index. It is 25–35% faster than `std`'s keyed `HashMap` on
/// shard-sized inputs (3-d galaxy, n = 3 000–6 000; EXPERIMENTS.md,
/// "Level-1 grid"), and its fixed mixer keeps every probe count the same
/// between runs. The price: coordinates crafted to collide slow the
/// probes down, though their answers stay exact.
#[derive(Debug, Clone)]
struct CellTable {
    slots: Vec<Slot>,
    /// Slots in use.
    used: usize,
    /// Occupied cells over all runs.
    occupied: usize,
}

impl CellTable {
    /// The slot holding `run`, or the free slot where it would go.
    fn find(&self, run: &RunKey) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash(run) as usize & mask;
        while self.slots[i].used() && self.slots[i].run != *run {
            i = (i + 1) & mask;
        }
        i
    }

    fn get(&self, run: &RunKey) -> Option<&Slot> {
        let slot = &self.slots[self.find(run)];
        slot.used().then_some(slot)
    }

    /// The chain head of cell `at` of `run`, claiming a slot for a new
    /// run. The caller sets the head of an empty cell.
    fn entry(&mut self, run: RunKey, at: usize) -> &mut u32 {
        if 4 * (self.used + 1) > 3 * self.slots.len() {
            let grown = vec![FREE; 2 * self.slots.len()];
            for s in std::mem::replace(&mut self.slots, grown).into_iter().filter(Slot::used) {
                let i = self.find(&s.run);
                self.slots[i] = s;
            }
        }
        let i = self.find(&run);
        if !self.slots[i].used() {
            self.slots[i].run = run;
            self.used += 1;
        }
        &mut self.slots[i].heads[at]
    }
}

/// splitmix64's finalizer over the axes, each spread by an odd multiplier.
fn hash(run: &RunKey) -> u64 {
    let [x, y, z] = run.map(|k| k as u64);
    let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ y.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ z.wrapping_mul(0x1656_67b1_9e37_79f9);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}
