//! A\* maze routing on the gcell grid.
//!
//! Used by the negotiation loop to reroute ripped-up segments around
//! congestion. Three things make this engine fast enough to sit in the
//! placer's inner loop:
//!
//! * **Reusable scratch** ([`MazeScratch`]): the per-cell `best_g` /
//!   `parent` arrays are epoch-stamped, so starting a new search is O(1) —
//!   no allocation, no O(grid) clearing. One scratch serves every segment
//!   a worker routes.
//! * **Frozen costs** ([`EdgeCosts`]): edge costs are snapshotted once per
//!   negotiation round, so a heap relaxation is a single array load.
//! * **One tree per source** ([`search_from`]): all of a round's requests
//!   from one cell are answered by one Dijkstra tree, certified path by
//!   path to equal the A\* path, with the A\* as the fallback.
//!
//! **Canonical paths.** Among equal-cost shortest paths the A\* returns a
//! *canonical* one: cells keep relaxing until every queue entry is
//! provably worse than the target's distance, and on exact cost ties the
//! lowest-index parent among the cells it expanded wins. The path is a
//! pure function of the cost field and the two endpoints — independent of
//! scratch history and of the thread count — but not of the search
//! algorithm: which cells the A\* expands depends on its `f = g + h`
//! order and its `f > target_g` stop. A Dijkstra tree with the same tie
//! rule sees every optimal predecessor and can return another equal-cost
//! path where a rounded `f` lands an ulp above the target's label (up to
//! 10 paths per round on B1). [`search_from`] therefore keeps a tree path
//! only where a certificate proves the A\* returns it too.
//!
//! **No search window.** The search always spans the whole grid. The
//! Manhattan heuristic (scaled by [`EdgeCosts::min_cost`]) already keeps
//! it away from cells that cannot beat the target: a cell `k` gcells
//! outside the segment's bounding box has `f ≥ min_cost·(manhattan + 2k)`,
//! so it is only popped when the best path costs at least that much.
//! Bounding the search to `bbox + margin` therefore pops no fewer cells
//! whenever the bounded answer is provably the unbounded one, and on
//! congested grids, where that proof often fails, it wastes the bounded
//! searches that precede the full one.

use crate::grid::{EdgeId, GCell, RouteGrid};
use crate::pattern::EdgeCosts;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct HeapEntry {
    f: f64,
    g: f64,
    cell: GCell,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f; ties break on g (deeper-in-the-search first), then
        // on cell, so pop order is fully deterministic. `f` and `g` are
        // compared by bit pattern: `EdgeCosts` guarantees finite costs
        // > 0, so every `f` and `g` is a finite value ≥ +0, where the
        // unsigned bit order *is* the `f64::total_cmp` order. It is a
        // total order on any bits, so even a NaN that slipped through
        // would never collapse to `Equal` with a number.
        other
            .f
            .to_bits()
            .cmp(&self.f.to_bits())
            .then_with(|| self.g.to_bits().cmp(&other.g.to_bits()))
            .then_with(|| other.cell.cmp(&self.cell))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Sentinel parent index meaning "no parent recorded".
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug)]
struct HeapEntry3 {
    f: f64,
    g: f64,
    /// Flat 3-D state index `(layer·ny + y)·nx + x`.
    idx: u32,
}

impl PartialEq for HeapEntry3 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry3 {}

impl Ord for HeapEntry3 {
    fn cmp(&self, other: &Self) -> Ordering {
        // Same discipline as [`HeapEntry`]: min-f, then deeper g, then the
        // smaller state index, with `f` and `g` compared by bit pattern.
        other
            .f
            .to_bits()
            .cmp(&self.f.to_bits())
            .then_with(|| self.g.to_bits().cmp(&other.g.to_bits()))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for HeapEntry3 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable search working memory: epoch-stamped per-state labels plus the
/// open-list heaps (one for 2-D searches, one for 3-D searches and the
/// per-source trees).
///
/// `begin` bumps the epoch instead of clearing, so repeated searches on
/// the same grid cost no allocation and no O(grid) memset. A worker thread
/// holds one scratch for all the segments it reroutes (see
/// [`rdp_geom::parallel::chunked_map_with`]); 2-D and 3-D searches can
/// share it freely.
#[derive(Debug, Default)]
pub struct MazeScratch {
    best_g: Vec<f64>,
    parent: Vec<u32>,
    stamp: Vec<u32>,
    /// A state is an unsettled target of the current [`search_from`] tree
    /// iff its entry equals the epoch.
    goal: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    heap3: BinaryHeap<HeapEntry3>,
}

impl MazeScratch {
    /// Creates an empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        MazeScratch::default()
    }

    /// Prepares for a fresh search over `cells` gcells: grows the arrays
    /// if needed and invalidates all previous labels by bumping the epoch.
    fn begin(&mut self, cells: usize) {
        if self.stamp.len() < cells {
            self.best_g.resize(cells, f64::INFINITY);
            self.parent.resize(cells, NO_PARENT);
            // New entries get stamp 0, which is always stale (the epoch
            // is ≥ 1 after the increment below). The epoch itself must
            // NOT reset here: existing entries still carry old stamps,
            // and restarting from 1 would make them look current.
            self.stamp.resize(cells, 0);
            self.goal.resize(cells, 0);
        }
        self.heap.clear();
        self.heap3.clear();
        if self.epoch == u32::MAX {
            // Epoch wraparound: hard-reset the stamps once every 2³² uses.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.goal.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Best-known g of cell index `i` this epoch.
    #[inline]
    fn g(&self, i: usize) -> f64 {
        if self.stamp[i] == self.epoch {
            self.best_g[i]
        } else {
            f64::INFINITY
        }
    }

    /// Parent cell index of `i` this epoch (`NO_PARENT` if none).
    #[inline]
    fn parent_of(&self, i: usize) -> u32 {
        if self.stamp[i] == self.epoch {
            self.parent[i]
        } else {
            NO_PARENT
        }
    }

    #[inline]
    fn set(&mut self, i: usize, g: f64, parent: u32) {
        self.best_g[i] = g;
        self.parent[i] = parent;
        self.stamp[i] = self.epoch;
    }
}

/// Finds the cheapest path from `from` to `to` under the frozen `costs`
/// by canonical A\* over the whole grid, reusing `scratch`. Returns the
/// path's edges in order; empty when `from == to`.
///
/// The search always succeeds on a connected grid (every grid is), though
/// the path may cross overflowed edges when no free route exists — the
/// negotiation history then pushes later iterations elsewhere.
pub fn search(
    grid: &RouteGrid,
    costs: &EdgeCosts,
    from: GCell,
    to: GCell,
    scratch: &mut MazeScratch,
) -> Vec<EdgeId> {
    if from == to {
        return Vec::new();
    }
    scratch.begin(grid.num_gcells());
    let (x_max, y_max) = (grid.nx() - 1, grid.ny() - 1);
    let h = |c: GCell| heuristic(costs, to, 0, c.x, c.y);
    let from_i = grid.cell_index(from);
    let to_i = grid.cell_index(to);
    scratch.set(from_i, 0.0, NO_PARENT);
    scratch.heap.push(HeapEntry { f: h(from), g: 0.0, cell: from });

    let mut target_g = f64::INFINITY;
    while let Some(HeapEntry { f, g, cell }) = scratch.heap.pop() {
        // Everything still queued has f ≥ this f: once that provably
        // exceeds the target's distance, no label on any optimal path can
        // change anymore. (Entries with f == target_g are still processed
        // — they are what makes tie-breaking canonical.)
        if f > target_g {
            break;
        }
        let ci = grid.cell_index(cell);
        if g > scratch.g(ci) {
            continue; // stale entry
        }
        if cell == to {
            target_g = g;
            // Outgoing relaxations from the target cannot lie on a path
            // *to* the target (all costs are > 0): skip them.
            continue;
        }
        // Once the target holds a label, its entry with `f` = that label
        // is queued (h is 0 there) and pops before any entry with a larger
        // `f`; from then on `target_g` ≤ the label stops the loop at such
        // an entry. So a relaxation above the bound records its label but
        // queues nothing — the pop order and the result are unchanged.
        // (A stale bound is larger, hence still safe.)
        let bound = scratch.g(to_i);
        let relax = |n: GCell, e: EdgeId, scratch: &mut MazeScratch| {
            let ni = grid.cell_index(n);
            let ng = g + costs.cost(e);
            let cur = scratch.g(ni);
            if ng < cur {
                scratch.set(ni, ng, ci as u32);
                let nf = ng + h(n);
                if nf <= bound {
                    scratch.heap.push(HeapEntry { f: nf, g: ng, cell: n });
                }
            } else if ng == cur && (ci as u32) < scratch.parent_of(ni) {
                // Exact cost tie: the lowest-index parent wins, so a
                // label's parent does not depend on the order in which
                // the expanded cells relax it (which cells get expanded
                // does depend on the pop order: see the module docs).
                scratch.set(ni, ng, ci as u32);
            }
        };
        if cell.x > 0 {
            relax(GCell::new(cell.x - 1, cell.y), grid.h_edge(cell.x - 1, cell.y), scratch);
        }
        if cell.x < x_max {
            relax(GCell::new(cell.x + 1, cell.y), grid.h_edge(cell.x, cell.y), scratch);
        }
        if cell.y > 0 {
            relax(GCell::new(cell.x, cell.y - 1), grid.v_edge(cell.x, cell.y - 1), scratch);
        }
        if cell.y < y_max {
            relax(GCell::new(cell.x, cell.y + 1), grid.v_edge(cell.x, cell.y), scratch);
        }
    }
    reconstruct(grid, from, to, scratch)
}

/// Layered counterpart of [`search`]: cheapest path between two layer-0
/// endpoints by canonical A\* over the whole 3-D grid (planar edges on
/// their layers, via edges between). States are `(layer, x, y)` with flat
/// index `(layer·ny + y)·nx + x`; both endpoints sit at layer 0, where
/// pins land. Returns the path's edges (planar and via) in order; empty
/// when `from == to`.
pub fn search3(
    grid: &RouteGrid,
    costs: &EdgeCosts,
    from: GCell,
    to: GCell,
    scratch: &mut MazeScratch,
) -> Vec<EdgeId> {
    if from == to {
        return Vec::new();
    }
    debug_assert!(grid.has_vias(), "search3 needs via edges to change layers");
    let (nx, ny) = (grid.nx(), grid.ny());
    let nl = grid.num_layers() as u32;
    let n_via = grid.num_via_levels() as u32;
    scratch.begin((nl * nx * ny) as usize);
    let h = |l: u32, x: u32, y: u32| heuristic(costs, to, l, x, y);
    let idx = |l: u32, x: u32, y: u32| ((l * ny + y) * nx + x) as usize;
    let from_i = idx(0, from.x, from.y);
    let to_i = idx(0, to.x, to.y);
    scratch.set(from_i, 0.0, NO_PARENT);
    scratch.heap3.push(HeapEntry3 { f: h(0, from.x, from.y), g: 0.0, idx: from_i as u32 });

    let mut target_g = f64::INFINITY;
    while let Some(HeapEntry3 { f, g, idx: ci }) = scratch.heap3.pop() {
        if f > target_g {
            break;
        }
        let ci = ci as usize;
        if g > scratch.g(ci) {
            continue; // stale entry
        }
        if ci == to_i {
            target_g = g;
            continue;
        }
        let (l, rem) = (ci as u32 / (nx * ny), ci as u32 % (nx * ny));
        let (y, x) = (rem / nx, rem % nx);
        // Entries above the target's current label are never queued (see
        // [`search`]).
        let bound = scratch.g(to_i);
        let relax = |ni: usize, e: EdgeId, nh: f64, scratch: &mut MazeScratch| {
            let ng = g + costs.cost(e);
            let cur = scratch.g(ni);
            if ng < cur {
                scratch.set(ni, ng, ci as u32);
                let nf = ng + nh;
                if nf <= bound {
                    scratch.heap3.push(HeapEntry3 { f: nf, g: ng, idx: ni as u32 });
                }
            } else if ng == cur && (ci as u32) < scratch.parent_of(ni) {
                scratch.set(ni, ng, ci as u32);
            }
        };
        match grid.layer_dir(l as usize) {
            crate::grid::LayerDir::Horizontal => {
                if x > 0 {
                    relax(idx(l, x - 1, y), grid.h_edge_on(l as usize, x - 1, y), h(l, x - 1, y), scratch);
                }
                if x + 1 < nx {
                    relax(idx(l, x + 1, y), grid.h_edge_on(l as usize, x, y), h(l, x + 1, y), scratch);
                }
            }
            crate::grid::LayerDir::Vertical => {
                if y > 0 {
                    relax(idx(l, x, y - 1), grid.v_edge_on(l as usize, x, y - 1), h(l, x, y - 1), scratch);
                }
                if y + 1 < ny {
                    relax(idx(l, x, y + 1), grid.v_edge_on(l as usize, x, y), h(l, x, y + 1), scratch);
                }
            }
        }
        if l > 0 {
            relax(idx(l - 1, x, y), grid.via_edge(x, y, (l - 1) as usize), h(l - 1, x, y), scratch);
        }
        if l < n_via {
            relax(idx(l + 1, x, y), grid.via_edge(x, y, l as usize), h(l + 1, x, y), scratch);
        }
    }
    reconstruct(grid, from, to, scratch)
}

/// The A\* heuristic for target `to` at state `(l, x, y)`, shared by
/// [`search`] (always `l = 0`), [`search3`] and the certificate of
/// [`search_from`], which must evaluate exactly the A\*'s expression.
/// Admissible and consistent: every remaining path needs at least the
/// Manhattan distance in planar edges (each ≥ `min_cost`) plus `l` via
/// edges to get back down to layer 0 (each ≥ `min_via_cost`, which is 0
/// on a planar grid, so there the second term adds `+0.0`).
#[inline]
fn heuristic(costs: &EdgeCosts, to: GCell, l: u32, x: u32, y: u32) -> f64 {
    f64::from(x.abs_diff(to.x) + y.abs_diff(to.y)) * costs.min_cost()
        + f64::from(l) * costs.min_via_cost()
}

/// Parent of state `s` on the chain from `to` back to `from`.
///
/// # Panics
///
/// If `s` has no parent: the search never reached `to`. Every grid is
/// connected, so that is a bug, and an empty path in its place would
/// quietly leave the segment without usage.
#[inline]
fn chain_parent(scratch: &MazeScratch, s: u32, from: GCell, to: GCell) -> u32 {
    let p = scratch.parent_of(s as usize);
    assert_ne!(p, NO_PARENT, "maze search from {from:?} never reached {to:?}");
    p
}

/// Walks the parent chain from state `(0, to)` back to `(0, from)`,
/// returning the path's edges (planar and via) in forward order. States
/// are flat indices `(layer·ny + y)·nx + x`; layer 0 is
/// [`RouteGrid::cell_index`], so planar searches share the walk.
fn reconstruct(grid: &RouteGrid, from: GCell, to: GCell, scratch: &MazeScratch) -> Vec<EdgeId> {
    let from_i = grid.cell_index(from) as u32;
    let mut cur = grid.cell_index(to) as u32;
    let mut edges = Vec::new();
    while cur != from_i {
        let p = chain_parent(scratch, cur, from, to);
        edges.push(state_edge(grid, p, cur));
        cur = p;
    }
    edges.reverse();
    edges
}

/// The edge joining the adjacent states `a` and `b`.
fn state_edge(grid: &RouteGrid, a: u32, b: u32) -> EdgeId {
    let plane = grid.num_gcells() as u32;
    let (la, lb) = (a / plane, b / plane);
    let (ca, cb) = (grid.cell_at((a % plane) as usize), grid.cell_at((b % plane) as usize));
    if la != lb {
        grid.via_edge(ca.x, ca.y, la.min(lb) as usize)
    } else if !grid.has_vias() {
        grid.edge_between(ca, cb).expect("path states are adjacent")
    } else if ca.y == cb.y {
        grid.h_edge_on(la as usize, ca.x.min(cb.x), ca.y)
    } else {
        grid.v_edge_on(la as usize, ca.x, ca.y.min(cb.y))
    }
}

/// Calls `f(neighbour, edge)` for each neighbour of state `s`: all four
/// planar neighbours on a grid without vias; on a layered grid the two
/// along `s`'s layer direction plus the via neighbours above and below.
#[inline]
fn for_each_neighbour(grid: &RouteGrid, s: u32, mut f: impl FnMut(u32, EdgeId)) {
    let (nx, ny) = (grid.nx(), grid.ny());
    let plane = nx * ny;
    let (l, rem) = (s / plane, s % plane);
    let (x, y) = (rem % nx, rem / nx);
    let (along_x, along_y) = if grid.has_vias() {
        let h = grid.layer_dir(l as usize) == crate::grid::LayerDir::Horizontal;
        (h, !h)
    } else {
        (true, true)
    };
    let on = l as usize;
    if along_x {
        let h_edge = |x| if grid.has_vias() { grid.h_edge_on(on, x, y) } else { grid.h_edge(x, y) };
        if x > 0 {
            f(s - 1, h_edge(x - 1));
        }
        if x + 1 < nx {
            f(s + 1, h_edge(x));
        }
    }
    if along_y {
        let v_edge = |y| if grid.has_vias() { grid.v_edge_on(on, x, y) } else { grid.v_edge(x, y) };
        if y > 0 {
            f(s - nx, v_edge(y - 1));
        }
        if y + 1 < ny {
            f(s + nx, v_edge(y));
        }
    }
    if l > 0 {
        f(s - plane, grid.via_edge(x, y, on - 1));
    }
    if on < grid.num_via_levels() {
        f(s + plane, grid.via_edge(x, y, on));
    }
}

/// Answers all requests from one source: for each of `targets`, the path
/// from `from` that [`search`] (planar grid) or [`search3`] (layered
/// grid) returns for that pair, bitwise. Returns one path per target, in
/// order; duplicate targets and `from` itself (an empty path) are allowed.
///
/// One canonical Dijkstra tree from `from` (key `(g, state)`, the same
/// lowest-parent-index tie rule as the A\*) grows until every target is
/// settled. Each target's tree path is then kept only under an
/// **A\*-equivalence certificate**, and the A\* answers the targets where
/// it fails. The private `grow_tree` documents why the certificate is
/// needed and what it proves.
pub fn search_from(
    grid: &RouteGrid,
    costs: &EdgeCosts,
    from: GCell,
    targets: &[GCell],
    scratch: &mut MazeScratch,
) -> Vec<Vec<EdgeId>> {
    if targets.is_empty() {
        return Vec::new();
    }
    grow_tree(grid, costs, from, targets, scratch);
    let mut paths: Vec<Vec<EdgeId>> = Vec::with_capacity(targets.len());
    let mut fallback: Vec<usize> = Vec::new();
    for (k, &to) in targets.iter().enumerate() {
        if certified(grid, costs, from, to, scratch) {
            paths.push(reconstruct(grid, from, to, scratch));
        } else {
            paths.push(Vec::new());
            fallback.push(k);
        }
    }
    // The A* reuses the scratch, so it runs only after every tree path
    // has been read out.
    for k in fallback {
        let to = targets[k];
        paths[k] = if grid.has_vias() {
            search3(grid, costs, from, to, scratch)
        } else {
            search(grid, costs, from, to, scratch)
        };
    }
    paths
}

/// Grows the canonical Dijkstra tree of [`search_from`] in `scratch`.
///
/// States pop in `(g, state)` order until the last target pops. Every
/// edge costs far more than the rounding unit of any label, so each
/// optimal predecessor of a state (one whose label plus the edge cost
/// rounds to the state's final label) has a strictly smaller label: it
/// pops and relaxes the state before the state pops. The tree's parent of
/// every settled state is therefore the lowest index over *all* its
/// optimal predecessors, a pure function of the costs, whatever the pop
/// order among equal labels.
///
/// The A\* path is also a pure function of the costs and the two
/// endpoints, but it is not the tree's: the A\* compares only the
/// optimal predecessors it expands before its `f > target_g` stop. Where
/// an equal-cost path's rounded `f = g + h` lands an ulp above `target_g`,
/// the A\* never expands that path's states, and the two searches break
/// the tie differently. The certificate ([`certified`]) closes that gap:
/// if every state `v` on the tree path to `t` has `g(v) + h_t(v) ≤ g(t)`,
/// computed as the A\* computes its `f`, then by induction from `from`
/// the A\* pushes and pops every path state at its final label before it
/// stops. The tree's parent of each path state is therefore among the
/// predecessors the A\* compares, and being the lowest of all of them,
/// it is the A\*'s choice too.
fn grow_tree(
    grid: &RouteGrid,
    costs: &EdgeCosts,
    from: GCell,
    targets: &[GCell],
    scratch: &mut MazeScratch,
) {
    let layers = if grid.has_vias() { grid.num_layers() } else { 1 };
    scratch.begin(grid.num_gcells() * layers);
    let epoch = scratch.epoch;
    let mut unsettled = 0usize;
    for &t in targets {
        let ti = grid.cell_index(t);
        if scratch.goal[ti] != epoch {
            scratch.goal[ti] = epoch;
            unsettled += 1;
        }
    }
    let from_i = grid.cell_index(from) as u32;
    scratch.set(from_i as usize, 0.0, NO_PARENT);
    scratch.heap3.push(HeapEntry3 { f: 0.0, g: 0.0, idx: from_i });
    while let Some(HeapEntry3 { g, idx: si, .. }) = scratch.heap3.pop() {
        if g > scratch.g(si as usize) {
            continue; // stale entry
        }
        if scratch.goal[si as usize] == epoch {
            scratch.goal[si as usize] = 0; // settled (the epoch is never 0)
            unsettled -= 1;
            if unsettled == 0 {
                break;
            }
        }
        for_each_neighbour(grid, si, |n, e| {
            let ng = g + costs.cost(e);
            let cur = scratch.g(n as usize);
            if ng < cur {
                scratch.set(n as usize, ng, si);
                // Keyed on `g` alone: `f` is `g` here, and the heap's
                // secondary `g` order then never decides anything.
                scratch.heap3.push(HeapEntry3 { f: ng, g: ng, idx: n });
            } else if ng == cur && si < scratch.parent_of(n as usize) {
                scratch.set(n as usize, ng, si);
            }
        });
    }
}

/// Whether the tree path to `to` in `scratch` passes the
/// A\*-equivalence certificate of [`grow_tree`]: every state `v` on it has
/// `g(v) + h_to(v) ≤ g(to)`, with `f` rounded exactly as the A\* rounds it.
/// (`to` itself passes trivially: its `h` is 0.)
fn certified(
    grid: &RouteGrid,
    costs: &EdgeCosts,
    from: GCell,
    to: GCell,
    scratch: &MazeScratch,
) -> bool {
    let plane = grid.num_gcells() as u32;
    let from_i = grid.cell_index(from) as u32;
    let mut cur = grid.cell_index(to) as u32;
    let target_g = scratch.g(cur as usize);
    while cur != from_i {
        cur = chain_parent(scratch, cur, from, to);
        let c = grid.cell_at((cur % plane) as usize);
        if scratch.g(cur as usize) + heuristic(costs, to, cur / plane, c.x, c.y) > target_g {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::CostParams;
    use rdp_geom::Point;

    fn grid() -> RouteGrid {
        RouteGrid::uniform(10, 10, Point::ORIGIN, 1.0, 1.0, 4.0, 4.0)
    }

    /// One 2-D query under the live grid costs with a fresh scratch.
    fn route(g: &RouteGrid, from: GCell, to: GCell, params: CostParams) -> Vec<EdgeId> {
        search(g, &EdgeCosts::build(g, params), from, to, &mut MazeScratch::new())
    }

    /// One layered query under the live grid costs with a fresh scratch.
    fn route3(g: &RouteGrid, from: GCell, to: GCell, params: CostParams) -> Vec<EdgeId> {
        search3(g, &EdgeCosts::build(g, params), from, to, &mut MazeScratch::new())
    }

    #[test]
    fn shortest_path_on_empty_grid() {
        let g = grid();
        let path = route(&g, GCell::new(0, 0), GCell::new(4, 3), CostParams::default());
        assert_eq!(path.len(), 7, "empty grid gives Manhattan-length path");
    }

    #[test]
    fn same_cell_is_empty() {
        let g = grid();
        assert!(route(&g, GCell::new(5, 5), GCell::new(5, 5), CostParams::default()).is_empty());
    }

    #[test]
    fn detours_around_congestion_wall() {
        let mut g = grid();
        // Build a congested vertical wall at x=4..5 except the top row.
        for y in 0..9 {
            g.add_usage(g.h_edge(4, y), 100.0);
        }
        let path = route(&g, GCell::new(0, 0), GCell::new(9, 0), CostParams::default());
        // Must detour: longer than Manhattan distance.
        assert!(path.len() > 9, "path length {} should detour", path.len());
        // Uses the uncongested top corridor: contains the h-edge at y=9.
        assert!(path.contains(&g.h_edge(4, 9)));
    }

    #[test]
    fn path_is_connected() {
        let mut g = grid();
        for y in 2..8 {
            for x in 2..8 {
                g.add_usage(g.h_edge(x, y), f64::from(x * y) * 0.7);
                g.add_usage(g.v_edge(x, y), f64::from(x + y) * 1.3);
            }
        }
        let from = GCell::new(1, 1);
        let to = GCell::new(8, 8);
        let path = route(&g, from, to, CostParams::default());
        // Walk the path: each edge must connect the running endpoint.
        let mut cur = from;
        for &e in &path {
            // Find the neighbor the edge leads to.
            let neighbors = [
                (cur.x > 0).then(|| GCell::new(cur.x - 1, cur.y)),
                (cur.x + 1 < g.nx()).then(|| GCell::new(cur.x + 1, cur.y)),
                (cur.y > 0).then(|| GCell::new(cur.x, cur.y - 1)),
                (cur.y + 1 < g.ny()).then(|| GCell::new(cur.x, cur.y + 1)),
            ];
            let next = neighbors
                .into_iter()
                .flatten()
                .find(|&n| g.edge_between(cur, n) == Some(e))
                .expect("edge continues the path");
            cur = next;
        }
        assert_eq!(cur, to, "path must end at the target");
    }

    #[test]
    fn respects_history_costs() {
        let mut g = grid();
        // Two equal corridors; poison one with history.
        for x in 0..9 {
            g.add_history(g.h_edge(x, 0), 10.0);
        }
        let path = route(&g, GCell::new(0, 0), GCell::new(9, 0), CostParams::default());
        let bottom_edges = path.iter().filter(|&&e| e == g.h_edge(4, 0)).count();
        assert_eq!(bottom_edges, 0, "history-poisoned corridor avoided");
    }

    #[test]
    fn scratch_reuse_gives_identical_paths() {
        let mut g = grid();
        for y in 0..9 {
            g.add_usage(g.v_edge(y % 7, y), f64::from(y) * 1.7);
            g.add_usage(g.h_edge(y, (y * 3) % 10), 5.0);
        }
        let costs = EdgeCosts::build(&g, CostParams::default());
        let mut scratch = MazeScratch::new();
        let pairs = [
            (GCell::new(0, 0), GCell::new(9, 9)),
            (GCell::new(3, 7), GCell::new(8, 1)),
            (GCell::new(5, 5), GCell::new(0, 9)),
        ];
        // Reused scratch vs a fresh scratch per query: identical paths.
        for &(a, b) in &pairs {
            let reused = search(&g, &costs, a, b, &mut scratch);
            let fresh = search(&g, &costs, a, b, &mut MazeScratch::new());
            assert_eq!(reused, fresh, "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn uncertified_tie_falls_back_to_the_astar_path() {
        // 3×3 grid, capacity 3: an edge with usage u costs 1 + (u + 1)/3,
        // so 4/3 at usage 0 and 2 at usage 2. From (0,0) to (2,2), the
        // equal-cost paths via (1,0) and via (0,1) both continue
        // (1,1) → (1,2) → (2,2) over usage-0 edges and cost 2 + 3·(4/3):
        // summed edge by edge that is 6 − 1 ulp, the target's label. The
        // first step's f, 2 + h = 2 + 3·(4/3), rounds to 6 exactly, above
        // the label. The A* pops (0,1) (equal f and g, smaller cell)
        // before the target holds a label, reaches the target through it
        // and stops before popping (1,0). The tree sees both parents of
        // (1,1) and takes the lower index, (1,0): an equal-cost path the
        // A* does not return, which the certificate rejects.
        let mut g = RouteGrid::uniform(3, 3, Point::ORIGIN, 1.0, 1.0, 3.0, 3.0);
        // Horizontal edges 0..6 (`h_edge(x, y)` = 2y + x), then vertical
        // edges 6..12 (`v_edge(x, y)` = 6 + 3y + x).
        let usage = [2.0, 1.0, 0.0, 2.0, 0.0, 0.0, 2.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        for (e, &u) in usage.iter().enumerate() {
            g.add_usage(EdgeId(e as u32), u);
        }
        let costs = EdgeCosts::build(&g, CostParams::default());
        let (from, to) = (GCell::new(0, 0), GCell::new(2, 2));
        let astar = search(&g, &costs, from, to, &mut MazeScratch::new());
        assert_eq!(astar, [g.v_edge(0, 0), g.h_edge(0, 1), g.v_edge(1, 1), g.h_edge(1, 2)]);

        let mut scratch = MazeScratch::new();
        grow_tree(&g, &costs, from, &[to], &mut scratch);
        let bare = reconstruct(&g, from, to, &scratch);
        assert_eq!(bare, [g.h_edge(0, 0), g.v_edge(1, 0), g.v_edge(1, 1), g.h_edge(1, 2)]);
        let cost = |p: &[EdgeId]| p.iter().map(|&e| costs.cost(e)).fold(0.0, |a, c| a + c);
        assert_eq!(cost(&bare), cost(&astar), "an exact tie");
        assert!(!certified(&g, &costs, from, to, &scratch));

        assert_eq!(search_from(&g, &costs, from, &[to], &mut scratch), [astar]);
    }

    #[test]
    #[should_panic(expected = "never reached")]
    fn broken_parent_chain_panics() {
        let g = grid();
        let mut scratch = MazeScratch::new();
        scratch.begin(g.num_gcells());
        reconstruct(&g, GCell::new(0, 0), GCell::new(3, 3), &scratch);
    }

    fn grid3() -> RouteGrid {
        use crate::grid::LayerDir::*;
        RouteGrid::uniform_layers(
            6,
            6,
            Point::ORIGIN,
            1.0,
            1.0,
            &[(Horizontal, 4.0), (Vertical, 4.0), (Horizontal, 4.0), (Vertical, 4.0)],
            Some(6.0),
        )
    }

    fn path_cost(g: &RouteGrid, path: &[EdgeId], params: CostParams) -> f64 {
        path.iter().map(|&e| crate::pattern::edge_cost(g, e, params)).sum()
    }

    #[test]
    fn maze3_vertical_route_climbs_and_drops() {
        let g = grid3();
        let path = route3(&g, GCell::new(2, 0), GCell::new(2, 4), CostParams::default());
        let vias = path.iter().filter(|&&e| g.is_via(e)).count();
        let planar = path.len() - vias;
        assert_eq!(planar, 4, "planar part stays at Manhattan length");
        assert_eq!(vias, 2, "one climb to the vertical layer, one drop back");
    }

    #[test]
    fn maze3_matches_a_dijkstra_oracle() {
        let mut g = grid3();
        // Irregular usage and history over all edge classes.
        for y in 0..6 {
            for x in 0..5 {
                g.add_usage(g.h_edge_on(0, x, y), f64::from((x * 3 + y) % 7));
                g.add_history(g.h_edge_on(2, x, y), f64::from((x + y) % 3));
            }
        }
        for y in 0..5 {
            for x in 0..6 {
                g.add_usage(g.v_edge_on(1, x, y), f64::from((x + 2 * y) % 5));
                g.add_usage(g.v_edge_on(3, x, y), 1.5);
            }
        }
        for lvl in 0..3 {
            g.add_usage(g.via_edge(2, 2, lvl), 4.0);
        }
        let params = CostParams::default();
        let from = GCell::new(0, 0);
        let to = GCell::new(5, 5);
        let path = route3(&g, from, to, params);

        // Independent oracle: plain Dijkstra over the explicit 3-D graph.
        let (nx, ny, nl) = (6u32, 6u32, 4u32);
        let idx = |l: u32, x: u32, y: u32| ((l * ny + y) * nx + x) as usize;
        let mut dist = vec![f64::INFINITY; (nl * nx * ny) as usize];
        dist[idx(0, 0, 0)] = 0.0;
        // Bellman-Ford style relaxation to a fixed point (small graph).
        let mut changed = true;
        while changed {
            changed = false;
            for l in 0..nl {
                for y in 0..ny {
                    for x in 0..nx {
                        let mut relax = |a: usize, b: usize, e: EdgeId| {
                            let w = crate::pattern::edge_cost(&g, e, params);
                            if dist[a] + w < dist[b] {
                                dist[b] = dist[a] + w;
                                changed = true;
                            }
                            if dist[b] + w < dist[a] {
                                dist[a] = dist[b] + w;
                                changed = true;
                            }
                        };
                        if x + 1 < nx && g.layer_dir(l as usize) == crate::grid::LayerDir::Horizontal {
                            relax(idx(l, x, y), idx(l, x + 1, y), g.h_edge_on(l as usize, x, y));
                        }
                        if y + 1 < ny && g.layer_dir(l as usize) == crate::grid::LayerDir::Vertical {
                            relax(idx(l, x, y), idx(l, x, y + 1), g.v_edge_on(l as usize, x, y));
                        }
                        if l + 1 < nl {
                            relax(idx(l, x, y), idx(l + 1, x, y), g.via_edge(x, y, l as usize));
                        }
                    }
                }
            }
        }
        let optimal = dist[idx(0, to.x, to.y)];
        let got = path_cost(&g, &path, params);
        assert!(
            (got - optimal).abs() < 1e-9,
            "maze3 cost {got} vs oracle {optimal}"
        );
    }

    #[test]
    fn maze3_climbs_off_a_saturated_corridor() {
        let mut g = grid3();
        // Saturate layer 0's bottom corridor: the route must take the
        // other horizontal layer instead.
        for x in 0..5 {
            g.add_usage(g.h_edge_on(0, x, 0), 100.0);
        }
        let path = route3(&g, GCell::new(0, 0), GCell::new(5, 0), CostParams::default());
        assert!(!path.is_empty());
        assert!(path.iter().all(|&e| (0..5).all(|x| e != g.h_edge_on(0, x, 0))));
        assert!(path.iter().any(|&e| g.is_via(e)), "leaving layer 0 takes vias");
    }

    #[test]
    fn maze3_scratch_is_shareable_with_2d_searches() {
        let g2 = grid();
        let g3 = grid3();
        let costs2 = EdgeCosts::build(&g2, CostParams::default());
        let costs3 = EdgeCosts::build(&g3, CostParams::default());
        let mut scratch = MazeScratch::new();
        let a2 = search(&g2, &costs2, GCell::new(0, 0), GCell::new(7, 7), &mut scratch);
        let a3 = search3(&g3, &costs3, GCell::new(0, 0), GCell::new(5, 5), &mut scratch);
        // Interleave and repeat: identical results from the shared scratch.
        let b2 = search(&g2, &costs2, GCell::new(0, 0), GCell::new(7, 7), &mut scratch);
        let b3 = search3(&g3, &costs3, GCell::new(0, 0), GCell::new(5, 5), &mut scratch);
        assert_eq!(a2, b2);
        assert_eq!(a3, b3);
    }

    #[test]
    fn maze3_same_cell_is_empty() {
        let g = grid3();
        assert!(route3(&g, GCell::new(3, 3), GCell::new(3, 3), CostParams::default()).is_empty());
    }

    #[test]
    fn heap_entry_order_is_total_and_deterministic() {
        let e = |f: f64, g: f64, x: u32| HeapEntry { f, g, cell: GCell::new(x, 0) };
        // Smaller f pops first (greater in max-heap order).
        assert_eq!(e(1.0, 0.0, 0).cmp(&e(2.0, 0.0, 0)), Ordering::Greater);
        // Equal f: larger g pops first.
        assert_eq!(e(1.0, 1.0, 0).cmp(&e(1.0, 0.5, 0)), Ordering::Greater);
        // Equal f and g: smaller cell pops first.
        assert_eq!(e(1.0, 1.0, 1).cmp(&e(1.0, 1.0, 2)), Ordering::Greater);
        // NaN does not collapse to Equal (total order).
        assert_ne!(e(f64::NAN, 0.0, 0).cmp(&e(1.0, 0.0, 0)), Ordering::Equal);
    }

    #[test]
    fn bit_pattern_order_equals_total_cmp_order() {
        use rdp_geom::rng::Rng;
        // The `total_cmp` order the heaps used before comparing bits.
        fn reference(a: (f64, f64, u32), b: (f64, f64, u32)) -> Ordering {
            b.0.total_cmp(&a.0).then_with(|| a.1.total_cmp(&b.1)).then_with(|| b.2.cmp(&a.2))
        }
        let mut rng = Rng::seed_from_u64(0xB175);
        // Finite values ≥ +0 across every magnitude, plus a few exact
        // repeats so ties on `f` and `g` occur often.
        let value = |rng: &mut Rng| match rng.gen_range(0u32..5) {
            0 => [0.0, 1.0, 2.5, 7.0][rng.gen_range(0usize..4)],
            1 => f64::from_bits(rng.gen_range(0u64..1 << 52)), // subnormal or +0
            2 => rng.gen_range(0.0..1e3),
            3 => f64::from_bits(rng.gen_range(0u64..=f64::MAX.to_bits())),
            _ => f64::MAX,
        };
        for _ in 0..20_000 {
            let a = (value(&mut rng), value(&mut rng), rng.gen_range(0u32..4));
            let b = (value(&mut rng), value(&mut rng), rng.gen_range(0u32..4));
            for v in [a.0, a.1, b.0, b.1] {
                assert!(v.is_finite() && v.is_sign_positive());
            }
            let want = reference(a, b);
            let e2 = |(f, g, c): (f64, f64, u32)| HeapEntry { f, g, cell: GCell::new(c, 0) };
            let e3 = |(f, g, idx): (f64, f64, u32)| HeapEntry3 { f, g, idx };
            assert_eq!(e2(a).cmp(&e2(b)), want, "{a:?} vs {b:?}");
            assert_eq!(e3(a).cmp(&e3(b)), want, "{a:?} vs {b:?}");
        }
        // NaN still never compares `Equal` with a number, on either field.
        for x in [0.0, 1.0, f64::MAX, f64::INFINITY] {
            for nan in [f64::NAN, -f64::NAN] {
                let n = HeapEntry3 { f: nan, g: 0.0, idx: 0 };
                assert_ne!(n.cmp(&HeapEntry3 { f: x, g: 0.0, idx: 0 }), Ordering::Equal);
                let n = HeapEntry { f: 1.0, g: nan, cell: GCell::new(0, 0) };
                assert_ne!(n.cmp(&HeapEntry { f: 1.0, g: x, cell: GCell::new(0, 0) }), Ordering::Equal);
            }
        }
    }
}
