//! A\* maze routing on the gcell grid.
//!
//! Used by the negotiation loop to reroute ripped-up segments around
//! congestion. Two things make this engine fast enough to sit in the
//! placer's inner loop:
//!
//! * **Reusable scratch** ([`MazeScratch`]): the per-cell `best_g` /
//!   `parent` arrays are epoch-stamped, so starting a new search is O(1) —
//!   no allocation, no O(grid) clearing. One scratch serves every segment
//!   a worker routes.
//! * **Frozen costs** ([`EdgeCosts`]): edge costs are snapshotted once per
//!   negotiation round, so a heap relaxation is a single array load.
//!
//! **Canonical paths.** Among equal-cost shortest paths the search returns
//! a *canonical* one: cells keep relaxing until every queue entry is
//! provably worse than the target's distance, and on exact cost ties the
//! lexicographically smallest parent wins. The resulting parent array is a
//! pure function of the cost field — independent of exploration order and
//! of the thread count.
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
use crate::pattern::{CostParams, EdgeCosts};
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

/// Reusable A\* working memory: epoch-stamped per-state labels plus the
/// open-list heaps (one for 2-D searches, one for 3-D).
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
        }
        self.heap.clear();
        self.heap3.clear();
        if self.epoch == u32::MAX {
            // Epoch wraparound: hard-reset the stamps once every 2³² uses.
            self.stamp.iter_mut().for_each(|s| *s = 0);
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
    let h_scale = costs.min_cost();
    let h = |c: GCell| f64::from(c.manhattan(to)) * h_scale;
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
                // Exact cost tie: the lexicographically smallest parent
                // wins, making the parent array independent of
                // exploration order.
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

/// Walks the parent chain from `to` back to `from`, returning the path's
/// edges in forward order.
fn reconstruct(grid: &RouteGrid, from: GCell, to: GCell, scratch: &MazeScratch) -> Vec<EdgeId> {
    let mut edges = Vec::new();
    let mut cur = to;
    while cur != from {
        let p = scratch.parent_of(grid.cell_index(cur));
        debug_assert_ne!(p, NO_PARENT, "reconstruct called on an unreached target");
        if p == NO_PARENT {
            return Vec::new();
        }
        let prev = grid.cell_at(p as usize);
        edges.push(grid.edge_between(prev, cur).expect("path edges are adjacent"));
        cur = prev;
    }
    edges.reverse();
    edges
}

/// Finds the cheapest path from `from` to `to` under the **live** grid
/// costs. Returns its edges in order; empty when `from == to`.
///
/// Convenience wrapper over [`search`] that snapshots the costs and
/// allocates a scratch per call — fine for one-off queries and tests; the
/// negotiation loop uses the reusable pieces directly.
pub fn route_maze(grid: &RouteGrid, from: GCell, to: GCell, params: CostParams) -> Vec<EdgeId> {
    if from == to {
        return Vec::new();
    }
    let costs = EdgeCosts::build(grid, params);
    search(grid, &costs, from, to, &mut MazeScratch::new())
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
    // Admissible and consistent: every remaining path needs at least the
    // 2-D Manhattan distance in planar edges (each ≥ min_cost) plus
    // `layer` via edges to get back down to layer 0 (each ≥ min_via_cost).
    let (h_planar, h_via) = (costs.min_cost(), costs.min_via_cost());
    let h = |l: u32, x: u32, y: u32| {
        f64::from(x.abs_diff(to.x) + y.abs_diff(to.y)) * h_planar + f64::from(l) * h_via
    };
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
    reconstruct3(grid, from, to, scratch)
}

/// Walks the 3-D parent chain from `(0, to)` back to `(0, from)`,
/// returning the path's edges (planar and via) in forward order.
fn reconstruct3(grid: &RouteGrid, from: GCell, to: GCell, scratch: &MazeScratch) -> Vec<EdgeId> {
    let (nx, ny) = (grid.nx(), grid.ny());
    let idx = |l: u32, x: u32, y: u32| ((l * ny + y) * nx + x) as usize;
    let decode = |i: u32| {
        let (l, rem) = (i / (nx * ny), i % (nx * ny));
        (l, rem % nx, rem / nx)
    };
    let mut edges = Vec::new();
    let from_i = idx(0, from.x, from.y);
    let mut cur = idx(0, to.x, to.y);
    while cur != from_i {
        let p = scratch.parent_of(cur);
        debug_assert_ne!(p, NO_PARENT, "reconstruct3 called on an unreached target");
        if p == NO_PARENT {
            return Vec::new();
        }
        let (cl, cx, cy) = decode(cur as u32);
        let (pl, px, py) = decode(p);
        let e = if cl != pl {
            grid.via_edge(cx, cy, cl.min(pl) as usize)
        } else if cx != px {
            grid.h_edge_on(cl as usize, cx.min(px), cy)
        } else {
            grid.v_edge_on(cl as usize, cx, cy.min(py))
        };
        edges.push(e);
        cur = p as usize;
    }
    edges.reverse();
    edges
}

/// One-off layered maze query under the live grid costs (own scratch) —
/// the 3-D analogue of [`route_maze`].
pub fn route_maze3(grid: &RouteGrid, from: GCell, to: GCell, params: CostParams) -> Vec<EdgeId> {
    if from == to {
        return Vec::new();
    }
    let costs = EdgeCosts::build(grid, params);
    search3(grid, &costs, from, to, &mut MazeScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_geom::Point;

    fn grid() -> RouteGrid {
        RouteGrid::uniform(10, 10, Point::ORIGIN, 1.0, 1.0, 4.0, 4.0)
    }

    #[test]
    fn shortest_path_on_empty_grid() {
        let g = grid();
        let path = route_maze(&g, GCell::new(0, 0), GCell::new(4, 3), CostParams::default());
        assert_eq!(path.len(), 7, "empty grid gives Manhattan-length path");
    }

    #[test]
    fn same_cell_is_empty() {
        let g = grid();
        assert!(route_maze(&g, GCell::new(5, 5), GCell::new(5, 5), CostParams::default()).is_empty());
    }

    #[test]
    fn detours_around_congestion_wall() {
        let mut g = grid();
        // Build a congested vertical wall at x=4..5 except the top row.
        for y in 0..9 {
            g.add_usage(g.h_edge(4, y), 100.0);
        }
        let path = route_maze(&g, GCell::new(0, 0), GCell::new(9, 0), CostParams::default());
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
        let path = route_maze(&g, from, to, CostParams::default());
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
        let path = route_maze(&g, GCell::new(0, 0), GCell::new(9, 0), CostParams::default());
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
        let path = route_maze3(&g, GCell::new(2, 0), GCell::new(2, 4), CostParams::default());
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
        let path = route_maze3(&g, from, to, params);

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
        let path = route_maze3(&g, GCell::new(0, 0), GCell::new(5, 0), CostParams::default());
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
        assert!(route_maze3(&g, GCell::new(3, 3), GCell::new(3, 3), CostParams::default()).is_empty());
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
