//! Pattern routing: L-shaped routes for two-pin segments, plus the
//! probabilistic congestion estimator built on them.
//!
//! Pattern routing gives the initial solution the negotiation loop refines;
//! the 50/50 probabilistic variant (each L weighted half) is the fast
//! congestion oracle the placer's inflation loop calls every iteration,
//! mirroring how contest-era placers embedded lightweight estimators
//! instead of a full router.

use crate::grid::{EdgeId, GCell, LayerDir, RouteGrid};
use crate::topology::{self, Segment};
use rdp_db::{Design, Placement};
use rdp_geom::parallel::{chunk_spans, chunked_map, Parallelism};

/// Nets per parallel work chunk in the congestion estimator. Fixed so the
/// deposit merge order never depends on the thread count.
const NET_CHUNK: usize = 128;

/// Edge-cost parameters shared by pattern and maze routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost per unit of overflow an additional track would cause.
    pub overflow_penalty: f64,
    /// Weight of the congestion-proportional term below capacity.
    pub congestion_weight: f64,
    /// Base cost of a via edge (a layer change), replacing the planar
    /// base length cost of 1.0. Must be strictly positive: a free via
    /// would let equal-cost paths cycle through layers, which breaks the
    /// canonical parent tie-breaking the deterministic maze relies on.
    pub via_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            overflow_penalty: 8.0,
            congestion_weight: 1.0,
            via_cost: 2.0,
        }
    }
}

/// Cost of pushing one more track through `e`: base cost (1.0 for planar
/// edges, [`CostParams::via_cost`] for vias), a smooth congestion term
/// below capacity, a steep penalty above, and the negotiation history.
pub fn edge_cost(grid: &RouteGrid, e: EdgeId, params: CostParams) -> f64 {
    let cap = grid.capacity(e);
    let u = grid.usage(e) + 1.0;
    let congestion = if cap > 0.0 {
        if u <= cap {
            params.congestion_weight * u / cap
        } else {
            params.congestion_weight + (u - cap) * params.overflow_penalty
        }
    } else {
        params.overflow_penalty * u
    };
    let base = if grid.is_via(e) { params.via_cost } else { 1.0 };
    base + congestion + grid.history(e)
}

/// A frozen per-edge cost table: [`edge_cost`] evaluated once for every
/// edge of a grid.
///
/// The negotiation loop's inputs to the cost function — usage, history,
/// capacity — only change **between** reroute rounds, never during one, so
/// each round snapshots the costs once and every heap relaxation becomes a
/// single array load instead of a recomputation. The snapshot also carries
/// the global minimum edge cost, which the maze A\* uses as its
/// admissible-heuristic scale.
///
/// Construction asserts every cost is finite and strictly positive: a NaN
/// or infinite cost would silently corrupt heap order (and therefore
/// determinism) downstream, so it is rejected loudly here.
#[derive(Debug, Clone)]
pub struct EdgeCosts {
    costs: Vec<f64>,
    min_cost: f64,
    min_via_cost: f64,
}

/// Edges per parallel work chunk when snapshotting costs.
const EDGE_CHUNK: usize = 8192;

impl EdgeCosts {
    /// Snapshots the cost of every edge of `grid` (single-threaded).
    pub fn build(grid: &RouteGrid, params: CostParams) -> Self {
        Self::build_par(grid, params, &Parallelism::single())
    }

    /// Snapshots the cost of every edge of `grid` on up to `par` workers.
    /// Bitwise identical at every thread count (each edge's cost is an
    /// independent pure function of the grid).
    ///
    /// # Panics
    ///
    /// Panics if any edge cost is non-finite or not strictly positive.
    pub fn build_par(grid: &RouteGrid, params: CostParams, par: &Parallelism) -> Self {
        let n = grid.num_edges();
        let spans: Vec<_> = chunk_spans(n, EDGE_CHUNK).collect();
        let parts = chunked_map(par, spans.len(), |ci| {
            spans[ci]
                .clone()
                .map(|i| {
                    let c = edge_cost(grid, EdgeId(i as u32), params);
                    assert!(
                        c.is_finite() && c > 0.0,
                        "edge cost must be finite and positive (edge {i}: {c})"
                    );
                    c
                })
                .collect::<Vec<f64>>()
        });
        let costs: Vec<f64> = parts.concat();
        let n_planar = grid.num_planar_edges();
        let min_cost = costs[..n_planar].iter().copied().fold(f64::INFINITY, f64::min);
        let min_via_cost = costs[n_planar..].iter().copied().fold(f64::INFINITY, f64::min);
        EdgeCosts {
            costs,
            min_cost: if min_cost.is_finite() { min_cost } else { 0.0 },
            min_via_cost: if min_via_cost.is_finite() { min_via_cost } else { 0.0 },
        }
    }

    /// The snapshotted cost of `e`.
    #[inline]
    pub fn cost(&self, e: EdgeId) -> f64 {
        self.costs[e.0 as usize]
    }

    /// The minimum *planar* edge cost over the whole grid (0.0 on an
    /// edgeless grid) — the admissible scale for per-gcell distance.
    #[inline]
    pub fn min_cost(&self) -> f64 {
        self.min_cost
    }

    /// The minimum *via* edge cost (0.0 on a grid without via storage) —
    /// the admissible scale for per-layer distance.
    #[inline]
    pub fn min_via_cost(&self) -> f64 {
        self.min_via_cost
    }

    /// Number of edges covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the grid has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

/// The edges of the L-route from `from` to `to` bending at the corner
/// `(corner_x, corner_y)` taken from one endpoint each.
fn l_edges(grid: &RouteGrid, from: GCell, to: GCell, horizontal_first: bool) -> Vec<EdgeId> {
    let mut edges = Vec::with_capacity((from.manhattan(to)) as usize);
    let (x0, y0, x1, y1) = (from.x, from.y, to.x, to.y);
    let push_h = |edges: &mut Vec<EdgeId>, y: u32| {
        let (a, b) = (x0.min(x1), x0.max(x1));
        for x in a..b {
            edges.push(grid.h_edge(x, y));
        }
    };
    let push_v = |edges: &mut Vec<EdgeId>, x: u32| {
        let (a, b) = (y0.min(y1), y0.max(y1));
        for y in a..b {
            edges.push(grid.v_edge(x, y));
        }
    };
    if horizontal_first {
        push_h(&mut edges, y0);
        push_v(&mut edges, x1);
    } else {
        push_v(&mut edges, x0);
        push_h(&mut edges, y1);
    }
    edges
}

/// Routes `seg` with the cheaper of the two L patterns and returns its
/// edges (empty for a zero-length segment).
pub fn route_l(grid: &RouteGrid, seg: Segment, params: CostParams) -> Vec<EdgeId> {
    if seg.from == seg.to {
        return Vec::new();
    }
    let a = l_edges(grid, seg.from, seg.to, true);
    if seg.from.x == seg.to.x || seg.from.y == seg.to.y {
        return a; // straight: both Ls coincide
    }
    let b = l_edges(grid, seg.from, seg.to, false);
    let cost = |edges: &[EdgeId]| edges.iter().map(|&e| edge_cost(grid, e, params)).sum::<f64>();
    if cost(&a) <= cost(&b) {
        a
    } else {
        b
    }
}

/// The edges of a Z-route (two bends) from `from` to `to`.
///
/// `horizontal_first` with bend column `mid`: run horizontally to `mid` at
/// the source row, vertically at `mid`, then horizontally to the target.
/// Otherwise the transposed variant with bend row `mid`.
fn z_edges(grid: &RouteGrid, from: GCell, to: GCell, mid: u32, horizontal_first: bool) -> Vec<EdgeId> {
    let mut edges = Vec::with_capacity(from.manhattan(to) as usize);
    if horizontal_first {
        let (a, b) = (from.x.min(mid), from.x.max(mid));
        for x in a..b {
            edges.push(grid.h_edge(x, from.y));
        }
        let (c, d) = (from.y.min(to.y), from.y.max(to.y));
        for y in c..d {
            edges.push(grid.v_edge(mid, y));
        }
        let (e, f) = (mid.min(to.x), mid.max(to.x));
        for x in e..f {
            edges.push(grid.h_edge(x, to.y));
        }
    } else {
        let (a, b) = (from.y.min(mid), from.y.max(mid));
        for y in a..b {
            edges.push(grid.v_edge(from.x, y));
        }
        let (c, d) = (from.x.min(to.x), from.x.max(to.x));
        for x in c..d {
            edges.push(grid.h_edge(x, mid));
        }
        let (e, f) = (mid.min(to.y), mid.max(to.y));
        for y in e..f {
            edges.push(grid.v_edge(to.x, y));
        }
    }
    edges
}

/// Routes `seg` with the cheapest of the L patterns and a small family of
/// Z patterns (bends at the ¼, ½ and ¾ positions of each axis). Strictly
/// at Manhattan length like the Ls, but with more freedom to dodge
/// congestion — the pattern set contest-era routers seeded negotiation
/// with.
pub fn route_pattern(grid: &RouteGrid, seg: Segment, params: CostParams) -> Vec<EdgeId> {
    if seg.from == seg.to {
        return Vec::new();
    }
    let cost = |edges: &[EdgeId]| edges.iter().map(|&e| edge_cost(grid, e, params)).sum::<f64>();
    let mut best = route_l(grid, seg, params);
    if seg.from.x == seg.to.x || seg.from.y == seg.to.y {
        return best; // straight: no Z exists
    }
    let mut best_cost = cost(&best);
    let (x_lo, x_hi) = (seg.from.x.min(seg.to.x), seg.from.x.max(seg.to.x));
    let (y_lo, y_hi) = (seg.from.y.min(seg.to.y), seg.from.y.max(seg.to.y));
    let quartiles = |lo: u32, hi: u32| {
        let span = hi - lo;
        [lo + span / 4, lo + span / 2, lo + 3 * span / 4]
            .into_iter()
            .filter(move |&m| m > lo && m < hi)
    };
    for mid in quartiles(x_lo, x_hi) {
        let cand = z_edges(grid, seg.from, seg.to, mid, true);
        let c = cost(&cand);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    for mid in quartiles(y_lo, y_hi) {
        let cand = z_edges(grid, seg.from, seg.to, mid, false);
        let c = cost(&cand);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    best
}

/// A maximal straight run of a 2-D pattern path: travels from `a` to `b`
/// (inclusive gcells) along one axis. The 3-D pattern router assigns each
/// run to one carrying layer.
#[derive(Debug, Clone, Copy)]
struct Run {
    horizontal: bool,
    a: GCell,
    b: GCell,
}

impl Run {
    fn new(a: GCell, b: GCell) -> Option<Run> {
        if a == b {
            return None;
        }
        debug_assert!(a.x == b.x || a.y == b.y);
        Some(Run { horizontal: a.y == b.y, a, b })
    }
}

/// The runs of the L path from `from` to `to` (1 run if straight, else 2).
fn runs_l(from: GCell, to: GCell, horizontal_first: bool) -> Vec<Run> {
    let corner = if horizontal_first {
        GCell::new(to.x, from.y)
    } else {
        GCell::new(from.x, to.y)
    };
    [Run::new(from, corner), Run::new(corner, to)]
        .into_iter()
        .flatten()
        .collect()
}

/// The runs of the Z path bending at `mid` (column when
/// `horizontal_first`, row otherwise).
fn runs_z(from: GCell, to: GCell, mid: u32, horizontal_first: bool) -> Vec<Run> {
    let (j0, j1) = if horizontal_first {
        (GCell::new(mid, from.y), GCell::new(mid, to.y))
    } else {
        (GCell::new(from.x, mid), GCell::new(to.x, mid))
    };
    [Run::new(from, j0), Run::new(j0, j1), Run::new(j1, to)]
        .into_iter()
        .flatten()
        .collect()
}

/// Emits the edges of `run` on layer `l` in travel order.
fn run_edges(grid: &RouteGrid, run: Run, l: usize, out: &mut Vec<EdgeId>) {
    if run.horizontal {
        let y = run.a.y;
        if run.b.x > run.a.x {
            for x in run.a.x..run.b.x {
                out.push(grid.h_edge_on(l, x, y));
            }
        } else {
            for x in (run.b.x..run.a.x).rev() {
                out.push(grid.h_edge_on(l, x, y));
            }
        }
    } else {
        let x = run.a.x;
        if run.b.y > run.a.y {
            for y in run.a.y..run.b.y {
                out.push(grid.v_edge_on(l, x, y));
            }
        } else {
            for y in (run.b.y..run.a.y).rev() {
                out.push(grid.v_edge_on(l, x, y));
            }
        }
    }
}

/// Cost of `run` on layer `l`.
fn run_cost(grid: &RouteGrid, run: Run, l: usize, params: CostParams) -> f64 {
    let mut edges = Vec::with_capacity(run.a.manhattan(run.b) as usize);
    run_edges(grid, run, l, &mut edges);
    edges.iter().map(|&e| edge_cost(grid, e, params)).sum()
}

/// Cost of the via stack at `cell` between layers `a` and `b`.
fn via_stack_cost(grid: &RouteGrid, cell: GCell, a: usize, b: usize, params: CostParams) -> f64 {
    (a.min(b)..a.max(b))
        .map(|level| edge_cost(grid, grid.via_edge(cell.x, cell.y, level), params))
        .sum()
}

/// Emits the via stack at `cell` from layer `a` to layer `b` in travel
/// order (ascending when climbing, descending when dropping).
fn via_stack_edges(grid: &RouteGrid, cell: GCell, a: usize, b: usize, out: &mut Vec<EdgeId>) {
    if a < b {
        for level in a..b {
            out.push(grid.via_edge(cell.x, cell.y, level));
        }
    } else {
        for level in (b..a).rev() {
            out.push(grid.via_edge(cell.x, cell.y, level));
        }
    }
}

/// Routes `runs` on the layered grid: a dynamic program chooses one
/// carrying layer per run, paying via stacks at the junctions and the
/// endpoint climbs from/to layer 0 (where pins live). Ties break toward
/// the lowest layer. Returns `None` when some run's direction has no
/// carrying layer.
fn route_runs3(grid: &RouteGrid, runs: &[Run], params: CostParams) -> Option<(f64, Vec<EdgeId>)> {
    if runs.is_empty() {
        return Some((0.0, Vec::new()));
    }
    let h_layers: Vec<usize> = (0..grid.num_layers())
        .filter(|&l| grid.layer_dir(l) == LayerDir::Horizontal)
        .collect();
    let v_layers: Vec<usize> = (0..grid.num_layers())
        .filter(|&l| grid.layer_dir(l) == LayerDir::Vertical)
        .collect();
    let carriers = |r: Run| if r.horizontal { &h_layers } else { &v_layers };
    if runs.iter().any(|&r| carriers(r).is_empty()) {
        return None;
    }
    // dp[i][j] = (cost of the best prefix ending with run i on its j-th
    // carrier, backpointer into run i-1's carriers).
    let mut dp: Vec<Vec<(f64, usize)>> = Vec::with_capacity(runs.len());
    dp.push(
        carriers(runs[0])
            .iter()
            .map(|&l| {
                (
                    via_stack_cost(grid, runs[0].a, 0, l, params)
                        + run_cost(grid, runs[0], l, params),
                    usize::MAX,
                )
            })
            .collect(),
    );
    for i in 1..runs.len() {
        let junction = runs[i].a;
        let prev = carriers(runs[i - 1]);
        let row: Vec<(f64, usize)> = carriers(runs[i])
            .iter()
            .map(|&l2| {
                let rc = run_cost(grid, runs[i], l2, params);
                let mut best = (f64::INFINITY, 0);
                for (j1, &l1) in prev.iter().enumerate() {
                    let c = dp[i - 1][j1].0 + via_stack_cost(grid, junction, l1, l2, params) + rc;
                    if c < best.0 {
                        best = (c, j1);
                    }
                }
                best
            })
            .collect();
        dp.push(row);
    }
    // Close at the far end: drop back to layer 0.
    let last = runs.len() - 1;
    let end = runs[last].b;
    let (mut best_cost, mut best_j) = (f64::INFINITY, 0);
    for (j, &l) in carriers(runs[last]).iter().enumerate() {
        let c = dp[last][j].0 + via_stack_cost(grid, end, l, 0, params);
        if c < best_cost {
            best_cost = c;
            best_j = j;
        }
    }
    // Reconstruct the chosen layer per run.
    let mut chosen = vec![0usize; runs.len()];
    let mut j = best_j;
    for i in (0..runs.len()).rev() {
        chosen[i] = carriers(runs[i])[j];
        j = dp[i][j].1;
    }
    // Emit in travel order: climb, run, junction stack, run, …, drop.
    let mut edges = Vec::new();
    via_stack_edges(grid, runs[0].a, 0, chosen[0], &mut edges);
    for i in 0..runs.len() {
        if i > 0 {
            via_stack_edges(grid, runs[i].a, chosen[i - 1], chosen[i], &mut edges);
        }
        run_edges(grid, runs[i], chosen[i], &mut edges);
    }
    via_stack_edges(grid, end, chosen[last], 0, &mut edges);
    Some((best_cost, edges))
}

/// Layered counterpart of [`route_pattern`]: the same candidate family
/// (both Ls, quartile Zs in both orientations) evaluated on the 3-D grid,
/// with each candidate's layer assignment solved exactly by
/// [`route_runs3`]. Pins are taken at layer 0, so the returned path
/// includes the endpoint via climbs. Deterministic: candidates are tried
/// in a fixed order and only a strictly cheaper one replaces the best.
pub fn route_pattern3(grid: &RouteGrid, seg: Segment, params: CostParams) -> Vec<EdgeId> {
    if seg.from == seg.to {
        return Vec::new();
    }
    let mut best: Option<(f64, Vec<EdgeId>)> = None;
    let consider = |cand: Option<(f64, Vec<EdgeId>)>, best: &mut Option<(f64, Vec<EdgeId>)>| {
        if let Some((c, edges)) = cand {
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                *best = Some((c, edges));
            }
        }
    };
    let straight = seg.from.x == seg.to.x || seg.from.y == seg.to.y;
    consider(route_runs3(grid, &runs_l(seg.from, seg.to, true), params), &mut best);
    if !straight {
        consider(route_runs3(grid, &runs_l(seg.from, seg.to, false), params), &mut best);
        let (x_lo, x_hi) = (seg.from.x.min(seg.to.x), seg.from.x.max(seg.to.x));
        let (y_lo, y_hi) = (seg.from.y.min(seg.to.y), seg.from.y.max(seg.to.y));
        let quartiles = |lo: u32, hi: u32| {
            let span = hi - lo;
            [lo + span / 4, lo + span / 2, lo + 3 * span / 4]
                .into_iter()
                .filter(move |&m| m > lo && m < hi)
        };
        for mid in quartiles(x_lo, x_hi) {
            consider(route_runs3(grid, &runs_z(seg.from, seg.to, mid, true), params), &mut best);
        }
        for mid in quartiles(y_lo, y_hi) {
            consider(route_runs3(grid, &runs_z(seg.from, seg.to, mid, false), params), &mut best);
        }
    }
    best.map(|(_, e)| e).unwrap_or_default()
}

/// Probabilistic congestion estimation: every net is MST-decomposed and
/// each segment deposits half a track on each of its two L patterns, using
/// up to `par` worker threads.
///
/// The L geometry depends only on gcell coordinates — never on the usage
/// being accumulated — so chunks of nets are routed against the immutable
/// freshly-built grid in parallel and their `(edge, weight)` deposits are
/// merged **in net order**, making the result bitwise identical at every
/// thread count.
///
/// Returns the grid with the estimated usage — `O(pins)` and allocation-
/// light, suitable for calling inside the placer's inflation loop.
pub fn estimate_congestion_par(
    design: &Design,
    placement: &Placement,
    par: &Parallelism,
) -> RouteGrid {
    let mut grid = RouteGrid::from_design(design, placement);
    estimate_congestion_into(&mut grid, design, placement, par);
    grid
}

/// [`estimate_congestion_par`] into an existing grid: clears the usage and
/// re-deposits against the current `placement`.
///
/// Capacities depend only on fixed-node blockages, which never move during
/// placement, so the inflation loop builds the grid **once** and refreshes
/// it here every round instead of re-carving blockages each time. Produces
/// bitwise the same usage as a freshly built grid with equal capacities.
pub fn estimate_congestion_into(
    grid: &mut RouteGrid,
    design: &Design,
    placement: &Placement,
    par: &Parallelism,
) {
    grid.clear_usage();
    let nets: Vec<_> = design.net_ids().collect();
    let spans: Vec<_> = chunk_spans(nets.len(), NET_CHUNK).collect();
    let partials = {
        let g: &RouteGrid = grid;
        chunked_map(par, spans.len(), |ci| {
            let mut deposits: Vec<(EdgeId, f64)> = Vec::new();
            for &net in &nets[spans[ci].clone()] {
                for seg in topology::decompose_net(design, placement, g, net) {
                    if seg.from == seg.to {
                        continue;
                    }
                    let straight = seg.from.x == seg.to.x || seg.from.y == seg.to.y;
                    let weight = if straight { 1.0 } else { 0.5 };
                    for e in l_edges(g, seg.from, seg.to, true) {
                        deposits.push((e, weight));
                    }
                    if !straight {
                        for e in l_edges(g, seg.from, seg.to, false) {
                            deposits.push((e, 0.5));
                        }
                    }
                }
            }
            deposits
        })
    };
    for chunk in &partials {
        for &(e, w) in chunk {
            grid.add_usage(e, w);
        }
    }
}

/// Single-threaded [`estimate_congestion_par`] (the historical entry
/// point).
pub fn estimate_congestion(design: &Design, placement: &Placement) -> RouteGrid {
    estimate_congestion_par(design, placement, &Parallelism::single())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_geom::Point;

    fn grid() -> RouteGrid {
        RouteGrid::uniform(8, 8, Point::ORIGIN, 10.0, 10.0, 4.0, 4.0)
    }

    #[test]
    fn l_route_has_manhattan_length() {
        let g = grid();
        let seg = Segment { from: GCell::new(1, 1), to: GCell::new(5, 4) };
        let edges = route_l(&g, seg, CostParams::default());
        assert_eq!(edges.len(), 7);
    }

    #[test]
    fn straight_segments_have_one_pattern() {
        let g = grid();
        let seg = Segment { from: GCell::new(1, 2), to: GCell::new(6, 2) };
        let edges = route_l(&g, seg, CostParams::default());
        assert_eq!(edges.len(), 5);
        assert!(edges.iter().all(|&e| g.is_horizontal(e)));
        let zero = Segment { from: GCell::new(3, 3), to: GCell::new(3, 3) };
        assert!(route_l(&g, zero, CostParams::default()).is_empty());
    }

    #[test]
    fn congested_l_is_avoided() {
        let mut g = grid();
        let seg = Segment { from: GCell::new(0, 0), to: GCell::new(3, 3) };
        // Saturate the horizontal-first corridor (bottom row).
        for x in 0..3 {
            g.add_usage(g.h_edge(x, 0), 50.0);
        }
        let edges = route_l(&g, seg, CostParams::default());
        // Must take vertical-first: first edge is vertical.
        assert!(!g.is_horizontal(edges[0]));
    }

    #[test]
    fn edge_cost_grows_past_capacity() {
        let mut g = grid();
        let e = g.h_edge(0, 0);
        let p = CostParams::default();
        let before = edge_cost(&g, e, p);
        g.add_usage(e, 10.0); // way past cap of 4
        let after = edge_cost(&g, e, p);
        assert!(after > before * 5.0);
        g.add_history(e, 3.0);
        assert!((edge_cost(&g, e, p) - after - 3.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_conserves_expected_usage() {
        use rdp_gen::{generate, GeneratorConfig};
        let bench = generate(&GeneratorConfig::tiny("est", 5)).unwrap();
        let g = estimate_congestion(&bench.design, &bench.placement);
        let total_usage: f64 = g.edge_ids().map(|e| g.usage(e)).sum();
        // Expected: sum over all segments of their Manhattan length (each
        // length unit deposits exactly 1.0 across the two Ls).
        let mut expected = 0.0;
        for net in bench.design.net_ids() {
            let segs = topology::decompose_net(&bench.design, &bench.placement, &g, net);
            expected += f64::from(topology::total_length(&segs));
        }
        assert!(
            (total_usage - expected).abs() < 1e-6,
            "usage {total_usage} vs expected {expected}"
        );
    }

    #[test]
    fn z_route_has_manhattan_length() {
        let g = grid();
        let seg = Segment { from: GCell::new(0, 0), to: GCell::new(6, 5) };
        let z = route_pattern(&g, seg, CostParams::default());
        assert_eq!(z.len(), 11);
    }

    #[test]
    fn z_pattern_dodges_double_blocked_ls() {
        let mut g = grid();
        let seg = Segment { from: GCell::new(0, 0), to: GCell::new(6, 6) };
        // Block both L corridors near the corners but leave the middle free.
        for x in 0..3 {
            g.add_usage(g.h_edge(x, 0), 50.0); // bottom row start
        }
        for y in 4..6 {
            g.add_usage(g.v_edge(0, y), 50.0); // left column end
        }
        let path = route_pattern(&g, seg, CostParams::default());
        assert_eq!(path.len(), 12, "Z stays at Manhattan length");
        let hot: f64 = path
            .iter()
            .map(|&e| g.usage(e))
            .sum();
        assert_eq!(hot, 0.0, "pattern should avoid all congested edges");
    }

    fn grid3() -> RouteGrid {
        use crate::grid::LayerDir::*;
        RouteGrid::uniform_layers(
            8,
            8,
            Point::ORIGIN,
            10.0,
            10.0,
            &[(Horizontal, 4.0), (Vertical, 4.0), (Horizontal, 4.0), (Vertical, 4.0)],
            None,
        )
    }

    #[test]
    fn pattern3_straight_run_stays_on_the_bottom_layer() {
        let g = grid3();
        let seg = Segment { from: GCell::new(1, 2), to: GCell::new(5, 2) };
        let path = route_pattern3(&g, seg, CostParams::default());
        // Layer 0 is horizontal: no climb needed, 4 planar edges.
        assert_eq!(path.len(), 4);
        assert!(path.iter().all(|&e| !g.is_via(e)));
        assert!(path.iter().all(|&e| g.is_horizontal(e)));
    }

    #[test]
    fn pattern3_vertical_run_pays_the_climb() {
        let g = grid3();
        let seg = Segment { from: GCell::new(2, 1), to: GCell::new(2, 5) };
        let path = route_pattern3(&g, seg, CostParams::default());
        // Must climb to a vertical layer and drop back: 4 planar + 2 vias
        // (layer 1 is the nearest vertical carrier).
        let vias = path.iter().filter(|&&e| g.is_via(e)).count();
        assert_eq!(vias, 2);
        assert_eq!(path.len(), 6);
    }

    #[test]
    fn pattern3_l_route_connects_layers() {
        let g = grid3();
        let seg = Segment { from: GCell::new(0, 0), to: GCell::new(4, 3) };
        let path = route_pattern3(&g, seg, CostParams::default());
        let planar = path.iter().filter(|&&e| !g.is_via(e)).count();
        assert_eq!(planar, 7, "planar length stays at Manhattan distance");
        let vias = path.iter().filter(|&&e| g.is_via(e)).count();
        // H on layer 0, climb to V layer 1, drop back at the end.
        assert_eq!(vias, 2);
    }

    #[test]
    fn pattern3_dodges_a_saturated_layer() {
        let mut g = grid3();
        let seg = Segment { from: GCell::new(1, 3), to: GCell::new(6, 3) };
        // Saturate layer 0 along the whole row; layer 2 (also horizontal)
        // stays free and is worth two extra via stacks.
        for x in 0..7 {
            g.add_usage(g.h_edge_on(0, x, 3), 50.0);
        }
        let path = route_pattern3(&g, seg, CostParams::default());
        let hot: f64 = path.iter().map(|&e| g.usage(e)).sum();
        assert_eq!(hot, 0.0, "pattern must leave the saturated layer");
        // Climb 0→2 and back: 2 levels each way.
        assert_eq!(path.iter().filter(|&&e| g.is_via(e)).count(), 4);
    }

    #[test]
    fn pattern3_zero_segment_is_empty() {
        let g = grid3();
        let zero = Segment { from: GCell::new(2, 2), to: GCell::new(2, 2) };
        assert!(route_pattern3(&g, zero, CostParams::default()).is_empty());
    }

    #[test]
    fn straight_segments_have_no_z() {
        let g = grid();
        let seg = Segment { from: GCell::new(0, 3), to: GCell::new(6, 3) };
        assert_eq!(route_pattern(&g, seg, CostParams::default()).len(), 6);
        let zero = Segment { from: GCell::new(2, 2), to: GCell::new(2, 2) };
        assert!(route_pattern(&g, zero, CostParams::default()).is_empty());
    }
}
