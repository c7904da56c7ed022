//! The negotiation-based global router: pattern-route everything, then
//! rip-up-and-reroute through overflowed edges with growing history costs
//! (the PathFinder/NCTU-GR recipe the contest's scoring router used).
//!
//! The negotiation rounds are deterministic-parallel: each round rips up
//! every segment crossing overflow, snapshots the edge costs once
//! ([`EdgeCosts`]), answers the ripped segments' distinct `(from, to)`
//! requests with one search tree per distinct source cell, in fixed-size
//! chunks of sources on worker threads against that immutable snapshot
//! ([`search_from`]: each path bitwise the canonical A\* path, with a
//! reusable per-worker [`MazeScratch`]), and folds the new paths and
//! usage back in segment order — bitwise identical at every thread count.
//! Overflowed edges are tracked incrementally across rounds instead of
//! rescanning the whole grid.
//!
//! For the placer's inflation loop, where each round moves only a small
//! fraction of cells, [`GlobalRouter::reroute_incremental`] resumes from a
//! previous [`RoutingOutcome`]: only nets with a pin on a moved cell are
//! ripped up and re-seeded (pattern pass against the retained warm grid),
//! and negotiation restarts with the previous run's history costs and
//! overflow set — per-call cost proportional to the perturbation, not the
//! design.

use crate::grid::{EdgeId, RouteGrid};
use crate::maze::{search_from, MazeScratch};
use crate::metrics::CongestionMetrics;
use crate::pattern::{route_pattern, route_pattern3, CostParams, EdgeCosts};
use crate::topology::{decompose_net, Segment};
use rdp_db::{Design, NetId, NodeId, Placement};
use rdp_geom::parallel::{chunk_spans, chunked_map, chunked_map_with, Parallelism};
use std::time::{Duration, Instant};

/// Nets per parallel work chunk in the initial pattern pass. Fixed so the
/// usage merge order never depends on the thread count.
const NET_CHUNK: usize = 128;

/// Distinct source cells per parallel work chunk in a reroute round (each
/// source is one search tree answering all of its requests). Fixed so
/// chunk composition never depends on the thread count. Far smaller than
/// [`NET_CHUNK`] because a search tree is far heavier than a pattern
/// route.
const SOURCE_CHUNK: usize = 4;

/// Retained segments per parallel work chunk in the warm-start partition
/// of [`GlobalRouter::reroute_incremental`]. Much coarser than
/// [`SOURCE_CHUNK`]: the per-segment work is a clone or an edge-id copy, so
/// fine chunks would be all spawn-and-allocate overhead.
const PARTITION_CHUNK: usize = 1024;

/// Usage above capacity by more than this counts as overflow.
const OVERFLOW_EPS: f64 = 1e-9;

/// How the router models the metal stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayerMode {
    /// Collapse all layers into one horizontal + one vertical capacity
    /// per gcell edge (the historical 2-D router). Blockages are still
    /// carved per layer before the collapse.
    #[default]
    Projected,
    /// Route on the full 3-D grid: per-layer directional edges plus via
    /// edges, with layer assignment done by the router. A *degenerate*
    /// spec (exactly one layer per direction) collapses back to the
    /// projected grid, where the two modes provably coincide — that
    /// collapse is what makes the 2-D equivalence fence structural
    /// rather than numerical.
    Layered,
}

/// Tuning knobs of [`GlobalRouter`].
///
/// The struct is `#[non_exhaustive]`: build it with
/// [`RouterConfig::builder`] (or start from [`RouterConfig::default`] and
/// assign fields) so new options can land without breaking callers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RouterConfig {
    /// Maximum rip-up-and-reroute rounds after the initial pattern pass.
    pub max_iterations: usize,
    /// History cost added to each still-overflowed edge at the end of a
    /// round (skipped when the round converged).
    pub history_increment: f64,
    /// Edge-cost parameters.
    pub cost: CostParams,
    /// Worker threads for the pattern pass and the reroute rounds
    /// (results are identical at every thread count; see
    /// [`rdp_geom::parallel`]).
    pub parallelism: Parallelism,
    /// History *aging* factor a warm start applies to the retained
    /// history costs before resuming negotiation
    /// ([`GlobalRouter::reroute_incremental`] only; a fresh
    /// [`GlobalRouter::route`] starts at zero history regardless).
    /// `1.0` trusts the old congestion evidence verbatim — empirically
    /// bad after a placement change, because saturated history from the
    /// previous run forces detours around congestion that no longer
    /// exists. `0.0` discards it. The default discounts it.
    pub history_decay: f64,
    /// Wall-clock budget for the negotiation loop. When it expires the
    /// router stops cleanly at a round boundary and returns its current
    /// (possibly still overflowed) state with
    /// [`RoutingOutcome::budget_truncated`] set. `None` (the default) is
    /// unlimited. A run that converges before the budget expires is never
    /// marked truncated.
    pub time_budget: Option<Duration>,
    /// Whether to route on the collapsed 2-D grid or the full layered
    /// 3-D grid (see [`LayerMode`]).
    pub layers: LayerMode,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_iterations: 6,
            history_increment: 1.5,
            cost: CostParams::default(),
            parallelism: Parallelism::auto(),
            history_decay: 0.1,
            time_budget: None,
            layers: LayerMode::default(),
        }
    }
}

impl RouterConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder::default()
    }

    /// Starts a builder from this configuration (for tweaking a copy).
    pub fn to_builder(self) -> RouterConfigBuilder {
        RouterConfigBuilder { config: self }
    }
}

/// Builder for [`RouterConfig`] — the supported way to construct one now
/// that the struct is `#[non_exhaustive]`.
///
/// # Examples
///
/// ```
/// use rdp_route::{LayerMode, RouterConfig};
/// use std::time::Duration;
///
/// let config = RouterConfig::builder()
///     .rounds(4)
///     .time_budget(Duration::from_secs(30))
///     .layers(LayerMode::Layered)
///     .build();
/// assert_eq!(config.max_iterations, 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouterConfigBuilder {
    config: RouterConfig,
}

impl RouterConfigBuilder {
    /// Maximum rip-up-and-reroute rounds (`max_iterations`).
    pub fn rounds(mut self, n: usize) -> Self {
        self.config.max_iterations = n;
        self
    }

    /// History cost added to still-overflowed edges each round.
    pub fn history_increment(mut self, amount: f64) -> Self {
        self.config.history_increment = amount;
        self
    }

    /// Edge-cost parameters.
    pub fn cost(mut self, cost: CostParams) -> Self {
        self.config.cost = cost;
        self
    }

    /// Worker-thread policy.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.config.parallelism = par;
        self
    }

    /// Shorthand for an explicit worker-thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.config.parallelism = Parallelism::new(n);
        self
    }

    /// History aging factor applied on warm starts.
    pub fn history_decay(mut self, factor: f64) -> Self {
        self.config.history_decay = factor;
        self
    }

    /// Wall-clock budget for the negotiation loop. Accepts a bare
    /// `Duration` or an `Option<Duration>`.
    pub fn time_budget(mut self, budget: impl Into<Option<Duration>>) -> Self {
        self.config.time_budget = budget.into();
        self
    }

    /// Metal-stack model (2-D projected vs 3-D layered).
    pub fn layers(mut self, mode: LayerMode) -> Self {
        self.config.layers = mode;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> RouterConfig {
        self.config
    }
}

/// One routed two-pin segment: the request and its current path.
#[derive(Debug, Clone)]
pub struct RoutedSegment {
    /// The net this segment belongs to.
    pub net: NetId,
    /// The two-pin request (gcell endpoints).
    pub segment: Segment,
    /// The grid edges of the segment's current path.
    pub edges: Vec<EdgeId>,
}

/// Result of a routing run.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// The grid with final usage (and accumulated history).
    pub grid: RouteGrid,
    /// Congestion metrics of the final usage.
    pub metrics: CongestionMetrics,
    /// Rip-up rounds actually executed.
    pub iterations: usize,
    /// Number of two-pin segments routed.
    pub num_segments: usize,
    /// Routed length (planar gcell edges used; via hops excluded) per
    /// net, indexed by [`NetId::index`](rdp_db::NetId::index).
    pub net_lengths: Vec<u32>,
    /// Wall-clock of the initial pattern pass (for
    /// [`GlobalRouter::reroute_incremental`]: the rip-up + re-pattern
    /// phase).
    pub pattern_elapsed: Duration,
    /// Wall-clock of all negotiation (rip-up-and-reroute) rounds.
    pub negotiation_elapsed: Duration,
    /// Every routed segment with its final path — the warm state a later
    /// [`GlobalRouter::reroute_incremental`] call resumes from.
    pub segments: Vec<RoutedSegment>,
    /// Sorted ids of the edges still overflowed when routing stopped
    /// (empty exactly when the run converged). Seeds the incremental
    /// overflow set of a follow-up [`GlobalRouter::reroute_incremental`].
    pub overflowed: Vec<u32>,
    /// Nets whose segments this call (re)routed: every net for
    /// [`GlobalRouter::route`], the dirty-net count for
    /// [`GlobalRouter::reroute_incremental`].
    pub dirty_nets: usize,
    /// Whether [`RouterConfig::time_budget`] expired and truncated the
    /// negotiation loop before it converged or reached `max_iterations`.
    pub budget_truncated: bool,
}

/// The set of currently overflowed edges, maintained incrementally: after
/// the one full scan following the pattern pass, membership is refreshed
/// only for edges whose usage actually changed during a round.
struct OverflowSet {
    /// Membership flags, indexed by edge id.
    flags: Vec<bool>,
    /// Sorted ids of the overflowed edges.
    list: Vec<u32>,
    /// Whether an edge is in `touched`, indexed by edge id.
    seen: Vec<bool>,
    /// The distinct edges whose usage changed since the last
    /// [`OverflowSet::update`], in first-touch order.
    touched: Vec<u32>,
}

impl OverflowSet {
    /// Full scan (done once, after the pattern pass) — over **all** edges,
    /// planar and via, so capacitated via levels negotiate too.
    fn scan(grid: &RouteGrid) -> Self {
        let flags: Vec<bool> = (0..grid.num_edges() as u32)
            .map(|e| grid.overflow(EdgeId(e)) > OVERFLOW_EPS)
            .collect();
        let list = flags
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f)
            .map(|(i, _)| i as u32)
            .collect();
        let seen = vec![false; flags.len()];
        OverflowSet {
            flags,
            list,
            seen,
            touched: Vec::new(),
        }
    }

    /// Rebuilds the set from a sorted membership list saved by a previous
    /// run (see [`RoutingOutcome::overflowed`]) — no grid scan.
    fn from_list(num_edges: usize, list: Vec<u32>) -> Self {
        let mut flags = vec![false; num_edges];
        for &e in &list {
            flags[e as usize] = true;
        }
        OverflowSet {
            flags,
            list,
            seen: vec![false; num_edges],
            touched: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    #[inline]
    fn contains(&self, e: EdgeId) -> bool {
        self.flags[e.0 as usize]
    }

    /// Records that the usage of `e` changed. A busy round changes each
    /// edge's usage many times over (easily 100× the edge count), so the
    /// edge is kept once, the first time.
    #[inline]
    fn touch(&mut self, e: EdgeId) {
        if !std::mem::replace(&mut self.seen[e.0 as usize], true) {
            self.touched.push(e.0);
        }
    }

    /// Refreshes membership for the edges touched since the last call and
    /// rebuilds the sorted list by merging them with the old one —
    /// O(touched·log + |list|) over distinct edges, never a full grid scan.
    fn update(&mut self, grid: &RouteGrid) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        for &e in &touched {
            self.seen[e as usize] = false;
            self.flags[e as usize] = grid.overflow(EdgeId(e)) > OVERFLOW_EPS;
        }
        let mut merged = Vec::with_capacity(self.list.len() + touched.len());
        let (mut i, mut j) = (0, 0);
        while i < self.list.len() || j < touched.len() {
            let next = match (self.list.get(i), touched.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                    a
                }
                (Some(&a), Some(&b)) if a < b => {
                    i += 1;
                    a
                }
                (Some(_), Some(&b)) => {
                    j += 1;
                    b
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => unreachable!(),
            };
            if self.flags[next as usize] {
                merged.push(next);
            }
        }
        self.list = merged;
        touched.clear();
        self.touched = touched;
    }
}

/// A negotiation-based global router, 2-D (projected) or 3-D (layered)
/// depending on [`RouterConfig::layers`].
///
/// # Examples
///
/// ```
/// use rdp_gen::{generate, GeneratorConfig};
/// use rdp_route::{GlobalRouter, RouterConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = generate(&GeneratorConfig::tiny("gr", 3))?;
/// let outcome = GlobalRouter::new(RouterConfig::builder().rounds(4).build())
///     .route(&bench.design, &bench.placement);
/// assert!(outcome.num_segments > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalRouter {
    config: RouterConfig,
}

impl GlobalRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: RouterConfig) -> Self {
        GlobalRouter { config }
    }

    /// Builds the routing grid for the configured [`LayerMode`]. A
    /// layered build that comes out degenerate (one layer per direction)
    /// collapses to its 2-D projection, so from there on the two modes
    /// execute the *same* code path and produce bitwise-equal results.
    fn build_grid(&self, design: &Design, placement: &Placement) -> RouteGrid {
        match self.config.layers {
            LayerMode::Projected => RouteGrid::from_design(design, placement),
            LayerMode::Layered => {
                let grid = RouteGrid::from_design_3d(design, placement);
                if grid.is_degenerate() {
                    grid.project_2d()
                } else {
                    grid
                }
            }
        }
    }

    /// Routes all nets of `design` at `placement`.
    pub fn route(&self, design: &Design, placement: &Placement) -> RoutingOutcome {
        let t_pattern = Instant::now();
        let mut grid = self.build_grid(design, placement);
        let use3d = grid.has_vias();

        // Initial pattern pass. Every segment is routed against the
        // empty-usage grid snapshot (rather than the usage accumulated by
        // earlier nets): chunks of nets then route independently on worker
        // threads and their usage merges in net order, so the pass is
        // bitwise identical at every thread count. The negotiation rounds
        // below are what resolves inter-net contention anyway.
        let nets: Vec<NetId> = design.net_ids().collect();
        let spans: Vec<_> = chunk_spans(nets.len(), NET_CHUNK).collect();
        let partials = {
            let g: &RouteGrid = &grid;
            chunked_map(&self.config.parallelism, spans.len(), |ci| {
                let mut out: Vec<RoutedSegment> = Vec::new();
                for &net in &nets[spans[ci].clone()] {
                    for segment in decompose_net(design, placement, g, net) {
                        let edges = if use3d {
                            route_pattern3(g, segment, self.config.cost)
                        } else {
                            route_pattern(g, segment, self.config.cost)
                        };
                        out.push(RoutedSegment { net, segment, edges });
                    }
                }
                out
            })
        };
        let mut routed: Vec<RoutedSegment> = partials.into_iter().flatten().collect();
        for rs in &routed {
            for &e in &rs.edges {
                grid.add_usage(e, 1.0);
            }
        }
        let pattern_elapsed = t_pattern.elapsed();

        // Negotiation rounds: deterministic-parallel rip-up-and-reroute.
        let t_negotiation = Instant::now();
        let mut overflow = OverflowSet::scan(&grid);
        let (iterations, budget_truncated) = self.negotiate(&mut grid, &mut routed, &mut overflow);
        let negotiation_elapsed = t_negotiation.elapsed();

        let dirty_nets = design.nets().len();
        self.finish_outcome(
            design,
            grid,
            routed,
            overflow,
            iterations,
            dirty_nets,
            pattern_elapsed,
            negotiation_elapsed,
            budget_truncated,
        )
    }

    /// Resumes routing from a previous outcome after a placement
    /// perturbation that moved only `moved` cells.
    ///
    /// The warm-start protocol, in order:
    ///
    /// 1. **Dirty-net set.** A net is dirty iff it has a pin on a moved
    ///    cell (O(moved · degree) via [`Design::nets_of_cell`]). `moved`
    ///    must list every cell whose position differs between the
    ///    placement `prev` was routed at and `placement` — omissions leave
    ///    stale paths in the outcome.
    /// 2. **Rip-up.** Only dirty segments are ripped: their usage is
    ///    decremented in the grid retained from `prev` (history costs are
    ///    kept — that is the warm start). Clean segments keep their paths
    ///    verbatim, in their previous order.
    /// 3. **Re-seed.** Dirty nets are re-decomposed at `placement` and
    ///    pattern-routed against the frozen warm grid, in net-id order and
    ///    fixed-size chunks, so the pass is bitwise identical at every
    ///    thread count.
    /// 4. **Negotiation.** The overflow set is rebuilt from
    ///    [`RoutingOutcome::overflowed`] plus the edges touched in steps
    ///    2–3 (a sorted merge, never a grid scan), and the usual rounds
    ///    run on the combined clean + dirty segment list.
    ///
    /// When every net is dirty there is no reusable warm state, so the
    /// call falls back to a fresh [`GlobalRouter::route`] — which also
    /// makes the all-cells-moved case bitwise identical to routing from
    /// scratch (retained history would otherwise perturb costs).
    pub fn reroute_incremental(
        &self,
        prev: &RoutingOutcome,
        design: &Design,
        placement: &Placement,
        moved: &[NodeId],
    ) -> RoutingOutcome {
        // Step 1: dirty-net set from the moved cells.
        let mut dirty = vec![false; design.nets().len()];
        let mut dirty_count = 0usize;
        for &cell in moved {
            for &net in design.nets_of_cell(cell) {
                if !dirty[net.index()] {
                    dirty[net.index()] = true;
                    dirty_count += 1;
                }
            }
        }
        if dirty_count == design.nets().len() {
            return self.route(design, placement);
        }

        let t_pattern = Instant::now();
        let mut grid = prev.grid.clone();
        // The retained grid decides the mode: a warm start must speak the
        // same edge-id language as the outcome it resumes from, whatever
        // the current config says.
        let use3d = grid.has_vias();
        // Age the retained history: the placement changed, so the old
        // congestion evidence is a prior, not a fact.
        grid.scale_history(self.config.history_decay);

        // Step 2: rip up dirty segments (freeing their usage in the warm
        // grid), keep clean ones verbatim in their previous order. The
        // partition (and the clean-path clones it implies) is chunked
        // across workers; the fold below walks chunks in order, so the
        // retained sequence and the usage updates are thread-invariant.
        let spans: Vec<_> = chunk_spans(prev.segments.len(), PARTITION_CHUNK).collect();
        let parts: Vec<(Vec<RoutedSegment>, Vec<u32>)> = {
            let dirty = &dirty;
            let segs = &prev.segments;
            chunked_map(&self.config.parallelism, spans.len(), |ci| {
                let span = spans[ci].clone();
                let mut clean: Vec<RoutedSegment> = Vec::with_capacity(span.len());
                let mut ripped: Vec<u32> = Vec::new();
                for rs in &segs[span] {
                    if dirty[rs.net.index()] {
                        ripped.extend(rs.edges.iter().map(|e| e.0));
                    } else {
                        clean.push(rs.clone());
                    }
                }
                (clean, ripped)
            })
        };
        // Seeded with the previous overflow set; the edges touched below
        // are merged in before the negotiation.
        let mut overflow = OverflowSet::from_list(grid.num_edges(), prev.overflowed.clone());
        let mut routed: Vec<RoutedSegment> = Vec::with_capacity(prev.segments.len());
        for (clean, ripped) in parts {
            for &e in &ripped {
                grid.add_usage(EdgeId(e), -1.0);
                overflow.touch(EdgeId(e));
            }
            routed.extend(clean);
        }

        // Step 3: re-decompose and pattern-route the dirty nets at the new
        // placement, against the frozen warm grid (usage of the retained
        // clean paths plus `prev`'s history), in net-id order.
        let dirty_ids: Vec<NetId> = design.net_ids().filter(|n| dirty[n.index()]).collect();
        let spans: Vec<_> = chunk_spans(dirty_ids.len(), NET_CHUNK).collect();
        let partials = {
            let g: &RouteGrid = &grid;
            chunked_map(&self.config.parallelism, spans.len(), |ci| {
                let mut out: Vec<RoutedSegment> = Vec::new();
                for &net in &dirty_ids[spans[ci].clone()] {
                    for segment in decompose_net(design, placement, g, net) {
                        let edges = if use3d {
                            route_pattern3(g, segment, self.config.cost)
                        } else {
                            route_pattern(g, segment, self.config.cost)
                        };
                        out.push(RoutedSegment { net, segment, edges });
                    }
                }
                out
            })
        };
        for rs in partials.into_iter().flatten() {
            for &e in &rs.edges {
                grid.add_usage(e, 1.0);
                overflow.touch(e);
            }
            routed.push(rs);
        }
        let pattern_elapsed = t_pattern.elapsed();

        // Step 4: negotiation seeded with the previous overflow set merged
        // with every edge whose usage changed above.
        let t_negotiation = Instant::now();
        overflow.update(&grid);
        let (iterations, budget_truncated) = self.negotiate(&mut grid, &mut routed, &mut overflow);
        let negotiation_elapsed = t_negotiation.elapsed();

        self.finish_outcome(
            design,
            grid,
            routed,
            overflow,
            iterations,
            dirty_count,
            pattern_elapsed,
            negotiation_elapsed,
            budget_truncated,
        )
    }

    /// The negotiation rounds (rip up everything crossing overflow,
    /// snapshot costs, reroute in deterministic chunks, fold in order),
    /// run to convergence, `max_iterations`, or
    /// [`RouterConfig::time_budget`] expiry. Returns the number of rounds
    /// executed and whether the budget truncated the loop.
    fn negotiate(
        &self,
        grid: &mut RouteGrid,
        routed: &mut [RoutedSegment],
        overflow: &mut OverflowSet,
    ) -> (usize, bool) {
        let deadline = self.config.time_budget.map(|b| Instant::now() + b);
        let mut iterations = 0;
        // A segment's endpoints never change during the negotiation, so
        // the segments are sorted by request once, and each round picks
        // its ripped ones out of that order instead of sorting again.
        let order = request_order(routed);
        let mut is_ripped = vec![false; routed.len()];
        let mut slot = vec![0u32; routed.len()];
        for _ in 0..self.config.max_iterations {
            if overflow.is_empty() {
                break;
            }
            // Budget check only while work remains (after the convergence
            // check above), so a converged run is never marked truncated.
            // Rounds are never interrupted mid-flight: truncation lands on
            // a round boundary and leaves a fully consistent grid +
            // segment state, just with residual overflow.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return (iterations, true);
            }
            iterations += 1;

            // Rip up every segment crossing an overflowed edge. Usage is
            // decremented for *all* of them before the cost snapshot is
            // taken, so each reroute prices the freed capacity correctly.
            let ripped: Vec<usize> = routed
                .iter()
                .enumerate()
                .filter(|(_, rs)| rs.edges.iter().any(|&e| overflow.contains(e)))
                .map(|(i, _)| i)
                .collect();
            if ripped.is_empty() {
                break; // overflow not attributable to any segment
            }
            for &i in &ripped {
                for &e in &routed[i].edges {
                    grid.add_usage(e, -1.0);
                    overflow.touch(e);
                }
            }

            // Per-round cost snapshot: usage/history/capacity are frozen
            // for the whole round, so every heap relaxation in the maze
            // search is a single array load.
            let costs = EdgeCosts::build_par(grid, self.config.cost, &self.config.parallelism);

            // Each path is a pure function of the frozen costs and its two
            // endpoints, and a congested round repeats many requests. So
            // the round's distinct `(from, to)` pairs, sorted, are answered
            // once each; the sort puts requests from one source next to
            // each other, and one search tree per source answers them all.
            // Sources go in fixed-size chunks against the round-start
            // snapshot; each worker reuses one scratch for all its trees.
            // The paths are folded back in segment order below, so the
            // round is bitwise identical at every thread count.
            let requests = distinct_requests(&order, &ripped, &mut is_ripped, &mut slot);
            let runs = source_runs(&requests);
            let run_spans: Vec<_> = chunk_spans(runs.len(), SOURCE_CHUNK).collect();
            let rerouted: Vec<Vec<Vec<EdgeId>>> = {
                let g: &RouteGrid = grid;
                let costs = &costs;
                chunked_map_with(
                    &self.config.parallelism,
                    run_spans.len(),
                    || (MazeScratch::new(), Vec::new()),
                    |(scratch, targets), ci| {
                        let mut paths = Vec::new();
                        for run in &runs[run_spans[ci].clone()] {
                            let run = &requests[run.clone()];
                            targets.clear();
                            targets.extend(run.iter().map(|s| s.to));
                            paths.extend(search_from(g, costs, run[0].from, targets, scratch));
                        }
                        paths
                    },
                )
            };
            let mut paths: Vec<Vec<EdgeId>> = rerouted.into_iter().flatten().collect();
            // Uses left per path: earlier segments sharing a path copy it
            // into their own old edge buffer (no new allocation), the last
            // one takes it, so the path table empties as the fold goes.
            let mut uses = vec![0u32; paths.len()];
            for &i in &ripped {
                uses[slot[i] as usize] += 1;
            }
            for &i in &ripped {
                let u = slot[i] as usize;
                uses[u] -= 1;
                let edges = &mut routed[i].edges;
                if uses[u] == 0 {
                    *edges = std::mem::take(&mut paths[u]);
                } else {
                    edges.clone_from(&paths[u]);
                }
                for &e in edges.iter() {
                    grid.add_usage(e, 1.0);
                    overflow.touch(e);
                }
            }

            // Incremental overflow maintenance: only edges whose usage
            // changed this round can have changed state.
            overflow.update(grid);

            // Grow history on the still-overflowed edges so repeated
            // offenders get progressively more expensive next round —
            // skipped entirely when the round converged.
            if !overflow.is_empty() {
                for &e in &overflow.list {
                    grid.add_history(EdgeId(e), self.config.history_increment);
                }
            }
        }
        (iterations, false)
    }

    /// Assembles the final [`RoutingOutcome`] from the post-negotiation
    /// state (shared by [`GlobalRouter::route`] and
    /// [`GlobalRouter::reroute_incremental`]).
    #[allow(clippy::too_many_arguments)]
    fn finish_outcome(
        &self,
        design: &Design,
        grid: RouteGrid,
        routed: Vec<RoutedSegment>,
        overflow: OverflowSet,
        iterations: usize,
        dirty_nets: usize,
        pattern_elapsed: Duration,
        negotiation_elapsed: Duration,
        budget_truncated: bool,
    ) -> RoutingOutcome {
        // Net length counts *planar* edges only (gcell distance traveled);
        // via hops are congestion, not wirelength. On a projected grid
        // every edge is planar, so this matches the historical count.
        let mut net_lengths = vec![0u32; design.nets().len()];
        for rs in &routed {
            net_lengths[rs.net.index()] +=
                rs.edges.iter().filter(|&&e| !grid.is_via(e)).count() as u32;
        }

        let metrics = CongestionMetrics::of(&grid);
        RoutingOutcome {
            metrics,
            iterations,
            num_segments: routed.len(),
            net_lengths,
            pattern_elapsed,
            negotiation_elapsed,
            overflowed: overflow.list,
            segments: routed,
            dirty_nets,
            budget_truncated,
            grid,
        }
    }
}

/// Every segment's request with the segment's index, sorted by `(from,
/// to)`: requests from one source sit next to each other.
fn request_order(routed: &[RoutedSegment]) -> Vec<(Segment, u32)> {
    let mut order: Vec<(Segment, u32)> =
        routed.iter().enumerate().map(|(i, rs)| (rs.segment, i as u32)).collect();
    order.sort_unstable_by_key(|&(s, _)| (s.from, s.to));
    order
}

/// The distinct requests of the `ripped` segments, in the sorted `order`
/// of [`request_order`], and for each ripped segment `i` the index of its
/// request in `slot[i]` (other entries of `slot` are left as they were).
/// `is_ripped` is scratch: all `false` on entry and on return.
fn distinct_requests(
    order: &[(Segment, u32)],
    ripped: &[usize],
    is_ripped: &mut [bool],
    slot: &mut [u32],
) -> Vec<Segment> {
    for &i in ripped {
        is_ripped[i] = true;
    }
    let mut requests: Vec<Segment> = Vec::new();
    for &(s, i) in order {
        if std::mem::take(&mut is_ripped[i as usize]) {
            if requests.last() != Some(&s) {
                requests.push(s);
            }
            slot[i as usize] = (requests.len() - 1) as u32;
        }
    }
    requests
}

/// The runs of equal `from` in the sorted `requests`, as index ranges.
fn source_runs(requests: &[Segment]) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for k in 1..=requests.len() {
        if k == requests.len() || requests[k].from != requests[start].from {
            runs.push(start..k);
            start = k;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_gen::{generate, GeneratorConfig};

    #[test]
    fn routes_a_generated_design() {
        let bench = generate(&GeneratorConfig::tiny("r1", 7)).unwrap();
        let out = GlobalRouter::new(RouterConfig::default()).route(&bench.design, &bench.placement);
        assert!(out.num_segments > 0);
        assert!(out.metrics.total_usage > 0.0);
        // Usage conservation: every segment contributes exactly its path.
        let grid_usage: f64 = out.grid.edge_ids().map(|e| out.grid.usage(e)).sum();
        assert!((grid_usage - out.metrics.total_usage).abs() < 1e-6);
        // Per-net lengths sum to the total usage.
        let per_net: u32 = out.net_lengths.iter().sum();
        assert!((f64::from(per_net) - out.metrics.total_usage).abs() < 1e-6);
        assert_eq!(out.net_lengths.len(), bench.design.nets().len());
    }

    #[test]
    fn negotiation_reduces_overflow() {
        // All movers at the die center = maximal congestion; negotiation
        // must strictly reduce overflow vs the pattern-only pass.
        let bench = generate(&GeneratorConfig::tiny("r2", 8)).unwrap();
        let pattern_only = GlobalRouter::new(RouterConfig::builder().rounds(0).build())
            .route(&bench.design, &bench.placement);
        let negotiated =
            GlobalRouter::new(RouterConfig::default()).route(&bench.design, &bench.placement);
        assert!(
            negotiated.metrics.total_overflow <= pattern_only.metrics.total_overflow,
            "negotiation made overflow worse: {} vs {}",
            negotiated.metrics.total_overflow,
            pattern_only.metrics.total_overflow
        );
    }

    #[test]
    fn clean_design_converges_without_iterations() {
        // Tiny design with huge capacity: zero overflow, no negotiation.
        let mut cfg = GeneratorConfig::tiny("r3", 9);
        cfg.route.tracks_per_edge_h = 10_000.0;
        cfg.route.tracks_per_edge_v = 10_000.0;
        let bench = generate(&cfg).unwrap();
        let out = GlobalRouter::new(RouterConfig::default()).route(&bench.design, &bench.placement);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.metrics.total_overflow, 0.0);
        assert!(out.metrics.rc < 100.0);
    }

    #[test]
    fn zero_budget_truncates_cleanly_on_congested_design() {
        // Supply-tight capacities = guaranteed overflow, so negotiation
        // has work to do; a zero budget must stop before any round, flag
        // the truncation, and still return a fully consistent outcome.
        let mut cfg = GeneratorConfig::tiny("rb1", 8);
        cfg.route.tracks_per_edge_h = 1.0;
        cfg.route.tracks_per_edge_v = 1.0;
        let bench = generate(&cfg).unwrap();
        let out = GlobalRouter::new(RouterConfig::builder().time_budget(Duration::ZERO).build())
            .route(&bench.design, &bench.placement);
        assert!(out.budget_truncated);
        assert_eq!(out.iterations, 0);
        assert!(out.metrics.total_overflow > 0.0, "expected residual overflow");
        assert_eq!(out.grid.non_finite_edges(), 0);
        // Usage is still conserved: the truncation landed on a round boundary.
        let grid_usage: f64 = out.grid.edge_ids().map(|e| out.grid.usage(e)).sum();
        assert!((grid_usage - out.metrics.total_usage).abs() < 1e-6);
    }

    #[test]
    fn converged_run_is_not_marked_truncated() {
        let mut cfg = GeneratorConfig::tiny("rb2", 9);
        cfg.route.tracks_per_edge_h = 10_000.0;
        cfg.route.tracks_per_edge_v = 10_000.0;
        let bench = generate(&cfg).unwrap();
        let out = GlobalRouter::new(RouterConfig::builder().time_budget(Duration::ZERO).build())
            .route(&bench.design, &bench.placement);
        assert!(!out.budget_truncated, "converged run must not report truncation");
        assert_eq!(out.metrics.total_overflow, 0.0);
    }

    #[test]
    fn layered_mode_routes_with_vias() {
        // The tiny generator spec has 4 layers (2 H + 2 V), so Layered
        // mode keeps the full 3-D grid.
        let bench = generate(&GeneratorConfig::tiny("r3d", 7)).unwrap();
        let out = GlobalRouter::new(RouterConfig::builder().layers(LayerMode::Layered).build())
            .route(&bench.design, &bench.placement);
        assert!(out.grid.has_vias());
        assert_eq!(out.metrics.per_layer.len(), 4);
        assert!(out.metrics.via_usage > 0.0, "multi-layer paths must use vias");
        // Usage conservation, via edges included: planar + via usage
        // equals the total edge count over all segment paths.
        let deposited: usize = out.segments.iter().map(|rs| rs.edges.len()).sum();
        let grid_usage: f64 = (0..out.grid.num_edges())
            .map(|i| out.grid.usage(EdgeId(i as u32)))
            .sum();
        assert!((grid_usage - deposited as f64).abs() < 1e-6);
        // net_lengths counts planar edges only.
        let per_net: u32 = out.net_lengths.iter().sum();
        assert!((f64::from(per_net) - out.metrics.total_usage).abs() < 1e-6);
        assert_eq!(out.grid.non_finite_edges(), 0);
    }

    #[test]
    fn deterministic_outcome() {
        let bench = generate(&GeneratorConfig::tiny("r4", 10)).unwrap();
        let a = GlobalRouter::new(RouterConfig::default()).route(&bench.design, &bench.placement);
        let b = GlobalRouter::new(RouterConfig::default()).route(&bench.design, &bench.placement);
        assert_eq!(a.metrics.rc, b.metrics.rc);
        assert_eq!(a.metrics.total_overflow, b.metrics.total_overflow);
    }
}
