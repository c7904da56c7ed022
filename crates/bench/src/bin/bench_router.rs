//! Threads-and-grid-size sweep of the global router, focused on the
//! negotiation (rip-up-and-reroute) phase that PR 2 parallelized.
//!
//! For each design size and each thread count in {1, 2, 4, 8} the harness
//! routes the design, records the pattern-pass and negotiation wall-clock
//! separately, and verifies the outcome is **bitwise identical** across
//! thread counts. It also replays the PR-1 era serial negotiation loop
//! (full-grid A\* with per-segment allocation and per-relaxation cost
//! recomputation) as the reference baseline, and
//! writes `target/experiments/BENCH_router.json` (same schema as
//! `BENCH_parallel.json`).
//!
//! `--smoke` shrinks the sweep for quick verification.

use rdp_gen::{generate, GeneratorConfig};
use rdp_route::pattern::{edge_cost, route_pattern, CostParams};
use rdp_route::topology::{decompose_net, Segment};
use rdp_route::{EdgeId, GCell, GlobalRouter, RouteGrid, RouterConfig, RoutingOutcome};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Order-stable fingerprint of a routing outcome: every quantity the
/// contest score depends on.
fn fingerprint(out: &RoutingOutcome) -> (u64, u64, Vec<u32>, u64) {
    let usage_bits = {
        let mut acc = 0.0f64;
        for e in out.grid.edge_ids() {
            acc += out.grid.usage(e);
        }
        acc.to_bits()
    };
    (
        out.metrics.rc.to_bits(),
        out.metrics.total_overflow.to_bits(),
        out.net_lengths.clone(),
        usage_bits,
    )
}

// ---------------------------------------------------------------------
// PR-1 reference implementation: the fully serial negotiation loop with
// per-segment allocation, whole-grid search and per-relaxation
// `edge_cost` calls. Kept here (not in the library) purely as the
// benchmark baseline.
// ---------------------------------------------------------------------

struct LegacyHeapEntry {
    f: f64,
    g: f64,
    cell: GCell,
}

impl PartialEq for LegacyHeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for LegacyHeapEntry {}
impl Ord for LegacyHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.g.total_cmp(&other.g))
            .then_with(|| other.cell.cmp(&self.cell))
    }
}
impl PartialOrd for LegacyHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The PR-1 maze search: fresh O(grid) vectors per call, whole-grid A*,
/// `edge_cost` recomputed at every relaxation, early exit at target pop.
fn legacy_route_maze(grid: &RouteGrid, from: GCell, to: GCell, params: CostParams) -> Vec<EdgeId> {
    if from == to {
        return Vec::new();
    }
    let nx = grid.nx();
    let ny = grid.ny();
    let idx = |c: GCell| (c.y * nx + c.x) as usize;
    let mut best_g = vec![f64::INFINITY; (nx * ny) as usize];
    let mut parent: Vec<Option<GCell>> = vec![None; (nx * ny) as usize];
    let mut heap = BinaryHeap::new();
    best_g[idx(from)] = 0.0;
    heap.push(LegacyHeapEntry { f: f64::from(from.manhattan(to)), g: 0.0, cell: from });
    while let Some(LegacyHeapEntry { g, cell, .. }) = heap.pop() {
        if cell == to {
            break;
        }
        if g > best_g[idx(cell)] {
            continue;
        }
        let relax = |n: GCell, heap: &mut BinaryHeap<LegacyHeapEntry>,
                             best_g: &mut [f64],
                             parent: &mut [Option<GCell>]| {
            let e = grid.edge_between(cell, n).expect("adjacent");
            let ng = g + edge_cost(grid, e, params);
            if ng < best_g[idx(n)] {
                best_g[idx(n)] = ng;
                parent[idx(n)] = Some(cell);
                heap.push(LegacyHeapEntry { f: ng + f64::from(n.manhattan(to)), g: ng, cell: n });
            }
        };
        if cell.x > 0 {
            relax(GCell::new(cell.x - 1, cell.y), &mut heap, &mut best_g, &mut parent);
        }
        if cell.x + 1 < nx {
            relax(GCell::new(cell.x + 1, cell.y), &mut heap, &mut best_g, &mut parent);
        }
        if cell.y > 0 {
            relax(GCell::new(cell.x, cell.y - 1), &mut heap, &mut best_g, &mut parent);
        }
        if cell.y + 1 < ny {
            relax(GCell::new(cell.x, cell.y + 1), &mut heap, &mut best_g, &mut parent);
        }
    }
    let mut edges = Vec::new();
    let mut cur = to;
    while let Some(prev) = parent[idx(cur)] {
        edges.push(grid.edge_between(prev, cur).expect("path edges are adjacent"));
        cur = prev;
        if cur == from {
            break;
        }
    }
    edges.reverse();
    edges
}

/// The PR-1 serial router: pattern pass against the empty grid, then the
/// serial negotiation loop (full overflow rescan, history bump up front,
/// in-place sequential reroute). Returns (pattern, negotiation) times.
fn legacy_route(
    design: &rdp_db::Design,
    placement: &rdp_db::Placement,
    cfg: &RouterConfig,
) -> (Duration, Duration, usize) {
    let t0 = Instant::now();
    let mut grid = RouteGrid::from_design(design, placement);
    let mut routed: Vec<(Segment, Vec<EdgeId>)> = Vec::new();
    for net in design.net_ids() {
        for segment in decompose_net(design, placement, &grid, net) {
            let edges = route_pattern(&grid, segment, cfg.cost);
            routed.push((segment, edges));
        }
    }
    for (_, edges) in &routed {
        for &e in edges {
            grid.add_usage(e, 1.0);
        }
    }
    let pattern = t0.elapsed();

    let t1 = Instant::now();
    let mut iterations = 0;
    for _ in 0..cfg.max_iterations {
        let overflowed: Vec<bool> = grid.edge_ids().map(|e| grid.overflow(e) > 1e-9).collect();
        if !overflowed.iter().any(|&b| b) {
            break;
        }
        iterations += 1;
        for (i, &over) in overflowed.iter().enumerate() {
            if over {
                grid.add_history(EdgeId(i as u32), cfg.history_increment);
            }
        }
        for (segment, edges) in &mut routed {
            if !edges.iter().any(|e| overflowed[e.0 as usize]) {
                continue;
            }
            for &e in edges.iter() {
                grid.add_usage(e, -1.0);
            }
            *edges = legacy_route_maze(&grid, segment.from, segment.to, cfg.cost);
            for &e in edges.iter() {
                grid.add_usage(e, 1.0);
            }
        }
    }
    (pattern, t1.elapsed(), iterations)
}

struct KernelRow {
    name: String,
    /// Per-call time per entry of [`THREADS`].
    times: Vec<Duration>,
}

impl KernelRow {
    fn speedup(&self, i: usize) -> f64 {
        self.times[0].as_secs_f64() / self.times[i].as_secs_f64().max(1e-12)
    }
}

fn main() {
    let args = rdp_bench::parse_args();
    let sizes: Vec<usize> = if args.smoke { vec![2_000] } else { vec![10_000, 20_000] };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut legacy_lines: Vec<String> = Vec::new();
    let mut speedup_vs_legacy_8t = f64::INFINITY;

    for &cells in &sizes {
        let mut cfg = GeneratorConfig::medium("routerbench", 29);
        cfg.num_cells = cells;
        eprintln!("generating {cells}-cell design...");
        let bench = generate(&cfg).expect("valid config");

        // --- Reference: the PR-1 fully serial loop. ---
        let (leg_pattern, leg_negotiation, leg_iters) =
            legacy_route(&bench.design, &bench.placement, &RouterConfig::default());
        eprintln!(
            "  legacy serial: pattern {leg_pattern:.3?}, negotiation {leg_negotiation:.3?} \
             ({leg_iters} rounds)"
        );
        legacy_lines.push(format!(
            "  {{ \"cells\": {cells}, \"pattern_seconds\": {:.6}, \
             \"negotiation_seconds\": {:.6}, \"iterations\": {leg_iters} }}",
            leg_pattern.as_secs_f64(),
            leg_negotiation.as_secs_f64()
        ));

        // --- New engine: threads sweep, bitwise checks. ---
        let route = |threads: usize| {
            GlobalRouter::new(RouterConfig::builder().threads(threads).build())
                .route(&bench.design, &bench.placement)
        };
        let mut pattern_row =
            KernelRow { name: format!("pattern_pass/{cells}"), times: Vec::new() };
        let mut nego_row = KernelRow { name: format!("negotiation/{cells}"), times: Vec::new() };
        let mut total_row = KernelRow { name: format!("total_route/{cells}"), times: Vec::new() };
        let mut prints: Vec<(u64, u64, Vec<u32>, u64)> = Vec::new();
        for &t in &THREADS {
            let out = route(t);
            eprintln!(
                "  {t} threads: pattern {:.3?}, negotiation {:.3?} ({} rounds)",
                out.pattern_elapsed, out.negotiation_elapsed, out.iterations
            );
            pattern_row.times.push(out.pattern_elapsed);
            nego_row.times.push(out.negotiation_elapsed);
            total_row.times.push(out.pattern_elapsed + out.negotiation_elapsed);
            prints.push(fingerprint(&out));
        }
        assert!(
            prints.iter().all(|p| *p == prints[0]),
            "router outcome not deterministic across thread counts ({cells} cells)"
        );

        let nego_8t = nego_row.times[THREADS.len() - 1].as_secs_f64();
        let vs_legacy = leg_negotiation.as_secs_f64() / nego_8t.max(1e-12);
        eprintln!("  negotiation speedup vs legacy serial @8t: {vs_legacy:.2}x");
        speedup_vs_legacy_8t = speedup_vs_legacy_8t.min(vs_legacy);
        rows.push(pattern_row);
        rows.push(nego_row);
        rows.push(total_row);
    }

    // --- Report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"design_cells\": {:?},", sizes);
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    let _ = writeln!(json, "  \"threads\": [1, 2, 4, 8],");
    let _ = writeln!(json, "  \"deterministic_across_threads\": true,");
    let _ = writeln!(
        json,
        "  \"negotiation_speedup_vs_legacy_serial_8t\": {:.3},",
        if speedup_vs_legacy_8t.is_finite() { speedup_vs_legacy_8t } else { 0.0 }
    );
    let _ = writeln!(json, "  \"legacy_serial\": [");
    let _ = writeln!(json, "{}", legacy_lines.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"kernels\": [");
    for (ki, r) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let secs: Vec<String> = r.times.iter().map(|d| format!("{:.6}", d.as_secs_f64())).collect();
        let _ = writeln!(json, "      \"seconds\": [{}],", secs.join(", "));
        let spd: Vec<String> = (0..THREADS.len()).map(|i| format!("{:.3}", r.speedup(i))).collect();
        let _ = writeln!(json, "      \"speedup\": [{}]", spd.join(", "));
        let _ = writeln!(json, "    }}{}", if ki + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    println!("\n{:<24} {:>10} {:>10} {:>10} {:>10}", "kernel", "1t", "2t", "4t", "8t");
    for r in &rows {
        println!(
            "{:<24} {:>10.3?} {:>10.3?} {:>10.3?} {:>10.3?}   speedup@8t {:.2}x",
            r.name,
            r.times[0],
            r.times[1],
            r.times[2],
            r.times[3],
            r.speedup(3)
        );
    }
    println!("available cores: {cores} (speedup is bounded by this)");
    println!("negotiation speedup vs PR-1 serial loop @8t: {speedup_vs_legacy_8t:.2}x");

    match rdp_eval::report::save("BENCH_router.json", &json) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not save BENCH_router.json: {e}"),
    }
}
