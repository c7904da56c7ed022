//! Property tests: the A\* maze router returns cost-optimal paths, and the
//! per-source search tree returns exactly the A\* paths.
//!
//! Optimality is verified against a brute-force Bellman-Ford relaxation
//! over the whole grid — slow but obviously correct — on random congestion
//! and history fields drawn from the workspace's own deterministic PRNG.
//! The `property-tests` feature multiplies the case count.

use rdp_geom::rng::Rng;
use rdp_geom::Point;
use rdp_route::pattern::{edge_cost, CostParams, EdgeCosts};
use rdp_route::LayerDir::{Horizontal, Vertical};
use rdp_route::{maze, EdgeId, GCell, MazeScratch, RouteGrid};

/// Random congestion fields checked per run.
const CASES: u64 = if cfg!(feature = "property-tests") { 96 } else { 24 };

/// Random wall-and-history fields checked per run.
const WALL_CASES: u64 = if cfg!(feature = "property-tests") { 64 } else { 16 };

/// Grids (one planar, one layered each) whose source runs are checked
/// against the A\* per run.
const TREE_CASES: u64 = if cfg!(feature = "property-tests") { 48 } else { 12 };

/// Side length of the wall-and-history grids (big enough that optimal
/// paths regularly detour far outside the segment's bounding box).
const N: u32 = 16;

/// Brute-force single-source shortest path by repeated relaxation.
fn bellman_ford_cost(grid: &RouteGrid, from: GCell, to: GCell, params: CostParams) -> f64 {
    let nx = grid.nx();
    let ny = grid.ny();
    let idx = |c: GCell| (c.y * nx + c.x) as usize;
    let mut dist = vec![f64::INFINITY; (nx * ny) as usize];
    dist[idx(from)] = 0.0;
    for _ in 0..(nx * ny) {
        let mut changed = false;
        for y in 0..ny {
            for x in 0..nx {
                let c = GCell::new(x, y);
                let dc = dist[idx(c)];
                if !dc.is_finite() {
                    continue;
                }
                let relax = |n: GCell, dist: &mut Vec<f64>| {
                    let e = grid.edge_between(c, n).expect("adjacent");
                    let nd = dc + edge_cost(grid, e, params);
                    if nd < dist[idx(n)] - 1e-12 {
                        dist[idx(n)] = nd;
                        true
                    } else {
                        false
                    }
                };
                if x > 0 {
                    changed |= relax(GCell::new(x - 1, y), &mut dist);
                }
                if x + 1 < nx {
                    changed |= relax(GCell::new(x + 1, y), &mut dist);
                }
                if y > 0 {
                    changed |= relax(GCell::new(x, y - 1), &mut dist);
                }
                if y + 1 < ny {
                    changed |= relax(GCell::new(x, y + 1), &mut dist);
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist[idx(to)]
}

#[test]
fn maze_path_cost_is_optimal() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xA5_7A12 ^ case);
        let usages: Vec<f64> = (0..36).map(|_| rng.gen_range(0.0..12.0)).collect();
        let mut grid = RouteGrid::uniform(6, 6, Point::ORIGIN, 1.0, 1.0, 4.0, 4.0);
        // Random congestion field over the first edges.
        let edges: Vec<_> = grid.edge_ids().collect();
        for (i, &e) in edges.iter().enumerate() {
            grid.add_usage(e, usages[i % usages.len()]);
        }
        let from = GCell::new(rng.gen_range(0u32..6), rng.gen_range(0u32..6));
        let to = GCell::new(rng.gen_range(0u32..6), rng.gen_range(0u32..6));
        let params = CostParams::default();
        let path =
            maze::search(&grid, &EdgeCosts::build(&grid, params), from, to, &mut MazeScratch::new());
        let path_cost: f64 = path.iter().map(|&e| edge_cost(&grid, e, params)).sum();
        let optimal = bellman_ford_cost(&grid, from, to, params);
        if from == to {
            assert!(path.is_empty());
        } else {
            assert!(
                (path_cost - optimal).abs() < 1e-6,
                "case {case}: A* cost {path_cost} vs optimal {optimal}"
            );
        }
    }
}

#[test]
fn reused_scratch_paths_are_optimal_around_walls_and_history() {
    let params = CostParams::default();
    let mut scratch = MazeScratch::new();
    for case in 0..WALL_CASES {
        let mut rng = Rng::seed_from_u64(0x51_D0_u64.wrapping_add(case.wrapping_mul(0x9E37)));
        let mut grid = RouteGrid::uniform(N, N, Point::ORIGIN, 1.0, 1.0, 4.0, 4.0);
        let edges: Vec<_> = grid.edge_ids().collect();
        for &e in &edges {
            // Mix congested walls, moderate usage and history so optimal
            // paths regularly detour outside the segment bbox.
            let roll = rng.gen_range(0.0..1.0);
            if roll < 0.15 {
                grid.add_usage(e, rng.gen_range(8.0..40.0));
            } else if roll < 0.6 {
                grid.add_usage(e, rng.gen_range(0.0..6.0));
            }
            if rng.gen_range(0.0..1.0) < 0.2 {
                grid.add_history(e, rng.gen_range(0.0..5.0));
            }
        }
        let from = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
        let to = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
        let costs = EdgeCosts::build(&grid, params);

        let path = maze::search(&grid, &costs, from, to, &mut scratch);
        let path_cost: f64 = path.iter().map(|&e| costs.cost(e)).sum();
        let optimal = bellman_ford_cost(&grid, from, to, params);
        if from == to {
            assert!(path.is_empty());
        } else {
            assert!(
                (path_cost - optimal).abs() < 1e-6,
                "case {case}: A* cost {path_cost} vs optimal {optimal}"
            );
        }
    }
}

#[test]
fn canonical_path_is_stable_under_scratch_history() {
    // The same query through a scratch that has just served unrelated
    // searches must return the identical path (epoch stamping leaves no
    // residue).
    let params = CostParams::default();
    let mut grid = RouteGrid::uniform(N, N, Point::ORIGIN, 1.0, 1.0, 4.0, 4.0);
    let mut rng = Rng::seed_from_u64(0xCAFE);
    let edges: Vec<_> = grid.edge_ids().collect();
    for &e in &edges {
        grid.add_usage(e, rng.gen_range(0.0..10.0));
    }
    let costs = EdgeCosts::build(&grid, params);
    let from = GCell::new(1, 2);
    let to = GCell::new(14, 13);
    let clean = maze::search(&grid, &costs, from, to, &mut MazeScratch::new());
    let mut dirty = MazeScratch::new();
    for _ in 0..20 {
        let a = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
        let b = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
        let _ = maze::search(&grid, &costs, a, b, &mut dirty);
    }
    let reused = maze::search(&grid, &costs, from, to, &mut dirty);
    assert_eq!(clean, reused);
}

#[test]
fn canonical_3d_path_is_stable_under_scratch_history() {
    // The layered search must be just as pure as the planar one: the same
    // query returns the identical path through a fresh scratch, a scratch
    // that just answered it, and a scratch that has since served other
    // 3-D and 2-D queries. The router searches each distinct request of a
    // round once and shares the path, which is only sound if this holds.
    let params = CostParams::default();
    let layers = [(Horizontal, 4.0), (Vertical, 4.0), (Horizontal, 4.0), (Vertical, 4.0)];
    let mut grid = RouteGrid::uniform_layers(N, N, Point::ORIGIN, 1.0, 1.0, &layers, Some(6.0));
    let mut rng = Rng::seed_from_u64(0xCAFE_003D);
    for e in 0..grid.num_edges() as u32 {
        let e = EdgeId(e);
        grid.add_usage(e, rng.gen_range(0.0..10.0));
        if rng.gen_range(0.0..1.0) < 0.2 {
            grid.add_history(e, rng.gen_range(0.0..5.0));
        }
    }
    let costs = EdgeCosts::build(&grid, params);
    let planar = RouteGrid::uniform(N, N, Point::ORIGIN, 1.0, 1.0, 4.0, 4.0);
    let planar_costs = EdgeCosts::build(&planar, params);
    let mut scratch = MazeScratch::new();
    for _ in 0..8 {
        let from = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
        let to = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
        let fresh = maze::search3(&grid, &costs, from, to, &mut MazeScratch::new());
        assert_eq!(fresh.is_empty(), from == to);
        let reused = maze::search3(&grid, &costs, from, to, &mut scratch);
        let again = maze::search3(&grid, &costs, from, to, &mut scratch);
        for _ in 0..10 {
            let a = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
            let b = GCell::new(rng.gen_range(0u32..N), rng.gen_range(0u32..N));
            let _ = maze::search3(&grid, &costs, a, b, &mut scratch);
            let _ = maze::search(&planar, &planar_costs, b, a, &mut scratch);
        }
        let interleaved = maze::search3(&grid, &costs, from, to, &mut scratch);
        assert_eq!(fresh, reused, "{from:?} -> {to:?}: reused scratch");
        assert_eq!(fresh, again, "{from:?} -> {to:?}: repeated query");
        assert_eq!(fresh, interleaved, "{from:?} -> {to:?}: after other queries");
    }
}

/// Fills every edge of `grid` with usage and history. Tie-rich fields use
/// small integers against capacities of 3 and 6, so many edges cost the
/// same and many equal-cost sums round differently by path; random fields
/// use continuous values.
fn fill(grid: &mut RouteGrid, rng: &mut Rng, tie_rich: bool) {
    for e in 0..grid.num_edges() as u32 {
        let e = EdgeId(e);
        if tie_rich {
            grid.add_usage(e, f64::from(rng.gen_range(0u32..4)));
            if rng.gen_range(0u32..4) == 0 {
                grid.add_history(e, f64::from(rng.gen_range(1u32..3)));
            }
        } else {
            grid.add_usage(e, rng.gen_range(0.0..12.0));
            if rng.gen_range(0.0..1.0) < 0.2 {
                grid.add_history(e, rng.gen_range(0.0..5.0));
            }
        }
    }
}

#[test]
fn per_source_tree_returns_the_astar_paths() {
    let params = CostParams::default();
    // One scratch serves every tree, planar and layered.
    let mut scratch = MazeScratch::new();
    let layers = [(Horizontal, 3.0), (Vertical, 3.0), (Horizontal, 3.0), (Vertical, 3.0)];
    for case in 0..TREE_CASES {
        let mut rng = Rng::seed_from_u64(0x7EE_5EED ^ case.wrapping_mul(0x9E37_79B9));
        let tie_rich = case % 2 == 0;
        let (nx, ny) = (rng.gen_range(2u32..15), rng.gen_range(2u32..15));
        let planar = RouteGrid::uniform(nx, ny, Point::ORIGIN, 1.0, 1.0, 3.0, 3.0);
        let layered =
            RouteGrid::uniform_layers(nx, ny, Point::ORIGIN, 1.0, 1.0, &layers, Some(6.0));
        for mut grid in [planar, layered] {
            fill(&mut grid, &mut rng, tie_rich);
            let costs = EdgeCosts::build(&grid, params);
            let cell = |rng: &mut Rng| GCell::new(rng.gen_range(0..nx), rng.gen_range(0..ny));
            for _ in 0..3 {
                let from = cell(&mut rng);
                let mut targets: Vec<GCell> = Vec::new();
                for _ in 0..rng.gen_range(1usize..41) {
                    let t = match rng.gen_range(0u32..8) {
                        0 => from,
                        1 if !targets.is_empty() => targets[rng.gen_range(0..targets.len())],
                        _ => cell(&mut rng),
                    };
                    targets.push(t);
                }
                let got = maze::search_from(&grid, &costs, from, &targets, &mut scratch);
                assert_eq!(got.len(), targets.len());
                for (&to, path) in targets.iter().zip(&got) {
                    let want = if grid.has_vias() {
                        maze::search3(&grid, &costs, from, to, &mut MazeScratch::new())
                    } else {
                        maze::search(&grid, &costs, from, to, &mut MazeScratch::new())
                    };
                    assert_eq!(
                        path, &want,
                        "case {case}, vias {}: {from:?} -> {to:?}",
                        grid.has_vias()
                    );
                }
            }
        }
    }
}
