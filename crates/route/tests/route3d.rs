//! 3-D (layered) routing contracts:
//!
//! * **Bitwise thread invariance** — a `LayerMode::Layered` route on a
//!   non-degenerate stack (the 4-layer generator preset) must be bitwise
//!   identical at 1/2/8 threads, over *all* edges: planar usage, via
//!   usage and history alike.
//! * **Incremental equivalence** — `reroute_incremental` stays on the
//!   layered grid, is bitwise thread-invariant, and the all-cells-moved
//!   fallback reproduces a fresh route exactly.
//! * **Blockage ownership** — a `LayerBlockage` naming a single layer
//!   carves capacity from that layer's edges only; every other layer and
//!   the via stack keep their full supply, and the 2-D projection sees
//!   exactly the summed carve.

use rdp_db::{DesignBuilder, LayerBlockage, NodeKind, Placement, RouteSpec};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::rng::Rng;
use rdp_geom::{Point, Rect};
use rdp_route::{GlobalRouter, LayerDir, LayerMode, RouteGrid, RouterConfig, RoutingOutcome};

const THREADS: [usize; 3] = [1, 2, 8];

fn config(threads: usize) -> RouterConfig {
    RouterConfig::builder().threads(threads).layers(LayerMode::Layered).build()
}

/// A supply-tight 4-layer bench (2 H + 2 V): negotiation has real
/// overflow to chew on and the layer assignment is not forced.
fn bench4(name: &str, seed: u64) -> rdp_gen::GeneratedBench {
    let mut cfg = GeneratorConfig::tiny(name, seed);
    cfg.route.tracks_per_edge_h = 10.0;
    cfg.route.tracks_per_edge_v = 10.0;
    generate(&cfg).unwrap()
}

/// Bit-exact digest over **all** edges — planar and via.
fn fingerprint(out: &RoutingOutcome) -> (Vec<u64>, Vec<u64>, Vec<u32>, Vec<u32>, u64, u64) {
    let all_usage = (0..out.grid.num_edges() as u32)
        .map(|e| out.grid.usage(rdp_route::EdgeId(e)).to_bits())
        .collect();
    let via_usage = out
        .grid
        .via_edge_ids()
        .map(|e| out.grid.usage(e).to_bits())
        .collect();
    (
        all_usage,
        via_usage,
        out.net_lengths.clone(),
        out.overflowed.clone(),
        out.metrics.rc.to_bits(),
        out.metrics.via_overflow.to_bits(),
    )
}

#[test]
fn layered_route_is_bitwise_thread_invariant() {
    let bench = bench4("r3d1", 51);
    let route =
        |threads: usize| GlobalRouter::new(config(threads)).route(&bench.design, &bench.placement);
    let base = route(1);
    assert!(base.grid.has_vias(), "4-layer stack must route in 3-D");
    assert_eq!(base.grid.num_layers(), 4);
    for threads in [2, 8] {
        let r = route(threads);
        assert_eq!(
            fingerprint(&base),
            fingerprint(&r),
            "layered route differs at {threads} threads"
        );
    }
}

#[test]
fn layered_incremental_is_bitwise_and_full_dirty_matches_fresh() {
    let bench = bench4("r3d2", 52);
    let die = bench.design.die();
    let movables: Vec<rdp_db::NodeId> = bench.design.movable_ids().collect();
    let all: Vec<rdp_db::NodeId> = bench.design.node_ids().collect();
    let mut rng = Rng::seed_from_u64(0x3D_1AC5);

    // Small move-set: jiggle 5% of the movables.
    let moved: Vec<rdp_db::NodeId> = {
        let mut picked = Vec::new();
        let mut taken = vec![false; movables.len()];
        while picked.len() < (movables.len() / 20).max(1) {
            let k = rng.gen_range(0usize..movables.len());
            if !taken[k] {
                taken[k] = true;
                picked.push(movables[k]);
            }
        }
        picked.sort_unstable();
        picked
    };
    let mut jiggled = bench.placement.clone();
    for &id in &moved {
        let c = jiggled.center(id);
        jiggled.set_center(
            id,
            Point::new(
                rdp_geom::clamp(c.x + rng.gen_range(-die.width() * 0.05..die.width() * 0.05), die.xl, die.xh),
                rdp_geom::clamp(c.y + rng.gen_range(-die.height() * 0.05..die.height() * 0.05), die.yl, die.yh),
            ),
        );
    }
    // Full perturbation: scatter everything.
    let mut scattered = bench.placement.clone();
    for &id in &movables {
        scattered.set_center(
            id,
            Point::new(rng.gen_range(die.xl..die.xh), rng.gen_range(die.yl..die.yh)),
        );
    }

    let mut prints = Vec::new();
    for threads in THREADS {
        let router = GlobalRouter::new(config(threads));
        let prev = router.route(&bench.design, &bench.placement);
        assert!(prev.grid.has_vias());

        let inc = router.reroute_incremental(&prev, &bench.design, &jiggled, &moved);
        assert!(inc.grid.has_vias(), "incremental reroute must stay on the layered grid");
        prints.push(fingerprint(&inc));

        let full = router.reroute_incremental(&prev, &bench.design, &scattered, &all);
        let fresh = router.route(&bench.design, &scattered);
        assert_eq!(
            fingerprint(&full),
            fingerprint(&fresh),
            "all-cells-moved layered reroute differs from scratch at {threads} threads"
        );
    }
    assert_eq!(prints[0], prints[1], "layered incremental: 1 vs 2 threads");
    assert_eq!(prints[0], prints[2], "layered incremental: 1 vs 8 threads");
}

/// 40×40 die, 10-unit tiles (4×4 gcells), three layers (H, V, H) at 8
/// tracks each, one fixed 20×20 block whose blockage names **layer 2
/// only**, zero porosity.
fn single_blockage_design() -> (rdp_db::Design, Placement) {
    let mut b = DesignBuilder::new("blk3d");
    b.die(Rect::new(0.0, 0.0, 40.0, 40.0));
    b.add_row(0.0, 10.0, 1.0, 0.0, 40);
    let blk = b.add_node("blk", 20.0, 20.0, NodeKind::Fixed).unwrap();
    let a = b.add_node("a", 2.0, 10.0, NodeKind::Movable).unwrap();
    let c = b.add_node("c", 2.0, 10.0, NodeKind::Movable).unwrap();
    let n = b.add_net("n1", 1.0);
    b.add_pin(n, a, Point::ORIGIN);
    b.add_pin(n, c, Point::ORIGIN);
    b.route_spec(RouteSpec {
        grid_x: 4,
        grid_y: 4,
        num_layers: 3,
        horizontal_capacity: vec![8.0, 0.0, 8.0],
        vertical_capacity: vec![0.0, 8.0, 0.0],
        min_wire_width: vec![1.0; 3],
        min_wire_spacing: vec![1.0; 3],
        via_spacing: vec![0.0; 3],
        origin: Point::ORIGIN,
        tile_width: 10.0,
        tile_height: 10.0,
        blockage_porosity: 0.0,
        ni_terminals: Vec::new(),
        blockages: vec![LayerBlockage { node: blk, layers: vec![2] }],
    });
    let design = b.finish().unwrap();
    let mut pl = Placement::new_centered(&design);
    // Opposite corners: any route between them needs vertical tracks,
    // and the only vertical layer is the blocked one.
    pl.set_center(design.find_node("a").unwrap(), Point::new(5.0, 5.0));
    pl.set_center(design.find_node("c").unwrap(), Point::new(35.0, 35.0));
    (design, pl)
}

#[test]
fn single_layer_blockage_carves_only_its_layer() {
    let (design, pl) = single_blockage_design();
    let g = RouteGrid::from_design_3d(&design, &pl);
    assert_eq!(g.num_layers(), 3);
    assert_eq!(g.layer_dir(1), LayerDir::Vertical);

    // Layers 1 and 3 (H) keep full supply everywhere.
    for l in [0usize, 2] {
        for e in g.layer_edge_ids(l) {
            assert_eq!(g.capacity(e), 8.0, "unblocked layer {} lost capacity", l + 1);
        }
    }
    // The via stack keeps its (unlimited) supply.
    for e in g.via_edge_ids() {
        assert_eq!(g.capacity(e), RouteGrid::UNLIMITED_CAP);
    }
    // Layer 2 (V) is carved exactly where the block sits: the 20×20 block
    // centered at (20, 20) fully covers gcells (1..3, 1..3). The vertical
    // edges with both endpoints inside lose everything; edges straddling
    // the block boundary lose half.
    let carved: Vec<_> = g.layer_edge_ids(1).filter(|&e| g.capacity(e) < 8.0 - 1e-12).collect();
    assert!(!carved.is_empty(), "blocked layer must lose capacity");
    for (x, y) in [(1, 1), (2, 1)] {
        let e = g.v_edge_on(1, x, y);
        assert!(
            g.capacity(e) < 1e-12,
            "edge ({x},{y}) under the block should be fully carved, has {}",
            g.capacity(e)
        );
    }
    for (x, y) in [(1, 0), (2, 0), (1, 2), (2, 2)] {
        let e = g.v_edge_on(1, x, y);
        assert!(
            (g.capacity(e) - 4.0).abs() < 1e-12,
            "boundary edge ({x},{y}) should keep half its supply, has {}",
            g.capacity(e)
        );
    }
    // Projection: the collapsed vertical supply equals the per-layer sum,
    // i.e. the carve is charged once, on the owning layer.
    let p = g.project_2d();
    for y in 0..3 {
        for x in 0..4 {
            let sum = g.capacity(g.v_edge_on(1, x, y));
            assert!(
                (p.capacity(p.v_edge(x, y)) - sum).abs() < 1e-12,
                "projection differs from per-layer sum at ({x},{y})"
            );
        }
    }
}

#[test]
fn routing_respects_the_blocked_layer() {
    let (design, pl) = single_blockage_design();
    let out = GlobalRouter::new(config(2)).route(&design, &pl);
    // Nothing may use the zero-capacity edges under the block.
    for (x, y) in [(1, 1), (2, 1)] {
        let e = out.grid.v_edge_on(1, x, y);
        assert_eq!(out.grid.usage(e), 0.0, "routed through a fully blocked edge ({x},{y})");
    }
    assert_eq!(out.metrics.total_overflow, 0.0, "two-pin net must route around the block");
}
