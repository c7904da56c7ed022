//! Golden routing fingerprints.
//!
//! Pins the exact routing outcome of two small generated designs in both
//! [`LayerMode`]s, for a full [`GlobalRouter::route`] and for a
//! [`GlobalRouter::reroute_incremental`] after a seeded 5% move. The
//! fingerprint is an FNV-1a hash over every routed segment's request and
//! edge list, the overflow list, the per-net lengths and the bits of the
//! `rc` / `total_overflow` metrics, so any change to a single path —
//! not just to an aggregate — moves it. Every value must also be the same
//! at 1, 2 and 8 threads.
//!
//! A deliberate change to routing behaviour must update the constants
//! below (run the test, copy the printed values) and say why.

use rdp_db::{NodeId, Placement};
use rdp_gen::{generate, GeneratedBench, GeneratorConfig};
use rdp_geom::rng::Rng;
use rdp_geom::Point;
use rdp_route::{GlobalRouter, LayerMode, RouterConfig, RoutingOutcome};

const THREADS: [usize; 3] = [1, 2, 8];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(out: &RoutingOutcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.segments.len() as u64);
    for rs in &out.segments {
        h.u64(rs.net.index() as u64);
        for c in [rs.segment.from, rs.segment.to] {
            h.u64(u64::from(c.x));
            h.u64(u64::from(c.y));
        }
        h.u64(rs.edges.len() as u64);
        for e in &rs.edges {
            h.u64(u64::from(e.0));
        }
    }
    h.u64(out.overflowed.len() as u64);
    for &e in &out.overflowed {
        h.u64(u64::from(e));
    }
    h.u64(out.net_lengths.len() as u64);
    for &l in &out.net_lengths {
        h.u64(u64::from(l));
    }
    h.u64(out.metrics.rc.to_bits());
    h.u64(out.metrics.total_overflow.to_bits());
    h.0
}

/// The generator stacks every movable at the die centre, where most nets
/// collapse into one gcell; a seeded uniform scatter gives the router
/// over a thousand segments instead. Design 0 has ample track supply and
/// ends with little residual overflow; design 1 is supply-tight, so every
/// negotiation round reroutes most segments far around congestion.
fn bench(which: usize) -> GeneratedBench {
    let mut cfg = GeneratorConfig::tiny(format!("gold{which}"), 61 + which as u64);
    let tracks = [160.0, 10.0][which];
    cfg.route.tracks_per_edge_h = tracks;
    cfg.route.tracks_per_edge_v = tracks;
    let mut bench = generate(&cfg).unwrap();
    let mut rng = Rng::seed_from_u64(0x5CA7_7E00 + which as u64);
    let die = bench.design.die();
    for id in bench.design.movable_ids() {
        bench
            .placement
            .set_center(id, Point::new(rng.gen_range(die.xl..die.xh), rng.gen_range(die.yl..die.yh)));
    }
    bench
}

/// Moves a seeded 5% of the movables by up to ±5% of the die; returns the
/// perturbed placement and the sorted moved set.
fn perturb(bench: &GeneratedBench, seed: u64) -> (Placement, Vec<NodeId>) {
    let mut rng = Rng::seed_from_u64(seed);
    let movables: Vec<NodeId> = bench.design.movable_ids().collect();
    let count = (movables.len() / 20).max(1);
    let mut taken = vec![false; movables.len()];
    let mut moved = Vec::with_capacity(count);
    while moved.len() < count {
        let k = rng.gen_range(0usize..movables.len());
        if !std::mem::replace(&mut taken[k], true) {
            moved.push(movables[k]);
        }
    }
    moved.sort_unstable();
    let die = bench.design.die();
    let (dx, dy) = (die.width() * 0.05, die.height() * 0.05);
    let mut pl = bench.placement.clone();
    for &id in &moved {
        let c = pl.center(id);
        pl.set_center(
            id,
            Point::new(
                rdp_geom::clamp(c.x + rng.gen_range(-dx..dx), die.xl, die.xh),
                rdp_geom::clamp(c.y + rng.gen_range(-dy..dy), die.yl, die.yh),
            ),
        );
    }
    (pl, moved)
}

/// `(full route, incremental reroute)` fingerprints of `which` in `mode`,
/// checked equal at every thread count.
fn fingerprints(which: usize, mode: LayerMode) -> (u64, u64) {
    let bench = bench(which);
    let (moved_pl, moved) = perturb(&bench, 0x601D_0000 + which as u64);
    let mut seen = None;
    for threads in THREADS {
        let router = GlobalRouter::new(RouterConfig::builder().threads(threads).layers(mode).build());
        let full = router.route(&bench.design, &bench.placement);
        let incremental = router.reroute_incremental(&full, &bench.design, &moved_pl, &moved);
        let got = (fingerprint(&full), fingerprint(&incremental));
        println!("design {which} {mode:?} {threads} threads: {:#018x}, {:#018x}", got.0, got.1);
        match seen {
            None => seen = Some(got),
            Some(first) => assert_eq!(first, got, "design {which} {mode:?}: {threads} threads"),
        }
    }
    seen.unwrap()
}

/// `[design][mode]` → `(route, reroute_incremental)`, mode order
/// `[Projected, Layered]`.
const GOLDEN: [[(u64, u64); 2]; 2] = [
    [(0xe618_bdca_ff69_4829, 0xf8d7_dbb5_8995_2aa5), (0xcb28_1265_c79b_33d8, 0x6656_7566_14dc_6bc0)],
    [(0xf5c3_c035_7ecb_fa45, 0x7952_7cc2_8599_aba7), (0x5302_84f6_0987_b419, 0xc1fb_4c80_8ec7_afd4)],
];

/// Checks every design against column `col` of [`GOLDEN`].
fn check(mode: LayerMode, col: usize) {
    for (which, row) in GOLDEN.iter().enumerate() {
        assert_eq!(fingerprints(which, mode), row[col], "design {which} {mode:?}");
    }
}

#[test]
fn projected_routes_match_golden() {
    check(LayerMode::Projected, 0);
}

#[test]
fn layered_routes_match_golden() {
    check(LayerMode::Layered, 1);
}

/// The router answers each distinct `(from, to)` request of a round once,
/// with one search tree per distinct source, and shares the path among the
/// segments that repeat it. The goldens only cover that sharing and those
/// trees if the supply-tight design repeats requests, and sources among
/// the distinct requests, in the segments negotiation rips: guard both
/// (on the segments still crossing overflow at the end, the set a further
/// round would rip), so a generator change cannot silently end the
/// coverage.
#[test]
fn supply_tight_design_repeats_requests() {
    let bench = bench(1);
    for mode in [LayerMode::Projected, LayerMode::Layered] {
        let out = GlobalRouter::new(RouterConfig::builder().layers(mode).build())
            .route(&bench.design, &bench.placement);
        let crossing: Vec<_> = out
            .segments
            .iter()
            .filter(|rs| rs.edges.iter().any(|e| out.overflowed.binary_search(&e.0).is_ok()))
            .map(|rs| (rs.segment.from, rs.segment.to))
            .collect();
        let mut distinct = crossing.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(out.iterations > 0, "{mode:?}: no negotiation round ran");
        assert!(
            distinct.len() < crossing.len(),
            "{mode:?}: the {} segments crossing overflow make {} distinct requests",
            crossing.len(),
            distinct.len()
        );
        // `distinct` is sorted by source first.
        let mut sources: Vec<_> = distinct.iter().map(|&(from, _)| from).collect();
        sources.dedup();
        assert!(
            sources.len() < distinct.len(),
            "{mode:?}: the {} distinct requests come from {} distinct sources",
            distinct.len(),
            sources.len()
        );
    }
}
