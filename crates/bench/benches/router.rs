//! Microbenchmarks of the routing substrate: the fast probabilistic
//! estimator (called every inflation round) and the full negotiation
//! router (the scoring oracle).
//!
//! Built with `cargo bench -p rdp-bench --features bench`.

use rdp_bench::timing::bench;
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;
use rdp_route::{pattern, GlobalRouter, RouteGrid, RouterConfig};

fn main() {
    let gen = generate(&GeneratorConfig::tiny("rtbench", 13)).expect("valid config");

    let mut grid = RouteGrid::from_design(&gen.design, &gen.placement);
    bench("pattern_estimate_tiny", || {
        let par = Parallelism::single();
        pattern::estimate_congestion_into(&mut grid, &gen.design, &gen.placement, &par)
    });

    bench("full_route/negotiated_tiny", || {
        GlobalRouter::new(RouterConfig::default()).route(&gen.design, &gen.placement)
    });
}
