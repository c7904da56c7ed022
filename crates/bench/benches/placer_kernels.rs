//! Microbenchmarks of the placement pipeline stages: clustering,
//! legalization and the end-to-end fast flow on a tiny design.
//!
//! Built with `cargo bench -p rdp-bench --features bench`.

use rdp_bench::timing::bench;
use rdp_core::cluster::build_levels;
use rdp_core::legalize::legalize_with_displacement_par;
use rdp_core::model::Model;
use rdp_core::{PlaceOptions, Placer};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;

fn main() {
    let gen = generate(&GeneratorConfig::tiny("plbench", 17)).expect("valid config");
    let model = Model::from_design(&gen.design, &gen.placement);

    bench("cluster_build_levels_tiny", || build_levels(&model, 100));

    bench("legalize_tiny", || {
        let mut pl = gen.placement.clone();
        legalize_with_displacement_par(&gen.design, &mut pl, &Parallelism::single());
        pl
    });

    bench("end_to_end/fast_flow_tiny", || {
        Placer::new(&gen.design, PlaceOptions::fast())
            .with_initial(gen.placement.clone())
            .run()
            .expect("placeable")
    });
}
