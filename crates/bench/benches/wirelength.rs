//! Microbenchmarks of the smooth wirelength kernels (the hot inner loop of
//! global placement): LSE vs WA gradient evaluation, through the fused
//! pass with no density field.
//!
//! Built with `cargo bench -p rdp-bench --features bench`.

use rdp_bench::timing::bench;
use rdp_core::model::Model;
use rdp_core::fused::fused_wl_den_grad;
use rdp_core::wirelength::{WirelengthModel, WlScratch};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;

fn model_of(cells: usize) -> Model {
    let mut cfg = GeneratorConfig::tiny("wlbench", 7);
    cfg.num_cells = cells;
    let bench = generate(&cfg).expect("valid config");
    Model::from_design(&bench.design, &bench.placement)
}

fn main() {
    for cells in [1_000usize, 4_000] {
        let model = model_of(cells);
        let mut scratch = WlScratch::new();
        let mut gx = vec![0.0; model.len()];
        let mut gy = vec![0.0; model.len()];
        let (mut dx, mut dy) = (vec![0.0; model.len()], vec![0.0; model.len()]);
        for which in [WirelengthModel::Lse, WirelengthModel::Wa] {
            bench(&format!("wirelength_grad/{which:?}/{cells}"), || {
                gx.iter_mut().for_each(|g| *g = 0.0);
                gy.iter_mut().for_each(|g| *g = 0.0);
                fused_wl_den_grad(
                    &model,
                    which,
                    20.0,
                    &mut [],
                    &mut scratch,
                    &mut gx,
                    &mut gy,
                    &mut dx,
                    &mut dy,
                    &Parallelism::single(),
                )
            });
        }
    }
}
