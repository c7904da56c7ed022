//! Microbenchmarks of the bell-shaped density kernel — the other half of
//! the global-placement inner loop — through the fused pass, so each
//! timing includes the wirelength half.
//!
//! Built with `cargo bench -p rdp-bench --features bench`.

use rdp_bench::timing::bench;
use rdp_core::density::build_fields;
use rdp_core::fused::fused_wl_den_grad;
use rdp_core::model::Model;
use rdp_core::wirelength::{WirelengthModel, WlScratch};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;

fn main() {
    for cells in [1_000usize, 4_000] {
        let mut cfg = GeneratorConfig::tiny("denbench", 11);
        cfg.num_cells = cells;
        let gen = generate(&cfg).expect("valid config");
        let model = Model::from_design(&gen.design, &gen.placement);
        let bins = ((cells as f64).sqrt() as usize).max(16);
        let mut fields = build_fields(&model, &[], &[], bins, 0.9);
        let mut scratch = WlScratch::new();
        let zeros = || vec![0.0; model.len()];
        let (mut wx, mut wy, mut gx, mut gy) = (zeros(), zeros(), zeros(), zeros());
        bench(&format!("fused_wl_density_grad/{cells}"), || {
            for g in [&mut wx, &mut wy, &mut gx, &mut gy] {
                g.iter_mut().for_each(|v| *v = 0.0);
            }
            fused_wl_den_grad(
                &model,
                WirelengthModel::Wa,
                20.0,
                &mut fields,
                &mut scratch,
                &mut wx,
                &mut wy,
                &mut gx,
                &mut gy,
                &Parallelism::single(),
            )
        });
    }
}
