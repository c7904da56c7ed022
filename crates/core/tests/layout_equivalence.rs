//! Layout-equivalence oracle: the CSR/SoA model and the fused gradient
//! pass that production runs must be observationally identical —
//! **bitwise**, not approximately — to the pre-refactor AoS representation
//! and kernels preserved in the `reference` oracle.
//!
//! Every case converts a generated design to both layouts and evaluates
//! HPWL, both smooth-wirelength models (the fused pass with no density
//! field) and the bell density penalty of every field, fence fields
//! included (the fused pass with that one field), at 1/2/8 threads, and
//! compares totals and every gradient component by bit pattern.

mod reference;

use rdp_core::density::{build_fields, DensityField, DensityStats};
use rdp_core::fused::fused_wl_den_grad;
use rdp_core::model::Model;
use rdp_core::wirelength::{WirelengthModel, WlScratch};
use rdp_db::Region;
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;
use rdp_geom::Point;
use reference::{ref_smooth_wl_grad_par, RefDensityField, RefModel};

const THREADS: [usize; 3] = [1, 2, 8];

/// One fused evaluation over `fields`: the wirelength total and gradient,
/// the summed density stats and the density gradient.
fn fused(
    model: &Model,
    which: WirelengthModel,
    fields: &mut [DensityField],
    scratch: &mut WlScratch,
    par: &Parallelism,
) -> (f64, Vec<f64>, Vec<f64>, DensityStats, Vec<f64>, Vec<f64>) {
    let zeros = || vec![0.0; model.len()];
    let (mut gx, mut gy, mut dx, mut dy) = (zeros(), zeros(), zeros(), zeros());
    let (wl, stats) = fused_wl_den_grad(
        model, which, 12.0, fields, scratch, &mut gx, &mut gy, &mut dx, &mut dy, par,
    );
    (wl, gx, gy, stats, dx, dy)
}

/// Generated designs covering flat, hierarchical (two fence regions) and
/// macro-heavy shapes, each with its fence regions.
fn cases() -> Vec<(Model, Vec<Region>)> {
    let mut out = Vec::new();
    for (i, cfg) in [
        GeneratorConfig::tiny("eq-flat", 41),
        GeneratorConfig::hierarchical("eq-hier", 42, 2),
        GeneratorConfig::small("eq-small", 43),
    ]
    .into_iter()
    .enumerate()
    {
        let bench = generate(&cfg).expect("valid config");
        let mut model = Model::from_design(&bench.design, &bench.placement);
        // Scatter positions so gradients are non-trivial everywhere.
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(1000 + i as u64);
        let die = model.die;
        for k in 0..model.len() {
            let x = rng.gen_range(die.xl..die.xh);
            let y = rng.gen_range(die.yl..die.yh);
            model.set_pos(k, Point::new(x, y));
        }
        out.push((model, bench.design.regions().to_vec()));
    }
    out
}

#[test]
fn hpwl_is_bitwise_identical_to_reference_layout() {
    for (ci, (model, _)) in cases().iter().enumerate() {
        let reference = RefModel::from_model(model);
        assert_eq!(
            model.hpwl().to_bits(),
            reference.hpwl().to_bits(),
            "case {ci}: HPWL {} vs reference {}",
            model.hpwl(),
            reference.hpwl()
        );
    }
}

#[test]
fn wirelength_gradients_are_bitwise_identical_to_reference_layout() {
    for (ci, (model, _)) in cases().iter().enumerate() {
        let reference = RefModel::from_model(model);
        let mut scratch = WlScratch::new();
        for which in [WirelengthModel::Lse, WirelengthModel::Wa] {
            for threads in THREADS {
                let par = Parallelism::new(threads);
                let (total, gx, gy, ..) = fused(model, which, &mut [], &mut scratch, &par);

                let mut ref_grad = vec![Point::ORIGIN; model.len()];
                let ref_total =
                    ref_smooth_wl_grad_par(&reference, which, 12.0, &mut ref_grad, &par);

                let label = format!("case {ci}, {which:?}, {threads} threads");
                assert_eq!(total.to_bits(), ref_total.to_bits(), "total differs: {label}");
                for i in 0..model.len() {
                    assert_eq!(
                        (gx[i].to_bits(), gy[i].to_bits()),
                        (ref_grad[i].x.to_bits(), ref_grad[i].y.to_bits()),
                        "gradient of object {i} differs: {label}"
                    );
                }
            }
        }
    }
}

#[test]
fn density_penalty_and_gradients_are_bitwise_identical_to_reference_layout() {
    let mut fence_fields = 0;
    for (ci, (model, regions)) in cases().iter().enumerate() {
        let bins = ((model.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
        let mut fields = build_fields(model, regions, &[], bins, 0.9);
        fence_fields += fields.len() - 1;
        let mut scratch = WlScratch::new();
        for (fi, field) in fields.iter_mut().enumerate() {
            let mut reference = RefDensityField::from_field(field);
            for threads in THREADS {
                let par = Parallelism::new(threads);
                let which = WirelengthModel::Wa;
                let (.., stats, gx, gy) =
                    fused(model, which, std::slice::from_mut(field), &mut scratch, &par);

                let ref_model = RefModel::from_model(model);
                let mut ref_grad = vec![Point::ORIGIN; model.len()];
                let ref_stats = reference.penalty_grad_par(&ref_model, &mut ref_grad, &par);

                let label = format!("case {ci}, field {fi}, {threads} threads");
                assert_eq!(
                    stats.penalty.to_bits(),
                    ref_stats.penalty.to_bits(),
                    "penalty differs: {label}"
                );
                assert_eq!(
                    stats.overflow_area.to_bits(),
                    ref_stats.overflow_area.to_bits(),
                    "overflow differs: {label}"
                );
                assert_eq!(
                    stats.max_ratio.to_bits(),
                    ref_stats.max_ratio.to_bits(),
                    "max ratio differs: {label}"
                );
                for i in 0..model.len() {
                    assert_eq!(
                        (gx[i].to_bits(), gy[i].to_bits()),
                        (ref_grad[i].x.to_bits(), ref_grad[i].y.to_bits()),
                        "density gradient of object {i} differs: {label}"
                    );
                }
            }
        }
    }
    assert!(fence_fields >= 2, "the hierarchical case must contribute fence fields");
}
