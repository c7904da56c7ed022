//! Layout-equivalence oracle: the CSR/SoA model and its flat-array kernels
//! must be observationally identical — **bitwise**, not approximately — to
//! the pre-refactor AoS representation preserved in the `reference` oracle.
//!
//! Every case converts a generated design to both layouts, evaluates HPWL,
//! both smooth-wirelength models and the density penalty at 1/2/8 threads,
//! and compares totals and every gradient component by bit pattern.

mod reference;

use rdp_core::density::build_fields;
use rdp_core::model::Model;
use rdp_core::wirelength::{smooth_wl_grad_par, WirelengthModel, WlScratch};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;
use rdp_geom::Point;
use reference::{ref_smooth_wl_grad_par, RefDensityField, RefModel};

const THREADS: [usize; 3] = [1, 2, 8];

/// Generated designs covering flat, hierarchical and macro-heavy shapes.
fn cases() -> Vec<Model> {
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
        out.push(model);
    }
    out
}

#[test]
fn hpwl_is_bitwise_identical_to_reference_layout() {
    for (ci, model) in cases().iter().enumerate() {
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
    for (ci, model) in cases().iter().enumerate() {
        let reference = RefModel::from_model(model);
        let mut scratch = WlScratch::new();
        for which in [WirelengthModel::Lse, WirelengthModel::Wa] {
            for threads in THREADS {
                let par = Parallelism::new(threads);
                let mut gx = vec![0.0; model.len()];
                let mut gy = vec![0.0; model.len()];
                let total =
                    smooth_wl_grad_par(model, which, 12.0, &mut gx, &mut gy, &mut scratch, &par);

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
    for (ci, model) in cases().iter().enumerate() {
        let bins = ((model.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
        let mut fields = build_fields(model, &[], &[], bins, 0.9);
        for (fi, field) in fields.iter_mut().enumerate() {
            let mut reference = RefDensityField::from_field(field);
            for threads in THREADS {
                let par = Parallelism::new(threads);
                let mut gx = vec![0.0; model.len()];
                let mut gy = vec![0.0; model.len()];
                let stats = field.penalty_grad_par(model, &mut gx, &mut gy, &par);

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
}
