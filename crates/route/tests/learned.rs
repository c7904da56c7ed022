//! Learned-estimator contract tests: bitwise thread-invariance of the
//! prediction, the shipped weights' accuracy gate on a design the trainer
//! never saw, byte-identical trainer reproducibility on real routed
//! designs, and degenerate-input safety of the feature extractor.

use rdp_db::{DesignBuilder, NodeKind, Placement};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;
use rdp_geom::rng::Rng;
use rdp_geom::{Point, Rect};
use rdp_route::learned::{
    collect_samples, extract_features, predict_into, rank_correlation, train_estimator,
    EstimatorWeights, TrainConfig, NUM_FEATURES,
};
use rdp_route::{GlobalRouter, RouteGrid, RouterConfig};

/// The learned prediction on a freshly built grid for `design`/`placement`.
fn predict(
    design: &rdp_db::Design,
    placement: &Placement,
    weights: &EstimatorWeights,
    par: &Parallelism,
) -> RouteGrid {
    let mut grid = RouteGrid::from_design(design, placement);
    predict_into(&mut grid, design, placement, weights, par);
    grid
}

/// Fingerprint of a grid's full usage state (planar + via), bit-exact.
fn usage_fingerprint(grid: &RouteGrid) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in grid.edge_ids() {
        h ^= grid.usage(e).to_bits();
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[test]
fn prediction_is_bitwise_identical_across_thread_counts() {
    let bench = generate(&GeneratorConfig::small("lt", 7)).unwrap();
    let weights = EstimatorWeights::builtin();
    let fingerprints: Vec<u64> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let par = Parallelism::new(threads);
            let grid =
                predict(&bench.design, &bench.placement, weights, &par);
            usage_fingerprint(&grid)
        })
        .collect();
    assert_eq!(fingerprints[0], fingerprints[1], "1 vs 2 threads");
    assert_eq!(fingerprints[0], fingerprints[2], "1 vs 8 threads");
}

#[test]
fn prediction_deposits_nonnegative_planar_usage() {
    let bench = generate(&GeneratorConfig::tiny("ltp", 9)).unwrap();
    let par = Parallelism::single();
    let grid =
        predict(&bench.design, &bench.placement, EstimatorWeights::builtin(), &par);
    let mut total = 0.0;
    for e in grid.edge_ids() {
        let u = grid.usage(e);
        assert!(u >= 0.0 && u.is_finite(), "usage {u} on {e:?}");
        total += u;
    }
    assert!(total > 0.0, "a placed design must predict some demand");
}

/// The shipped weights' rank correlations against the routed truth (usage
/// and overflow per edge) must clear the gates stamped into the weight
/// file, on a design the trainer never saw, in the two placement states
/// the trainer labels: the clustered seed and a uniform scatter.
#[test]
fn shipped_weights_clear_their_accuracy_gates_on_a_fresh_design() {
    let weights = EstimatorWeights::builtin();
    let bench = generate(&GeneratorConfig::small("estfresh", 91)).unwrap();
    let par = Parallelism::single();
    let router = GlobalRouter::new(RouterConfig::default());
    let die = bench.design.die();
    let mut scattered = bench.placement.clone();
    let mut rng = Rng::seed_from_u64(0x5CA7_7E12 ^ 91);
    for id in bench.design.movable_ids() {
        scattered.set_center(
            id,
            Point::new(rng.gen_range(die.xl..die.xh), rng.gen_range(die.yl..die.yh)),
        );
    }

    let (mut pred, mut truth, mut pred_over, mut truth_over) = (vec![], vec![], vec![], vec![]);
    for placement in [&bench.placement, &scattered] {
        let routed = router.route(&bench.design, placement);
        let samples = collect_samples(&routed.grid, &bench.design, placement, &par);
        for (dir_samples, w) in [(&samples.h, &weights.h), (&samples.v, &weights.v)] {
            for (x, y) in dir_samples {
                let p = (0..NUM_FEATURES).map(|k| w[k] * x[k]).sum::<f64>().max(0.0);
                let cap = x[NUM_FEATURES - 1];
                pred.push(p);
                truth.push(*y);
                pred_over.push((p - cap).max(0.0));
                truth_over.push((*y - cap).max(0.0));
            }
        }
    }
    let usage_corr = rank_correlation(&pred, &truth);
    let overflow_corr = rank_correlation(&pred_over, &truth_over);
    assert!(
        usage_corr >= weights.gate_usage,
        "usage rank correlation {usage_corr:.4} below the shipped gate {:.4}",
        weights.gate_usage
    );
    assert!(
        overflow_corr >= weights.gate_overflow,
        "overflow rank correlation {overflow_corr:.4} below the shipped gate {:.4}",
        weights.gate_overflow
    );
}

#[test]
fn trainer_is_reproducible_on_routed_designs() {
    // Two small designs routed for labels; training twice from scratch
    // (including re-routing) must produce byte-identical weight files.
    let par = Parallelism::single();
    let train_once = || {
        let mut sets = Vec::new();
        for seed in [11u64, 12, 13] {
            let bench = generate(&GeneratorConfig::tiny("ltr", seed)).unwrap();
            let outcome =
                GlobalRouter::new(RouterConfig::default()).route(&bench.design, &bench.placement);
            sets.push(collect_samples(&outcome.grid, &bench.design, &bench.placement, &par));
        }
        train_estimator(&sets, &TrainConfig { holdout: 1, ..TrainConfig::default() })
    };
    let a = train_once();
    let b = train_once();
    assert_eq!(a.weights.to_text(), b.weights.to_text());
    assert!(a.train_samples > 0 && a.holdout_samples > 0);
    assert!(a.weights.h.iter().chain(&a.weights.v).all(|w| w.is_finite()));
}

#[test]
fn feature_extraction_survives_zero_nets() {
    // A design with movable cells but no nets at all.
    let mut b = DesignBuilder::new("nonets");
    b.die(Rect::new(0.0, 0.0, 40.0, 40.0));
    b.add_row(0.0, 40.0, 4.0, 0.0, 10);
    for i in 0..4 {
        b.add_node(format!("c{i}"), 2.0, 4.0, NodeKind::Movable).unwrap();
    }
    let design = b.finish().unwrap();
    let placement = Placement::new_centered(&design);
    let par = Parallelism::single();
    let grid = RouteGrid::from_design(&design, &placement);
    let features = extract_features(&grid, &design, &placement, &par);
    assert!(features.rudy_h.iter().all(|&v| v == 0.0), "no nets → no wiring demand");
    assert!(features.pins.iter().all(|&v| v == 0.0));
    assert!(features.util.iter().sum::<f64>() > 0.0, "cells still utilize area");
    // Prediction must not panic either.
    let predicted =
        predict(&design, &placement, EstimatorWeights::builtin(), &par);
    assert!(predicted.edge_ids().all(|e| predicted.usage(e).is_finite()));
}

#[test]
fn feature_extraction_survives_a_single_gcell_grid() {
    // One gcell: no planar edges exist, so prediction is a no-op but the
    // extractor still has to rasterize features into the lone cell.
    let mut b = DesignBuilder::new("onegcell");
    b.die(Rect::new(0.0, 0.0, 8.0, 8.0));
    b.add_row(0.0, 8.0, 2.0, 0.0, 4);
    let c0 = b.add_node("c0", 2.0, 2.0, NodeKind::Movable).unwrap();
    let c1 = b.add_node("c1", 2.0, 2.0, NodeKind::Movable).unwrap();
    let n = b.add_net("n", 1.0);
    b.add_pin(n, c0, Point::ORIGIN);
    b.add_pin(n, c1, Point::ORIGIN);
    let design = b.finish().unwrap();
    let placement = Placement::new_centered(&design);
    let par = Parallelism::single();
    let mut grid = RouteGrid::uniform(1, 1, Point::ORIGIN, 8.0, 8.0, 10.0, 10.0);
    let features = extract_features(&grid, &design, &placement, &par);
    assert_eq!(features.len(), 1);
    assert_eq!(features.pins[0], 2.0);
    assert!(features.rudy_h[0] > 0.0);
    rdp_route::learned::predict_into(
        &mut grid,
        &design,
        &placement,
        EstimatorWeights::builtin(),
        &par,
    );
    assert_eq!(grid.num_planar_edges(), 0);
}

#[cfg(feature = "property-tests")]
mod properties {
    use super::*;

    /// Randomized degenerate shapes: tiny dies, single cells, nets whose
    /// pins all coincide. The extractor must stay finite and panic-free.
    #[test]
    fn random_degenerate_designs_never_panic_the_extractor() {
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(0x1ea2_4ed0);
        for case in 0..40 {
            let side = rng.gen_range(4.0..64.0);
            let mut b = DesignBuilder::new(format!("deg{case}"));
            b.die(Rect::new(0.0, 0.0, side, side));
            b.add_row(0.0, side, 2.0, 0.0, (side / 2.0) as u32);
            let num_cells = rng.gen_range(1usize..6);
            let mut ids = Vec::new();
            for i in 0..num_cells {
                ids.push(b.add_node(format!("c{i}"), 2.0, 2.0, NodeKind::Movable).unwrap());
            }
            // Nets stay ≥2 pins (the builder rejects less) but the pins
            // may all land on one spot — zero-area bounding boxes.
            for ni in 0..rng.gen_range(0usize..4) {
                let net = b.add_net(format!("n{ni}"), 1.0);
                for _ in 0..2 + rng.gen_range(0usize..2) {
                    let id = ids[rng.gen_range(0usize..ids.len())];
                    b.add_pin(net, id, Point::ORIGIN);
                }
            }
            let design = b.finish().unwrap();
            let placement = Placement::new_centered(&design);
            let par = Parallelism::new(2);
            let grid = predict(
                &design,
                &placement,
                EstimatorWeights::builtin(),
                &par,
            );
            assert!(
                grid.edge_ids().all(|e| grid.usage(e).is_finite() && grid.usage(e) >= 0.0),
                "case {case} produced a non-finite or negative prediction"
            );
        }
    }
}
