//! Congestion-driven net weighting — the alternative routability mechanism
//! to cell inflation used by several contest-era placers (and listed as an
//! extension point of the paper's flow).
//!
//! Where inflation spreads *cells* out of hot spots, net weighting makes
//! the wirelength force pull *nets that cross hot spots* shorter, shrinking
//! the demand itself. Both mechanisms consume the same congestion map and
//! compose; the component-ablation table (T5) measures each.

use crate::model::Model;
use rdp_route::RouteGrid;

/// Weight boost per unit of congestion-ratio excess:
/// `factor = 1 + STRENGTH·(ratio − 1)`.
const STRENGTH: f64 = 2.0;
/// Cap on the weight multiplier.
const MAX_FACTOR: f64 = 4.0;

/// Re-derives every net's weight from `base` (the design weights) times a
/// congestion factor sampled at its pins' gcells (`1 + 2·(ratio − 1)`,
/// capped at 4). Returns the number of nets boosted above their base
/// weight.
///
/// # Panics
///
/// Panics if `base.len() != model.num_nets()`.
pub fn apply_congestion_weights(
    model: &mut Model,
    grid: &RouteGrid,
    base: &[f64],
) -> usize {
    assert_eq!(base.len(), model.num_nets(), "base weight vector mismatch");
    let mut boosted = 0;
    for (ni, &b) in base.iter().enumerate() {
        let mut worst: f64 = 0.0;
        for k in model.net_pins(ni) {
            let pos = model.pin_position(k);
            worst = worst.max(grid.gcell_congestion(grid.gcell_of(pos)));
        }
        let factor = if worst > 1.0 {
            (1.0 + STRENGTH * (worst - 1.0)).min(MAX_FACTOR)
        } else {
            1.0
        };
        let new = b * factor;
        if new > b + 1e-12 {
            boosted += 1;
        }
        model.net_weight[ni] = new;
    }
    boosted
}

/// Restores the base weights (used when a routability loop ends).
pub fn reset_weights(model: &mut Model, base: &[f64]) {
    for (w, &b) in model.net_weight.iter_mut().zip(base) {
        *w = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelNet, ModelPin};
    use rdp_geom::{Point, Rect};

    fn model_with_nets() -> Model {
        Model::from_parts(
            vec![Point::new(25.0, 25.0), Point::new(85.0, 85.0)],
            vec![(4.0, 10.0); 2],
            vec![40.0; 2],
            vec![false; 2],
            vec![None; 2],
            &[
                ModelNet {
                    weight: 1.0,
                    pins: vec![ModelPin::movable(0, Point::ORIGIN), ModelPin::fixed(Point::new(20.0, 20.0))],
                },
                ModelNet {
                    weight: 2.0,
                    pins: vec![ModelPin::movable(1, Point::ORIGIN), ModelPin::fixed(Point::new(90.0, 90.0))],
                },
            ],
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        )
    }

    fn hot_grid() -> RouteGrid {
        let mut g = RouteGrid::uniform(10, 10, Point::ORIGIN, 10.0, 10.0, 10.0, 10.0);
        g.add_usage(g.h_edge(2, 2), 20.0); // gcell (2,2) at ratio 2
        g
    }

    #[test]
    fn nets_through_hot_spots_gain_weight() {
        let mut m = model_with_nets();
        let base = vec![1.0, 2.0];
        let boosted = apply_congestion_weights(&mut m, &hot_grid(), &base);
        assert_eq!(boosted, 1);
        // Net 0 touches the hot gcell (ratio 2): factor 1 + 2·1 = 3.
        assert!((m.net_weight[0] - 3.0).abs() < 1e-9);
        // Net 1 is cold: base weight kept.
        assert_eq!(m.net_weight[1], 2.0);
    }

    #[test]
    fn factor_caps_and_recomputes_from_base() {
        let mut m = model_with_nets();
        let base = vec![1.0, 2.0];
        let mut g = hot_grid();
        g.add_usage(g.h_edge(2, 2), 200.0); // absurd ratio
        apply_congestion_weights(&mut m, &g, &base);
        assert!((m.net_weight[0] - 4.0).abs() < 1e-9, "capped at MAX_FACTOR");
        // Applying twice does not compound (recomputed from base).
        apply_congestion_weights(&mut m, &g, &base);
        assert!((m.net_weight[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_base() {
        let mut m = model_with_nets();
        let base = vec![1.0, 2.0];
        apply_congestion_weights(&mut m, &hot_grid(), &base);
        reset_weights(&mut m, &base);
        assert_eq!(m.net_weight[0], 1.0);
        assert_eq!(m.net_weight[1], 2.0);
    }
}
