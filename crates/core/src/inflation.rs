//! Congestion-driven cell inflation — the routability mechanism of the
//! paper's ICCAD-2011 predecessor that NTUplace4h inherits.
//!
//! After global placement converges, a congestion map is estimated; cells
//! sitting in over-congested gcells get their *density* area inflated, and
//! global placement re-runs with the inflated areas. The density penalty
//! then pushes cells out of hot spots, trading a little wirelength for
//! routability. Physical sizes never change — only the density view.

use crate::model::Model;
use rdp_route::RouteGrid;

/// Inflation tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflationConfig {
    /// Congestion-ratio exponent: factor = ratio^alpha.
    pub alpha: f64,
    /// Cap on the cumulative inflation of a single cell
    /// (area ≤ cap × physical area).
    pub max_total: f64,
    /// Congestion ratio above which a cell inflates.
    pub threshold: f64,
}

impl Default for InflationConfig {
    fn default() -> Self {
        InflationConfig {
            alpha: 1.0,
            max_total: 2.5,
            threshold: 1.0,
        }
    }
}

/// Outcome of one inflation pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InflationStats {
    /// Which estimator tier supplied this round's congestion picture
    /// (placer-filled; [`inflate`] itself leaves the default).
    pub source: crate::placer::CongestionSource,
    /// Cells whose area grew this pass.
    pub inflated: usize,
    /// Total density area after / before the pass.
    pub growth: f64,
    /// Nets the congestion refresh feeding this pass (re)routed: all nets
    /// on a full-route round, the dirty-net count on an incremental one,
    /// `0` when the pattern estimator supplied the congestion (filled by
    /// the placer's routability loop, not by [`inflate`]).
    pub dirty_nets: usize,
    /// Wall-clock of that congestion refresh (also placer-filled).
    pub congestion_time: std::time::Duration,
    /// Cells skipped because their gcell congestion ratio (or the derived
    /// inflation factor) was non-finite — a corrupted-grid symptom.
    pub skipped_nonfinite: usize,
    /// Divergence recoveries the round's GP rerun performed
    /// (placer-filled).
    pub recoveries: usize,
    /// Whether the round's GP rerun failed and the placement was restored
    /// from the previous checkpoint (placer-filled).
    pub restored: bool,
    /// Whether this round's congestion came from (or switched the loop to)
    /// the probabilistic estimator after a router budget truncation or
    /// grid corruption (placer-filled).
    pub congestion_fallback: bool,
}

/// Inflates the density areas of objects sitting in congested gcells of
/// `grid`. Compounds across passes, capped at `config.max_total` times the
/// physical area. Macros are exempt (they are congestion *causes* handled
/// by blockage carving, not congestion *movers*), and so are
/// fence-constrained cells: a fence's capacity is fixed, so inflating its
/// members cannot spread them anywhere — it only fights the pull-in force
/// and destabilizes convergence.
pub fn inflate(model: &mut Model, grid: &RouteGrid, config: InflationConfig) -> InflationStats {
    let before: f64 = model.area.iter().sum();
    let mut inflated = 0;
    let mut skipped_nonfinite = 0;
    for i in 0..model.len() {
        if model.is_macro[i] || model.region[i].is_some() {
            continue;
        }
        let g = grid.gcell_of(model.pos(i));
        let ratio = grid.gcell_congestion(g);
        // A non-finite ratio (corrupted grid) must be skipped explicitly:
        // `NaN <= threshold` is false, so it would otherwise fall through
        // and poison the density area via `powf`/`min` below.
        if !ratio.is_finite() {
            skipped_nonfinite += 1;
            continue;
        }
        if ratio <= config.threshold {
            continue;
        }
        let factor = ratio.powf(config.alpha);
        if !factor.is_finite() {
            skipped_nonfinite += 1;
            continue;
        }
        let phys = model.size[i].0 * model.size[i].1;
        let new_area = (model.area[i] * factor).min(phys * config.max_total);
        if new_area > model.area[i] + 1e-12 {
            model.area[i] = new_area;
            inflated += 1;
        }
    }
    let after: f64 = model.area.iter().sum();
    InflationStats {
        inflated,
        growth: if before > 0.0 { after / before } else { 1.0 },
        skipped_nonfinite,
        ..InflationStats::default()
    }
}

/// Resets every object's density area to its physical area (used when a
/// fresh routability loop starts).
pub fn deflate(model: &mut Model) {
    for i in 0..model.len() {
        model.area[i] = model.size[i].0 * model.size[i].1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_geom::{Point, Rect};

    fn model_at(points: &[(f64, f64)]) -> Model {
        let n = points.len();
        Model::from_parts(
            points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            vec![(4.0, 10.0); n],
            vec![40.0; n],
            vec![false; n],
            vec![None; n],
            &[],
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        )
    }

    fn hot_grid() -> RouteGrid {
        // 10x10 grid over 100x100; make gcell (2,2) congested at ratio 2.
        let mut g = RouteGrid::uniform(10, 10, Point::ORIGIN, 10.0, 10.0, 10.0, 10.0);
        g.add_usage(g.h_edge(2, 2), 20.0);
        g
    }

    #[test]
    fn cells_in_hot_gcells_inflate() {
        let mut m = model_at(&[(25.0, 25.0), (85.0, 85.0)]);
        let stats = inflate(&mut m, &hot_grid(), InflationConfig::default());
        assert_eq!(stats.inflated, 1);
        assert!((m.area[0] - 80.0).abs() < 1e-9, "ratio 2 doubles the area");
        assert_eq!(m.area[1], 40.0, "cold cell untouched");
        assert!(stats.growth > 1.0);
    }

    #[test]
    fn inflation_compounds_but_caps() {
        let mut m = model_at(&[(25.0, 25.0)]);
        let cfg = InflationConfig::default();
        inflate(&mut m, &hot_grid(), cfg);
        inflate(&mut m, &hot_grid(), cfg);
        inflate(&mut m, &hot_grid(), cfg);
        // 40 * 2 * 2 = 160 > cap 2.5*40 = 100.
        assert!((m.area[0] - 100.0).abs() < 1e-9, "area {} caps at 100", m.area[0]);
    }

    #[test]
    fn macros_are_exempt() {
        let mut m = model_at(&[(25.0, 25.0)]);
        m.is_macro[0] = true;
        let stats = inflate(&mut m, &hot_grid(), InflationConfig::default());
        assert_eq!(stats.inflated, 0);
        assert_eq!(m.area[0], 40.0);
    }

    #[test]
    fn threshold_gates_inflation() {
        let mut m = model_at(&[(25.0, 25.0)]);
        let cfg = InflationConfig { threshold: 3.0, ..InflationConfig::default() };
        let stats = inflate(&mut m, &hot_grid(), cfg);
        assert_eq!(stats.inflated, 0);
    }

    #[test]
    fn non_finite_congestion_is_skipped_not_poisoned() {
        let mut m = model_at(&[(25.0, 25.0), (85.0, 85.0)]);
        let mut g = hot_grid();
        // Infinite usage near cell 0 → non-finite ratio for its gcell.
        g.add_usage(g.h_edge(2, 2), f64::INFINITY);
        let stats = inflate(&mut m, &g, InflationConfig::default());
        assert_eq!(stats.inflated, 0);
        assert_eq!(stats.skipped_nonfinite, 1);
        assert!(m.area.iter().all(|a| a.is_finite()));
        assert_eq!(m.area[0], 40.0, "poisoned ratio must not touch the area");
    }

    #[test]
    fn deflate_restores_physical_area() {
        let mut m = model_at(&[(25.0, 25.0)]);
        inflate(&mut m, &hot_grid(), InflationConfig::default());
        assert!(m.area[0] > 40.0);
        deflate(&mut m);
        assert_eq!(m.area[0], 40.0);
    }
}
