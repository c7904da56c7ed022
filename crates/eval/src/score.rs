//! The DAC-2012 contest score: routed HPWL scaled by the RC penalty.
//! [`EvalSession::score`](crate::EvalSession::score) computes it.

use rdp_route::CongestionMetrics;
use std::time::Duration;

/// A placement's contest score.
#[derive(Debug, Clone, PartialEq)]
pub struct ContestScore {
    /// Plain half-perimeter wirelength.
    pub hpwl: f64,
    /// Congestion metrics from the scoring router.
    pub congestion: CongestionMetrics,
    /// RC in percent (convenience copy of `congestion.rc`).
    pub rc: f64,
    /// `HPWL · (1 + 0.03·max(0, RC − 100))` — the contest objective.
    pub scaled_hpwl: f64,
    /// Wall time the scoring route took.
    pub route_time: Duration,
}

impl ContestScore {
    /// Multi-line congestion summary: per-layer usage / overflow / peak
    /// ratio plus via demand, for layered scoring runs. Empty-layer grids
    /// (nothing routed) yield only the via line.
    pub fn congestion_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for l in &self.congestion.per_layer {
            let _ = writeln!(
                out,
                "  layer {:>2} ({}): usage {:>10.1}, overflow {:>8.1}, peak {:.2}",
                l.layer,
                if l.horizontal { 'H' } else { 'V' },
                l.usage,
                l.overflow,
                l.max_ratio,
            );
        }
        let _ = writeln!(
            out,
            "  vias:         usage {:>10.1}, overflow {:>8.1}",
            self.congestion.via_usage, self.congestion.via_overflow,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::EvalSession;
    use rdp_gen::{generate, GeneratorConfig};

    #[test]
    fn scaled_hpwl_applies_contest_penalty() {
        // Scatter cells over a supply-starved grid: long random nets swamp
        // the 6 tracks/edge and the penalty must bite. (An all-at-center
        // pile is *not* congested at gcell granularity — nets collapse
        // into single gcells — which is why the placer must spread before
        // congestion becomes meaningful.)
        let mut cfg = GeneratorConfig::tiny("sc", 3);
        cfg.route.tracks_per_edge_h = 6.0;
        cfg.route.tracks_per_edge_v = 6.0;
        let bench = generate(&cfg).unwrap();
        let mut pl = bench.placement.clone();
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(5);
        let die = bench.design.die();
        for id in bench.design.movable_ids() {
            pl.set_center(
                id,
                rdp_geom::Point::new(
                    rng.gen_range(die.xl..die.xh),
                    rng.gen_range(die.yl..die.yh),
                ),
            );
        }
        let s = EvalSession::new(&bench.design).score(&pl);
        assert!(s.hpwl > 0.0);
        let expect = s.hpwl * (1.0 + 0.03 * (s.rc - 100.0).max(0.0));
        assert!((s.scaled_hpwl - expect).abs() < 1e-6);
        assert!(s.rc > 100.0, "starved supply should over-congest, rc={}", s.rc);
        assert!(s.scaled_hpwl > s.hpwl);
    }

    #[test]
    fn uncongested_design_pays_no_penalty() {
        let mut cfg = GeneratorConfig::tiny("sc2", 4);
        cfg.route.tracks_per_edge_h = 100_000.0;
        cfg.route.tracks_per_edge_v = 100_000.0;
        let bench = generate(&cfg).unwrap();
        let s = EvalSession::new(&bench.design).score(&bench.placement);
        assert!(s.rc < 100.0);
        assert_eq!(s.scaled_hpwl, s.hpwl);
    }
}
