//! One configuration surface for everything that routes and scores.
//!
//! The session owns the scoring [`RouterConfig`] once; route / measure /
//! score / run-flow are plain methods on it, so no entry point needs a
//! `_with` twin that threads the configuration down by hand.

use crate::score::ContestScore;
use rdp_core::{CongestionSchedule, PlaceError, PlaceOptions, PlaceResult, Placer};
use rdp_db::validate::{check_legal, LegalityReport};
use rdp_db::{Design, Placement};
use rdp_gen::GeneratedBench;
use rdp_route::{CongestionMetrics, GlobalRouter, RouterConfig, RoutingOutcome};
use std::time::{Duration, Instant};

/// Full outcome of place-then-score on one benchmark.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The placer's result (placement, trace, stage stats).
    pub place: PlaceResult,
    /// Contest score of the final placement.
    pub score: ContestScore,
    /// Legality check of the final placement.
    pub legality: LegalityReport,
    /// Placement wall time (excludes scoring).
    pub place_time: Duration,
}

/// An evaluation context bound to one design: holds the scoring-router
/// configuration (and legality-check budget) so that routing, congestion
/// measurement, contest scoring and full place-then-score flows all run
/// against the *same* settings without re-threading them per call.
///
/// # Examples
///
/// ```
/// use rdp_eval::EvalSession;
/// use rdp_route::{LayerMode, RouterConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = rdp_gen::generate(&rdp_gen::GeneratorConfig::tiny("es", 1))?;
/// let session = EvalSession::new(&bench.design)
///     .with_router_config(RouterConfig::builder().layers(LayerMode::Layered).build());
/// let score = session.score(&bench.placement);
/// assert!(score.scaled_hpwl >= score.hpwl * 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalSession<'a> {
    design: &'a Design,
    router_config: RouterConfig,
    legality_spot_checks: usize,
    congestion_schedule: Option<CongestionSchedule>,
}

impl<'a> EvalSession<'a> {
    /// Creates a session for `design` with the default scoring-router
    /// configuration and legality budget.
    pub fn new(design: &'a Design) -> Self {
        EvalSession {
            design,
            router_config: RouterConfig::default(),
            legality_spot_checks: 32,
            congestion_schedule: None,
        }
    }

    /// Replaces the scoring-router configuration (builder-style).
    #[must_use]
    pub fn with_router_config(mut self, config: RouterConfig) -> Self {
        self.router_config = config;
        self
    }

    /// Sets the congestion-estimator schedule every flow this session
    /// runs places with (builder-style; see
    /// [`rdp_core::CongestionSchedule`]). `None` (the default) leaves the
    /// schedule in the passed [`PlaceOptions`] untouched.
    #[must_use]
    pub fn with_congestion_schedule(mut self, schedule: CongestionSchedule) -> Self {
        self.congestion_schedule = Some(schedule);
        self
    }

    /// Sets how many random overlap spot checks the legality report runs
    /// (builder-style). The default is 32.
    #[must_use]
    pub fn with_legality_spot_checks(mut self, checks: usize) -> Self {
        self.legality_spot_checks = checks;
        self
    }

    /// The design this session evaluates.
    pub fn design(&self) -> &'a Design {
        self.design
    }

    /// The scoring-router configuration every method routes with.
    pub fn router_config(&self) -> RouterConfig {
        self.router_config.clone()
    }

    /// Routes `placement` with the session's router configuration and
    /// returns the full outcome (grid, segments, per-layer metrics).
    pub fn route(&self, placement: &Placement) -> RoutingOutcome {
        GlobalRouter::new(self.router_config.clone()).route(self.design, placement)
    }

    /// Routes `placement` and returns only the congestion metrics.
    pub fn measure(&self, placement: &Placement) -> CongestionMetrics {
        self.route(placement).metrics
    }

    /// Scores `placement` per the contest protocol: route, measure RC,
    /// scale HPWL by `1 + 0.03·max(0, RC − 100)`.
    pub fn score(&self, placement: &Placement) -> ContestScore {
        let hpwl = rdp_db::hpwl::total_hpwl(self.design, placement);
        let t = Instant::now();
        let outcome = self.route(placement);
        let route_time = t.elapsed();
        ContestScore {
            hpwl,
            rc: outcome.metrics.rc,
            scaled_hpwl: hpwl * outcome.metrics.penalty_factor(),
            congestion: outcome.metrics,
            route_time,
        }
    }

    /// Places `initial` with `options`, then scores and legality-checks
    /// the result — the place-then-score flow with per-stage timing.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError`] for unplaceable designs.
    pub fn run_flow(
        &self,
        initial: &Placement,
        mut options: PlaceOptions,
    ) -> Result<FlowOutcome, PlaceError> {
        if let Some(schedule) = &self.congestion_schedule {
            options = options.with_estimator(schedule.clone());
        }
        let t = Instant::now();
        let place = Placer::new(self.design, options)
            .with_initial(initial.clone())
            .run()?;
        let place_time = t.elapsed();
        let score = self.score(&place.placement);
        let legality = check_legal(self.design, &place.placement, self.legality_spot_checks);
        Ok(FlowOutcome {
            place,
            score,
            legality,
            place_time,
        })
    }

    /// [`run_flow`](Self::run_flow) starting from a generated benchmark's
    /// seed placement.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError`] for unplaceable designs.
    pub fn run_flow_on(
        &self,
        bench: &GeneratedBench,
        options: PlaceOptions,
    ) -> Result<FlowOutcome, PlaceError> {
        self.run_flow(&bench.placement, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_gen::{generate, GeneratorConfig};
    use rdp_route::LayerMode;

    #[test]
    fn measure_agrees_with_score() {
        let bench = generate(&GeneratorConfig::tiny("es1", 11)).unwrap();
        let session = EvalSession::new(&bench.design);
        let s = session.score(&bench.placement);
        let m = session.measure(&bench.placement);
        assert_eq!(m.rc.to_bits(), s.congestion.rc.to_bits());
    }

    #[test]
    fn layered_session_reports_per_layer_congestion() {
        let bench = generate(&GeneratorConfig::tiny("es2", 12)).unwrap();
        let session = EvalSession::new(&bench.design).with_router_config(
            RouterConfig::builder().layers(LayerMode::Layered).build(),
        );
        let s = session.score(&bench.placement);
        assert_eq!(s.congestion.per_layer.len(), 4, "tiny preset has 4 layers");
        assert!(s.congestion.via_usage > 0.0, "3-D routes must climb off layer 1");
    }

    #[test]
    fn flow_runs_through_the_session() {
        let bench = generate(&GeneratorConfig::tiny("es3", 13)).unwrap();
        let session = EvalSession::new(&bench.design).with_legality_spot_checks(8);
        let out = session.run_flow_on(&bench, PlaceOptions::fast()).unwrap();
        assert!(out.legality.is_legal(), "violations: {:?}", out.legality.violations);
        assert!(out.score.scaled_hpwl >= out.score.hpwl * 0.999);
        assert!(out.place_time.as_nanos() > 0);
    }

    #[test]
    fn routability_mode_beats_wirelength_mode_on_rc() {
        // The headline claim (experiment T2's shape): the routability-driven
        // flow yields lower RC than the wirelength-driven baseline on a
        // supply-tight design.
        let mut cfg = GeneratorConfig::tiny("flr", 10);
        cfg.route.tracks_per_edge_h = 18.0;
        cfg.route.tracks_per_edge_v = 18.0;
        let bench = generate(&cfg).unwrap();
        let session = EvalSession::new(&bench.design);
        let full = session.run_flow_on(&bench, PlaceOptions::fast()).unwrap();
        let wl_only =
            session.run_flow_on(&bench, PlaceOptions::fast().wirelength_driven()).unwrap();
        assert!(
            full.score.rc <= wl_only.score.rc + 3.0,
            "routability flow rc {} much worse than baseline {}",
            full.score.rc,
            wl_only.score.rc
        );
    }

    #[test]
    fn session_schedule_overrides_the_flow_options() {
        use rdp_core::{CongestionSchedule, CongestionSource};
        let bench = generate(&GeneratorConfig::tiny("es4", 14)).unwrap();
        let session = EvalSession::new(&bench.design)
            .with_legality_spot_checks(8)
            .with_congestion_schedule(CongestionSchedule::Uniform(CongestionSource::Learned));
        let out = session.run_flow_on(&bench, PlaceOptions::fast()).unwrap();
        assert!(out
            .place
            .inflation
            .iter()
            .all(|s| s.source == CongestionSource::Learned));
        assert!(out.legality.is_legal());
    }
}
