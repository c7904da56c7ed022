//! The end-to-end placement pipeline: multilevel clustering → analytical
//! global placement (hierarchy-aware, with macro rotation) → routability
//! optimization (congestion-driven inflation) → legalization → detailed
//! placement.

use crate::cluster::{build_levels, project_down};
use crate::detail::{detailed_place, DetailOptions, DetailStats};
use crate::inflation::{inflate, InflationConfig, InflationStats};
use crate::legalize::{legalize_with_displacement_par, LegalizeStats};
use crate::macro_handling::optimize_macro_orientations;
use crate::model::Model;
use crate::optimizer::{run_global_place, GpOptions, GpOutcome};
use crate::recovery::{BudgetClock, DegradedResult, FlowBudget, FlowCheckpoint, RecoveryEvent};
use crate::trace::Trace;
use rdp_db::{Design, NodeId, Placement, Region};
use rdp_geom::Rect;
use rdp_route::{GlobalRouter, RouteGrid, RouterConfig, RoutingOutcome};
use std::fmt;
use std::time::{Duration, Instant};

/// Error cases of [`Placer::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The design has no movable nodes.
    NothingToPlace,
    /// The design has standard cells but no rows to legalize them into.
    NoRows,
    /// Global placement diverged beyond recovery and no feasible
    /// checkpoint exists to fall back to (e.g. the *initial* placement was
    /// already non-finite). Mid-flow divergence never reaches this: it
    /// rolls back to the latest [`FlowCheckpoint`] and reports a
    /// [`DegradedResult`] instead.
    Diverged {
        /// The stage that diverged.
        stage: String,
        /// Recovery retries spent before giving up.
        retries: usize,
    },
    /// A checkpoint passed to [`Placer::resume_from`] does not fit the
    /// design (wrong node count, wrong object count, or non-finite state).
    BadResume {
        /// What was inconsistent.
        reason: String,
    },
    /// The cancel token fired and [`Placer::run`] (rather than
    /// [`Placer::run_resumable`], which returns the checkpoint) was used.
    Interrupted {
        /// Stage of the checkpoint the run stopped at.
        stage: String,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::NothingToPlace => write!(f, "design has no movable nodes"),
            PlaceError::NoRows => write!(f, "design has standard cells but no placement rows"),
            PlaceError::Diverged { stage, retries } => write!(
                f,
                "placement diverged unrecoverably in stage `{stage}` ({retries} recovery retries, no checkpoint to restore)"
            ),
            PlaceError::BadResume { reason } => {
                write!(f, "resume checkpoint does not fit the design: {reason}")
            }
            PlaceError::Interrupted { stage } => {
                write!(f, "placement interrupted by cancel token at stage `{stage}`")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Macro-orientation optimization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationMode {
    /// Greedy argmin over the eight orientations against exact incident
    /// HPWL (robust; the default).
    #[default]
    Discrete,
    /// The paper's continuous rotation force: a per-macro angle variable
    /// optimized analytically and snapped to quarter turns, followed by a
    /// discrete flipping decision.
    Continuous,
}

/// One tier of the congestion-estimator ladder, cheapest to most
/// accurate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionSource {
    /// The fast probabilistic pattern estimate
    /// ([`rdp_route::pattern::estimate_congestion_into`]).
    #[default]
    Probabilistic,
    /// The learned per-edge regressor ([`rdp_route::learned`]): trained
    /// offline on the router's own overflow, a few times the estimator's
    /// cost and a fraction of the router's.
    Learned,
    /// *True routed* congestion from the negotiation router: the first
    /// router round routes the design from scratch, every later one calls
    /// [`GlobalRouter::reroute_incremental`] on just the moved cells.
    Router,
}

impl CongestionSource {
    /// Short label, as it appears in the trace CSV `estimator_tier`
    /// column and the CLI `--estimator` flag.
    pub fn label(self) -> &'static str {
        match self {
            CongestionSource::Probabilistic => "prob",
            CongestionSource::Learned => "learned",
            CongestionSource::Router => "router",
        }
    }
}

/// Which [`CongestionSource`] each routability round consumes.
///
/// The default ([`CongestionSchedule::Uniform`] probabilistic) is
/// byte-identical to the historical estimator-only loop;
/// [`CongestionSchedule::auto`] is the recommended ladder — cheap learned
/// tiers early, the real incremental router for the last round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongestionSchedule {
    /// Every round uses the same source.
    Uniform(CongestionSource),
    /// Round `i` uses `sources[i]`; rounds beyond the list repeat the
    /// last entry (an empty list behaves like the default).
    PerRound(Vec<CongestionSource>),
    /// The learned tier for every round except the final `router_tail`
    /// rounds, which use the incremental router.
    Ladder {
        /// How many trailing rounds get true routed congestion.
        router_tail: usize,
    },
}

impl Default for CongestionSchedule {
    fn default() -> Self {
        CongestionSchedule::Uniform(CongestionSource::Probabilistic)
    }
}

impl CongestionSchedule {
    /// The recommended ladder: learned rounds early, one router round
    /// last.
    pub fn auto() -> Self {
        CongestionSchedule::Ladder { router_tail: 1 }
    }

    /// The source of inflation round `round` out of `total_rounds`.
    pub fn source_for(&self, round: usize, total_rounds: usize) -> CongestionSource {
        match self {
            CongestionSchedule::Uniform(s) => *s,
            CongestionSchedule::PerRound(v) => v
                .get(round)
                .or(v.last())
                .copied()
                .unwrap_or_default(),
            CongestionSchedule::Ladder { router_tail } => {
                if round + router_tail >= total_rounds {
                    CongestionSource::Router
                } else {
                    CongestionSource::Learned
                }
            }
        }
    }

    /// Parses the CLI spelling: `prob`, `learned`, `router` (uniform
    /// schedules) or `auto` (the ladder).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "prob" => Some(CongestionSchedule::Uniform(CongestionSource::Probabilistic)),
            "learned" => Some(CongestionSchedule::Uniform(CongestionSource::Learned)),
            "router" => Some(CongestionSchedule::Uniform(CongestionSource::Router)),
            "auto" => Some(CongestionSchedule::auto()),
            _ => None,
        }
    }
}

/// How the routability loop obtains its congestion picture: a
/// [`CongestionSchedule`] over the three estimator tiers, plus the router
/// and learned-tier configuration. Construct via
/// [`GpRoutabilityOptions::builder`] (mirrors [`RouterConfig::builder`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct GpRoutabilityOptions {
    /// Router configuration of the [`CongestionSource::Router`] tier. Its
    /// `parallelism` is overridden by [`GpOptions::parallelism`] so the
    /// whole pipeline shares one thread-count knob.
    pub router: RouterConfig,
    /// Which tier each inflation round consumes.
    pub schedule: CongestionSchedule,
    /// Weights of the [`CongestionSource::Learned`] tier; `None` uses the
    /// checked-in [`rdp_route::EstimatorWeights::builtin`] set.
    pub estimator_weights: Option<rdp_route::EstimatorWeights>,
}

impl Default for GpRoutabilityOptions {
    fn default() -> Self {
        GpRoutabilityOptions::builder().build()
    }
}

impl GpRoutabilityOptions {
    /// Starts a builder with the default (probabilistic-only) schedule.
    pub fn builder() -> GpRoutabilityOptionsBuilder {
        GpRoutabilityOptionsBuilder::default()
    }

    /// A builder seeded with this configuration, for deriving variants.
    pub fn to_builder(&self) -> GpRoutabilityOptionsBuilder {
        GpRoutabilityOptionsBuilder {
            router: self.router.clone(),
            schedule: self.schedule.clone(),
            estimator_weights: self.estimator_weights.clone(),
        }
    }

    /// The schedule the placer runs.
    pub fn effective_schedule(&self) -> CongestionSchedule {
        self.schedule.clone()
    }

    /// The learned-tier weights in effect (explicit or built-in).
    pub fn weights(&self) -> &rdp_route::EstimatorWeights {
        self.estimator_weights
            .as_ref()
            .unwrap_or_else(|| rdp_route::EstimatorWeights::builtin())
    }
}

/// Builder of [`GpRoutabilityOptions`] (the congestion-source half of the
/// placement options), mirroring [`RouterConfig::builder`].
///
/// # Examples
///
/// ```
/// use rdp_core::{CongestionSchedule, GpRoutabilityOptions};
///
/// let opts = GpRoutabilityOptions::builder()
///     .schedule(CongestionSchedule::auto())
///     .build();
/// assert_eq!(opts.effective_schedule(), CongestionSchedule::auto());
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpRoutabilityOptionsBuilder {
    router: RouterConfig,
    schedule: CongestionSchedule,
    estimator_weights: Option<rdp_route::EstimatorWeights>,
}

impl GpRoutabilityOptionsBuilder {
    /// Sets the router configuration of the router tier.
    pub fn router(mut self, config: RouterConfig) -> Self {
        self.router = config;
        self
    }

    /// Sets the per-round congestion schedule.
    pub fn schedule(mut self, schedule: CongestionSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Shorthand for a uniform schedule over one source.
    pub fn source(self, source: CongestionSource) -> Self {
        self.schedule(CongestionSchedule::Uniform(source))
    }

    /// Overrides the learned-tier weights (default: the checked-in set).
    pub fn estimator_weights(mut self, weights: rdp_route::EstimatorWeights) -> Self {
        self.estimator_weights = Some(weights);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> GpRoutabilityOptions {
        GpRoutabilityOptions {
            router: self.router,
            schedule: self.schedule,
            estimator_weights: self.estimator_weights,
        }
    }
}

/// Configuration of a full placement run.
///
/// The presets encode the experiment configurations of DESIGN.md:
/// [`PlaceOptions::default`] is the paper's full flow,
/// [`PlaceOptions::wirelength_driven`] is baseline **B1** (no routability),
/// [`PlaceOptions::fence_blind`] is **B2**, [`PlaceOptions::flat`] is
/// **B3**, and `with_wirelength(Lse)` gives **B4**.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceOptions {
    /// Global-placement engine options.
    pub gp: GpOptions,
    /// Enable multilevel clustering.
    pub multilevel: bool,
    /// Stop coarsening below this object count.
    pub cluster_limit: usize,
    /// Honor fence regions during global placement (region density fields
    /// + pull-in force). Legalization always honors them.
    pub hierarchy_aware: bool,
    /// Enable the congestion-driven routability loop.
    pub routability: bool,
    /// Routability rounds.
    pub inflation_rounds: usize,
    /// Inflation tuning.
    pub inflation: InflationConfig,
    /// Congestion source of the routability loop (pattern estimate vs the
    /// incremental negotiation router).
    pub routability_opts: GpRoutabilityOptions,
    /// Spread cells out of hot spots by inflating their density area
    /// (the paper's primary mechanism).
    pub inflate_cells: bool,
    /// Additionally shorten congested nets by boosting their weights (the
    /// alternative mechanism several contest placers used; off by default).
    pub net_weighting: bool,
    /// Net-weighting tuning.
    pub net_weighting_config: crate::net_weighting::NetWeightingConfig,
    /// Enable macro rotation/flipping optimization.
    pub macro_rotation: bool,
    /// How macro orientations are optimized (discrete re-selection or the
    /// paper's continuous rotation force; see [`crate::rotation`]).
    pub rotation_mode: RotationMode,
    /// Run detailed placement after legalization.
    pub detailed: bool,
    /// Detailed-placement tuning.
    pub detail: DetailOptions,
    /// Wall-clock budgets; the default is unlimited. See [`FlowBudget`]
    /// for the truncation semantics of each scope.
    pub budget: FlowBudget,
    /// Seed for the symmetry-breaking initial jitter.
    pub seed: u64,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            gp: GpOptions::default(),
            multilevel: true,
            cluster_limit: 1500,
            hierarchy_aware: true,
            routability: true,
            inflation_rounds: 3,
            inflation: InflationConfig::default(),
            routability_opts: GpRoutabilityOptions::default(),
            inflate_cells: true,
            net_weighting: false,
            net_weighting_config: crate::net_weighting::NetWeightingConfig::default(),
            rotation_mode: RotationMode::Discrete,
            macro_rotation: true,
            detailed: true,
            detail: DetailOptions { passes: 2, congestion_weight: 8.0, ..DetailOptions::default() },
            budget: FlowBudget::default(),
            seed: 1,
        }
    }
}

impl PlaceOptions {
    /// Reduced-effort preset for tests, examples and CI.
    pub fn fast() -> Self {
        PlaceOptions {
            gp: GpOptions {
                max_outer: 14,
                inner_iters: 25,
                overflow_target: 0.12,
                ..GpOptions::default()
            },
            inflation_rounds: 2,
            detail: DetailOptions { passes: 1, congestion_weight: 8.0, ..DetailOptions::default() },
            ..PlaceOptions::default()
        }
    }

    /// Baseline **B1**: pure wirelength-driven placement (NTUplace4-like) —
    /// no congestion estimation, no inflation.
    pub fn wirelength_driven(self) -> Self {
        PlaceOptions {
            routability: false,
            detail: DetailOptions { congestion_weight: 0.0, ..self.detail },
            ..self
        }
    }

    /// Baseline **B2**: hierarchy-blind global placement (fences only seen
    /// by the legalizer).
    pub fn fence_blind(self) -> Self {
        PlaceOptions { hierarchy_aware: false, ..self }
    }

    /// Baseline **B3**: flat (non-multilevel) global placement.
    pub fn flat(self) -> Self {
        PlaceOptions { multilevel: false, ..self }
    }

    /// Selects the smooth wirelength model (**T4** compares Wa vs Lse).
    pub fn with_wirelength(mut self, model: crate::WirelengthModel) -> Self {
        self.gp.wirelength = model;
        self
    }

    /// Disables macro rotation (**T5** ablation).
    pub fn without_rotation(self) -> Self {
        PlaceOptions { macro_rotation: false, ..self }
    }

    /// Switches the routability mechanism from cell inflation to
    /// congestion-driven net weighting (**T5** compares both).
    pub fn with_net_weighting_only(self) -> Self {
        PlaceOptions {
            inflate_cells: false,
            net_weighting: true,
            ..self
        }
    }

    /// Uses the continuous rotation force instead of discrete orientation
    /// re-selection.
    pub fn with_continuous_rotation(self) -> Self {
        PlaceOptions { rotation_mode: RotationMode::Continuous, ..self }
    }

    /// Sets the worker-thread count for the parallel kernels (`0` = one per
    /// available CPU). Results are bitwise identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.gp.parallelism = rdp_geom::parallel::Parallelism::new(threads);
        self
    }

    /// Selects the global-placement solver and density model (the
    /// ePlace-style path is `with_solver(GpSolver::Nesterov,
    /// GpDensityModel::Electrostatic)`; the default is CG + bell).
    pub fn with_solver(
        mut self,
        solver: crate::optimizer::GpSolver,
        density_model: crate::optimizer::GpDensityModel,
    ) -> Self {
        self.gp.solver = solver;
        self.gp.density_model = density_model;
        self
    }

    /// Feeds the inflation rounds true routed congestion via the
    /// incremental reroute API instead of the pattern estimate (first
    /// round routes from scratch, later rounds reroute only moved cells).
    /// Shorthand for `with_estimator(CongestionSchedule::Uniform(
    /// CongestionSource::Router))`.
    pub fn with_router_congestion(self) -> Self {
        self.with_estimator(CongestionSchedule::Uniform(CongestionSource::Router))
    }

    /// Sets the congestion-estimator schedule of the routability loop
    /// (which of the three tiers each inflation round consumes; see
    /// [`CongestionSchedule`]).
    pub fn with_estimator(mut self, schedule: CongestionSchedule) -> Self {
        self.routability_opts.schedule = schedule;
        self
    }

    /// Sets the wall-clock budgets of the flow (see [`FlowBudget`]).
    pub fn with_budget(mut self, budget: FlowBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Outcome of a full placement run.
#[derive(Debug, Clone)]
pub struct PlaceResult {
    /// The final (legal, unless legalization reported failures) placement.
    pub placement: Placement,
    /// Final total HPWL.
    pub hpwl: f64,
    /// Global-placement outcome of the last GP stage.
    pub gp: GpOutcome,
    /// Legalization statistics.
    pub legalize: LegalizeStats,
    /// Detailed-placement statistics, when enabled.
    pub detail: Option<DetailStats>,
    /// Inflation statistics per routability round.
    pub inflation: Vec<InflationStats>,
    /// Convergence and stage-timing trace.
    pub trace: Trace,
    /// Structured degradation report: `Some` when the flow diverged, fell
    /// back, rolled back to a checkpoint or was budget-truncated — the
    /// placement is then the best recovered one, not the full-quality
    /// flow's output. `None` on a clean run.
    pub degraded: Option<DegradedResult>,
    /// Total wall time.
    pub elapsed: Duration,
}

/// The placement engine.
///
/// # Examples
///
/// ```
/// use rdp_core::{PlaceOptions, Placer};
/// use rdp_gen::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = generate(&GeneratorConfig::tiny("p", 5))?;
/// let result = Placer::new(&bench.design, PlaceOptions::fast())
///     .with_initial(bench.placement.clone())
///     .run()?;
/// assert!(result.hpwl > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct Placer<'a> {
    design: &'a Design,
    options: PlaceOptions,
    initial: Option<Placement>,
    resume: Option<FlowCheckpoint>,
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    checkpoint_sink: Option<CheckpointSink<'a>>,
}

/// Observer invoked with each [`FlowCheckpoint`] as a stage completes.
type CheckpointSink<'a> = Box<dyn FnMut(&FlowCheckpoint) + Send + 'a>;

impl fmt::Debug for Placer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Placer")
            .field("options", &self.options)
            .field("initial", &self.initial.is_some())
            .field("resume", &self.resume.as_ref().map(|cp| cp.stage.as_str()))
            .field("cancel", &self.cancel.is_some())
            .field("checkpoint_sink", &self.checkpoint_sink.is_some())
            .finish()
    }
}

/// Outcome of [`Placer::run_resumable`]: the flow either ran to the end or
/// stopped at a stage boundary because the cancel token fired.
#[derive(Debug)]
pub enum FlowProgress {
    /// The pipeline completed (possibly degraded — see
    /// [`PlaceResult::degraded`]).
    Completed(Box<PlaceResult>),
    /// The cancel token fired; the carried checkpoint is the last completed
    /// stage, suitable for [`Placer::resume_from`] in a later run.
    Interrupted(FlowCheckpoint),
}

impl<'a> Placer<'a> {
    /// Creates a placer. Without [`Placer::with_initial`], fixed nodes are
    /// assumed pre-placed by the design's own `.pl` semantics — i.e. the
    /// default [`Placement::new_centered`] puts *everything* (including
    /// fixed nodes) at the die center, which is only meaningful for designs
    /// without fixed nodes. Benchmarks should always pass their initial
    /// placement.
    pub fn new(design: &'a Design, options: PlaceOptions) -> Self {
        Placer {
            design,
            options,
            initial: None,
            resume: None,
            cancel: None,
            checkpoint_sink: None,
        }
    }

    /// Supplies the initial placement (fixed-node positions, terminal
    /// positions, optional warm-start positions for movables).
    pub fn with_initial(mut self, placement: Placement) -> Self {
        self.initial = Some(placement);
        self
    }

    /// Resumes the pipeline from a [`FlowCheckpoint`] captured by an
    /// earlier run (via [`Placer::with_checkpoint_sink`]) instead of
    /// starting from scratch: jitter and global placement are skipped, the
    /// inflation loop re-enters at `rounds_done`, and a legal checkpoint
    /// skips straight to detailed placement.
    ///
    /// In the default estimator-congestion mode the resumed final
    /// placement is **bitwise identical** to the uninterrupted run at any
    /// thread count; the router-congestion mode re-routes from scratch on
    /// resume (its warm routing state is not checkpointed), which may
    /// legitimately shift later rounds.
    pub fn resume_from(mut self, checkpoint: FlowCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Observes every checkpoint the flow saves, as it is saved. A job
    /// server persists them so a killed run can [`Placer::resume_from`]
    /// the latest one.
    pub fn with_checkpoint_sink(
        mut self,
        sink: impl FnMut(&FlowCheckpoint) + Send + 'a,
    ) -> Self {
        self.checkpoint_sink = Some(Box::new(sink));
        self
    }

    /// Attaches a cooperative cancel token, polled at stage boundaries
    /// (never mid-kernel). When it reads `true`, [`Placer::run_resumable`]
    /// returns [`FlowProgress::Interrupted`] with the latest checkpoint.
    /// Because resume is bitwise-exact, the nondeterministic *timing* of a
    /// cancellation never changes the final placement — only where the
    /// work pauses.
    pub fn with_cancel(
        mut self,
        token: std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] for structurally unplaceable designs, and
    /// [`PlaceError::Interrupted`] if a cancel token fired mid-run (use
    /// [`Placer::run_resumable`] to receive the checkpoint instead).
    pub fn run(self) -> Result<PlaceResult, PlaceError> {
        match self.run_resumable()? {
            FlowProgress::Completed(result) => Ok(*result),
            FlowProgress::Interrupted(cp) => Err(PlaceError::Interrupted { stage: cp.stage }),
        }
    }

    /// Runs the full pipeline with cancellation and resume support: the
    /// cancel token (see [`Placer::with_cancel`]) is polled at stage
    /// boundaries and stops the run at its latest checkpoint, which a
    /// later [`Placer::resume_from`] continues bitwise-exactly (in
    /// estimator-congestion mode).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] for structurally unplaceable designs or a
    /// checkpoint that does not fit the design.
    pub fn run_resumable(self) -> Result<FlowProgress, PlaceError> {
        let design = self.design;
        let opts = self.options;
        let mut sink = self.checkpoint_sink;
        let cancel = self.cancel;
        let resume = self.resume;
        let t_start = Instant::now();

        if design.movable_ids().next().is_none() {
            return Err(PlaceError::NothingToPlace);
        }
        let has_cells = design.node_ids().any(|id| design.node(id).is_std_cell());
        if has_cells && design.rows().is_empty() {
            return Err(PlaceError::NoRows);
        }

        // A resume checkpoint must structurally fit this design and be
        // finite — anything else is a caller error (wrong design, corrupt
        // file), not a recoverable flow state.
        if let Some(cp) = &resume {
            let num_objects = design.movable_ids().count();
            if cp.placement.len() != design.nodes().len() {
                return Err(PlaceError::BadResume {
                    reason: format!(
                        "checkpoint has {} nodes, design has {}",
                        cp.placement.len(),
                        design.nodes().len()
                    ),
                });
            }
            if cp.density_area.len() != num_objects {
                return Err(PlaceError::BadResume {
                    reason: format!(
                        "checkpoint has {} density areas, design has {} movable objects",
                        cp.density_area.len(),
                        num_objects
                    ),
                });
            }
            if cp.placement.centers().iter().any(|c| !c.is_finite())
                || cp.density_area.iter().any(|a| !a.is_finite())
            {
                return Err(PlaceError::BadResume {
                    reason: "checkpoint contains non-finite state".into(),
                });
            }
        }

        let resuming = resume.is_some();
        let mut placement = match &resume {
            Some(cp) => cp.placement.clone(),
            None => self.initial.unwrap_or_else(|| Placement::new_centered(design)),
        };
        let mut trace = Trace::new();

        // Symmetry-breaking jitter around the initial positions. A resumed
        // run restarts *after* global placement, so jitter (an input of the
        // GP stage) must not be re-applied.
        if !resuming {
            let mut rng = rdp_geom::rng::Rng::seed_from_u64(opts.seed);
            let die = design.die();
            let jx = die.width() * 0.05;
            let jy = die.height() * 0.05;
            for id in design.movable_ids() {
                let c = placement.center(id);
                let p = rdp_geom::Point::new(
                    rdp_geom::clamp(c.x + rng.gen_range(-jx..jx), die.xl, die.xh),
                    rdp_geom::clamp(c.y + rng.gen_range(-jy..jy), die.yl, die.yh),
                );
                placement.set_center(id, p);
            }

            // The resilience layer has nothing to roll back to before the
            // first GP stage completes, so a non-finite *initial* placement
            // is the one divergence that surfaces as a hard error.
            if design
                .node_ids()
                .any(|id| !placement.center(id).is_finite())
            {
                return Err(PlaceError::Diverged { stage: "initial".into(), retries: 0 });
            }
        }

        let blocked: Vec<(Rect, f64)> = design
            .node_ids()
            .filter(|&id| design.node(id).kind() == rdp_db::NodeKind::Fixed)
            .flat_map(|id| design.blocking_rects(id, &placement))
            .map(|r| (r, 1.0))
            .collect();
        let gp_regions: &[Region] = if opts.hierarchy_aware { design.regions() } else { &[] };

        // The model is fully derivable from (design, placement) except for
        // the density areas, which cell inflation mutates cumulatively —
        // those are restored from the checkpoint on resume.
        let mut model = Model::from_design(design, &placement);
        if let Some(cp) = &resume {
            model.area.copy_from_slice(&cp.density_area);
        }
        let mut gp_outcome;

        // Resilience state: the first degraded stage (drives the
        // [`DegradedResult`] report), the checkpoint restored from (if
        // any), the latest feasible checkpoint, and the flow-wide budget.
        let mut degraded_stage: Option<String> = None;
        let mut restored_from: Option<String> = None;
        let resume_at_legalize = resume.as_ref().is_some_and(|cp| cp.legal);
        let start_round = resume.as_ref().map_or(0, |cp| cp.rounds_done);
        let mut rounds_done = start_round;
        let resume_gp = resume.as_ref().map(|cp| cp.gp);
        let mut checkpoint: Option<FlowCheckpoint> = resume;
        let flow_clock = BudgetClock::new(opts.budget.flow_wall);
        let cancelled = || {
            cancel
                .as_ref()
                .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
        };

        if let Some(gp) = resume_gp {
            // Resumed run: global placement (and macro rotation) already
            // completed in the checkpointed run; the checkpoint placement
            // and restored density areas carry their full effect.
            gp_outcome = gp;
        } else {
            // --- Multilevel V-cycle (downward refinement half). ---
            let t_gp = Instant::now();
            if opts.multilevel {
                let levels = build_levels(&model, opts.cluster_limit);
                if let Some(coarsest) = levels.last() {
                    let mut coarse = coarsest.coarse.clone();
                    let coarse_opts = GpOptions {
                        max_outer: opts.gp.max_outer / 2 + 2,
                        ..opts.gp.clone()
                    };
                    // Coarse-level divergence is non-fatal: the level only
                    // provides a warm start, and the model is left at its
                    // last finite iterate either way.
                    if let Err(div) = run_global_place(
                        &mut coarse,
                        gp_regions,
                        &blocked,
                        &coarse_opts,
                        &mut trace,
                        &format!("gp/level{}", levels.len()),
                    ) {
                        degraded_stage.get_or_insert(div.stage);
                    }
                    // Walk down the hierarchy.
                    let mut positions = coarse.positions();
                    for (li, lvl) in levels.iter().enumerate().rev() {
                        // Reconstruct the model at this level: it is either
                        // the next level's coarse model or the finest model.
                        let mut level_model = if li == 0 {
                            model.clone()
                        } else {
                            levels[li - 1].coarse.clone()
                        };
                        let projected = crate::cluster::Clustering {
                            coarse: {
                                let mut c = lvl.coarse.clone();
                                c.set_positions(&positions);
                                c
                            },
                            parent: lvl.parent.clone(),
                        };
                        project_down(&mut level_model, &projected);
                        let level_opts = if li == 0 {
                            opts.gp.clone()
                        } else {
                            GpOptions { max_outer: opts.gp.max_outer / 2 + 2, ..opts.gp.clone() }
                        };
                        if let Err(div) = run_global_place(
                            &mut level_model,
                            gp_regions,
                            &blocked,
                            &level_opts,
                            &mut trace,
                            &format!("gp/level{li}"),
                        ) {
                            degraded_stage.get_or_insert(div.stage);
                        }
                        positions = level_model.positions();
                        if li == 0 {
                            model = level_model;
                        }
                    }
                }
            }
            gp_outcome = match run_global_place(
                &mut model,
                gp_regions,
                &blocked,
                &opts.gp,
                &mut trace,
                "gp/final",
            ) {
                Ok(out) => out,
                Err(div) => {
                    // The model holds its last finite iterate — usable,
                    // just not converged. Continue the flow degraded.
                    degraded_stage.get_or_insert(div.stage);
                    div.best
                }
            };
            // Paranoia: the optimizer contract guarantees a finite iterate
            // on both the Ok and Err paths; a non-finite position here
            // means the contract was violated upstream and nothing
            // checkpointable exists.
            if model.pos_x.iter().chain(&model.pos_y).any(|v| !v.is_finite()) {
                return Err(PlaceError::Diverged {
                    stage: "gp/final".into(),
                    retries: opts.gp.recovery.max_retries,
                });
            }
            trace.record_stage("global_place", t_gp.elapsed());

            // --- Macro rotation between GP and routability. ---
            if opts.macro_rotation {
                let t = Instant::now();
                model.write_back(&mut placement);
                let changed = match opts.rotation_mode {
                    RotationMode::Discrete => {
                        optimize_macro_orientations(design, &mut placement, true)
                    }
                    RotationMode::Continuous => {
                        // Continuous angles, snapped; then a flip-only
                        // discrete pass decides mirroring (the angle cannot
                        // express it).
                        let gamma = 2.0 * design.row_height().unwrap_or(10.0);
                        let out = crate::rotation::optimize_rotation_continuous(&model, gamma, 100);
                        let mut changed = 0;
                        for (a, &q) in out.angles.iter().zip(&out.snapped) {
                            let node = model.node_of[a.obj as usize];
                            let orient = crate::rotation::orient_of_quarter(q);
                            if placement.orient(node) != orient {
                                placement.set_orient(node, orient);
                                changed += 1;
                            }
                        }
                        changed + optimize_macro_orientations(design, &mut placement, false)
                    }
                };
                if changed > 0 {
                    // Orientations changed pin offsets and macro dims:
                    // rebuild the model from the updated placement and
                    // re-polish.
                    model = Model::from_design(design, &placement);
                    match run_global_place(
                        &mut model,
                        gp_regions,
                        &blocked,
                        &GpOptions { max_outer: 4, ..opts.gp.clone() },
                        &mut trace,
                        "gp/rotation",
                    ) {
                        Ok(out) => gp_outcome = out,
                        Err(div) => {
                            degraded_stage.get_or_insert(div.stage);
                            gp_outcome = div.best;
                        }
                    }
                }
                trace.record_stage("macro_rotation", t.elapsed());
            }

            // First checkpoint: the converged (or best recovered) global
            // placement, before the routability loop perturbs it.
            model.write_back(&mut placement);
            save_checkpoint(
                &mut checkpoint,
                sink.as_deref_mut(),
                &mut trace,
                "global_place",
                design,
                &placement,
                false,
                &model.area,
                0,
                gp_outcome,
            );
        }
        if cancelled() {
            let cp = checkpoint.expect("checkpoint exists after global placement");
            return Ok(FlowProgress::Interrupted(cp));
        }

        // --- Routability loop: estimate → inflate / reweight → re-place. ---
        //
        // The congestion grid is built once and refreshed in place every
        // round: capacities depend only on fixed-node blockages (which
        // never move), so re-carving them each round was pure waste. The
        // same grid serves the detailed-placement stage below.
        let mut congestion_grid: Option<rdp_route::RouteGrid> = None;
        let mut inflation_stats: Vec<InflationStats> = Vec::new();
        let mut interrupted = false;
        if resume_at_legalize {
            // Resumed from the legal checkpoint: the routability loop (and
            // legalization below) already ran in the checkpointed run.
        } else if opts.routability && opts.inflation_rounds > 0 && flow_clock.exhausted() {
            // Flow budget already spent: drop the routability loop (a
            // quality stage) and proceed straight to legalization.
            trace.record_event(RecoveryEvent::BudgetTruncated { scope: "flow".into(), at_round: 0 });
            degraded_stage.get_or_insert_with(|| "routability".into());
        } else if opts.routability && opts.inflation_rounds > 0 {
            let t = Instant::now();
            let base_weights: Vec<f64> = model.net_weight.clone();
            // State of the router tier: the previous round's routing
            // outcome (warm state for the incremental reroute) and the
            // node centers it was routed at (so the next round can compute
            // its moved-cell set). `router_degraded` downgrades remaining
            // router rounds to the probabilistic estimate when the router
            // blows its time budget (degradation ladder: true routed
            // congestion → probabilistic estimate).
            let schedule = opts.routability_opts.effective_schedule();
            let mut router_degraded = false;
            let mut router_config = opts.routability_opts.router.clone();
            router_config.parallelism = opts.gp.parallelism.clone();
            let router = GlobalRouter::new(router_config);
            let mut route_outcome: Option<RoutingOutcome> = None;
            let mut route_centers: Vec<rdp_geom::Point> =
                vec![rdp_geom::Point::ORIGIN; design.nodes().len()];
            let inflation_clock = BudgetClock::new(opts.budget.inflation_wall);
            for round in start_round..opts.inflation_rounds {
                if cancelled() {
                    // Stop at the round boundary: the latest checkpoint
                    // (global_place or the previous round) resumes here.
                    interrupted = true;
                    break;
                }
                if inflation_clock.exhausted()
                    || flow_clock.exhausted()
                    || crate::faultinject::fire_inflation_budget(round)
                {
                    trace.record_event(RecoveryEvent::BudgetTruncated {
                        scope: "inflation".into(),
                        at_round: round,
                    });
                    degraded_stage.get_or_insert_with(|| format!("inflate{round}"));
                    break;
                }
                model.write_back(&mut placement);
                let mut source = schedule.source_for(round, opts.inflation_rounds);
                if router_degraded && source == CongestionSource::Router {
                    source = CongestionSource::Probabilistic;
                }
                trace.set_estimator_tier(source.label());
                let t_cong = Instant::now();
                let mut dirty_nets = 0usize;
                let mut router_fallback = false;
                // Holds the collapsed planar view when the router ran in
                // layered (3-D) mode: the inflation and net-weighting
                // consumers are defined over the 2-D gcell grid.
                let mut projected_grid: Option<RouteGrid> = None;
                let grid: &RouteGrid = match source {
                    CongestionSource::Router => {
                        // True routed congestion: full route on the first
                        // router round, incremental reroute of just the
                        // moved cells afterwards.
                        let mut outcome = match route_outcome.take() {
                            None => router.route(design, &placement),
                            Some(prev) => {
                                let moved: Vec<NodeId> = design
                                    .node_ids()
                                    .filter(|&id| {
                                        placement.center(id) != route_centers[id.index()]
                                    })
                                    .collect();
                                router.reroute_incremental(&prev, design, &placement, &moved)
                            }
                        };
                        dirty_nets = outcome.dirty_nets;
                        for id in design.node_ids() {
                            route_centers[id.index()] = placement.center(id);
                        }
                        if outcome.budget_truncated
                            || crate::faultinject::fire_router_budget(round)
                        {
                            // The router returned its current overflow
                            // state; it is still a usable congestion
                            // picture for this round, but later router
                            // rounds fall back to the cheap estimator
                            // rather than keep paying for a router that
                            // cannot finish.
                            trace.record_event(RecoveryEvent::CongestionFallback {
                                round,
                                reason: "router budget".into(),
                            });
                            degraded_stage.get_or_insert_with(|| format!("inflate{round}"));
                            router_fallback = true;
                            router_degraded = true;
                        }
                        crate::faultinject::corrupt_congestion(&mut outcome.grid, round);
                        let routed = &route_outcome.insert(outcome).grid;
                        if routed.has_vias() {
                            &*projected_grid.insert(routed.project_2d())
                        } else {
                            routed
                        }
                    }
                    CongestionSource::Learned => {
                        let grid = slot_grid(&mut congestion_grid, design, &placement);
                        rdp_route::learned::predict_into(
                            grid,
                            design,
                            &placement,
                            opts.routability_opts.weights(),
                            &opts.gp.parallelism,
                        );
                        crate::faultinject::corrupt_congestion(grid, round);
                        &*grid
                    }
                    CongestionSource::Probabilistic => {
                        let grid =
                            refresh_congestion(&mut congestion_grid, design, &placement, &opts);
                        crate::faultinject::corrupt_congestion(grid, round);
                        &*grid
                    }
                };
                let congestion_time = t_cong.elapsed();
                // Corruption canary: non-finite grid state must neither
                // inflate areas (inflate() skips it cell-wise) nor seed
                // the next round's warm start (handled below, after the
                // grid borrow ends).
                let grid_corrupted = grid.non_finite_edges() > 0;
                let mut touched = 0usize;
                if opts.inflate_cells {
                    let mut stats = inflate(&mut model, grid, opts.inflation);
                    stats.source = source;
                    stats.dirty_nets = dirty_nets;
                    stats.congestion_time = congestion_time;
                    stats.congestion_fallback = router_fallback || grid_corrupted;
                    touched += stats.inflated;
                    inflation_stats.push(stats);
                }
                if opts.net_weighting {
                    touched += crate::net_weighting::apply_congestion_weights(
                        &mut model,
                        grid,
                        &base_weights,
                        opts.net_weighting_config,
                    );
                }
                if grid_corrupted {
                    // Discard the poisoned warm state: the next router
                    // round (if any) routes from scratch on a fresh grid,
                    // and the estimator grid is rebuilt on next use.
                    trace.record_event(RecoveryEvent::CongestionFallback {
                        round,
                        reason: "corrupt grid".into(),
                    });
                    degraded_stage.get_or_insert_with(|| format!("inflate{round}"));
                    route_outcome = None;
                    congestion_grid = None;
                }
                if touched == 0 {
                    break;
                }
                match run_global_place(
                    &mut model,
                    gp_regions,
                    &blocked,
                    &GpOptions {
                        max_outer: (opts.gp.max_outer / 2).max(4),
                        ..opts.gp.clone()
                    },
                    &mut trace,
                    &format!("gp/inflate{round}"),
                ) {
                    Ok(out) => {
                        if let Some(stats) = inflation_stats.last_mut() {
                            stats.recoveries = out.recoveries;
                        }
                        gp_outcome = out;
                        model.write_back(&mut placement);
                        rounds_done = round + 1;
                        save_checkpoint(
                            &mut checkpoint,
                            sink.as_deref_mut(),
                            &mut trace,
                            &format!("inflate{round}"),
                            design,
                            &placement,
                            false,
                            &model.area,
                            rounds_done,
                            gp_outcome,
                        );
                    }
                    Err(div) => {
                        // The round's GP diverged beyond recovery: roll the
                        // placement back to the last feasible checkpoint
                        // and stop inflating — downstream stages continue
                        // from the restored state.
                        gp_outcome = div.best;
                        degraded_stage.get_or_insert_with(|| div.stage.clone());
                        if let Some(cp) = &checkpoint {
                            placement = cp.placement.clone();
                            for i in 0..model.node_of.len() {
                                model.set_pos(i, placement.center(model.node_of[i]));
                            }
                            restored_from = Some(cp.stage.clone());
                            trace.record_event(RecoveryEvent::CheckpointRestored {
                                failed_stage: div.stage,
                                from: cp.stage.clone(),
                            });
                        }
                        if let Some(stats) = inflation_stats.last_mut() {
                            stats.recoveries = div.retries;
                            stats.restored = restored_from.is_some();
                        }
                        break;
                    }
                }
            }
            if opts.net_weighting {
                crate::net_weighting::reset_weights(&mut model, &base_weights);
            }
            trace.set_estimator_tier("");
            trace.record_stage("routability", t.elapsed());
        }
        if interrupted {
            let cp = checkpoint.expect("checkpoint exists inside the routability loop");
            return Ok(FlowProgress::Interrupted(cp));
        }
        model.write_back(&mut placement);

        // --- Legalization. ---
        // Resuming from the legal checkpoint skips re-legalization: the
        // placement is already row-legal, and re-running the packer on its
        // own output is not guaranteed to be a bitwise no-op. The resumed
        // result then reports default (zero) legalization stats.
        let legalize_stats = if resume_at_legalize {
            LegalizeStats::default()
        } else {
            let t = Instant::now();
            let stats =
                legalize_with_displacement_par(design, &mut placement, &opts.gp.parallelism);
            trace.record_stage("legalize", t.elapsed());
            save_checkpoint(
                &mut checkpoint,
                sink.as_deref_mut(),
                &mut trace,
                "legalize",
                design,
                &placement,
                true,
                &model.area,
                rounds_done,
                gp_outcome,
            );
            stats
        };
        if cancelled() {
            let cp = checkpoint.expect("checkpoint exists after legalization");
            return Ok(FlowProgress::Interrupted(cp));
        }

        // --- Detailed placement. ---
        let detail_stats = if opts.detailed && flow_clock.exhausted() {
            // Flow budget spent: skip the (optional) polish stage; the
            // legalized checkpoint above is the deliverable.
            trace.record_event(RecoveryEvent::BudgetTruncated {
                scope: "flow".into(),
                at_round: opts.inflation_rounds,
            });
            degraded_stage.get_or_insert_with(|| "detailed".into());
            None
        } else if opts.detailed {
            let t = Instant::now();
            let congestion = if opts.routability {
                Some(&*refresh_congestion(&mut congestion_grid, design, &placement, &opts))
            } else {
                None
            };
            let stats = detailed_place(design, &mut placement, congestion, opts.detail);
            trace.record_stage("detailed", t.elapsed());
            Some(stats)
        } else {
            None
        };

        // Last line of defense: if any downstream stage leaked a
        // non-finite coordinate, roll back to the legalized checkpoint
        // rather than hand the caller a poisoned placement.
        if design.movable_ids().any(|id| !placement.center(id).is_finite()) {
            if let Some(cp) = checkpoint.as_ref().filter(|cp| cp.legal) {
                placement = cp.placement.clone();
                restored_from = Some(cp.stage.clone());
                degraded_stage.get_or_insert_with(|| "detailed".into());
                trace.record_event(RecoveryEvent::CheckpointRestored {
                    failed_stage: "detailed".into(),
                    from: cp.stage.clone(),
                });
            }
        }

        let degraded = degraded_stage.map(|stage| DegradedResult {
            stage,
            restored_from,
            events: trace.events.clone(),
        });
        let hpwl = rdp_db::hpwl::total_hpwl(design, &placement);
        Ok(FlowProgress::Completed(Box::new(PlaceResult {
            placement,
            hpwl,
            gp: gp_outcome,
            legalize: legalize_stats,
            detail: detail_stats,
            inflation: inflation_stats,
            trace,
            degraded,
            elapsed: t_start.elapsed(),
        })))
    }
}

/// Builds the shared congestion grid on first use, then refreshes its
/// usage against the current `placement`.
///
/// Capacities depend only on fixed-node blockages, which never move during
/// placement, so carving them once is enough; every refresh clears the
/// usage and re-deposits, producing bitwise the same estimate as a freshly
/// built grid.
fn refresh_congestion<'a>(
    slot: &'a mut Option<rdp_route::RouteGrid>,
    design: &Design,
    placement: &Placement,
    opts: &PlaceOptions,
) -> &'a mut rdp_route::RouteGrid {
    let grid = slot_grid(slot, design, placement);
    rdp_route::pattern::estimate_congestion_into(grid, design, placement, &opts.gp.parallelism);
    grid
}

/// The shared congestion grid, built on first use. The probabilistic and
/// learned tiers both fully clear and re-deposit the usage, so they can
/// alternate on the same grid without interference.
fn slot_grid<'a>(
    slot: &'a mut Option<rdp_route::RouteGrid>,
    design: &Design,
    placement: &Placement,
) -> &'a mut rdp_route::RouteGrid {
    slot.get_or_insert_with(|| rdp_route::RouteGrid::from_design(design, placement))
}

/// Snapshots `placement` as the latest [`FlowCheckpoint`] and records the
/// save in the trace (checkpoint granularity: one per completed stage,
/// latest wins — the flow is monotonic, so newest feasible is best). The
/// snapshot also captures the resume state (density areas, completed
/// rounds, GP outcome) and is offered to the caller's checkpoint sink.
#[allow(clippy::too_many_arguments)]
fn save_checkpoint(
    slot: &mut Option<FlowCheckpoint>,
    sink: Option<&mut (dyn FnMut(&FlowCheckpoint) + Send + '_)>,
    trace: &mut Trace,
    stage: &str,
    design: &Design,
    placement: &Placement,
    legal: bool,
    density_area: &[f64],
    rounds_done: usize,
    gp: GpOutcome,
) {
    let hpwl = rdp_db::hpwl::total_hpwl(design, placement);
    trace.record_event(RecoveryEvent::CheckpointSaved { stage: stage.to_owned(), hpwl });
    let cp = FlowCheckpoint {
        stage: stage.to_owned(),
        placement: placement.clone(),
        hpwl,
        legal,
        density_area: density_area.to_vec(),
        rounds_done,
        gp,
    };
    if let Some(sink) = sink {
        sink(&cp);
    }
    *slot = Some(cp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::validate::check_legal;
    use rdp_gen::{generate, GeneratorConfig};

    #[test]
    fn full_flow_on_tiny_design_is_legal() {
        let bench = generate(&GeneratorConfig::tiny("pf", 41)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 20);
        assert!(
            report.is_legal(),
            "violations: {:?} overlap {}",
            report.violations,
            report.total_overlap_area
        );
        assert_eq!(result.legalize.failed, 0);
        assert!(result.hpwl > 0.0);
        assert!(!result.trace.records.is_empty());
        assert!(!result.trace.stages.is_empty());
    }

    #[test]
    fn placement_beats_random_scatter_on_hpwl() {
        let bench = generate(&GeneratorConfig::tiny("pw", 42)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        // Random legal-ish scatter as the null hypothesis.
        let mut random = bench.placement.clone();
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(7);
        let die = bench.design.die();
        for id in bench.design.movable_ids() {
            let (w, h) = random.dims(&bench.design, id);
            random.set_center(
                id,
                rdp_geom::Point::new(
                    rng.gen_range(die.xl + w / 2.0..die.xh - w / 2.0),
                    rng.gen_range(die.yl + h / 2.0..die.yh - h / 2.0),
                ),
            );
        }
        let random_hpwl = rdp_db::hpwl::total_hpwl(&bench.design, &random);
        assert!(
            result.hpwl < 0.6 * random_hpwl,
            "placed {} vs random {}",
            result.hpwl,
            random_hpwl
        );
    }

    #[test]
    fn hierarchical_flow_satisfies_fences() {
        let bench = generate(&GeneratorConfig::hierarchical("ph", 43, 2)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 50);
        assert_eq!(
            report.fence_violations,
            0,
            "fence violations: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let bench = generate(&GeneratorConfig::tiny("pd", 44)).unwrap();
        let r1 = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let r2 = Placer::new(&bench.design, PlaceOptions::fast())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        assert_eq!(r1.hpwl, r2.hpwl);
    }

    #[test]
    fn error_on_unplaceable_designs() {
        use rdp_db::{DesignBuilder, NodeKind};
        use rdp_geom::{Point, Rect};
        let mut b = DesignBuilder::new("e");
        b.die(Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_row(0.0, 10.0, 1.0, 0.0, 10);
        let f1 = b.add_node("f1", 1.0, 1.0, NodeKind::Fixed).unwrap();
        let f2 = b.add_node("f2", 1.0, 1.0, NodeKind::Fixed).unwrap();
        let n = b.add_net("n", 1.0);
        b.add_pin(n, f1, Point::ORIGIN);
        b.add_pin(n, f2, Point::ORIGIN);
        let d = b.finish().unwrap();
        let err = Placer::new(&d, PlaceOptions::fast()).run().unwrap_err();
        assert_eq!(err, PlaceError::NothingToPlace);
        assert!(err.to_string().contains("no movable"));
    }

    #[test]
    fn continuous_rotation_flow_is_legal() {
        let bench = generate(&GeneratorConfig::tiny("pcr", 45)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast().with_continuous_rotation())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
        assert!(result.hpwl > 0.0);
    }

    #[test]
    fn router_congestion_mode_is_legal_and_reports_dirty_nets() {
        let bench = generate(&GeneratorConfig::tiny("prc", 46)).unwrap();
        let result = Placer::new(&bench.design, PlaceOptions::fast().with_router_congestion())
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let report = check_legal(&bench.design, &result.placement, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
        // First round routes from scratch: every net is dirty.
        let first = &result.inflation[0];
        assert_eq!(first.dirty_nets, bench.design.nets().len());
        assert!(first.congestion_time.as_nanos() > 0);
        // Later rounds go through the incremental path; dirtying more nets
        // than the design has would mean the bookkeeping is broken.
        for s in &result.inflation[1..] {
            assert!(s.dirty_nets <= bench.design.nets().len());
        }
    }

    #[test]
    fn router_congestion_mode_is_deterministic() {
        let bench = generate(&GeneratorConfig::tiny("prd", 47)).unwrap();
        let run = |threads: usize| {
            Placer::new(
                &bench.design,
                PlaceOptions::fast().with_router_congestion().with_threads(threads),
            )
            .with_initial(bench.placement.clone())
            .run()
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
        for (sa, sb) in a.inflation.iter().zip(&b.inflation) {
            assert_eq!(sa.dirty_nets, sb.dirty_nets);
            assert_eq!(sa.inflated, sb.inflated);
        }
    }

    #[test]
    fn learned_estimator_flow_is_legal_and_deterministic() {
        let bench = generate(&GeneratorConfig::tiny("ple", 48)).unwrap();
        let run = |threads: usize| {
            Placer::new(
                &bench.design,
                PlaceOptions::fast()
                    .with_estimator(CongestionSchedule::Uniform(CongestionSource::Learned))
                    .with_threads(threads),
            )
            .with_initial(bench.placement.clone())
            .run()
            .unwrap()
        };
        let a = run(1);
        let report = check_legal(&bench.design, &a.placement, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
        assert!(a.inflation.iter().all(|s| s.source == CongestionSource::Learned));
        // The learned tier inherits the kernel determinism contract.
        let b = run(4);
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
        // The trace CSV carries the tier of each inflation round.
        let csv = a.trace.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",estimator_tier"));
        assert!(csv.lines().any(|l| l.starts_with("gp/inflate") && l.ends_with(",learned")));
    }

    #[test]
    fn ladder_schedule_mixes_tiers() {
        let bench = generate(&GeneratorConfig::tiny("pla", 49)).unwrap();
        let mut opts = PlaceOptions::fast().with_estimator(CongestionSchedule::auto());
        opts.inflation_rounds = 2;
        let result = Placer::new(&bench.design, opts)
            .with_initial(bench.placement.clone())
            .run()
            .unwrap();
        let sources: Vec<_> = result.inflation.iter().map(|s| s.source).collect();
        assert_eq!(sources[0], CongestionSource::Learned);
        // The loop may stop early if nothing inflates, but a second round
        // must be the router tail.
        if let Some(s) = sources.get(1) {
            assert_eq!(*s, CongestionSource::Router);
        }
    }

    #[test]
    fn schedule_source_for_semantics() {
        let auto = CongestionSchedule::auto();
        assert_eq!(auto.source_for(0, 3), CongestionSource::Learned);
        assert_eq!(auto.source_for(1, 3), CongestionSource::Learned);
        assert_eq!(auto.source_for(2, 3), CongestionSource::Router);
        let per = CongestionSchedule::PerRound(vec![
            CongestionSource::Probabilistic,
            CongestionSource::Learned,
        ]);
        assert_eq!(per.source_for(0, 4), CongestionSource::Probabilistic);
        assert_eq!(per.source_for(1, 4), CongestionSource::Learned);
        assert_eq!(per.source_for(3, 4), CongestionSource::Learned, "repeats the last entry");
        assert_eq!(
            CongestionSchedule::PerRound(vec![]).source_for(0, 2),
            CongestionSource::Probabilistic
        );
        assert_eq!(CongestionSchedule::parse("auto"), Some(CongestionSchedule::auto()));
        assert_eq!(
            CongestionSchedule::parse("learned"),
            Some(CongestionSchedule::Uniform(CongestionSource::Learned))
        );
        assert_eq!(CongestionSchedule::parse("bogus"), None);
    }

    #[test]
    fn baseline_presets_differ_in_behavior() {
        let fast = PlaceOptions::fast();
        assert!(fast.routability);
        let b1 = PlaceOptions::fast().wirelength_driven();
        assert!(!b1.routability);
        assert_eq!(b1.detail.congestion_weight, 0.0);
        let b2 = PlaceOptions::fast().fence_blind();
        assert!(!b2.hierarchy_aware);
        let b3 = PlaceOptions::fast().flat();
        assert!(!b3.multilevel);
        let b4 = PlaceOptions::fast().with_wirelength(crate::WirelengthModel::Lse);
        assert_eq!(b4.gp.wirelength, crate::WirelengthModel::Lse);
        let b5 = PlaceOptions::fast().without_rotation();
        assert!(!b5.macro_rotation);
    }
}
