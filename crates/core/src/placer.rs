//! The end-to-end placement pipeline: multilevel clustering → analytical
//! global placement (hierarchy-aware, with macro rotation) → routability
//! optimization (congestion-driven inflation) → legalization → detailed
//! placement.
//!
//! [`Placer::run_resumable`] runs the pipeline as a fixed list of stages —
//! global placement, macro rotation, each routability round, legalization,
//! detailed placement — through one driver, which alone owns the flow's
//! cross-cutting policy: at every stage boundary it polls the cancel token
//! (once a checkpoint exists) and drops a quality stage whose budget is
//! spent; after every stage it books the stage time and saves the stage's
//! checkpoint. Every global-placement solve goes through one helper that
//! records a divergence, and each caller picks its policy: continue from
//! the best iterate, or roll back to the latest checkpoint, which restores
//! placement, density areas and completed rounds together.

use crate::cluster::{build_levels, project_down};
use crate::detail::{detailed_place, DetailOptions, DetailStats};
use crate::inflation::{inflate, InflationConfig, InflationStats};
use crate::legalize::{legalize_with_displacement_par, LegalizeStats};
use crate::macro_handling::optimize_macro_orientations;
use crate::model::Model;
use crate::optimizer::{run_global_place, GpOptions, GpOutcome};
use crate::recovery::{
    BudgetClock, DegradedResult, Diverged, FlowBudget, FlowCheckpoint, RecoveryEvent,
};
use crate::trace::Trace;
use rdp_db::{Design, NodeId, Placement};
use rdp_geom::Rect;
use rdp_route::pattern::estimate_congestion_into;
use rdp_route::{GlobalRouter, RouteGrid, RouterConfig, RoutingOutcome};
use std::fmt;
use std::sync::atomic::Ordering;
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
/// and learned-tier configuration. Start from the default
/// (probabilistic-only) and set the fields, or use
/// [`PlaceOptions::with_estimator`].
#[derive(Debug, Clone, Default, PartialEq)]
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

impl GpRoutabilityOptions {
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
    /// Enable macro rotation/flipping optimization (discrete re-selection
    /// of each macro's orientation; see
    /// [`crate::macro_handling::optimize_macro_orientations`]).
    pub macro_rotation: bool,
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
            macro_rotation: true,
            detailed: true,
            detail: DetailOptions { passes: 2, congestion_weight: 8.0 },
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
            detail: DetailOptions { passes: 1, congestion_weight: 8.0 },
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

    /// Attaches a cooperative cancel token, polled at every stage boundary
    /// once a checkpoint exists (never mid-kernel): a token raised during a
    /// stage, or from the checkpoint sink, stops the run at that stage's
    /// checkpoint, which [`Placer::run_resumable`] returns as
    /// [`FlowProgress::Interrupted`]. Because resume is bitwise-exact, the
    /// nondeterministic *timing* of a cancellation never changes the final
    /// placement — only where the work pauses.
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

    /// Runs the full pipeline (the stage list of the module docs) with
    /// cancellation and resume support: the cancel token (see
    /// [`Placer::with_cancel`]) stops the run at its latest checkpoint, and
    /// a later [`Placer::resume_from`] starts at the first stage that
    /// checkpoint does not cover, continuing bitwise-exactly (in
    /// estimator-congestion mode).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] for structurally unplaceable designs or a
    /// checkpoint that does not fit the design.
    pub fn run_resumable(self) -> Result<FlowProgress, PlaceError> {
        let design = self.design;
        let opts = self.options;
        let t_start = Instant::now();

        if design.movable_ids().next().is_none() {
            return Err(PlaceError::NothingToPlace);
        }
        let has_cells = design.node_ids().any(|id| design.node(id).is_std_cell());
        if has_cells && design.rows().is_empty() {
            return Err(PlaceError::NoRows);
        }
        if let Some(cp) = &self.resume {
            check_fits(design, cp)?;
        }

        // A resumed run restarts *after* global placement, so the jitter
        // (an input of the GP stage) is not re-applied.
        let placement = match &self.resume {
            Some(cp) => cp.placement.clone(),
            None => jittered(design, self.initial, opts.seed)?,
        };
        let blocked: Vec<(Rect, f64)> = design
            .node_ids()
            .filter(|&id| design.node(id).kind() == rdp_db::NodeKind::Fixed)
            .flat_map(|id| design.blocking_rects(id, &placement))
            .map(|r| (r, 1.0))
            .collect();
        // The model is fully derivable from (design, placement) except for
        // the density areas, which cell inflation mutates cumulatively —
        // those are restored from the checkpoint on resume.
        let mut model = Model::from_design(design, &placement);
        if let Some(cp) = &self.resume {
            model.area.copy_from_slice(&cp.density_area);
        }
        // Resume position: a legal checkpoint has only detailed placement
        // left, any other one re-enters the rounds at `rounds_done`.
        let first = match &self.resume {
            Some(cp) if cp.legal => Stage::Detailed,
            Some(cp) => Stage::Inflate(cp.rounds_done),
            None => Stage::GlobalPlace,
        };
        let stages: Vec<Stage> = Stage::list(&opts).into_iter().filter(|&s| s >= first).collect();

        let flow = Flow {
            design,
            blocked,
            placement,
            model,
            trace: Trace::new(),
            gp: self.resume.as_ref().map(|cp| cp.gp),
            rounds_done: self.resume.as_ref().map_or(0, |cp| cp.rounds_done),
            checkpoint: self.resume,
            sink: self.checkpoint_sink,
            cancel: self.cancel,
            flow_clock: BudgetClock::new(opts.budget.flow_wall),
            degraded: None,
            restored_from: None,
            congestion_grid: None,
            rounds: None,
            inflation: Vec::new(),
            legalize: LegalizeStats::default(),
            detail: None,
            opts,
        };
        flow.drive(&stages, t_start)
    }
}

/// A resume checkpoint must structurally fit the design and be finite —
/// anything else is a caller error (wrong design, corrupt file), not a
/// recoverable flow state.
fn check_fits(design: &Design, cp: &FlowCheckpoint) -> Result<(), PlaceError> {
    let num_objects = design.movable_ids().count();
    let reason = if cp.placement.len() != design.nodes().len() {
        format!("checkpoint has {} nodes, design has {}", cp.placement.len(), design.nodes().len())
    } else if cp.density_area.len() != num_objects {
        format!(
            "checkpoint has {} density areas, design has {} movable objects",
            cp.density_area.len(),
            num_objects
        )
    } else if cp.placement.centers().iter().any(|c| !c.is_finite())
        || cp.density_area.iter().any(|a| !a.is_finite())
    {
        "checkpoint contains non-finite state".into()
    } else {
        return Ok(());
    };
    Err(PlaceError::BadResume { reason })
}

/// The starting placement of a fresh run: `initial` (or everything at the
/// die center) with a seeded symmetry-breaking jitter on the movables.
fn jittered(design: &Design, initial: Option<Placement>, seed: u64) -> Result<Placement, PlaceError> {
    let mut placement = initial.unwrap_or_else(|| Placement::new_centered(design));
    let mut rng = rdp_geom::rng::Rng::seed_from_u64(seed);
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
    // The resilience layer has nothing to roll back to before the first
    // checkpoint, so a non-finite *initial* placement is the one divergence
    // that surfaces as a hard error.
    if design.node_ids().any(|id| !placement.center(id).is_finite()) {
        return Err(PlaceError::Diverged { stage: "initial".into(), retries: 0 });
    }
    Ok(placement)
}

/// One stage of the flow. The derived order is the flow order, so a
/// resume position is just the first stage not yet covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    /// The multilevel V-cycle, then `gp/final` on the full model.
    GlobalPlace,
    /// Macro orientation re-selection and its GP re-polish.
    Rotation,
    /// One routability round: estimate congestion, inflate, re-place.
    Inflate(usize),
    Legalize,
    Detailed,
}

impl Stage {
    /// The stages `opts` enables, in flow order.
    fn list(opts: &PlaceOptions) -> Vec<Stage> {
        let rounds = if opts.routability { opts.inflation_rounds } else { 0 };
        let mut stages = vec![Stage::GlobalPlace];
        stages.extend(opts.macro_rotation.then_some(Stage::Rotation));
        stages.extend((0..rounds).map(Stage::Inflate));
        stages.push(Stage::Legalize);
        stages.extend(opts.detailed.then_some(Stage::Detailed));
        stages
    }

    /// The stage's name in `trace.stages` and in degradation reports.
    fn name(self) -> String {
        match self {
            Stage::GlobalPlace => "global_place".into(),
            Stage::Rotation => "macro_rotation".into(),
            Stage::Inflate(round) => format!("inflate{round}"),
            Stage::Legalize => "legalize".into(),
            Stage::Detailed => "detailed".into(),
        }
    }

    /// The checkpoint the stage leaves when it completes. Global placement
    /// is checkpointed once, after macro rotation when that runs.
    fn checkpoint(self, rotation: bool) -> Option<String> {
        match self {
            Stage::GlobalPlace if rotation => None,
            Stage::GlobalPlace | Stage::Rotation => Some("global_place".into()),
            Stage::Inflate(_) | Stage::Legalize => Some(self.name()),
            Stage::Detailed => None,
        }
    }
}

/// State that lives for the routability rounds only.
struct Rounds {
    /// When the first round started: the rounds book their time jointly.
    start: Instant,
    /// The inflation budget, started with the first round.
    clock: BudgetClock,
    /// Net weights before any congestion reweighting.
    base_weights: Vec<f64>,
    /// Set when the router blew its time budget: later router rounds fall
    /// back to the probabilistic estimate.
    router_degraded: bool,
    /// The previous router round's outcome and the placement it routed:
    /// the warm state of the incremental reroute.
    routed: Option<(RoutingOutcome, Placement)>,
}

/// The state one run's stages read and write.
struct Flow<'a> {
    design: &'a Design,
    opts: PlaceOptions,
    /// Fixed-node blockages of the density fields.
    blocked: Vec<(Rect, f64)>,
    /// The flow's placement, current at every stage boundary.
    placement: Placement,
    model: Model,
    trace: Trace,
    /// Outcome of the last GP solve (`None` before the first one).
    gp: Option<GpOutcome>,
    rounds_done: usize,
    /// The latest checkpoint: the resume one, then every saved one.
    checkpoint: Option<FlowCheckpoint>,
    sink: Option<CheckpointSink<'a>>,
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    flow_clock: BudgetClock,
    /// The first stage that degraded, and the checkpoint restored from.
    degraded: Option<String>,
    restored_from: Option<String>,
    /// The estimator grid, carved once and refreshed in place: capacities
    /// depend only on fixed-node blockages, which never move, and both
    /// estimator tiers clear and re-deposit all usage. Detailed placement
    /// reuses it.
    congestion_grid: Option<RouteGrid>,
    rounds: Option<Rounds>,
    inflation: Vec<InflationStats>,
    legalize: LegalizeStats,
    detail: Option<DetailStats>,
}

impl Flow<'_> {
    /// Runs `stages` in order. This is the one place the flow's
    /// cross-cutting policy lives: at each stage boundary it polls the
    /// cancel token, opens or closes the routability rounds, and drops a
    /// stage whose budget is spent; after each stage it books the stage
    /// time and saves the stage's checkpoint. A round that does not
    /// complete ends the rounds.
    fn drive(mut self, stages: &[Stage], t_start: Instant) -> Result<FlowProgress, PlaceError> {
        let mut rounds_over = false;
        for &stage in stages {
            let round = matches!(stage, Stage::Inflate(_));
            if round && rounds_over {
                continue;
            }
            if self.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)) {
                if let Some(cp) = self.checkpoint.take() {
                    return Ok(FlowProgress::Interrupted(cp));
                }
            }
            if round && self.rounds.is_none() {
                self.rounds = Some(Rounds {
                    start: Instant::now(),
                    clock: BudgetClock::new(self.opts.budget.inflation_wall),
                    base_weights: self.model.net_weight.clone(),
                    router_degraded: false,
                    routed: None,
                });
            } else if let Some(rounds) = self.rounds.take_if(|_| !round) {
                if self.opts.net_weighting {
                    crate::net_weighting::reset_weights(&mut self.model, &rounds.base_weights);
                }
                self.trace.set_estimator_tier("");
                self.trace.record_stage("routability", rounds.start.elapsed());
            }
            if let Some((scope, at_round)) = self.spent_budget(stage) {
                self.trace.record_event(RecoveryEvent::BudgetTruncated { scope: scope.into(), at_round });
                self.degraded.get_or_insert_with(|| stage.name());
                rounds_over = true;
                continue;
            }
            let t = Instant::now();
            let completed = self.run(stage)?;
            if !round {
                self.trace.record_stage(stage.name(), t.elapsed());
            }
            if !completed {
                rounds_over = true;
            } else if let Some(name) = stage.checkpoint(self.opts.macro_rotation) {
                self.save(name, stage == Stage::Legalize);
            }
        }

        let degraded = self.degraded.map(|stage| DegradedResult {
            stage,
            restored_from: self.restored_from,
            events: self.trace.events.clone(),
        });
        let hpwl = rdp_db::hpwl::total_hpwl(self.design, &self.placement);
        Ok(FlowProgress::Completed(Box::new(PlaceResult {
            placement: self.placement,
            hpwl,
            gp: self.gp.expect("global placement ran or was resumed"),
            legalize: self.legalize,
            detail: self.detail,
            inflation: self.inflation,
            trace: self.trace,
            degraded,
            elapsed: t_start.elapsed(),
        })))
    }

    /// Runs one stage; `false` means it did not complete (a round that
    /// inflated nothing or rolled back) and leaves no checkpoint.
    fn run(&mut self, stage: Stage) -> Result<bool, PlaceError> {
        match stage {
            Stage::GlobalPlace => self.global_place()?,
            Stage::Rotation => self.rotate(),
            Stage::Inflate(round) => return Ok(self.inflate_round(round)),
            Stage::Legalize => {
                self.legalize = legalize_with_displacement_par(
                    self.design,
                    &mut self.placement,
                    &self.opts.gp.parallelism,
                );
            }
            Stage::Detailed => self.detailed(),
        }
        Ok(true)
    }

    /// The budget already spent when `stage` is about to start, as
    /// `(scope, round)`. Only quality stages — the routability rounds and
    /// detailed placement — are ever dropped; legalization never is.
    fn spent_budget(&self, stage: Stage) -> Option<(&'static str, usize)> {
        let flow_spent = self.flow_clock.exhausted();
        match stage {
            Stage::Inflate(round) if flow_spent => Some(("flow", round)),
            Stage::Inflate(round) => {
                let rounds_spent = self.rounds.as_ref().is_some_and(|r| r.clock.exhausted());
                (rounds_spent || crate::faultinject::fire_inflation_budget(round))
                    .then_some(("inflation", round))
            }
            Stage::Detailed if flow_spent => Some(("flow", self.opts.inflation_rounds)),
            _ => None,
        }
    }

    /// Snapshots the flow state as the latest checkpoint, records the save
    /// and offers it to the sink. One checkpoint per completed stage,
    /// latest wins: the flow is monotonic, so the newest feasible snapshot
    /// is also the best.
    fn save(&mut self, stage: String, legal: bool) {
        let hpwl = rdp_db::hpwl::total_hpwl(self.design, &self.placement);
        self.trace.record_event(RecoveryEvent::CheckpointSaved { stage: stage.clone(), hpwl });
        let cp = FlowCheckpoint {
            stage,
            placement: self.placement.clone(),
            hpwl,
            legal,
            density_area: self.model.area.clone(),
            rounds_done: self.rounds_done,
            gp: self.gp.expect("a checkpoint follows a GP solve"),
        };
        if let Some(sink) = &mut self.sink {
            sink(&cp);
        }
        self.checkpoint = Some(cp);
    }

    /// Rolls the flow state back to the latest checkpoint as one unit —
    /// placement, density areas and completed rounds — because `failed`
    /// went wrong. Returns whether a checkpoint existed.
    fn restore(&mut self, failed: &str) -> bool {
        let Some(cp) = &self.checkpoint else {
            return false;
        };
        self.placement = cp.placement.clone();
        for i in 0..self.model.node_of.len() {
            self.model.set_pos(i, self.placement.center(self.model.node_of[i]));
        }
        self.model.area.copy_from_slice(&cp.density_area);
        self.rounds_done = cp.rounds_done;
        self.degraded.get_or_insert_with(|| failed.to_owned());
        self.restored_from = Some(cp.stage.clone());
        self.trace.record_event(RecoveryEvent::CheckpointRestored {
            failed_stage: failed.to_owned(),
            from: cp.stage.clone(),
        });
        true
    }

    /// The flow's one entry into global placement: solves `level` (the
    /// full model when `None`) with at most `max_outer` penalty rounds. A
    /// divergence marks the run degraded at the diverging stage; what to
    /// do with the diverged model — which holds its last finite iterate —
    /// is the caller's policy.
    fn solve(
        &mut self,
        level: Option<&mut Model>,
        max_outer: usize,
        stage: &str,
    ) -> Result<GpOutcome, Diverged> {
        let opts = GpOptions { max_outer, ..self.opts.gp.clone() };
        let regions = if self.opts.hierarchy_aware { self.design.regions() } else { &[] };
        let model = level.unwrap_or(&mut self.model);
        run_global_place(model, regions, &self.blocked, &opts, &mut self.trace, stage)
            .inspect_err(|div| {
                self.degraded.get_or_insert_with(|| div.stage.clone());
            })
    }

    /// The multilevel V-cycle, then `gp/final` on the full model.
    fn global_place(&mut self) -> Result<(), PlaceError> {
        if self.opts.multilevel {
            self.v_cycle();
        }
        // A diverged final solve is usable, just not converged: the flow
        // continues from its best iterate.
        let out = self.solve(None, self.opts.gp.max_outer, "gp/final");
        self.gp = Some(out.unwrap_or_else(|div| div.best));
        // Paranoia: the optimizer guarantees a finite iterate either way; a
        // non-finite position means that contract broke upstream and
        // nothing checkpointable exists.
        if self.model.pos_x.iter().chain(&self.model.pos_y).any(|v| !v.is_finite()) {
            return Err(PlaceError::Diverged {
                stage: "gp/final".into(),
                retries: self.opts.gp.recovery.max_retries,
            });
        }
        self.model.write_back(&mut self.placement);
        Ok(())
    }

    /// Solves the coarsest clustering level, then walks down: every finer
    /// level starts from its projected coarse solution and is solved in
    /// place. A level's divergence is non-fatal — it only warm-starts the
    /// next level.
    fn v_cycle(&mut self) {
        let mut levels = build_levels(&self.model, self.opts.cluster_limit);
        let coarse_outer = self.opts.gp.max_outer / 2 + 2;
        let top = format!("gp/level{}", levels.len());
        if let Some(coarsest) = levels.last_mut() {
            let _ = self.solve(Some(&mut coarsest.coarse), coarse_outer, &top);
        }
        for k in (0..levels.len()).rev() {
            // Level `k` is the model `levels[k]` clusters; level 0 is the
            // full model.
            let (finer, coarser) = levels.split_at_mut(k);
            let mut level = finer.last_mut().map(|c| &mut c.coarse);
            project_down(level.as_deref_mut().unwrap_or(&mut self.model), &coarser[0]);
            let max_outer = if k == 0 { self.opts.gp.max_outer } else { coarse_outer };
            let _ = self.solve(level, max_outer, &format!("gp/level{k}"));
        }
    }

    /// Re-selects macro orientations. Changed orientations move pin
    /// offsets and macro dims, so the model is rebuilt and re-polished.
    fn rotate(&mut self) {
        let design = self.design;
        let changed = optimize_macro_orientations(design, &mut self.placement);
        if changed > 0 {
            self.model = Model::from_design(design, &self.placement);
            let out = self.solve(None, 4, "gp/rotation");
            self.gp = Some(out.unwrap_or_else(|div| div.best));
            self.model.write_back(&mut self.placement);
        }
    }

    /// One routability round: estimate congestion with the round's tier,
    /// inflate and/or reweight, then re-place. Returns whether the round
    /// completed; a round that touches nothing, or whose GP diverges (and
    /// rolls back to the latest checkpoint), ends the rounds.
    fn inflate_round(&mut self, round: usize) -> bool {
        let (design, opts, placement) = (self.design, &self.opts, &self.placement);
        let rounds = self.rounds.as_mut().expect("the driver opens the rounds");
        let mut source = opts.routability_opts.schedule.source_for(round, opts.inflation_rounds);
        if rounds.router_degraded && source == CongestionSource::Router {
            source = CongestionSource::Probabilistic;
        }
        self.trace.set_estimator_tier(source.label());
        let t_cong = Instant::now();
        let mut dirty_nets = 0usize;
        let mut router_fallback = false;
        // Holds the collapsed planar view when the router ran in layered
        // (3-D) mode: inflation and net weighting are defined over the 2-D
        // gcell grid.
        let mut projected_grid: Option<RouteGrid> = None;
        let grid: &RouteGrid = if source == CongestionSource::Router {
            // True routed congestion: a full route on the first router
            // round, an incremental reroute of the moved cells after.
            let mut config = opts.routability_opts.router.clone();
            config.parallelism = opts.gp.parallelism.clone();
            let router = GlobalRouter::new(config);
            let mut outcome = match rounds.routed.take() {
                None => router.route(design, placement),
                Some((prev, at)) => {
                    let moved: Vec<NodeId> =
                        design.node_ids().filter(|&id| placement.center(id) != at.center(id)).collect();
                    router.reroute_incremental(&prev, design, placement, &moved)
                }
            };
            dirty_nets = outcome.dirty_nets;
            if outcome.budget_truncated || crate::faultinject::fire_router_budget(round) {
                // The router's current overflow state is still a usable
                // picture for this round, but later router rounds fall back
                // to the cheap estimator rather than keep paying for a
                // router that cannot finish.
                self.trace.record_event(RecoveryEvent::CongestionFallback {
                    round,
                    reason: "router budget".into(),
                });
                self.degraded.get_or_insert_with(|| format!("inflate{round}"));
                router_fallback = true;
                rounds.router_degraded = true;
            }
            crate::faultinject::corrupt_congestion(&mut outcome.grid, round);
            let routed = &rounds.routed.insert((outcome, placement.clone())).0.grid;
            if routed.has_vias() {
                &*projected_grid.insert(routed.project_2d())
            } else {
                routed
            }
        } else {
            let grid = self.congestion_grid.get_or_insert_with(|| RouteGrid::from_design(design, placement));
            if source == CongestionSource::Learned {
                let weights = opts.routability_opts.weights();
                rdp_route::learned::predict_into(grid, design, placement, weights, &opts.gp.parallelism);
            } else {
                estimate_congestion_into(grid, design, placement, &opts.gp.parallelism);
            }
            crate::faultinject::corrupt_congestion(grid, round);
            &*grid
        };
        let congestion_time = t_cong.elapsed();
        // Corruption canary: non-finite grid state must neither inflate
        // areas (inflate() skips it cell-wise) nor seed the next round.
        let grid_corrupted = grid.non_finite_edges() > 0;
        let mut touched = 0usize;
        if opts.inflate_cells {
            let stats = InflationStats {
                source,
                dirty_nets,
                congestion_time,
                congestion_fallback: router_fallback || grid_corrupted,
                ..inflate(&mut self.model, grid, opts.inflation)
            };
            touched += stats.inflated;
            self.inflation.push(stats);
        }
        if opts.net_weighting {
            touched += crate::net_weighting::apply_congestion_weights(
                &mut self.model,
                grid,
                &rounds.base_weights,
            );
        }
        if grid_corrupted {
            // Discard the poisoned warm state: the next router round routes
            // from scratch, and the estimator grid is rebuilt on next use.
            self.trace.record_event(RecoveryEvent::CongestionFallback {
                round,
                reason: "corrupt grid".into(),
            });
            self.degraded.get_or_insert_with(|| format!("inflate{round}"));
            rounds.routed = None;
            self.congestion_grid = None;
        }
        if touched == 0 {
            return false;
        }

        let max_outer = (self.opts.gp.max_outer / 2).max(4);
        match self.solve(None, max_outer, &format!("gp/inflate{round}")) {
            Ok(out) => {
                if let Some(stats) = self.inflation.last_mut() {
                    stats.recoveries = out.recoveries;
                }
                self.gp = Some(out);
                self.model.write_back(&mut self.placement);
                self.rounds_done = round + 1;
                true
            }
            Err(div) => {
                // Downstream stages continue from the restored state.
                self.gp = Some(div.best);
                let restored = self.restore(&div.stage);
                if let Some(stats) = self.inflation.last_mut() {
                    stats.recoveries = div.retries;
                    stats.restored = restored;
                }
                false
            }
        }
    }

    fn detailed(&mut self) {
        let (design, placement) = (self.design, &mut self.placement);
        let congestion = self.opts.routability.then(|| {
            let grid = self.congestion_grid.get_or_insert_with(|| RouteGrid::from_design(design, placement));
            estimate_congestion_into(grid, design, placement, &self.opts.gp.parallelism);
            &*grid
        });
        self.detail = Some(detailed_place(design, placement, congestion, self.opts.detail));
        // Last line of defense: a non-finite coordinate leaked here rolls
        // back to the legal checkpoint rather than reach the caller.
        if design.movable_ids().any(|id| !self.placement.center(id).is_finite()) {
            self.restore("detailed");
        }
    }
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

    /// `rdpbench` writes this `Debug` text into every run header as
    /// `estimator_schedule`, and `bench --compare` refuses two runs whose
    /// headers differ: a change here breaks every later comparison.
    #[test]
    fn schedule_debug_text_is_pinned() {
        let schedule = GpRoutabilityOptions::default().effective_schedule();
        assert_eq!(format!("{schedule:?}"), "Uniform(Probabilistic)");
        let auto = PlaceOptions::default().with_estimator(CongestionSchedule::auto());
        assert_eq!(
            format!("{:?}", auto.routability_opts.effective_schedule()),
            "Ladder { router_tail: 1 }"
        );
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
