//! The two full-flow workloads, `paper_fenced` and `electro_ladder`, and
//! the flow machinery every workload shares: input set-up, one placement
//! run (optionally recording checkpoint timestamps), the stage partition
//! and the correctness checks on a final placement.

use crate::record::Run;
use crate::stats::{median, percentile};
use crate::{
    layers, procfs, secs, serve, shape, CpuWindow, Ctx, Scale, KERNEL_THREADS, SETUP_REPS,
    SETUP_REPS_PER_OP,
};
use rdp_core::{
    CongestionSchedule, FlowCheckpoint, GpDensityModel, GpSolver, PlaceOptions, PlaceResult, Placer,
};
use rdp_db::validate::check_legal;
use rdp_db::{Design, Placement};
use rdp_eval::{ContestScore, EvalSession};
use rdp_gen::GeneratorConfig;
use rdp_geom::parallel::Parallelism;
use rdp_route::RouterConfig;
use std::path::Path;
use std::time::Instant;

/// A flow workload: its input and the placement effort it runs.
pub struct FlowCase {
    pub gen: GeneratorConfig,
    pub options: PlaceOptions,
    /// Load the design through a Bookshelf write and read (the path of
    /// `rdp place --aux`) instead of using the generated one directly.
    pub bookshelf: bool,
}

/// `paper_fenced`: the paper's engine (CG + bell, multilevel, fence-aware,
/// probabilistic inflation, macro rotation, detail passes) on a fenced
/// design read back from Bookshelf. `electro_ladder`: Nesterov +
/// electrostatic density with the learned → router estimator ladder on a
/// flat design.
///
/// The design and the placer's jitter seeds are fixed per workload; the
/// run seed only orders the trajectories (see [`trajectories`]).
pub fn case(name: &str, scale: Scale) -> FlowCase {
    let cells = match scale {
        Scale::Full => 2_000,
        Scale::Smoke => 300,
    };
    let base = PlaceOptions::default().with_threads(KERNEL_THREADS);
    if name == "paper_fenced" {
        let mut gen = shape(name, 11, cells, scale);
        gen.num_regions = 4;
        gen.target_utilization = 0.70;
        FlowCase {
            gen,
            options: base,
            bookshelf: true,
        }
    } else {
        let options = base
            .with_solver(GpSolver::Nesterov, GpDensityModel::Electrostatic)
            .with_estimator(CongestionSchedule::auto());
        FlowCase {
            gen: shape(name, 29, cells, scale),
            options,
            bookshelf: false,
        }
    }
}

/// A workload's placement input.
pub struct Input {
    pub design: Design,
    pub initial: Placement,
}

/// Wall times of each set-up repetition.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub generate: Vec<f64>,
    pub write: Vec<f64>,
    pub read: Vec<f64>,
}

/// Generates the input (and round-trips it through Bookshelf under `dir`
/// when asked) [`SETUP_REPS`] times; every repetition must produce the
/// same input.
pub fn setup(
    gen: &GeneratorConfig,
    bookshelf: bool,
    dir: &Path,
) -> Result<(Input, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let input = setup_once(gen, bookshelf, dir, &mut times)?;
    for _ in 1..SETUP_REPS {
        setup_again(gen, bookshelf, dir, &input, &mut times)?;
    }
    Ok((input, times))
}

/// One more timed set-up repetition, which must reproduce `input`. Runs
/// repeat set-up between their operations, so `setup_s` samples the host
/// over the whole run rather than its first milliseconds. Returns the wall
/// time it took.
pub fn setup_again(
    gen: &GeneratorConfig,
    bookshelf: bool,
    dir: &Path,
    input: &Input,
    times: &mut SetupTimes,
) -> Result<f64, String> {
    let t = Instant::now();
    let again = setup_once(gen, bookshelf, dir, times)?;
    if crate::fingerprint(&again.initial) != crate::fingerprint(&input.initial)
        || again.design.nets().len() != input.design.nets().len()
    {
        return Err("set-up is not deterministic: repetitions differ".into());
    }
    Ok(secs(t))
}

fn setup_once(
    gen: &GeneratorConfig,
    bookshelf: bool,
    dir: &Path,
    times: &mut SetupTimes,
) -> Result<Input, String> {
    let t = Instant::now();
    let bench = rdp_gen::generate(gen).map_err(|e| format!("generate: {e}"))?;
    times.generate.push(secs(t));
    let (design, initial) = if bookshelf {
        let (design, initial, write_s, read_s) =
            layers::bookshelf_round_trip(&bench.design, &bench.placement, dir)?;
        times.write.push(write_s);
        times.read.push(read_s);
        (design, initial)
    } else {
        (bench.design, bench.placement)
    };
    times.total.push(secs(t));
    Ok(Input { design, initial })
}

/// Placements per run whose quality a flow workload reports (the median
/// over them): one per jitter seed, so one chaotic trajectory does not
/// decide the workload's quality.
pub const TRAJECTORIES: usize = 4;

/// The placer's jitter seeds, one per trajectory. They are fixed, so every
/// run places the same four trajectories: quality is a property of the
/// code alone and repeats bit for bit across run seeds.
pub const JITTER_SEEDS: [u64; TRAJECTORIES] = [1, 2, 3, 4];

/// The jitter seeds in the order run `seed` places them: rotated by the
/// seed, which decides the trajectories repeated when time is left.
pub fn trajectories(seed: u64) -> [u64; TRAJECTORIES] {
    let first = (seed % TRAJECTORIES as u64) as usize;
    std::array::from_fn(|i| JITTER_SEEDS[(first + i) % TRAJECTORIES])
}

/// One placement run, with the checkpoints it emitted and when (seconds
/// since the run started) when it was traced.
pub struct FlowRun {
    pub result: PlaceResult,
    pub total_s: f64,
    pub marks: Vec<(f64, FlowCheckpoint)>,
    /// Wall time spent inside the checkpoint sink (the cost of tracing).
    pub sink_s: f64,
}

impl FlowRun {
    /// The checkpoint of `stage`.
    pub fn checkpoint(&self, stage: &str) -> Result<&FlowCheckpoint, String> {
        self.marks
            .iter()
            .map(|(_, cp)| cp)
            .find(|cp| cp.stage == stage)
            .ok_or(format!("the flow emitted no `{stage}` checkpoint"))
    }

    /// The last checkpoint before legalization (the last inflation round,
    /// or global placement when no round ran).
    pub fn pre_legalize(&self) -> Result<&FlowCheckpoint, String> {
        self.marks
            .iter()
            .map(|(_, cp)| cp)
            .take_while(|cp| cp.stage != "legalize")
            .last()
            .ok_or("the flow emitted no checkpoint before legalization".into())
    }
}

/// Places `initial` with `options`. A traced run observes every
/// checkpoint through `Placer::with_checkpoint_sink`, keeping a copy and
/// its time; an untraced run attaches no sink.
pub fn place(input: &Input, options: &PlaceOptions, traced: bool) -> Result<FlowRun, String> {
    let placer = Placer::new(&input.design, options.clone()).with_initial(input.initial.clone());
    let mut marks = Vec::new();
    let mut sink_s = 0.0;
    let t = Instant::now();
    let result = if traced {
        placer
            .with_checkpoint_sink(|cp| {
                let entered = Instant::now();
                marks.push((secs(t), cp.clone()));
                sink_s += secs(entered);
            })
            .run()
    } else {
        placer.run()
    };
    let total_s = secs(t);
    let result = result.map_err(|e| format!("placement failed: {e}"))?;
    Ok(FlowRun {
        result,
        total_s,
        marks,
        sink_s,
    })
}

/// Correctness of a final placement: legal, nothing the legalizer gave up
/// on, and a clean (not degraded) run.
pub fn problems(design: &Design, result: &PlaceResult) -> Vec<String> {
    let mut out = Vec::new();
    let report = check_legal(design, &result.placement, 8);
    if !report.is_legal() {
        out.push(format!(
            "illegal placement: {} violation(s), first {:?}",
            report.violations.len(),
            report.violations.first()
        ));
    }
    if result.legalize.failed > 0 {
        out.push(format!(
            "legalizer failed to place {} cell(s)",
            result.legalize.failed
        ));
    }
    if let Some(d) = &result.degraded {
        out.push(format!("degraded run at stage `{}`", d.stage));
    }
    if !(result.hpwl.is_finite() && result.hpwl > 0.0) {
        out.push(format!("implausible HPWL {}", result.hpwl));
    }
    out
}

/// The flow's wall time split at its checkpoint callbacks. The four
/// stages are disjoint and sum to the traced run's total by construction.
pub struct Stages {
    pub global_place: f64,
    pub routability: f64,
    pub legalize: f64,
    pub detailed: f64,
    /// Median wall time of one inflation round (0 when none ran).
    pub inflate_round: f64,
}

pub fn stages(flow: &FlowRun) -> Result<Stages, String> {
    let at = |stage: &str| {
        flow.marks
            .iter()
            .find(|(_, cp)| cp.stage == stage)
            .map(|(t, _)| *t)
            .ok_or(format!("the flow emitted no `{stage}` checkpoint"))
    };
    let gp = at("global_place")?;
    let legal = at("legalize")?;
    let mut round_ends: Vec<f64> = flow
        .marks
        .iter()
        .filter(|(_, cp)| cp.stage.starts_with("inflate"))
        .map(|(t, _)| *t)
        .collect();
    round_ends.insert(0, gp);
    let rounds: Vec<f64> = round_ends.windows(2).map(|w| w[1] - w[0]).collect();
    let last_round = *round_ends.last().expect("holds the gp mark");
    Ok(Stages {
        global_place: gp,
        routability: last_round - gp,
        legalize: legal - last_round,
        detailed: flow.total_s - legal,
        inflate_round: if rounds.is_empty() {
            0.0
        } else {
            median(&rounds)
        },
    })
}

/// Records the effort settings of `options` in the run header.
pub fn effort(run: &mut Run, options: &PlaceOptions) {
    run.setting("solver", options.gp.solver.label());
    run.setting("density_model", options.gp.density_model.label());
    run.setting("multilevel", options.multilevel);
    run.setting("max_outer", options.gp.max_outer);
    run.setting("inner_iters", options.gp.inner_iters);
    run.setting("overflow_target", options.gp.overflow_target);
    run.setting("routability", options.routability);
    run.setting("inflation_rounds", options.inflation_rounds);
    run.setting(
        "estimator_schedule",
        format!("{:?}", options.routability_opts.effective_schedule()),
    );
    run.setting("macro_rotation", options.macro_rotation);
    run.setting(
        "detail_passes",
        if options.detailed {
            options.detail.passes
        } else {
            0
        },
    );
}

/// The scoring session of every workload: the contest router at the
/// benchmark's kernel thread count.
pub fn session(design: &Design) -> EvalSession<'_> {
    EvalSession::new(design).with_router_config(
        RouterConfig::builder()
            .parallelism(Parallelism::with_pool(KERNEL_THREADS))
            .build(),
    )
}

/// Runs `paper_fenced` or `electro_ladder`: the flow on each of the run's
/// [`trajectories`] in turn (repeating them while time is left), each
/// followed by a contest score and the correctness checks.
pub fn run(ctx: &Ctx, name: &str, run: &mut Run) -> Result<(), String> {
    let case = case(name, ctx.scale);
    effort(run, &case.options);
    run.setting("cells", case.gen.num_cells);
    run.setting("fence_regions", case.gen.num_regions);
    run.setting("trajectories", TRAJECTORIES);
    let (input, mut setup_times) = setup(&case.gen, case.bookshelf, &ctx.scratch)?;
    let rss_after_setup = procfs::rss_mb()?;
    let session = session(&input.design);
    let seeds = trajectories(ctx.seed);
    let options = |i: usize| PlaceOptions {
        seed: seeds[i % TRAJECTORIES],
        ..case.options.clone()
    };

    if ctx.trace {
        let traced = PlaceOptions {
            seed: JITTER_SEEDS[0],
            ..case.options.clone()
        };
        let window = CpuWindow::start()?;
        let flow = layers::traced_flow(&input, &traced, run)?;
        let cpu_util = window.utilisation()?;
        layers::report_flow(run, &input, &traced, &flow, ctx.seed)?;
        layers::router_layers(
            run,
            &input.design,
            &flow.result.placement,
            &session,
            ctx.seed,
        );
        layers::report_setup(run, &setup_times, &input, &ctx.scratch)?;
        serve::probe(ctx, run)?;
        run.metric("par.cpu_util", cpu_util);
        run.metric("mem.rss_after_setup_mb", rss_after_setup);
        return Ok(());
    }

    let t0 = Instant::now();
    let (mut place_s, mut route_s, mut job_s) = (Vec::new(), Vec::new(), Vec::new());
    // Time spent repeating set-up between flows, left out of `jobs_per_s`.
    let mut resetup_s = 0.0;
    // Per trajectory: placement fingerprint, contest score and GP overflow.
    let mut results: Vec<(String, ContestScore, f64)> = Vec::new();
    for i in 0.. {
        if i >= TRAJECTORIES && secs(t0) >= ctx.seconds {
            break;
        }
        let t = Instant::now();
        let flow = place(&input, &options(i), false)?;
        place_s.push(flow.total_s);
        let t_route = Instant::now();
        let score = session.score(&flow.result.placement);
        route_s.push(secs(t_route));
        let mut faults = problems(&input.design, &flow.result);
        let fp = crate::fingerprint(&flow.result.placement);
        match results.get(i % TRAJECTORIES) {
            None => results.push((fp, score, flow.result.gp.overflow_ratio)),
            Some((fp0, ..)) if *fp0 != fp => {
                faults.push("a repeated trajectory gave another placement".into())
            }
            Some(_) => {}
        }
        job_s.push(secs(t));
        run.op(faults);
        for _ in 0..SETUP_REPS_PER_OP {
            resetup_s += setup_again(
                &case.gen,
                case.bookshelf,
                &ctx.scratch,
                &input,
                &mut setup_times,
            )?;
        }
    }
    let window_s = secs(t0) - resetup_s;
    let mut fps: Vec<&str> = results.iter().map(|(fp, ..)| fp.as_str()).collect();
    fps.sort_unstable();
    run.setting("result_fingerprint", fps.join(","));
    let quality =
        |f: fn(&ContestScore) -> f64| results.iter().map(|(_, s, _)| f(s)).collect::<Vec<f64>>();
    let gp_overflow: Vec<f64> = results.iter().map(|(.., gp)| *gp).collect();
    run.metric("setup_s", median(&setup_times.total));
    run.metric("place_s", median(&place_s));
    run.metric("route_s", median(&route_s));
    run.metric("job_p50_s", median(&job_s));
    run.metric("job_p90_s", percentile(&job_s, 90.0));
    run.metric("jobs_per_s", job_s.len() as f64 / window_s);
    run.metric("peak_rss_mb", procfs::peak_rss_mb()?);
    run.metric("hpwl", median(&quality(|s| s.hpwl)));
    run.metric("scaled_hpwl", median(&quality(|s| s.scaled_hpwl)));
    run.metric("rc", median(&quality(|s| s.rc)));
    run.metric(
        "routed_overflow",
        median(&quality(|s| s.congestion.total_overflow)),
    );
    run.metric("gp_overflow", median(&gp_overflow));
    Ok(())
}
