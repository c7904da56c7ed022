//! `serve_mix`: an open-loop job mix against `rdp-serve`'s `JobServer`,
//! plus the small server probe the other workloads' traced runs use for
//! their `serve.*` layer numbers.

use crate::flow;
use crate::record::Run;
use crate::stats::{median, percentile};
use crate::{layers, procfs, secs, CpuWindow, Ctx, Scale, SETUP_REPS};
use rdp_bench::geomean;
use rdp_core::{PlaceOptions, Placer};
use rdp_db::validate::check_legal;
use rdp_db::{Design, Placement};
use rdp_eval::EvalSession;
use rdp_gen::GeneratorConfig;
use rdp_geom::rng::Rng;
use rdp_route::RouterConfig;
use rdp_serve::{JobServer, JobSpec, JobStatus, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Server shape: two workers of one kernel thread each.
const WORKERS: usize = 2;
/// A job stuck longer than this fails the run (keeps a run bounded).
const STUCK_AFTER: Duration = Duration::from_secs(90);
/// How often the collector polls the status of unfinished jobs.
const POLL: Duration = Duration::from_millis(1);

/// The load of one run: job count, arrival rate and the two job sizes.
struct Load {
    jobs: usize,
    rate_per_s: f64,
    tiny_cells: usize,
    small_cells: usize,
}

fn load(scale: Scale) -> Load {
    match scale {
        Scale::Full => Load {
            jobs: 100,
            rate_per_s: 4.0,
            tiny_cells: 300,
            small_cells: 1_200,
        },
        Scale::Smoke => Load {
            jobs: 8,
            rate_per_s: 20.0,
            tiny_cells: 120,
            small_cells: 200,
        },
    }
}

/// One job of the plan: when it is due (seconds after the load starts)
/// and which design of the pool it asks for.
struct Planned {
    at: f64,
    design: usize,
    spec: GeneratorConfig,
    /// Index of the earlier job whose spec this one resubmits.
    repeat_of: Option<usize>,
}

/// The fixed job designs of the mix, one per job that is not a
/// resubmission: 15% `small`, the rest `tiny`.
fn pool(load: &Load) -> Vec<GeneratorConfig> {
    let fresh = load.jobs - load.jobs / 4;
    let small = (fresh as f64 * 0.15).round() as usize;
    (0..fresh)
        .map(|i| {
            let (kind, cells) = if i < small {
                ("small", load.small_cells)
            } else {
                ("tiny", load.tiny_cells)
            };
            job_spec(kind, i, 0x53_0000 + i as u64, cells)
        })
        .collect()
}

/// The seeded open-loop plan: jobs due at a fixed rate, the pool's designs
/// in a seeded order, and every fourth job resubmitting a seeded choice of
/// an earlier job's spec, which the server's design cache answers without
/// generating.
fn plan(load: &Load, seed: u64) -> Vec<Planned> {
    let pool = pool(load);
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let mut order = order.into_iter();
    let mut out: Vec<Planned> = Vec::with_capacity(load.jobs);
    for k in 0..load.jobs {
        let at = k as f64 / load.rate_per_s;
        if k % 4 == 3 {
            let fresh: Vec<usize> = (0..k).filter(|&j| out[j].repeat_of.is_none()).collect();
            let j = fresh[rng.gen_range(0..fresh.len())];
            out.push(Planned {
                at,
                design: out[j].design,
                spec: out[j].spec.clone(),
                repeat_of: Some(j),
            });
        } else {
            let design = order
                .next()
                .expect("the pool holds one design per fresh job");
            out.push(Planned {
                at,
                design,
                spec: pool[design].clone(),
                repeat_of: None,
            });
        }
    }
    out
}

fn job_spec(kind: &str, k: usize, seed: u64, cells: usize) -> GeneratorConfig {
    let mut spec = GeneratorConfig::tiny(format!("{kind}{k}"), seed);
    spec.num_cells = cells;
    spec
}

/// What the client saw of one job.
#[derive(Default)]
struct Seen {
    submit_us: f64,
    lag_ms: f64,
    due: Option<Instant>,
    running: Option<Instant>,
    terminal: Option<Instant>,
    status: Option<JobStatus>,
    rejected: Option<String>,
}

impl Seen {
    fn latency_s(&self) -> Option<f64> {
        Some(self.terminal?.duration_since(self.due?).as_secs_f64())
    }
    /// Due time to first seen running (to terminal when the job finished
    /// between two polls).
    fn queue_wait_s(&self) -> Option<f64> {
        Some(
            self.running
                .or(self.terminal)?
                .duration_since(self.due?)
                .as_secs_f64(),
        )
    }
    fn run_s(&self) -> Option<f64> {
        Some(self.terminal?.duration_since(self.running?).as_secs_f64())
    }
}

/// Observations of one load: per job, plus the largest backlog seen.
struct Observed {
    jobs: Vec<Seen>,
    backlog_max: usize,
    window_s: f64,
}

/// Sends `plan` to `server` on schedule from this thread while one
/// collector thread polls `status()` of the jobs not yet terminal.
fn drive(server: &JobServer, plan: &[Planned]) -> Observed {
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let mut jobs: Vec<Seen> = plan.iter().map(|_| Seen::default()).collect();
    let start = Instant::now();
    let (polled, backlog_max) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut active: Vec<(usize, u64)> = Vec::new();
            let mut seen: Vec<(usize, Option<Instant>, Instant, JobStatus)> = Vec::new();
            let mut running: Vec<Option<Instant>> = vec![None; plan.len()];
            let mut backlog_max = 0;
            let mut sending = true;
            while sending || !active.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(job) => active.push(job),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            sending = false;
                            break;
                        }
                    }
                }
                backlog_max = backlog_max.max(active.len());
                active.retain(|&(k, id)| {
                    let now = Instant::now();
                    match server.status(id) {
                        Some(JobStatus::Running { .. }) => {
                            running[k].get_or_insert(now);
                            true
                        }
                        Some(status) if status.is_terminal() => {
                            seen.push((k, running[k], now, status));
                            false
                        }
                        _ => {
                            now.duration_since(start)
                                < STUCK_AFTER + Duration::from_secs_f64(plan[k].at)
                        }
                    }
                });
                std::thread::sleep(POLL);
            }
            (seen, backlog_max)
        });
        for (k, job) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(job.at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            jobs[k].due = Some(due);
            jobs[k].lag_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
            let result = server.submit(JobSpec::new(job.spec.clone()));
            jobs[k].submit_us = secs(sent) * 1e6;
            match result {
                Ok(id) => tx.send((k, id)).expect("collector outlives the sender"),
                Err(e) => jobs[k].rejected = Some(e.to_string()),
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    for (k, running, terminal, status) in polled {
        jobs[k].running = running;
        jobs[k].terminal = Some(terminal);
        jobs[k].status = Some(status);
    }
    Observed {
        jobs,
        backlog_max,
        window_s: secs(start),
    }
}

fn start_server(dir: &Path) -> Result<JobServer, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(JobServer::start(
        ServerConfig::default()
            .with_workers(WORKERS)
            .with_threads_per_job(1)
            .with_spool_dir(dir)
            .with_scoring(),
    ))
}

/// One set-up repetition, timed into `setup_s`: starts a server on a fresh
/// spool and waits for one warm-up job (a spec the load never sends).
fn ready_server(
    run: &mut Run,
    spool: &Path,
    l: &Load,
    setup_s: &mut Vec<f64>,
) -> Result<JobServer, String> {
    let t = Instant::now();
    let server = start_server(spool)?;
    let warm = job_spec("warmup", 0, 0x5EED, l.tiny_cells);
    let id = server
        .submit(JobSpec::new(warm))
        .map_err(|e| format!("warm-up job rejected: {e}"))?;
    match server.wait(id) {
        Some(JobStatus::Done(_)) => {}
        other => run.fail(format!("warm-up job ended {:?}", other.map(|st| st.kind()))),
    }
    setup_s.push(secs(t));
    Ok(server)
}

/// Stops `server` and checks that it left its spool empty (every job
/// finished).
fn stop_server(server: JobServer, dir: &Path) -> Vec<String> {
    drop(server);
    let left = std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0);
    let _ = std::fs::remove_dir_all(dir);
    if left == 0 {
        Vec::new()
    } else {
        vec![format!("server left {left} file(s) in its spool")]
    }
}

/// One pool design's results, from the first of its jobs.
struct DesignResult {
    hpwl: f64,
    scaled_hpwl: f64,
    rc: f64,
    overflow: f64,
    spec: GeneratorConfig,
    placement: Placement,
    fingerprint: String,
    /// Index of the design in the pool.
    index: usize,
}

/// The per-job checks of a load, one design at a time: every job ends
/// `Done` with a legal placement, a resubmission reproduces its original
/// bitwise, and a single-thread contest score of the placement by the
/// harness equals the server's. Returns the results per design, in pool
/// order.
fn check_jobs(run: &mut Run, plan: &[Planned], observed: &Observed) -> Vec<DesignResult> {
    let mut designs: Vec<usize> = plan.iter().map(|p| p.design).collect();
    designs.sort_unstable();
    designs.dedup();
    let mut results = Vec::with_capacity(designs.len());
    for d in designs {
        let jobs: Vec<usize> = (0..plan.len()).filter(|&k| plan[k].design == d).collect();
        let bench = match rdp_gen::generate(&plan[jobs[0]].spec) {
            Ok(bench) => bench,
            Err(e) => {
                run.fail(format!("design {d} does not generate: {e}"));
                continue;
            }
        };
        let session = EvalSession::new(&bench.design)
            .with_router_config(RouterConfig::builder().threads(1).build());
        let mut first: Option<DesignResult> = None;
        for k in jobs {
            let seen = &observed.jobs[k];
            let mut faults = Vec::new();
            if let Some(why) = &seen.rejected {
                faults.push(format!("job {k} rejected: {why}"));
            }
            match &seen.status {
                Some(JobStatus::Done(report)) => {
                    if !check_legal(&bench.design, &report.placement, 4).is_legal() {
                        faults.push(format!("job {k} placement is illegal"));
                    }
                    let fingerprint = crate::fingerprint(&report.placement);
                    match &first {
                        None => {
                            let score = session.score(&report.placement);
                            if report.scaled_hpwl.map(f64::to_bits)
                                != Some(score.scaled_hpwl.to_bits())
                            {
                                faults.push(format!("job {k}: server and harness scores disagree"));
                            }
                            first = Some(DesignResult {
                                hpwl: report.hpwl,
                                scaled_hpwl: score.scaled_hpwl,
                                rc: score.rc,
                                overflow: score.congestion.total_overflow,
                                spec: plan[k].spec.clone(),
                                placement: report.placement.clone(),
                                fingerprint,
                                index: d,
                            });
                        }
                        Some(f) if f.fingerprint != fingerprint => {
                            faults.push(format!("job {k} differs from an earlier job of its spec"))
                        }
                        Some(_) => {}
                    }
                }
                Some(other) => faults.push(format!("job {k} ended `{}`", other.kind())),
                None if seen.rejected.is_none() => faults.push(format!("job {k} never finished")),
                None => {}
            }
            run.op(faults);
        }
        results.extend(first);
    }
    results
}

/// The `serve.*` layer numbers of one observed load.
fn report_serve_layers(run: &mut Run, observed: &Observed) {
    let collect = |f: &dyn Fn(&Seen) -> Option<f64>| -> Vec<f64> {
        observed.jobs.iter().filter_map(f).collect()
    };
    let submit = collect(&|s| Some(s.submit_us));
    let wait = collect(&|s| s.queue_wait_s());
    let runs = collect(&|s| s.run_s());
    let attempts = collect(&|s| s.status.as_ref()?.report().map(|r| r.attempts as f64));
    let lag = collect(&|s| Some(s.lag_ms));
    let or_zero = |v: &[f64], f: &dyn Fn(&[f64]) -> f64| if v.is_empty() { 0.0 } else { f(v) };
    run.metric("serve.submit_us_p50", or_zero(&submit, &median));
    run.metric("serve.queue_wait_s_p50", or_zero(&wait, &median));
    run.metric(
        "serve.queue_wait_s_p90",
        or_zero(&wait, &|v| percentile(v, 90.0)),
    );
    run.metric("serve.run_s_p50", or_zero(&runs, &median));
    run.metric("serve.run_s_p90", or_zero(&runs, &|v| percentile(v, 90.0)));
    // Share of the workers' time spent running jobs over the load window:
    // the offered load (rate × mean run time ÷ workers) the load achieved.
    run.metric(
        "serve.load",
        runs.iter().sum::<f64>() / (observed.window_s * WORKERS as f64),
    );
    run.metric(
        "serve.attempts_mean",
        or_zero(&attempts, &|v| v.iter().sum::<f64>() / v.len() as f64),
    );
    run.metric("serve.backlog_max", observed.backlog_max as f64);
    run.metric(
        "serve.gen_lag_ms_max",
        lag.iter().copied().fold(0.0, f64::max),
    );
}

/// The server layer measured on two simultaneous `tiny` jobs (the second
/// a resubmission): the `serve.*` numbers of workloads without a server.
pub fn probe(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let spec = job_spec("probe", 0, 0x9B0BE, load(ctx.scale).tiny_cells);
    let plan = vec![
        Planned {
            at: 0.0,
            design: 0,
            spec: spec.clone(),
            repeat_of: None,
        },
        Planned {
            at: 0.0,
            design: 0,
            spec,
            repeat_of: Some(0),
        },
    ];
    let dir = ctx.scratch.join("probe-spool");
    let server = start_server(&dir)?;
    let observed = drive(&server, &plan);
    for fault in stop_server(server, &dir) {
        run.fail(fault);
    }
    check_jobs(run, &plan, &observed);
    report_serve_layers(run, &observed);
    Ok(())
}

/// Runs `serve_mix`.
pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let l = load(ctx.scale);
    let plan = plan(&l, ctx.seed);
    run.setting("workers", WORKERS);
    run.setting("threads_per_job", 1usize);
    run.setting("jobs", l.jobs);
    run.setting("rate_per_s", l.rate_per_s);
    run.setting("tiny_cells", l.tiny_cells);
    run.setting("small_cells", l.small_cells);
    flow::effort(run, &job_options());

    // Set-up is repeated before the load, whose server is the last of
    // these, and again after it, so `setup_s` samples the host on both
    // sides of the load.
    let mut setup_s = Vec::new();
    let spool: PathBuf = ctx.scratch.join("spool");
    let mut server = ready_server(run, &spool, &l, &mut setup_s)?;
    for _ in 1..SETUP_REPS {
        for fault in stop_server(server, &spool) {
            run.fail(fault);
        }
        server = ready_server(run, &spool, &l, &mut setup_s)?;
    }
    let rss_after_setup = procfs::rss_mb()?;

    let window = CpuWindow::start()?;
    let observed = drive(&server, &plan);
    let cpu_util = window.utilisation()?;
    for fault in stop_server(server, &spool) {
        run.fail(fault);
    }
    // The memory of serving: taken before the harness's own checks and
    // scoring rounds, whose allocations would otherwise decide the peak.
    let peak_rss_mb = procfs::peak_rss_mb()?;
    let results = check_jobs(run, &plan, &observed);

    // After the load, each set-up repetition is followed by a single-thread
    // contest score of every `small` design's job placement, so `route_s`
    // samples the host over all these rounds rather than one short burst.
    // (Scores of `tiny` designs take under a millisecond, below this host's
    // timing noise.)
    let small: Vec<(Design, &Placement)> = results
        .iter()
        .filter(|r| r.spec.name.starts_with("small"))
        .map(|r| {
            rdp_gen::generate(&r.spec)
                .map(|b| (b.design, &r.placement))
                .map_err(|e| format!("generate: {e}"))
        })
        .collect::<Result<_, String>>()?;
    let mut score_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let server = ready_server(run, &spool, &l, &mut setup_s)?;
        for fault in stop_server(server, &spool) {
            run.fail(fault);
        }
        for (design, placement) in &small {
            let session = EvalSession::new(design)
                .with_router_config(RouterConfig::builder().threads(1).build());
            let t = Instant::now();
            std::hint::black_box(session.score(placement));
            score_s.push(secs(t));
        }
    }
    let combined: String = results.iter().map(|r| r.fingerprint.as_str()).collect();
    run.setting(
        "result_fingerprint",
        format!("{:016x}", crate::fnv1a(combined.bytes())),
    );

    if ctx.trace {
        report_serve_layers(run, &observed);
        run.metric("par.cpu_util", cpu_util);
        run.metric("mem.rss_after_setup_mb", rss_after_setup);
        return representative_job(ctx, run, &l);
    }

    if results.is_empty() {
        return Err("no job completed".into());
    }
    let per_design = |f: fn(&DesignResult) -> f64| results.iter().map(f).collect::<Vec<f64>>();
    let latency: Vec<f64> = observed.jobs.iter().filter_map(Seen::latency_s).collect();
    let runs: Vec<f64> = observed.jobs.iter().filter_map(Seen::run_s).collect();
    let done = observed
        .jobs
        .iter()
        .filter(|s| s.status.as_ref().is_some_and(|st| st.report().is_some()))
        .count();
    run.metric("setup_s", median(&setup_s));
    run.metric("place_s", median(&runs));
    run.metric("route_s", median(&score_s));
    run.metric("job_p50_s", median(&latency));
    run.metric("job_p90_s", percentile(&latency, 90.0));
    run.metric("jobs_per_s", done as f64 / observed.window_s);
    run.metric("peak_rss_mb", peak_rss_mb);
    run.metric("hpwl", geomean(&per_design(|r| r.hpwl)));
    run.metric("scaled_hpwl", geomean(&per_design(|r| r.scaled_hpwl)));
    run.metric("rc", geomean(&per_design(|r| r.rc)));
    let overflow = per_design(|r| r.overflow);
    run.metric(
        "routed_overflow",
        overflow.iter().sum::<f64>() / overflow.len() as f64,
    );
    let gp_overflow = served_gp_overflow(run, &l, &results)?;
    run.metric("gp_overflow", gp_overflow);
    Ok(())
}

/// The placement options of every server job: the server runs
/// `PlaceOptions::fast()` at its per-job thread count.
fn job_options() -> PlaceOptions {
    PlaceOptions::fast().with_threads(1)
}

/// `gp_overflow` of the mix. Job reports carry no GP statistics, so the
/// harness places the pool's first (`small`) design itself with the
/// server's job options. That placement must equal the server's bitwise,
/// so its overflow is the one the server's flow reached.
fn served_gp_overflow(run: &mut Run, l: &Load, results: &[DesignResult]) -> Result<f64, String> {
    let spec = pool(l).swap_remove(0);
    let bench = rdp_gen::generate(&spec).map_err(|e| format!("generate: {e}"))?;
    let result = Placer::new(&bench.design, job_options())
        .with_initial(bench.placement)
        .run()
        .map_err(|e| format!("placement failed: {e}"))?;
    let served = results.iter().find(|r| r.index == 0);
    let mut faults = Vec::new();
    if served.map(|r| r.fingerprint.as_str())
        != Some(crate::fingerprint(&result.placement).as_str())
    {
        faults.push("the harness placed design 0 differently from the server".into());
    }
    run.op(faults);
    Ok(result.gp.overflow_ratio)
}

/// The per-job layers of `serve_mix`: the pool's first `small` design
/// placed locally with the server's job options and thread count.
fn representative_job(ctx: &Ctx, run: &mut Run, l: &Load) -> Result<(), String> {
    let spec = pool(l).swap_remove(0);
    let options = job_options();
    let (input, times) = flow::setup(&spec, false, &ctx.scratch)?;
    let flow = layers::traced_flow(&input, &options, run)?;
    layers::report_flow(run, &input, &options, &flow, ctx.seed)?;
    layers::report_setup(run, &times, &input, &ctx.scratch)?;
    let session = flow::session(&input.design);
    layers::router_layers(
        run,
        &input.design,
        &flow.result.placement,
        &session,
        ctx.seed,
    );
    Ok(())
}
