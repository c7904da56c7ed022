//! `route_congested`: the contest router on a congested placement. The
//! input is the paper's baseline B1, a wirelength-driven placement that
//! leaves hot spots, of a fixed design. Each job routes it in full (the
//! contest score) and then reroutes incrementally after a seeded
//! displacement of 5% of the cells, the router tier's warm start.

use crate::flow;
use crate::record::Run;
use crate::stats::{median, percentile};
use crate::{
    layers, procfs, secs, serve, shape, CpuWindow, Ctx, Scale, KERNEL_THREADS, SETUP_REPS_PER_OP,
};
use rdp_core::PlaceOptions;
use rdp_route::GlobalRouter;
use std::time::Instant;

/// Jobs per run, at least (more while time is left).
const MIN_JOBS: usize = 3;
/// B1 placements per untraced run; `place_s` is their median.
const B1_RUNS: usize = 3;

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let cells = match ctx.scale {
        Scale::Full => 6_000,
        Scale::Smoke => 300,
    };
    let gen = shape("route_congested", 41, cells, ctx.scale);
    let b1 = PlaceOptions::fast()
        .wirelength_driven()
        .with_threads(KERNEL_THREADS);
    flow::effort(run, &b1);
    run.setting("cells", cells);
    let (input, mut setup_times) = flow::setup(&gen, false, &ctx.scratch)?;
    let rss_after_setup = procfs::rss_mb()?;
    let session = flow::session(&input.design);
    // Set-up repeated after each operation; returns the time it took.
    let resetup = |times: &mut flow::SetupTimes| -> Result<f64, String> {
        let mut spent = 0.0;
        for _ in 0..SETUP_REPS_PER_OP {
            spent += flow::setup_again(&gen, false, &ctx.scratch, &input, times)?;
        }
        Ok(spent)
    };
    let window = CpuWindow::start()?;
    let t0 = Instant::now();
    let mut place_s = Vec::new();
    let mut placed = None;
    for _ in 0..if ctx.trace { 1 } else { B1_RUNS } {
        let flow = flow::place(&input, &b1, false)?;
        let mut faults = flow::problems(&input.design, &flow.result);
        place_s.push(flow.total_s);
        let fp = crate::fingerprint(&flow.result.placement);
        match &placed {
            None => placed = Some((fp, flow.result.placement, flow.result.gp.overflow_ratio)),
            Some((fp0, _, _)) if *fp0 != fp => {
                faults.push("the B1 placement is not deterministic".into())
            }
            Some(_) => {}
        }
        run.op(faults);
        resetup(&mut setup_times)?;
    }
    let (input_fp, placement, gp_overflow) = placed.expect("at least one B1 run");
    let placement = &placement;
    run.setting("input_fingerprint", input_fp.as_str());

    if ctx.trace {
        layers::router_layers(run, &input.design, placement, &session, ctx.seed);
        // B1 has no routability stage; the stage partition and estimator
        // layers come from the paper's reduced-effort flow on this design.
        let paper = PlaceOptions::fast().with_threads(KERNEL_THREADS);
        let flow = layers::traced_flow(&input, &paper, run)?;
        let cpu_util = window.utilisation()?;
        layers::report_flow(run, &input, &paper, &flow, ctx.seed)?;
        layers::report_setup(run, &setup_times, &input, &ctx.scratch)?;
        serve::probe(ctx, run)?;
        run.metric("par.cpu_util", cpu_util);
        run.metric("mem.rss_after_setup_mb", rss_after_setup);
        return Ok(());
    }

    let hpwl = rdp_db::hpwl::total_hpwl(&input.design, placement);
    let router = GlobalRouter::new(session.router_config());
    let t_jobs = Instant::now();
    let mut resetup_s = 0.0;
    let (mut route_s, mut job_s) = (Vec::new(), Vec::new());
    let mut first = None;
    for job in 0u64.. {
        if job as usize >= MIN_JOBS && secs(t0) >= ctx.seconds {
            break;
        }
        let t = Instant::now();
        let full = session.route(placement);
        route_s.push(secs(t));
        let (moved_placement, moved) = layers::displace(
            &input.design,
            placement,
            ctx.seed.wrapping_mul(1 << 20).wrapping_add(job),
        );
        let inc = router.reroute_incremental(&full, &input.design, &moved_placement, &moved);
        job_s.push(secs(t));
        let m = &full.metrics;
        let key = [m.rc, m.total_overflow, m.total_usage].map(f64::to_bits);
        let mut faults = Vec::new();
        if first.get_or_insert((key, full.metrics.clone())).0 != key {
            faults.push("routing the same placement again gave other metrics".into());
        }
        if inc.dirty_nets == 0 || !inc.metrics.rc.is_finite() {
            faults.push("the incremental reroute touched no net or lost its metrics".into());
        }
        if crate::fingerprint(placement) != input_fp {
            faults.push("routing changed the input placement".into());
        }
        run.op(faults);
        resetup_s += resetup(&mut setup_times)?;
    }
    let jobs_s = secs(t_jobs) - resetup_s;
    let (_, metrics) = first.expect("at least one job ran");

    run.metric("setup_s", median(&setup_times.total));
    run.metric("place_s", median(&place_s));
    run.metric("route_s", median(&route_s));
    run.metric("job_p50_s", median(&job_s));
    run.metric("job_p90_s", percentile(&job_s, 90.0));
    run.metric("jobs_per_s", job_s.len() as f64 / jobs_s);
    run.metric("peak_rss_mb", procfs::peak_rss_mb()?);
    run.metric("hpwl", hpwl);
    run.metric("scaled_hpwl", hpwl * metrics.penalty_factor());
    run.metric("rc", metrics.rc);
    run.metric("routed_overflow", metrics.total_overflow);
    run.metric("gp_overflow", gp_overflow);
    Ok(())
}
