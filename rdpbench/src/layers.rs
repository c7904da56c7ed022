//! Per-layer measurements of traced runs. Every number here is timed from
//! the benchmark's side of a public call: stage boundaries are the
//! placer's checkpoint callbacks, and each layer function is called again
//! on the checkpoint state the flow handed out.

use crate::flow::{self, FlowRun, Input, SetupTimes};
use crate::record::Run;
use crate::stats::median;
use crate::{secs, SETUP_REPS};
use rdp_core::cluster::build_levels;
use rdp_core::density::build_fields;
use rdp_core::detail::detailed_place;
use rdp_core::electrostatics::build_electro_fields;
use rdp_core::fused::{fused_wl_den_grad, fused_wl_electro_grad};
use rdp_core::inflation::inflate;
use rdp_core::legalize::legalize_with_displacement_par;
use rdp_core::wirelength::WlScratch;
use rdp_core::{FlowCheckpoint, GpDensityModel, GpOptions, Model, PlaceOptions};
use rdp_db::{Design, NodeId, NodeKind, Placement};
use rdp_eval::EvalSession;
use rdp_geom::parallel::Parallelism;
use rdp_geom::rng::Rng;
use rdp_geom::{Point, Rect};
use rdp_route::{GlobalRouter, RouteGrid};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Calls per fused-gradient measurement (the median is reported).
const FUSED_CALLS: usize = 20;
/// Calls per estimator-round and inflation measurement.
const ROUND_CALLS: usize = 5;
/// Share of the movable cells an incremental reroute sees displaced.
const MOVED_FRACTION: f64 = 0.05;

/// Places once without and once with the checkpoint sink. Both runs must
/// be correct and agree bitwise (observing checkpoints must not change
/// the result); returns the traced run.
pub fn traced_flow(
    input: &Input,
    options: &PlaceOptions,
    run: &mut Run,
) -> Result<FlowRun, String> {
    let plain = flow::place(input, options, false)?;
    run.op(flow::problems(&input.design, &plain.result));
    let traced = flow::place(input, options, true)?;
    let mut faults = flow::problems(&input.design, &traced.result);
    if crate::fingerprint(&plain.result.placement) != crate::fingerprint(&traced.result.placement) {
        faults.push("observing checkpoints changed the placement".into());
    }
    run.op(faults);
    Ok(traced)
}

/// Stage partition, tracing overhead, GP counters, clustering and every
/// layer call on the checkpoints of a traced flow. The overhead is the
/// time spent inside the checkpoint sink (the only work a traced run adds)
/// as a share of the rest of the flow.
pub fn report_flow(
    run: &mut Run,
    input: &Input,
    options: &PlaceOptions,
    flow: &FlowRun,
    seed: u64,
) -> Result<(), String> {
    let design = &input.design;
    let stages = flow::stages(flow)?;
    run.metric("trace.place_s", flow.total_s);
    run.metric(
        "trace.overhead_pct",
        flow.sink_s / (flow.total_s - flow.sink_s) * 100.0,
    );
    run.metric("stage.global_place_s", stages.global_place);
    run.metric("stage.routability_s", stages.routability);
    run.metric("stage.inflate_round_s", stages.inflate_round);
    run.metric("stage.legalize_s", stages.legalize);
    run.metric("stage.detailed_s", stages.detailed);
    let gp = &flow.result.gp;
    run.metric("gp.gradient_evals", gp.gradient_evals as f64);
    run.metric("gp.outer_rounds", gp.outer_rounds as f64);
    run.metric("gp.overflow", gp.overflow_ratio);

    let mut par = options.gp.parallelism.clone();
    par.ensure_pool();
    let initial_model = Model::from_design(design, &input.initial);
    let (levels_s, levels) = median_of(ROUND_CALLS, || {
        build_levels(&initial_model, options.cluster_limit).len()
    });
    run.metric("cluster.build_levels_s", levels_s);
    run.metric("cluster.levels", levels as f64);

    let gp_cp = flow.checkpoint("global_place")?;
    gradient_layers(run, design, options, gp_cp, &par);
    estimator_layers(run, design, options, gp_cp, &par, seed);

    let mut legal = flow.pre_legalize()?.placement.clone();
    let t = Instant::now();
    let stats = legalize_with_displacement_par(design, &mut legal, &par);
    run.metric("legalize.call_s", secs(t));
    run.metric("legalize.failed", stats.failed as f64);

    let mut detailed = flow.checkpoint("legalize")?.placement.clone();
    let congestion = options.routability.then(|| {
        let mut grid = RouteGrid::from_design(design, &detailed);
        rdp_route::pattern::estimate_congestion_into(&mut grid, design, &detailed, &par);
        grid
    });
    let t = Instant::now();
    let d = detailed_place(design, &mut detailed, congestion.as_ref(), options.detail);
    run.metric("detail.call_s", secs(t));
    run.metric(
        "detail.hpwl_gain_pct",
        (d.hpwl_before - d.hpwl_after) / d.hpwl_before * 100.0,
    );
    Ok(())
}

/// One fused wirelength + density gradient evaluation of each density
/// model on the post-GP state, as the optimizer calls it.
fn gradient_layers(
    run: &mut Run,
    design: &Design,
    options: &PlaceOptions,
    cp: &FlowCheckpoint,
    par: &Parallelism,
) {
    let mut model = Model::from_design(design, &cp.placement);
    model.area.copy_from_slice(&cp.density_area);
    let regions = if options.hierarchy_aware {
        design.regions()
    } else {
        &[]
    };
    let blocked: Vec<(Rect, f64)> = design
        .node_ids()
        .filter(|&id| design.node(id).kind() == NodeKind::Fixed)
        .flat_map(|id| design.blocking_rects(id, &cp.placement))
        .map(|r| (r, 1.0))
        .collect();
    let n = model.len();
    let mut scratch = WlScratch::new();
    let mut buffers = [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];
    let mut time_calls = |eval: &mut dyn FnMut(&mut WlScratch, &mut [Vec<f64>; 4])| {
        let mut times = Vec::with_capacity(FUSED_CALLS);
        for _ in 0..FUSED_CALLS {
            buffers.iter_mut().for_each(|b| b.fill(0.0));
            let t = Instant::now();
            eval(&mut scratch, &mut buffers);
            times.push(secs(t) * 1e3);
        }
        median(&times)
    };
    let gp = |density_model| GpOptions {
        density_model,
        ..options.gp.clone()
    };

    let bell = gp(GpDensityModel::Bell);
    let mut fields = build_fields(
        &model,
        regions,
        &blocked,
        bell.effective_bins(n),
        bell.target_density,
    );
    let gamma = bell.gamma_mult * 0.5 * (fields[0].grid.bin_w() + fields[0].grid.bin_h());
    let bell_ms = time_calls(&mut |s, [a, b, c, d]| {
        black_box(fused_wl_den_grad(
            &model,
            bell.wirelength,
            gamma,
            &mut fields,
            s,
            a,
            b,
            c,
            d,
            par,
        ));
    });
    run.metric("fused.bell_grad_ms", bell_ms);

    let electro = gp(GpDensityModel::Electrostatic);
    let mut fields = build_electro_fields(
        &model,
        regions,
        &blocked,
        electro.effective_bins(n),
        electro.target_density,
    );
    let gamma = electro.gamma_mult * 0.5 * (fields[0].grid.bin_w() + fields[0].grid.bin_h());
    let electro_ms = time_calls(&mut |s, [a, b, c, d]| {
        black_box(fused_wl_electro_grad(
            &model,
            electro.wirelength,
            gamma,
            &mut fields,
            s,
            a,
            b,
            c,
            d,
            par,
        ));
    });
    run.metric("fused.electro_grad_ms", electro_ms);
}

/// One routability round of each congestion tier on the post-GP state,
/// and one inflation pass over the probabilistic picture.
fn estimator_layers(
    run: &mut Run,
    design: &Design,
    options: &PlaceOptions,
    cp: &FlowCheckpoint,
    par: &Parallelism,
    seed: u64,
) {
    let placement = &cp.placement;
    let mut grid = RouteGrid::from_design(design, placement);
    let weights = options.routability_opts.weights();
    let (learned_s, _) = median_of(ROUND_CALLS, || {
        rdp_route::learned::predict_into(&mut grid, design, placement, weights, par)
    });
    let (prob_s, _) = median_of(ROUND_CALLS, || {
        rdp_route::pattern::estimate_congestion_into(&mut grid, design, placement, par)
    });
    run.metric("est.prob_round_ms", prob_s * 1e3);
    run.metric("est.learned_round_ms", learned_s * 1e3);

    let mut model = Model::from_design(design, placement);
    let mut times = Vec::with_capacity(ROUND_CALLS);
    for _ in 0..ROUND_CALLS {
        model.area.copy_from_slice(&cp.density_area);
        let t = Instant::now();
        black_box(inflate(&mut model, &grid, options.inflation));
        times.push(secs(t) * 1e3);
    }
    run.metric("inflate.call_ms", median(&times));

    let router = GlobalRouter::new(
        options
            .routability_opts
            .router
            .clone()
            .to_builder()
            .parallelism(par.clone())
            .build(),
    );
    let t = Instant::now();
    let full = router.route(design, placement);
    run.metric("est.router_full_ms", secs(t) * 1e3);
    let (moved_placement, moved) = displace(design, placement, seed);
    let t = Instant::now();
    black_box(router.reroute_incremental(&full, design, &moved_placement, &moved));
    run.metric("est.router_incremental_ms", secs(t) * 1e3);
}

/// The scoring router on a final placement: a full route, then an
/// incremental reroute after [`displace`].
pub fn router_layers(
    run: &mut Run,
    design: &Design,
    placement: &Placement,
    session: &EvalSession<'_>,
    seed: u64,
) {
    let t = Instant::now();
    let full = session.route(placement);
    let full_s = secs(t);
    run.metric("router.pattern_s", full.pattern_elapsed.as_secs_f64());
    run.metric(
        "router.negotiation_s",
        full.negotiation_elapsed.as_secs_f64(),
    );
    run.metric("router.rounds", full.iterations as f64);
    run.metric("router.segments", full.num_segments as f64);
    let (moved_placement, moved) = displace(design, placement, seed);
    let router = GlobalRouter::new(session.router_config());
    let t = Instant::now();
    let inc = router.reroute_incremental(&full, design, &moved_placement, &moved);
    let inc_s = secs(t);
    run.metric("router.incremental_s", inc_s);
    run.metric("router.incremental_dirty_nets", inc.dirty_nets as f64);
    run.metric("router.incremental_over_full", inc_s / full_s);
}

/// Set-up layers: generation, the Bookshelf round trip (measured again on
/// the input when set-up did not include it) and model construction.
pub fn report_setup(
    run: &mut Run,
    times: &SetupTimes,
    input: &Input,
    dir: &Path,
) -> Result<(), String> {
    run.metric("gen.generate_s", median(&times.generate));
    let (write, read) = if times.write.is_empty() {
        let mut write = Vec::new();
        let mut read = Vec::new();
        for _ in 0..SETUP_REPS {
            let (_, _, w, r) = bookshelf_round_trip(&input.design, &input.initial, dir)?;
            write.push(w);
            read.push(r);
        }
        (write, read)
    } else {
        (times.write.clone(), times.read.clone())
    };
    run.metric("db.bookshelf_write_s", median(&write));
    run.metric("db.bookshelf_read_s", median(&read));
    let (build_s, _) = median_of(SETUP_REPS, || {
        Model::from_design(&input.design, &input.initial).len()
    });
    run.metric("model.build_s", build_s);
    Ok(())
}

/// Writes the design as Bookshelf files under `dir` and reads it back:
/// `(design, placement, write seconds, read seconds)`.
pub fn bookshelf_round_trip(
    design: &Design,
    placement: &Placement,
    dir: &Path,
) -> Result<(Design, Placement, f64, f64), String> {
    let t = Instant::now();
    rdp_db::bookshelf::write_design(design, placement, dir)
        .map_err(|e| format!("bookshelf write: {e}"))?;
    let write_s = secs(t);
    let t = Instant::now();
    let (read, initial) =
        rdp_db::bookshelf::read_design(dir.join(format!("{}.aux", design.name())))
            .map_err(|e| format!("bookshelf read: {e}"))?;
    let read_s = secs(t);
    if read.nodes().len() != design.nodes().len() || read.nets().len() != design.nets().len() {
        return Err("bookshelf round trip changed the design".into());
    }
    Ok((read, initial, write_s, read_s))
}

/// A seeded perturbation of [`MOVED_FRACTION`] of the movable nodes, each
/// shifted by up to 5% of the die: the moved placement and the sorted ids.
pub fn displace(design: &Design, placement: &Placement, seed: u64) -> (Placement, Vec<NodeId>) {
    let movables: Vec<NodeId> = design.movable_ids().collect();
    let count =
        ((movables.len() as f64 * MOVED_FRACTION).round() as usize).clamp(1, movables.len());
    let mut rng = Rng::seed_from_u64(seed ^ 0xD15_9ACE);
    let mut taken = vec![false; movables.len()];
    let mut moved = Vec::with_capacity(count);
    while moved.len() < count {
        let k = rng.gen_range(0..movables.len());
        if !std::mem::replace(&mut taken[k], true) {
            moved.push(movables[k]);
        }
    }
    moved.sort_unstable();
    let die = design.die();
    let (dx, dy) = (die.width() * 0.05, die.height() * 0.05);
    let mut out = placement.clone();
    for &id in &moved {
        let c = out.center(id);
        out.set_center(
            id,
            Point::new(
                rdp_geom::clamp(c.x + rng.gen_range(-dx..dx), die.xl, die.xh),
                rdp_geom::clamp(c.y + rng.gen_range(-dy..dy), die.yl, die.yh),
            ),
        );
    }
    (out, moved)
}

/// Median wall seconds of `reps` calls of `f`, and its last result.
fn median_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(black_box(f()));
        times.push(secs(t));
    }
    (median(&times), last.expect("reps > 0"))
}
