//! `rdp` — command-line front end of the placement tool chain.
//!
//! ```text
//! rdp generate --preset small --name demo --seed 42 --out bench/demo [--fences N]
//! rdp place    --aux bench/demo/demo.aux --out results/demo [flow flags]
//! rdp score    --aux bench/demo/demo.aux [--pl results/demo/demo.pl] [--layers]
//! rdp route    --aux bench/demo/demo.aux [--pl results/demo/demo.pl] [--layers] [--map]
//! rdp check    --aux bench/demo/demo.aux [--pl results/demo/demo.pl]
//! rdp stats    --aux bench/demo/demo.aux
//! rdp serve    --demo N [--preset tiny|small] [--workers W] [--threads T]
//!              [--queue N] [--retries N] [--budget SECS] [--deadline SECS]
//!              [--spool DIR] [--score] [--estimator prob|learned|router|auto] [--seed N]
//! rdp train-estimator [--designs N] [--preset tiny|small|medium] [--seed N]
//!              [--lambda X] [--holdout N] [--out FILE] [--check]
//! ```
//!
//! `--layers` routes on the full 3-D layer stack (per-layer capacities
//! plus via edges) instead of the collapsed planar projection, and
//! reports per-layer and via congestion.
//!
//! Flow flags for `place`: `--fast`, `--wl-driven`, `--fence-blind`,
//! `--flat`, `--lse`, `--no-rotation`, `--seed N`, `--budget SECS`
//! (wall-clock cap; on expiry the flow truncates cleanly, keeps the best
//! checkpointed placement and prints a degraded-run warning), and
//! `--estimator prob|learned|router|auto` selecting which congestion tier
//! the inflation rounds consume (`auto` = learned rounds early, the
//! incremental router last).
//!
//! `train-estimator` retrains the learned congestion tier: it generates
//! `--designs` benchmarks, routes each at its seed placement *and* at a
//! deterministic uniform scatter (the congested variant), fits the ridge
//! regression on the router's per-edge usage, reports the held-out rank
//! correlations, and writes the weight file (default: the in-tree
//! `crates/route/src/learned_weights.txt`). With `--check` it writes
//! nothing and instead verifies the retrained weights are byte-identical
//! to the compiled-in set — the CI reproducibility gate.
//!
//! `serve` runs a batch of generated benchmarks through the hardened job
//! server (`rdp-serve`): bounded admission, retry with backoff, per-job
//! budgets/deadlines and checkpoint spooling under `--spool DIR` (a
//! killed server restarted on the same spool resumes unfinished jobs
//! from their last completed stage). Exits non-zero if any job fails.

use rdp::db::{bookshelf, stats::DesignStats, validate::check_legal, Design, Placement};
use rdp::eval::EvalSession;
use rdp::gen::{generate, GeneratorConfig};
use rdp::route::{LayerMode, RouterConfig};
use rdp::place::{CongestionSchedule, PlaceOptions, Placer, WirelengthModel};
use rdp::serve::{JobServer, JobSpec, JobStatus, ServerConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rdp generate --preset tiny|small|medium|large --name NAME --seed N --out DIR [--fences N]\n  rdp place    --aux FILE --out DIR [--fast] [--wl-driven] [--fence-blind] [--flat] [--lse] [--no-rotation] [--seed N] [--budget SECS] [--estimator prob|learned|router|auto]\n  rdp score    --aux FILE [--pl FILE] [--layers]\n  rdp route    --aux FILE [--pl FILE] [--layers] [--map]\n  rdp check    --aux FILE [--pl FILE]\n  rdp stats    --aux FILE\n  rdp serve    --demo N [--preset tiny|small] [--workers W] [--threads T] [--queue N] [--retries N] [--budget SECS] [--deadline SECS] [--spool DIR] [--score] [--estimator prob|learned|router|auto] [--seed N]\n  rdp train-estimator [--designs N] [--preset tiny|small|medium] [--seed N] [--lambda X] [--holdout N] [--out FILE] [--check]"
    );
    ExitCode::from(2)
}

/// Parses the `--estimator` spelling shared by `place` and `serve`.
fn estimator_flag(
    flags: &HashMap<String, String>,
) -> Result<Option<CongestionSchedule>, String> {
    match flags.get("estimator") {
        None => Ok(None),
        Some(s) => CongestionSchedule::parse(s)
            .map(Some)
            .ok_or_else(|| format!("bad --estimator `{s}` (want prob|learned|router|auto)")),
    }
}

/// Parses a seconds flag (`--budget`, `--deadline`) shared by `place` and
/// `serve`: a value that is negative, NaN or too large for a `Duration`
/// is an error, not a panic.
fn seconds_flag(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<std::time::Duration>, String> {
    let Some(s) = flags.get(key) else { return Ok(None) };
    let secs: f64 = s.parse().map_err(|e| format!("bad --{key}: {e}"))?;
    std::time::Duration::try_from_secs_f64(secs)
        .map(Some)
        .map_err(|_| format!("bad --{key}: {secs} (want seconds >= 0 that fit a duration)"))
}

/// Splits argv into flag map (`--key value` / bare `--switch`).
fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?.to_owned();
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            map.insert(key, args[i + 1].clone());
            i += 2;
        } else {
            map.insert(key, String::new());
            i += 1;
        }
    }
    Some(map)
}

fn load(aux: &str, pl_override: Option<&String>) -> Result<(Design, Placement), String> {
    let (design, mut placement) =
        bookshelf::read_design(aux).map_err(|e| format!("cannot read {aux}: {e}"))?;
    if let Some(pl) = pl_override {
        placement = bookshelf::read_placement(&design, pl)
            .map_err(|e| format!("cannot read {pl}: {e}"))?;
    }
    Ok((design, placement))
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = flags.get("name").cloned().unwrap_or_else(|| "bench".into());
    let seed: u64 = flags.get("seed").map_or(Ok(1), |s| s.parse()).map_err(|e| format!("bad --seed: {e}"))?;
    let preset = flags.get("preset").map(String::as_str).unwrap_or("small");
    let mut cfg = match preset {
        "tiny" => GeneratorConfig::tiny(&name, seed),
        "small" => GeneratorConfig::small(&name, seed),
        "medium" => GeneratorConfig::medium(&name, seed),
        "large" => GeneratorConfig::large(&name, seed),
        other => return Err(format!("unknown preset `{other}`")),
    };
    if let Some(f) = flags.get("fences") {
        cfg.num_regions = f.parse().map_err(|e| format!("bad --fences: {e}"))?;
        cfg.target_utilization = cfg.target_utilization.min(0.7);
    }
    let out = flags.get("out").ok_or("missing --out DIR")?;
    let bench = generate(&cfg).map_err(|e| format!("generation failed: {e}"))?;
    bookshelf::write_design(&bench.design, &bench.placement, out)
        .map_err(|e| format!("cannot write benchmark: {e}"))?;
    println!("{}", DesignStats::of(&bench.design));
    println!("wrote {}", PathBuf::from(out).join(format!("{name}.aux")).display());
    Ok(())
}

fn cmd_place(flags: &HashMap<String, String>) -> Result<(), String> {
    let aux = flags.get("aux").ok_or("missing --aux FILE")?;
    let out = flags.get("out").ok_or("missing --out DIR")?;
    let (design, initial) = load(aux, None)?;

    let mut options = if flags.contains_key("fast") {
        PlaceOptions::fast()
    } else {
        PlaceOptions::default()
    };
    if flags.contains_key("wl-driven") {
        options = options.wirelength_driven();
    }
    if flags.contains_key("fence-blind") {
        options = options.fence_blind();
    }
    if flags.contains_key("flat") {
        options = options.flat();
    }
    if flags.contains_key("no-rotation") {
        options = options.without_rotation();
    }
    if flags.contains_key("lse") {
        options = options.with_wirelength(WirelengthModel::Lse);
    }
    if let Some(s) = flags.get("seed") {
        options.seed = s.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    if let Some(budget) = seconds_flag(flags, "budget")? {
        options.budget.flow_wall = Some(budget);
    }
    if let Some(schedule) = estimator_flag(flags)? {
        options = options.with_estimator(schedule);
    }

    let result = Placer::new(&design, options)
        .with_initial(initial)
        .run()
        .map_err(|e| format!("placement failed: {e}"))?;
    println!(
        "placed {} nodes in {:.1}s — HPWL {:.0}",
        design.nodes().len(),
        result.elapsed.as_secs_f64(),
        result.hpwl
    );
    if let Some(degraded) = &result.degraded {
        match &degraded.restored_from {
            Some(from) => eprintln!(
                "warning: degraded run — stage `{}` failed, placement restored from `{from}` checkpoint",
                degraded.stage
            ),
            None => eprintln!(
                "warning: degraded run — stage `{}` fell back or was truncated (best recovered placement written)",
                degraded.stage
            ),
        }
        for event in &degraded.events {
            let (stage, detail) = event.csv_fields();
            eprintln!("  recovery: {} {stage} {detail}", event.kind());
        }
    }
    bookshelf::write_design(&design, &result.placement, out)
        .map_err(|e| format!("cannot write result: {e}"))?;
    println!("wrote {}", PathBuf::from(out).join(format!("{}.pl", design.name())).display());
    Ok(())
}

/// The scoring/routing configuration the `--layers` switch selects.
fn router_config(flags: &HashMap<String, String>) -> RouterConfig {
    let mode = if flags.contains_key("layers") { LayerMode::Layered } else { LayerMode::Projected };
    RouterConfig::builder().layers(mode).build()
}

fn cmd_score(flags: &HashMap<String, String>) -> Result<(), String> {
    let aux = flags.get("aux").ok_or("missing --aux FILE")?;
    let (design, placement) = load(aux, flags.get("pl"))?;
    let s = EvalSession::new(&design)
        .with_router_config(router_config(flags))
        .score(&placement);
    println!(
        "HPWL {:.0}\nACE(0.5/1/2/5%) {:.1} {:.1} {:.1} {:.1}\nRC {:.1}%\nscaled HPWL {:.0}\noverflow {:.0} tracks on {} edges",
        s.hpwl,
        s.congestion.ace[0],
        s.congestion.ace[1],
        s.congestion.ace[2],
        s.congestion.ace[3],
        s.rc,
        s.scaled_hpwl,
        s.congestion.total_overflow,
        s.congestion.overflowed_edges,
    );
    if flags.contains_key("layers") {
        print!("{}", s.congestion_report());
    }
    Ok(())
}

fn cmd_route(flags: &HashMap<String, String>) -> Result<(), String> {
    use rdp::route::{heatmap, GlobalRouter};
    let aux = flags.get("aux").ok_or("missing --aux FILE")?;
    let (design, placement) = load(aux, flags.get("pl"))?;
    let out = GlobalRouter::new(router_config(flags)).route(&design, &placement);
    println!(
        "routed {} segments in {} negotiation rounds",
        out.num_segments, out.iterations
    );
    println!(
        "RC {:.1}%   total overflow {:.0} tracks on {} edges   max ratio {:.2}",
        out.metrics.rc,
        out.metrics.total_overflow,
        out.metrics.overflowed_edges,
        out.metrics.max_ratio
    );
    for l in &out.metrics.per_layer {
        println!(
            "layer {:>2} ({}): usage {:.1}, overflow {:.1}, peak {:.2}",
            l.layer,
            if l.horizontal { 'H' } else { 'V' },
            l.usage,
            l.overflow,
            l.max_ratio
        );
    }
    if out.grid.has_vias() {
        println!(
            "vias: usage {:.1}, overflow {:.1}",
            out.metrics.via_usage, out.metrics.via_overflow
        );
    }
    let longest = out
        .net_lengths
        .iter()
        .enumerate()
        .max_by_key(|(_, &l)| l)
        .map(|(i, &l)| (design.nets()[i].name().to_owned(), l));
    if let Some((name, len)) = longest {
        println!("longest routed net: {name} ({len} gcell edges)");
    }
    if flags.contains_key("map") {
        if out.grid.has_vias() {
            for l in 0..out.grid.num_layers() {
                println!("layer {}:", l + 1);
                println!("{}", heatmap::to_ascii_layer(&out.grid, l));
            }
        } else {
            println!("{}", heatmap::to_ascii(&out.grid));
        }
        println!("legend: . <50%   - <80%   o <100%   x <150%   X >=150%");
    }
    Ok(())
}

fn cmd_check(flags: &HashMap<String, String>) -> Result<(), String> {
    let aux = flags.get("aux").ok_or("missing --aux FILE")?;
    let (design, placement) = load(aux, flags.get("pl"))?;
    let report = check_legal(&design, &placement, 20);
    if report.is_legal() {
        println!("legal");
        Ok(())
    } else {
        for v in &report.violations {
            println!("violation: {v:?}");
        }
        Err(format!(
            "{} violations ({} fence, {:.1} overlap area)",
            report.violations.len(),
            report.fence_violations,
            report.total_overlap_area
        ))
    }
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let aux = flags.get("aux").ok_or("missing --aux FILE")?;
    let (design, placement) = load(aux, None)?;
    println!("{}", DesignStats::of(&design));
    println!("initial HPWL {:.0}", rdp::db::hpwl::total_hpwl(&design, &placement));
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let parse = |key: &str, default: usize| -> Result<usize, String> {
        flags.get(key).map_or(Ok(default), |s| {
            s.parse().map_err(|e| format!("bad --{key}: {e}"))
        })
    };
    let demo = parse("demo", 0)?;
    if demo == 0 {
        return Err("serve needs --demo N (number of demo jobs to run)".into());
    }
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("bad --seed: {e}"))?;
    let preset = flags.get("preset").map(String::as_str).unwrap_or("tiny");

    let mut config = ServerConfig::default()
        .with_workers(parse("workers", 2)?)
        .with_threads_per_job(parse("threads", 1)?)
        .with_queue_capacity(parse("queue", 1024)?)
        .with_max_attempts(parse("retries", 3)?);
    if let Some(budget) = seconds_flag(flags, "budget")? {
        config.budget.flow_wall = Some(budget);
    }
    if let Some(deadline) = seconds_flag(flags, "deadline")? {
        config = config.with_deadline(deadline);
    }
    if let Some(dir) = flags.get("spool") {
        config = config.with_spool_dir(dir);
    }
    if flags.contains_key("score") {
        config = config.with_scoring();
    }
    if let Some(schedule) = estimator_flag(flags)? {
        config = config.with_estimator(schedule);
    }

    let server = JobServer::start(config);
    for i in 0..demo {
        let name = format!("serve{i}");
        let job_seed = seed + i as u64;
        let cfg = match preset {
            "tiny" => GeneratorConfig::tiny(&name, job_seed),
            "small" => GeneratorConfig::small(&name, job_seed),
            other => return Err(format!("unknown serve preset `{other}` (want tiny|small)")),
        };
        server
            .submit(JobSpec::new(cfg))
            .map_err(|e| format!("job {name} rejected: {e}"))?;
    }
    server.wait_all();

    let mut failed = 0usize;
    println!("{:>10}  {:<12}  {:<8}  {:>9}  {:>12}  note", "job", "name", "state", "attempts", "hpwl");
    for (id, name, status) in server.jobs() {
        let (attempts, hpwl, note) = match &status {
            JobStatus::Done(r) | JobStatus::Degraded(r) => (
                r.attempts.to_string(),
                format!("{:.3e}", r.hpwl),
                match (&r.degraded, r.scaled_hpwl) {
                    (Some(d), _) => format!("degraded at `{}`", d.stage),
                    (None, Some(s)) => format!("scaled HPWL {s:.3e}"),
                    (None, None) => String::new(),
                },
            ),
            JobStatus::Failed { reason, attempts, .. } => {
                failed += 1;
                (attempts.to_string(), "-".into(), reason.clone())
            }
            other => (String::new(), "-".into(), other.kind().to_string()),
        };
        println!("job-{id:06}  {name:<12}  {:<8}  {attempts:>9}  {hpwl:>12}  {note}", status.kind());
    }
    if failed > 0 {
        return Err(format!("{failed} job(s) failed"));
    }
    Ok(())
}

fn cmd_train_estimator(flags: &HashMap<String, String>) -> Result<(), String> {
    use rdp::geom::parallel::Parallelism;
    use rdp::geom::rng::Rng;
    use rdp::geom::Point;
    use rdp::route::learned::{collect_samples, train_estimator, TrainConfig};
    use rdp::route::{EstimatorWeights, GlobalRouter};

    let designs: usize = flags
        .get("designs")
        .map_or(Ok(6), |s| s.parse())
        .map_err(|e| format!("bad --designs: {e}"))?;
    if designs == 0 {
        return Err("--designs must be >= 1".into());
    }
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("bad --seed: {e}"))?;
    let preset = flags.get("preset").map(String::as_str).unwrap_or("small");
    let mut config = TrainConfig::default();
    if let Some(s) = flags.get("lambda") {
        config.lambda = s.parse().map_err(|e| format!("bad --lambda: {e}"))?;
        if !config.lambda.is_finite() || config.lambda < 0.0 {
            return Err(format!("bad --lambda: {} (want >= 0)", config.lambda));
        }
    }
    if let Some(s) = flags.get("holdout") {
        config.holdout = s.parse().map_err(|e| format!("bad --holdout: {e}"))?;
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "crates/route/src/learned_weights.txt".into());
    let check = flags.contains_key("check");

    // Single-threaded feature extraction and a default router: both are
    // thread-invariant anyway, but pinning them keeps the provenance of
    // the checked-in weight file maximally boring.
    let par = Parallelism::single();
    let router = GlobalRouter::new(RouterConfig::default());
    let mut sets = Vec::new();
    for i in 0..designs {
        let name = format!("train{i}");
        let design_seed = seed.wrapping_add(i as u64);
        let cfg = match preset {
            "tiny" => GeneratorConfig::tiny(&name, design_seed),
            "small" => GeneratorConfig::small(&name, design_seed),
            "medium" => GeneratorConfig::medium(&name, design_seed),
            other => return Err(format!("unknown preset `{other}` (want tiny|small|medium)")),
        };
        let bench = generate(&cfg).map_err(|e| format!("generation failed: {e}"))?;
        let die = bench.design.die();

        // Label source one: the generator's clustered seed placement.
        let routed = router.route(&bench.design, &bench.placement);
        let clustered =
            collect_samples(&routed.grid, &bench.design, &bench.placement, &par);

        // Label source two: the same netlist uniformly scattered — the
        // spread, congested state inflation rounds actually see.
        let mut scattered = bench.placement.clone();
        let mut rng = Rng::seed_from_u64(0x5CA7_7E12 ^ design_seed);
        for id in bench.design.movable_ids() {
            scattered.set_center(
                id,
                Point::new(rng.gen_range(die.xl..die.xh), rng.gen_range(die.yl..die.yh)),
            );
        }
        let routed = router.route(&bench.design, &scattered);
        let spread = collect_samples(&routed.grid, &bench.design, &scattered, &par);

        println!(
            "  {name} ({preset}, seed {design_seed}): {} clustered + {} scattered samples",
            clustered.h.len() + clustered.v.len(),
            spread.h.len() + spread.v.len()
        );
        sets.push(clustered);
        sets.push(spread);
    }

    let outcome = train_estimator(&sets, &config);
    println!(
        "trained on {} samples, held out {} — rank correlation: usage {:.4}, overflow {:.4}",
        outcome.train_samples,
        outcome.holdout_samples,
        outcome.holdout_usage_corr,
        outcome.holdout_overflow_corr
    );
    let text = outcome.weights.to_text();

    if check {
        let builtin = EstimatorWeights::builtin().to_text();
        if text == builtin {
            println!("check passed: retrained weights are byte-identical to the compiled-in set");
            Ok(())
        } else {
            Err("retrained weights differ from the compiled-in set \
                 (regenerate crates/route/src/learned_weights.txt and rebuild)"
                .into())
        }
    } else {
        std::fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "place" => cmd_place(&flags),
        "score" => cmd_score(&flags),
        "route" => cmd_route(&flags),
        "check" => cmd_check(&flags),
        "stats" => cmd_stats(&flags),
        "serve" => cmd_serve(&flags),
        "train-estimator" => cmd_train_estimator(&flags),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
