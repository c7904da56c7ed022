//! Scaling sweep of the million-cell hot path: generates designs from 10k
//! to 1M cells and, per size, times design generation, model construction
//! and the combined wirelength + density gradient stage — once with the
//! production flat-array (CSR/SoA) kernels and once with the preserved
//! pre-refactor reference kernels (`rdp_core::reference`) at the same
//! thread count, so the reported speedup isolates the layout change.
//! The largest size additionally runs a reduced-effort end-to-end
//! placement flow with per-stage wall-clocks.
//!
//! Results (including the process peak RSS after each size) go to
//! `BENCH_scale.json` in the working directory and `target/experiments/`.
//!
//! `--smoke` sweeps {10k, 50k}; the full run adds {100k, 500k, 1M}.

use rdp_core::density::build_fields;
use rdp_core::electrostatics::build_electro_fields;
use rdp_core::fused::fused_wl_den_grad;
use rdp_core::model::Model;
use rdp_core::optimizer::run_global_place;
use rdp_core::reference::{ref_smooth_wl_grad_par, RefDensityField, RefModel};
use rdp_core::{GpDensityModel, GpOptions, GpSolver, PlaceOptions, Placer, Trace};
use rdp_core::wirelength::{smooth_wl_grad_par, WirelengthModel, WlScratch};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;
use rdp_geom::Point;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Per-call minimum over `reps` timed calls.
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f()); // warm-up
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed());
    }
    best
}

struct SizeRow {
    cells: usize,
    gen_s: f64,
    model_build_s: f64,
    wl_new_s: f64,
    den_new_s: f64,
    fused_s: f64,
    den_electro_s: f64,
    wl_ref_s: f64,
    den_ref_s: f64,
    peak_rss_bytes: u64,
}

impl SizeRow {
    fn grad_new_s(&self) -> f64 {
        self.wl_new_s + self.den_new_s
    }
    fn grad_ref_s(&self) -> f64 {
        self.wl_ref_s + self.den_ref_s
    }
    fn speedup(&self) -> f64 {
        self.grad_ref_s() / self.grad_new_s().max(1e-12)
    }
}

/// One engine's global-placement run in the solver A/B.
struct AbRow {
    label: &'static str,
    gp_s: f64,
    gradient_evals: usize,
    outer_rounds: usize,
    overflow: f64,
    hpwl: f64,
}

impl AbRow {
    fn grad_s_per_eval(&self) -> f64 {
        self.gp_s / self.gradient_evals.max(1) as f64
    }
}

/// Runs global placement with the production CG+bell engine and with the
/// Nesterov+electrostatic engine on identical fresh models, same thread
/// count, both to the default overflow target. Measures GP wall-clock,
/// gradient evaluations (iterations-to-converge) and final HPWL.
fn run_solver_ab(bench: &rdp_gen::GeneratedBench, par: &Parallelism) -> Vec<AbRow> {
    let combos: [(&'static str, GpSolver, GpDensityModel); 2] = [
        ("cg_bell", GpSolver::ConjugateGradient, GpDensityModel::Bell),
        ("nesterov_electro", GpSolver::Nesterov, GpDensityModel::Electrostatic),
    ];
    // Matched-quality protocol: the production engine runs first with its
    // default options; the Nesterov run then aims at the overflow the
    // production engine *achieved* (or the configured target if CG beat
    // it). Both engines then deliver the same density quality and the
    // wall-clock / gradient-eval / HPWL comparison is apples-to-apples —
    // letting the faster engine keep spreading past the reference point
    // would charge its extra density work against its wirelength.
    let mut overflow_target = GpOptions::default().overflow_target;
    combos
        .iter()
        .map(|&(label, solver, density_model)| {
            let mut model = Model::from_design(&bench.design, &bench.placement);
            // Collapse the movables to the die center with a small
            // deterministic jitter, identically for both engines. GP then
            // has to do the canonical job — spread a wirelength-favorable
            // collapsed state until the overflow target holds — so
            // iterations-to-converge and final HPWL are comparable.
            // (From the generator's already-spread placement an efficient
            // density engine can meet the overflow target before doing
            // any wirelength work at all.)
            let c = model.die.center();
            let (jx, jy) = (0.05 * model.die.width(), 0.05 * model.die.height());
            let mut rng = rdp_geom::rng::Rng::seed_from_u64(0xab5eed);
            for (x, y) in model.pos_x.iter_mut().zip(model.pos_y.iter_mut()) {
                *x = c.x + rng.gen_range(-jx..jx);
                *y = c.y + rng.gen_range(-jy..jy);
            }
            let opts = GpOptions {
                solver,
                density_model,
                parallelism: par.clone(),
                overflow_target,
                ..GpOptions::default()
            };
            let mut trace = Trace::new();
            let t = Instant::now();
            let out = run_global_place(&mut model, &[], &[], &opts, &mut trace, label)
                .expect("solver A/B run converges");
            if label == "cg_bell" {
                overflow_target = overflow_target.max(out.overflow_ratio);
            }
            let row = AbRow {
                label,
                gp_s: t.elapsed().as_secs_f64(),
                gradient_evals: out.gradient_evals,
                outer_rounds: out.outer_rounds,
                overflow: out.overflow_ratio,
                hpwl: model.hpwl(),
            };
            // Per-round convergence CSV (solver, step, penalty, overflow)
            // for diffing the two engines' trajectories.
            let _ = rdp_eval::report::save(&format!("BENCH_scale_ab_{label}.csv"), &trace.to_csv());
            eprintln!(
                "[bench_scale] A/B {label}: {:.2}s GP, {} grad evals ({:.1} ms/eval), {} rounds, overflow {:.4}, HPWL {:.4e}",
                row.gp_s,
                row.gradient_evals,
                1e3 * row.grad_s_per_eval(),
                row.outer_rounds,
                row.overflow,
                row.hpwl
            );
            row
        })
        .collect()
}

fn config_for(cells: usize) -> GeneratorConfig {
    let mut cfg = GeneratorConfig::large("scale", 29);
    cfg.name = format!("scale{cells}");
    cfg.num_cells = cells;
    // Scale the surrounding structure mildly with the cell count so every
    // size exercises the same design shape.
    let k = (cells as f64 / 40_000.0).sqrt().max(0.5);
    cfg.num_macros = ((20.0 * k) as usize).clamp(4, 60);
    cfg.num_fixed = ((8.0 * k) as usize).clamp(2, 24);
    cfg.num_io = ((256.0 * k) as usize).clamp(64, 1024);
    cfg
}

fn main() {
    let args = rdp_bench::parse_args();
    // `BENCH_SCALE_SIZES=100000,500000` overrides the sweep (diagnostics);
    // `BENCH_SCALE_NO_FLOW=1` skips the end-to-end flow stage.
    let sizes: Vec<usize> = match std::env::var("BENCH_SCALE_SIZES") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("BENCH_SCALE_SIZES: integers"))
            .collect(),
        Err(_) if args.smoke => vec![10_000, 50_000],
        Err(_) => vec![10_000, 50_000, 100_000, 500_000, 1_000_000],
    };
    let cores = rdp_bench::detected_cores();
    let par = Parallelism::auto();
    let kernel_threads = par.effective_threads();
    let degraded = rdp_bench::warn_if_degraded("bench_scale", &par);
    let revision = rdp_bench::git_revision();
    let gamma = 20.0;
    // Solver A/B runs at the largest swept size that is still ≤ 100k cells
    // (100k in the full sweep, 50k in smoke).
    let ab_cells = sizes.iter().copied().filter(|&c| c <= 100_000).max().unwrap_or(0);

    let mut rows: Vec<SizeRow> = Vec::new();
    let mut ab_rows: Vec<AbRow> = Vec::new();
    let mut largest: Option<(usize, rdp_gen::GeneratedBench)> = None;
    for &cells in &sizes {
        eprintln!("[bench_scale] generating {cells}-cell design...");
        let t = Instant::now();
        let bench = generate(&config_for(cells)).expect("valid config");
        let gen_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let model = Model::from_design(&bench.design, &bench.placement);
        let model_build_s = t.elapsed().as_secs_f64();

        let bins = ((model.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
        let mut fields = build_fields(&model, &[], &[], bins, 0.9);
        let mut scratch = WlScratch::new();
        let mut gx = vec![0.0; model.len()];
        let mut gy = vec![0.0; model.len()];
        let reps = if cells >= 500_000 { 3 } else { 5 };

        // New layout: WA wirelength gradient + density gradient, timed
        // separately so the JSON shows where the layout change pays off.
        let wl_new = time_min(reps, || {
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            smooth_wl_grad_par(
                &model,
                WirelengthModel::Wa,
                gamma,
                &mut gx,
                &mut gy,
                &mut scratch,
                &par,
            )
        });
        let den_new = time_min(reps, || {
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            fields[0].penalty_grad_par(&model, &mut gx, &mut gy, &par)
        });

        // Fused pass: wirelength + density gradients in combined pool
        // dispatches — what the optimizer actually runs per evaluation.
        let mut den_gx = vec![0.0; model.len()];
        let mut den_gy = vec![0.0; model.len()];
        let fused = time_min(reps, || {
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            den_gx.iter_mut().for_each(|g| *g = 0.0);
            den_gy.iter_mut().for_each(|g| *g = 0.0);
            fused_wl_den_grad(
                &model,
                WirelengthModel::Wa,
                gamma,
                &mut fields,
                &mut scratch,
                &mut gx,
                &mut gy,
                &mut den_gx,
                &mut den_gy,
                &par,
            )
        });
        // Bitwise gate: the fused pass must match the separate kernels
        // exactly — fusion moves chunks between parallel regions but never
        // changes chunk geometry or reduction order.
        {
            let mut rwx = vec![0.0; model.len()];
            let mut rwy = vec![0.0; model.len()];
            let mut rdx = vec![0.0; model.len()];
            let mut rdy = vec![0.0; model.len()];
            let ref_wl = smooth_wl_grad_par(
                &model,
                WirelengthModel::Wa,
                gamma,
                &mut rwx,
                &mut rwy,
                &mut scratch,
                &par,
            );
            let ref_stats = fields[0].penalty_grad_par(&model, &mut rdx, &mut rdy, &par);
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            den_gx.iter_mut().for_each(|g| *g = 0.0);
            den_gy.iter_mut().for_each(|g| *g = 0.0);
            let (fused_wl, fused_stats) = fused_wl_den_grad(
                &model,
                WirelengthModel::Wa,
                gamma,
                &mut fields,
                &mut scratch,
                &mut gx,
                &mut gy,
                &mut den_gx,
                &mut den_gy,
                &par,
            );
            assert_eq!(ref_wl.to_bits(), fused_wl.to_bits(), "fused wirelength total differs");
            assert_eq!(
                ref_stats.penalty.to_bits(),
                fused_stats.penalty.to_bits(),
                "fused density penalty differs"
            );
            let same = |a: &[f64], b: &[f64]| {
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            assert!(
                same(&rwx, &gx) && same(&rwy, &gy) && same(&rdx, &den_gx) && same(&rdy, &den_gy),
                "fused gradient differs bitwise from separate kernels at {cells} cells"
            );
        }
        drop((den_gx, den_gy));

        // Electrostatic (FFT Poisson) density gradient at the same bin
        // budget — the grid rounds itself up to powers of two internally.
        let mut electro = build_electro_fields(&model, &[], &[], bins, 0.9);
        let den_electro = time_min(reps, || {
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            electro[0].penalty_grad_par(&model, &mut gx, &mut gy, &par)
        });

        // Reference (pre-refactor) layout, same threads.
        let ref_model = RefModel::from_model(&model);
        let mut ref_field = RefDensityField::from_field(&fields[0]);
        let mut ref_grad = vec![Point::ORIGIN; model.len()];
        let wl_ref = time_min(reps, || {
            ref_grad.iter_mut().for_each(|g| *g = Point::ORIGIN);
            ref_smooth_wl_grad_par(&ref_model, WirelengthModel::Wa, gamma, &mut ref_grad, &par)
        });
        let den_ref = time_min(reps, || {
            ref_grad.iter_mut().for_each(|g| *g = Point::ORIGIN);
            ref_field.penalty_grad_par(&ref_model, &mut ref_grad, &par)
        });

        let row = SizeRow {
            cells,
            gen_s,
            model_build_s,
            wl_new_s: wl_new.as_secs_f64(),
            den_new_s: den_new.as_secs_f64(),
            fused_s: fused.as_secs_f64(),
            den_electro_s: den_electro.as_secs_f64(),
            wl_ref_s: wl_ref.as_secs_f64(),
            den_ref_s: den_ref.as_secs_f64(),
            peak_rss_bytes: rdp_bench::mem::peak_rss_bytes().unwrap_or(0),
        };
        eprintln!(
            "[bench_scale] {cells}: wl {:.4}s vs {:.4}s, density {:.4}s vs {:.4}s ({:.2}x combined), fused {:.4}s, electro {:.4}s, peak RSS {} MiB",
            row.wl_new_s,
            row.wl_ref_s,
            row.den_new_s,
            row.den_ref_s,
            row.speedup(),
            row.fused_s,
            row.den_electro_s,
            row.peak_rss_bytes / (1024 * 1024)
        );
        if cells == ab_cells && std::env::var("BENCH_SCALE_NO_FLOW").is_err() {
            ab_rows = run_solver_ab(&bench, &par);
        }
        rows.push(row);
        largest = Some((cells, bench));
    }

    // Fused-gradient regression gate against a recorded baseline
    // (`BENCH_SCALE_BASELINE=<path to a previous BENCH_scale.json>`): at
    // equal kernel-thread count, a size's fused-pass time more than 15%
    // over the baseline fails the run.
    if let Ok(path) = std::env::var("BENCH_SCALE_BASELINE") {
        match rdp_bench::read_scale_baseline(&path) {
            Some(base) if base.kernel_threads == kernel_threads => {
                // Legacy baselines missing newer fields warn, not fail.
                for w in base.format_warnings() {
                    eprintln!("[bench_scale] baseline warning: {w}");
                }
                if base.degraded_parallelism == Some(true) {
                    eprintln!(
                        "[bench_scale] baseline warning: {path} was recorded with degraded \
                         parallelism — its timings ran inline; comparison may be pessimistic"
                    );
                }
                let mut regressed = false;
                for r in &rows {
                    let Some(&(_, base_s)) = base.fused_s.iter().find(|(c, _)| *c == r.cells)
                    else {
                        continue;
                    };
                    let ratio = r.fused_s / base_s.max(1e-9);
                    if ratio > 1.15 {
                        eprintln!(
                            "[bench_scale] REGRESSION: fused gradient @ {} cells took {:.6}s vs baseline {:.6}s ({:+.1}%)",
                            r.cells, r.fused_s, base_s, 100.0 * (ratio - 1.0)
                        );
                        regressed = true;
                    } else {
                        eprintln!(
                            "[bench_scale] fused gradient @ {} cells: {:.6}s vs baseline {:.6}s ({:+.1}%) — ok",
                            r.cells, r.fused_s, base_s, 100.0 * (ratio - 1.0)
                        );
                    }
                }
                if regressed {
                    eprintln!("[bench_scale] FAILED: fused gradient regressed >15% vs {path}");
                    std::process::exit(1);
                }
            }
            Some(base) => eprintln!(
                "[bench_scale] baseline check skipped: {path} was recorded at {} kernel thread(s), this run uses {kernel_threads}",
                base.kernel_threads
            ),
            None => eprintln!(
                "[bench_scale] baseline check skipped: {path} unreadable or predates gradient_fused_s"
            ),
        }
    }

    // End-to-end flow at the largest size, reduced effort.
    if std::env::var("BENCH_SCALE_NO_FLOW").is_ok() {
        for r in &rows {
            eprintln!(
                "[bench_scale] {}: combined speedup {:.2}x",
                r.cells,
                r.speedup()
            );
        }
        return;
    }
    let (flow_cells, bench) = largest.expect("at least one size");
    eprintln!("[bench_scale] running end-to-end flow at {flow_cells} cells...");
    let mut opts = PlaceOptions::fast();
    opts.gp.max_outer = 6;
    opts.gp.inner_iters = 12;
    opts.inflation_rounds = 1;
    opts.detailed = false;
    let t = Instant::now();
    let result = Placer::new(&bench.design, opts)
        .with_initial(bench.placement.clone())
        .run()
        .expect("flow completes");
    let flow_s = t.elapsed().as_secs_f64();
    eprintln!(
        "[bench_scale] flow done in {flow_s:.1}s: HPWL {:.3e}, {} unplaced",
        result.hpwl, result.legalize.failed
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    let _ = writeln!(json, "  \"kernel_threads\": {kernel_threads},");
    let _ = writeln!(json, "  \"degraded_parallelism\": {degraded},");
    let _ = writeln!(json, "  \"git_revision\": \"{revision}\",");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"gamma\": {gamma},");
    let _ = writeln!(json, "  \"sizes\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"cells\": {},", r.cells);
        let _ = writeln!(json, "      \"generate_s\": {:.4},", r.gen_s);
        let _ = writeln!(json, "      \"model_build_s\": {:.4},", r.model_build_s);
        let _ = writeln!(json, "      \"wirelength_grad_new_s\": {:.4},", r.wl_new_s);
        let _ = writeln!(json, "      \"wirelength_grad_reference_s\": {:.4},", r.wl_ref_s);
        let _ = writeln!(json, "      \"density_grad_new_s\": {:.4},", r.den_new_s);
        let _ = writeln!(json, "      \"density_grad_electro_s\": {:.4},", r.den_electro_s);
        let _ = writeln!(json, "      \"density_grad_reference_s\": {:.4},", r.den_ref_s);
        let _ = writeln!(json, "      \"gradient_new_s\": {:.4},", r.grad_new_s());
        let _ = writeln!(json, "      \"gradient_fused_s\": {:.6},", r.fused_s);
        let _ = writeln!(json, "      \"gradient_reference_s\": {:.4},", r.grad_ref_s());
        let _ = writeln!(json, "      \"gradient_speedup\": {:.3},", r.speedup());
        let _ = writeln!(json, "      \"peak_rss_bytes\": {}", r.peak_rss_bytes);
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    if ab_rows.len() == 2 {
        let cg = &ab_rows[0];
        let nes = &ab_rows[1];
        let _ = writeln!(json, "  \"solver_ab\": {{");
        let _ = writeln!(json, "    \"cells\": {ab_cells},");
        let _ = writeln!(json, "    \"threads\": {kernel_threads},");
        let _ = writeln!(json, "    \"engines\": [");
        for (i, r) in ab_rows.iter().enumerate() {
            let _ = writeln!(json, "      {{");
            let _ = writeln!(json, "        \"engine\": \"{}\",", r.label);
            let _ = writeln!(json, "        \"gp_seconds\": {:.3},", r.gp_s);
            let _ = writeln!(json, "        \"gradient_evals\": {},", r.gradient_evals);
            let _ = writeln!(json, "        \"grad_s_per_eval\": {:.5},", r.grad_s_per_eval());
            let _ = writeln!(json, "        \"outer_rounds\": {},", r.outer_rounds);
            let _ = writeln!(json, "        \"overflow_ratio\": {:.4},", r.overflow);
            let _ = writeln!(json, "        \"hpwl\": {:.6e}", r.hpwl);
            let _ = writeln!(json, "      }}{}", if i + 1 < ab_rows.len() { "," } else { "" });
        }
        let _ = writeln!(json, "    ],");
        let _ = writeln!(
            json,
            "    \"nesterov_speedup\": {:.3},",
            cg.gp_s / nes.gp_s.max(1e-12)
        );
        let _ = writeln!(
            json,
            "    \"nesterov_eval_ratio\": {:.3},",
            cg.gradient_evals as f64 / nes.gradient_evals.max(1) as f64
        );
        let _ = writeln!(
            json,
            "    \"hpwl_delta_pct\": {:.3}",
            100.0 * (nes.hpwl - cg.hpwl) / cg.hpwl.max(1e-12)
        );
        let _ = writeln!(json, "  }},");
    }
    // Before/after against the previously checked-in full run, read before
    // this run overwrites the file.
    if let Some(prior) = rdp_bench::read_prior_scale("BENCH_scale.json") {
        let _ = writeln!(json, "  \"previous_run\": {{");
        let _ = writeln!(json, "    \"git_revision\": \"{}\",", prior.git_revision);
        let _ = writeln!(json, "    \"gradient_new_s\": [");
        let shared: Vec<(usize, f64, f64)> = rows
            .iter()
            .filter_map(|r| {
                prior
                    .gradient_s
                    .iter()
                    .find(|(c, _)| *c == r.cells)
                    .map(|&(_, before)| (r.cells, before, r.grad_new_s()))
            })
            .collect();
        for (i, (cells, before, after)) in shared.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{ \"cells\": {cells}, \"before_s\": {before:.4}, \"after_s\": {after:.4}, \"change_pct\": {:.1} }}{}",
                100.0 * (after / before.max(1e-12) - 1.0),
                if i + 1 < shared.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "    ],");
        match prior.flow {
            Some((pc, ps)) if pc == flow_cells => {
                let _ = writeln!(
                    json,
                    "    \"flow\": {{ \"cells\": {pc}, \"before_s\": {ps:.2}, \"after_s\": {flow_s:.2}, \"change_pct\": {:.1} }}",
                    100.0 * (flow_s / ps.max(1e-12) - 1.0)
                );
            }
            _ => {
                let _ = writeln!(json, "    \"flow\": null");
            }
        }
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"flow\": {{");
    let _ = writeln!(json, "    \"cells\": {flow_cells},");
    let _ = writeln!(json, "    \"seconds\": {flow_s:.2},");
    let _ = writeln!(json, "    \"hpwl\": {:.6e},", result.hpwl);
    let _ = writeln!(json, "    \"unplaced\": {},", result.legalize.failed);
    let _ = writeln!(json, "    \"overflow_ratio\": {:.4},", result.gp.overflow_ratio);
    let _ = writeln!(
        json,
        "    \"peak_rss_bytes\": {},",
        rdp_bench::mem::peak_rss_bytes().unwrap_or(0)
    );
    // Stage accounting per the schema in `rdp_bench::StageAccounting`:
    // `stages` is a disjoint partition of the flow wall-clock (top-level
    // rows + synthesized `other`); `substages` are the overlapping
    // `/`-named kernel timers and recovery markers.
    let stage_rows: Vec<(String, f64)> = result
        .trace
        .stages
        .iter()
        .map(|s| (s.stage.clone(), s.elapsed.as_secs_f64()))
        .collect();
    let acc = rdp_bench::partition_stages(&stage_rows, flow_s);
    let _ = writeln!(json, "    \"stages\": [");
    for (i, (stage, secs)) in acc.stages.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{ \"stage\": \"{stage}\", \"seconds\": {secs:.3} }}{}",
            if i + 1 < acc.stages.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"substages\": [");
    for (i, (stage, secs)) in acc.substages.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{ \"stage\": \"{stage}\", \"seconds\": {secs:.3} }}{}",
            if i + 1 < acc.substages.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    println!("\n{:>9} {:>10} {:>10} {:>11} {:>11} {:>11} {:>9} {:>10}", "cells", "gen", "model", "grad(new)", "grad(fused)", "grad(ref)", "speedup", "rss MiB");
    for r in &rows {
        println!(
            "{:>9} {:>9.2}s {:>9.3}s {:>10.4}s {:>10.4}s {:>10.4}s {:>8.2}x {:>10}",
            r.cells,
            r.gen_s,
            r.model_build_s,
            r.grad_new_s(),
            r.fused_s,
            r.grad_ref_s(),
            r.speedup(),
            r.peak_rss_bytes / (1024 * 1024)
        );
    }
    if ab_rows.len() == 2 {
        let (cg, nes) = (&ab_rows[0], &ab_rows[1]);
        println!(
            "solver A/B @ {ab_cells} cells: CG+bell {:.2}s / {} evals vs Nesterov+electro {:.2}s / {} evals ({:.2}x GP speedup, HPWL {:+.2}%)",
            cg.gp_s,
            cg.gradient_evals,
            nes.gp_s,
            nes.gradient_evals,
            cg.gp_s / nes.gp_s.max(1e-12),
            100.0 * (nes.hpwl - cg.hpwl) / cg.hpwl.max(1e-12)
        );
    }
    println!("flow @ {flow_cells} cells: {flow_s:.1}s, HPWL {:.3e}", result.hpwl);

    // Only the full sweep refreshes the checked-in copy; smoke runs would
    // clobber it with the reduced sizes.
    if !args.smoke {
        if let Err(e) = std::fs::write("BENCH_scale.json", &json) {
            eprintln!("could not write ./BENCH_scale.json: {e}");
        }
    }
    match rdp_eval::report::save("BENCH_scale.json", &json) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not save BENCH_scale.json: {e}"),
    }
}
