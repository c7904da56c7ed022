//! The analytical global-placement engine: descent on
//! `smooth wirelength + λ · density penalty (+ fence pull-in)`, with the
//! NTUplace-style λ-doubling outer loop and γ annealing.
//!
//! Two engine combinations are selectable through [`GpOptions`]:
//!
//! * [`GpSolver::ConjugateGradient`] + [`GpDensityModel::Bell`] — the
//!   historical default (Polak–Ribière CG on the bell-shaped local
//!   density); its fault-free output is bitwise pinned by the golden-bit
//!   regression tests.
//! * [`GpSolver::Nesterov`] + [`GpDensityModel::Electrostatic`] — the
//!   ePlace-style path: FFT-solved Poisson field ([`crate::electrostatics`])
//!   optimized with Nesterov accelerated gradient under a per-cell
//!   Lipschitz preconditioner (pin count + λ-scaled cell area). The
//!   long-range field plus momentum converges in fewer gradient
//!   evaluations.
//!
//! Solver and density model compose freely (CG + electrostatic, Nesterov +
//! bell are valid). All optimizer state lives in structure-of-arrays `f64`
//! buffers matching the model's `pos_x`/`pos_y` layout, so every
//! inner-loop pass streams contiguous memory. The scalar recurrences below
//! unroll the historical `Point` arithmetic component-wise in the same
//! order, keeping the default path bitwise identical to the
//! array-of-structs implementation.

use crate::density::{build_fields, DensityField, DensityStats};
use crate::electrostatics::{build_electro_fields, ElectroField};
use crate::fence::{fence_grad, fence_project};
use crate::fused::{fused_wl_den_grad, fused_wl_electro_grad};
use crate::model::Model;
use crate::recovery::{Diverged, RecoveryEvent, RecoveryPolicy};
use crate::trace::{Trace, TraceRecord};
use crate::wirelength::{all_finite, WirelengthModel, WlScratch};
use rdp_db::Region;
use rdp_geom::parallel::Parallelism;
use rdp_geom::Rect;
use std::time::{Duration, Instant};

/// Descent method of the global placer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpSolver {
    /// Polak–Ribière conjugate gradient with restart (the historical
    /// default).
    #[default]
    ConjugateGradient,
    /// Nesterov accelerated gradient with a per-cell Lipschitz
    /// preconditioner (pin count + λ-scaled area).
    Nesterov,
}

impl GpSolver {
    /// Short label for traces, benches and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            GpSolver::ConjugateGradient => "cg",
            GpSolver::Nesterov => "nesterov",
        }
    }
}

/// Density model of the global placer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpDensityModel {
    /// NTUplace bell-shaped local smoothing (the historical default).
    #[default]
    Bell,
    /// ePlace electrostatic field solved spectrally (FFT Poisson). The
    /// density grid is rounded up to power-of-two dimensions for the
    /// fixed-radix FFT.
    Electrostatic,
}

impl GpDensityModel {
    /// Short label for traces, benches and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            GpDensityModel::Bell => "bell",
            GpDensityModel::Electrostatic => "electro",
        }
    }
}

/// The density gradient backend selected by [`GpOptions::density_model`]:
/// both variants expose the same accumulate-into-gradient call and the
/// same [`DensityStats`] diagnostics.
enum DensityEngine {
    Bell(Vec<DensityField>),
    Electro(Vec<ElectroField>),
}

impl DensityEngine {
    fn build(
        model: &Model,
        regions: &[Region],
        blocked: &[(Rect, f64)],
        bins: usize,
        target_density: f64,
        which: GpDensityModel,
    ) -> Self {
        match which {
            GpDensityModel::Bell => {
                DensityEngine::Bell(build_fields(model, regions, blocked, bins, target_density))
            }
            GpDensityModel::Electrostatic => DensityEngine::Electro(build_electro_fields(
                model,
                regions,
                blocked,
                bins,
                target_density,
            )),
        }
    }

    /// Main-field bin dimensions (γ scaling and trust-region step).
    fn bin_dims(&self) -> (f64, f64) {
        match self {
            DensityEngine::Bell(f) => (f[0].grid.bin_w(), f[0].grid.bin_h()),
            DensityEngine::Electro(f) => (f[0].grid.bin_w(), f[0].grid.bin_h()),
        }
    }

    /// One fused gradient evaluation through the engine's entry point
    /// ([`crate::fused`]): the smooth-wirelength kernel and every density
    /// field share parallel regions, so each optimizer iteration pays one
    /// dispatch sequence. Accumulates the wirelength gradient into
    /// `wl_gx`/`wl_gy` and the density gradient into `den_gx`/`den_gy`
    /// (callers zero), returning `(smooth_wl, stats)` with the stats
    /// summed over the fields in ascending field order.
    #[allow(clippy::too_many_arguments)]
    fn eval_fused(
        &mut self,
        model: &Model,
        which: WirelengthModel,
        gamma: f64,
        wl_scratch: &mut WlScratch,
        wl_gx: &mut [f64],
        wl_gy: &mut [f64],
        den_gx: &mut [f64],
        den_gy: &mut [f64],
        par: &Parallelism,
    ) -> (f64, DensityStats) {
        match self {
            DensityEngine::Bell(fields) => fused_wl_den_grad(
                model, which, gamma, fields, wl_scratch, wl_gx, wl_gy, den_gx, den_gy, par,
            ),
            DensityEngine::Electro(fields) => fused_wl_electro_grad(
                model, which, gamma, fields, wl_scratch, wl_gx, wl_gy, den_gx, den_gy, par,
            ),
        }
    }
}

/// Tuning parameters of one global-placement run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpOptions {
    /// Smooth wirelength model.
    pub wirelength: WirelengthModel,
    /// Bin count per axis of the main density field.
    pub bins: usize,
    /// Target density (movable area per bin / free bin capacity).
    pub target_density: f64,
    /// Maximum penalty (λ-doubling) rounds.
    pub max_outer: usize,
    /// Descent iterations per round (CG or Nesterov).
    pub inner_iters: usize,
    /// Stop when overflow area / movable area falls below this.
    pub overflow_target: f64,
    /// Initial γ as a multiple of the bin width.
    pub gamma_mult: f64,
    /// Per-round multiplicative γ decay.
    pub gamma_decay: f64,
    /// Per-round λ growth factor.
    pub lambda_growth: f64,
    /// Weight of the fence pull-in force relative to the density gradient.
    pub fence_weight: f64,
    /// Maximum move per descent step (CG or Nesterov), in bins.
    pub step_bins: f64,
    /// Descent method (CG default; Nesterov for the ePlace-style path).
    pub solver: GpSolver,
    /// Density model (bell default; electrostatic for the FFT Poisson
    /// field — rounds the bin grid up to powers of two).
    pub density_model: GpDensityModel,
    /// Worker threads for the wirelength/density kernels (results are
    /// identical at every thread count; see [`rdp_geom::parallel`]).
    pub parallelism: Parallelism,
    /// Divergence recovery policy (step shrinking and retry bound).
    pub recovery: RecoveryPolicy,
}

impl Default for GpOptions {
    fn default() -> Self {
        GpOptions {
            wirelength: WirelengthModel::Wa,
            bins: 0, // 0 = auto from object count
            target_density: 0.9,
            max_outer: 32,
            inner_iters: 40,
            overflow_target: 0.08,
            gamma_mult: 4.0,
            gamma_decay: 0.92,
            lambda_growth: 2.0,
            fence_weight: 4.0,
            step_bins: 0.8,
            solver: GpSolver::default(),
            density_model: GpDensityModel::default(),
            parallelism: Parallelism::auto(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl GpOptions {
    /// Effective bin count for a model with `n` objects: `bins` if nonzero,
    /// else `clamp(√n, 16, 256)`; rounded up to the next power of two for
    /// the electrostatic model (fixed-radix FFT constraint).
    pub fn effective_bins(&self, n: usize) -> usize {
        let b = if self.bins > 0 {
            self.bins
        } else {
            ((n as f64).sqrt().ceil() as usize).clamp(16, 256)
        };
        match self.density_model {
            GpDensityModel::Bell => b,
            GpDensityModel::Electrostatic => b.max(1).next_power_of_two(),
        }
    }
}

/// Outcome summary of a global-placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpOutcome {
    /// Final overflow ratio.
    pub overflow_ratio: f64,
    /// Outer rounds executed.
    pub outer_rounds: usize,
    /// Final smoothed wirelength.
    pub smooth_wl: f64,
    /// Divergence recoveries (restore + step-shrink retries) performed.
    pub recoveries: usize,
    /// Gradient evaluations performed (wirelength + density kernel calls,
    /// including the λ₀ warm-start evaluation) — the iterations-to-converge
    /// measure the solver A/B compares.
    pub gradient_evals: usize,
}

/// Runs analytical global placement on `model` in place.
///
/// `regions` are the design's fence regions (fenced objects are pulled into
/// and density-constrained to their fence); `blocked` lists immovable
/// (rect, occupancy) area for the density fields; `stage` labels trace
/// records.
///
/// # Divergence recovery
///
/// A non-finite smooth wirelength or gradient is a recoverable signal, not
/// a panic: the optimizer restores the last finite iterate, shrinks the
/// trust-region step by [`RecoveryPolicy::step_shrink`] and restarts CG.
/// Restoring finite coordinates is what re-anchors the WA stability shift
/// — the per-net max/min exponent anchor is re-derived from the current
/// positions on every evaluation, so a restored iterate evaluates with a
/// fresh, well-scaled anchor. After [`RecoveryPolicy::max_retries`] failed
/// retries the run surfaces [`Diverged`], leaving `model` at its last
/// finite iterate so callers can continue the flow from it.
///
/// The fault-free path is bitwise identical to a recovery-free optimizer:
/// the step scale stays exactly `1.0` until the first recovery, and all
/// recovery decisions happen on this (the orchestrating) thread.
pub fn run_global_place(
    model: &mut Model,
    regions: &[Region],
    blocked: &[(Rect, f64)],
    opts: &GpOptions,
    trace: &mut Trace,
    stage: &str,
) -> Result<GpOutcome, Diverged> {
    if model.is_empty() {
        return Ok(GpOutcome {
            overflow_ratio: 0.0,
            outer_rounds: 0,
            smooth_wl: 0.0,
            recoveries: 0,
            gradient_evals: 0,
        });
    }
    let n = model.len();
    let bins = opts.effective_bins(n);
    let mut engine =
        DensityEngine::build(model, regions, blocked, bins, opts.target_density, opts.density_model);
    let (bin_w, bin_h) = engine.bin_dims();
    let movable_area: f64 = model.area.iter().sum();

    let mut gamma = opts.gamma_mult * 0.5 * (bin_w + bin_h);
    let gamma_floor = 0.25 * 0.5 * (bin_w + bin_h);

    let mut wl_gx = vec![0.0; n];
    let mut wl_gy = vec![0.0; n];
    let mut den_gx = vec![0.0; n];
    let mut den_gy = vec![0.0; n];
    let mut gx = vec![0.0; n];
    let mut gy = vec![0.0; n];
    let mut prev_gx = vec![0.0; n];
    let mut prev_gy = vec![0.0; n];
    let mut dir_x = vec![0.0; n];
    let mut dir_y = vec![0.0; n];
    // Wirelength evaluation scratch (net spans, pin-level gradients),
    // allocated once and reused by every CG iteration.
    let mut wl_scratch = WlScratch::new();

    let par = &opts.parallelism;
    let mut grad_kernel_time = Duration::ZERO;
    let mut grad_evals = 0usize;

    // λ₀ balances the two gradient magnitudes (the SimPL/NTUplace warm
    // start): density starts at ~5% of the wirelength force.
    let mut lambda = {
        let t0 = Instant::now();
        engine.eval_fused(
            model,
            opts.wirelength,
            gamma,
            &mut wl_scratch,
            &mut wl_gx,
            &mut wl_gy,
            &mut den_gx,
            &mut den_gy,
            par,
        );
        grad_kernel_time += t0.elapsed();
        grad_evals += 1;
        let mut wl_norm = 0.0;
        let mut den_norm = 0.0;
        for i in 0..n {
            wl_norm += wl_gx[i].hypot(wl_gy[i]);
            den_norm += den_gx[i].hypot(den_gy[i]);
        }
        if den_norm > 1e-12 {
            0.05 * wl_norm / den_norm
        } else {
            1e-3
        }
    };

    let mut outcome = GpOutcome {
        overflow_ratio: f64::INFINITY,
        outer_rounds: 0,
        smooth_wl: 0.0,
        recoveries: 0,
        gradient_evals: grad_evals,
    };
    let step_len = opts.step_bins * 0.5 * (bin_w + bin_h);

    // Divergence recovery state: the last finite iterate, the current
    // trust-region scale (exactly 1.0 until the first recovery, keeping
    // the fault-free path bitwise identical), and the retry budget.
    let mut last_good_x = model.pos_x.clone();
    let mut last_good_y = model.pos_y.clone();
    let mut step_scale = 1.0;
    let mut retries = 0usize;

    // Nesterov state: the major iterate `u` (the model's `pos` holds the
    // lookahead `v` during gradient evaluation), the previous iterate for
    // the momentum extrapolation, the per-cell Lipschitz preconditioner
    // and the momentum sequence a_k. Allocated only when selected so the
    // default path's memory profile is unchanged.
    let nesterov = opts.solver == GpSolver::Nesterov;
    let mut u_x = if nesterov { model.pos_x.clone() } else { Vec::new() };
    let mut u_y = if nesterov { model.pos_y.clone() } else { Vec::new() };
    let mut prev_u_x = if nesterov { vec![0.0; n] } else { Vec::new() };
    let mut prev_u_y = if nesterov { vec![0.0; n] } else { Vec::new() };
    let mut precond = if nesterov { vec![1.0; n] } else { Vec::new() };
    let mut a_k = 1.0f64;
    let bin_area = bin_w * bin_h;

    // Per-round trace detail: the last inner step scale and density
    // penalty, so A/B runs are diffable from the stages CSV alone.
    let mut last_alpha = 0.0;
    let mut last_penalty = 0.0;

    for outer in 0..opts.max_outer {
        let mut last_wl = 0.0;
        dir_x.iter_mut().for_each(|d| *d = 0.0);
        dir_y.iter_mut().for_each(|d| *d = 0.0);
        prev_gx.iter_mut().for_each(|g| *g = 0.0);
        prev_gy.iter_mut().for_each(|g| *g = 0.0);
        let mut overflow_area = 0.0;

        if nesterov {
            // The per-cell Lipschitz estimate of ePlace: wirelength
            // curvature scales with the pin count, density curvature with
            // the λ-weighted charge (area in bin units). Recomputed each
            // round because λ grows; momentum restarts with it.
            for (i, p) in precond.iter_mut().enumerate() {
                let pins =
                    (model.obj_pin_start[i + 1] - model.obj_pin_start[i]) as f64;
                *p = (pins + lambda * model.area[i] / bin_area).max(1.0);
            }
            a_k = 1.0;
            u_x.copy_from_slice(&model.pos_x);
            u_y.copy_from_slice(&model.pos_y);
        }

        for inner in 0..opts.inner_iters {
            wl_gx.iter_mut().for_each(|g| *g = 0.0);
            wl_gy.iter_mut().for_each(|g| *g = 0.0);
            den_gx.iter_mut().for_each(|g| *g = 0.0);
            den_gy.iter_mut().for_each(|g| *g = 0.0);
            let t0 = Instant::now();
            let (wl, den_stats) = engine.eval_fused(
                model,
                opts.wirelength,
                gamma,
                &mut wl_scratch,
                &mut wl_gx,
                &mut wl_gy,
                &mut den_gx,
                &mut den_gy,
                par,
            );
            grad_kernel_time += t0.elapsed();
            last_wl = wl;
            overflow_area = den_stats.overflow_area;
            last_penalty = den_stats.penalty;
            grad_evals += 1;
            fence_grad(model, regions, lambda * opts.fence_weight, &mut den_gx, &mut den_gy);

            for i in 0..n {
                gx[i] = wl_gx[i] + den_gx[i] * lambda;
                gy[i] = wl_gy[i] + den_gy[i] * lambda;
            }

            if crate::faultinject::fire_nan_gradient(stage, outer) {
                last_wl = f64::NAN;
                gx[0] = f64::NAN;
                gy[0] = f64::NAN;
            }

            // Divergence check: a non-finite objective or gradient (NaN λ
            // included — it poisons the combined gradient above) triggers
            // restore-and-retry instead of propagating downstream.
            if !all_finite(last_wl, &gx, &gy) {
                model.pos_x.copy_from_slice(&last_good_x);
                model.pos_y.copy_from_slice(&last_good_y);
                if retries >= opts.recovery.max_retries {
                    trace.record_event(RecoveryEvent::GpDiverged {
                        stage: stage.to_owned(),
                        retries,
                    });
                    trace.record_stage(format!("{stage}/grad_kernel"), grad_kernel_time);
                    outcome.recoveries = retries;
                    outcome.gradient_evals = grad_evals;
                    return Err(Diverged { stage: stage.to_owned(), outer, retries, best: outcome });
                }
                retries += 1;
                step_scale *= opts.recovery.step_shrink;
                trace.record_event(RecoveryEvent::StepHalved {
                    stage: stage.to_owned(),
                    outer,
                    scale: step_scale,
                });
                // Restart the solver from the restored iterate and
                // invalidate the poisoned round-local state.
                dir_x.iter_mut().for_each(|d| *d = 0.0);
                dir_y.iter_mut().for_each(|d| *d = 0.0);
                prev_gx.iter_mut().for_each(|g| *g = 0.0);
                prev_gy.iter_mut().for_each(|g| *g = 0.0);
                if nesterov {
                    // The restored positions are the new major iterate;
                    // drop the momentum built on the poisoned trajectory.
                    u_x.copy_from_slice(&last_good_x);
                    u_y.copy_from_slice(&last_good_y);
                    a_k = 1.0;
                }
                last_wl = outcome.smooth_wl;
                overflow_area = f64::INFINITY;
                continue;
            }

            if nesterov {
                // Stop the round the moment the density target holds: the
                // accelerated field forces spread fast enough that running
                // the round to completion over-spreads well past the
                // target, trading wirelength for density headroom nobody
                // asked for. The 3% margin covers the gap between this
                // measurement (taken at the lookahead iterate) and the
                // major iterate the round actually returns. (The CG path
                // keeps its fixed inner count — its default output is
                // byte-stable across releases.)
                if overflow_area / movable_area.max(1e-12) < 0.97 * opts.overflow_target {
                    break;
                }
                // Preconditioned steepest direction at the lookahead.
                let mut max_d: f64 = 0.0;
                for i in 0..n {
                    dir_x[i] = gx[i] / precond[i];
                    dir_y[i] = gy[i] / precond[i];
                    max_d = max_d.max(dir_x[i].abs().max(dir_y[i].abs()));
                }
                if max_d <= 1e-18 {
                    break;
                }
                let alpha = (step_len / max_d) * step_scale;
                last_alpha = alpha;
                // The finite anchor for divergence recovery is the major
                // iterate, not the extrapolated lookahead.
                last_good_x.copy_from_slice(&u_x);
                last_good_y.copy_from_slice(&u_y);
                prev_u_x.copy_from_slice(&u_x);
                prev_u_y.copy_from_slice(&u_y);
                // u_{k+1} = v_k − α·P⁻¹g, clamped to the die.
                for i in 0..n {
                    model.pos_x[i] -= dir_x[i] * alpha;
                    model.pos_y[i] -= dir_y[i] * alpha;
                }
                model.clamp_to_die();
                u_x.copy_from_slice(&model.pos_x);
                u_y.copy_from_slice(&model.pos_y);
                // Adaptive restart (O'Donoghue–Candès): when the step just
                // taken points against the gradient, the momentum is
                // carrying the iterate uphill — drop it rather than ride
                // the overshoot ripple.
                let mut uphill = 0.0;
                for i in 0..n {
                    uphill += gx[i] * (u_x[i] - prev_u_x[i]) + gy[i] * (u_y[i] - prev_u_y[i]);
                }
                if uphill > 0.0 {
                    a_k = 1.0;
                }
                // v_{k+1} = u_{k+1} + (a_k−1)/a_{k+1} · (u_{k+1} − u_k).
                let a_next = 0.5 * (1.0 + (4.0 * a_k * a_k + 1.0).sqrt());
                let coef = (a_k - 1.0) / a_next;
                a_k = a_next;
                for i in 0..n {
                    model.pos_x[i] = u_x[i] + coef * (u_x[i] - prev_u_x[i]);
                    model.pos_y[i] = u_y[i] + coef * (u_y[i] - prev_u_y[i]);
                }
                model.clamp_to_die();
                continue;
            }

            // Polak–Ribière β with restart on non-descent.
            let mut num = 0.0;
            let mut den = 0.0;
            for i in 0..n {
                num += gx[i] * (gx[i] - prev_gx[i]) + gy[i] * (gy[i] - prev_gy[i]);
                den += prev_gx[i] * prev_gx[i] + prev_gy[i] * prev_gy[i];
            }
            let beta = if inner == 0 || den <= 1e-24 { 0.0 } else { (num / den).max(0.0) };
            let mut max_d: f64 = 0.0;
            let mut descent = 0.0;
            for i in 0..n {
                dir_x[i] = -gx[i] + dir_x[i] * beta;
                dir_y[i] = -gy[i] + dir_y[i] * beta;
                max_d = max_d.max(dir_x[i].abs().max(dir_y[i].abs()));
                descent += dir_x[i] * gx[i] + dir_y[i] * gy[i];
            }
            if descent >= 0.0 {
                // Restart with steepest descent.
                max_d = 0.0;
                for i in 0..n {
                    dir_x[i] = -gx[i];
                    dir_y[i] = -gy[i];
                    max_d = max_d.max(dir_x[i].abs().max(dir_y[i].abs()));
                }
            }
            if max_d <= 1e-18 {
                break;
            }
            // `step_scale` is 1.0 unless a recovery shrank the trust
            // region, so the fault-free α is bitwise `step_len / max_d`.
            let alpha = (step_len / max_d) * step_scale;
            last_alpha = alpha;
            last_good_x.copy_from_slice(&model.pos_x);
            last_good_y.copy_from_slice(&model.pos_y);
            for i in 0..n {
                model.pos_x[i] += dir_x[i] * alpha;
                model.pos_y[i] += dir_y[i] * alpha;
            }
            model.clamp_to_die();
            std::mem::swap(&mut prev_gx, &mut gx);
            std::mem::swap(&mut prev_gy, &mut gy);
        }

        if nesterov {
            // The round ends on the major iterate, not the extrapolated
            // lookahead: fence projection, tracing and the next round's
            // warm start all read the converged positions.
            model.pos_x.copy_from_slice(&u_x);
            model.pos_y.copy_from_slice(&u_y);
        }

        // Collapse the boundary layer: objects the pull force brought to
        // within a bin of their fence are snapped inside (projected
        // gradient step for the hard fence constraint).
        fence_project(model, regions, 0.5 * (bin_w + bin_h));

        let overflow_ratio = overflow_area / movable_area.max(1e-12);
        outcome = GpOutcome {
            overflow_ratio,
            outer_rounds: outer + 1,
            smooth_wl: last_wl,
            recoveries: retries,
            gradient_evals: grad_evals,
        };
        trace.record(TraceRecord {
            stage: stage.to_owned(),
            outer,
            smooth_wl: last_wl,
            hpwl: model.hpwl(),
            overflow: overflow_ratio,
            lambda,
            gamma,
            solver: opts.solver.label().to_owned(),
            step_len: last_alpha,
            penalty: last_penalty,
            estimator_tier: String::new(),
        });
        if overflow_ratio < opts.overflow_target {
            break;
        }
        // The Nesterov path ramps λ more gently (growth^0.7, and √growth
        // once the overflow is within 2× of the target): the accelerated
        // field forces clear a full λ level in far fewer iterations than
        // CG, and riding the full ramp spends that advantage spreading
        // ahead of the wirelength — each λ level gets too little
        // untangling before the density weight doubles again. The gentler
        // ramp converts part of the iteration headroom into wirelength
        // quality while still converging in roughly half CG's evals.
        lambda *= if nesterov && overflow_ratio < 2.0 * opts.overflow_target {
            opts.lambda_growth.sqrt()
        } else if nesterov {
            opts.lambda_growth.powf(0.7)
        } else {
            opts.lambda_growth
        };
        if nesterov {
            // ePlace-style γ(τ): tie the wirelength smoothing to the
            // measured overflow instead of the round count. The
            // accelerated path converges in far fewer rounds than CG, and
            // a round-counted decay would leave the wirelength model
            // coarse in exactly the rounds that decide the final HPWL.
            let gamma0 = opts.gamma_mult * 0.5 * (bin_w + bin_h);
            let t = ((overflow_ratio - opts.overflow_target) / (1.0 - opts.overflow_target))
                .clamp(0.0, 1.0);
            gamma = gamma_floor * (gamma0 / gamma_floor).powf(t);
        } else {
            gamma = (gamma * opts.gamma_decay).max(gamma_floor);
        }
    }
    // Wirelength polish (Nesterov path only): the accelerated spreading
    // rounds overshoot the density target slightly, and that overshoot is
    // pure wirelength loss. With the target met, a few plain preconditioned
    // descent iterations at a damped λ pull wirelength back; every step is
    // validated against the target before the next one builds on it, and
    // the pass rewinds and stops the first time a step breaks the target.
    if nesterov && outcome.overflow_ratio < opts.overflow_target {
        lambda *= 0.25;
        u_x.copy_from_slice(&model.pos_x);
        u_y.copy_from_slice(&model.pos_y);
        prev_u_x.copy_from_slice(&u_x);
        prev_u_y.copy_from_slice(&u_y);
        let polish_iters = (opts.inner_iters / 4).max(1);
        let mut last_ratio = outcome.overflow_ratio;
        let mut threshold = opts.overflow_target;
        for it in 0..=polish_iters {
            wl_gx.iter_mut().for_each(|g| *g = 0.0);
            wl_gy.iter_mut().for_each(|g| *g = 0.0);
            den_gx.iter_mut().for_each(|g| *g = 0.0);
            den_gy.iter_mut().for_each(|g| *g = 0.0);
            let t0 = Instant::now();
            let (wl, den_stats) = engine.eval_fused(
                model,
                opts.wirelength,
                gamma,
                &mut wl_scratch,
                &mut wl_gx,
                &mut wl_gy,
                &mut den_gx,
                &mut den_gy,
                par,
            );
            grad_kernel_time += t0.elapsed();
            grad_evals += 1;
            fence_grad(model, regions, lambda * opts.fence_weight, &mut den_gx, &mut den_gy);
            for i in 0..n {
                gx[i] = wl_gx[i] + den_gx[i] * lambda;
                gy[i] = wl_gy[i] + den_gy[i] * lambda;
            }
            let ratio = den_stats.overflow_area / movable_area.max(1e-12);
            if it == 0 {
                // The GP loop's convergence test reads the lookahead
                // iterate; the returned major iterate can sit marginally
                // above the target. Polish must never worsen the real
                // achieved overflow, so the gate is the entry measurement
                // (or the target, whichever is looser).
                threshold = ratio.max(threshold);
            }
            if ratio > threshold || !all_finite(wl, &gx, &gy) {
                // The previous step broke the gate (or diverged): rewind
                // to the last iterate that held it and stop.
                model.pos_x.copy_from_slice(&prev_u_x);
                model.pos_y.copy_from_slice(&prev_u_y);
                break;
            }
            last_ratio = ratio;
            outcome.smooth_wl = wl;
            // The iterate evaluated above is now validated.
            prev_u_x.copy_from_slice(&model.pos_x);
            prev_u_y.copy_from_slice(&model.pos_y);
            if it == polish_iters {
                // Last pass is validation-only: never leave on an
                // unchecked step.
                break;
            }
            let mut max_d: f64 = 0.0;
            for i in 0..n {
                dir_x[i] = gx[i] / precond[i];
                dir_y[i] = gy[i] / precond[i];
                max_d = max_d.max(dir_x[i].abs().max(dir_y[i].abs()));
            }
            if max_d <= 1e-18 {
                break;
            }
            let alpha = (step_len / max_d) * step_scale;
            for i in 0..n {
                model.pos_x[i] -= dir_x[i] * alpha;
                model.pos_y[i] -= dir_y[i] * alpha;
            }
            model.clamp_to_die();
        }
        fence_project(model, regions, 0.5 * (bin_w + bin_h));
        outcome.overflow_ratio = last_ratio;
        outcome.gradient_evals = grad_evals;
    }
    trace.record_stage(format!("{stage}/grad_kernel"), grad_kernel_time);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelNet, ModelPin};
    use rdp_geom::Point;

    /// A chain of cells anchored at both ends, all starting at the center.
    fn chain_model(n: usize) -> Model {
        let die = Rect::new(0.0, 0.0, 200.0, 200.0);
        let mut nets = Vec::new();
        nets.push(ModelNet {
            weight: 1.0,
            pins: vec![ModelPin::fixed(Point::new(0.0, 100.0)), ModelPin::movable(0, Point::ORIGIN)],
        });
        for i in 0..n - 1 {
            nets.push(ModelNet {
                weight: 1.0,
                pins: vec![ModelPin::movable(i, Point::ORIGIN), ModelPin::movable(i + 1, Point::ORIGIN)],
            });
        }
        nets.push(ModelNet {
            weight: 1.0,
            pins: vec![
                ModelPin::movable(n - 1, Point::ORIGIN),
                ModelPin::fixed(Point::new(200.0, 100.0)),
            ],
        });
        Model::from_parts(
            (0..n).map(|i| Point::new(100.0 + (i as f64) * 1e-3, 100.0)).collect(),
            vec![(8.0, 10.0); n],
            vec![80.0; n],
            vec![false; n],
            vec![None; n],
            &nets,
            die,
            vec![],
        )
    }

    #[test]
    fn spreads_overlapping_cells() {
        let mut model = chain_model(40);
        let mut trace = Trace::new();
        let opts = GpOptions { max_outer: 20, inner_iters: 30, ..GpOptions::default() };
        let out = run_global_place(&mut model, &[], &[], &opts, &mut trace, "test").unwrap();
        assert!(
            out.overflow_ratio < 0.25,
            "cells did not spread: overflow {}",
            out.overflow_ratio
        );
        // Cells must have moved off the center pile.
        let spread = model.pos_x.iter().map(|x| (x - 100.0).abs()).fold(0.0f64, f64::max);
        assert!(spread > 10.0, "max spread {spread}");
        assert!(!trace.records.is_empty());
    }

    #[test]
    fn nesterov_electrostatic_spreads_cells() {
        let mut model = chain_model(40);
        let mut trace = Trace::new();
        let opts = GpOptions {
            max_outer: 20,
            inner_iters: 30,
            solver: GpSolver::Nesterov,
            density_model: GpDensityModel::Electrostatic,
            ..GpOptions::default()
        };
        let out = run_global_place(&mut model, &[], &[], &opts, &mut trace, "test").unwrap();
        assert!(
            out.overflow_ratio < 0.25,
            "cells did not spread: overflow {}",
            out.overflow_ratio
        );
        let spread = model.pos_x.iter().map(|x| (x - 100.0).abs()).fold(0.0f64, f64::max);
        assert!(spread > 10.0, "max spread {spread}");
        assert!(out.gradient_evals > 0);
        // The trace labels the rounds with the selected solver.
        assert!(trace.records.iter().all(|r| r.solver == "nesterov"));
        // And the final placement stays inside the die.
        for i in 0..model.len() {
            let (w, h) = model.size[i];
            let p = model.pos(i);
            assert!(p.x >= w / 2.0 - 1e-6 && p.x <= 200.0 - w / 2.0 + 1e-6, "obj {i} x {}", p.x);
            assert!(p.y >= h / 2.0 - 1e-6 && p.y <= 200.0 - h / 2.0 + 1e-6, "obj {i} y {}", p.y);
        }
    }

    #[test]
    fn solver_density_combinations_all_converge() {
        for (solver, dm) in [
            (GpSolver::ConjugateGradient, GpDensityModel::Electrostatic),
            (GpSolver::Nesterov, GpDensityModel::Bell),
        ] {
            let mut model = chain_model(30);
            let mut trace = Trace::new();
            let opts = GpOptions {
                max_outer: 20,
                inner_iters: 30,
                solver,
                density_model: dm,
                ..GpOptions::default()
            };
            let out = run_global_place(&mut model, &[], &[], &opts, &mut trace, "t").unwrap();
            assert!(
                out.overflow_ratio < 0.4,
                "{}/{} overflow {}",
                solver.label(),
                dm.label(),
                out.overflow_ratio
            );
        }
    }

    #[test]
    fn effective_bins_rounds_to_power_of_two_for_electrostatic() {
        let mut opts = GpOptions { density_model: GpDensityModel::Electrostatic, ..GpOptions::default() };
        // auto bins: √2000 ≈ 45 → 64
        assert_eq!(opts.effective_bins(2000), 64);
        // explicit bins are rounded up too
        opts.bins = 100;
        assert_eq!(opts.effective_bins(2000), 128);
        // the bell model keeps them verbatim
        opts.density_model = GpDensityModel::Bell;
        assert_eq!(opts.effective_bins(2000), 100);
        // the clamp ceiling 256 is itself a power of two
        opts.bins = 0;
        opts.density_model = GpDensityModel::Electrostatic;
        assert_eq!(opts.effective_bins(1_000_000), 256);
    }

    #[test]
    fn nesterov_diverged_input_surfaces_error() {
        let mut model = chain_model(10);
        model.pos_x[3] = f64::NAN;
        let mut trace = Trace::new();
        let opts = GpOptions {
            solver: GpSolver::Nesterov,
            density_model: GpDensityModel::Electrostatic,
            ..GpOptions::default()
        };
        let err = run_global_place(&mut model, &[], &[], &opts, &mut trace, "t").unwrap_err();
        assert_eq!(err.stage, "t");
        assert!(trace.events.iter().any(|e| e.kind() == "gp_diverged"));
    }

    #[test]
    fn wirelength_pull_keeps_chain_ordered_roughly() {
        let mut model = chain_model(20);
        let mut trace = Trace::new();
        let out =
            run_global_place(&mut model, &[], &[], &GpOptions::default(), &mut trace, "t").unwrap();
        assert!(out.smooth_wl.is_finite());
        // The two anchors at x=0 and x=200 stretch the chain: the first
        // cell should end left of the last one.
        assert!(
            model.pos_x[0] < model.pos_x[19],
            "chain inverted: {} vs {}",
            model.pos_x[0],
            model.pos_x[19]
        );
    }

    #[test]
    fn all_positions_stay_in_die() {
        let mut model = chain_model(30);
        let mut trace = Trace::new();
        run_global_place(&mut model, &[], &[], &GpOptions::default(), &mut trace, "t").unwrap();
        for i in 0..model.len() {
            let p = model.pos(i);
            let (w, h) = model.size[i];
            assert!(p.x >= w / 2.0 - 1e-6 && p.x <= 200.0 - w / 2.0 + 1e-6, "obj {i} x {}", p.x);
            assert!(p.y >= h / 2.0 - 1e-6 && p.y <= 200.0 - h / 2.0 + 1e-6, "obj {i} y {}", p.y);
        }
    }

    #[test]
    fn empty_model_is_a_noop() {
        let mut model = Model::from_parts(
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            &[],
            Rect::new(0.0, 0.0, 200.0, 200.0),
            vec![],
        );
        let mut trace = Trace::new();
        let out =
            run_global_place(&mut model, &[], &[], &GpOptions::default(), &mut trace, "t").unwrap();
        assert_eq!(out.outer_rounds, 0);
    }

    #[test]
    fn blocked_area_is_avoided() {
        let mut model = chain_model(30);
        let blocked = vec![(Rect::new(80.0, 80.0, 120.0, 120.0), 1.0)];
        let mut trace = Trace::new();
        let opts = GpOptions { max_outer: 24, ..GpOptions::default() };
        run_global_place(&mut model, &[], &blocked, &opts, &mut trace, "t").unwrap();
        // Density mass inside the blocked rect should be small: count
        // centers inside.
        let inside = (0..model.len())
            .map(|i| model.pos(i))
            .filter(|p| p.x > 85.0 && p.x < 115.0 && p.y > 85.0 && p.y < 115.0)
            .count();
        assert!(
            inside <= 6,
            "{inside} of 30 cells remain in the blocked region"
        );
    }

    #[test]
    fn non_finite_start_surfaces_diverged_not_panic() {
        let mut model = chain_model(10);
        model.pos_x[3] = f64::NAN;
        let mut trace = Trace::new();
        let err = run_global_place(&mut model, &[], &[], &GpOptions::default(), &mut trace, "t")
            .unwrap_err();
        assert_eq!(err.stage, "t");
        assert_eq!(err.retries, GpOptions::default().recovery.max_retries);
        assert!(trace.events.iter().any(|e| e.kind() == "gp_diverged"));
    }
}
