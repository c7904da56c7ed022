//! Smooth wirelength models: log-sum-exp (LSE) and weighted-average (WA).
//!
//! Analytical placement needs a differentiable stand-in for HPWL. The
//! classic choice is LSE; the line of work this paper builds on introduced
//! the **weighted-average** model, which provably has a smaller modeling
//! error than LSE at the same smoothing parameter γ — that claim is
//! property-tested here and measured by experiment **T4**.
//!
//! Both models are implemented with max-shift exponent stabilization (the
//! "numerical stability scheme" of the WA paper): exponents are computed
//! relative to the per-net extreme coordinate, so γ can anneal to a small
//! fraction of a bin without overflow.
//!
//! The stabilization is *stateless*: the max/min anchor of every net is
//! re-derived from the current coordinates on each evaluation, never
//! cached. That is what makes divergence recovery sound — when the
//! optimizer restores a finite iterate after a blow-up, the very next
//! evaluation anchors its exponents to the restored (finite) extremes, so
//! no stale shift can re-poison the model. A non-finite result from these
//! functions is therefore a property of the *input iterate*, detectable
//! with [`all_finite`] and recoverable by restoring coordinates, not a
//! sticky internal state.
//!
//! # Kernel structure (million-cell hot path)
//!
//! The evaluation runs in two phases over the model's CSR pin arena:
//!
//! 1. **Per-net phase** — nets are split into fixed 256-net chunks; each
//!    chunk writes weight-scaled per-pin gradients and per-net totals into
//!    *disjoint* slices of flat scratch arrays (the chunk's pin range
//!    `net_pin_start[c.start] .. net_pin_start[c.end]` is contiguous), so
//!    workers never contend and no per-chunk `Vec` of sparse contributions
//!    is allocated. Exponentials are computed **once** per pin-axis and
//!    cached for the gradient formula — the old kernel recomputed them,
//!    and `exp` dominates the per-pin cost.
//! 2. **Gather phase** — per-object gradients are accumulated by walking
//!    the model's object→pin transpose in ascending pin order, which is
//!    exactly the order the historical scatter added the same terms in, so
//!    the result is bitwise identical to the pre-layout-refactor kernel
//!    (the test oracle in `tests/reference/` holds that kernel; the
//!    layout-equivalence tests enforce the identity).
//!
//! Sums whose order is observable stay strictly sequential; only the
//! order-free max/min folds use explicit 4-lane chunking (see
//! `DESIGN.md` §10 for why that preserves bitwise determinism).

use crate::model::{Model, FIXED_PIN};
use rdp_geom::parallel::{
    chunk_spans, chunked_map_parts_with, split_at_spans, Parallelism,
};

/// Nets per parallel work chunk. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore the floating-point reduction
/// order — are identical at every parallelism level.
const NET_CHUNK: usize = 256;

/// Objects per parallel gather chunk.
const OBJ_CHUNK: usize = 4096;

/// Which smooth wirelength model the optimizer differentiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WirelengthModel {
    /// Log-sum-exp: `γ·ln Σ e^{x/γ} + γ·ln Σ e^{-x/γ}` (overestimates HPWL).
    Lse,
    /// Weighted-average: `Σx·e^{x/γ}/Σe^{x/γ} − Σx·e^{-x/γ}/Σe^{-x/γ}`
    /// (underestimates HPWL; tighter than LSE). The default.
    #[default]
    Wa,
}

/// Maximum over a coordinate slice, 4 lanes wide with a fixed-order tail
/// fold. `max` over finite values is associative and commutative (and the
/// sign of a zero result cannot propagate into the shifted exponents), so
/// re-associating into lanes is bitwise safe while letting the
/// autovectorizer lift the loop. The lane combination order is fixed, so
/// the result is also independent of everything but the input.
#[inline]
fn fold_max(v: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; 4];
    let mut chunks = v.chunks_exact(4);
    for c in &mut chunks {
        lanes[0] = lanes[0].max(c[0]);
        lanes[1] = lanes[1].max(c[1]);
        lanes[2] = lanes[2].max(c[2]);
        lanes[3] = lanes[3].max(c[3]);
    }
    let mut m = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    for &x in chunks.remainder() {
        m = m.max(x);
    }
    m
}

/// Minimum over a coordinate slice; see [`fold_max`].
#[inline]
fn fold_min(v: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; 4];
    let mut chunks = v.chunks_exact(4);
    for c in &mut chunks {
        lanes[0] = lanes[0].min(c[0]);
        lanes[1] = lanes[1].min(c[1]);
        lanes[2] = lanes[2].min(c[2]);
        lanes[3] = lanes[3].min(c[3]);
    }
    let mut m = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
    for &x in chunks.remainder() {
        m = m.min(x);
    }
    m
}

/// One axis of one net, evaluated with the LSE model. Returns the smooth
/// span and writes `∂/∂coord` for each pin into `pin_grad`. `ep`/`em`
/// cache the shifted exponentials between the sum and gradient passes
/// (identical inputs ⇒ identical values ⇒ bitwise identical to
/// recomputing them, at half the `exp` count).
fn lse_axis(coords: &[f64], gamma: f64, pin_grad: &mut [f64], ep: &mut Vec<f64>, em: &mut Vec<f64>) -> f64 {
    let max = fold_max(coords);
    let min = fold_min(coords);
    let n = coords.len();
    if ep.len() < n {
        ep.resize(n, 0.0);
        em.resize(n, 0.0);
    }
    let (ep, em) = (&mut ep[..n], &mut em[..n]);
    let mut s_max = 0.0;
    let mut s_min = 0.0;
    for ((&x, e_p), e_m) in coords.iter().zip(ep.iter_mut()).zip(em.iter_mut()) {
        *e_p = ((x - max) / gamma).exp();
        *e_m = ((min - x) / gamma).exp();
        s_max += *e_p;
        s_min += *e_m;
    }
    for ((g, &e_p), &e_m) in pin_grad.iter_mut().zip(ep.iter()).zip(em.iter()) {
        *g = e_p / s_max - e_m / s_min;
    }
    gamma * s_max.ln() + max + gamma * s_min.ln() - min
}

/// One axis of one net with the WA model; exponential caching as in
/// [`lse_axis`].
fn wa_axis(coords: &[f64], gamma: f64, pin_grad: &mut [f64], ep: &mut Vec<f64>, em: &mut Vec<f64>) -> f64 {
    let max = fold_max(coords);
    let min = fold_min(coords);
    let n = coords.len();
    if ep.len() < n {
        ep.resize(n, 0.0);
        em.resize(n, 0.0);
    }
    let (ep, em) = (&mut ep[..n], &mut em[..n]);
    let (mut s_p, mut t_p, mut s_m, mut t_m) = (0.0, 0.0, 0.0, 0.0);
    for ((&x, e_p), e_m) in coords.iter().zip(ep.iter_mut()).zip(em.iter_mut()) {
        *e_p = ((x - max) / gamma).exp();
        *e_m = ((min - x) / gamma).exp();
        s_p += *e_p;
        t_p += x * *e_p;
        s_m += *e_m;
        t_m += x * *e_m;
    }
    let f_max = t_p / s_p;
    let f_min = t_m / s_m;
    for (((g, &x), &e_p), &e_m) in
        pin_grad.iter_mut().zip(coords).zip(ep.iter()).zip(em.iter())
    {
        let d_max = e_p / s_p * (1.0 + (x - f_max) / gamma);
        let d_min = e_m / s_m * (1.0 - (x - f_min) / gamma);
        *g = d_max - d_min;
    }
    f_max - f_min
}

/// Reusable scratch for [`smooth_wl_grad_par`]: chunk spans plus the flat
/// per-pin gradient and per-net total arrays. Hoisted by the optimizer so
/// no allocation happens per iteration.
#[derive(Debug, Clone, Default)]
pub struct WlScratch {
    net_spans: Vec<std::ops::Range<usize>>,
    obj_spans: Vec<std::ops::Range<usize>>,
    spans_for: (usize, usize),
    pin_grad_x: Vec<f64>,
    pin_grad_y: Vec<f64>,
    net_total: Vec<f64>,
}

/// One net-phase work item: the net span plus its disjoint per-pin gradient
/// and per-net total output slices (see [`WlScratch::net_parts`]).
pub(crate) type WlNetPart<'a> = (std::ops::Range<usize>, &'a mut [f64], &'a mut [f64], &'a mut [f64]);

/// One gather-phase work item: the object span plus its disjoint gradient
/// output slices (see [`WlScratch::obj_parts`]).
pub(crate) type WlObjPart<'a> = (std::ops::Range<usize>, &'a mut [f64], &'a mut [f64]);

impl WlScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        WlScratch::default()
    }

    pub(crate) fn prepare(&mut self, model: &Model) {
        let key = (model.num_nets(), model.len());
        if self.spans_for != key {
            self.net_spans = chunk_spans(key.0, NET_CHUNK).collect();
            self.obj_spans = chunk_spans(key.1, OBJ_CHUNK).collect();
            self.spans_for = key;
        }
        self.pin_grad_x.resize(model.num_pins(), 0.0);
        self.pin_grad_y.resize(model.num_pins(), 0.0);
        self.net_total.resize(model.num_nets(), 0.0);
    }

    /// Net-phase work items: one per fixed 256-net chunk, each owning the
    /// contiguous pin range its nets cover. Call after [`WlScratch::prepare`].
    pub(crate) fn net_parts(&mut self, model: &Model) -> Vec<WlNetPart<'_>> {
        let pin_spans: Vec<std::ops::Range<usize>> = self
            .net_spans
            .iter()
            .map(|s| model.net_pin_start[s.start] as usize..model.net_pin_start[s.end] as usize)
            .collect();
        let gx_parts = split_at_spans(&mut self.pin_grad_x, &pin_spans);
        let gy_parts = split_at_spans(&mut self.pin_grad_y, &pin_spans);
        let total_parts = split_at_spans(&mut self.net_total, &self.net_spans);
        self.net_spans
            .iter()
            .cloned()
            .zip(gx_parts)
            .zip(gy_parts)
            .zip(total_parts)
            .map(|(((span, gx), gy), nt)| (span, gx, gy, nt))
            .collect()
    }

    /// Gather-phase work items over the caller's gradient buffers.
    pub(crate) fn obj_parts<'a>(
        &self,
        grad_x: &'a mut [f64],
        grad_y: &'a mut [f64],
    ) -> Vec<WlObjPart<'a>> {
        let gx_parts = split_at_spans(grad_x, &self.obj_spans);
        let gy_parts = split_at_spans(grad_y, &self.obj_spans);
        self.obj_spans
            .iter()
            .cloned()
            .zip(gx_parts)
            .zip(gy_parts)
            .map(|((span, gx), gy)| (span, gx, gy))
            .collect()
    }

    /// The per-pin gradients written by the net phase (gather-phase input).
    pub(crate) fn pin_grads(&self) -> (&[f64], &[f64]) {
        (&self.pin_grad_x, &self.pin_grad_y)
    }

    /// The per-net totals written by the net phase.
    pub(crate) fn net_totals(&self) -> &[f64] {
        &self.net_total
    }
}

/// Per-worker scratch of the net phase: coordinate and exponential
/// staging for one net at a time.
#[derive(Default)]
pub(crate) struct AxisScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ep: Vec<f64>,
    em: Vec<f64>,
}

/// Net-phase body: evaluates one chunk of nets, writing weight-scaled
/// per-pin gradients and per-net totals into the part's disjoint slices.
/// Shared verbatim by [`smooth_wl_grad_par`] and the fused gradient pass
/// ([`crate::fused`]) so both produce bitwise identical values.
pub(crate) fn wl_net_phase(
    model: &Model,
    which: WirelengthModel,
    gamma: f64,
    ax: &mut AxisScratch,
    part: &mut WlNetPart<'_>,
) {
    let (span, gx_out, gy_out, nt_out) = part;
    let pin_base = model.net_pin_start[span.start] as usize;
    for ni in span.clone() {
        let pins = model.net_pins(ni);
        let local = pins.start - pin_base..pins.end - pin_base;
        if pins.len() < 2 {
            nt_out[ni - span.start] = 0.0;
            for k in local {
                gx_out[k] = 0.0;
                gy_out[k] = 0.0;
            }
            continue;
        }
        ax.xs.clear();
        ax.ys.clear();
        let objs = &model.pin_obj[pins.clone()];
        let offx = &model.pin_off_x[pins.clone()];
        let offy = &model.pin_off_y[pins.clone()];
        for ((&o, &ox), &oy) in objs.iter().zip(offx).zip(offy) {
            if o == FIXED_PIN {
                ax.xs.push(ox);
                ax.ys.push(oy);
            } else {
                ax.xs.push(model.pos_x[o as usize] + ox);
                ax.ys.push(model.pos_y[o as usize] + oy);
            }
        }
        let weight = model.net_weight[ni];
        let gx = &mut gx_out[local.clone()];
        let gy = &mut gy_out[local];
        let (wx, wy) = match which {
            WirelengthModel::Lse => (
                lse_axis(&ax.xs, gamma, gx, &mut ax.ep, &mut ax.em),
                lse_axis(&ax.ys, gamma, gy, &mut ax.ep, &mut ax.em),
            ),
            WirelengthModel::Wa => (
                wa_axis(&ax.xs, gamma, gx, &mut ax.ep, &mut ax.em),
                wa_axis(&ax.ys, gamma, gy, &mut ax.ep, &mut ax.em),
            ),
        };
        nt_out[ni - span.start] = weight * (wx + wy);
        // Weight-scale the pin gradients in place, in pin order —
        // the same multiplications the historical kernel did when
        // building its contribution list.
        for (g, h) in gx.iter_mut().zip(gy.iter_mut()) {
            *g *= weight;
            *h *= weight;
        }
    }
}

/// Gather-phase body: accumulates one chunk of objects' gradients from the
/// per-pin gradients by walking the ascending-pin transpose. Shared by
/// [`smooth_wl_grad_par`] and the fused pass.
pub(crate) fn wl_obj_phase(
    model: &Model,
    pin_grad_x: &[f64],
    pin_grad_y: &[f64],
    part: &mut WlObjPart<'_>,
) {
    let (span, gx_out, gy_out) = part;
    for (j, o) in span.clone().enumerate() {
        let mut ax = gx_out[j];
        let mut ay = gy_out[j];
        for &k in model.obj_pins(o) {
            ax += pin_grad_x[k as usize];
            ay += pin_grad_y[k as usize];
        }
        gx_out[j] = ax;
        gy_out[j] = ay;
    }
}

/// Ordered total: nets in index order, skipping degenerate nets — the
/// exact sequence of additions the historical merge performed.
pub(crate) fn wl_ordered_total(model: &Model, net_total: &[f64]) -> f64 {
    let mut total = 0.0;
    for (ni, t) in net_total.iter().enumerate().take(model.num_nets()) {
        if model.net_degree(ni) >= 2 {
            total += t;
        }
    }
    total
}

/// Evaluates the smooth wirelength of `model` and **accumulates** its
/// gradient into `grad_x`/`grad_y` (one entry per object; caller zeroes),
/// using up to `par` worker threads.
///
/// Nets are partitioned into fixed-size chunks evaluated against the
/// immutable model; each chunk writes its per-pin gradients and per-net
/// totals into disjoint slices of `scratch`, the total is folded
/// sequentially in net order, and the per-object gather walks the
/// ascending-pin transpose — so the result is bitwise identical at every
/// thread count (and to the historical implementation, the test oracle in
/// `tests/reference/`).
///
/// Returns the total smooth wirelength (net-weight scaled).
///
/// # Panics
///
/// Panics if `grad_x.len() != model.len()` (or `grad_y`).
pub fn smooth_wl_grad_par(
    model: &Model,
    which: WirelengthModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    scratch: &mut WlScratch,
    par: &Parallelism,
) -> f64 {
    assert_eq!(grad_x.len(), model.len(), "gradient buffer size mismatch");
    assert_eq!(grad_y.len(), model.len(), "gradient buffer size mismatch");
    debug_assert!(gamma > 0.0, "smoothing parameter γ must be positive, got {gamma}");
    scratch.prepare(model);

    // Phase 1: per-net evaluation into disjoint chunk slices. A chunk of
    // nets owns the contiguous pin range its nets cover.
    {
        let parts = scratch.net_parts(model);
        chunked_map_parts_with(par, parts, AxisScratch::default, |ax, _ci, part| {
            wl_net_phase(model, which, gamma, ax, part)
        });
    }

    let total = wl_ordered_total(model, scratch.net_totals());

    // Phase 2: per-object gather over the ascending-pin transpose. Each
    // object's additions happen in ascending pin index order — identical
    // to the historical net-then-pin scatter order restricted to that
    // object — and chunks write disjoint gradient ranges.
    {
        let (pin_grad_x, pin_grad_y) = scratch.pin_grads();
        let parts = scratch.obj_parts(grad_x, grad_y);
        chunked_map_parts_with(par, parts, || (), |(), _ci, part| {
            wl_obj_phase(model, pin_grad_x, pin_grad_y, part)
        });
    }
    total
}

/// Single-threaded [`smooth_wl_grad_par`] with throwaway scratch (the
/// historical entry point; tests and cold paths).
pub fn smooth_wl_grad(
    model: &Model,
    which: WirelengthModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) -> f64 {
    let mut scratch = WlScratch::new();
    smooth_wl_grad_par(model, which, gamma, grad_x, grad_y, &mut scratch, &Parallelism::single())
}

/// Evaluates the smooth wirelength only (no gradient) — used by the
/// discrete macro-orientation search.
pub fn smooth_wl(model: &Model, which: WirelengthModel, gamma: f64) -> f64 {
    let mut gx = vec![0.0; model.len()];
    let mut gy = vec![0.0; model.len()];
    smooth_wl_grad(model, which, gamma, &mut gx, &mut gy)
}

/// Whether a smooth-wirelength evaluation is numerically healthy: finite
/// objective and finite gradient in every component. The optimizer's
/// divergence detection — a `false` here is the recoverable `Diverged`
/// signal, not a panic (see [`crate::recovery`]).
pub fn all_finite(wl: f64, grad_x: &[f64], grad_y: &[f64]) -> bool {
    wl.is_finite()
        && grad_x.iter().all(|g| g.is_finite())
        && grad_y.iter().all(|g| g.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelNet, ModelPin, FIXED_PIN};
    use rdp_geom::{Point, Rect};

    fn toy_model(positions: &[(f64, f64)]) -> Model {
        let n = positions.len();
        Model::from_parts(
            positions.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            vec![(2.0, 10.0); n],
            vec![20.0; n],
            vec![false; n],
            vec![None; n],
            &[ModelNet {
                weight: 1.0,
                pins: (0..n).map(|i| ModelPin::movable(i, Point::ORIGIN)).collect(),
            }],
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        )
    }

    fn grad_of(model: &Model, which: WirelengthModel, gamma: f64) -> (Vec<f64>, Vec<f64>) {
        let mut gx = vec![0.0; model.len()];
        let mut gy = vec![0.0; model.len()];
        smooth_wl_grad(model, which, gamma, &mut gx, &mut gy);
        (gx, gy)
    }

    #[test]
    fn lse_overestimates_wa_underestimates() {
        let model = toy_model(&[(10.0, 10.0), (30.0, 25.0), (18.0, 40.0)]);
        let hpwl = model.hpwl();
        for gamma in [1.0, 4.0, 16.0] {
            let lse = smooth_wl(&model, WirelengthModel::Lse, gamma);
            let wa = smooth_wl(&model, WirelengthModel::Wa, gamma);
            assert!(lse >= hpwl - 1e-9, "LSE {lse} < HPWL {hpwl} at γ={gamma}");
            assert!(wa <= hpwl + 1e-9, "WA {wa} > HPWL {hpwl} at γ={gamma}");
        }
    }

    #[test]
    fn wa_is_tighter_than_lse_at_coarse_gamma() {
        // The WA model's advantage is its bounded error at coarse smoothing
        // (the regime early global placement runs in, γ of the order of the
        // pin spread); LSE's error grows like γ·ln(n) there. At γ much
        // smaller than the spread both models converge and LSE can be
        // pointwise tighter, so the comparison targets the coarse regime.
        let model = toy_model(&[(10.0, 10.0), (30.0, 25.0), (18.0, 40.0), (5.0, 33.0)]);
        let hpwl = model.hpwl();
        for gamma in [12.0, 20.0, 40.0] {
            let lse_err = (smooth_wl(&model, WirelengthModel::Lse, gamma) - hpwl).abs();
            let wa_err = (smooth_wl(&model, WirelengthModel::Wa, gamma) - hpwl).abs();
            assert!(
                wa_err < lse_err,
                "WA error {wa_err} not tighter than LSE {lse_err} at γ={gamma}"
            );
        }
    }

    #[test]
    fn both_converge_to_hpwl_as_gamma_shrinks() {
        let model = toy_model(&[(10.0, 10.0), (37.0, 22.0)]);
        let hpwl = model.hpwl();
        for which in [WirelengthModel::Lse, WirelengthModel::Wa] {
            let coarse = (smooth_wl(&model, which, 8.0) - hpwl).abs();
            let fine = (smooth_wl(&model, which, 0.25) - hpwl).abs();
            assert!(fine < coarse, "{which:?} did not tighten: {fine} vs {coarse}");
            assert!(fine < 0.5, "{which:?} still {fine} off at γ=0.25");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let model = toy_model(&[(10.0, 10.0), (30.0, 25.0), (18.0, 40.0)]);
        let gamma = 3.0;
        for which in [WirelengthModel::Lse, WirelengthModel::Wa] {
            let (gx, gy) = grad_of(&model, which, gamma);
            let h = 1e-5;
            for i in 0..model.len() {
                for axis in 0..2 {
                    let mut mp = model.clone();
                    let mut mm = model.clone();
                    if axis == 0 {
                        mp.pos_x[i] += h;
                        mm.pos_x[i] -= h;
                    } else {
                        mp.pos_y[i] += h;
                        mm.pos_y[i] -= h;
                    }
                    let fd = (smooth_wl(&mp, which, gamma) - smooth_wl(&mm, which, gamma)) / (2.0 * h);
                    let an = if axis == 0 { gx[i] } else { gy[i] };
                    assert!(
                        (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                        "{which:?} obj {i} axis {axis}: fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn stability_at_tiny_gamma_and_large_coords() {
        // Without max-shift, e^{50000/0.01} overflows instantly.
        let model = toy_model(&[(50_000.0, 49_000.0), (49_000.0, 50_000.0)]);
        for which in [WirelengthModel::Lse, WirelengthModel::Wa] {
            let wl = smooth_wl(&model, which, 0.01);
            assert!(wl.is_finite(), "{which:?} overflowed");
            assert!((wl - model.hpwl()).abs() < 1.0);
            let (gx, gy) = grad_of(&model, which, 0.01);
            assert!(all_finite(wl, &gx, &gy), "{which:?} gradient overflowed");
        }
    }

    #[test]
    fn net_weight_scales_contribution() {
        let mut model = toy_model(&[(0.0, 0.0), (10.0, 0.0)]);
        let base = smooth_wl(&model, WirelengthModel::Wa, 1.0);
        model.net_weight[0] = 3.0;
        assert!((smooth_wl(&model, WirelengthModel::Wa, 1.0) - 3.0 * base).abs() < 1e-9);
    }

    #[test]
    fn fixed_pins_receive_no_gradient() {
        let model = Model::from_parts(
            vec![Point::new(10.0, 10.0)],
            vec![(2.0, 10.0)],
            vec![20.0],
            vec![false],
            vec![None],
            &[ModelNet {
                weight: 1.0,
                pins: vec![
                    ModelPin::movable(0, Point::ORIGIN),
                    ModelPin::fixed(Point::new(50.0, 50.0)),
                ],
            }],
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        );
        let (gx, gy) = grad_of(&model, WirelengthModel::Wa, 2.0);
        // The single movable pulls toward the anchor: the anchor is to the
        // upper right, so the gradient must point away from it (negative
        // components — descent along −grad moves toward the anchor).
        assert!(gx[0] < 0.0 && gy[0] < 0.0);
        // And the fixed pin contributed no transpose entry.
        assert_eq!(model.pin_obj[1], FIXED_PIN);
        assert_eq!(model.obj_pins(0), &[0]);
    }

    #[test]
    fn lane_folds_match_sequential() {
        for n in 0..20 {
            let v: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 5.0) * 3.7).collect();
            if n == 0 {
                continue;
            }
            let smax = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let smin = v.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(fold_max(&v).to_bits(), smax.to_bits(), "n={n}");
            assert_eq!(fold_min(&v).to_bits(), smin.to_bits(), "n={n}");
        }
    }

    #[test]
    fn parallel_matches_single_thread_bitwise() {
        // Many nets of varying degree, some degenerate.
        let n = 200;
        let positions: Vec<Point> = (0..n)
            .map(|i| Point::new((i * 7 % 83) as f64 + 0.25, (i * 13 % 97) as f64 + 0.5))
            .collect();
        let mut nets = Vec::new();
        for i in 0..n {
            let d = 2 + (i % 5);
            let pins = (0..d)
                .map(|j| ModelPin::movable((i + j * 17) % n, Point::new(j as f64 * 0.1, 0.0)))
                .collect();
            nets.push(ModelNet { weight: 1.0 + (i % 3) as f64, pins });
        }
        nets.push(ModelNet { weight: 5.0, pins: vec![ModelPin::movable(0, Point::ORIGIN)] });
        let model = Model::from_parts(
            positions,
            vec![(1.0, 1.0); n],
            vec![1.0; n],
            vec![false; n],
            vec![None; n],
            &nets,
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        );
        for which in [WirelengthModel::Lse, WirelengthModel::Wa] {
            let mut scratch = WlScratch::new();
            let mut base_gx = vec![0.0; n];
            let mut base_gy = vec![0.0; n];
            let base = smooth_wl_grad_par(
                &model, which, 2.0, &mut base_gx, &mut base_gy, &mut scratch,
                &Parallelism::single(),
            );
            for threads in [2, 8] {
                let mut gx = vec![0.0; n];
                let mut gy = vec![0.0; n];
                let wl = smooth_wl_grad_par(
                    &model, which, 2.0, &mut gx, &mut gy, &mut scratch,
                    &Parallelism::new(threads),
                );
                assert_eq!(wl.to_bits(), base.to_bits(), "{which:?} threads={threads}");
                for i in 0..n {
                    assert_eq!(gx[i].to_bits(), base_gx[i].to_bits(), "{which:?} t={threads} i={i}");
                    assert_eq!(gy[i].to_bits(), base_gy[i].to_bits(), "{which:?} t={threads} i={i}");
                }
            }
        }
    }
}
