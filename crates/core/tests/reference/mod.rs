//! Reference (pre-SoA) kernel implementations, kept as a bitwise oracle
//! for the layout-equivalence tests.
//!
//! Before the CSR/SoA layout refactor, the model stored positions as a
//! `Vec<Point>` and nets as per-net `Vec` of pins; the wirelength and
//! density kernels walked that pointer-rich representation. This module
//! preserves those kernels *verbatim* (modulo the type names) against a
//! [`RefModel`] converted from the current [`Model`], and a [`RefGrid`]
//! snapshot of a production bin grid, so the tests can prove the flat-array
//! kernels produce **bitwise identical** HPWL, wirelength and gradients.

use rdp_core::density::{BinGrid, DensityField, DensityStats};
use rdp_core::model::{Model, FIXED_PIN};
use rdp_core::wirelength::WirelengthModel;
use rdp_geom::parallel::{chunk_spans, chunked_map, Parallelism};
use rdp_geom::{Point, Rect};

/// Nets per chunk — must match the production kernel's constant so chunk
/// boundaries (and thus merge order) agree.
const NET_CHUNK: usize = 256;
/// Members per chunk — likewise.
const MEMBER_CHUNK: usize = 512;

/// Pin of a [`RefNet`]: the pre-refactor AoS representation.
#[derive(Debug, Clone, Copy)]
pub struct RefPin {
    /// Carrying object, or `None` for a fixed anchor.
    pub obj: Option<u32>,
    /// Center-relative offset (movable) or absolute position (fixed).
    pub offset: Point,
}

impl RefPin {
    #[inline]
    fn position(&self, pos: &[Point]) -> Point {
        match self.obj {
            Some(o) => pos[o as usize] + self.offset,
            None => self.offset,
        }
    }
}

/// Net over [`RefPin`]s.
#[derive(Debug, Clone)]
pub struct RefNet {
    /// Net weight.
    pub weight: f64,
    /// The pins, in model pin order.
    pub pins: Vec<RefPin>,
}

/// The pre-refactor array-of-structs model view.
#[derive(Debug, Clone)]
pub struct RefModel {
    /// Object centers.
    pub pos: Vec<Point>,
    /// Physical (width, height) per object.
    pub size: Vec<(f64, f64)>,
    /// Density area per object.
    pub area: Vec<f64>,
    /// Nets.
    pub nets: Vec<RefNet>,
}

impl RefModel {
    /// Converts the flat-layout model into the historical representation.
    pub fn from_model(m: &Model) -> Self {
        let nets = (0..m.num_nets())
            .map(|ni| RefNet {
                weight: m.net_weight[ni],
                pins: m
                    .net_pins(ni)
                    .map(|k| RefPin {
                        obj: (m.pin_obj[k] != FIXED_PIN).then_some(m.pin_obj[k]),
                        offset: Point::new(m.pin_off_x[k], m.pin_off_y[k]),
                    })
                    .collect(),
            })
            .collect();
        RefModel {
            pos: m.positions(),
            size: m.size.clone(),
            area: m.area.clone(),
            nets,
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Exact HPWL — the historical implementation.
    pub fn hpwl(&self) -> f64 {
        self.nets
            .iter()
            .map(|net| {
                let mut bb = Rect::empty();
                for p in &net.pins {
                    bb.expand_to(p.position(&self.pos));
                }
                if net.pins.is_empty() {
                    0.0
                } else {
                    bb.half_perimeter()
                }
            })
            .sum()
    }
}

fn lse_axis(coords: &[f64], gamma: f64, pin_grad: &mut [f64]) -> f64 {
    let max = coords.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = coords.iter().copied().fold(f64::INFINITY, f64::min);
    let mut s_max = 0.0;
    let mut s_min = 0.0;
    for &x in coords {
        s_max += ((x - max) / gamma).exp();
        s_min += ((min - x) / gamma).exp();
    }
    for (g, &x) in pin_grad.iter_mut().zip(coords) {
        *g = ((x - max) / gamma).exp() / s_max - ((min - x) / gamma).exp() / s_min;
    }
    gamma * s_max.ln() + max + gamma * s_min.ln() - min
}

fn wa_axis(coords: &[f64], gamma: f64, pin_grad: &mut [f64]) -> f64 {
    let max = coords.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = coords.iter().copied().fold(f64::INFINITY, f64::min);
    let (mut s_p, mut t_p, mut s_m, mut t_m) = (0.0, 0.0, 0.0, 0.0);
    for &x in coords {
        let ep = ((x - max) / gamma).exp();
        let em = ((min - x) / gamma).exp();
        s_p += ep;
        t_p += x * ep;
        s_m += em;
        t_m += x * em;
    }
    let f_max = t_p / s_p;
    let f_min = t_m / s_m;
    for (g, &x) in pin_grad.iter_mut().zip(coords) {
        let ep = ((x - max) / gamma).exp();
        let em = ((min - x) / gamma).exp();
        let d_max = ep / s_p * (1.0 + (x - f_max) / gamma);
        let d_min = em / s_m * (1.0 - (x - f_min) / gamma);
        *g = d_max - d_min;
    }
    f_max - f_min
}

struct ChunkPartial {
    net_totals: Vec<f64>,
    contribs: Vec<(u32, f64, f64)>,
}

fn eval_net_span(
    model: &RefModel,
    which: WirelengthModel,
    gamma: f64,
    span: std::ops::Range<usize>,
) -> ChunkPartial {
    let mut out = ChunkPartial {
        net_totals: Vec::with_capacity(span.len()),
        contribs: Vec::new(),
    };
    let mut xs: Vec<f64> = Vec::with_capacity(16);
    let mut ys: Vec<f64> = Vec::with_capacity(16);
    let mut gx: Vec<f64> = Vec::with_capacity(16);
    let mut gy: Vec<f64> = Vec::with_capacity(16);
    for net in &model.nets[span] {
        if net.pins.len() < 2 {
            continue;
        }
        xs.clear();
        ys.clear();
        for p in &net.pins {
            let pos = p.position(&model.pos);
            xs.push(pos.x);
            ys.push(pos.y);
        }
        gx.resize(xs.len(), 0.0);
        gy.resize(ys.len(), 0.0);
        let (wx, wy) = match which {
            WirelengthModel::Lse => (
                lse_axis(&xs, gamma, &mut gx),
                lse_axis(&ys, gamma, &mut gy),
            ),
            WirelengthModel::Wa => (
                wa_axis(&xs, gamma, &mut gx),
                wa_axis(&ys, gamma, &mut gy),
            ),
        };
        out.net_totals.push(net.weight * (wx + wy));
        for (k, p) in net.pins.iter().enumerate() {
            if let Some(o) = p.obj {
                out.contribs.push((o, net.weight * gx[k], net.weight * gy[k]));
            }
        }
    }
    out
}

/// The historical smooth-wirelength gradient: chunked over nets, partial
/// results merged in net order, scattered into `grad`.
pub fn ref_smooth_wl_grad_par(
    model: &RefModel,
    which: WirelengthModel,
    gamma: f64,
    grad: &mut [Point],
    par: &Parallelism,
) -> f64 {
    assert_eq!(grad.len(), model.len(), "gradient buffer size mismatch");
    let spans: Vec<_> = chunk_spans(model.nets.len(), NET_CHUNK).collect();
    let partials = chunked_map(par, spans.len(), |ci| {
        eval_net_span(model, which, gamma, spans[ci].clone())
    });
    let mut total = 0.0;
    for part in &partials {
        for &t in &part.net_totals {
            total += t;
        }
        for &(o, dx, dy) in &part.contribs {
            let g = &mut grad[o as usize];
            g.x += dx;
            g.y += dy;
        }
    }
    total
}

/// The C¹ bell kernel of NTUplace: 1 at the object center, quadratic
/// falloff to zero at `w/2 + 2·bin` from the center.
fn bell(d: f64, w: f64, bw: f64) -> f64 {
    let d1 = w / 2.0 + bw;
    let d2 = w / 2.0 + 2.0 * bw;
    if d <= d1 {
        let a = 4.0 / ((w + 2.0 * bw) * (w + 4.0 * bw));
        1.0 - a * d * d
    } else if d <= d2 {
        let b = 2.0 / (bw * (w + 4.0 * bw));
        b * (d - d2) * (d - d2)
    } else {
        0.0
    }
}

/// Derivative of [`bell`] with respect to `d` (for `d ≥ 0`).
fn bell_grad(d: f64, w: f64, bw: f64) -> f64 {
    let d1 = w / 2.0 + bw;
    let d2 = w / 2.0 + 2.0 * bw;
    if d <= d1 {
        let a = 4.0 / ((w + 2.0 * bw) * (w + 4.0 * bw));
        -2.0 * a * d
    } else if d <= d2 {
        let b = 2.0 / (bw * (w + 4.0 * bw));
        2.0 * b * (d - d2)
    } else {
        0.0
    }
}

/// The historical bin grid: geometry, capacities and targets copied from
/// a production [`BinGrid`], plus the density scratch.
#[derive(Debug, Clone)]
pub struct RefGrid {
    nx: usize,
    ny: usize,
    origin: Point,
    bin_w: f64,
    bin_h: f64,
    capacity: Vec<f64>,
    target: Vec<f64>,
    density: Vec<f64>,
}

impl RefGrid {
    /// Snapshot of a production grid.
    pub fn from_grid(g: &BinGrid) -> Self {
        let (nx, ny) = g.dims();
        RefGrid {
            nx,
            ny,
            origin: g.origin(),
            bin_w: g.bin_w(),
            bin_h: g.bin_h(),
            capacity: g.capacity().to_vec(),
            target: g.target().to_vec(),
            density: vec![0.0; nx * ny],
        }
    }

    fn x_range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let a = ((lo - self.origin.x) / self.bin_w).floor().max(0.0) as usize;
        let b = ((hi - self.origin.x) / self.bin_w).floor().max(0.0) as usize;
        (a.min(self.nx - 1), b.min(self.nx - 1))
    }

    fn y_range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let a = ((lo - self.origin.y) / self.bin_h).floor().max(0.0) as usize;
        let b = ((hi - self.origin.y) / self.bin_h).floor().max(0.0) as usize;
        (a.min(self.ny - 1), b.min(self.ny - 1))
    }

    fn bin_center(&self, bx: usize, by: usize) -> Point {
        Point::new(
            self.origin.x + (bx as f64 + 0.5) * self.bin_w,
            self.origin.y + (by as f64 + 0.5) * self.bin_h,
        )
    }
}

fn rasterize_span(
    g: &RefGrid,
    model: &RefModel,
    members: &[u32],
    span: std::ops::Range<usize>,
) -> (Vec<f64>, Vec<(u32, f64)>) {
    let mut scales = vec![0.0f64; span.len()];
    let mut deposits: Vec<(u32, f64)> = Vec::new();
    for (si, &oi) in members[span].iter().enumerate() {
        let o = oi as usize;
        let (w, h) = model.size[o];
        let c = model.pos[o];
        let rx = w / 2.0 + 2.0 * g.bin_w;
        let ry = h / 2.0 + 2.0 * g.bin_h;
        let (x0, x1) = g.x_range(c.x - rx, c.x + rx);
        let (y0, y1) = g.y_range(c.y - ry, c.y + ry);
        let mut sum = 0.0;
        for by in y0..=y1 {
            let py = bell((c.y - g.bin_center(x0, by).y).abs(), h, g.bin_h);
            if py == 0.0 {
                continue;
            }
            for bx in x0..=x1 {
                let px = bell((c.x - g.bin_center(bx, by).x).abs(), w, g.bin_w);
                sum += px * py;
            }
        }
        if sum <= 0.0 {
            continue;
        }
        let scale = model.area[o] / sum;
        scales[si] = scale;
        for by in y0..=y1 {
            let py = bell((c.y - g.bin_center(x0, by).y).abs(), h, g.bin_h);
            if py == 0.0 {
                continue;
            }
            for bx in x0..=x1 {
                let px = bell((c.x - g.bin_center(bx, by).x).abs(), w, g.bin_w);
                deposits.push(((by * g.nx + bx) as u32, scale * px * py));
            }
        }
    }
    (scales, deposits)
}

fn gradient_span(
    g: &RefGrid,
    model: &RefModel,
    members: &[u32],
    scales: &[f64],
    residual: &[f64],
    span: std::ops::Range<usize>,
) -> Vec<Point> {
    let mut out = vec![Point::ORIGIN; span.len()];
    for (si, &oi) in members[span.clone()].iter().enumerate() {
        let o = oi as usize;
        let scale = scales[span.start + si];
        if scale == 0.0 {
            continue;
        }
        let (w, h) = model.size[o];
        let c = model.pos[o];
        let rx = w / 2.0 + 2.0 * g.bin_w;
        let ry = h / 2.0 + 2.0 * g.bin_h;
        let (x0, x1) = g.x_range(c.x - rx, c.x + rx);
        let (y0, y1) = g.y_range(c.y - ry, c.y + ry);
        let mut gx = 0.0;
        let mut gy = 0.0;
        for by in y0..=y1 {
            let dyv = c.y - g.bin_center(x0, by).y;
            let py = bell(dyv.abs(), h, g.bin_h);
            let dpy = bell_grad(dyv.abs(), h, g.bin_h) * dyv.signum();
            if py == 0.0 && dpy == 0.0 {
                continue;
            }
            for bx in x0..=x1 {
                let dxv = c.x - g.bin_center(bx, by).x;
                let px = bell(dxv.abs(), w, g.bin_w);
                let dpx = bell_grad(dxv.abs(), w, g.bin_w) * dxv.signum();
                let r = residual[by * g.nx + bx];
                if r == 0.0 {
                    continue;
                }
                gx += r * scale * dpx * py;
                gy += r * scale * px * dpy;
            }
        }
        out[si] = Point::new(gx, gy);
    }
    out
}

/// The historical density field: a snapshot bin grid plus member list.
#[derive(Debug, Clone)]
pub struct RefDensityField {
    /// The bins (identical geometry, capacities and targets to the
    /// production field's).
    pub grid: RefGrid,
    /// Member object indices.
    pub members: Vec<u32>,
}

impl RefDensityField {
    /// Snapshot of a production field.
    pub fn from_field(f: &DensityField) -> Self {
        RefDensityField {
            grid: RefGrid::from_grid(&f.grid),
            members: f.members.clone(),
        }
    }

    /// The historical density penalty + gradient: rasterize chunks in
    /// parallel, deposit sequentially in member order, sequential residual
    /// pass, chunked gradient read-back merged in member order.
    pub fn penalty_grad_par(
        &mut self,
        model: &RefModel,
        grad: &mut [Point],
        par: &Parallelism,
    ) -> DensityStats {
        let g = &mut self.grid;
        g.density.iter_mut().for_each(|d| *d = 0.0);
        let spans: Vec<_> = chunk_spans(self.members.len(), MEMBER_CHUNK).collect();

        let mut scales = vec![0.0f64; self.members.len()];
        {
            let g_ro: &RefGrid = g;
            let members: &[u32] = &self.members;
            let partials = chunked_map(par, spans.len(), |ci| {
                rasterize_span(g_ro, model, members, spans[ci].clone())
            });
            for (span, (chunk_scales, deposits)) in spans.iter().zip(&partials) {
                scales[span.clone()].copy_from_slice(chunk_scales);
                for &(bin, amount) in deposits {
                    g.density[bin as usize] += amount;
                }
            }
        }

        let mut stats = DensityStats::default();
        let mut residual = vec![0.0f64; g.density.len()];
        for (i, r) in residual.iter_mut().enumerate() {
            let over = (g.density[i] - g.target[i]).max(0.0);
            stats.penalty += over * over;
            *r = 2.0 * over;
            stats.overflow_area += (g.density[i] - g.capacity[i]).max(0.0);
            if g.capacity[i] > 1e-12 {
                stats.max_ratio = stats.max_ratio.max(g.density[i] / g.capacity[i]);
            }
        }

        {
            let g_ro: &RefGrid = g;
            let members: &[u32] = &self.members;
            let scales_ro: &[f64] = &scales;
            let residual_ro: &[f64] = &residual;
            let partials = chunked_map(par, spans.len(), |ci| {
                gradient_span(g_ro, model, members, scales_ro, residual_ro, spans[ci].clone())
            });
            for (span, chunk_grad) in spans.iter().zip(&partials) {
                for (si, gp) in chunk_grad.iter().enumerate() {
                    let o = self.members[span.start + si] as usize;
                    grad[o].x += gp.x;
                    grad[o].y += gp.y;
                }
            }
        }
        stats
    }
}
