//! Bell-shaped density model (the NTUplace smoothing) with analytic
//! gradients, including per-fence density fields for hierarchical designs.
//!
//! Every object spreads its (possibly inflated) area over nearby bins with
//! a C¹ bell-shaped kernel; the penalty is the squared per-bin overflow
//! against a target capacity. Fixed nodes and — for the unfenced field —
//! fence interiors enter as blocked base area, and each fence region gets
//! its *own* field whose bins only cover the fence: this is the
//! "region-aware density" that lets one optimizer pass handle hierarchical
//! designs.
//!
//! # Kernel structure (million-cell hot path)
//!
//! The bell kernel is separable: the deposit into bin `(bx, by)` is
//! `scale · px(bx) · py(by)` where `px` depends only on the bin column and
//! `py` only on the row. One evaluation therefore runs in four passes over
//! reusable scratch (no per-iteration allocation):
//!
//! 1. **Ranges** — each member's touched bin window, in parallel chunks;
//! 2. **Bell caches** — per-member `px`/`py` factor arrays (CSR layout)
//!    and the normalization scale, in parallel chunks. Caching the factors
//!    cuts `bell` evaluations from O(window²) to O(window) per member and
//!    feeds passes 3–4 with bitwise-identical values;
//! 3. **Deposits** — the density grid is split into disjoint *row bands*;
//!    each band deposits the members touching it in ascending member
//!    order, so every bin receives its contributions in exactly the
//!    historical sequential order while bands run concurrently;
//! 4. **Gradients** — per-member chain-rule read-back in parallel chunks,
//!    then a sequential member-order scatter into the object gradient.
//!
//! The penalty/residual reduction between passes 3 and 4 stays sequential
//! so its rounding order is trivially canonical. The pre-refactor kernel
//! survives as a test oracle in `tests/reference/`; the layout-equivalence
//! tests pin bitwise equality.

use crate::model::Model;
use rdp_geom::parallel::{chunk_spans, split_at_spans};
use rdp_geom::{Point, Rect};

/// Member objects per parallel work chunk. Fixed (never derived from the
/// thread count) so deposit order — and therefore floating-point rounding —
/// is identical at every parallelism level.
const MEMBER_CHUNK: usize = 512;

/// Bin rows per deposit band. Fixed so band boundaries depend only on the
/// grid size; the partition never affects values (each bin lies in exactly
/// one band), only parallelism.
const BAND_ROWS: usize = 4;

/// The C¹ bell kernel of NTUplace: 1 at the object center, quadratic
/// falloff to zero at `w/2 + 2·bin` from the center.
#[inline]
pub(crate) fn bell(d: f64, w: f64, bw: f64) -> f64 {
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
#[inline]
pub(crate) fn bell_grad(d: f64, w: f64, bw: f64) -> f64 {
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

/// Aggregate density diagnostics of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DensityStats {
    /// Σ max(0, D_b − T_b)² — the penalty value the optimizer scales by λ.
    pub penalty: f64,
    /// Σ max(0, D_b − C_b) against raw capacity — the *overflow area*.
    pub overflow_area: f64,
    /// Largest D_b / C_b over bins with capacity.
    pub max_ratio: f64,
}

/// A rectangular bin grid with capacities carved down by blocked area.
#[derive(Debug, Clone)]
pub struct BinGrid {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) origin: Point,
    pub(crate) bin_w: f64,
    pub(crate) bin_h: f64,
    /// Free capacity per bin (bin area minus blocked area).
    pub(crate) capacity: Vec<f64>,
    /// Target per bin = capacity × target density.
    pub(crate) target: Vec<f64>,
    /// Scratch: spread movable density.
    pub(crate) density: Vec<f64>,
}

impl BinGrid {
    /// Creates an `nx × ny` grid over `area` with the given target density.
    pub fn new(area: Rect, nx: usize, ny: usize, target_density: f64) -> Self {
        let nx = nx.max(1);
        let ny = ny.max(1);
        let bin_w = area.width() / nx as f64;
        let bin_h = area.height() / ny as f64;
        let cap = bin_w * bin_h;
        BinGrid {
            nx,
            ny,
            origin: Point::new(area.xl, area.yl),
            bin_w,
            bin_h,
            capacity: vec![cap; nx * ny],
            target: vec![cap * target_density; nx * ny],
            density: vec![0.0; nx * ny],
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// Whether the grid has no bins.
    pub fn is_empty(&self) -> bool {
        self.capacity.is_empty()
    }

    /// Bin width.
    pub fn bin_w(&self) -> f64 {
        self.bin_w
    }

    /// Bin height.
    pub fn bin_h(&self) -> f64 {
        self.bin_h
    }

    /// Bins along x and along y.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Lower-left corner of bin `(0, 0)`.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Free capacity per bin, row-major.
    pub fn capacity(&self) -> &[f64] {
        &self.capacity
    }

    /// Target per bin (capacity × target density), row-major.
    pub fn target(&self) -> &[f64] {
        &self.target
    }

    /// Removes `occupancy` (0..=1) of the overlap of `rect` with each bin
    /// from that bin's capacity (and scales its target accordingly).
    pub fn block_rect(&mut self, rect: Rect, occupancy: f64, target_density: f64) {
        let (x0, x1) = self.x_range(rect.xl, rect.xh);
        let (y0, y1) = self.y_range(rect.yl, rect.yh);
        for by in y0..=y1 {
            for bx in x0..=x1 {
                let bin = self.bin_rect(bx, by);
                let ov = bin.overlap_area(rect) * occupancy;
                let idx = by * self.nx + bx;
                self.capacity[idx] = (self.capacity[idx] - ov).max(0.0);
                self.target[idx] = self.capacity[idx] * target_density;
            }
        }
    }

    pub(crate) fn bin_rect(&self, bx: usize, by: usize) -> Rect {
        let xl = self.origin.x + bx as f64 * self.bin_w;
        let yl = self.origin.y + by as f64 * self.bin_h;
        Rect::new(xl, yl, xl + self.bin_w, yl + self.bin_h)
    }

    pub(crate) fn x_range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let a = ((lo - self.origin.x) / self.bin_w).floor().max(0.0) as usize;
        let b = ((hi - self.origin.x) / self.bin_w).floor().max(0.0) as usize;
        (a.min(self.nx - 1), b.min(self.nx - 1))
    }

    pub(crate) fn y_range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let a = ((lo - self.origin.y) / self.bin_h).floor().max(0.0) as usize;
        let b = ((hi - self.origin.y) / self.bin_h).floor().max(0.0) as usize;
        (a.min(self.ny - 1), b.min(self.ny - 1))
    }

    /// Total free capacity.
    pub fn total_capacity(&self) -> f64 {
        self.capacity.iter().sum()
    }
}

/// Reusable evaluation scratch of a [`DensityField`]: member bin windows,
/// separable bell caches (CSR over members), band buckets, residuals and
/// per-member gradients. All buffers persist across optimizer iterations.
#[derive(Debug, Clone, Default)]
pub(crate) struct DensityScratch {
    /// Member chunk spans (rebuilt when the member count changes).
    spans: Vec<std::ops::Range<usize>>,
    /// Per member: touched bin window (x0, x1, y0, y1), inclusive.
    ranges: Vec<(u32, u32, u32, u32)>,
    /// Per member: normalization scale (0 ⇒ deposits nothing).
    scales: Vec<f64>,
    /// CSR starts into `px` (window columns per member).
    px_start: Vec<u32>,
    /// Cached x-axis bell factors.
    px: Vec<f64>,
    /// CSR starts into `py` (window rows per member).
    py_start: Vec<u32>,
    /// Cached y-axis bell factors.
    py: Vec<f64>,
    /// Per-bin penalty residual `2·max(0, D − T)`.
    residual: Vec<f64>,
    /// Per deposit band: member slots touching it, ascending.
    band_members: Vec<Vec<u32>>,
    /// Per-member gradient accumulators.
    member_gx: Vec<f64>,
    member_gy: Vec<f64>,
}

/// One window-pass work item: the member span plus its disjoint range
/// output slice.
pub(crate) type WindowPart<'a> = (std::ops::Range<usize>, &'a mut [(u32, u32, u32, u32)]);

/// One bell-cache work item: member span plus its disjoint `px`/`py`/scale
/// output slices.
pub(crate) type BellPart<'a> = (std::ops::Range<usize>, &'a mut [f64], &'a mut [f64], &'a mut [f64]);

/// The bell-cache stage: its work items plus the (shared) window table the
/// bodies read. Both borrow disjoint fields of one [`DensityScratch`].
pub(crate) struct BellStage<'a> {
    pub(crate) parts: Vec<BellPart<'a>>,
    pub(crate) ranges: &'a [(u32, u32, u32, u32)],
}

/// Shared immutable inputs of the deposit pass (pass 3).
pub(crate) struct DepositCtx<'a> {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) ranges: &'a [(u32, u32, u32, u32)],
    pub(crate) scales: &'a [f64],
    pub(crate) px_start: &'a [u32],
    pub(crate) py_start: &'a [u32],
    pub(crate) px: &'a [f64],
    pub(crate) py: &'a [f64],
    pub(crate) band_members: &'a [Vec<u32>],
}

/// Shared immutable inputs of the chain-rule pass (pass 4), plus its work
/// items (disjoint per-member gradient slices).
pub(crate) struct ChainStage<'a> {
    pub(crate) parts: Vec<(std::ops::Range<usize>, &'a mut [f64], &'a mut [f64])>,
    pub(crate) ranges: &'a [(u32, u32, u32, u32)],
    pub(crate) scales: &'a [f64],
    pub(crate) px_start: &'a [u32],
    pub(crate) py_start: &'a [u32],
    pub(crate) px: &'a [f64],
    pub(crate) py: &'a [f64],
    pub(crate) residual: &'a [f64],
}

/// The deposit-band spans of an `nx × ny` grid: fixed [`BAND_ROWS`]-row
/// bands whose boundaries depend only on the grid size.
pub(crate) fn band_spans(nx: usize, ny: usize) -> Vec<std::ops::Range<usize>> {
    (0..ny.div_ceil(BAND_ROWS))
        .map(|b| b * BAND_ROWS * nx..((b + 1) * BAND_ROWS).min(ny) * nx)
        .collect()
}

impl DensityScratch {
    /// Resizes every per-member buffer for `n` members (spans rebuilt only
    /// when the member count changed).
    pub(crate) fn prepare(&mut self, n: usize) {
        if self.spans.last().map_or(0, |s| s.end) != n {
            self.spans = chunk_spans(n, MEMBER_CHUNK).collect();
        }
        self.ranges.resize(n, (0, 0, 0, 0));
        self.scales.resize(n, 0.0);
        self.member_gx.resize(n, 0.0);
        self.member_gy.resize(n, 0.0);
    }

    /// Window-pass work items (pass 1).
    pub(crate) fn window_parts(&mut self) -> Vec<WindowPart<'_>> {
        split_at_spans(&mut self.ranges, &self.spans)
            .into_iter()
            .zip(self.spans.iter().cloned())
            .map(|(out, span)| (span, out))
            .collect()
    }

    /// CSR starts for the bell caches plus band buckets — sequential
    /// (prefix sums and ordered pushes). Must run after pass 1 filled
    /// `ranges`.
    pub(crate) fn bucket_and_csr(&mut self, ny: usize) {
        let num_bands = ny.div_ceil(BAND_ROWS);
        self.band_members.resize(num_bands, Vec::new());
        for b in &mut self.band_members {
            b.clear();
        }
        self.px_start.clear();
        self.py_start.clear();
        self.px_start.push(0);
        self.py_start.push(0);
        let (mut px_len, mut py_len) = (0u32, 0u32);
        for (si, &(x0, x1, y0, y1)) in self.ranges.iter().enumerate() {
            px_len += x1 - x0 + 1;
            py_len += y1 - y0 + 1;
            self.px_start.push(px_len);
            self.py_start.push(py_len);
            for band in (y0 as usize / BAND_ROWS)..=(y1 as usize / BAND_ROWS) {
                self.band_members[band].push(si as u32);
            }
        }
        self.px.resize(px_len as usize, 0.0);
        self.py.resize(py_len as usize, 0.0);
    }

    /// Bell-cache work items plus the window table (pass 2).
    pub(crate) fn bell_stage(&mut self) -> BellStage<'_> {
        let px_spans: Vec<_> = self
            .spans
            .iter()
            .map(|s| self.px_start[s.start] as usize..self.px_start[s.end] as usize)
            .collect();
        let py_spans: Vec<_> = self
            .spans
            .iter()
            .map(|s| self.py_start[s.start] as usize..self.py_start[s.end] as usize)
            .collect();
        let px_parts = split_at_spans(&mut self.px, &px_spans);
        let py_parts = split_at_spans(&mut self.py, &py_spans);
        let scale_parts = split_at_spans(&mut self.scales, &self.spans);
        let parts = self
            .spans
            .iter()
            .cloned()
            .zip(px_parts)
            .zip(py_parts)
            .zip(scale_parts)
            .map(|(((span, px), py), sc)| (span, px, py, sc))
            .collect();
        BellStage { parts, ranges: &self.ranges }
    }

    /// Deposit-pass shared inputs (pass 3).
    pub(crate) fn deposit_ctx(&self, nx: usize, ny: usize) -> DepositCtx<'_> {
        DepositCtx {
            nx,
            ny,
            ranges: &self.ranges,
            scales: &self.scales,
            px_start: &self.px_start,
            py_start: &self.py_start,
            px: &self.px,
            py: &self.py,
            band_members: &self.band_members,
        }
    }

    /// Chain-rule work items plus shared inputs (pass 4).
    pub(crate) fn chain_stage(&mut self) -> ChainStage<'_> {
        let gx_parts = split_at_spans(&mut self.member_gx, &self.spans);
        let gy_parts = split_at_spans(&mut self.member_gy, &self.spans);
        let parts = self
            .spans
            .iter()
            .cloned()
            .zip(gx_parts)
            .zip(gy_parts)
            .map(|((span, gx), gy)| (span, gx, gy))
            .collect();
        ChainStage {
            parts,
            ranges: &self.ranges,
            scales: &self.scales,
            px_start: &self.px_start,
            py_start: &self.py_start,
            px: &self.px,
            py: &self.py,
            residual: &self.residual,
        }
    }

    /// The per-member gradients written by pass 4.
    pub(crate) fn member_grads(&self) -> (&[f64], &[f64]) {
        (&self.member_gx, &self.member_gy)
    }

    /// The sequential penalty/residual reduction between passes 3 and 4
    /// over the filled density slab (canonical bin-order rounding).
    pub(crate) fn reduce(&mut self, grid: &BinGrid) -> DensityStats {
        let mut stats = DensityStats::default();
        self.residual.resize(grid.density.len(), 0.0);
        for (i, r) in self.residual.iter_mut().enumerate() {
            let over = (grid.density[i] - grid.target[i]).max(0.0);
            stats.penalty += over * over;
            *r = 2.0 * over;
            stats.overflow_area += (grid.density[i] - grid.capacity[i]).max(0.0);
            if grid.capacity[i] > 1e-12 {
                stats.max_ratio = stats.max_ratio.max(grid.density[i] / grid.capacity[i]);
            }
        }
        stats
    }
}

/// Pass-1 body: each member's touched bin window (bell support inflated by
/// two bins per side).
pub(crate) fn den_window_body(
    model: &Model,
    members: &[u32],
    grid: &BinGrid,
    part: &mut WindowPart<'_>,
) {
    let (span, out) = part;
    let (bin_w, bin_h) = (grid.bin_w, grid.bin_h);
    for (slot, &oi) in out.iter_mut().zip(&members[span.clone()]) {
        let o = oi as usize;
        let (w, h) = model.size[o];
        let (cx, cy) = (model.pos_x[o], model.pos_y[o]);
        let rx = w / 2.0 + 2.0 * bin_w;
        let ry = h / 2.0 + 2.0 * bin_h;
        let (x0, x1) = grid.x_range(cx - rx, cx + rx);
        let (y0, y1) = grid.y_range(cy - ry, cy + ry);
        *slot = (x0 as u32, x1 as u32, y0 as u32, y1 as u32);
    }
}

/// Pass-2 body: per-member separable bell factor caches plus the
/// normalization scale, with the deposit sum in historical row-major order.
pub(crate) fn den_bell_body(
    model: &Model,
    members: &[u32],
    ranges: &[(u32, u32, u32, u32)],
    grid: &BinGrid,
    part: &mut BellPart<'_>,
) {
    let (span, px_out, py_out, sc_out) = part;
    let (bin_w, bin_h) = (grid.bin_w, grid.bin_h);
    let origin = grid.origin;
    let bin_center_x = |bx: usize| origin.x + (bx as f64 + 0.5) * bin_w;
    let bin_center_y = |by: usize| origin.y + (by as f64 + 0.5) * bin_h;
    let (mut px_off, mut py_off) = (0usize, 0usize);
    for (j, si) in span.clone().enumerate() {
        let o = members[si] as usize;
        let (w, h) = model.size[o];
        let (cx, cy) = (model.pos_x[o], model.pos_y[o]);
        let (x0, x1, y0, y1) = ranges[si];
        let (x0, x1) = (x0 as usize, x1 as usize);
        let (y0, y1) = (y0 as usize, y1 as usize);
        let pxs = &mut px_out[px_off..px_off + (x1 - x0 + 1)];
        let pys = &mut py_out[py_off..py_off + (y1 - y0 + 1)];
        px_off += pxs.len();
        py_off += pys.len();
        for (v, bx) in pxs.iter_mut().zip(x0..=x1) {
            *v = bell((cx - bin_center_x(bx)).abs(), w, bin_w);
        }
        for (v, by) in pys.iter_mut().zip(y0..=y1) {
            *v = bell((cy - bin_center_y(by)).abs(), h, bin_h);
        }
        let mut sum = 0.0;
        for &py in pys.iter() {
            if py == 0.0 {
                continue;
            }
            for &px in pxs.iter() {
                sum += px * py;
            }
        }
        sc_out[j] = if sum <= 0.0 { 0.0 } else { model.area[o] / sum };
    }
}

/// Pass-3 body: deposits one disjoint row band, members in ascending order
/// — every bin accumulates its contributions in the historical
/// member-major sequence.
pub(crate) fn den_deposit_body(ctx: &DepositCtx<'_>, band: usize, density: &mut [f64]) {
    let row_lo = band * BAND_ROWS;
    let row_hi = ((band + 1) * BAND_ROWS).min(ctx.ny); // exclusive
    for &si32 in &ctx.band_members[band] {
        let si = si32 as usize;
        let scale = ctx.scales[si];
        if scale == 0.0 {
            continue;
        }
        let (x0, x1, y0, y1) = ctx.ranges[si];
        let (x0, x1) = (x0 as usize, x1 as usize);
        let (y0, y1) = (y0 as usize, y1 as usize);
        let pxs = &ctx.px[ctx.px_start[si] as usize..ctx.px_start[si + 1] as usize];
        let pys = &ctx.py[ctx.py_start[si] as usize..ctx.py_start[si + 1] as usize];
        for by in y0.max(row_lo)..=(y1.min(row_hi - 1)) {
            let py = pys[by - y0];
            if py == 0.0 {
                continue;
            }
            let row = &mut density[(by - row_lo) * ctx.nx..];
            for (bx, &px) in (x0..=x1).zip(pxs) {
                row[bx] += scale * px * py;
            }
        }
    }
}

/// Pass-4 body: chain-rule read-back of one member chunk into its disjoint
/// per-member gradient slices. `dpx_row` is per-worker scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn den_chain_body(
    model: &Model,
    members: &[u32],
    grid: &BinGrid,
    ctx: &ChainStage<'_>,
    dpx_row: &mut Vec<f64>,
    span: std::ops::Range<usize>,
    gx_out: &mut [f64],
    gy_out: &mut [f64],
) {
    let nx = grid.nx;
    let (bin_w, bin_h) = (grid.bin_w, grid.bin_h);
    let origin = grid.origin;
    let bin_center_x = |bx: usize| origin.x + (bx as f64 + 0.5) * bin_w;
    let bin_center_y = |by: usize| origin.y + (by as f64 + 0.5) * bin_h;
    for (j, si) in span.enumerate() {
        let scale = ctx.scales[si];
        if scale == 0.0 {
            gx_out[j] = 0.0;
            gy_out[j] = 0.0;
            continue;
        }
        let o = members[si] as usize;
        let (w, h) = model.size[o];
        let (cx, cy) = (model.pos_x[o], model.pos_y[o]);
        let (x0, x1, y0, y1) = ctx.ranges[si];
        let (x0, x1) = (x0 as usize, x1 as usize);
        let (y0, y1) = (y0 as usize, y1 as usize);
        let pxs = &ctx.px[ctx.px_start[si] as usize..ctx.px_start[si + 1] as usize];
        let pys = &ctx.py[ctx.py_start[si] as usize..ctx.py_start[si + 1] as usize];
        // The x-axis bell gradient depends only on the column:
        // hoist it out of the row loop (same values, same
        // accumulation order — just fewer evaluations).
        dpx_row.clear();
        for bx in x0..=x1 {
            let dxv = cx - bin_center_x(bx);
            dpx_row.push(bell_grad(dxv.abs(), w, bin_w) * dxv.signum());
        }
        let mut gx = 0.0;
        let mut gy = 0.0;
        for by in y0..=y1 {
            let dyv = cy - bin_center_y(by);
            let py = pys[by - y0];
            let dpy = bell_grad(dyv.abs(), h, bin_h) * dyv.signum();
            if py == 0.0 && dpy == 0.0 {
                continue;
            }
            let row = &ctx.residual[by * nx + x0..=by * nx + x1];
            for ((&r, &px), &dpx) in row.iter().zip(pxs).zip(dpx_row.iter()) {
                if r == 0.0 {
                    continue;
                }
                gx += r * scale * dpx * py;
                gy += r * scale * px * dpy;
            }
        }
        gx_out[j] = gx;
        gy_out[j] = gy;
    }
}

/// Ordered scatter of per-member gradients into the object gradient:
/// ascending member order, one addition per member and axis (the historical
/// merge order — members that deposited nothing add an exact `0.0`).
pub(crate) fn scatter_grads(
    members: &[u32],
    member_gx: &[f64],
    member_gy: &[f64],
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) {
    for (si, &oi) in members.iter().enumerate() {
        let o = oi as usize;
        grad_x[o] += member_gx[si];
        grad_y[o] += member_gy[si];
    }
}

/// One density domain: a bin grid plus the objects it constrains.
/// [`crate::fused::fused_wl_den_grad`] evaluates its penalty and gradient.
///
/// An object whose kernel support lies fully outside the grid contributes
/// nothing (it is the fence pull-in force's job to bring it back).
#[derive(Debug, Clone)]
pub struct DensityField {
    /// The bins.
    pub grid: BinGrid,
    /// Object indices (into the model) whose density lives in this field.
    pub members: Vec<u32>,
    /// Reusable evaluation scratch.
    pub(crate) scratch: DensityScratch,
}

impl DensityField {
    /// A field over `grid` constraining `members`.
    pub fn new(grid: BinGrid, members: Vec<u32>) -> Self {
        DensityField { grid, members, scratch: DensityScratch::default() }
    }
}

/// Builds the density fields for `model`: field 0 for unfenced objects
/// (with fixed nodes and fence interiors blocked) and one field per fence
/// region restricted to the fence rects.
///
/// `blocked` lists (rect, occupancy) pairs of immovable area — fixed nodes,
/// typically. `bins` is the bin count per axis of the main field; fence
/// fields scale their bin counts to the fence bounding box.
pub fn build_fields(
    model: &Model,
    regions: &[rdp_db::Region],
    blocked: &[(Rect, f64)],
    bins: usize,
    target_density: f64,
) -> Vec<DensityField> {
    let mut fields = Vec::with_capacity(regions.len() + 1);

    // Main field: all unfenced objects.
    let mut main = BinGrid::new(model.die, bins, bins, target_density);
    for &(r, occ) in blocked {
        main.block_rect(r, occ, target_density);
    }
    for region in regions {
        for &r in region.rects() {
            main.block_rect(r, 1.0, target_density);
        }
    }
    let members: Vec<u32> = (0..model.len() as u32)
        .filter(|&i| model.region[i as usize].is_none())
        .collect();
    fields.push(DensityField::new(main, members));

    // One field per fence: bins over the fence bbox, everything outside the
    // fence rects blocked.
    for (ri, region) in regions.iter().enumerate() {
        let bbox = region.bounding_box();
        let frac = (bbox.area() / model.die.area()).sqrt().max(0.05);
        let fb = ((bins as f64 * frac).ceil() as usize).clamp(4, bins);
        let mut grid = BinGrid::new(bbox, fb, fb, target_density);
        // Block everything, then re-open the fence rects.
        // (block, then unblock is not expressible; instead block the
        // complement: iterate bins and clip against the rects.)
        for by in 0..grid.ny {
            for bx in 0..grid.nx {
                let bin = grid.bin_rect(bx, by);
                let inside: f64 = region.rects().iter().map(|r| bin.overlap_area(*r)).sum();
                let idx = by * grid.nx + bx;
                grid.capacity[idx] = inside.min(grid.capacity[idx]);
                grid.target[idx] = grid.capacity[idx] * target_density;
            }
        }
        for &(r, occ) in blocked {
            grid.block_rect(r, occ, target_density);
        }
        let members: Vec<u32> = (0..model.len() as u32)
            .filter(|&i| model.region[i as usize].map(|r| r.index()) == Some(ri))
            .collect();
        fields.push(DensityField::new(grid, members));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::fused_wl_den_grad;
    use crate::model::{ModelNet, ModelPin};
    use crate::wirelength::{WirelengthModel, WlScratch};
    use rdp_geom::parallel::Parallelism;

    fn toy_model(positions: &[(f64, f64)], size: (f64, f64)) -> Model {
        let n = positions.len();
        Model::from_parts(
            positions.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            vec![size; n],
            vec![size.0 * size.1; n],
            vec![false; n],
            vec![None; n],
            &[ModelNet {
                weight: 1.0,
                pins: vec![ModelPin::movable(0, Point::ORIGIN); 2.min(n)],
            }],
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        )
    }

    fn field_for(model: &Model, bins: usize, target: f64) -> DensityField {
        DensityField::new(
            BinGrid::new(model.die, bins, bins, target),
            (0..model.len() as u32).collect(),
        )
    }

    /// The field's penalty and gradient through the fused pass.
    fn eval_par(
        f: &mut DensityField,
        model: &Model,
        par: &Parallelism,
    ) -> (DensityStats, Vec<f64>, Vec<f64>) {
        let n = model.len();
        let (mut wx, mut wy) = (vec![0.0; n], vec![0.0; n]);
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        let (_, stats) = fused_wl_den_grad(
            model,
            WirelengthModel::Wa,
            1.0,
            std::slice::from_mut(f),
            &mut WlScratch::new(),
            &mut wx,
            &mut wy,
            &mut gx,
            &mut gy,
            par,
        );
        (stats, gx, gy)
    }

    fn eval(f: &mut DensityField, model: &Model) -> (DensityStats, Vec<f64>, Vec<f64>) {
        eval_par(f, model, &Parallelism::single())
    }

    #[test]
    fn bell_kernel_shape() {
        let (w, bw) = (4.0, 10.0);
        assert!((bell(0.0, w, bw) - 1.0).abs() < 1e-12);
        assert_eq!(bell(w / 2.0 + 2.0 * bw, w, bw), 0.0);
        assert_eq!(bell(1000.0, w, bw), 0.0);
        // Continuity at the piece boundary.
        let d1 = w / 2.0 + bw;
        assert!((bell(d1 - 1e-9, w, bw) - bell(d1 + 1e-9, w, bw)).abs() < 1e-6);
        // C1 continuity.
        assert!((bell_grad(d1 - 1e-9, w, bw) - bell_grad(d1 + 1e-9, w, bw)).abs() < 1e-6);
        // Monotone decreasing on [0, d2].
        assert!(bell(1.0, w, bw) > bell(5.0, w, bw));
        assert!(bell(5.0, w, bw) > bell(15.0, w, bw));
    }

    #[test]
    fn mass_conservation() {
        // One cell mid-grid: total deposited density equals its area.
        let model = toy_model(&[(50.0, 50.0)], (4.0, 10.0));
        let mut f = field_for(&model, 10, 1.0);
        eval(&mut f, &model);
        let total: f64 = f.grid.density.iter().sum();
        assert!((total - 40.0).abs() < 1e-9, "deposited {total}, area 40");
    }

    #[test]
    fn overcrowded_bin_pushes_cells_apart() {
        // Two cells stacked at the same point with a low target: gradients
        // must point outward (opposite x signs once perturbed).
        let model = toy_model(&[(50.0, 50.0), (51.0, 50.0)], (8.0, 10.0));
        let mut f = field_for(&model, 20, 0.2);
        let (stats, gx, _gy) = eval(&mut f, &model);
        assert!(stats.penalty > 0.0);
        // Descent direction −grad separates them.
        assert!(gx[0] > -gx[1] || gx[0] < gx[1], "degenerate gradients");
        assert!(-gx[0] < -gx[1], "left cell moves left, right cell moves right");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let model = toy_model(&[(42.0, 57.0), (47.0, 53.0)], (6.0, 10.0));
        let mut f = field_for(&model, 12, 0.3);
        let (_, gx, gy) = eval(&mut f, &model);
        let h = 1e-6;
        for i in 0..2 {
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
                let fp = eval(&mut field_for(&model, 12, 0.3), &mp).0.penalty;
                let fm = eval(&mut field_for(&model, 12, 0.3), &mm).0.penalty;
                let fd = (fp - fm) / (2.0 * h);
                let an = if axis == 0 { gx[i] } else { gy[i] };
                assert!(
                    (fd - an).abs() < 1e-3 * (1.0 + fd.abs()),
                    "obj {i} axis {axis}: fd {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn blocked_area_reduces_capacity() {
        let mut g = BinGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10, 10, 0.8);
        let before = g.total_capacity();
        g.block_rect(Rect::new(0.0, 0.0, 50.0, 50.0), 1.0, 0.8);
        let after = g.total_capacity();
        assert!((before - after - 2500.0).abs() < 1e-9);
        // Partial occupancy blocks proportionally.
        g.block_rect(Rect::new(50.0, 50.0, 60.0, 60.0), 0.5, 0.8);
        assert!((after - g.total_capacity() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fields_partition_objects_by_region() {
        use rdp_db::{Region, RegionId};
        let mut model = toy_model(&[(10.0, 10.0), (80.0, 80.0), (81.0, 81.0)], (4.0, 10.0));
        model.region[1] = Some(RegionId(0));
        model.region[2] = Some(RegionId(0));
        let regions = vec![Region::new("R", vec![Rect::new(60.0, 60.0, 100.0, 100.0)])];
        let fields = build_fields(&model, &regions, &[], 10, 0.8);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].members, vec![0]);
        assert_eq!(fields[1].members, vec![1, 2]);
        // The fence field has capacity only inside the fence.
        let fence_cap = fields[1].grid.total_capacity();
        assert!((fence_cap - 1600.0).abs() < 1e-6, "fence capacity {fence_cap}");
        // The main field lost the fence area.
        let main_cap = fields[0].grid.total_capacity();
        assert!((main_cap - (10_000.0 - 1600.0)).abs() < 1e-6, "main capacity {main_cap}");
    }

    #[test]
    fn out_of_grid_object_contributes_nothing() {
        let model = toy_model(&[(500.0, 500.0)], (4.0, 10.0));
        let mut f = field_for(&model, 10, 1.0);
        let (stats, gx, gy) = eval(&mut f, &model);
        let total: f64 = f.grid.density.iter().sum();
        // The kernel support is far outside: nothing deposited, no gradient.
        assert_eq!(total, 0.0);
        assert_eq!(gx[0], 0.0);
        assert_eq!(gy[0], 0.0);
        assert_eq!(stats.penalty, 0.0);
    }

    #[test]
    fn parallel_matches_single_thread_bitwise() {
        // A grid of overlapping cells spanning several bands and chunks.
        let positions: Vec<(f64, f64)> = (0..600)
            .map(|i| (((i * 13) % 95) as f64 + 2.5, ((i * 29) % 91) as f64 + 4.5))
            .collect();
        let model = toy_model(&positions, (5.0, 7.0));
        let mut base_f = field_for(&model, 24, 0.4);
        let (base, bgx, bgy) = eval_par(&mut base_f, &model, &Parallelism::single());
        for threads in [2, 8] {
            let mut f = field_for(&model, 24, 0.4);
            let (stats, gx, gy) = eval_par(&mut f, &model, &Parallelism::new(threads));
            assert_eq!(stats.penalty.to_bits(), base.penalty.to_bits(), "threads={threads}");
            assert_eq!(
                stats.overflow_area.to_bits(),
                base.overflow_area.to_bits(),
                "threads={threads}"
            );
            for (a, b) in f.grid.density.iter().zip(&base_f.grid.density) {
                assert_eq!(a.to_bits(), b.to_bits(), "density differs at {threads} threads");
            }
            for i in 0..model.len() {
                assert_eq!(gx[i].to_bits(), bgx[i].to_bits(), "t={threads} i={i}");
                assert_eq!(gy[i].to_bits(), bgy[i].to_bits(), "t={threads} i={i}");
            }
        }
    }
}
