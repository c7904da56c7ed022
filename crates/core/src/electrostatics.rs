//! ePlace-style electrostatic density model: cells are positive charges,
//! the density grid is a charge distribution, and the spreading force is
//! the electric field of the Poisson potential solved spectrally with the
//! deterministic in-tree FFT ([`rdp_geom::fft`]).
//!
//! Compared to the bell-shaped model in [`crate::density`], the
//! electrostatic formulation produces a globally smooth, long-range force:
//! every cell feels every overfilled region at once instead of only bins
//! under its own kernel support, which is what lets the Nesterov solver
//! take large confident steps. The evaluation cost is O(cells + bins·log
//! bins) per iteration.
//!
//! # Evaluation pipeline (one gradient call)
//!
//! 1. **Binning** — each member's area lands in the bins its rectangle
//!    overlaps, proportionally to the overlap (exact geometric binning, no
//!    smoothing kernel). Parallel over disjoint row bands with members in
//!    ascending order per band — the same fixed-chunk discipline as the
//!    bell kernel, so results are bitwise identical at every thread count.
//! 2. **Charge** — the movable density minus a background charge
//!    proportional to each bin's target capacity, scaled so total charge
//!    is exactly zero (free space soaks up exactly the movable area).
//! 3. **Poisson solve** — the charge grid is mirror-extended to `2nx×2ny`
//!    (even symmetry ⇒ Neumann walls: field lines do not leave the die),
//!    transformed with the fixed-radix FFT, scaled by `1/k²`, multiplied
//!    by the spectral derivative, and transformed back. Both field
//!    components come out of a single packed inverse transform
//!    (`ifft(Ex_hat + i·Ey_hat)`), which halves the FFT count. The
//!    forward transform row-transforms only the top half of the extended
//!    grid (the bottom half mirrors it), and the inverse column pass stops
//!    after the `nx` columns the field is read from; both shortcuts keep
//!    every bit of the full transforms.
//! 4. **Force gather** — each member's gradient is `−q·E` with the field
//!    averaged over the bins it overlaps (overlap-weighted), parallel over
//!    member chunks, then scattered in ascending member order.
//!
//! The grid must be power-of-two in both axes (the fixed-radix FFT
//! constraint); [`build_electro_fields`] rounds bin counts up.

use crate::density::{scatter_grads, BinGrid, DensityStats, WindowPart};
use crate::model::Model;
use rdp_db::Region;
use rdp_geom::fft::Fft2;
use rdp_geom::parallel::{chunk_spans, chunked_map_parts, split_at_spans, Parallelism};
use rdp_geom::{Point, Rect};
use std::f64::consts::PI;
use std::ops::Range;

/// Member objects per parallel work chunk — fixed, never derived from the
/// thread count (see [`crate::density`]).
const MEMBER_CHUNK: usize = 512;

/// Bin rows per deposit band — fixed for the same reason.
const BAND_ROWS: usize = 4;

/// Reusable evaluation scratch: member windows, band buckets, the FFT plan
/// and the extended-grid spectral buffers. Everything persists across
/// optimizer iterations — no per-iteration allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ElectroScratch {
    /// Member chunk spans (rebuilt when the member count changes).
    spans: Vec<std::ops::Range<usize>>,
    /// Per member: touched bin window (x0, x1, y0, y1), inclusive.
    ranges: Vec<(u32, u32, u32, u32)>,
    /// Per deposit band: member slots touching it, ascending.
    band_members: Vec<Vec<u32>>,
    /// FFT plan over the mirror-extended `2nx × 2ny` grid.
    fft: Option<Fft2>,
    /// Extended-grid spectral buffers (charge in, packed field out).
    ext_re: Vec<f64>,
    ext_im: Vec<f64>,
    /// Per-bin field components on the original grid.
    field_x: Vec<f64>,
    field_y: Vec<f64>,
    /// Spectral derivative wavenumbers (Nyquist zeroed for odd symmetry).
    kdx: Vec<f64>,
    kdy: Vec<f64>,
    /// Squared wavenumbers for the 1/k² Poisson denominator.
    k2x: Vec<f64>,
    k2y: Vec<f64>,
    /// Per-member gradient accumulators.
    member_gx: Vec<f64>,
    member_gy: Vec<f64>,
}

/// Read-only context for one deposit band: the member windows, the band
/// buckets and the grid geometry (copied out so the density slab can be
/// split mutably at the same time).
pub(crate) struct ElDepositCtx<'a> {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) origin: Point,
    pub(crate) bin_w: f64,
    pub(crate) bin_h: f64,
    pub(crate) ranges: &'a [(u32, u32, u32, u32)],
    pub(crate) band_members: &'a [Vec<u32>],
}

/// The force-gather stage: per-chunk output parts plus the read-only field
/// and window slices every chunk samples from.
pub(crate) struct ElForceStage<'a> {
    pub(crate) parts: Vec<(Range<usize>, &'a mut [f64], &'a mut [f64])>,
    pub(crate) ranges: &'a [(u32, u32, u32, u32)],
    pub(crate) field_x: &'a [f64],
    pub(crate) field_y: &'a [f64],
}

/// The fixed deposit-band partition of a `nx × ny` density slab: one span
/// of `BAND_ROWS` bin rows per band (the last may be short). Must stay in
/// lockstep with [`ElectroScratch::bucket_bands`].
pub(crate) fn el_band_spans(nx: usize, ny: usize) -> Vec<Range<usize>> {
    (0..ny.div_ceil(BAND_ROWS))
        .map(|b| b * BAND_ROWS * nx..((b + 1) * BAND_ROWS).min(ny) * nx)
        .collect()
}

impl ElectroScratch {
    /// Sizes every buffer for `n` members over `grid` and builds the FFT
    /// plan on first use. Does **not** zero the density slab — the caller
    /// owns that.
    pub(crate) fn prepare(&mut self, grid: &BinGrid, n: usize) {
        if self.fft.is_none() {
            self.init_spectral(grid.nx, grid.ny, grid.bin_w, grid.bin_h);
        }
        if self.spans.last().map_or(0, |s| s.end) != n {
            self.spans = chunk_spans(n, MEMBER_CHUNK).collect();
        }
        self.ranges.resize(n, (0, 0, 0, 0));
        self.member_gx.resize(n, 0.0);
        self.member_gy.resize(n, 0.0);
    }

    /// Per-chunk window-output parts for pass 1.
    pub(crate) fn window_parts(&mut self) -> Vec<WindowPart<'_>> {
        split_at_spans(&mut self.ranges, &self.spans)
            .into_iter()
            .zip(self.spans.iter().cloned())
            .map(|(out, span)| (span, out))
            .collect()
    }

    /// Rebuilds the deposit-band buckets (sequential ordered pushes) from
    /// the pass-1 windows.
    pub(crate) fn bucket_bands(&mut self, ny: usize) {
        let num_bands = ny.div_ceil(BAND_ROWS);
        self.band_members.resize(num_bands, Vec::new());
        for b in &mut self.band_members {
            b.clear();
        }
        for (si, &(_, _, y0, y1)) in self.ranges.iter().enumerate() {
            for band in (y0 as usize / BAND_ROWS)..=(y1 as usize / BAND_ROWS) {
                self.band_members[band].push(si as u32);
            }
        }
    }

    /// Read-only deposit context (grid geometry passed in by value so the
    /// caller can split the density slab mutably at the same time).
    pub(crate) fn deposit_ctx(
        &self,
        nx: usize,
        ny: usize,
        origin: Point,
        bin_w: f64,
        bin_h: f64,
    ) -> ElDepositCtx<'_> {
        ElDepositCtx {
            nx,
            ny,
            origin,
            bin_w,
            bin_h,
            ranges: &self.ranges,
            band_members: &self.band_members,
        }
    }

    /// The sequential middle of the evaluation: overflow diagnostics,
    /// charge assembly with the zero-total background, the spectral
    /// Poisson solve and the field extraction. Reads the binned density
    /// from `grid`; the FFT parallelizes internally over `par`.
    pub(crate) fn solve_field(&mut self, grid: &BinGrid, par: &Parallelism) -> DensityStats {
        let (nx, ny) = (grid.nx, grid.ny);
        let mut stats = DensityStats::default();
        let (total_over, total_slack) = {
            let (mut o, mut s) = (0.0, 0.0);
            for (&dv, &tv) in grid.density.iter().zip(&grid.target) {
                o += (dv - tv).max(0.0);
                s += (tv - dv).max(0.0);
            }
            (o, s)
        };
        let nbins = nx * ny;
        let ext_nx = 2 * nx;
        self.ext_re.resize(4 * nbins, 0.0);
        self.ext_im.resize(4 * nbins, 0.0);
        self.field_x.resize(nbins, 0.0);
        self.field_y.resize(nbins, 0.0);
        {
            let density = &grid.density;
            let target = &grid.target;
            let capacity = &grid.capacity;
            let bg_scale = if total_slack > 1e-12 { total_over / total_slack } else { 0.0 };
            let uniform_bg =
                if total_slack > 1e-12 { 0.0 } else { total_over / nbins as f64 };
            for i in 0..nbins {
                let over = (density[i] - target[i]).max(0.0);
                stats.penalty += over * over;
                stats.overflow_area += (density[i] - capacity[i]).max(0.0);
                if capacity[i] > 1e-12 {
                    stats.max_ratio = stats.max_ratio.max(density[i] / capacity[i]);
                }
                let slack = (target[i] - density[i]).max(0.0);
                let rho = over - slack * bg_scale - uniform_bg;
                // Mirror the charge across the right die wall (even
                // extension ⇒ Neumann boundary at the die walls). The
                // bottom half would mirror the top half, so it is left
                // unwritten: `forward_mirrored` never reads it.
                let (bx, by) = (i % nx, i / nx);
                self.ext_re[by * ext_nx + bx] = rho;
                self.ext_re[by * ext_nx + ext_nx - 1 - bx] = rho;
            }
            self.ext_im[..2 * nbins].fill(0.0);
        }

        // Poisson solve: forward FFT, spectral scaling, packed inverse.
        let fft = self.fft.as_ref().expect("spectral state initialized");
        fft.forward_mirrored(&mut self.ext_re, &mut self.ext_im, par);
        // φ̂ = ρ̂/k²; Ê = −i·k·φ̂; packed C = Êx + i·Êy = φ̂·(ky − i·kx).
        for jy in 0..2 * ny {
            let (kyd, k2y) = (self.kdy[jy], self.k2y[jy]);
            let row = jy * ext_nx;
            for jx in 0..ext_nx {
                let k2 = self.k2x[jx] + k2y;
                let idx = row + jx;
                if k2 <= 0.0 {
                    self.ext_re[idx] = 0.0;
                    self.ext_im[idx] = 0.0;
                    continue;
                }
                let s = 1.0 / k2;
                let kxd = self.kdx[jx];
                let (rre, rim) = (self.ext_re[idx], self.ext_im[idx]);
                self.ext_re[idx] = s * (rre * kyd + rim * kxd);
                self.ext_im[idx] = s * (rim * kyd - rre * kxd);
            }
        }
        // Only the original `nx × ny` quadrant of the field is read.
        fft.inverse_leading_cols(&mut self.ext_re, &mut self.ext_im, nx, par);
        for by in 0..ny {
            for bx in 0..nx {
                let ei = by * ext_nx + bx;
                self.field_x[by * nx + bx] = self.ext_re[ei];
                self.field_y[by * nx + bx] = self.ext_im[ei];
            }
        }
        stats
    }

    /// Per-chunk gradient-output parts plus the shared read-only slices
    /// for the force gather.
    pub(crate) fn force_stage(&mut self) -> ElForceStage<'_> {
        let gx_parts = split_at_spans(&mut self.member_gx, &self.spans);
        let gy_parts = split_at_spans(&mut self.member_gy, &self.spans);
        let parts: Vec<_> = self
            .spans
            .iter()
            .cloned()
            .zip(gx_parts)
            .zip(gy_parts)
            .map(|((span, gx), gy)| (span, gx, gy))
            .collect();
        ElForceStage {
            parts,
            ranges: &self.ranges,
            field_x: &self.field_x,
            field_y: &self.field_y,
        }
    }

    /// The accumulated per-member gradients, ready for the ordered scatter.
    pub(crate) fn member_grads(&self) -> (&[f64], &[f64]) {
        (&self.member_gx, &self.member_gy)
    }
}

/// Pass-1 body: each member's touched-bin window (exact footprint — the
/// electrostatic model has no kernel margin).
pub(crate) fn el_window_body(
    model: &Model,
    members: &[u32],
    grid: &BinGrid,
    part: &mut WindowPart<'_>,
) {
    let (span, out) = part;
    for (slot, &oi) in out.iter_mut().zip(&members[span.clone()]) {
        let o = oi as usize;
        let (w, h) = model.size[o];
        let (cx, cy) = (model.pos_x[o], model.pos_y[o]);
        let (x0, x1) = grid.x_range(cx - w / 2.0, cx + w / 2.0);
        let (y0, y1) = grid.y_range(cy - h / 2.0, cy + h / 2.0);
        *slot = (x0 as u32, x1 as u32, y0 as u32, y1 as u32);
    }
}

/// Pass-2 body: overlap-proportional deposits for one disjoint row band,
/// members ascending within the band.
pub(crate) fn el_deposit_body(
    model: &Model,
    members: &[u32],
    ctx: &ElDepositCtx<'_>,
    band: usize,
    density: &mut [f64],
) {
    let row_lo = band * BAND_ROWS;
    let row_hi = ((band + 1) * BAND_ROWS).min(ctx.ny); // exclusive
    for &si32 in &ctx.band_members[band] {
        let si = si32 as usize;
        let o = members[si] as usize;
        let (w, h) = model.size[o];
        if w <= 0.0 || h <= 0.0 {
            continue;
        }
        // area/(w·h) ≥ 1 when inflated: the charge is the (possibly
        // inflated) area, spread over the footprint.
        let unit = model.area[o] / (w * h);
        let (cx, cy) = (model.pos_x[o], model.pos_y[o]);
        let (xl, xh) = (cx - w / 2.0, cx + w / 2.0);
        let (yl, yh) = (cy - h / 2.0, cy + h / 2.0);
        let (x0, x1, y0, y1) = ctx.ranges[si];
        let (x0, x1) = (x0 as usize, x1 as usize);
        let (y0, y1) = (y0 as usize, y1 as usize);
        for by in y0.max(row_lo)..=y1.min(row_hi - 1) {
            let byl = ctx.origin.y + by as f64 * ctx.bin_h;
            let oy = (yh.min(byl + ctx.bin_h) - yl.max(byl)).max(0.0);
            if oy <= 0.0 {
                continue;
            }
            let row = &mut density[(by - row_lo) * ctx.nx..];
            for (j, cell) in row[x0..=x1].iter_mut().enumerate() {
                let bxl = ctx.origin.x + (x0 + j) as f64 * ctx.bin_w;
                let ox = (xh.min(bxl + ctx.bin_w) - xl.max(bxl)).max(0.0);
                if ox > 0.0 {
                    *cell += unit * ox * oy;
                }
            }
        }
    }
}

/// Pass-3 body: force gather `−q·E` for one member chunk, the field
/// overlap-averaged over each member's footprint. Reads only `ctx`'s
/// shared slices, never its `parts`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn el_force_body(
    model: &Model,
    members: &[u32],
    grid: &BinGrid,
    ctx: &ElForceStage<'_>,
    span: Range<usize>,
    gx_out: &mut [f64],
    gy_out: &mut [f64],
) {
    let nx = grid.nx;
    for (j, si) in span.enumerate() {
        let o = members[si] as usize;
        let (w, h) = model.size[o];
        if w <= 0.0 || h <= 0.0 {
            gx_out[j] = 0.0;
            gy_out[j] = 0.0;
            continue;
        }
        let unit = model.area[o] / (w * h);
        let (cx, cy) = (model.pos_x[o], model.pos_y[o]);
        let (xl, xh) = (cx - w / 2.0, cx + w / 2.0);
        let (yl, yh) = (cy - h / 2.0, cy + h / 2.0);
        let (x0, x1, y0, y1) = ctx.ranges[si];
        let (x0, x1) = (x0 as usize, x1 as usize);
        let (y0, y1) = (y0 as usize, y1 as usize);
        let (mut fx, mut fy) = (0.0, 0.0);
        for by in y0..=y1 {
            let byl = grid.origin.y + by as f64 * grid.bin_h;
            let oy = (yh.min(byl + grid.bin_h) - yl.max(byl)).max(0.0);
            if oy <= 0.0 {
                continue;
            }
            let row = by * nx;
            for bx in x0..=x1 {
                let bxl = grid.origin.x + bx as f64 * grid.bin_w;
                let ox = (xh.min(bxl + grid.bin_w) - xl.max(bxl)).max(0.0);
                if ox > 0.0 {
                    fx += ox * oy * ctx.field_x[row + bx];
                    fy += ox * oy * ctx.field_y[row + bx];
                }
            }
        }
        // ∂N/∂x = −q·⟨Ex⟩: the descent direction (−gradient) pushes
        // charge along the field, away from density.
        gx_out[j] = -unit * fx;
        gy_out[j] = -unit * fy;
    }
}

/// One electrostatic density domain: a power-of-two bin grid plus the
/// objects whose charge lives in it. The drop-in counterpart of
/// [`crate::density::DensityField`] for
/// [`GpDensityModel::Electrostatic`](crate::optimizer::GpDensityModel).
#[derive(Debug, Clone)]
pub struct ElectroField {
    /// The bins (capacities/targets shared with the bell model).
    pub grid: BinGrid,
    /// Object indices (into the model) whose charge lives in this field.
    pub members: Vec<u32>,
    pub(crate) scratch: ElectroScratch,
}

impl ElectroField {
    /// A field over `grid` constraining `members`.
    ///
    /// # Panics
    ///
    /// Panics unless the grid dimensions are powers of two (the fixed-radix
    /// FFT constraint).
    pub fn new(grid: BinGrid, members: Vec<u32>) -> Self {
        let (nx, ny) = (grid.nx, grid.ny);
        assert!(
            nx.is_power_of_two() && ny.is_power_of_two(),
            "electrostatic grid must be power-of-two, got {nx}x{ny}"
        );
        ElectroField { grid, members, scratch: ElectroScratch::default() }
    }

    /// Bins the members' areas, solves Poisson's equation for the field and
    /// **adds** the electrostatic gradient (`−q·E` per member) into
    /// `grad_x`/`grad_y`, using up to `par` worker threads. Returns the
    /// same overflow diagnostics as the bell model, computed on the binned
    /// density, so A/B comparisons read the same stats.
    ///
    /// Deposits (band-parallel, member order), the spectral solve
    /// (row-parallel independent transforms, sequential scaling) and the
    /// gather/scatter (chunk-parallel, ordered merge) are all bitwise
    /// identical at every thread count.
    pub fn penalty_grad_par(
        &mut self,
        model: &Model,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
        par: &Parallelism,
    ) -> DensityStats {
        let ElectroField { grid, members, scratch } = self;
        let (nx, ny) = (grid.nx, grid.ny);

        scratch.prepare(grid, members.len());
        grid.density.iter_mut().for_each(|d| *d = 0.0);

        // Pass 1: bin windows of each member's rectangle, parallel chunks.
        {
            let parts = scratch.window_parts();
            let members: &[u32] = members;
            let grid_ro: &BinGrid = grid;
            chunked_map_parts(par, parts, |_ci, part| {
                el_window_body(model, members, grid_ro, part)
            });
        }

        // Band buckets (sequential ordered pushes).
        scratch.bucket_bands(ny);

        // Pass 2: overlap-proportional deposits, parallel over disjoint row
        // bands, members ascending within each band.
        {
            let spans = el_band_spans(nx, ny);
            let (origin, bin_w, bin_h) = (grid.origin, grid.bin_w, grid.bin_h);
            let ctx = scratch.deposit_ctx(nx, ny, origin, bin_w, bin_h);
            let parts: Vec<_> = split_at_spans(&mut grid.density, &spans)
                .into_iter()
                .enumerate()
                .collect();
            let members: &[u32] = members;
            chunked_map_parts(par, parts, |_ci, (band, density)| {
                el_deposit_body(model, members, &ctx, *band, density)
            });
        }

        // Diagnostics + charge assembly (sequential: canonical reduction
        // order, O(bins)). The charge is the *overflow* — area above the
        // bin target — not the raw density: a zero-total raw charge would
        // put negative charge on every underfull bin and drive the system
        // toward full uniformity, over-spreading cells (and stretching
        // nets) long after every bin meets its target. ePlace counters
        // that with filler cells; clipping the charge to the overflow
        // reaches the same equilibrium — no bin above target — without
        // them. The balancing negative background sits on bins with slack
        // (below-target capacity), proportional to that slack so blocked
        // area attracts nothing, scaled so the total charge is exactly
        // zero. Then the spectral Poisson solve and field extraction.
        let stats = scratch.solve_field(grid, par);

        // Pass 3: force gather `−q·E`, field overlap-averaged over the
        // member's footprint, parallel over member chunks.
        {
            let stage = scratch.force_stage();
            let ElForceStage { parts, .. } = stage;
            let ctx = ElForceStage { parts: Vec::new(), ..stage };
            let members: &[u32] = members;
            let grid_ro: &BinGrid = grid;
            chunked_map_parts(par, parts, |_ci, (span, gx_out, gy_out)| {
                el_force_body(model, members, grid_ro, &ctx, span.clone(), gx_out, gy_out)
            });
        }

        // Ordered scatter: ascending member order (the canonical merge).
        let (mgx, mgy) = scratch.member_grads();
        scatter_grads(members, mgx, mgy, grad_x, grad_y);
        stats
    }

    /// Single-threaded [`ElectroField::penalty_grad_par`].
    pub fn penalty_grad(
        &mut self,
        model: &Model,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> DensityStats {
        self.penalty_grad_par(model, grad_x, grad_y, &Parallelism::single())
    }
}

impl ElectroScratch {
    /// Builds the FFT plan and wavenumber tables for the mirror-extended
    /// `2nx × 2ny` grid with physical bin sizes `bin_w × bin_h`.
    fn init_spectral(&mut self, nx: usize, ny: usize, bin_w: f64, bin_h: f64) {
        self.fft = Some(Fft2::new(2 * nx, 2 * ny));
        let axis = |n: usize, step: f64| -> (Vec<f64>, Vec<f64>) {
            // Extended domain length L = 2n·step; frequency j maps to the
            // signed harmonic m ∈ (−n, n] and wavenumber 2π·m/L.
            let len = 2.0 * n as f64 * step;
            let mut kd = Vec::with_capacity(2 * n);
            let mut k2 = Vec::with_capacity(2 * n);
            for j in 0..2 * n {
                let m = if j <= n { j as f64 } else { j as f64 - 2.0 * n as f64 };
                let k = 2.0 * PI * m / len;
                // The first-derivative factor at the Nyquist harmonic must
                // be zero (its sine basis function vanishes on the grid);
                // k² keeps the true value so 1/k² stays finite there.
                kd.push(if j == n { 0.0 } else { k });
                k2.push(k * k);
            }
            (kd, k2)
        };
        let (kdx, k2x) = axis(nx, bin_w);
        let (kdy, k2y) = axis(ny, bin_h);
        self.kdx = kdx;
        self.k2x = k2x;
        self.kdy = kdy;
        self.k2y = k2y;
    }
}

/// Rounds a bin count up to the FFT-compatible power of two.
fn pow2_bins(b: usize) -> usize {
    b.max(1).next_power_of_two()
}

/// Builds the electrostatic density fields for `model`: field 0 for
/// unfenced objects (fixed nodes and fence interiors blocked) and one field
/// per fence region restricted to the fence rects — the same partition as
/// [`crate::density::build_fields`], with every bin count rounded up to a
/// power of two for the fixed-radix FFT.
pub fn build_electro_fields(
    model: &Model,
    regions: &[Region],
    blocked: &[(Rect, f64)],
    bins: usize,
    target_density: f64,
) -> Vec<ElectroField> {
    let bins = pow2_bins(bins);
    let mut fields = Vec::with_capacity(regions.len() + 1);

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
    fields.push(ElectroField::new(main, members));

    for (ri, region) in regions.iter().enumerate() {
        let bbox = region.bounding_box();
        let frac = (bbox.area() / model.die.area()).sqrt().max(0.05);
        let fb = pow2_bins(((bins as f64 * frac).ceil() as usize).clamp(4, bins)).min(bins);
        let mut grid = BinGrid::new(bbox, fb, fb, target_density);
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
        fields.push(ElectroField::new(grid, members));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelNet, ModelPin};
    use rdp_geom::Point;

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
            Rect::new(0.0, 0.0, 80.0, 80.0),
            vec![],
        )
    }

    fn field_for(model: &Model, bins: usize, target: f64) -> ElectroField {
        ElectroField::new(
            BinGrid::new(model.die, bins, bins, target),
            (0..model.len() as u32).collect(),
        )
    }

    fn eval(f: &mut ElectroField, model: &Model) -> (DensityStats, Vec<f64>, Vec<f64>) {
        let mut gx = vec![0.0; model.len()];
        let mut gy = vec![0.0; model.len()];
        let stats = f.penalty_grad(model, &mut gx, &mut gy);
        (stats, gx, gy)
    }

    #[test]
    fn rejects_non_power_of_two_grid() {
        let model = toy_model(&[(40.0, 40.0)], (4.0, 4.0));
        let grid = BinGrid::new(model.die, 12, 12, 1.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ElectroField::new(grid, vec![0])
        }));
        assert!(r.is_err());
    }

    #[test]
    fn mass_conservation() {
        // One 10×10 cell fully inside: deposited density sums to its area.
        let model = toy_model(&[(37.0, 43.0)], (10.0, 10.0));
        let mut f = field_for(&model, 8, 1.0);
        eval(&mut f, &model);
        let total: f64 = f.grid.density.iter().sum();
        assert!((total - 100.0).abs() < 1e-9, "deposited {total}, area 100");
    }

    #[test]
    fn uniform_density_gives_zero_forces() {
        // 64 cells of 10×10 exactly tiling the 80×80 die on an 8×8 grid:
        // the charge is identically zero, so every force is exactly zero.
        let positions: Vec<(f64, f64)> = (0..64)
            .map(|i| ((i % 8) as f64 * 10.0 + 5.0, (i / 8) as f64 * 10.0 + 5.0))
            .collect();
        let model = toy_model(&positions, (10.0, 10.0));
        let mut f = field_for(&model, 8, 1.0);
        let (_, gx, gy) = eval(&mut f, &model);
        for i in 0..model.len() {
            assert!(gx[i].abs() < 1e-9, "gx[{i}] = {}", gx[i]);
            assert!(gy[i].abs() < 1e-9, "gy[{i}] = {}", gy[i]);
        }
    }

    #[test]
    fn hot_bin_pushes_cells_outward() {
        // A pile of cells at the die center plus four probes around it:
        // each probe's descent direction (−gradient) points away from the
        // pile.
        let mut positions = vec![(40.0, 40.0); 12];
        let probes = [(25.0, 40.0), (55.0, 40.0), (40.0, 25.0), (40.0, 55.0)];
        positions.extend_from_slice(&probes);
        let model = toy_model(&positions, (6.0, 6.0));
        let mut f = field_for(&model, 16, 0.6);
        let (stats, gx, gy) = eval(&mut f, &model);
        assert!(stats.penalty > 0.0, "pile must overflow");
        // Left probe moves further left, right probe further right, etc.
        assert!(-gx[12] < 0.0, "left probe descent {}", -gx[12]);
        assert!(-gx[13] > 0.0, "right probe descent {}", -gx[13]);
        assert!(-gy[14] < 0.0, "bottom probe descent {}", -gy[14]);
        assert!(-gy[15] > 0.0, "top probe descent {}", -gy[15]);
    }

    #[test]
    fn stats_match_bell_model_formulas() {
        // The diagnostics are computed on the binned density with the same
        // formulas as the bell model: a single overfilled bin reports
        // positive penalty and overflow.
        let model = toy_model(&[(40.0, 40.0); 6], (10.0, 10.0));
        let mut f = field_for(&model, 8, 0.5);
        let (stats, _, _) = eval(&mut f, &model);
        assert!(stats.penalty > 0.0);
        assert!(stats.overflow_area > 0.0);
        assert!(stats.max_ratio > 1.0);
    }

    #[test]
    fn fields_partition_objects_by_region() {
        use rdp_db::RegionId;
        let mut model = toy_model(&[(10.0, 10.0), (70.0, 70.0)], (4.0, 4.0));
        model.region[1] = Some(RegionId(0));
        let regions = vec![Region::new("R", vec![Rect::new(60.0, 60.0, 80.0, 80.0)])];
        let fields = build_electro_fields(&model, &regions, &[], 12, 0.8);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].members, vec![0]);
        assert_eq!(fields[1].members, vec![1]);
        // Every grid axis is a power of two.
        for f in &fields {
            assert!(f.grid.nx.is_power_of_two() && f.grid.ny.is_power_of_two());
        }
    }

    #[test]
    fn parallel_matches_single_thread_bitwise() {
        let positions: Vec<(f64, f64)> = (0..700)
            .map(|i| (((i * 13) % 73) as f64 + 3.5, ((i * 29) % 71) as f64 + 4.5))
            .collect();
        let model = toy_model(&positions, (5.0, 7.0));
        let mut base_f = field_for(&model, 32, 0.4);
        let mut bgx = vec![0.0; model.len()];
        let mut bgy = vec![0.0; model.len()];
        let base = base_f.penalty_grad_par(&model, &mut bgx, &mut bgy, &Parallelism::single());
        for threads in [2, 8] {
            let mut f = field_for(&model, 32, 0.4);
            let mut gx = vec![0.0; model.len()];
            let mut gy = vec![0.0; model.len()];
            let stats = f.penalty_grad_par(&model, &mut gx, &mut gy, &Parallelism::new(threads));
            assert_eq!(stats.penalty.to_bits(), base.penalty.to_bits(), "threads={threads}");
            assert_eq!(
                stats.overflow_area.to_bits(),
                base.overflow_area.to_bits(),
                "threads={threads}"
            );
            for i in 0..model.len() {
                assert_eq!(gx[i].to_bits(), bgx[i].to_bits(), "t={threads} i={i}");
                assert_eq!(gy[i].to_bits(), bgy[i].to_bits(), "t={threads} i={i}");
            }
        }
    }
}
