//! Fused wirelength + density gradient evaluation.
//!
//! One Nesterov/CG gradient evaluation needs both the smooth-wirelength
//! gradient ([`crate::wirelength`]) and the density gradient
//! ([`crate::density`] or [`crate::electrostatics`]). Run separately, each
//! kernel pays its own dispatch latency and leaves workers idle through its
//! sequential sections (ordered totals, CSR prefix sums, the FFT staging).
//! The fused pass merges *independent* chunk families of the two kernels
//! into shared parallel regions via
//! [`rdp_geom::parallel::fused_chunked_parts`], so one dispatch covers the
//! wirelength net phase *and* the density window pass, another covers the
//! wirelength gather *and* the bell caches, and so on — fewer dispatches
//! and barriers per evaluation, identical math.
//!
//! # Determinism
//!
//! Every family keeps its exact chunk geometry, part slices and chunk
//! bodies from the standalone kernels (the bodies are literally the same
//! `pub(crate)` functions). Fusion only changes *which parallel region* a
//! chunk runs in — never chunk boundaries, never the fold order of any
//! reduction — so the fused pass is bitwise identical to calling
//! [`crate::wirelength::smooth_wl_grad_par`] and the per-field
//! `penalty_grad_par` back to back, at every thread count. The unit tests
//! below assert exactly that.
//!
//! Sequential interludes (ordered wirelength total, CSR/bucket builds, the
//! per-field penalty reductions and Poisson solves) stay sequential in
//! their historical order; across fields they run in ascending field
//! order, matching the optimizer's field loop.

use crate::density::{
    band_spans, den_bell_body, den_chain_body, den_deposit_body, den_window_body, scatter_grads,
    BellPart, BellStage, BinGrid, ChainStage, DensityField, DensityScratch, DensityStats,
    DepositCtx, WindowPart,
};
use crate::electrostatics::{
    el_band_spans, el_deposit_body, el_force_body, el_window_body, ElDepositCtx, ElForceStage,
    ElectroField, ElectroScratch,
};
use crate::model::Model;
use crate::wirelength::{
    wl_net_phase, wl_obj_phase, wl_ordered_total, AxisScratch, WirelengthModel, WlScratch,
};
use rdp_geom::parallel::{
    chunked_map_parts, chunked_map_parts_with, fused_chunked_parts, split_at_spans, Parallelism,
};
use std::ops::Range;

/// A `(field index, (member span, gradient-x slice, gradient-y slice))`
/// part list tagging each field's chain/force parts for a shared dispatch.
type TaggedSliceParts<'a> = Vec<(usize, (Range<usize>, &'a mut [f64], &'a mut [f64]))>;

/// Accumulates per-field stats in ascending field order — the historical
/// reduction order of the optimizer's field loop.
fn accumulate(acc: &mut DensityStats, stats: DensityStats) {
    acc.overflow_area += stats.overflow_area;
    acc.penalty += stats.penalty;
    acc.max_ratio = acc.max_ratio.max(stats.max_ratio);
}

/// Fused evaluation of the smooth wirelength and the bell-kernel density
/// fields: **accumulates** the wirelength gradient into `wl_gx`/`wl_gy` and
/// the density gradient into `den_gx`/`den_gy` (callers zero), returning
/// `(smooth_wl, stats)` — bitwise identical to
/// [`smooth_wl_grad_par`](crate::wirelength::smooth_wl_grad_par) followed
/// by `penalty_grad_par` on every field in order.
///
/// Dispatch plan (4 parallel regions instead of `2 + 4·F`):
/// 1. wirelength net phase ∥ window pass of every field,
/// 2. wirelength gather ∥ bell caches of every field,
/// 3. deposits of every field (disjoint row bands),
/// 4. chain rule of every field,
///
/// with the sequential interludes (ordered total, CSR/buckets, penalty
/// reduction, ordered scatters) between them.
#[allow(clippy::too_many_arguments)]
pub fn fused_wl_den_grad(
    model: &Model,
    which: WirelengthModel,
    gamma: f64,
    fields: &mut [DensityField],
    wl_scratch: &mut WlScratch,
    wl_gx: &mut [f64],
    wl_gy: &mut [f64],
    den_gx: &mut [f64],
    den_gy: &mut [f64],
    par: &Parallelism,
) -> (f64, DensityStats) {
    assert_eq!(wl_gx.len(), model.len(), "gradient buffer size mismatch");
    assert_eq!(wl_gy.len(), model.len(), "gradient buffer size mismatch");
    wl_scratch.prepare(model);

    // Destructure each field once: the per-field borrows stay disjoint, so
    // grids, member lists and scratches can be borrowed independently by
    // the stages below.
    let mut grids: Vec<&mut BinGrid> = Vec::with_capacity(fields.len());
    let mut membs: Vec<&[u32]> = Vec::with_capacity(fields.len());
    let mut scratches: Vec<&mut DensityScratch> = Vec::with_capacity(fields.len());
    for f in fields.iter_mut() {
        let DensityField { grid, members, scratch } = f;
        grid.density.iter_mut().for_each(|d| *d = 0.0);
        scratch.prepare(members.len());
        grids.push(grid);
        membs.push(members);
        scratches.push(scratch);
    }

    // Region 1: wirelength net phase ∥ density window pass (all fields).
    {
        let wl_parts = wl_scratch.net_parts(model);
        let mut win_parts: Vec<(usize, WindowPart<'_>)> = Vec::new();
        for (fi, s) in scratches.iter_mut().enumerate() {
            for p in s.window_parts() {
                win_parts.push((fi, p));
            }
        }
        let grids_ro: &[&mut BinGrid] = &grids;
        let membs_ro: &[&[u32]] = &membs;
        fused_chunked_parts(
            par,
            wl_parts,
            AxisScratch::default,
            |ax, _ci, part| wl_net_phase(model, which, gamma, ax, part),
            win_parts,
            || (),
            |(), _ci, (fi, part)| den_window_body(model, membs_ro[*fi], &*grids_ro[*fi], part),
        );
    }

    // Sequential: ordered wirelength total; per-field CSR + band buckets.
    let total = wl_ordered_total(model, wl_scratch.net_totals());
    for (fi, s) in scratches.iter_mut().enumerate() {
        s.bucket_and_csr(grids[fi].ny);
    }

    // Region 2: wirelength gather ∥ bell caches (all fields).
    {
        let (pin_gx, pin_gy) = wl_scratch.pin_grads();
        let obj_parts = wl_scratch.obj_parts(wl_gx, wl_gy);
        let mut bell_parts: Vec<(usize, BellPart<'_>)> = Vec::new();
        let mut rangev: Vec<&[(u32, u32, u32, u32)]> = Vec::with_capacity(scratches.len());
        for (fi, s) in scratches.iter_mut().enumerate() {
            let BellStage { parts, ranges } = s.bell_stage();
            rangev.push(ranges);
            for p in parts {
                bell_parts.push((fi, p));
            }
        }
        let grids_ro: &[&mut BinGrid] = &grids;
        let membs_ro: &[&[u32]] = &membs;
        let rangev_ro: &[&[(u32, u32, u32, u32)]] = &rangev;
        fused_chunked_parts(
            par,
            obj_parts,
            || (),
            |(), _ci, part| wl_obj_phase(model, pin_gx, pin_gy, part),
            bell_parts,
            || (),
            |(), _ci, (fi, part)| {
                den_bell_body(model, membs_ro[*fi], rangev_ro[*fi], &*grids_ro[*fi], part)
            },
        );
    }

    // Region 3: deposits of every field over disjoint row bands.
    {
        let mut dep_parts: Vec<(usize, usize, &mut [f64])> = Vec::new();
        let mut ctxs: Vec<DepositCtx<'_>> = Vec::with_capacity(grids.len());
        for (fi, g) in grids.iter_mut().enumerate() {
            let (nx, ny) = (g.nx, g.ny);
            ctxs.push(scratches[fi].deposit_ctx(nx, ny));
            let spans = band_spans(nx, ny);
            for (b, d) in split_at_spans(&mut g.density, &spans).into_iter().enumerate() {
                dep_parts.push((fi, b, d));
            }
        }
        let ctxs_ro: &[DepositCtx<'_>] = &ctxs;
        chunked_map_parts(par, dep_parts, |_ci, (fi, band, density)| {
            den_deposit_body(&ctxs_ro[*fi], *band, density)
        });
    }

    // Sequential: per-field penalty reduction, ascending field order.
    let mut acc = DensityStats::default();
    for (fi, s) in scratches.iter_mut().enumerate() {
        let stats = s.reduce(grids[fi]);
        accumulate(&mut acc, stats);
    }

    // Region 4: chain rule of every field.
    {
        let mut chain_parts: TaggedSliceParts = Vec::new();
        let mut cctxs: Vec<ChainStage<'_>> = Vec::with_capacity(scratches.len());
        for (fi, s) in scratches.iter_mut().enumerate() {
            let stage = s.chain_stage();
            let ChainStage { parts, .. } = stage;
            cctxs.push(ChainStage { parts: Vec::new(), ..stage });
            for p in parts {
                chain_parts.push((fi, p));
            }
        }
        let grids_ro: &[&mut BinGrid] = &grids;
        let membs_ro: &[&[u32]] = &membs;
        let cctxs_ro: &[ChainStage<'_>] = &cctxs;
        chunked_map_parts_with(
            par,
            chain_parts,
            Vec::new,
            |dpx_row: &mut Vec<f64>, _ci, (fi, (span, gx_out, gy_out))| {
                den_chain_body(
                    model,
                    membs_ro[*fi],
                    &*grids_ro[*fi],
                    &cctxs_ro[*fi],
                    dpx_row,
                    span.clone(),
                    gx_out,
                    gy_out,
                )
            },
        );
    }

    // Sequential: ordered scatters, ascending field order (fields partition
    // the objects, so this matches the per-field kernels exactly).
    for (fi, s) in scratches.iter().enumerate() {
        let (mgx, mgy) = s.member_grads();
        scatter_grads(membs[fi], mgx, mgy, den_gx, den_gy);
    }
    (total, acc)
}

/// Fused evaluation of the smooth wirelength and the electrostatic density
/// fields — the [`fused_wl_den_grad`] counterpart for
/// [`GpDensityModel::Electrostatic`](crate::optimizer::GpDensityModel).
/// Bitwise identical to the standalone kernels in sequence.
///
/// Dispatch plan (3 fused/shared regions instead of `2 + 3·F`, plus the
/// per-field FFT solves which parallelize internally):
/// 1. wirelength net phase ∥ electro window pass (all fields),
/// 2. wirelength gather ∥ electro deposits (all fields),
/// 3. force gather of every field,
///
/// with the Poisson solves sequential between 2 and 3 in field order.
#[allow(clippy::too_many_arguments)]
pub fn fused_wl_electro_grad(
    model: &Model,
    which: WirelengthModel,
    gamma: f64,
    fields: &mut [ElectroField],
    wl_scratch: &mut WlScratch,
    wl_gx: &mut [f64],
    wl_gy: &mut [f64],
    den_gx: &mut [f64],
    den_gy: &mut [f64],
    par: &Parallelism,
) -> (f64, DensityStats) {
    assert_eq!(wl_gx.len(), model.len(), "gradient buffer size mismatch");
    assert_eq!(wl_gy.len(), model.len(), "gradient buffer size mismatch");
    wl_scratch.prepare(model);

    let mut grids: Vec<&mut BinGrid> = Vec::with_capacity(fields.len());
    let mut membs: Vec<&[u32]> = Vec::with_capacity(fields.len());
    let mut scratches: Vec<&mut ElectroScratch> = Vec::with_capacity(fields.len());
    for f in fields.iter_mut() {
        let ElectroField { grid, members, scratch } = f;
        scratch.prepare(grid, members.len());
        grid.density.iter_mut().for_each(|d| *d = 0.0);
        grids.push(grid);
        membs.push(members);
        scratches.push(scratch);
    }

    // Region 1: wirelength net phase ∥ electro window pass (all fields).
    {
        let wl_parts = wl_scratch.net_parts(model);
        let mut win_parts: Vec<(usize, WindowPart<'_>)> = Vec::new();
        for (fi, s) in scratches.iter_mut().enumerate() {
            for p in s.window_parts() {
                win_parts.push((fi, p));
            }
        }
        let grids_ro: &[&mut BinGrid] = &grids;
        let membs_ro: &[&[u32]] = &membs;
        fused_chunked_parts(
            par,
            wl_parts,
            AxisScratch::default,
            |ax, _ci, part| wl_net_phase(model, which, gamma, ax, part),
            win_parts,
            || (),
            |(), _ci, (fi, part)| el_window_body(model, membs_ro[*fi], &*grids_ro[*fi], part),
        );
    }

    // Sequential: ordered wirelength total; per-field band buckets.
    let total = wl_ordered_total(model, wl_scratch.net_totals());
    for (fi, s) in scratches.iter_mut().enumerate() {
        s.bucket_bands(grids[fi].ny);
    }

    // Region 2: wirelength gather ∥ electro deposits (all fields).
    {
        let (pin_gx, pin_gy) = wl_scratch.pin_grads();
        let obj_parts = wl_scratch.obj_parts(wl_gx, wl_gy);
        let mut dep_parts: Vec<(usize, usize, &mut [f64])> = Vec::new();
        let mut ctxs: Vec<ElDepositCtx<'_>> = Vec::with_capacity(grids.len());
        for (fi, g) in grids.iter_mut().enumerate() {
            let (nx, ny) = (g.nx, g.ny);
            let (origin, bin_w, bin_h) = (g.origin, g.bin_w, g.bin_h);
            ctxs.push(scratches[fi].deposit_ctx(nx, ny, origin, bin_w, bin_h));
            let spans = el_band_spans(nx, ny);
            for (b, d) in split_at_spans(&mut g.density, &spans).into_iter().enumerate() {
                dep_parts.push((fi, b, d));
            }
        }
        let ctxs_ro: &[ElDepositCtx<'_>] = &ctxs;
        let membs_ro: &[&[u32]] = &membs;
        fused_chunked_parts(
            par,
            obj_parts,
            || (),
            |(), _ci, part| wl_obj_phase(model, pin_gx, pin_gy, part),
            dep_parts,
            || (),
            |(), _ci, (fi, band, density)| {
                el_deposit_body(model, membs_ro[*fi], &ctxs_ro[*fi], *band, density)
            },
        );
    }

    // Sequential: per-field diagnostics + Poisson solve, ascending field
    // order (the FFT parallelizes internally over the same pool).
    let mut acc = DensityStats::default();
    for (fi, s) in scratches.iter_mut().enumerate() {
        let stats = s.solve_field(grids[fi], par);
        accumulate(&mut acc, stats);
    }

    // Region 3: force gather of every field.
    {
        let mut force_parts: TaggedSliceParts = Vec::new();
        let mut fctxs: Vec<ElForceStage<'_>> = Vec::with_capacity(scratches.len());
        for (fi, s) in scratches.iter_mut().enumerate() {
            let stage = s.force_stage();
            let ElForceStage { parts, .. } = stage;
            fctxs.push(ElForceStage { parts: Vec::new(), ..stage });
            for p in parts {
                force_parts.push((fi, p));
            }
        }
        let grids_ro: &[&mut BinGrid] = &grids;
        let membs_ro: &[&[u32]] = &membs;
        let fctxs_ro: &[ElForceStage<'_>] = &fctxs;
        chunked_map_parts(par, force_parts, |_ci, (fi, (span, gx_out, gy_out))| {
            el_force_body(
                model,
                membs_ro[*fi],
                &*grids_ro[*fi],
                &fctxs_ro[*fi],
                span.clone(),
                gx_out,
                gy_out,
            )
        });
    }

    // Sequential: ordered scatters, ascending field order.
    for (fi, s) in scratches.iter().enumerate() {
        let (mgx, mgy) = s.member_grads();
        scatter_grads(membs[fi], mgx, mgy, den_gx, den_gy);
    }
    (total, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::build_fields;
    use crate::electrostatics::build_electro_fields;
    use crate::model::{ModelNet, ModelPin};
    use crate::wirelength::smooth_wl_grad_par;
    use rdp_db::{Region, RegionId};
    use rdp_geom::{Point, Rect};

    /// A mixed design: a scatter of cells, multi-pin nets, and one fence
    /// region so the multi-field paths (field 0 + fence field) are covered.
    fn toy_model(n: usize) -> (Model, Vec<Region>) {
        let positions: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(((i * 13) % 73) as f64 + 3.5, ((i * 29) % 71) as f64 + 4.5)
            })
            .collect();
        let mut region = vec![None; n];
        // Every 7th cell lives in the fence.
        for (i, r) in region.iter_mut().enumerate() {
            if i % 7 == 3 {
                *r = Some(RegionId(0));
            }
        }
        let nets: Vec<ModelNet> = (0..n / 2)
            .map(|ni| ModelNet {
                weight: 1.0 + (ni % 3) as f64 * 0.25,
                pins: (0..(2 + ni % 4))
                    .map(|k| ModelPin::movable((ni * 5 + k * 11) % n, Point::ORIGIN))
                    .collect(),
            })
            .collect();
        let model = Model::from_parts(
            positions,
            vec![(5.0, 7.0); n],
            vec![35.0; n],
            vec![false; n],
            region,
            &nets,
            Rect::new(0.0, 0.0, 80.0, 80.0),
            vec![],
        );
        let regions = vec![Region::new("R", vec![Rect::new(40.0, 40.0, 80.0, 80.0)])];
        (model, regions)
    }

    fn grads(n: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; n], vec![0.0; n])
    }

    #[test]
    fn fused_bell_matches_separate_kernels_bitwise() {
        let (model, regions) = toy_model(600);
        let n = model.len();
        let gamma = 4.0;
        for threads in [1, 2, 4, 8] {
            let par = Parallelism::new(threads);
            // Reference: standalone kernels in sequence.
            let mut ref_fields = build_fields(&model, &regions, &[], 16, 0.6);
            let mut ref_scratch = WlScratch::new();
            let (mut rwx, mut rwy) = grads(n);
            let (mut rdx, mut rdy) = grads(n);
            let ref_wl = smooth_wl_grad_par(
                &model,
                WirelengthModel::Wa,
                gamma,
                &mut rwx,
                &mut rwy,
                &mut ref_scratch,
                &par,
            );
            let mut ref_stats = DensityStats::default();
            for f in &mut ref_fields {
                let s = f.penalty_grad_par(&model, &mut rdx, &mut rdy, &par);
                accumulate(&mut ref_stats, s);
            }
            // Fused pass.
            let mut fields = build_fields(&model, &regions, &[], 16, 0.6);
            let mut scratch = WlScratch::new();
            let (mut fwx, mut fwy) = grads(n);
            let (mut fdx, mut fdy) = grads(n);
            let (wl, stats) = fused_wl_den_grad(
                &model,
                WirelengthModel::Wa,
                gamma,
                &mut fields,
                &mut scratch,
                &mut fwx,
                &mut fwy,
                &mut fdx,
                &mut fdy,
                &par,
            );
            assert_eq!(wl.to_bits(), ref_wl.to_bits(), "threads={threads}");
            assert_eq!(stats.penalty.to_bits(), ref_stats.penalty.to_bits());
            assert_eq!(stats.overflow_area.to_bits(), ref_stats.overflow_area.to_bits());
            assert_eq!(stats.max_ratio.to_bits(), ref_stats.max_ratio.to_bits());
            for i in 0..n {
                assert_eq!(fwx[i].to_bits(), rwx[i].to_bits(), "wl gx t={threads} i={i}");
                assert_eq!(fwy[i].to_bits(), rwy[i].to_bits(), "wl gy t={threads} i={i}");
                assert_eq!(fdx[i].to_bits(), rdx[i].to_bits(), "den gx t={threads} i={i}");
                assert_eq!(fdy[i].to_bits(), rdy[i].to_bits(), "den gy t={threads} i={i}");
            }
        }
    }

    #[test]
    fn fused_electro_matches_separate_kernels_bitwise() {
        let (model, regions) = toy_model(600);
        let n = model.len();
        let gamma = 4.0;
        for threads in [1, 2, 4, 8] {
            let par = Parallelism::new(threads);
            let mut ref_fields = build_electro_fields(&model, &regions, &[], 16, 0.6);
            let mut ref_scratch = WlScratch::new();
            let (mut rwx, mut rwy) = grads(n);
            let (mut rdx, mut rdy) = grads(n);
            let ref_wl = smooth_wl_grad_par(
                &model,
                WirelengthModel::Lse,
                gamma,
                &mut rwx,
                &mut rwy,
                &mut ref_scratch,
                &par,
            );
            let mut ref_stats = DensityStats::default();
            for f in &mut ref_fields {
                let s = f.penalty_grad_par(&model, &mut rdx, &mut rdy, &par);
                accumulate(&mut ref_stats, s);
            }
            let mut fields = build_electro_fields(&model, &regions, &[], 16, 0.6);
            let mut scratch = WlScratch::new();
            let (mut fwx, mut fwy) = grads(n);
            let (mut fdx, mut fdy) = grads(n);
            let (wl, stats) = fused_wl_electro_grad(
                &model,
                WirelengthModel::Lse,
                gamma,
                &mut fields,
                &mut scratch,
                &mut fwx,
                &mut fwy,
                &mut fdx,
                &mut fdy,
                &par,
            );
            assert_eq!(wl.to_bits(), ref_wl.to_bits(), "threads={threads}");
            assert_eq!(stats.penalty.to_bits(), ref_stats.penalty.to_bits());
            assert_eq!(stats.overflow_area.to_bits(), ref_stats.overflow_area.to_bits());
            assert_eq!(stats.max_ratio.to_bits(), ref_stats.max_ratio.to_bits());
            for i in 0..n {
                assert_eq!(fwx[i].to_bits(), rwx[i].to_bits(), "wl gx t={threads} i={i}");
                assert_eq!(fwy[i].to_bits(), rwy[i].to_bits(), "wl gy t={threads} i={i}");
                assert_eq!(fdx[i].to_bits(), rdx[i].to_bits(), "el gx t={threads} i={i}");
                assert_eq!(fdy[i].to_bits(), rdy[i].to_bits(), "el gy t={threads} i={i}");
            }
        }
    }

    #[test]
    fn fused_is_repeatable_across_reused_scratch() {
        // Scratch reuse (the optimizer pattern) must not change results.
        let (model, regions) = toy_model(300);
        let n = model.len();
        let par = Parallelism::new(4);
        let mut fields = build_fields(&model, &regions, &[], 16, 0.6);
        let mut scratch = WlScratch::new();
        let mut runs = Vec::new();
        for _ in 0..3 {
            let (mut wx, mut wy) = grads(n);
            let (mut dx, mut dy) = grads(n);
            let (wl, stats) = fused_wl_den_grad(
                &model,
                WirelengthModel::Wa,
                4.0,
                &mut fields,
                &mut scratch,
                &mut wx,
                &mut wy,
                &mut dx,
                &mut dy,
                &par,
            );
            runs.push((wl.to_bits(), stats.penalty.to_bits(), dx, dy));
        }
        for r in &runs[1..] {
            assert_eq!(r.0, runs[0].0);
            assert_eq!(r.1, runs[0].1);
            for i in 0..n {
                assert_eq!(r.2[i].to_bits(), runs[0].2[i].to_bits());
                assert_eq!(r.3[i].to_bits(), runs[0].3[i].to_bits());
            }
        }
    }
}
