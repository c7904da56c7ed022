//! Fused wirelength + density gradient evaluation: the one public entry
//! point of the global placer's objective, smooth wirelength plus the
//! density penalty.
//!
//! One Nesterov/CG gradient evaluation needs both the smooth-wirelength
//! gradient ([`crate::wirelength`]) and the density gradient
//! ([`crate::density`] or [`crate::electrostatics`]). Run one after the
//! other, each kernel would pay its own dispatch latency and leave workers
//! idle through its sequential sections (ordered totals, CSR prefix sums,
//! the FFT staging). The fused pass merges *independent* chunk families of
//! the kernels into shared parallel regions via
//! [`rdp_geom::parallel::fused_chunked_parts`], so one dispatch covers the
//! wirelength net phase *and* the density window pass, another covers the
//! wirelength gather *and* the bell caches, and so on. An empty field
//! slice evaluates the wirelength alone.
//!
//! # Determinism
//!
//! Every chunk family has a fixed geometry (chunk and band sizes are
//! constants, never derived from the thread count) and every reduction
//! folds in a fixed order. Fusion only changes *which parallel region* a
//! chunk runs in, so the result is bitwise identical at every thread
//! count. The unit tests below pin that at 1/2/4/8 threads; the
//! pre-layout-refactor kernels in `crates/core/tests/reference/` are the
//! independent oracle that `layout_equivalence.rs` checks the bell pass
//! against bit for bit, per field and for both wirelength models.
//!
//! Sequential interludes (ordered wirelength total, CSR/bucket builds, the
//! per-field penalty reductions and Poisson solves) stay sequential;
//! across fields they run in ascending field order, matching the
//! optimizer's field loop.

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
/// the *unscaled* density-penalty gradient (`∂penalty/∂pos`) into
/// `den_gx`/`den_gy` (callers zero), returning `(smooth_wl, stats)` with
/// the wirelength net-weight scaled and the stats summed over `fields` in
/// ascending order. Every field's members spread their areas over its
/// bins with the bell kernel.
///
/// Dispatch plan (4 parallel regions instead of `2 + 4·F` for the kernels
/// run one after the other):
/// 1. wirelength net phase ∥ window pass of every field,
/// 2. wirelength gather ∥ bell caches of every field,
/// 3. deposits of every field (disjoint row bands),
/// 4. chain rule of every field,
///
/// with the sequential interludes (ordered total, CSR/buckets, penalty
/// reduction, ordered scatters) between them.
///
/// # Panics
///
/// Panics if any of `wl_gx`, `wl_gy`, `den_gx`, `den_gy` does not have
/// exactly `model.len()` entries.
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
    for g in [&*wl_gx, &*wl_gy, &*den_gx, &*den_gy] {
        assert_eq!(g.len(), model.len(), "gradient buffer size mismatch");
    }
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

    // Sequential: ordered scatters, ascending field order.
    for (fi, s) in scratches.iter().enumerate() {
        let (mgx, mgy) = s.member_grads();
        scatter_grads(membs[fi], mgx, mgy, den_gx, den_gy);
    }
    (total, acc)
}

/// Fused evaluation of the smooth wirelength and the electrostatic density
/// fields — the [`fused_wl_den_grad`] counterpart for
/// [`GpDensityModel::Electrostatic`](crate::optimizer::GpDensityModel):
/// each field bins its members' areas, solves Poisson's equation for the
/// field and adds `−q·E` per member into `den_gx`/`den_gy`.
///
/// Dispatch plan (3 fused/shared regions instead of `2 + 3·F` for the
/// kernels run one after the other, plus the per-field FFT solves which
/// parallelize internally):
/// 1. wirelength net phase ∥ electro window pass (all fields),
/// 2. wirelength gather ∥ electro deposits (all fields),
/// 3. force gather of every field,
///
/// with the Poisson solves sequential between 2 and 3 in field order.
///
/// # Panics
///
/// Panics if any of `wl_gx`, `wl_gy`, `den_gx`, `den_gy` does not have
/// exactly `model.len()` entries.
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
    for g in [&*wl_gx, &*wl_gy, &*den_gx, &*den_gy] {
        assert_eq!(g.len(), model.len(), "gradient buffer size mismatch");
    }
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

    /// Everything one fused evaluation produces, as bit patterns: the
    /// wirelength total, the summed stats, both gradients and every field's
    /// binned density.
    type Bits = (u64, [u64; 3], Vec<u64>, Vec<u64>);

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bell_run(model: &Model, regions: &[Region], par: &Parallelism) -> Bits {
        let n = model.len();
        let mut fields = build_fields(model, regions, &[], 16, 0.6);
        let (mut wx, mut wy) = grads(n);
        let (mut dx, mut dy) = grads(n);
        let (wl, stats) = fused_wl_den_grad(
            model,
            WirelengthModel::Wa,
            4.0,
            &mut fields,
            &mut WlScratch::new(),
            &mut wx,
            &mut wy,
            &mut dx,
            &mut dy,
            par,
        );
        let density: Vec<f64> = fields.iter().flat_map(|f| f.grid.density.clone()).collect();
        let stats = [stats.penalty, stats.overflow_area, stats.max_ratio].map(f64::to_bits);
        (wl.to_bits(), stats, bits(&[wx, wy, dx, dy].concat()), bits(&density))
    }

    fn electro_run(model: &Model, regions: &[Region], par: &Parallelism) -> Bits {
        let n = model.len();
        let mut fields = build_electro_fields(model, regions, &[], 16, 0.6);
        let (mut wx, mut wy) = grads(n);
        let (mut dx, mut dy) = grads(n);
        let (wl, stats) = fused_wl_electro_grad(
            model,
            WirelengthModel::Lse,
            4.0,
            &mut fields,
            &mut WlScratch::new(),
            &mut wx,
            &mut wy,
            &mut dx,
            &mut dy,
            par,
        );
        let density: Vec<f64> = fields.iter().flat_map(|f| f.grid.density.clone()).collect();
        let stats = [stats.penalty, stats.overflow_area, stats.max_ratio].map(f64::to_bits);
        (wl.to_bits(), stats, bits(&[wx, wy, dx, dy].concat()), bits(&density))
    }

    #[test]
    fn fused_bell_is_bitwise_identical_across_thread_counts() {
        let (model, regions) = toy_model(600);
        let base = bell_run(&model, &regions, &Parallelism::single());
        assert!(base.1[0] != 0, "the toy design must overflow");
        for threads in [1, 2, 4, 8] {
            assert!(
                bell_run(&model, &regions, &Parallelism::new(threads)) == base,
                "fused bell pass differs at {threads} threads"
            );
        }
    }

    #[test]
    fn fused_electro_is_bitwise_identical_across_thread_counts() {
        let (model, regions) = toy_model(600);
        let base = electro_run(&model, &regions, &Parallelism::single());
        assert!(base.1[0] != 0, "the toy design must overflow");
        for threads in [1, 2, 4, 8] {
            assert!(
                electro_run(&model, &regions, &Parallelism::new(threads)) == base,
                "fused electro pass differs at {threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gradient buffer size mismatch")]
    fn fused_bell_rejects_a_longer_density_buffer() {
        let (model, regions) = toy_model(60);
        let n = model.len();
        let mut fields = build_fields(&model, &regions, &[], 16, 0.6);
        let (mut wx, mut wy) = grads(n);
        let (mut dx, mut dy) = grads(n + 1);
        fused_wl_den_grad(
            &model,
            WirelengthModel::Wa,
            4.0,
            &mut fields,
            &mut WlScratch::new(),
            &mut wx,
            &mut wy,
            &mut dx,
            &mut dy,
            &Parallelism::single(),
        );
    }

    #[test]
    #[should_panic(expected = "gradient buffer size mismatch")]
    fn fused_electro_rejects_a_longer_density_buffer() {
        let (model, regions) = toy_model(60);
        let n = model.len();
        let mut fields = build_electro_fields(&model, &regions, &[], 16, 0.6);
        let (mut wx, mut wy) = grads(n);
        let (mut dx, mut dy) = grads(n + 1);
        fused_wl_electro_grad(
            &model,
            WirelengthModel::Wa,
            4.0,
            &mut fields,
            &mut WlScratch::new(),
            &mut wx,
            &mut wy,
            &mut dx,
            &mut dy,
            &Parallelism::single(),
        );
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
