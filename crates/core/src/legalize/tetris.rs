//! Tetris-style greedy segment assignment for standard cells
//! ([`assign_cells_par`]): rows are partitioned into fixed horizontal
//! bands, each band runs an independent sweep on the worker pool, and a
//! deterministic serial pass recovers cross-band strays. Designs within
//! one band run the global serial sweep ([`assign_cells`]).

use super::segments::Segment;
use rdp_db::{Design, NodeId, Placement, RegionId};
use rdp_geom::grid_index::BucketGrid;
use rdp_geom::parallel::{chunked_map, Parallelism};
use rdp_geom::{Point, Rect};

/// Placement rows per legalization band. Fixed — never derived from the
/// thread count — so the band partition (and therefore the result) depends
/// only on the input design, exactly like the kernel chunk constants.
/// Designs with at most this many rows degenerate to a single band, which
/// runs the *identical* global sweep.
const BAND_ROWS: usize = 32;

/// Site-quantized width a cell occupies in a row.
fn site_width(design: &Design, id: NodeId, site: f64) -> f64 {
    (design.node(id).width() / site).ceil() * site
}

/// Feasibility + displacement cost of putting a `w`-wide cell of `region`
/// into `seg` (whose row sits at `row_y`): `dx + 2·dy` against the
/// feasible span, `None` when the region mismatches or capacity is
/// exhausted. Shared by the serial sweep, the band workers and the stray
/// recovery so all three price segments identically.
fn seg_cost(
    seg: &Segment,
    row_y: f64,
    desired: Point,
    region: Option<RegionId>,
    w: f64,
) -> Option<f64> {
    if seg.region != region || seg.free() + 1e-9 < w {
        return None;
    }
    let dy = (row_y - desired.y).abs();
    // Approximate x displacement: distance from desired to the feasible
    // span of the segment.
    let lo = seg.interval.lo;
    let hi = seg.interval.hi - w;
    let dx = if desired.x < lo {
        lo - desired.x
    } else if desired.x > hi {
        desired.x - hi
    } else {
        0.0
    };
    Some(dx + 2.0 * dy)
}

/// The classic Tetris cell order: ascending desired x, node id tie-break.
fn x_sorted_cells(design: &Design, placement: &Placement) -> Vec<NodeId> {
    let mut cells: Vec<NodeId> = design
        .node_ids()
        .filter(|&id| design.node(id).is_std_cell())
        .collect();
    cells.sort_by(|&a, &b| {
        placement
            .center(a)
            .x
            .total_cmp(&placement.center(b).x)
            .then(a.cmp(&b))
    });
    cells
}

/// Assigns every standard cell to a segment of matching fence region,
/// minimizing `|Δy| + |Δx|` displacement subject to remaining capacity.
/// Returns the number of cells that found no segment (capacity exhausted
/// everywhere — 0 on any sanely-sized design).
///
/// Candidate segments come from a bucketed spatial index queried around
/// each cell's desired position, so the per-cell work is a local window
/// rather than a scan of every segment. The query cost `dx + 2·dy` never
/// undercuts the L1 distance to a segment's span, so the windowed search
/// returns the same `(cost, index)`-minimal segment as a full scan —
/// including the lowest-segment-index tie-break.
fn assign_cells(design: &Design, placement: &Placement, segments: &mut [Segment]) -> usize {
    let site = design
        .rows()
        .first()
        .map(|r| r.site_width())
        .unwrap_or(1.0);

    // Cells ordered by desired x (the classic Tetris sweep) so left space
    // fills left-to-right and displacement stays local.
    let cells = x_sorted_cells(design, placement);

    // Each segment is a zero-height rect at its row's y; feasibility
    // (region match, remaining capacity) lives in the query cost so the
    // index never needs rebuilding as segments fill up.
    let row_ys: Vec<f64> = segments
        .iter()
        .map(|s| design.rows()[s.row].y())
        .collect();
    let res = ((segments.len() as f64).sqrt().ceil() as usize).clamp(4, 256);
    let mut index = BucketGrid::new(design.die(), res, res);
    for (seg, &row_y) in segments.iter().zip(&row_ys) {
        index.insert(Rect::new(seg.interval.lo, row_y, seg.interval.hi, row_y));
    }

    let mut failed = 0;
    for id in cells {
        let w = site_width(design, id, site);
        let desired = placement.lower_left(design, id);
        let region = design.node(id).region();
        let best = index.nearest_by(desired, |si| {
            seg_cost(&segments[si as usize], row_ys[si as usize], desired, region, w)
        });
        match best {
            Some((si, _)) => {
                segments[si as usize].used += w;
                segments[si as usize].cells.push(id);
            }
            None => failed += 1,
        }
    }
    failed
}

/// Assignments produced by one band's independent sweep, plus the cells it
/// could not fit locally (recovered by a serial cross-band pass).
struct BandOutcome {
    /// `(segment index, cell, site-quantized width)` in assignment order.
    assigned: Vec<(usize, NodeId, f64)>,
    /// `(cell, width)` of cells with no feasible segment in the band.
    strays: Vec<(NodeId, f64)>,
}

/// Band-parallel Tetris assignment: rows are partitioned into fixed
/// 32-row horizontal bands; each cell is binned to the band of
/// its nearest row (by desired y, lower row index on ties) and each band
/// runs an independent greedy sweep over only its own segments. Band
/// results are merged in ascending band order, then cells that found no
/// capacity inside their band are recovered by a serial scan over all
/// segments in a canonical (desired x, id) order.
///
/// The result depends only on the input — the band boundaries are a pure
/// function of the row count, every band worker is a pure function of the
/// pre-merge state, and both merge and recovery run in a fixed order — so
/// any thread count (including 1) produces bitwise-identical segments.
/// Designs spanning a single band take the global serial sweep verbatim.
pub fn assign_cells_par(
    design: &Design,
    placement: &Placement,
    segments: &mut [Segment],
    par: &Parallelism,
) -> usize {
    let num_rows = design.rows().len();
    let num_bands = num_rows.div_ceil(BAND_ROWS);
    if num_bands <= 1 {
        return assign_cells(design, placement, segments);
    }
    let site = design
        .rows()
        .first()
        .map(|r| r.site_width())
        .unwrap_or(1.0);

    // Bin each x-sorted cell to the band of its nearest row. Rows are
    // sorted by y once; ties in |Δy| break toward the lower row index so
    // binning is total-order deterministic.
    let mut row_order: Vec<usize> = (0..num_rows).collect();
    row_order.sort_by(|&a, &b| {
        design.rows()[a]
            .y()
            .total_cmp(&design.rows()[b].y())
            .then(a.cmp(&b))
    });
    let sorted_ys: Vec<f64> = row_order.iter().map(|&r| design.rows()[r].y()).collect();
    let band_of_y = |y: f64| -> usize {
        let i = sorted_ys.partition_point(|&v| v < y);
        let k = if i == 0 {
            0
        } else if i >= sorted_ys.len() {
            sorted_ys.len() - 1
        } else if y - sorted_ys[i - 1] <= sorted_ys[i] - y {
            i - 1
        } else {
            i
        };
        row_order[k] / BAND_ROWS
    };
    let mut band_cells: Vec<Vec<NodeId>> = vec![Vec::new(); num_bands];
    for id in x_sorted_cells(design, placement) {
        band_cells[band_of_y(placement.lower_left(design, id).y)].push(id);
    }

    // Segments grouped by band; `build_segments` emits rows in order, so
    // each band's segment indices are ascending — the lowest-index
    // tie-break inside a band coincides with the global one.
    let row_ys: Vec<f64> = segments
        .iter()
        .map(|s| design.rows()[s.row].y())
        .collect();
    let mut band_segs: Vec<Vec<usize>> = vec![Vec::new(); num_bands];
    for (si, seg) in segments.iter().enumerate() {
        band_segs[seg.row / BAND_ROWS].push(si);
    }

    // Per-band sweeps: pure functions of the frozen segment state, with
    // band-local capacity tracking, merged below in band order.
    let segs_ro: &[Segment] = segments;
    let outcomes: Vec<BandOutcome> = chunked_map(par, num_bands, |b| {
        let locals = &band_segs[b];
        let res = ((locals.len() as f64).sqrt().ceil() as usize).clamp(4, 256);
        let mut index = BucketGrid::new(design.die(), res, res);
        for &si in locals {
            index.insert(Rect::new(
                segs_ro[si].interval.lo,
                row_ys[si],
                segs_ro[si].interval.hi,
                row_ys[si],
            ));
        }
        let mut extra_used = vec![0.0f64; locals.len()];
        let mut out = BandOutcome {
            assigned: Vec::new(),
            strays: Vec::new(),
        };
        for &id in &band_cells[b] {
            let w = site_width(design, id, site);
            let desired = placement.lower_left(design, id);
            let region = design.node(id).region();
            let best = index.nearest_by(desired, |k| {
                let seg = &segs_ro[locals[k as usize]];
                if seg.region != region
                    || seg.free() - extra_used[k as usize] + 1e-9 < w
                {
                    return None;
                }
                seg_cost(seg, row_ys[locals[k as usize]], desired, region, w)
            });
            match best {
                Some((k, _)) => {
                    extra_used[k as usize] += w;
                    out.assigned.push((locals[k as usize], id, w));
                }
                None => out.strays.push((id, w)),
            }
        }
        out
    });

    // Deterministic merge: band order, then each band's assignment order.
    let mut strays: Vec<(NodeId, f64)> = Vec::new();
    for out in outcomes {
        for (si, id, w) in out.assigned {
            segments[si].used += w;
            segments[si].cells.push(id);
        }
        strays.extend(out.strays);
    }

    // Cross-band recovery in canonical (desired x, id) order: full linear
    // scan over every segment, keeping the first strict improvement — the
    // same price and tie-break as the in-band search.
    strays.sort_by(|a, b| {
        placement
            .center(a.0)
            .x
            .total_cmp(&placement.center(b.0).x)
            .then(a.0.cmp(&b.0))
    });
    let mut failed = 0;
    for (id, w) in strays {
        let desired = placement.lower_left(design, id);
        let region = design.node(id).region();
        let mut best: Option<(f64, usize)> = None;
        for (si, seg) in segments.iter().enumerate() {
            if let Some(cost) = seg_cost(seg, row_ys[si], desired, region, w) {
                if best.map(|(c, _)| cost < c).unwrap_or(true) {
                    best = Some((cost, si));
                }
            }
        }
        match best {
            Some((_, si)) => {
                segments[si].used += w;
                segments[si].cells.push(id);
            }
            None => failed += 1,
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::super::segments::build_segments;
    use super::*;
    use rdp_db::{DesignBuilder, NodeKind, Placement};
    use rdp_geom::{Point, Rect};

    fn design(n: usize) -> rdp_db::Design {
        let mut b = DesignBuilder::new("tt");
        b.die(Rect::new(0.0, 0.0, 100.0, 30.0));
        for r in 0..3 {
            b.add_row(f64::from(r) * 10.0, 10.0, 1.0, 0.0, 100);
        }
        let mut prev = None;
        for i in 0..n {
            let id = b.add_node(format!("c{i}"), 4.0, 10.0, NodeKind::Movable).unwrap();
            if let Some(p) = prev {
                let net = b.add_net(format!("n{i}"), 1.0);
                b.add_pin(net, p, Point::ORIGIN);
                b.add_pin(net, id, Point::ORIGIN);
            }
            prev = Some(id);
        }
        b.finish().unwrap()
    }

    #[test]
    fn assigns_all_cells_with_capacity() {
        let d = design(30);
        let pl = Placement::new_centered(&d);
        let mut segs = build_segments(&d, &[]);
        let failed = assign_cells(&d, &pl, &mut segs);
        assert_eq!(failed, 0);
        let total: usize = segs.iter().map(|s| s.cells.len()).sum();
        assert_eq!(total, 30);
        // Capacity respected.
        for s in &segs {
            assert!(s.used <= s.interval.length() + 1e-9);
        }
    }

    #[test]
    fn prefers_nearby_rows() {
        let d = design(2);
        let mut pl = Placement::new_centered(&d);
        let c0 = d.find_node("c0").unwrap();
        pl.set_lower_left(&d, c0, Point::new(50.0, 20.0)); // row 2
        let mut segs = build_segments(&d, &[]);
        assign_cells(&d, &pl, &mut segs);
        let assigned_row = segs.iter().find(|s| s.cells.contains(&c0)).unwrap().row;
        assert_eq!(assigned_row, 2);
    }

    #[test]
    fn overfull_design_reports_failures() {
        // 100-wide rows × 3 = 75 cells of (ceil) width 4; ask for 80.
        let d = design(80);
        let pl = Placement::new_centered(&d);
        let mut segs = build_segments(&d, &[]);
        let failed = assign_cells(&d, &pl, &mut segs);
        assert!(failed >= 5, "expected ≥5 failures, got {failed}");
    }

    #[test]
    fn site_width_quantizes_up() {
        let d = design(1);
        let c0 = d.find_node("c0").unwrap();
        assert_eq!(site_width(&d, c0, 1.0), 4.0);
        assert_eq!(site_width(&d, c0, 3.0), 6.0);
    }

    /// A design wide/tall enough to span several bands.
    fn tall_design(n: usize, rows: usize) -> rdp_db::Design {
        let mut b = DesignBuilder::new("tall");
        b.die(Rect::new(0.0, 0.0, 200.0, rows as f64 * 10.0));
        for r in 0..rows {
            b.add_row(r as f64 * 10.0, 10.0, 1.0, 0.0, 200);
        }
        for i in 0..n {
            b.add_node(format!("c{i}"), 4.0, 10.0, NodeKind::Movable).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn banded_assignment_is_thread_invariant() {
        let d = tall_design(600, 80); // 80 rows -> 3 bands
        let mut pl = Placement::new_centered(&d);
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(99);
        for id in d.node_ids() {
            let x = rng.gen_range(0.0..196.0);
            let y = rng.gen_range(0.0..800.0);
            pl.set_lower_left(&d, id, Point::new(x, y));
        }
        let run = |threads: usize| {
            let par = rdp_geom::parallel::Parallelism::new(threads);
            let mut segs = build_segments(&d, &[]);
            let failed = assign_cells_par(&d, &pl, &mut segs, &par);
            (failed, segs)
        };
        let (f1, s1) = run(1);
        assert_eq!(f1, 0);
        let total: usize = s1.iter().map(|s| s.cells.len()).sum();
        assert_eq!(total, 600);
        for (f, segs) in [run(2), run(8)] {
            assert_eq!(f, f1);
            for (a, b) in s1.iter().zip(&segs) {
                assert_eq!(a.cells, b.cells, "row {}", a.row);
                assert_eq!(a.used.to_bits(), b.used.to_bits());
            }
        }
    }

    #[test]
    fn single_band_falls_back_to_global_sweep() {
        let d = tall_design(60, 20); // 20 rows -> one band
        let mut pl = Placement::new_centered(&d);
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(7);
        for id in d.node_ids() {
            let x = rng.gen_range(0.0..196.0);
            let y = rng.gen_range(0.0..200.0);
            pl.set_lower_left(&d, id, Point::new(x, y));
        }
        let par = rdp_geom::parallel::Parallelism::new(8);
        let mut banded = build_segments(&d, &[]);
        let fb = assign_cells_par(&d, &pl, &mut banded, &par);
        let mut global = build_segments(&d, &[]);
        let fg = assign_cells(&d, &pl, &mut global);
        assert_eq!(fb, fg);
        for (a, b) in banded.iter().zip(&global) {
            assert_eq!(a.cells, b.cells);
            assert_eq!(a.used.to_bits(), b.used.to_bits());
        }
    }

    /// The windowed index query must pick the same segment, in the same
    /// order of strict improvements, as a full linear scan over segments.
    #[test]
    fn windowed_query_matches_full_scan() {
        let d = design(40);
        let mut pl = Placement::new_centered(&d);
        // Scatter desired positions deterministically so rows compete.
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(77);
        for id in d.node_ids() {
            let x = rng.gen_range(0.0..96.0);
            let y = rng.gen_range(0.0..30.0);
            pl.set_lower_left(&d, id, Point::new(x, y));
        }
        let mut fast = build_segments(&d, &[]);
        let failed = assign_cells(&d, &pl, &mut fast);

        // Reference: a linear scan over all segments per cell, keeping the
        // first strict improvement.
        let mut slow = build_segments(&d, &[]);
        let site = 1.0;
        let mut cells: Vec<NodeId> =
            d.node_ids().filter(|&id| d.node(id).is_std_cell()).collect();
        cells.sort_by(|&a, &b| pl.center(a).x.total_cmp(&pl.center(b).x).then(a.cmp(&b)));
        let mut slow_failed = 0;
        for id in cells {
            let w = site_width(&d, id, site);
            let desired = pl.lower_left(&d, id);
            let region = d.node(id).region();
            let mut best: Option<(f64, usize)> = None;
            for (si, seg) in slow.iter().enumerate() {
                if seg.region != region || seg.free() + 1e-9 < w {
                    continue;
                }
                let row_y = d.rows()[seg.row].y();
                let dy = (row_y - desired.y).abs();
                let lo = seg.interval.lo;
                let hi = seg.interval.hi - w;
                let dx = if desired.x < lo {
                    lo - desired.x
                } else if desired.x > hi {
                    desired.x - hi
                } else {
                    0.0
                };
                let cost = dx + 2.0 * dy;
                if best.map(|(c, _)| cost < c).unwrap_or(true) {
                    best = Some((cost, si));
                }
            }
            match best {
                Some((_, si)) => {
                    slow[si].used += w;
                    slow[si].cells.push(id);
                }
                None => slow_failed += 1,
            }
        }

        assert_eq!(failed, slow_failed);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.cells, s.cells, "row {} span {:?}", f.row, f.interval);
            assert_eq!(f.used.to_bits(), s.used.to_bits());
        }
    }
}
