//! Congestion-aware detailed placement: global cell swapping, intra-row
//! window reordering, and cell flipping on a legalized placement.
//!
//! All moves preserve legality by construction (equal-footprint swaps,
//! within-gap reordering, outline-preserving flips). When a congestion map
//! is supplied, moves into hot gcells must additionally pay for the
//! congestion they add — the paper's congestion-aware detailed placement.

use crate::macro_handling::flip_std_cells;
use rdp_db::{Design, NetId, NodeId, Placement};
use rdp_geom::{Point, Rect};
use rdp_route::RouteGrid;

/// Knobs for the detailed placement passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailOptions {
    /// Rounds of (swap + reorder + flip [+ ISM]).
    pub passes: usize,
    /// Congestion price: HPWL gain required per unit of congestion-ratio
    /// increase at the destination (0 = congestion-blind).
    pub congestion_weight: f64,
    /// Also run independent-set matching (exact slot re-assignment within
    /// net-disjoint batches of equal-footprint cells). Off by default —
    /// it subsumes many swaps at higher cost per pass.
    pub ism: bool,
    /// Batch size for ISM (assignment solved exactly by permutation;
    /// values ≤ 6 are practical).
    pub ism_batch: usize,
    /// Also run gap relocation (single-cell moves into free row gaps near
    /// the incident-net optimum). Off by default.
    pub relocate: bool,
}

impl Default for DetailOptions {
    fn default() -> Self {
        DetailOptions {
            passes: 2,
            congestion_weight: 0.0,
            ism: false,
            ism_batch: 4,
            relocate: false,
        }
    }
}

/// Summary of a detailed-placement run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetailStats {
    /// Accepted global swaps.
    pub swaps: usize,
    /// Accepted window reorders.
    pub reorders: usize,
    /// Accepted flips.
    pub flips: usize,
    /// HPWL before the run.
    pub hpwl_before: f64,
    /// HPWL after the run.
    pub hpwl_after: f64,
}

/// HPWL of the nets incident to any node in `nodes`.
fn nets_hpwl(design: &Design, placement: &Placement, nets: &[NetId]) -> f64 {
    let mut total = 0.0;
    for &net in nets {
        let mut bb = Rect::empty();
        for &pid in design.net(net).pins() {
            bb.expand_to(placement.pin_position(design, pid));
        }
        total += design.net(net).weight() * bb.half_perimeter();
    }
    total
}

/// Distinct nets incident to `nodes`.
fn incident_nets(design: &Design, nodes: &[NodeId]) -> Vec<NetId> {
    let mut nets: Vec<NetId> = nodes
        .iter()
        .flat_map(|&n| design.node_pins(n).iter().map(|&p| design.pin(p).net()))
        .collect();
    nets.sort();
    nets.dedup();
    nets
}

/// The congestion ratio at a point (0 with no map).
fn congestion_at(map: Option<&RouteGrid>, p: Point) -> f64 {
    map.map(|g| g.gcell_congestion(g.gcell_of(p))).unwrap_or(0.0)
}

/// One pass of global swapping: every standard cell proposes to swap with
/// the equal-footprint cell nearest its incident-net optimal position;
/// the swap is accepted when the HPWL gain exceeds the congestion price.
/// Returns the number of accepted swaps.
pub fn global_swap_pass(
    design: &Design,
    placement: &mut Placement,
    congestion: Option<&RouteGrid>,
    congestion_weight: f64,
) -> usize {
    let cells: Vec<NodeId> = design
        .node_ids()
        .filter(|&id| design.node(id).is_std_cell())
        .collect();
    if cells.len() < 2 {
        return 0;
    }

    // Spatial buckets for candidate lookup.
    let die = design.die();
    let buckets_per_axis = ((cells.len() as f64).sqrt().ceil() as usize).clamp(4, 64);
    let bw = die.width() / buckets_per_axis as f64;
    let bh = die.height() / buckets_per_axis as f64;
    let bucket_of = |p: Point| -> (usize, usize) {
        (
            (((p.x - die.xl) / bw) as usize).min(buckets_per_axis - 1),
            (((p.y - die.yl) / bh) as usize).min(buckets_per_axis - 1),
        )
    };
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); buckets_per_axis * buckets_per_axis];
    for &id in &cells {
        let (bx, by) = bucket_of(placement.center(id));
        buckets[by * buckets_per_axis + bx].push(id);
    }

    let mut swaps = 0;
    for &id in &cells {
        let nets = incident_nets(design, &[id]);
        if nets.is_empty() {
            continue;
        }
        // Optimal position: center of the bounding box of incident nets'
        // other pins.
        let mut bb = Rect::empty();
        for &net in &nets {
            for &pid in design.net(net).pins() {
                if design.pin(pid).node() != id {
                    bb.expand_to(placement.pin_position(design, pid));
                }
            }
        }
        if bb.is_empty() {
            continue;
        }
        let target = bb.center();
        if target.manhattan(placement.center(id)) < bw {
            continue; // already near-optimal
        }
        // Candidates: equal-footprint cells in the target's bucket
        // neighborhood.
        let (tbx, tby) = bucket_of(target);
        let my_dims = placement.dims(design, id);
        let my_region = design.node(id).region();
        let mut best: Option<(f64, NodeId)> = None;
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let bx = tbx as i64 + dx;
                let by = tby as i64 + dy;
                if bx < 0 || by < 0 || bx >= buckets_per_axis as i64 || by >= buckets_per_axis as i64 {
                    continue;
                }
                for &cand in &buckets[by as usize * buckets_per_axis + bx as usize] {
                    if cand == id
                        || placement.dims(design, cand) != my_dims
                        || design.node(cand).region() != my_region
                    {
                        continue;
                    }
                    let all_nets = incident_nets(design, &[id, cand]);
                    let before = nets_hpwl(design, placement, &all_nets);
                    let (pa, pb) = (placement.center(id), placement.center(cand));
                    placement.set_center(id, pb);
                    placement.set_center(cand, pa);
                    let after = nets_hpwl(design, placement, &all_nets);
                    placement.set_center(id, pa);
                    placement.set_center(cand, pb);
                    // Congestion price: moving each cell into its new gcell.
                    let price = congestion_weight
                        * ((congestion_at(congestion, pb) - congestion_at(congestion, pa)).max(0.0));
                    let gain = before - after - price;
                    if gain > 1e-9 && best.map(|(g, _)| gain > g).unwrap_or(true) {
                        best = Some((gain, cand));
                    }
                }
            }
        }
        if let Some((_, cand)) = best {
            let (pa, pb) = (placement.center(id), placement.center(cand));
            placement.set_center(id, pb);
            placement.set_center(cand, pa);
            swaps += 1;
        }
    }
    swaps
}

/// One pass of intra-row window reordering: for every run of `window`
/// consecutive cells in a row, tries all permutations packed into the same
/// span and keeps the best. Returns accepted reorders.
pub fn reorder_pass(design: &Design, placement: &mut Placement, window: usize) -> usize {
    // Group std cells by row y.
    let mut by_row: std::collections::HashMap<i64, Vec<NodeId>> = std::collections::HashMap::new();
    for id in design.node_ids() {
        if design.node(id).is_std_cell() {
            let y = placement.lower_left(design, id).y;
            by_row.entry((y * 1024.0).round() as i64).or_default().push(id);
        }
    }
    let mut rows: Vec<_> = by_row.into_iter().collect();
    rows.sort_by_key(|(y, _)| *y);

    let mut accepted = 0;
    for (_, mut cells) in rows {
        cells.sort_by(|&a, &b| {
            placement
                .lower_left(design, a)
                .x
                .partial_cmp(&placement.lower_left(design, b).x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if cells.len() < window {
            continue;
        }
        for start in 0..=cells.len() - window {
            let slice: Vec<NodeId> = cells[start..start + window].to_vec();
            // Only reorder windows of abutting cells: a permutation then
            // repacks exactly the same span, so it can neither spill into a
            // gap (which might hold an obstacle) nor collide with neighbors.
            let left = placement.lower_left(design, slice[0]).x;
            let contiguous = slice.windows(2).all(|w| {
                (placement.rect(design, w[0]).xh - placement.lower_left(design, w[1]).x).abs() < 1e-6
            });
            // Cells abutting across a fence boundary must not trade places.
            let same_region = slice
                .iter()
                .all(|&id| design.node(id).region() == design.node(slice[0]).region());
            if !contiguous || !same_region {
                continue;
            }
            let nets = incident_nets(design, &slice);
            let before = nets_hpwl(design, placement, &nets);
            let orig: Vec<Point> = slice.iter().map(|&id| placement.lower_left(design, id)).collect();
            let y = orig[0].y;

            let mut best_perm: Option<(f64, Vec<usize>)> = None;
            let mut perm: Vec<usize> = (0..window).collect();
            // Heap's algorithm over the tiny window.
            fn heaps(k: usize, perm: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
                if k <= 1 {
                    out.push(perm.clone());
                    return;
                }
                for i in 0..k {
                    heaps(k - 1, perm, out);
                    if k.is_multiple_of(2) {
                        perm.swap(i, k - 1);
                    } else {
                        perm.swap(0, k - 1);
                    }
                }
            }
            let mut perms = Vec::new();
            heaps(window, &mut perm, &mut perms);
            for p in &perms {
                let mut x = left;
                for &k in p {
                    placement.set_lower_left(design, slice[k], Point::new(x, y));
                    x += placement.rect(design, slice[k]).width();
                }
                let wl = nets_hpwl(design, placement, &nets);
                if wl + 1e-9 < before && best_perm.as_ref().map(|(w, _)| wl < *w).unwrap_or(true) {
                    best_perm = Some((wl, p.clone()));
                }
            }
            match best_perm {
                Some((_, p)) => {
                    let mut x = left;
                    for &k in &p {
                        placement.set_lower_left(design, slice[k], Point::new(x, y));
                        x += placement.rect(design, slice[k]).width();
                    }
                    // Keep the row's cell list x-sorted so later windows see
                    // consistent ordering.
                    for (slot, &k) in p.iter().enumerate() {
                        cells[start + slot] = slice[k];
                    }
                    accepted += 1;
                }
                None => {
                    // Restore.
                    for (k, &id) in slice.iter().enumerate() {
                        placement.set_lower_left(design, id, orig[k]);
                    }
                }
            }
        }
    }
    accepted
}

/// One pass of gap relocation: each standard cell may move into a free gap
/// near its incident-net optimal position — the move swaps cannot express
/// when no equal-footprint partner exists there. Vacated space is not
/// reused within the pass (gaps only shrink), which keeps the bookkeeping
/// exact. Returns the number of relocations.
pub fn relocate_pass(
    design: &Design,
    placement: &mut Placement,
    congestion: Option<&RouteGrid>,
    congestion_weight: f64,
) -> usize {
    use crate::legalize::build_segments;
    // Obstacles: fixed blocks (shape-aware) and macros at their positions.
    let obstacles: Vec<Rect> = design
        .node_ids()
        .filter(|&id| {
            let n = design.node(id);
            n.kind() == rdp_db::NodeKind::Fixed || n.is_macro()
        })
        .flat_map(|id| design.blocking_rects(id, placement))
        .collect();
    let segments = build_segments(design, &obstacles);

    // Free gaps per segment, derived from the cells currently in it.
    struct Gap {
        row: usize,
        region: Option<rdp_db::RegionId>,
        lo: f64,
        hi: f64,
    }
    let mut gaps: Vec<Gap> = Vec::new();
    for seg in &segments {
        let row = design.rows()[seg.row];
        let mut spans: Vec<(f64, f64)> = design
            .node_ids()
            .filter(|&id| design.node(id).is_std_cell())
            .map(|id| placement.rect(design, id))
            .filter(|r| (r.yl - row.y()).abs() < 1e-6 && r.xl >= seg.interval.lo - 1e-6 && r.xh <= seg.interval.hi + 1e-6)
            .map(|r| (r.xl, r.xh))
            .collect();
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut cursor = seg.interval.lo;
        for (xl, xh) in spans {
            if xl > cursor + 1e-9 {
                gaps.push(Gap { row: seg.row, region: seg.region, lo: cursor, hi: xl });
            }
            cursor = cursor.max(xh);
        }
        if seg.interval.hi > cursor + 1e-9 {
            gaps.push(Gap { row: seg.row, region: seg.region, lo: cursor, hi: seg.interval.hi });
        }
    }

    let site = design.rows().first().map(|r| r.site_width()).unwrap_or(1.0);
    let mut moves = 0;
    for id in design.node_ids() {
        if !design.node(id).is_std_cell() {
            continue;
        }
        let nets = incident_nets(design, &[id]);
        if nets.is_empty() {
            continue;
        }
        let mut bb = Rect::empty();
        for &net in &nets {
            for &pid in design.net(net).pins() {
                if design.pin(pid).node() != id {
                    bb.expand_to(placement.pin_position(design, pid));
                }
            }
        }
        if bb.is_empty() {
            continue;
        }
        let target = bb.center();
        let cur = placement.center(id);
        let (w, h) = placement.dims(design, id);
        if target.manhattan(cur) < 2.0 * h {
            continue; // already close
        }
        let w_sites = (w / site).ceil() * site;
        let region = design.node(id).region();
        let before = nets_hpwl(design, placement, &nets);
        let orig_ll = placement.lower_left(design, id);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, gap idx, x)
        for (gi, gap) in gaps.iter().enumerate() {
            if gap.region != region || gap.hi - gap.lo + 1e-9 < w_sites {
                continue;
            }
            let row_y = design.rows()[gap.row].y();
            if (row_y - target.y).abs() > 6.0 * h {
                continue; // too far vertically to be worth evaluating
            }
            // Best x inside the gap: clamp target, snap to site.
            let want = target.x - w / 2.0;
            let x = rdp_geom::clamp(want, gap.lo, gap.hi - w_sites);
            let x = gap.lo + ((x - gap.lo) / site).round() * site;
            let x = rdp_geom::clamp(x, gap.lo, gap.hi - w_sites);
            placement.set_lower_left(design, id, Point::new(x, row_y));
            let after = nets_hpwl(design, placement, &nets);
            placement.set_lower_left(design, id, orig_ll);
            let price = congestion_weight
                * (congestion_at(congestion, Point::new(x + w / 2.0, row_y + h / 2.0))
                    - congestion_at(congestion, cur))
                .max(0.0);
            let gain = before - after - price;
            if gain > 1e-9 && best.map(|(g, _, _)| gain > g).unwrap_or(true) {
                best = Some((gain, gi, x));
            }
        }
        if let Some((_, gi, x)) = best {
            let row_y = design.rows()[gaps[gi].row].y();
            placement.set_lower_left(design, id, Point::new(x, row_y));
            // Shrink the used gap (split into remnants).
            let (lo, hi) = (gaps[gi].lo, gaps[gi].hi);
            let (row, reg) = (gaps[gi].row, gaps[gi].region);
            gaps[gi].hi = x; // left remnant (may become empty)
            if x + w_sites < hi - 1e-9 {
                gaps.push(Gap { row, region: reg, lo: x + w_sites, hi });
            }
            let _ = lo;
            moves += 1;
        }
    }
    moves
}

/// One pass of independent-set matching: batches of mutually net-disjoint,
/// equal-footprint, same-region cells trade positions via an exactly-solved
/// assignment (their HPWL contributions are separable precisely because
/// they share no nets). Returns the number of batches whose assignment
/// changed.
pub fn ism_pass(
    design: &Design,
    placement: &mut Placement,
    congestion: Option<&RouteGrid>,
    congestion_weight: f64,
    batch: usize,
) -> usize {
    let batch = batch.clamp(2, 6);
    // Group by footprint and region so any slot permutation stays legal.
    let mut groups: std::collections::HashMap<(u64, u64, Option<rdp_db::RegionId>), Vec<NodeId>> =
        std::collections::HashMap::new();
    for id in design.node_ids() {
        if !design.node(id).is_std_cell() {
            continue;
        }
        let (w, h) = placement.dims(design, id);
        groups
            .entry(((w * 1024.0) as u64, (h * 1024.0) as u64, design.node(id).region()))
            .or_default()
            .push(id);
    }
    let mut groups: Vec<_> = groups.into_values().collect();
    groups.sort_by_key(|g| g.first().copied());

    let mut improved = 0;
    for group in groups {
        // Build net-disjoint batches greedily in id order.
        let mut used_nets: Vec<NetId> = Vec::new();
        let mut current: Vec<NodeId> = Vec::new();
        let mut batches: Vec<Vec<NodeId>> = Vec::new();
        for id in group {
            let nets = incident_nets(design, &[id]);
            if nets.iter().any(|n| used_nets.contains(n)) {
                continue;
            }
            used_nets.extend(nets);
            current.push(id);
            if current.len() == batch {
                batches.push(std::mem::take(&mut current));
                used_nets.clear();
            }
        }
        for cells in batches {
            let k = cells.len();
            let slots: Vec<Point> = cells.iter().map(|&id| placement.center(id)).collect();
            // Exact per-(cell, slot) costs: separable since nets are
            // disjoint across the batch.
            let mut cost = vec![vec![0.0f64; k]; k];
            for (i, &id) in cells.iter().enumerate() {
                let nets = incident_nets(design, &[id]);
                let original = placement.center(id);
                for (j, &slot) in slots.iter().enumerate() {
                    placement.set_center(id, slot);
                    let wl = nets_hpwl(design, placement, &nets);
                    let price = congestion_weight
                        * (congestion_at(congestion, slot) - congestion_at(congestion, original))
                            .max(0.0);
                    cost[i][j] = wl + price;
                }
                placement.set_center(id, original);
            }
            // Exact assignment by permutation search (k ≤ 6).
            let mut perm: Vec<usize> = (0..k).collect();
            let mut best: Vec<usize> = perm.clone();
            let identity_cost: f64 = (0..k).map(|i| cost[i][i]).sum();
            let mut best_cost = identity_cost;
            #[allow(clippy::too_many_arguments)]
            fn search(
                i: usize,
                k: usize,
                taken: &mut Vec<bool>,
                perm: &mut Vec<usize>,
                cost: &[Vec<f64>],
                acc: f64,
                best_cost: &mut f64,
                best: &mut Vec<usize>,
            ) {
                if acc >= *best_cost {
                    return; // branch and bound
                }
                if i == k {
                    *best_cost = acc;
                    best.clone_from(perm);
                    return;
                }
                for j in 0..k {
                    if !taken[j] {
                        taken[j] = true;
                        perm[i] = j;
                        search(i + 1, k, taken, perm, cost, acc + cost[i][j], best_cost, best);
                        taken[j] = false;
                    }
                }
            }
            let mut taken = vec![false; k];
            search(0, k, &mut taken, &mut perm, &cost, 0.0, &mut best_cost, &mut best);
            if best_cost + 1e-9 < identity_cost {
                for (i, &id) in cells.iter().enumerate() {
                    placement.set_center(id, slots[best[i]]);
                }
                improved += 1;
            }
        }
    }
    improved
}

/// Runs the full detailed-placement schedule.
pub fn detailed_place(
    design: &Design,
    placement: &mut Placement,
    congestion: Option<&RouteGrid>,
    opts: DetailOptions,
) -> DetailStats {
    let mut stats = DetailStats {
        hpwl_before: rdp_db::hpwl::total_hpwl(design, placement),
        ..DetailStats::default()
    };
    for _ in 0..opts.passes {
        stats.swaps += global_swap_pass(design, placement, congestion, opts.congestion_weight);
        stats.reorders += reorder_pass(design, placement, 3);
        stats.flips += flip_std_cells(design, placement);
        if opts.ism {
            stats.swaps +=
                ism_pass(design, placement, congestion, opts.congestion_weight, opts.ism_batch);
        }
        if opts.relocate {
            stats.swaps += relocate_pass(design, placement, congestion, opts.congestion_weight);
        }
    }
    stats.hpwl_after = rdp_db::hpwl::total_hpwl(design, placement);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legalize::legalize_with_displacement_par;
    use rdp_db::validate::check_legal;
    use rdp_gen::{generate, GeneratorConfig};
    use rdp_geom::parallel::Parallelism;

    fn legal_bench(seed: u64) -> (rdp_db::Design, Placement) {
        let bench = generate(&GeneratorConfig::tiny("dp", seed)).unwrap();
        let mut pl = bench.placement.clone();
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(seed);
        let die = bench.design.die();
        for id in bench.design.movable_ids() {
            let (w, h) = pl.dims(&bench.design, id);
            pl.set_center(
                id,
                Point::new(
                    rng.gen_range(die.xl + w / 2.0..die.xh - w / 2.0),
                    rng.gen_range(die.yl + h / 2.0..die.yh - h / 2.0),
                ),
            );
        }
        legalize_with_displacement_par(&bench.design, &mut pl, &Parallelism::single());
        (bench.design, pl)
    }

    #[test]
    fn detailed_placement_reduces_hpwl_and_keeps_legality() {
        let (design, mut pl) = legal_bench(31);
        let stats = detailed_place(&design, &mut pl, None, DetailOptions::default());
        assert!(
            stats.hpwl_after <= stats.hpwl_before,
            "HPWL got worse: {} -> {}",
            stats.hpwl_before,
            stats.hpwl_after
        );
        assert!(
            stats.swaps + stats.reorders + stats.flips > 0,
            "nothing improved on a random-legalized placement?"
        );
        let report = check_legal(&design, &pl, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
    }

    #[test]
    fn reorder_pass_improves_or_keeps() {
        let (design, mut pl) = legal_bench(32);
        let before = rdp_db::hpwl::total_hpwl(&design, &pl);
        reorder_pass(&design, &mut pl, 3);
        let after = rdp_db::hpwl::total_hpwl(&design, &pl);
        assert!(after <= before + 1e-6);
        let report = check_legal(&design, &pl, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
    }

    #[test]
    fn relocate_pass_improves_and_keeps_legality() {
        let (design, mut pl) = legal_bench(37);
        let before = rdp_db::hpwl::total_hpwl(&design, &pl);
        let moves = relocate_pass(&design, &mut pl, None, 0.0);
        let after = rdp_db::hpwl::total_hpwl(&design, &pl);
        assert!(after <= before + 1e-6, "relocation made HPWL worse: {before} -> {after}");
        assert!(moves > 0, "random-legalized placement should have relocation gains");
        let report = check_legal(&design, &pl, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
    }

    #[test]
    fn relocate_respects_fences() {
        use rdp_gen::GeneratorConfig;
        let bench = generate(&GeneratorConfig::hierarchical("dpr", 38, 2)).unwrap();
        let mut pl = bench.placement.clone();
        legalize_with_displacement_par(&bench.design, &mut pl, &Parallelism::single());
        relocate_pass(&bench.design, &mut pl, None, 0.0);
        let report = check_legal(&bench.design, &pl, 30);
        assert_eq!(
            report.fence_violations, 0,
            "relocation crossed a fence: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
        assert!(report.is_legal(), "violations: {:?}", &report.violations[..report.violations.len().min(5)]);
    }

    #[test]
    fn ism_pass_improves_and_keeps_legality() {
        let (design, mut pl) = legal_bench(34);
        let before = rdp_db::hpwl::total_hpwl(&design, &pl);
        let improved = ism_pass(&design, &mut pl, None, 0.0, 4);
        let after = rdp_db::hpwl::total_hpwl(&design, &pl);
        assert!(after <= before + 1e-6, "ISM made HPWL worse: {before} -> {after}");
        assert!(improved > 0, "random-legalized placement should have ISM gains");
        let report = check_legal(&design, &pl, 20);
        assert!(report.is_legal(), "violations: {:?}", report.violations);
    }

    #[test]
    fn ism_respects_fence_regions() {
        use rdp_gen::GeneratorConfig;
        let bench = generate(&GeneratorConfig::hierarchical("dpi", 35, 2)).unwrap();
        let mut pl = bench.placement.clone();
        legalize_with_displacement_par(&bench.design, &mut pl, &Parallelism::single());
        ism_pass(&bench.design, &mut pl, None, 0.0, 4);
        let report = check_legal(&bench.design, &pl, 30);
        assert_eq!(
            report.fence_violations, 0,
            "ISM crossed a fence: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
    }

    #[test]
    fn detailed_place_with_ism_enabled() {
        let (design, mut pl) = legal_bench(36);
        let stats = detailed_place(
            &design,
            &mut pl,
            None,
            DetailOptions { ism: true, passes: 1, ..DetailOptions::default() },
        );
        assert!(stats.hpwl_after <= stats.hpwl_before);
        assert!(check_legal(&design, &pl, 10).is_legal());
    }

    #[test]
    fn congestion_price_blocks_marginal_swaps() {
        let (design, pl) = legal_bench(33);
        // A perfectly uniform congestion field prices every move equally
        // (zero delta), so the priced run must equal the blind run. A
        // design-derived grid would have carved blockages and non-uniform
        // ratios, so build a uniform grid explicitly.
        let die = design.die();
        let mut grid = rdp_route::RouteGrid::uniform(
            8,
            8,
            rdp_geom::Point::new(die.xl, die.yl),
            die.width() / 8.0,
            die.height() / 8.0,
            10.0,
            10.0,
        );
        for e in grid.edge_ids().collect::<Vec<_>>() {
            grid.add_usage(e, 1e3);
        }
        let mut pl_a = pl.clone();
        let swaps_uniform = global_swap_pass(&design, &mut pl_a, Some(&grid), 1e9);
        let mut pl_b = pl.clone();
        let swaps_blind = global_swap_pass(&design, &mut pl_b, None, 0.0);
        assert_eq!(swaps_uniform, swaps_blind, "uniform congestion must price nothing");
    }
}
