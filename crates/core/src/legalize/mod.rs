//! Fence-aware legalization: macros first, then standard cells.
//!
//! The flow matches the paper's: movable macros are snapped to legal,
//! non-overlapping spots (largest first) and become obstacles; the row
//! area left over is carved into *segments* (row pieces between
//! obstacles, tagged with the fence region covering them); each standard
//! cell is assigned to a nearby segment of matching region (Tetris-style
//! greedy assignment); finally each segment is packed optimally with the
//! Abacus dynamic clustering algorithm.

mod abacus;
mod macros;
mod segments;
mod tetris;

pub use abacus::pack_positions;
pub use macros::legalize_macros;
pub use segments::{build_segments, Segment};
pub use tetris::assign_cells_par;

use rdp_db::{Design, NodeKind, Placement};
use rdp_geom::parallel::{chunked_map, Parallelism};
use rdp_geom::Orient;

/// Aggregate legalization statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LegalizeStats {
    /// Sum of cell displacement (Manhattan) incurred by legalization.
    pub total_displacement: f64,
    /// Largest single displacement.
    pub max_displacement: f64,
    /// Displacement summed over fence-constrained cells only — the cost of
    /// enforcing fences at legalization time (large when global placement
    /// ignored them).
    pub fenced_displacement: f64,
    /// Number of fence-constrained movable cells.
    pub fenced_count: usize,
    /// Cells that could not be placed in any segment (0 on success).
    pub failed: usize,
}

/// Legalizes `placement` in place — macros, then standard cells — and
/// reports the displacement against the pre-call placement.
///
/// After this call every movable node is on-die, macros are
/// non-overlapping and row/site aligned, and standard cells are
/// row/site-legal within fence-respecting segments (`failed` counts the
/// cells that found no segment; 0 on any sanely sized design).
///
/// The standard-cell stages run on the worker pool: Tetris assignment over
/// independent horizontal row bands ([`assign_cells_par`]) and Abacus
/// packing over segments (each segment reads and writes only its own
/// disjoint cell set, so [`pack_positions`] runs concurrently and the
/// results are applied in segment order). The result depends only on the
/// input design and placement, never on the thread count. Macro
/// legalization and orientation normalization stay serial — they are a
/// vanishing fraction of legalization time.
pub fn legalize_with_displacement_par(
    design: &Design,
    placement: &mut Placement,
    par: &Parallelism,
) -> LegalizeStats {
    let before = placement.clone();
    // Normalize standard-cell orientations to row-legal ones first.
    for id in design.node_ids() {
        if design.node(id).is_std_cell() {
            let o = placement.orient(id);
            if o.swaps_dimensions() || o.quarter_turns() == 2 {
                placement.set_orient(id, if o.is_flipped() { Orient::FN } else { Orient::N });
            }
        }
    }

    let mut obstacles: Vec<rdp_geom::Rect> = design
        .node_ids()
        .filter(|&id| design.node(id).kind() == NodeKind::Fixed)
        .flat_map(|id| design.blocking_rects(id, placement))
        .collect();

    let macro_rects = legalize_macros(design, placement, &obstacles);
    obstacles.extend(macro_rects);

    let mut segments = build_segments(design, &obstacles);
    let stats = LegalizeStats {
        failed: assign_cells_par(design, placement, &mut segments, par),
        ..LegalizeStats::default()
    };

    // Pack every segment concurrently against the frozen placement, then
    // apply in segment order. Segments hold disjoint cell sets and each
    // pack reads only its own cells, so the order of application is
    // immaterial.
    let placement_ro: &Placement = placement;
    let seg_ro: &[Segment] = &segments;
    let packed = chunked_map(par, segments.len(), |i| {
        pack_positions(design, placement_ro, &seg_ro[i])
    });
    for seg in packed {
        for (id, p) in seg {
            placement.set_lower_left(design, id, p);
        }
    }
    displacement_stats(design, placement, &before, stats)
}

fn displacement_stats(
    design: &Design,
    placement: &Placement,
    before: &Placement,
    mut stats: LegalizeStats,
) -> LegalizeStats {
    for id in design.movable_ids() {
        let d = before.center(id).manhattan(placement.center(id));
        stats.total_displacement += d;
        stats.max_displacement = stats.max_displacement.max(d);
        if design.node(id).region().is_some() {
            stats.fenced_displacement += d;
            stats.fenced_count += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::validate::check_legal;
    use rdp_gen::{generate, GeneratorConfig};
    use rdp_geom::Point;

    /// Spread movers pseudo-randomly (deterministic) so legalization has
    /// realistic input instead of the all-at-center pile.
    fn scatter(design: &Design, placement: &mut Placement, seed: u64) {
        let mut rng = rdp_geom::rng::Rng::seed_from_u64(seed);
        let die = design.die();
        for id in design.movable_ids() {
            let (w, h) = placement.dims(design, id);
            let x = rng.gen_range(die.xl + w / 2.0..die.xh - w / 2.0);
            let y = rng.gen_range(die.yl + h / 2.0..die.yh - h / 2.0);
            placement.set_center(id, Point::new(x, y));
        }
    }

    #[test]
    fn legalizes_a_scattered_tiny_design() {
        let bench = generate(&GeneratorConfig::tiny("lg1", 21)).unwrap();
        let mut pl = bench.placement.clone();
        scatter(&bench.design, &mut pl, 1);
        let stats = legalize_with_displacement_par(&bench.design, &mut pl, &Parallelism::single());
        assert_eq!(stats.failed, 0, "all cells must find a segment");
        let report = check_legal(&bench.design, &pl, 50);
        assert!(
            report.is_legal(),
            "violations remain: {:?} (overlap {})",
            &report.violations[..report.violations.len().min(5)],
            report.total_overlap_area
        );
        assert!(stats.total_displacement > 0.0);
    }

    #[test]
    fn legalizes_hierarchical_design_without_fence_violations() {
        let bench = generate(&GeneratorConfig::hierarchical("lg2", 22, 2)).unwrap();
        let mut pl = bench.placement.clone();
        scatter(&bench.design, &mut pl, 2);
        let stats = legalize_with_displacement_par(&bench.design, &mut pl, &Parallelism::single());
        assert_eq!(stats.failed, 0);
        let report = check_legal(&bench.design, &pl, 50);
        assert_eq!(
            report.fence_violations, 0,
            "fence violations: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
        assert!(report.is_legal(), "violations: {:?}", &report.violations[..report.violations.len().min(5)]);
    }

    #[test]
    fn legalization_is_idempotent_in_cost() {
        let bench = generate(&GeneratorConfig::tiny("lg3", 23)).unwrap();
        let mut pl = bench.placement.clone();
        scatter(&bench.design, &mut pl, 3);
        legalize_with_displacement_par(&bench.design, &mut pl, &Parallelism::single());
        let h1 = rdp_db::hpwl::total_hpwl(&bench.design, &pl);
        // Re-legalizing an already legal placement should barely move cells.
        let stats = legalize_with_displacement_par(&bench.design, &mut pl, &Parallelism::single());
        let h2 = rdp_db::hpwl::total_hpwl(&bench.design, &pl);
        assert!(stats.failed == 0);
        assert!(
            (h1 - h2).abs() / h1 < 0.05,
            "second legalization changed HPWL {h1} -> {h2}"
        );
    }
}
