//! Abacus: optimal single-row packing by dynamic cluster merging
//! (Spindler, Schlichtmann, Johannes — the standard row legalizer).
//!
//! Given the cells assigned to one segment and their desired x positions,
//! Abacus places them without overlap, minimizing the total squared
//! displacement, by greedily growing and merging *clusters* whose optimal
//! position is the weighted mean of their members' desired positions.

use super::segments::Segment;
use rdp_db::{Design, NodeId, Placement};
use rdp_geom::Point;

#[derive(Debug, Clone)]
struct Cluster {
    /// Total weight (one per cell here; pin counts would also be valid).
    e: f64,
    /// Σ e·(desired − offset-in-cluster).
    q: f64,
    /// Total width.
    w: f64,
    /// Current optimal left edge.
    x: f64,
    /// First cell index (into the segment's ordered cell list).
    first: usize,
    /// One past the last cell index.
    last: usize,
}

/// Computes the packed lower-left position of every cell in `seg` (placed
/// at the segment's row with site-aligned x) without touching
/// `placement`. Reads only the segment's own cells' current positions, so
/// distinct segments (which hold disjoint cell sets) can be packed
/// concurrently and the results applied afterwards in any order.
pub fn pack_positions(
    design: &Design,
    placement: &Placement,
    seg: &Segment,
) -> Vec<(NodeId, Point)> {
    if seg.cells.is_empty() {
        return Vec::new();
    }
    let row = design.rows()[seg.row];
    let site = row.site_width();
    let quant = |w: f64| (w / site).ceil() * site;

    // Order by desired x.
    let mut cells: Vec<NodeId> = seg.cells.clone();
    cells.sort_by(|&a, &b| {
        placement
            .lower_left(design, a)
            .x
            .total_cmp(&placement.lower_left(design, b).x)
            .then(a.cmp(&b))
    });
    let desired: Vec<f64> = cells
        .iter()
        .map(|&id| placement.lower_left(design, id).x)
        .collect();
    let widths: Vec<f64> = cells
        .iter()
        .map(|&id| quant(design.node(id).width()))
        .collect();

    let lo = seg.interval.lo;
    let hi = seg.interval.hi;

    let mut clusters: Vec<Cluster> = Vec::with_capacity(cells.len());
    for i in 0..cells.len() {
        let mut c = Cluster {
            e: 1.0,
            q: desired[i],
            w: widths[i],
            x: desired[i],
            first: i,
            last: i + 1,
        };
        c.x = rdp_geom::clamp(c.q / c.e, lo, (hi - c.w).max(lo));
        // Merge while overlapping the previous cluster.
        while let Some(prev) = clusters.last() {
            if prev.x + prev.w > c.x + 1e-12 {
                let prev = clusters.pop().expect("nonempty");
                let mut merged = Cluster {
                    e: prev.e + c.e,
                    q: prev.q + c.q - c.e * prev.w,
                    w: prev.w + c.w,
                    x: 0.0,
                    first: prev.first,
                    last: c.last,
                };
                // q accounting: members of `c` sit at offset prev.w within
                // the merged cluster, so their desired positions shift.
                merged.x = rdp_geom::clamp(merged.q / merged.e, lo, (hi - merged.w).max(lo));
                c = merged;
            } else {
                break;
            }
        }
        clusters.push(c);
    }

    // Emit positions. Snapping each cluster independently can round two
    // abutting clusters into overlap, so pack left-to-right against the
    // previous cluster's end, then sweep right-to-left to pull any overflow
    // back inside the segment (total width ≤ segment length guarantees a
    // feasible packing on the site grid).
    let mut starts: Vec<f64> = Vec::with_capacity(clusters.len());
    let mut prev_end = lo;
    for c in &clusters {
        let snapped = lo + ((c.x - lo) / site).round() * site;
        let start = snapped.max(prev_end);
        starts.push(start);
        prev_end = start + c.w;
    }
    let mut limit = lo + ((hi - lo) / site).floor() * site;
    for (ci, c) in clusters.iter().enumerate().rev() {
        if starts[ci] + c.w > limit + 1e-9 {
            starts[ci] = (limit - c.w).max(lo);
        }
        limit = starts[ci];
    }
    let mut packed = Vec::with_capacity(cells.len());
    for (ci, c) in clusters.iter().enumerate() {
        let mut x = starts[ci];
        for i in c.first..c.last {
            packed.push((cells[i], Point::new(x, row.y())));
            x += widths[i];
        }
    }
    packed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{DesignBuilder, NodeKind, Placement};
    use rdp_geom::{Interval, Rect};

    fn design(n: usize, width: f64) -> rdp_db::Design {
        let mut b = DesignBuilder::new("ab");
        b.die(Rect::new(0.0, 0.0, 100.0, 10.0));
        b.add_row(0.0, 10.0, 1.0, 0.0, 100);
        let mut prev = None;
        for i in 0..n {
            let id = b.add_node(format!("c{i}"), width, 10.0, NodeKind::Movable).unwrap();
            if let Some(p) = prev {
                let net = b.add_net(format!("n{i}"), 1.0);
                b.add_pin(net, p, rdp_geom::Point::ORIGIN);
                b.add_pin(net, id, rdp_geom::Point::ORIGIN);
            }
            prev = Some(id);
        }
        b.finish().unwrap()
    }

    fn segment_with(d: &rdp_db::Design, lo: f64, hi: f64) -> Segment {
        Segment {
            row: 0,
            interval: Interval::new(lo, hi),
            region: None,
            used: 0.0,
            cells: d.node_ids().filter(|&i| d.node(i).is_std_cell()).collect(),
        }
    }

    /// Packs `seg` and writes the positions into `pl`.
    fn pack(d: &rdp_db::Design, pl: &mut Placement, seg: &Segment) {
        for (id, p) in pack_positions(d, pl, seg) {
            pl.set_lower_left(d, id, p);
        }
    }

    fn assert_packed(d: &rdp_db::Design, pl: &Placement, seg: &Segment) {
        let mut rects: Vec<_> = seg
            .cells
            .iter()
            .map(|&id| pl.rect(d, id))
            .collect();
        rects.sort_by(|a, b| a.xl.total_cmp(&b.xl));
        for w in rects.windows(2) {
            assert!(
                w[0].xh <= w[1].xl + 1e-9,
                "overlap: {} and {}",
                w[0],
                w[1]
            );
        }
        for r in &rects {
            assert!(r.xl >= seg.interval.lo - 1e-9 && r.xh <= seg.interval.hi + 1e-9);
            assert!((r.xl.fract()).abs() < 1e-9, "off-site {}", r.xl);
            assert_eq!(r.yl, 0.0);
        }
    }

    #[test]
    fn separates_overlapping_cells() {
        let d = design(5, 4.0);
        let mut pl = Placement::new_centered(&d);
        // Everyone wants x = 48.
        for id in d.node_ids() {
            pl.set_lower_left(&d, id, rdp_geom::Point::new(48.0, 0.0));
        }
        let seg = segment_with(&d, 0.0, 100.0);
        pack(&d, &mut pl, &seg);
        assert_packed(&d, &pl, &seg);
        // Cluster centers on the common desired position.
        let min_x = seg.cells.iter().map(|&id| pl.lower_left(&d, id).x).fold(f64::INFINITY, f64::min);
        let max_x = seg.cells.iter().map(|&id| pl.rect(&d, id).xh).fold(0.0f64, f64::max);
        assert!((min_x - 38.0).abs() <= 2.0, "cluster start {min_x}");
        assert!((max_x - 58.0).abs() <= 2.0, "cluster end {max_x}");
    }

    #[test]
    fn well_separated_cells_do_not_move() {
        let d = design(3, 4.0);
        let mut pl = Placement::new_centered(&d);
        for (i, id) in d.node_ids().enumerate() {
            pl.set_lower_left(&d, id, rdp_geom::Point::new(10.0 + 20.0 * i as f64, 0.0));
        }
        let before: Vec<f64> = d.node_ids().map(|id| pl.lower_left(&d, id).x).collect();
        let seg = segment_with(&d, 0.0, 100.0);
        pack(&d, &mut pl, &seg);
        let after: Vec<f64> = d.node_ids().map(|id| pl.lower_left(&d, id).x).collect();
        assert_eq!(before, after, "already-legal cells must not move");
    }

    #[test]
    fn boundary_clamping() {
        let d = design(3, 10.0);
        let mut pl = Placement::new_centered(&d);
        // Everyone wants x = 95: must clamp into [0, 100] as a 30-wide block.
        for id in d.node_ids() {
            pl.set_lower_left(&d, id, rdp_geom::Point::new(95.0, 0.0));
        }
        let seg = segment_with(&d, 0.0, 100.0);
        pack(&d, &mut pl, &seg);
        assert_packed(&d, &pl, &seg);
        let max_x = seg.cells.iter().map(|&id| pl.rect(&d, id).xh).fold(0.0f64, f64::max);
        assert!(max_x <= 100.0 + 1e-9);
        let min_x = seg.cells.iter().map(|&id| pl.lower_left(&d, id).x).fold(f64::INFINITY, f64::min);
        assert!((min_x - 70.0).abs() < 1e-9);
    }

    #[test]
    fn exactly_full_segment_packs() {
        let d = design(10, 5.0);
        let mut pl = Placement::new_centered(&d);
        for (i, id) in d.node_ids().enumerate() {
            pl.set_lower_left(&d, id, rdp_geom::Point::new(3.0 * i as f64, 0.0));
        }
        let seg = segment_with(&d, 0.0, 50.0);
        pack(&d, &mut pl, &seg);
        assert_packed(&d, &pl, &seg);
    }

    #[test]
    fn empty_segment_is_noop() {
        let d = design(1, 4.0);
        let mut pl = Placement::new_centered(&d);
        let seg = Segment {
            row: 0,
            interval: Interval::new(0.0, 10.0),
            region: None,
            used: 0.0,
            cells: vec![],
        };
        pack(&d, &mut pl, &seg); // must not panic
    }
}
