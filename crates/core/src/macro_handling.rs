//! Macro orientation optimization — the mixed-size "rotation force" and
//! "flipping force" of the unified analytical placement line of work,
//! realized as periodic discrete re-selection.
//!
//! The original formulation adds a continuous rotation variable per macro
//! to the analytical objective. This reproduction substitutes a discrete
//! variant (documented in DESIGN.md): after global placement, each macro
//! greedily adopts whichever of the eight Bookshelf orientations minimizes
//! the exact HPWL of its incident nets, holding everything else fixed.
//! It optimizes the same objective term and is robust at the design sizes
//! we run.

use rdp_db::{Design, NetId, NodeId, Placement};
use rdp_geom::{transform, Orient, Rect};

/// HPWL of `nets` under `placement`, with the pins of `node` overridden to
/// orientation `orient`.
fn incident_hpwl(
    design: &Design,
    placement: &Placement,
    node: NodeId,
    orient: Orient,
    nets: &[NetId],
) -> f64 {
    let center = placement.center(node);
    let mut total = 0.0;
    for &net in nets {
        let mut bb = Rect::empty();
        for &pid in design.net(net).pins() {
            let pin = design.pin(pid);
            let pos = if pin.node() == node {
                center + transform::transform_offset(pin.offset(), orient)
            } else {
                placement.pin_position(design, pid)
            };
            bb.expand_to(pos);
        }
        total += design.net(net).weight() * bb.half_perimeter();
    }
    total
}

/// Distinct nets incident to `node`.
fn incident_nets(design: &Design, node: NodeId) -> Vec<NetId> {
    let mut nets: Vec<NetId> = design
        .node_pins(node)
        .iter()
        .map(|&p| design.pin(p).net())
        .collect();
    nets.sort();
    nets.dedup();
    nets
}

/// Re-selects the orientation of every movable macro to the incident-HPWL
/// argmin over all eight orientations (rotations and flips). Returns the
/// number of macros whose orientation changed.
///
/// This is how the flow realizes the paper's macro rotation: a discrete
/// re-selection rather than a continuous rotation force. Experiment
/// **T5** ablates it as a whole (`PlaceOptions::without_rotation`).
pub fn optimize_macro_orientations(design: &Design, placement: &mut Placement) -> usize {
    let mut changed = 0;
    for id in design.macro_ids() {
        let nets = incident_nets(design, id);
        if nets.is_empty() {
            continue;
        }
        let current = placement.orient(id);
        let mut best = current;
        let mut best_wl = incident_hpwl(design, placement, id, current, &nets);
        for o in Orient::ALL {
            if o == current {
                continue;
            }
            let wl = incident_hpwl(design, placement, id, o, &nets);
            if wl + 1e-9 < best_wl {
                best_wl = wl;
                best = o;
            }
        }
        if best != current {
            placement.set_orient(id, best);
            changed += 1;
        }
    }
    changed
}

/// Mirror-flip pass for standard cells (`N` ↔ `FN`): adopts the flip when
/// it reduces incident HPWL. Returns the number of cells flipped. Run
/// during detailed placement, after legalization (flipping preserves the
/// outline, so legality is unaffected).
pub fn flip_std_cells(design: &Design, placement: &mut Placement) -> usize {
    let mut flipped = 0;
    for id in design.node_ids() {
        if !design.node(id).is_std_cell() {
            continue;
        }
        let nets = incident_nets(design, id);
        if nets.is_empty() {
            continue;
        }
        let current = placement.orient(id);
        let alt = current.flipped();
        let cur_wl = incident_hpwl(design, placement, id, current, &nets);
        let alt_wl = incident_hpwl(design, placement, id, alt, &nets);
        if alt_wl + 1e-9 < cur_wl {
            placement.set_orient(id, alt);
            flipped += 1;
        }
    }
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{DesignBuilder, NodeKind};
    use rdp_geom::Point;

    /// A macro with one off-center pin, pulled by a fixed anchor.
    fn macro_design(anchor: Point) -> (Design, NodeId) {
        let mut b = DesignBuilder::new("mo");
        b.die(Rect::new(0.0, 0.0, 200.0, 200.0));
        b.add_row(0.0, 10.0, 1.0, 0.0, 200);
        let m = b.add_node("m", 40.0, 20.0, NodeKind::Movable).unwrap();
        let t = b.add_node("t", 1.0, 1.0, NodeKind::FixedNi).unwrap();
        let n = b.add_net("n", 1.0);
        // Pin on the right edge of the macro (N orientation).
        b.add_pin(n, m, Point::new(18.0, 0.0));
        b.add_pin(n, t, Point::ORIGIN);
        let d = b.finish().unwrap();
        let mut pl = Placement::new_centered(&d);
        pl.set_center(m, Point::new(100.0, 100.0));
        let tid = d.find_node("t").unwrap();
        pl.set_center(tid, anchor);
        (d, m)
    }

    #[test]
    fn rotation_turns_pin_toward_anchor() {
        // Anchor on the LEFT: flipping the macro moves the pin from the
        // right edge to the left edge, saving ~36 units of wire.
        let (d, m) = macro_design(Point::new(10.0, 100.0));
        let mut pl = rdp_db::Placement::new_centered(&d);
        pl.set_center(m, Point::new(100.0, 100.0));
        let t = d.find_node("t").unwrap();
        pl.set_center(t, Point::new(10.0, 100.0));
        let before = rdp_db::hpwl::total_hpwl(&d, &pl);
        let changed = optimize_macro_orientations(&d, &mut pl);
        let after = rdp_db::hpwl::total_hpwl(&d, &pl);
        assert_eq!(changed, 1);
        assert!(after < before, "HPWL {after} !< {before}");
        assert_ne!(pl.orient(m), Orient::N);
    }

    #[test]
    fn already_optimal_orientation_is_kept() {
        // Anchor to the RIGHT: the N orientation (pin on the right) is
        // already best.
        let (d, m) = macro_design(Point::new(190.0, 100.0));
        let mut pl = rdp_db::Placement::new_centered(&d);
        pl.set_center(m, Point::new(100.0, 100.0));
        let t = d.find_node("t").unwrap();
        pl.set_center(t, Point::new(190.0, 100.0));
        let changed = optimize_macro_orientations(&d, &mut pl);
        assert_eq!(changed, 0);
        assert_eq!(pl.orient(m), Orient::N);
    }

    #[test]
    fn std_cell_flip_reduces_hpwl() {
        let mut b = DesignBuilder::new("fl");
        b.die(Rect::new(0.0, 0.0, 100.0, 100.0));
        b.add_row(0.0, 10.0, 1.0, 0.0, 100);
        let c = b.add_node("c", 8.0, 10.0, NodeKind::Movable).unwrap();
        let t = b.add_node("t", 1.0, 1.0, NodeKind::FixedNi).unwrap();
        let n = b.add_net("n", 1.0);
        b.add_pin(n, c, Point::new(3.0, 0.0)); // pin near right edge
        b.add_pin(n, t, Point::ORIGIN);
        let d = b.finish().unwrap();
        let mut pl = Placement::new_centered(&d);
        let cid = d.find_node("c").unwrap();
        let tid = d.find_node("t").unwrap();
        pl.set_center(cid, Point::new(50.0, 5.0));
        pl.set_center(tid, Point::new(5.0, 5.0)); // anchor on the left
        let before = rdp_db::hpwl::total_hpwl(&d, &pl);
        let flipped = flip_std_cells(&d, &mut pl);
        assert_eq!(flipped, 1);
        assert_eq!(pl.orient(cid), Orient::FN);
        assert!(rdp_db::hpwl::total_hpwl(&d, &pl) < before);
        // A second pass is a fixpoint.
        assert_eq!(flip_std_cells(&d, &mut pl), 0);
    }
}
