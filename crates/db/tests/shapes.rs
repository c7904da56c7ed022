//! Tests for non-rectangular fixed nodes (`.shapes`): round trip through
//! Bookshelf and shape-aware legality semantics.

use rdp_db::{bookshelf, DesignBuilder, NodeKind, Placement};
use rdp_geom::{Point, Rect};

/// A design with one L-shaped fixed block: outline 20×20 at (10,0) but only
/// the left column and bottom row are solid; the top-right 10×10 is a notch.
fn l_shaped_design() -> (rdp_db::Design, Placement) {
    let mut b = DesignBuilder::new("lshape");
    b.die(Rect::new(0.0, 0.0, 100.0, 40.0));
    for r in 0..4 {
        b.add_row(f64::from(r) * 10.0, 10.0, 1.0, 0.0, 100);
    }
    let blk = b.add_node("blk", 20.0, 20.0, NodeKind::Fixed).unwrap();
    b.add_shapes(
        blk,
        vec![
            Rect::new(10.0, 0.0, 20.0, 20.0),  // left column
            Rect::new(20.0, 0.0, 30.0, 10.0),  // bottom-right foot
        ],
    );
    let a = b.add_node("a", 4.0, 10.0, NodeKind::Movable).unwrap();
    let c = b.add_node("c", 4.0, 10.0, NodeKind::Movable).unwrap();
    let n = b.add_net("n", 1.0);
    b.add_pin(n, a, Point::ORIGIN);
    b.add_pin(n, c, Point::ORIGIN);
    let d = b.finish().unwrap();
    let mut pl = Placement::new_centered(&d);
    pl.set_lower_left(&d, blk, Point::new(10.0, 0.0));
    pl.set_lower_left(&d, a, Point::new(50.0, 0.0));
    pl.set_lower_left(&d, c, Point::new(60.0, 0.0));
    (d, pl)
}

#[test]
fn shapes_survive_bookshelf_round_trip() {
    let (d, pl) = l_shaped_design();
    let dir = std::env::temp_dir().join("rdp_shapes_rt");
    bookshelf::write_design(&d, &pl, &dir).unwrap();
    let (d2, _) = bookshelf::read_design(dir.join("lshape.aux")).unwrap();
    assert!(d2.has_shapes());
    let blk = d2.find_node("blk").unwrap();
    let parts = d2.node_shapes(blk).expect("shapes preserved");
    assert_eq!(parts.len(), 2);
    assert_eq!(parts[0], Rect::new(10.0, 0.0, 20.0, 20.0));
    assert_eq!(parts[1], Rect::new(20.0, 0.0, 30.0, 10.0));
}

#[test]
fn cell_in_the_notch_is_legal() {
    let (d, mut pl) = l_shaped_design();
    let a = d.find_node("a").unwrap();
    // The notch is [20,30]x[10,20] — inside the outline but not blocked.
    pl.set_lower_left(&d, a, Point::new(20.0, 10.0));
    let report = rdp_db::validate::check_legal(&d, &pl, 10);
    assert!(
        report.is_legal(),
        "cell in the notch flagged: {:?}",
        report.violations
    );
    // On a solid part it IS an overlap.
    pl.set_lower_left(&d, a, Point::new(12.0, 10.0));
    let report = rdp_db::validate::check_legal(&d, &pl, 10);
    assert!(!report.is_legal(), "overlap with solid part missed");
}

#[test]
fn legalizer_can_use_the_notch() {
    use rdp_core::legalize::legalize_with_displacement_par;
    use rdp_geom::parallel::Parallelism;
    let (d, mut pl) = l_shaped_design();
    let a = d.find_node("a").unwrap();
    // Desire the notch: a legal position exists exactly there.
    pl.set_lower_left(&d, a, Point::new(22.0, 10.0));
    legalize_with_displacement_par(&d, &mut pl, &Parallelism::single());
    let report = rdp_db::validate::check_legal(&d, &pl, 10);
    assert!(report.is_legal(), "violations: {:?}", report.violations);
    // The cell should not have been pushed far: the notch row segment is
    // usable.
    let moved = pl.lower_left(&d, a);
    assert!(
        (moved.y - 10.0).abs() < 1e-6 && moved.x >= 19.0 && moved.x <= 31.0,
        "cell evicted from the notch to {moved}"
    );
}

#[test]
fn blocking_rects_fall_back_to_outline() {
    let (d, pl) = l_shaped_design();
    let a = d.find_node("a").unwrap();
    let rects = d.blocking_rects(a, &pl);
    assert_eq!(rects.len(), 1);
    assert_eq!(rects[0], pl.rect(&d, a));
}
