//! Randomized property tests over the core invariants of the placement
//! stack.
//!
//! Cases are drawn from the workspace's own deterministic PRNG
//! ([`rdp::geom::rng::Rng`]) — no external test-harness crates, so the
//! suite builds offline. The `property-tests` feature multiplies the case
//! count for deeper sweeps.

use rdp::db::{DesignBuilder, NodeKind, Placement};
use rdp::geom::rng::Rng;
use rdp::geom::{Interval, Orient, Point, Rect};

/// Randomized cases per invariant (more with `--features property-tests`).
const CASES: u64 = if cfg!(feature = "property-tests") { 256 } else { 64 };

fn rng_for(tag: u64, case: u64) -> Rng {
    Rng::seed_from_u64(tag.wrapping_mul(0x9E37_79B9).wrapping_add(case))
}

fn random_positions(rng: &mut Rng, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (rng.gen_range(0.0..980.0), rng.gen_range(0.0..990.0)))
        .collect()
}

#[test]
fn hpwl_is_invariant_under_pin_order() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let xs = random_positions(&mut rng, 6);
        let perm_seed = rng.gen_range(0u64..1000);
        // Build the same net twice with different pin orders.
        let build = |order: &[usize]| {
            let mut b = DesignBuilder::new("p");
            b.die(Rect::new(0.0, 0.0, 1000.0, 1000.0));
            b.add_row(0.0, 10.0, 1.0, 0.0, 1000);
            let ids: Vec<_> = (0..xs.len())
                .map(|i| b.add_node(format!("c{i}"), 2.0, 10.0, NodeKind::Movable).unwrap())
                .collect();
            let net = b.add_net("n", 1.0);
            for &k in order {
                b.add_pin(net, ids[k], Point::ORIGIN);
            }
            let d = b.finish().unwrap();
            let mut pl = Placement::new_centered(&d);
            for (i, &(x, y)) in xs.iter().enumerate() {
                pl.set_center(ids[i], Point::new(x, y));
            }
            rdp::db::hpwl::total_hpwl(&d, &pl)
        };
        let fwd: Vec<usize> = (0..xs.len()).collect();
        let mut shuffled = fwd.clone();
        // Simple deterministic shuffle from the seed.
        for i in (1..shuffled.len()).rev() {
            let j = (perm_seed as usize).wrapping_mul(31).wrapping_add(i * 7) % (i + 1);
            shuffled.swap(i, j);
        }
        assert!((build(&fwd) - build(&shuffled)).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn smooth_models_bracket_hpwl() {
    use rdp::place::model::{Model, ModelNet, ModelPin};
    use rdp::place::wirelength::{smooth_wl, WirelengthModel};
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let xs = random_positions(&mut rng, 5);
        let gamma = rng.gen_range(0.5..32.0);
        let n = xs.len();
        let model = Model::from_parts(
            xs.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            vec![(2.0, 10.0); n],
            vec![20.0; n],
            vec![false; n],
            vec![None; n],
            &[ModelNet {
                weight: 1.0,
                pins: (0..n).map(|i| ModelPin::movable(i, Point::ORIGIN)).collect(),
            }],
            Rect::new(0.0, 0.0, 1000.0, 1000.0),
            vec![],
        );
        let hpwl = model.hpwl();
        let lse = smooth_wl(&model, WirelengthModel::Lse, gamma);
        let wa = smooth_wl(&model, WirelengthModel::Wa, gamma);
        assert!(lse >= hpwl - 1e-6, "case {case}: LSE {lse} < HPWL {hpwl}");
        assert!(wa <= hpwl + 1e-6, "case {case}: WA {wa} > HPWL {hpwl}");
        assert!(lse.is_finite() && wa.is_finite());
    }
}

#[test]
fn rect_intersection_is_commutative_and_contained() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let rect = |rng: &mut Rng| {
            let xl = rng.gen_range(0.0..100.0);
            let yl = rng.gen_range(0.0..100.0);
            Rect::new(xl, yl, xl + rng.gen_range(1.0..50.0), yl + rng.gen_range(1.0..50.0))
        };
        let ra = rect(&mut rng);
        let rb = rect(&mut rng);
        let i1 = ra.intersection(rb);
        let i2 = rb.intersection(ra);
        assert_eq!(i1, i2);
        assert!(i1.area() <= ra.area() + 1e-9);
        assert!(i1.area() <= rb.area() + 1e-9);
        assert!(ra.union(rb).area() >= ra.area().max(rb.area()) - 1e-9);
        if !i1.is_empty() {
            assert!(ra.contains_rect(i1) && rb.contains_rect(i1));
        }
    }
}

#[test]
fn orientation_transform_preserves_offset_norm() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
        let o = Orient::ALL[rng.gen_range(0usize..8)];
        let t = rdp::geom::transform::transform_offset(p, o);
        assert!((t.norm() - p.norm()).abs() < 1e-9, "case {case}");
        // Four applications of rotate_ccw cycle back.
        let mut oo = o;
        for _ in 0..4 {
            oo = oo.rotated_ccw();
        }
        assert_eq!(oo, o);
    }
}

#[test]
fn interval_algebra() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let interval = |rng: &mut Rng| {
            let a = rng.gen_range(0.0..100.0);
            let b = rng.gen_range(0.0..100.0);
            Interval::new(a.min(b), a.max(b))
        };
        let ia = interval(&mut rng);
        let ib = interval(&mut rng);
        assert!((ia.overlap(ib) - ib.overlap(ia)).abs() < 1e-12, "case {case}");
        assert!(ia.overlap(ib) <= ia.length() + 1e-12);
        assert!(ia.hull(ib).length() + 1e-12 >= ia.length().max(ib.length()));
    }
}

#[test]
fn mst_length_at_most_chain_and_spans() {
    use rdp::route::topology::{mst_segments, total_length};
    use rdp::route::GCell;
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let n = rng.gen_range(2usize..12);
        let mut cells: Vec<GCell> = (0..n)
            .map(|_| GCell::new(rng.gen_range(0u32..64), rng.gen_range(0u32..64)))
            .collect();
        cells.sort();
        cells.dedup();
        if cells.len() < 2 {
            continue;
        }
        let segs = mst_segments(&cells);
        assert_eq!(segs.len(), cells.len() - 1);
        // MST no longer than visiting cells in sorted order.
        let chain: u32 = cells.windows(2).map(|w| w[0].manhattan(w[1])).sum();
        assert!(total_length(&segs) <= chain, "case {case}");
    }
}

#[test]
fn abacus_packs_any_assignment_legally() {
    use rdp::place::legalize::{pack_segment, Segment};
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let n = rng.gen_range(1usize..12);
        let desired: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..90.0)).collect();
        let widths: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..5)).collect();
        let mut b = DesignBuilder::new("ab");
        b.die(Rect::new(0.0, 0.0, 100.0, 10.0));
        b.add_row(0.0, 10.0, 1.0, 0.0, 100);
        let ids: Vec<_> = (0..n)
            .map(|i| {
                b.add_node(format!("c{i}"), f64::from(widths[i]), 10.0, NodeKind::Movable)
                    .unwrap()
            })
            .collect();
        let total_w: f64 = (0..n).map(|i| f64::from(widths[i])).sum();
        if total_w > 100.0 {
            continue;
        }
        let net = b.add_net("n", 1.0);
        b.add_pin(net, ids[0], Point::ORIGIN);
        b.add_pin(net, ids[n.min(2) - 1], Point::ORIGIN);
        let d = b.finish().unwrap();
        let mut pl = Placement::new_centered(&d);
        for (i, &x) in desired.iter().enumerate() {
            pl.set_lower_left(&d, ids[i], Point::new(x, 0.0));
        }
        let mut seg = Segment {
            row: 0,
            interval: Interval::new(0.0, 100.0),
            region: None,
            used: total_w,
            cells: ids.clone(),
        };
        pack_segment(&d, &mut pl, &mut seg);
        // Legal: inside segment, site aligned, no overlap.
        let mut rects: Vec<Rect> = ids.iter().map(|&id| pl.rect(&d, id)).collect();
        rects.sort_by(|a, b| a.xl.partial_cmp(&b.xl).unwrap());
        for r in &rects {
            assert!(r.xl >= -1e-9 && r.xh <= 100.0 + 1e-9, "case {case}: outside: {r}");
            assert!((r.xl - r.xl.round()).abs() < 1e-9, "case {case}: off-site: {r}");
        }
        for w in rects.windows(2) {
            assert!(w[0].xh <= w[1].xl + 1e-9, "case {case}: overlap: {} {}", w[0], w[1]);
        }
    }
}

#[test]
fn bell_density_conserves_mass_anywhere() {
    use rdp::place::density::{BinGrid, DensityField};
    use rdp::place::model::Model;
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let x = rng.gen_range(20.0..80.0);
        let y = rng.gen_range(20.0..80.0);
        let w = rng.gen_range(1.0..20.0);
        let h = rng.gen_range(5.0..20.0);
        let model = Model::from_parts(
            vec![Point::new(x, y)],
            vec![(w, h)],
            vec![w * h],
            vec![false],
            vec![None],
            &[],
            Rect::new(0.0, 0.0, 100.0, 100.0),
            vec![],
        );
        let mut field = DensityField::new(BinGrid::new(model.die, 20, 20, 1.0), vec![0]);
        let mut gx = vec![0.0; 1];
        let mut gy = vec![0.0; 1];
        let stats = field.penalty_grad(&model, &mut gx, &mut gy);
        assert!(stats.penalty >= 0.0);
        assert!(gx[0].is_finite() && gy[0].is_finite(), "case {case}");
    }
}

/// Band-parallel legalization must be a pure function of the input: any
/// thread count (including 1) produces bitwise-identical positions and
/// displacement totals, on designs whose movable macros straddle the
/// 32-row band boundaries.
#[test]
fn band_parallel_legalization_matches_serial() {
    use rdp::gen::{generate, GeneratorConfig};
    use rdp::geom::parallel::Parallelism;
    use rdp::place::legalize::legalize_with_displacement_par;

    let cases = if cfg!(feature = "property-tests") { 6 } else { 3 };
    for case in 0..cases {
        let config = GeneratorConfig {
            num_cells: 5_000,
            num_macros: 6,
            ..GeneratorConfig::small(format!("blg{case}"), 40 + case)
        };
        let bench = generate(&config).unwrap();
        let design = &bench.design;
        assert!(
            design.rows().len() > 32,
            "case {case}: need >1 band, got {} rows",
            design.rows().len()
        );
        let mut rng = rng_for(9, case);
        let mut scattered = bench.placement.clone();
        let die = design.die();
        for id in design.movable_ids() {
            let (w, h) = scattered.dims(design, id);
            let x = rng.gen_range(die.xl + w / 2.0..die.xh - w / 2.0);
            let y = rng.gen_range(die.yl + h / 2.0..die.yh - h / 2.0);
            scattered.set_center(id, Point::new(x, y));
        }
        // Park the movable macros across the first band boundary (row 32)
        // so band partitioning sees macros overlapping multiple bands.
        let boundary_y = design.rows()[32.min(design.rows().len() - 1)].y();
        for (k, id) in design.macro_ids().enumerate() {
            if design.node(id).kind() == rdp::db::NodeKind::Movable {
                let (w, h) = scattered.dims(design, id);
                let x = (die.xl + w / 2.0 + 40.0 * k as f64).min(die.xh - w / 2.0);
                let y = boundary_y.clamp(die.yl + h / 2.0, die.yh - h / 2.0);
                scattered.set_center(id, Point::new(x, y));
            }
        }

        let run = |threads: usize| {
            let par = Parallelism::new(threads);
            let mut pl = scattered.clone();
            let stats = legalize_with_displacement_par(design, &mut pl, &par);
            (stats, pl)
        };
        let (stats1, pl1) = run(1);
        assert_eq!(stats1.failed, 0, "case {case}");
        for (stats, pl) in [run(2), run(8)] {
            assert_eq!(stats.failed, stats1.failed, "case {case}");
            assert_eq!(
                stats.total_displacement.to_bits(),
                stats1.total_displacement.to_bits(),
                "case {case}: displacement differs across thread counts"
            );
            for id in design.movable_ids() {
                let a = pl1.center(id);
                let b = pl.center(id);
                assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits()),
                    "case {case}: node {id:?} moved differently"
                );
            }
        }
    }
}
