//! End-to-end integration tests spanning all crates: generate → place →
//! legalize → route → score, plus persistence through Bookshelf.

use rdp::db::validate::check_legal;
use rdp::eval::EvalSession;
use rdp::gen::{generate, GeneratorConfig};
use rdp::place::{PlaceOptions, Placer};

#[test]
fn generate_place_route_score_pipeline() {
    let bench = generate(&GeneratorConfig::tiny("it1", 1)).unwrap();
    let out = EvalSession::new(&bench.design).run_flow_on(&bench, PlaceOptions::fast()).unwrap();
    assert!(out.legality.is_legal(), "violations: {:?}", out.legality.violations);
    assert!(out.score.hpwl > 0.0);
    assert!(out.score.scaled_hpwl >= out.score.hpwl);
    assert!(out.score.congestion.total_usage > 0.0, "router saw no demand");
}

#[test]
fn placement_improves_both_hpwl_and_congestion_over_scatter() {
    let mut cfg = GeneratorConfig::tiny("it2", 2);
    cfg.route.tracks_per_edge_h = 20.0;
    cfg.route.tracks_per_edge_v = 20.0;
    let bench = generate(&cfg).unwrap();

    // Null model: uniform random scatter.
    let mut scatter = bench.placement.clone();
    let mut rng = rdp::geom::rng::Rng::seed_from_u64(3);
    let die = bench.design.die();
    for id in bench.design.movable_ids() {
        scatter.set_center(
            id,
            rdp::geom::Point::new(rng.gen_range(die.xl..die.xh), rng.gen_range(die.yl..die.yh)),
        );
    }
    let scatter_score = EvalSession::new(&bench.design).score(&scatter);

    let out = EvalSession::new(&bench.design).run_flow_on(&bench, PlaceOptions::fast()).unwrap();
    assert!(
        out.score.hpwl < scatter_score.hpwl,
        "placed HPWL {} vs scatter {}",
        out.score.hpwl,
        scatter_score.hpwl
    );
    assert!(
        out.score.scaled_hpwl < scatter_score.scaled_hpwl,
        "placed scaled {} vs scatter {}",
        out.score.scaled_hpwl,
        scatter_score.scaled_hpwl
    );
}

#[test]
fn hierarchical_design_flows_end_to_end() {
    let bench = generate(&GeneratorConfig::hierarchical("it3", 3, 2)).unwrap();
    let out = EvalSession::new(&bench.design).run_flow_on(&bench, PlaceOptions::fast()).unwrap();
    assert!(out.legality.is_legal());
    assert_eq!(out.legality.fence_violations, 0);
    // Every fenced cell's final center is inside its fence.
    for id in bench.design.node_ids() {
        if let Some(r) = bench.design.node(id).region() {
            let region = bench.design.region(r);
            assert!(
                region.contains(out.place.placement.center(id)),
                "cell {} outside fence {}",
                bench.design.node(id).name(),
                region.name()
            );
        }
    }
}

#[test]
fn placed_design_survives_bookshelf_round_trip() {
    let bench = generate(&GeneratorConfig::tiny("it4", 4)).unwrap();
    let result = Placer::new(&bench.design, PlaceOptions::fast())
        .with_initial(bench.placement.clone())
        .run()
        .unwrap();
    let dir = std::env::temp_dir().join("rdp_it4_rt");
    rdp::db::bookshelf::write_design(&bench.design, &result.placement, &dir).unwrap();
    let (d2, pl2) = rdp::db::bookshelf::read_design(dir.join("it4.aux")).unwrap();
    // HPWL and legality preserved through the file format.
    let h1 = rdp::db::hpwl::total_hpwl(&bench.design, &result.placement);
    let h2 = rdp::db::hpwl::total_hpwl(&d2, &pl2);
    assert!((h1 - h2).abs() / h1 < 1e-6, "HPWL drifted: {h1} vs {h2}");
    let report = check_legal(&d2, &pl2, 10);
    assert!(report.is_legal(), "round-trip broke legality: {:?}", report.violations);
    // Scoring the reloaded design gives identical congestion.
    let s1 = EvalSession::new(&bench.design).score(&result.placement);
    let s2 = EvalSession::new(&d2).score(&pl2);
    assert!((s1.rc - s2.rc).abs() < 1e-6);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let bench = generate(&GeneratorConfig::tiny("it5", 5)).unwrap();
    let session = EvalSession::new(&bench.design);
    let a = session.run_flow_on(&bench, PlaceOptions::fast()).unwrap();
    let b = session.run_flow_on(&bench, PlaceOptions::fast()).unwrap();
    assert_eq!(a.score.hpwl, b.score.hpwl);
    assert_eq!(a.score.rc, b.score.rc);
    assert_eq!(a.score.scaled_hpwl, b.score.scaled_hpwl);
}

#[test]
fn all_baseline_configurations_complete() {
    let bench = generate(&GeneratorConfig::hierarchical("it6", 6, 2)).unwrap();
    let session = EvalSession::new(&bench.design);
    for options in [
        PlaceOptions::fast(),
        PlaceOptions::fast().wirelength_driven(),
        PlaceOptions::fast().fence_blind(),
        PlaceOptions::fast().flat(),
        PlaceOptions::fast().without_rotation(),
        PlaceOptions::fast().with_wirelength(rdp::place::WirelengthModel::Lse),
        PlaceOptions::fast().with_net_weighting_only(),
    ] {
        let out = session.run_flow_on(&bench, options.clone()).unwrap();
        assert!(
            out.legality.is_legal(),
            "config {options:?} produced illegal placement: {:?}",
            out.legality.violations
        );
    }
}
