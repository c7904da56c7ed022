//! Determinism regression tests for the parallel execution layer: the
//! placer and the router must produce **bitwise identical** results at
//! every thread count (1, 2, 8; the kernel-level cases also 4). The
//! chunked kernels merge their partial results in a canonical order
//! precisely so this holds — these tests are the contract. The 100k-cell
//! case also checks the fused bell pass against the pre-layout-refactor
//! oracle in `crates/core/tests/reference/`.

use rdp::gen::{generate, GeneratorConfig};
use rdp::geom::parallel::Parallelism;
use rdp::place::{PlaceOptions, Placer};
use rdp::route::{GlobalRouter, RouterConfig};

#[path = "../crates/core/tests/reference/mod.rs"]
mod reference;

#[test]
fn placer_is_bitwise_identical_across_thread_counts() {
    let bench = generate(&GeneratorConfig::tiny("det-par", 77)).unwrap();
    let run = |threads: usize| {
        Placer::new(&bench.design, PlaceOptions::fast().with_threads(threads))
            .with_initial(bench.placement.clone())
            .run()
            .unwrap()
    };
    let base = run(1);
    for threads in [2, 8] {
        let r = run(threads);
        assert_eq!(
            base.hpwl.to_bits(),
            r.hpwl.to_bits(),
            "HPWL differs at {threads} threads: {} vs {}",
            base.hpwl,
            r.hpwl
        );
        assert_eq!(
            base.gp.overflow_ratio.to_bits(),
            r.gp.overflow_ratio.to_bits(),
            "overflow differs at {threads} threads"
        );
        for id in bench.design.node_ids() {
            let a = base.placement.center(id);
            let b = r.placement.center(id);
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits()),
                "position of node {id:?} differs at {threads} threads: {a} vs {b}"
            );
        }
    }
}

#[test]
fn nesterov_electrostatic_placer_is_bitwise_identical_across_thread_counts() {
    use rdp::place::{GpDensityModel, GpSolver};
    let bench = generate(&GeneratorConfig::tiny("det-nes", 81)).unwrap();
    let run = |threads: usize| {
        Placer::new(
            &bench.design,
            PlaceOptions::fast()
                .with_threads(threads)
                .with_solver(GpSolver::Nesterov, GpDensityModel::Electrostatic),
        )
        .with_initial(bench.placement.clone())
        .run()
        .unwrap()
    };
    let base = run(1);
    for threads in [2, 8] {
        let r = run(threads);
        assert_eq!(
            base.hpwl.to_bits(),
            r.hpwl.to_bits(),
            "HPWL differs at {threads} threads: {} vs {}",
            base.hpwl,
            r.hpwl
        );
        assert_eq!(
            base.gp.overflow_ratio.to_bits(),
            r.gp.overflow_ratio.to_bits(),
            "overflow differs at {threads} threads"
        );
        assert_eq!(
            base.gp.gradient_evals, r.gp.gradient_evals,
            "gradient evaluation count differs at {threads} threads"
        );
        for id in bench.design.node_ids() {
            let a = base.placement.center(id);
            let b = r.placement.center(id);
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits()),
                "position of node {id:?} differs at {threads} threads: {a} vs {b}"
            );
        }
    }
}

#[test]
fn router_is_bitwise_identical_across_thread_counts() {
    let bench = generate(&GeneratorConfig::tiny("det-rt", 78)).unwrap();
    let run = |threads: usize| {
        GlobalRouter::new(RouterConfig::builder().threads(threads).build())
            .route(&bench.design, &bench.placement)
    };
    // Baseline: single-threaded. Every thread count must reproduce it bit
    // for bit.
    let base = run(1);
    for threads in [2, 8] {
        let r = run(threads);
        let label = format!("{threads} threads");
        assert_eq!(base.num_segments, r.num_segments, "{label}");
        assert_eq!(base.iterations, r.iterations, "{label}");
        assert_eq!(base.net_lengths, r.net_lengths, "{label}");
        assert_eq!(
            base.metrics.rc.to_bits(),
            r.metrics.rc.to_bits(),
            "rc differs at {label}"
        );
        assert_eq!(
            base.metrics.total_overflow.to_bits(),
            r.metrics.total_overflow.to_bits(),
            "overflow differs at {label}"
        );
        assert_eq!(
            base.metrics.total_usage.to_bits(),
            r.metrics.total_usage.to_bits(),
            "usage differs at {label}"
        );
        for (a, b) in base.grid.edge_ids().zip(r.grid.edge_ids()) {
            assert_eq!(
                base.grid.usage(a).to_bits(),
                r.grid.usage(b).to_bits(),
                "edge usage differs at {label}"
            );
            assert_eq!(
                base.grid.history(a).to_bits(),
                r.grid.history(b).to_bits(),
                "edge history differs at {label}"
            );
        }
    }
}

/// Kernel-level invariance at production scale: the two fused gradient
/// passes production runs (wirelength + bell, wirelength +
/// electrostatics) on a 100k-cell design must be bitwise identical at 1,
/// 2, 4 and 8 threads, and the bell pass must equal the independent
/// pre-layout-refactor oracle (`reference`) bit for bit. Too slow for the
/// debug-build default gate — run in release via `ci.sh --full`
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "100k-cell release-build case; run via ci.sh --full"]
fn kernels_are_bitwise_identical_across_thread_counts_at_100k_cells() {
    use rdp::geom::Point;
    use rdp::place::density::build_fields;
    use rdp::place::electrostatics::build_electro_fields;
    use rdp::place::fused::{fused_wl_den_grad, fused_wl_electro_grad};
    use rdp::place::model::Model;
    use rdp::place::wirelength::{WirelengthModel, WlScratch};
    use reference::{ref_smooth_wl_grad_par, RefDensityField, RefModel};

    let mut cfg = GeneratorConfig::large("det-100k", 80);
    cfg.num_cells = 100_000;
    let bench = generate(&cfg).unwrap();
    let model = Model::from_design(&bench.design, &bench.placement);
    let bins = ((model.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
    let mut fields = build_fields(&model, &[], &[], bins, 0.9);
    let mut electro = build_electro_fields(&model, &[], &[], bins, 0.9);
    let mut scratch = WlScratch::new();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

    let mut run = |threads: usize| {
        let par = Parallelism::new(threads);
        let zeros = || vec![0.0; model.len()];
        let (mut gx, mut gy, mut dx, mut dy) = (zeros(), zeros(), zeros(), zeros());
        let (wl, stats) = fused_wl_den_grad(
            &model,
            WirelengthModel::Wa,
            20.0,
            &mut fields,
            &mut scratch,
            &mut gx,
            &mut gy,
            &mut dx,
            &mut dy,
            &par,
        );
        let (mut ewx, mut ewy, mut ex, mut ey) = (zeros(), zeros(), zeros(), zeros());
        let (ewl, estats) = fused_wl_electro_grad(
            &model,
            WirelengthModel::Wa,
            20.0,
            &mut electro,
            &mut scratch,
            &mut ewx,
            &mut ewy,
            &mut ex,
            &mut ey,
            &par,
        );
        assert!(
            ewl.to_bits() == wl.to_bits() && bits(&ewx) == bits(&gx) && bits(&ewy) == bits(&gy),
            "the two fused passes disagree on the wirelength at {threads} threads"
        );
        let grads = [&gx, &gy, &dx, &dy, &ex, &ey].map(|g| bits(g));
        (wl.to_bits(), stats.penalty.to_bits(), estats.penalty.to_bits(), grads)
    };

    let base = run(1);
    for threads in [2, 4, 8] {
        let r = run(threads);
        assert_eq!(base.0, r.0, "wirelength total differs at {threads} threads");
        assert_eq!(base.1, r.1, "density penalty differs at {threads} threads");
        assert_eq!(base.2, r.2, "electrostatic penalty differs at {threads} threads");
        assert_eq!(base.3, r.3, "a gradient component differs at {threads} threads");
    }

    // The bell pass against the independent oracle.
    let ref_model = RefModel::from_model(&model);
    assert_eq!(ref_model.hpwl().to_bits(), model.hpwl().to_bits(), "HPWL differs from reference");
    let single = Parallelism::single();
    let mut ref_wl_grad = vec![Point::ORIGIN; model.len()];
    let ref_wl =
        ref_smooth_wl_grad_par(&ref_model, WirelengthModel::Wa, 20.0, &mut ref_wl_grad, &single);
    let mut ref_den_grad = vec![Point::ORIGIN; model.len()];
    let ref_stats = RefDensityField::from_field(&fields[0]).penalty_grad_par(
        &ref_model,
        &mut ref_den_grad,
        &single,
    );
    let axis = |g: &[Point], x: bool| -> Vec<u64> {
        g.iter().map(|p| if x { p.x.to_bits() } else { p.y.to_bits() }).collect()
    };
    assert_eq!(base.0, ref_wl.to_bits(), "wirelength total differs from reference");
    assert_eq!(base.1, ref_stats.penalty.to_bits(), "density penalty differs from reference");
    assert!(
        base.3[0] == axis(&ref_wl_grad, true) && base.3[1] == axis(&ref_wl_grad, false),
        "wirelength gradient differs from reference"
    );
    assert!(
        base.3[2] == axis(&ref_den_grad, true) && base.3[3] == axis(&ref_den_grad, false),
        "density gradient differs from reference"
    );
}

#[test]
fn congestion_estimator_is_bitwise_identical_across_thread_counts() {
    let bench = generate(&GeneratorConfig::tiny("det-est", 79)).unwrap();
    let (design, placement) = (&bench.design, &bench.placement);
    let estimate = |par: &Parallelism| {
        let mut grid = rdp::route::RouteGrid::from_design(design, placement);
        rdp::route::pattern::estimate_congestion_into(&mut grid, design, placement, par);
        grid
    };
    let base = estimate(&Parallelism::single());
    for threads in [2, 4, 8] {
        let g = estimate(&Parallelism::new(threads));
        for (a, b) in base.edge_ids().zip(g.edge_ids()) {
            assert_eq!(
                base.usage(a).to_bits(),
                g.usage(b).to_bits(),
                "estimated usage differs at {threads} threads"
            );
        }
    }
}

/// A persistent worker pool must be a pure execution vehicle: running the
/// same kernel sequence repeatedly through one reused pool yields exactly
/// the bits of a fresh pool's first run and of the inline single-thread
/// run — and keeps doing so after a worker panic is caught and the pool
/// recovers.
#[test]
fn reused_pool_matches_fresh_pool_bitwise() {
    use rdp::place::density::build_fields;
    use rdp::place::electrostatics::build_electro_fields;
    use rdp::place::fused::{fused_wl_den_grad, fused_wl_electro_grad};
    use rdp::place::model::Model;
    use rdp::place::wirelength::{WirelengthModel, WlScratch};

    let bench = generate(&GeneratorConfig::tiny("det-pool", 81)).unwrap();
    let model = Model::from_design(&bench.design, &bench.placement);
    let bins = ((model.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
    let mut fields = build_fields(&model, &[], &[], bins, 0.9);
    let mut electro = build_electro_fields(&model, &[], &[], bins, 0.9);
    let mut scratch = WlScratch::new();

    // Both fused passes accumulate into the same buffers, in sequence.
    let mut sequence = |par: &Parallelism| {
        let zeros = || vec![0.0; model.len()];
        let (mut gx, mut gy, mut dx, mut dy) = (zeros(), zeros(), zeros(), zeros());
        let (wl, stats) = fused_wl_den_grad(
            &model,
            WirelengthModel::Wa,
            20.0,
            &mut fields,
            &mut scratch,
            &mut gx,
            &mut gy,
            &mut dx,
            &mut dy,
            par,
        );
        let (ewl, estats) = fused_wl_electro_grad(
            &model,
            WirelengthModel::Wa,
            20.0,
            &mut electro,
            &mut scratch,
            &mut gx,
            &mut gy,
            &mut dx,
            &mut dy,
            par,
        );
        let bits: Vec<[u64; 4]> = (0..model.len())
            .map(|i| [gx[i], gy[i], dx[i], dy[i]].map(f64::to_bits))
            .collect();
        let totals = [wl, ewl, stats.penalty, estats.penalty].map(f64::to_bits);
        (totals, bits)
    };

    let single = sequence(&Parallelism::single());
    for threads in [1usize, 2, 4, 8] {
        // Fresh pool: spawned by the sequence's first dispatch.
        let fresh = sequence(&Parallelism::new(threads));
        assert_eq!(fresh, single, "fresh pool differs from inline at {threads} threads");

        // One pool, reused across repetitions of the whole sequence.
        let pooled = Parallelism::new(threads);
        for rep in 0..3 {
            assert_eq!(
                fresh,
                sequence(&pooled),
                "pooled rep {rep} differs from a fresh pool at {threads} threads"
            );
        }

        // Crash a job on the pool; the workers must recover and the next
        // runs must still be bitwise identical.
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rdp::geom::parallel::chunked_map(&pooled, 16, |i| {
                assert!(i != 11, "injected chunk panic");
                i
            })
        }));
        assert!(crashed.is_err(), "injected panic must propagate to the caller");
        assert_eq!(
            fresh,
            sequence(&pooled),
            "pool diverged after panic recovery at {threads} threads"
        );
    }
}
