//! Determinism regression tests for the parallel execution layer: the
//! placer and the router must produce **bitwise identical** results at
//! every thread count (1, 2, 8; the kernel-level cases also 4). The
//! chunked kernels merge their partial results in a canonical order
//! precisely so this holds — these tests are the contract.

use rdp::gen::{generate, GeneratorConfig};
use rdp::geom::parallel::Parallelism;
use rdp::place::{PlaceOptions, Placer};
use rdp::route::{GlobalRouter, RouterConfig};

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

/// Kernel-level invariance at production scale: the wirelength, bell and
/// electrostatic density gradient kernels on a 100k-cell design must be
/// bitwise identical at 1, 2, 4 and 8 threads, and the fused wirelength +
/// bell pass must equal the separate kernels bit for bit. Too slow for the
/// debug-build default gate — run in release via `ci.sh --full`
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "100k-cell release-build case; run via ci.sh --full"]
fn kernels_are_bitwise_identical_across_thread_counts_at_100k_cells() {
    use rdp::place::density::build_fields;
    use rdp::place::electrostatics::build_electro_fields;
    use rdp::place::fused::fused_wl_den_grad;
    use rdp::place::model::Model;
    use rdp::place::wirelength::{smooth_wl_grad_par, WirelengthModel, WlScratch};

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
        let wl = smooth_wl_grad_par(
            &model,
            WirelengthModel::Wa,
            20.0,
            &mut gx,
            &mut gy,
            &mut scratch,
            &par,
        );
        let stats = fields[0].penalty_grad_par(&model, &mut dx, &mut dy, &par);

        let (mut fgx, mut fgy, mut fdx, mut fdy) = (zeros(), zeros(), zeros(), zeros());
        let (fused_wl, fused_stats) = fused_wl_den_grad(
            &model,
            WirelengthModel::Wa,
            20.0,
            &mut fields,
            &mut scratch,
            &mut fgx,
            &mut fgy,
            &mut fdx,
            &mut fdy,
            &par,
        );
        assert_eq!(
            (fused_wl.to_bits(), fused_stats.penalty.to_bits()),
            (wl.to_bits(), stats.penalty.to_bits()),
            "fused totals differ from the separate kernels at {threads} threads"
        );
        assert!(
            [(&fgx, &gx), (&fgy, &gy), (&fdx, &dx), (&fdy, &dy)]
                .iter()
                .all(|(f, r)| bits(f) == bits(r)),
            "fused gradient differs from the separate kernels at {threads} threads"
        );

        let estats = electro[0].penalty_grad_par(&model, &mut dx, &mut dy, &par);
        let grads = [&gx, &gy, &dx, &dy].map(|g| bits(g));
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
}

#[test]
fn congestion_estimator_is_bitwise_identical_across_thread_counts() {
    let bench = generate(&GeneratorConfig::tiny("det-est", 79)).unwrap();
    let base = rdp::route::pattern::estimate_congestion_par(
        &bench.design,
        &bench.placement,
        &Parallelism::single(),
    );
    for threads in [2, 4, 8] {
        let g = rdp::route::pattern::estimate_congestion_par(
            &bench.design,
            &bench.placement,
            &Parallelism::new(threads),
        );
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
    use rdp::place::model::Model;
    use rdp::place::wirelength::{smooth_wl_grad_par, WirelengthModel, WlScratch};

    let bench = generate(&GeneratorConfig::tiny("det-pool", 81)).unwrap();
    let model = Model::from_design(&bench.design, &bench.placement);
    let bins = ((model.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
    let mut fields = build_fields(&model, &[], &[], bins, 0.9);
    let mut electro = build_electro_fields(&model, &[], &[], bins, 0.9);
    let mut scratch = WlScratch::new();

    let mut sequence = |par: &Parallelism| {
        let mut gx = vec![0.0; model.len()];
        let mut gy = vec![0.0; model.len()];
        let wl = smooth_wl_grad_par(
            &model,
            WirelengthModel::Wa,
            20.0,
            &mut gx,
            &mut gy,
            &mut scratch,
            par,
        );
        let stats = fields[0].penalty_grad_par(&model, &mut gx, &mut gy, par);
        let estats = electro[0].penalty_grad_par(&model, &mut gx, &mut gy, par);
        let bits: Vec<(u64, u64)> =
            gx.iter().zip(&gy).map(|(x, y)| (x.to_bits(), y.to_bits())).collect();
        (wl.to_bits(), stats.penalty.to_bits(), estats.penalty.to_bits(), bits)
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
