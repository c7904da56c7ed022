//! Threads-sweep benchmark of the parallel placement kernels —
//! smooth-wirelength gradient, bell density penalty gradient, the
//! electrostatic (FFT Poisson) density gradient and probabilistic
//! congestion estimation — on a ≥10k-cell design.
//!
//! For each thread count in {1, 2, 4, 8} the harness times every kernel
//! (and the combined iteration), verifies the outputs are **bitwise
//! identical** to the single-threaded run, and writes
//! `target/experiments/BENCH_parallel.json` with per-kernel speedups and
//! the machine's available core count (speedup cannot exceed the physical
//! cores, so the file records both).
//!
//! `--smoke` shrinks the design for quick verification.

use rdp_core::density::build_fields;
use rdp_core::model::Model;
use rdp_core::wirelength::{smooth_wl_grad_par, WirelengthModel, WlScratch};
use rdp_gen::{generate, GeneratorConfig};
use rdp_geom::parallel::Parallelism;
use rdp_route::pattern::estimate_congestion_par;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Per-call minimum over `reps` timed calls.
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f()); // warm-up
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed());
    }
    best
}

/// Order-stable checksum of a gradient buffer pair plus a scalar.
fn checksum(scalar: f64, grad_x: &[f64], grad_y: &[f64]) -> u64 {
    let mut acc = scalar;
    for (gx, gy) in grad_x.iter().zip(grad_y) {
        acc += gx + gy;
    }
    acc.to_bits()
}

struct KernelRow {
    name: &'static str,
    /// Best per-call time per entry of [`THREADS`].
    times: Vec<Duration>,
}

impl KernelRow {
    fn speedup(&self, i: usize) -> f64 {
        self.times[0].as_secs_f64() / self.times[i].as_secs_f64().max(1e-12)
    }
}

fn main() {
    let args = rdp_bench::parse_args();
    let mut cfg = GeneratorConfig::medium("parbench", 23);
    if args.smoke {
        cfg.num_cells = 2_000;
    }
    eprintln!("generating {}-cell design...", cfg.num_cells);
    let bench = generate(&cfg).expect("valid config");
    let model = Model::from_design(&bench.design, &bench.placement);
    let bins = ((model.len() as f64).sqrt().ceil() as usize).clamp(16, 256);
    let gamma = 20.0;
    let reps = if args.smoke { 3 } else { 5 };
    let cores = rdp_bench::detected_cores();
    // The sweep pins explicit thread counts, so "degraded" means the host
    // itself cannot run kernels concurrently: the recorded speedup columns
    // then measure oversubscription, not scaling.
    let degraded = rdp_bench::warn_if_degraded("bench_parallel", &Parallelism::auto());

    let mut gx = vec![0.0; model.len()];
    let mut gy = vec![0.0; model.len()];
    let mut scratch = WlScratch::new();
    let mut rows: Vec<KernelRow> = Vec::new();

    // --- Kernel 1: smooth wirelength gradient (WA). ---
    let mut wl_sums = Vec::new();
    let mut row = KernelRow { name: "smooth_wl_grad", times: Vec::new() };
    for &t in &THREADS {
        let par = Parallelism::new(t);
        row.times.push(time_min(reps, || {
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            smooth_wl_grad_par(&model, WirelengthModel::Wa, gamma, &mut gx, &mut gy, &mut scratch, &par)
        }));
        gx.iter_mut().for_each(|g| *g = 0.0);
        gy.iter_mut().for_each(|g| *g = 0.0);
        let total =
            smooth_wl_grad_par(&model, WirelengthModel::Wa, gamma, &mut gx, &mut gy, &mut scratch, &par);
        wl_sums.push(checksum(total, &gx, &gy));
    }
    assert!(wl_sums.iter().all(|&c| c == wl_sums[0]), "wirelength kernel not deterministic");
    rows.push(row);

    // --- Kernel 2: density penalty gradient. ---
    let mut fields = build_fields(&model, &[], &[], bins, 0.9);
    let mut den_sums = Vec::new();
    let mut row = KernelRow { name: "density_penalty_grad", times: Vec::new() };
    for &t in &THREADS {
        let par = Parallelism::new(t);
        row.times.push(time_min(reps, || {
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            fields[0].penalty_grad_par(&model, &mut gx, &mut gy, &par)
        }));
        gx.iter_mut().for_each(|g| *g = 0.0);
        gy.iter_mut().for_each(|g| *g = 0.0);
        let stats = fields[0].penalty_grad_par(&model, &mut gx, &mut gy, &par);
        den_sums.push(checksum(stats.penalty, &gx, &gy));
    }
    assert!(den_sums.iter().all(|&c| c == den_sums[0]), "density kernel not deterministic");
    rows.push(row);

    // --- Kernel 2b: electrostatic (FFT Poisson) density gradient. ---
    let mut electro = rdp_core::electrostatics::build_electro_fields(&model, &[], &[], bins, 0.9);
    let mut el_sums = Vec::new();
    let mut row = KernelRow { name: "electro_penalty_grad", times: Vec::new() };
    for &t in &THREADS {
        let par = Parallelism::new(t);
        row.times.push(time_min(reps, || {
            gx.iter_mut().for_each(|g| *g = 0.0);
            gy.iter_mut().for_each(|g| *g = 0.0);
            electro[0].penalty_grad_par(&model, &mut gx, &mut gy, &par)
        }));
        gx.iter_mut().for_each(|g| *g = 0.0);
        gy.iter_mut().for_each(|g| *g = 0.0);
        let stats = electro[0].penalty_grad_par(&model, &mut gx, &mut gy, &par);
        el_sums.push(checksum(stats.penalty, &gx, &gy));
    }
    assert!(el_sums.iter().all(|&c| c == el_sums[0]), "electrostatic kernel not deterministic");
    rows.push(row);

    // --- Kernel 3: probabilistic congestion estimation. ---
    let mut est_sums = Vec::new();
    let mut row = KernelRow { name: "estimate_congestion", times: Vec::new() };
    for &t in &THREADS {
        let par = Parallelism::new(t);
        row.times.push(time_min(reps, || {
            estimate_congestion_par(&bench.design, &bench.placement, &par)
        }));
        let g = estimate_congestion_par(&bench.design, &bench.placement, &par);
        let usage: f64 = g.edge_ids().map(|e| g.usage(e)).sum();
        est_sums.push(usage.to_bits());
    }
    assert!(est_sums.iter().all(|&c| c == est_sums[0]), "congestion kernel not deterministic");
    rows.push(row);

    // --- Combined: one placer-style iteration (wirelength + bell density +
    // congestion; the electrostatic engine replaces — not adds to — the bell
    // kernel in a real iteration, so it is excluded here). ---
    let combined = KernelRow {
        name: "combined",
        times: (0..THREADS.len())
            .map(|i| {
                rows.iter()
                    .filter(|r| r.name != "electro_penalty_grad")
                    .map(|r| r.times[i])
                    .sum()
            })
            .collect(),
    };
    rows.push(combined);

    // --- Report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"design_cells\": {},", cfg.num_cells);
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    let _ = writeln!(json, "  \"degraded_parallelism\": {degraded},");
    let _ = writeln!(json, "  \"git_revision\": \"{}\",", rdp_bench::git_revision());
    let _ = writeln!(json, "  \"threads\": [1, 2, 4, 8],");
    let _ = writeln!(json, "  \"deterministic_across_threads\": true,");
    let _ = writeln!(json, "  \"kernels\": [");
    for (ki, r) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let secs: Vec<String> = r.times.iter().map(|d| format!("{:.6}", d.as_secs_f64())).collect();
        let _ = writeln!(json, "      \"seconds\": [{}],", secs.join(", "));
        let spd: Vec<String> = (0..THREADS.len()).map(|i| format!("{:.3}", r.speedup(i))).collect();
        let _ = writeln!(json, "      \"speedup\": [{}]", spd.join(", "));
        let _ = writeln!(json, "    }}{}", if ki + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    println!("\n{:<22} {:>10} {:>10} {:>10} {:>10}", "kernel", "1t", "2t", "4t", "8t");
    for r in &rows {
        println!(
            "{:<22} {:>10.3?} {:>10.3?} {:>10.3?} {:>10.3?}   speedup@4t {:.2}x",
            r.name,
            r.times[0],
            r.times[1],
            r.times[2],
            r.times[3],
            r.speedup(2)
        );
    }
    println!("available cores: {cores} (speedup is bounded by this)");

    match rdp_eval::report::save("BENCH_parallel.json", &json) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not save BENCH_parallel.json: {e}"),
    }
}
