//! **F5** — target-density sweep: HPWL, RC and scaled HPWL as a function of
//! the global-placement density target (the spreading-strength knob).
//!
//! Shape: low targets spread cells hard (good RC, worse HPWL); high targets
//! pack tightly (good HPWL, congested). The default (0.9) sits near the
//! scaled-HPWL sweet spot on supply-tight designs.
//!
//! Run: `cargo run -p rdp-bench --release --bin fig_density_sweep [-- --smoke]`

use rdp_bench::{emit, parse_args, standard_suite};
use rdp_core::PlaceOptions;
use rdp_eval::report::{fmt_f, Table};
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    let cfg = standard_suite(args)
        .into_iter()
        .nth(if args.smoke { 1 } else { 4 })
        .expect("suite has enough entries");
    let bench = rdp_gen::generate(&cfg).expect("valid config");

    let mut table = Table::new(&["target_density", "HPWL", "RC%", "scaledHPWL", "overflow", "time_s"]);
    for target in [0.7, 0.8, 0.9, 0.95, 1.0] {
        let mut options = PlaceOptions::default();
        options.gp.target_density = target;
        let out = EvalSession::new(&bench.design).run_flow_on(&bench, options).expect("placeable");
        table.row_owned(vec![
            fmt_f(target, 2),
            fmt_f(out.score.hpwl, 0),
            fmt_f(out.score.rc, 1),
            fmt_f(out.score.scaled_hpwl, 0),
            fmt_f(out.score.congestion.total_overflow, 0),
            fmt_f(out.place_time.as_secs_f64(), 1),
        ]);
    }

    println!("F5 — target-density sweep on {}\n", cfg.name);
    emit("fig_density_sweep", &table);
}
