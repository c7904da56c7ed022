//! **F2** — global-placement convergence figure: smooth wirelength, exact
//! HPWL and density overflow per penalty round, as a CSV series.
//!
//! Run: `cargo run -p rdp-bench --release --bin fig_convergence [-- --smoke]`

use rdp_bench::{parse_args, standard_suite};
use rdp_core::PlaceOptions;
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    let cfg = standard_suite(args)
        .into_iter()
        .nth(if args.smoke { 1 } else { 3 })
        .expect("suite has enough entries");
    let bench = rdp_gen::generate(&cfg).expect("valid config");
    let out = EvalSession::new(&bench.design)
        .run_flow_on(&bench, PlaceOptions::default())
        .expect("placeable");

    let csv = out.place.trace.to_csv();
    let _ = rdp_eval::report::save("fig_convergence.csv", &csv);
    println!("F2 — convergence trace of {} ({} records)\n", cfg.name, out.place.trace.records.len());

    // Compact preview: final record of every stage.
    let mut last_stage = String::new();
    for r in &out.place.trace.records {
        if r.stage != last_stage {
            last_stage = r.stage.clone();
        }
    }
    for r in out.place.trace.records.iter().rev().take(12).collect::<Vec<_>>().into_iter().rev() {
        println!(
            "{:<14} outer {:>2}  smoothWL {:>12.0}  HPWL {:>12.0}  overflow {:>7.4}",
            r.stage, r.outer, r.smooth_wl, r.hpwl, r.overflow
        );
    }
    eprintln!("wrote fig_convergence.csv under target/experiments/");
}
