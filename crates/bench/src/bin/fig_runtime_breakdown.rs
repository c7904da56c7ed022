//! **F4** — runtime breakdown: wall-time share of each pipeline stage
//! (global place, rotation, routability, legalize, detailed) on one
//! mid-size circuit.
//!
//! Run: `cargo run -p rdp-bench --release --bin fig_runtime_breakdown [-- --smoke]`

use rdp_bench::{emit, parse_args, standard_suite};
use rdp_core::PlaceOptions;
use rdp_eval::report::{fmt_f, fmt_pct, Table};
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    let cfg = standard_suite(args)
        .into_iter()
        .nth(if args.smoke { 2 } else { 5 })
        .expect("suite has enough entries");
    let bench = rdp_gen::generate(&cfg).expect("valid config");
    let out = EvalSession::new(&bench.design)
        .run_flow_on(&bench, PlaceOptions::default())
        .expect("placeable");

    let total: f64 = out.place.trace.stages.iter().map(|s| s.elapsed.as_secs_f64()).sum();
    let mut table = Table::new(&["stage", "seconds", "share"]);
    for s in &out.place.trace.stages {
        table.row_owned(vec![
            s.stage.clone(),
            fmt_f(s.elapsed.as_secs_f64(), 2),
            fmt_pct(s.elapsed.as_secs_f64() / total.max(1e-9)),
        ]);
    }
    table.row_owned(vec![
        "scoring_route".to_string(),
        fmt_f(out.score.route_time.as_secs_f64(), 2),
        "-".to_string(),
    ]);

    println!("F4 — per-stage runtime on {} (total placement {:.1}s)\n", cfg.name, total);
    emit("fig_runtime_breakdown", &table);
    let _ = rdp_eval::report::save("fig_runtime_breakdown_stages.csv", &out.place.trace.stages_csv());
}
