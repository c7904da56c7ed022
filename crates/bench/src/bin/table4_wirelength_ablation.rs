//! **T4** — wirelength-model study: the weighted-average (WA) model against
//! log-sum-exp (LSE) at an equal optimization budget (the claim of the WA
//! line of work the paper builds on: WA's lower modeling error converts
//! into equal-or-better final HPWL).
//!
//! Run: `cargo run -p rdp-bench --release --bin table4_wirelength_ablation [-- --smoke]`

use rdp_bench::{emit, geomean, parse_args, standard_suite};
use rdp_core::{PlaceOptions, WirelengthModel};
use rdp_eval::report::{fmt_f, Table};
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    // A representative subset (s2, s4, s6 in the full suite).
    let suite: Vec<_> = standard_suite(args)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, c)| c)
        .collect();

    let mut table = Table::new(&["circuit", "model", "HPWL", "RC%", "scaledHPWL", "gp_overflow", "time_s"]);
    let mut ratios = Vec::new();
    for cfg in suite {
        let bench = rdp_gen::generate(&cfg).expect("valid config");
        let session = EvalSession::new(&bench.design);
        let wa = session
            .run_flow_on(&bench, PlaceOptions::default().with_wirelength(WirelengthModel::Wa))
            .expect("placeable");
        let lse = session
            .run_flow_on(&bench, PlaceOptions::default().with_wirelength(WirelengthModel::Lse))
            .expect("placeable");
        for (label, out) in [("WA", &wa), ("LSE", &lse)] {
            table.row_owned(vec![
                cfg.name.clone(),
                label.to_string(),
                fmt_f(out.score.hpwl, 0),
                fmt_f(out.score.rc, 1),
                fmt_f(out.score.scaled_hpwl, 0),
                fmt_f(out.place.gp.overflow_ratio, 4),
                fmt_f(out.place_time.as_secs_f64(), 1),
            ]);
        }
        ratios.push(wa.score.hpwl / lse.score.hpwl);
    }

    println!("T4 — weighted-average vs log-sum-exp wirelength model (equal budget)\n");
    emit("table4_wirelength_ablation", &table);
    let summary = format!("geomean WA/LSE HPWL: x{:.3}\n", geomean(&ratios));
    println!("{summary}");
    let _ = rdp_eval::report::save("table4_summary.txt", &summary);
}
