//! **T2** — the main results table: HPWL, RC and scaled HPWL of the
//! routability-driven flow (ours) against the wirelength-driven baseline
//! **B1** on the standard suite, plus geometric-mean ratios.
//!
//! The paper's shape claim reproduced here: the routability-driven placer
//! trades a small HPWL increase for a substantially lower RC, winning on
//! scaled HPWL wherever the supply is tight.
//!
//! Run: `cargo run -p rdp-bench --release --bin table2_dac2012 [-- --smoke]`

use rdp_bench::{emit, geomean, parse_args, standard_suite};
use rdp_core::PlaceOptions;
use rdp_eval::report::{fmt_f, Table};
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    let mut table = Table::new(&[
        "circuit", "flow", "HPWL", "RC%", "scaledHPWL", "overflow", "legal", "time_s",
    ]);
    let mut ratios_hpwl = Vec::new();
    let mut ratios_scaled = Vec::new();
    let mut rc_full = Vec::new();
    let mut rc_base = Vec::new();

    for cfg in standard_suite(args) {
        let bench = rdp_gen::generate(&cfg).expect("valid suite config");
        let session = EvalSession::new(&bench.design);
        let full = session.run_flow_on(&bench, PlaceOptions::default()).expect("placeable");
        let base = session.run_flow_on(&bench, PlaceOptions::default().wirelength_driven())
            .expect("placeable");
        for (label, out) in [("ours", &full), ("B1-wl", &base)] {
            table.row_owned(vec![
                cfg.name.clone(),
                label.to_string(),
                fmt_f(out.score.hpwl, 0),
                fmt_f(out.score.rc, 1),
                fmt_f(out.score.scaled_hpwl, 0),
                fmt_f(out.score.congestion.total_overflow, 0),
                out.legality.is_legal().to_string(),
                fmt_f(out.place_time.as_secs_f64(), 1),
            ]);
        }
        ratios_hpwl.push(full.score.hpwl / base.score.hpwl);
        ratios_scaled.push(full.score.scaled_hpwl / base.score.scaled_hpwl);
        rc_full.push(full.score.rc);
        rc_base.push(base.score.rc);
    }

    println!("T2 — routability-driven (ours) vs wirelength-driven (B1) on the standard suite\n");
    emit("table2_dac2012", &table);
    let summary = format!(
        "geomean ours/B1: HPWL x{:.3}  scaledHPWL x{:.3}\nmean RC: ours {:.1}%  B1 {:.1}%\n",
        geomean(&ratios_hpwl),
        geomean(&ratios_scaled),
        rc_full.iter().sum::<f64>() / rc_full.len().max(1) as f64,
        rc_base.iter().sum::<f64>() / rc_base.len().max(1) as f64,
    );
    println!("{summary}");
    let _ = rdp_eval::report::save("table2_summary.txt", &summary);
}
