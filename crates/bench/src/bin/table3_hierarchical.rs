//! **T3** — hierarchical (fence-constrained) designs: the hierarchy-aware
//! flow against the fence-blind baseline **B2** (fences only enforced at
//! legalization).
//!
//! Shape claim: hierarchy awareness during global placement removes the
//! legalization displacement that fence-blind placement incurs on the
//! fenced cells (B2 teleports them into their fences at legalization), at
//! equal-or-better wirelength. Both flows end fence-clean — the difference
//! is *how much it costs* to get there.
//!
//! Run: `cargo run -p rdp-bench --release --bin table3_hierarchical [-- --smoke]`

use rdp_bench::{emit, fence_suite, geomean, parse_args};
use rdp_core::PlaceOptions;
use rdp_eval::report::{fmt_f, Table};
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    let mut table = Table::new(&[
        "circuit", "#fences", "flow", "HPWL", "RC%", "scaledHPWL", "fence_viol",
        "disp_fenced", "disp_avg", "time_s",
    ]);
    let mut hpwl_ratio = Vec::new();
    let mut disp_ratio = Vec::new();

    for cfg in fence_suite(args) {
        let bench = rdp_gen::generate(&cfg).expect("valid fence config");
        let movers = bench.design.movable_ids().count().max(1) as f64;
        let session = EvalSession::new(&bench.design);
        let aware = session.run_flow_on(&bench, PlaceOptions::default()).expect("placeable");
        let blind = session.run_flow_on(&bench, PlaceOptions::default().fence_blind())
            .expect("placeable");
        for (label, out) in [("ours", &aware), ("B2-blind", &blind)] {
            let lg = &out.place.legalize;
            table.row_owned(vec![
                cfg.name.clone(),
                cfg.num_regions.to_string(),
                label.to_string(),
                fmt_f(out.score.hpwl, 0),
                fmt_f(out.score.rc, 1),
                fmt_f(out.score.scaled_hpwl, 0),
                out.legality.fence_violations.to_string(),
                fmt_f(lg.fenced_displacement / lg.fenced_count.max(1) as f64, 2),
                fmt_f(lg.total_displacement / movers, 2),
                fmt_f(out.place_time.as_secs_f64(), 1),
            ]);
        }
        hpwl_ratio.push(aware.score.hpwl / blind.score.hpwl);
        let fd = |o: &rdp_eval::FlowOutcome| {
            o.place.legalize.fenced_displacement / o.place.legalize.fenced_count.max(1) as f64
        };
        disp_ratio.push((fd(&aware) + 1e-9) / (fd(&blind) + 1e-9));
    }

    println!("T3 — fence-constrained designs: hierarchy-aware (ours) vs fence-blind GP (B2)\n");
    emit("table3_hierarchical", &table);
    let summary = format!(
        "geomean ours/B2: HPWL x{:.3}  fenced-cell legalization displacement x{:.3}\n",
        geomean(&hpwl_ratio),
        geomean(&disp_ratio),
    );
    println!("{summary}");
    let _ = rdp_eval::report::save("table3_summary.txt", &summary);
}
