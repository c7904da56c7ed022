//! **F1** — congestion-map figure: gcell heatmaps of the same circuit
//! placed wirelength-driven (B1) vs routability-driven (ours), as CSV
//! matrices plus ASCII previews — the before/after hot-spot picture the
//! paper's congestion figures show.
//!
//! Run: `cargo run -p rdp-bench --release --bin fig_congestion_map [-- --smoke]`

use rdp_bench::{parse_args, standard_suite};
use rdp_core::PlaceOptions;
use rdp_eval::EvalSession;
use rdp_route::{heatmap, GlobalRouter, RouterConfig};

fn main() {
    let args = parse_args();
    // The supply-tight circuit (s5 in the full suite; the last smoke one).
    let cfg = standard_suite(args)
        .into_iter()
        .nth(if args.smoke { 3 } else { 4 })
        .expect("suite has enough entries");
    let bench = rdp_gen::generate(&cfg).expect("valid config");

    for (label, options) in [
        ("b1", PlaceOptions::default().wirelength_driven()),
        ("ours", PlaceOptions::default()),
    ] {
        let out = EvalSession::new(&bench.design).run_flow_on(&bench, options).expect("placeable");
        let routed = GlobalRouter::new(RouterConfig::default())
            .route(&bench.design, &out.place.placement);
        let csv = heatmap::to_csv(&routed.grid);
        let ascii = heatmap::to_ascii(&routed.grid);
        let name = format!("fig_congestion_map_{label}");
        let _ = rdp_eval::report::save(&format!("{name}.csv"), &csv);
        let _ = rdp_eval::report::save(&format!("{name}.txt"), &ascii);
        println!(
            "{} [{label}]  RC {:.1}%  overflow {:.0}\n{ascii}",
            cfg.name, routed.metrics.rc, routed.metrics.total_overflow
        );
    }
    eprintln!("wrote fig_congestion_map_{{b1,ours}}.{{csv,txt}} under target/experiments/");
}
