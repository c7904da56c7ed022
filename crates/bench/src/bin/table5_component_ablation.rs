//! **T5** — component ablations on two mid-size circuits: the full flow vs
//! (−rotation), (−inflation), (−multilevel). Quantifies what each design
//! choice DESIGN.md calls out contributes.
//!
//! Run: `cargo run -p rdp-bench --release --bin table5_component_ablation [-- --smoke]`

use rdp_bench::{emit, parse_args, standard_suite};
use rdp_core::PlaceOptions;
use rdp_eval::report::{fmt_f, Table};
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    // Two macro-heavy mid-size circuits (s3/s4 positions in the suite).
    let suite: Vec<_> = standard_suite(args).into_iter().skip(2).take(2).collect();

    type MakeOptions = fn() -> PlaceOptions;
    let variants: [(&str, MakeOptions); 5] = [
        ("full", PlaceOptions::default),
        ("-rotation", || PlaceOptions::default().without_rotation()),
        ("-inflation", || PlaceOptions::default().wirelength_driven()),
        ("-multilevel", || PlaceOptions::default().flat()),
        ("netweight", || PlaceOptions::default().with_net_weighting_only()),
    ];

    let mut table = Table::new(&["circuit", "variant", "HPWL", "RC%", "scaledHPWL", "time_s"]);
    for cfg in suite {
        let bench = rdp_gen::generate(&cfg).expect("valid config");
        for (label, make) in variants {
            let out = EvalSession::new(&bench.design)
                .run_flow_on(&bench, make())
                .expect("placeable");
            table.row_owned(vec![
                cfg.name.clone(),
                label.to_string(),
                fmt_f(out.score.hpwl, 0),
                fmt_f(out.score.rc, 1),
                fmt_f(out.score.scaled_hpwl, 0),
                fmt_f(out.place_time.as_secs_f64(), 1),
            ]);
        }
    }

    println!("T5 — component ablations (macro rotation, inflation, multilevel)\n");
    emit("table5_component_ablation", &table);
}
