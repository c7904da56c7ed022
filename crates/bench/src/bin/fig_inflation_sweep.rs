//! **F3** — inflation-iteration sweep: RC, HPWL and scaled HPWL as a
//! function of the number of routability (inflation) rounds, 0..=6.
//!
//! The paper-family shape: RC falls steeply over the first rounds and
//! saturates, while HPWL creeps up — scaled HPWL bottoms out at a small
//! round count (the default).
//!
//! Run: `cargo run -p rdp-bench --release --bin fig_inflation_sweep [-- --smoke]`

use rdp_bench::{emit, parse_args, standard_suite};
use rdp_core::PlaceOptions;
use rdp_eval::report::{fmt_f, Table};
use rdp_eval::EvalSession;

fn main() {
    let args = parse_args();
    let cfg = standard_suite(args)
        .into_iter()
        .nth(if args.smoke { 3 } else { 4 })
        .expect("suite has enough entries");
    let bench = rdp_gen::generate(&cfg).expect("valid config");

    let mut table = Table::new(&["rounds", "HPWL", "RC%", "scaledHPWL", "inflated_cells", "time_s"]);
    let max_rounds = if args.smoke { 4 } else { 6 };
    for rounds in 0..=max_rounds {
        let options = PlaceOptions {
            routability: rounds > 0,
            inflation_rounds: rounds,
            ..PlaceOptions::default()
        };
        let out = EvalSession::new(&bench.design).run_flow_on(&bench, options).expect("placeable");
        let inflated: usize = out.place.inflation.iter().map(|s| s.inflated).sum();
        table.row_owned(vec![
            rounds.to_string(),
            fmt_f(out.score.hpwl, 0),
            fmt_f(out.score.rc, 1),
            fmt_f(out.score.scaled_hpwl, 0),
            inflated.to_string(),
            fmt_f(out.place_time.as_secs_f64(), 1),
        ]);
    }

    println!("F3 — RC / HPWL vs inflation rounds on {}\n", cfg.name);
    emit("fig_inflation_sweep", &table);
}
