//! Quickstart: generate a small mixed-size design, place it with the full
//! routability-driven flow, and print the score card.
//!
//! Run: `cargo run --release --example quickstart`

use rdp::eval::EvalSession;
use rdp::gen::{generate, GeneratorConfig};
use rdp::place::{PlaceOptions, Placer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 2k-cell mixed-size benchmark (4 macros, fixed blocks, I/O,
    //    routing supply), deterministic in the seed.
    let bench = generate(&GeneratorConfig::small("quickstart", 42))?;
    println!("{}", rdp::db::stats::DesignStats::of(&bench.design));

    // 2. Place: multilevel analytical global placement, macro rotation,
    //    congestion-driven inflation, legalization, detailed placement.
    let result = Placer::new(&bench.design, PlaceOptions::fast())
        .with_initial(bench.placement.clone())
        .run()?;
    println!(
        "placed in {:.1}s — HPWL {:.0}, legalization moved cells by {:.1} on average",
        result.elapsed.as_secs_f64(),
        result.hpwl,
        result.legalize.total_displacement / bench.design.movable_ids().count() as f64,
    );

    // 3. Score with the DAC-2012 protocol: global-route, ACE/RC, scaled HPWL.
    let score = EvalSession::new(&bench.design).score(&result.placement);
    println!(
        "RC = {:.1}%  (ACE {:.0}/{:.0}/{:.0}/{:.0})  scaled HPWL = {:.0}",
        score.rc,
        score.congestion.ace[0],
        score.congestion.ace[1],
        score.congestion.ace[2],
        score.congestion.ace[3],
        score.scaled_hpwl
    );

    // 4. Check legality like the contest evaluator would.
    let report = rdp::db::validate::check_legal(&bench.design, &result.placement, 10);
    println!("legal: {}", report.is_legal());

    // 5. Persist as a Bookshelf benchmark directory.
    let out = std::env::temp_dir().join("rdp_quickstart");
    rdp::db::bookshelf::write_design(&bench.design, &result.placement, &out)?;
    println!("wrote Bookshelf files to {}", out.display());
    Ok(())
}
