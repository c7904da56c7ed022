//! Contest flow: the full DAC-2012-style tool chain over Bookshelf files —
//! write a benchmark to disk, read it back like a contest placer would,
//! place, legalize, write the result `.pl`, and score it with the routing
//! oracle.
//!
//! Run: `cargo run --release --example contest_flow`

use rdp::db::bookshelf;
use rdp::eval::EvalSession;
use rdp::gen::{generate, GeneratorConfig};
use rdp::place::{PlaceOptions, Placer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("rdp_contest_flow");

    // 1. Emit the benchmark as a Bookshelf directory (.aux/.nodes/...).
    let bench = generate(&GeneratorConfig::small("contest", 2012))?;
    bookshelf::write_design(&bench.design, &bench.placement, &dir)?;
    println!("benchmark at {}", dir.join("contest.aux").display());

    // 2. Read it back — this is the path an external design would take.
    let (design, initial) = bookshelf::read_design(dir.join("contest.aux"))?;
    println!("loaded: {}", rdp::db::stats::DesignStats::of(&design));

    // 3. Place.
    let result = Placer::new(&design, PlaceOptions::fast())
        .with_initial(initial)
        .run()?;

    // 4. Write the solution `.pl` next to the benchmark (the contest
    //    deliverable) by re-emitting the whole design with final positions.
    let out = dir.join("solution");
    bookshelf::write_design(&design, &result.placement, &out)?;
    println!("solution at {}", out.join("contest.pl").display());

    // 5. Official-style scoring.
    let score = EvalSession::new(&design).score(&result.placement);
    println!(
        "HPWL {:.0}   RC {:.1}%   scaled HPWL {:.0}   (routed in {:.2}s)",
        score.hpwl,
        score.rc,
        score.scaled_hpwl,
        score.route_time.as_secs_f64()
    );
    Ok(())
}
