#![warn(missing_docs)]
//! # rdp — Routability-Driven Placement for Hierarchical Mixed-Size Designs
//!
//! A from-scratch Rust reproduction of *"Routability-driven placement for
//! hierarchical mixed-size circuit designs"* (Hsu, Chen, Huang, Chen, Chang —
//! DAC 2013), the NTUplace4h placement system, together with every substrate
//! it needs: circuit database, Bookshelf I/O, benchmark generator, global
//! router and contest evaluator.
//!
//! This facade crate re-exports the member crates under stable module names:
//!
//! | module      | crate       | content                                  |
//! |-------------|-------------|------------------------------------------|
//! | [`geom`]    | `rdp-geom`  | points, rects, orientations              |
//! | [`db`]      | `rdp-db`    | netlist database, Bookshelf I/O          |
//! | [`gen`]     | `rdp-gen`   | synthetic benchmark generator            |
//! | [`route`]   | `rdp-route` | global router, ACE/RC congestion metrics |
//! | [`place`]   | `rdp-core`  | the placer (the paper's contribution)    |
//! | [`eval`]    | `rdp-eval`  | DAC-2012 scoring sessions, reports       |
//! | [`serve`]   | `rdp-serve` | hardened place-as-a-service job server   |
//!
//! [`place`] runs one method per step of the paper's flow: best-choice
//! clustering, analytical global placement, discrete macro orientation,
//! congestion-driven inflation, legalization, and swap/reorder/flip
//! detailed placement.
//!
//! # Quickstart
//!
//! ```
//! use rdp::gen::{generate, GeneratorConfig};
//! use rdp::place::{PlaceOptions, Placer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small mixed-size design and place it.
//! let bench = generate(&GeneratorConfig::tiny("demo", 42))?;
//! let result = Placer::new(&bench.design, PlaceOptions::fast())
//!     .with_initial(bench.placement.clone())
//!     .run()?;
//! println!("final HPWL = {:.0}", result.hpwl);
//! # Ok(())
//! # }
//! ```

pub use rdp_core as place;
pub use rdp_db as db;
pub use rdp_eval as eval;
pub use rdp_gen as gen;
pub use rdp_geom as geom;
pub use rdp_route as route;
pub use rdp_serve as serve;
