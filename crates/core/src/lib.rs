#![warn(missing_docs)]
//! Routability-driven analytical placement for hierarchical mixed-size
//! circuit designs — the core of the `rdp` reproduction of NTUplace4h
//! (Hsu, Chen, Huang, Chen, Chang — DAC 2013).
//!
//! The pipeline, orchestrated by [`Placer`]:
//!
//! 1. **hierarchy-aware multilevel clustering** ([`cluster`]) — fence
//!    regions and macros survive coarsening intact;
//! 2. **analytical global placement** ([`optimizer`]) — conjugate gradient
//!    on a smooth wirelength model ([`wirelength`]: LSE or the
//!    weighted-average model) plus a bell-shaped density penalty
//!    ([`density`]) with per-fence density fields and a fence pull-in
//!    force ([`fence`]), both evaluated by one fused pass ([`fused`]);
//! 3. **macro rotation/flipping** ([`macro_handling`]);
//! 4. **routability optimization** ([`inflation`]) — congestion-estimate →
//!    cell inflation → re-place loop against `rdp-route`;
//! 5. **legalization** ([`legalize`]) — macros first, then row/site-legal
//!    standard cells via Tetris assignment + Abacus packing, fence-aware;
//! 6. **detailed placement** ([`detail`]) — congestion-aware cell moves,
//!    window reordering and cell flipping.
//!
//! # Examples
//!
//! ```
//! use rdp_core::{PlaceOptions, Placer};
//! use rdp_gen::{generate, GeneratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = generate(&GeneratorConfig::tiny("demo", 1))?;
//! let result = Placer::new(&bench.design, PlaceOptions::fast()).run()?;
//! println!("HPWL {:.0} after {:?}", result.hpwl, result.elapsed);
//! # Ok(())
//! # }
//! ```

pub mod cluster;
pub mod density;
pub mod detail;
pub mod electrostatics;
pub mod faultinject;
pub mod fence;
pub mod fused;
pub mod inflation;
pub mod legalize;
pub mod macro_handling;
pub mod model;
pub mod net_weighting;
pub mod optimizer;
mod placer;
pub mod recovery;
pub mod rotation;
pub mod trace;
pub mod wirelength;

pub use model::Model;
pub use optimizer::{GpDensityModel, GpOptions, GpOutcome, GpSolver};
pub use placer::{
    CongestionSchedule, CongestionSource, GpRoutabilityOptions, GpRoutabilityOptionsBuilder,
    PlaceError, PlaceOptions, PlaceResult, Placer, RotationMode,
};
pub use placer::FlowProgress;
pub use recovery::{
    CheckpointParseError, DegradedResult, Diverged, FlowBudget, FlowCheckpoint, RecoveryEvent,
    RecoveryPolicy,
};
pub use trace::Trace;
pub use wirelength::WirelengthModel;
