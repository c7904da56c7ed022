#![warn(missing_docs)]
//! Global-routing substrate for routability-driven placement.
//!
//! The DAC-2012 contest scored placements by running an official global
//! router and measuring edge congestion; this crate reimplements that
//! oracle:
//!
//! * [`RouteGrid`] — the layered gcell grid: per-layer directional edge
//!   capacities plus via edges, carved down under per-layer routing
//!   blockages, with a 2-D projection ([`RouteGrid::project_2d`]) for
//!   consumers that want the collapsed view;
//! * [`topology`] — multi-pin nets decomposed into two-pin segments via a
//!   rectilinear minimum spanning tree;
//! * [`pattern`] — fast L-shape pattern routing (also the *probabilistic*
//!   congestion estimator the placer's inflation loop uses);
//! * [`learned`] — the middle estimator tier: a deterministic per-edge
//!   linear regressor over per-gcell congestion features, trained offline
//!   on this router's own overflow (`rdp train-estimator`);
//! * [`maze`] — canonical A\* maze routing over reusable epoch-stamped
//!   scratch, driving history-based negotiation (rip-up-and-reroute), the
//!   full router used for scoring;
//! * [`metrics`] — overflow and the contest's ACE(k%) / RC metrics;
//! * [`heatmap`] — congestion maps as CSV or ASCII for the figures.
//!
//! # Examples
//!
//! ```
//! use rdp_gen::{generate, GeneratorConfig};
//! use rdp_route::{GlobalRouter, RouterConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = generate(&GeneratorConfig::tiny("r", 1))?;
//! let outcome = GlobalRouter::new(RouterConfig::default())
//!     .route(&bench.design, &bench.placement);
//! println!("RC = {:.1}%, overflow = {}", outcome.metrics.rc, outcome.metrics.total_overflow);
//! # Ok(())
//! # }
//! ```

mod grid;
pub mod heatmap;
pub mod learned;
pub mod maze;
pub mod metrics;
pub mod pattern;
mod router;
pub mod topology;

pub use grid::{EdgeId, GCell, LayerDir, RouteGrid};
pub use learned::EstimatorWeights;
pub use maze::MazeScratch;
pub use metrics::{CongestionMetrics, LayerMetrics, ACE_LEVELS};
pub use pattern::EdgeCosts;
pub use router::{
    GlobalRouter, LayerMode, RoutedSegment, RouterConfig, RouterConfigBuilder, RoutingOutcome,
};
