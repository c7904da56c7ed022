#![warn(missing_docs)]
//! DAC-2012-style contest evaluation: scoring, benchmark suites, flow
//! orchestration and report formatting.
//!
//! The contest scored a placement by routing it with the official global
//! router and computing **scaled HPWL** = `HPWL · (1 + 0.03·max(0, RC−100))`
//! where RC is the mean ACE(k%) congestion over k ∈ {0.5, 1, 2, 5}. This
//! crate reimplements that protocol against `rdp-route` and drives the
//! whole experiment matrix of DESIGN.md:
//!
//! * [`session`] — [`EvalSession`], the one entry point: routing,
//!   congestion measurement, contest scoring and place-then-score flows
//!   with per-stage timing, all against one held
//!   [`rdp_route::RouterConfig`];
//! * [`score`] — [`ContestScore`], the contest score a session returns;
//! * [`suite`] — the named benchmark suites (`s1..s8` standard,
//!   `h1..h4` hierarchical) substituting the contest circuits;
//! * [`report`] — aligned text tables and CSV emission for
//!   `target/experiments/`;
//! * [`cache`] — [`DesignCache`], a shared immutable benchmark cache for
//!   callers (like `rdp-serve`) that evaluate the same config repeatedly.
//!
//! # Examples
//!
//! ```
//! use rdp_eval::{suite, EvalSession};
//! use rdp_core::PlaceOptions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = suite::build(&suite::tiny_config("t1", 1))?;
//! let outcome = EvalSession::new(&bench.design).run_flow_on(&bench, PlaceOptions::fast())?;
//! println!("scaled HPWL = {:.0}", outcome.score.scaled_hpwl);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod report;
pub mod score;
pub mod session;
pub mod suite;

pub use cache::DesignCache;
pub use score::ContestScore;
pub use session::{EvalSession, FlowOutcome};
