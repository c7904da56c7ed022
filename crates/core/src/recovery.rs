//! Flow-wide resilience: divergence signals, trust-region recovery policy,
//! stage checkpoints, wall-clock budgets and structured degradation
//! reports.
//!
//! The WA wirelength model is only conditionally stable — its exponent
//! stabilization keeps a *single* evaluation finite, but an aggressive
//! penalty schedule can still drive the iterate itself to a non-finite
//! point. Pre-resilience, the flow had no answer to that except undefined
//! behavior downstream (NaN positions poisoning the density grid, sorts
//! panicking in the legalizer). This module defines the contract that
//! replaces it:
//!
//! 1. **Divergence is a signal, not an abort.** The optimizer surfaces a
//!    recoverable [`Diverged`] value carrying the best completed outcome;
//!    the model is guaranteed to hold its last *finite* iterate.
//! 2. **Every stage checkpoints.** The placer snapshots the best feasible
//!    placement per stage into a [`FlowCheckpoint`]; a downstream failure
//!    rolls back to it and reports a [`DegradedResult`] instead of
//!    returning nothing.
//! 3. **Budgets truncate cleanly.** A [`FlowBudget`] (and the router's
//!    `RouterConfig::time_budget`) turns "took too long" into "stop here
//!    and keep what we have", with the truncation recorded as a
//!    [`RecoveryEvent`].
//!
//! Recovery decisions are made exclusively on the orchestrating thread at
//! deterministic points of the schedule, so the bitwise thread-count
//! invariance of the parallel kernels is preserved: a degraded run at 1
//! thread is bitwise identical to the same degraded run at 8.

use rdp_db::Placement;
use std::fmt;
use std::time::{Duration, Instant};

/// Trust-region-style recovery policy applied when a global-placement
/// iteration produces a non-finite wirelength or gradient.
///
/// On divergence the optimizer restores the last finite iterate, shrinks
/// the step length by [`RecoveryPolicy::step_shrink`] and retries; the WA
/// stability shift (the per-net max/min exponent anchor) is re-derived
/// automatically from the restored coordinates on the next evaluation.
/// After [`RecoveryPolicy::max_retries`] failed retries the stage surfaces
/// [`Diverged`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Restore-and-retry attempts per GP stage before giving up.
    pub max_retries: usize,
    /// Step-length multiplier applied at each retry (`0.5` halves the
    /// trust region).
    pub step_shrink: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_retries: 4, step_shrink: 0.5 }
    }
}

/// A global-placement stage exhausted its recovery retries.
///
/// This is a *recoverable* error: the model it was raised from is left at
/// its last finite iterate, and [`Diverged::best`] summarizes the last
/// completed penalty round, so callers can continue the flow from a
/// degraded-but-usable state.
#[derive(Debug, Clone, PartialEq)]
pub struct Diverged {
    /// The stage label that diverged (e.g. `"gp/final"`).
    pub stage: String,
    /// Penalty (outer) round the divergence occurred in.
    pub outer: usize,
    /// Recovery retries spent before giving up.
    pub retries: usize,
    /// Outcome of the last completed round.
    pub best: crate::optimizer::GpOutcome,
}

impl fmt::Display for Diverged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "global placement diverged in stage `{}` (outer round {}, after {} recovery retries)",
            self.stage, self.outer, self.retries
        )
    }
}

impl std::error::Error for Diverged {}

/// One recovery action taken by the resilience layer, recorded into
/// [`crate::Trace::events`] (and mirrored into the stage CSV as
/// zero-duration `recovery/...` rows) so degraded runs are observable.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// The optimizer restored the last finite iterate and shrank its step.
    StepHalved {
        /// GP stage label.
        stage: String,
        /// Outer round of the recovery.
        outer: usize,
        /// Step scale in effect after the shrink.
        scale: f64,
    },
    /// A GP stage exhausted its retries and surfaced [`Diverged`].
    GpDiverged {
        /// GP stage label.
        stage: String,
        /// Retries spent.
        retries: usize,
    },
    /// A stage snapshotted its placement as the new best checkpoint.
    CheckpointSaved {
        /// Checkpoint stage label.
        stage: String,
        /// HPWL of the snapshot.
        hpwl: f64,
    },
    /// A downstream failure rolled the placement back to a checkpoint.
    CheckpointRestored {
        /// The stage that failed.
        failed_stage: String,
        /// The checkpoint stage restored from.
        from: String,
    },
    /// A wall-clock budget expired and the flow truncated cleanly.
    BudgetTruncated {
        /// Budget scope (`"flow"`, `"inflation"`).
        scope: String,
        /// Round (or stage ordinal) the truncation hit.
        at_round: usize,
    },
    /// The routability loop fell back from router-driven congestion to the
    /// probabilistic estimator (router budget blown, or corrupt grid
    /// state detected and discarded).
    CongestionFallback {
        /// Inflation round of the fallback.
        round: usize,
        /// Why (`"router budget"`, `"corrupt grid"`).
        reason: String,
    },
}

impl RecoveryEvent {
    /// Short machine-readable kind tag (used in CSV output).
    pub fn kind(&self) -> &'static str {
        match self {
            RecoveryEvent::StepHalved { .. } => "step_halved",
            RecoveryEvent::GpDiverged { .. } => "gp_diverged",
            RecoveryEvent::CheckpointSaved { .. } => "checkpoint_saved",
            RecoveryEvent::CheckpointRestored { .. } => "checkpoint_restored",
            RecoveryEvent::BudgetTruncated { .. } => "budget_truncated",
            RecoveryEvent::CongestionFallback { .. } => "congestion_fallback",
        }
    }

    /// `(stage, detail)` columns for CSV output.
    pub fn csv_fields(&self) -> (String, String) {
        match self {
            RecoveryEvent::StepHalved { stage, outer, scale } => {
                (stage.clone(), format!("outer={outer} scale={scale}"))
            }
            RecoveryEvent::GpDiverged { stage, retries } => {
                (stage.clone(), format!("retries={retries}"))
            }
            RecoveryEvent::CheckpointSaved { stage, hpwl } => {
                (stage.clone(), format!("hpwl={hpwl:.3}"))
            }
            RecoveryEvent::CheckpointRestored { failed_stage, from } => {
                (failed_stage.clone(), format!("restored-from={from}"))
            }
            RecoveryEvent::BudgetTruncated { scope, at_round } => {
                (scope.clone(), format!("at-round={at_round}"))
            }
            RecoveryEvent::CongestionFallback { round, reason } => {
                (format!("inflate{round}"), reason.clone())
            }
        }
    }
}

/// Snapshot of the best placement a pipeline stage produced, kept so any
/// downstream failure can roll back instead of aborting — and, since the
/// serve layer, so a killed run can **resume** from its last completed
/// stage via [`crate::Placer::resume_from`].
///
/// Checkpoint granularity is *one per completed stage, latest wins*: the
/// flow is monotonic (each stage starts from the previous one's output),
/// so the most recent feasible snapshot is also the best one.
///
/// The snapshot captures everything the flow mutates across stage
/// boundaries: the placement itself (positions + orientations) and the
/// per-object *density areas* (cell inflation is cumulative across
/// routability rounds, so areas are state, not derivable from the
/// placement). Together with `rounds_done` this is sufficient to restart
/// the pipeline bitwise-exactly in estimator-congestion mode; the
/// router-congestion mode additionally carries warm routing state that is
/// *not* checkpointed, so a resumed router-mode run re-routes from scratch
/// and may legitimately differ from the uninterrupted one.
#[derive(Debug, Clone)]
pub struct FlowCheckpoint {
    /// Stage that produced the snapshot (`"global_place"`, `"inflate2"`,
    /// `"legalize"`).
    pub stage: String,
    /// The placement snapshot.
    pub placement: Placement,
    /// HPWL at the snapshot.
    pub hpwl: f64,
    /// Whether the snapshot passed legalization (pre-legalization
    /// checkpoints are feasible but not row-legal). A resume from a legal
    /// checkpoint skips straight to detailed placement.
    pub legal: bool,
    /// Density area per *model object* (movable nodes in design order) at
    /// the snapshot — the cumulative result of the inflation rounds run so
    /// far.
    pub density_area: Vec<f64>,
    /// Routability rounds completed at the snapshot; a resume re-enters
    /// the inflation loop at this round index.
    pub rounds_done: usize,
    /// Global-placement outcome at the snapshot (carried into the resumed
    /// run's [`crate::PlaceResult`]).
    pub gp: crate::optimizer::GpOutcome,
}

/// Error parsing a serialized [`FlowCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointParseError(pub String);

impl fmt::Display for CheckpointParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointParseError {}

fn parse_bits(s: &str, what: &str) -> Result<f64, CheckpointParseError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointParseError(format!("bad {what} bits `{s}`")))
}

impl FlowCheckpoint {
    /// Serializes the checkpoint as a line-oriented text block.
    ///
    /// Floats are written as hexadecimal IEEE-754 bit patterns, so a
    /// round-trip through [`FlowCheckpoint::from_text`] is **bitwise
    /// lossless** — the property the resume-determinism contract rests on.
    /// No external serializer is involved (the workspace builds offline).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.placement.len() * 40);
        out.push_str("rdp-checkpoint v1\n");
        out.push_str(&format!("stage {}\n", self.stage));
        out.push_str(&format!("legal {}\n", u8::from(self.legal)));
        out.push_str(&format!("rounds_done {}\n", self.rounds_done));
        out.push_str(&format!("hpwl {:016x}\n", self.hpwl.to_bits()));
        out.push_str(&format!(
            "gp {:016x} {} {:016x} {} {}\n",
            self.gp.overflow_ratio.to_bits(),
            self.gp.outer_rounds,
            self.gp.smooth_wl.to_bits(),
            self.gp.recoveries,
            self.gp.gradient_evals,
        ));
        out.push_str(&format!("nodes {}\n", self.placement.len()));
        for (i, c) in self.placement.centers().iter().enumerate() {
            let orient = self.placement.orient(rdp_db::NodeId::from_index(i));
            out.push_str(&format!(
                "{:016x} {:016x} {}\n",
                c.x.to_bits(),
                c.y.to_bits(),
                orient.as_str()
            ));
        }
        out.push_str(&format!("areas {}\n", self.density_area.len()));
        for a in &self.density_area {
            out.push_str(&format!("{:016x}\n", a.to_bits()));
        }
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint serialized by [`FlowCheckpoint::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointParseError`] on any structural or lexical
    /// mismatch (a truncated file from a crashed writer parses as an
    /// error, never as a silently shorter checkpoint).
    pub fn from_text(text: &str) -> Result<Self, CheckpointParseError> {
        let mut lines = text.lines();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| CheckpointParseError(format!("truncated before {what}")))
        };
        if next("header")? != "rdp-checkpoint v1" {
            return Err(CheckpointParseError("bad header".into()));
        }
        let field = |line: &str, key: &str| -> Result<String, CheckpointParseError> {
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| CheckpointParseError(format!("expected `{key}`, got `{line}`")))
        };
        let stage = field(next("stage")?, "stage")?;
        let legal = match field(next("legal")?, "legal")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(CheckpointParseError(format!("bad legal flag `{other}`"))),
        };
        let rounds_done = field(next("rounds_done")?, "rounds_done")?
            .parse::<usize>()
            .map_err(|_| CheckpointParseError("bad rounds_done".into()))?;
        let hpwl = parse_bits(&field(next("hpwl")?, "hpwl")?, "hpwl")?;
        let gp_line = field(next("gp")?, "gp")?;
        let gp_parts: Vec<&str> = gp_line.split_whitespace().collect();
        if gp_parts.len() != 5 {
            return Err(CheckpointParseError(format!("bad gp line `{gp_line}`")));
        }
        let parse_count = |s: &str, what: &str| {
            s.parse::<usize>()
                .map_err(|_| CheckpointParseError(format!("bad {what} `{s}`")))
        };
        let gp = crate::optimizer::GpOutcome {
            overflow_ratio: parse_bits(gp_parts[0], "overflow_ratio")?,
            outer_rounds: parse_count(gp_parts[1], "outer_rounds")?,
            smooth_wl: parse_bits(gp_parts[2], "smooth_wl")?,
            recoveries: parse_count(gp_parts[3], "recoveries")?,
            gradient_evals: parse_count(gp_parts[4], "gradient_evals")?,
        };
        // A count read from the file only bounds its loop: the vectors are
        // pre-sized by at most the text length (a line is at least a byte),
        // never by a corrupt, huge count.
        let num_nodes = parse_count(&field(next("nodes")?, "nodes")?, "node count")?;
        let mut centers = Vec::with_capacity(num_nodes.min(text.len()));
        let mut orients = Vec::with_capacity(num_nodes.min(text.len()));
        for i in 0..num_nodes {
            let line = next("node line")?;
            let mut it = line.split_whitespace();
            let (Some(x), Some(y), Some(o), None) = (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(CheckpointParseError(format!("bad node line {i}: `{line}`")));
            };
            centers.push(rdp_geom::Point::new(
                parse_bits(x, "node x")?,
                parse_bits(y, "node y")?,
            ));
            orients.push(
                o.parse::<rdp_geom::Orient>()
                    .map_err(|e| CheckpointParseError(format!("bad orient: {e}")))?,
            );
        }
        let num_areas = parse_count(&field(next("areas")?, "areas")?, "area count")?;
        let mut density_area = Vec::with_capacity(num_areas.min(text.len()));
        for _ in 0..num_areas {
            density_area.push(parse_bits(next("area line")?, "area")?);
        }
        if next("end")? != "end" {
            return Err(CheckpointParseError("missing end marker".into()));
        }
        Ok(FlowCheckpoint {
            stage,
            placement: Placement::from_parts(centers, orients),
            hpwl,
            legal,
            density_area,
            rounds_done,
            gp,
        })
    }
}

/// Structured report attached to a [`crate::PlaceResult`] whose flow
/// degraded (divergence, rollback or budget truncation) instead of
/// completing cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedResult {
    /// The first stage that degraded.
    pub stage: String,
    /// Checkpoint stage the flow rolled back to, if a rollback happened.
    pub restored_from: Option<String>,
    /// Every recovery event of the run, in order.
    pub events: Vec<RecoveryEvent>,
}

/// Wall-clock budgets of a placement run. `None` fields are unlimited
/// (the default), so the resilience layer is inert unless opted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowBudget {
    /// Budget for the whole flow. When it expires, optional stages still
    /// ahead (routability rounds, detailed placement) are skipped — the
    /// degradation ladder drops trailing quality stages first and never
    /// skips legalization.
    pub flow_wall: Option<Duration>,
    /// Budget for the routability (inflation) loop alone. Expiry truncates
    /// the remaining rounds and the flow proceeds to legalization.
    pub inflation_wall: Option<Duration>,
}

/// A started wall-clock budget.
#[derive(Debug, Clone, Copy)]
pub struct BudgetClock {
    start: Instant,
    limit: Option<Duration>,
}

impl BudgetClock {
    /// Starts the clock; `limit == None` never exhausts.
    pub fn new(limit: Option<Duration>) -> Self {
        BudgetClock { start: Instant::now(), limit }
    }

    /// Whether the budget has been spent.
    pub fn exhausted(&self) -> bool {
        self.limit.is_some_and(|l| self.start.elapsed() >= l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_clock_never_exhausts() {
        let c = BudgetClock::new(None);
        assert!(!c.exhausted());
    }

    #[test]
    fn zero_budget_exhausts_immediately() {
        let c = BudgetClock::new(Some(Duration::ZERO));
        assert!(c.exhausted());
    }

    #[test]
    fn event_kinds_and_fields() {
        let e = RecoveryEvent::StepHalved { stage: "gp/final".into(), outer: 3, scale: 0.25 };
        assert_eq!(e.kind(), "step_halved");
        let (stage, detail) = e.csv_fields();
        assert_eq!(stage, "gp/final");
        assert!(detail.contains("outer=3"));
        let e = RecoveryEvent::CongestionFallback { round: 1, reason: "router budget".into() };
        assert_eq!(e.csv_fields().0, "inflate1");
    }

    #[test]
    fn checkpoint_text_round_trip_is_bitwise_lossless() {
        use rdp_geom::{Orient, Point};
        let placement = Placement::from_parts(
            vec![
                Point::new(1.5, -2.25),
                Point::new(f64::from_bits(0x3ff0000000000001), 0.1 + 0.2),
            ],
            vec![Orient::N, Orient::FS],
        );
        let cp = FlowCheckpoint {
            stage: "inflate1".into(),
            placement,
            hpwl: 12345.678,
            legal: false,
            density_area: vec![2.0, 3.75],
            rounds_done: 2,
            gp: crate::optimizer::GpOutcome {
                overflow_ratio: 0.0875,
                outer_rounds: 9,
                smooth_wl: 4567.0,
                recoveries: 1,
                gradient_evals: 321,
            },
        };
        let text = cp.to_text();
        let back = FlowCheckpoint::from_text(&text).unwrap();
        assert_eq!(back.stage, cp.stage);
        assert_eq!(back.legal, cp.legal);
        assert_eq!(back.rounds_done, cp.rounds_done);
        assert_eq!(back.hpwl.to_bits(), cp.hpwl.to_bits());
        assert_eq!(back.gp, cp.gp);
        assert_eq!(back.placement.len(), cp.placement.len());
        for i in 0..cp.placement.len() {
            let id = rdp_db::NodeId::from_index(i);
            let (a, b) = (cp.placement.center(id), back.placement.center(id));
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(cp.placement.orient(id), back.placement.orient(id));
        }
        assert_eq!(
            cp.density_area.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            back.density_area.iter().map(|a| a.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn checkpoint_parse_rejects_garbage_and_truncation() {
        assert!(FlowCheckpoint::from_text("").is_err());
        assert!(FlowCheckpoint::from_text("not a checkpoint\n").is_err());
        let cp = FlowCheckpoint {
            stage: "global_place".into(),
            placement: Placement::from_parts(
                vec![rdp_geom::Point::new(1.0, 2.0)],
                vec![rdp_geom::Orient::N],
            ),
            hpwl: 1.0,
            legal: true,
            density_area: vec![1.0],
            rounds_done: 0,
            gp: crate::optimizer::GpOutcome {
                overflow_ratio: 0.1,
                outer_rounds: 1,
                smooth_wl: 1.0,
                recoveries: 0,
                gradient_evals: 1,
            },
        };
        let text = cp.to_text();
        // A truncated file (crashed writer) must fail loudly, not parse as
        // a shorter checkpoint.
        for cut in [10, text.len() / 2, text.len() - 2] {
            assert!(
                FlowCheckpoint::from_text(&text[..cut]).is_err(),
                "truncation at {cut} parsed"
            );
        }
    }

    #[test]
    fn checkpoint_parse_rejects_huge_counts_without_allocating_them() {
        let cp = FlowCheckpoint {
            stage: "inflate0".into(),
            placement: Placement::from_parts(
                vec![rdp_geom::Point::new(1.0, 2.0)],
                vec![rdp_geom::Orient::N],
            ),
            hpwl: 1.0,
            legal: false,
            density_area: vec![1.0],
            rounds_done: 1,
            gp: crate::optimizer::GpOutcome {
                overflow_ratio: 0.1,
                outer_rounds: 1,
                smooth_wl: 1.0,
                recoveries: 0,
                gradient_evals: 1,
            },
        };
        let text = cp.to_text();
        assert!(FlowCheckpoint::from_text(&text).is_ok());
        // 2^40 entries would ask for terabytes up front; 2^64 - 1 overflows
        // the capacity computation. Both must be plain parse errors.
        for key in ["nodes", "areas"] {
            for count in ["1099511627776", "18446744073709551615"] {
                let corrupt = text.replace(&format!("\n{key} 1\n"), &format!("\n{key} {count}\n"));
                assert_ne!(corrupt, text);
                assert!(FlowCheckpoint::from_text(&corrupt).is_err(), "{key} {count} parsed");
            }
        }
    }

    #[test]
    fn diverged_renders() {
        let d = Diverged {
            stage: "gp/final".into(),
            outer: 2,
            retries: 4,
            best: crate::optimizer::GpOutcome {
                overflow_ratio: 0.5,
                outer_rounds: 2,
                smooth_wl: 1.0,
                recoveries: 4,
                gradient_evals: 17,
            },
        };
        assert!(d.to_string().contains("gp/final"));
        assert!(d.to_string().contains("4 recovery retries"));
    }
}
