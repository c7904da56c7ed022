//! The benchmark definition, read from the repository's `BENCHMARK.json`
//! (compiled in, so the harness and the file cannot disagree on a metric
//! name, unit, direction or bound).

use crate::json::Json;
use std::sync::OnceLock;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The metrics a run reports: end-to-end ones untraced, per-layer ones
    /// traced.
    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The benchmark definition this harness was built with.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well formed")
    })
}

/// Parses a `BENCHMARK.json` document.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("missing array `{key}`"))
    };
    let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDef>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .ok_or(format!("{key}: missing `{f}`"))
                };
                let better = match field("better")? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("{key}: bad direction `{other}`")),
                };
                let bound = if bounded {
                    Some(
                        m.get("bound")
                            .and_then(Json::as_f64)
                            .ok_or(format!("{key}: missing bound"))?,
                    )
                } else {
                    None
                };
                Ok(MetricDef {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    better,
                    bound,
                })
            })
            .collect()
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("workload without a name".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("missing `run_seconds`")? as u64,
        workloads,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}
